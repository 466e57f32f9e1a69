import tracemalloc

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import curvature as cv
from g2flow import geometry as ge
from g2flow import verify as vf
from g2flow.cli import csv_columns, monitor_row
from g2flow import flow as fl
from g2flow import grid as gr
from g2flow.errors import NonPositiveShiftedScalar
from g2flow.grid import period_integrals
from g2flow.initial_data import flat_phi_field, perturbed_phi_field

from conftest import (EPS, GRID3, MODES3, SMALL_BLOCK_BYTES, dense_c1_norm,
                      flat_state, pair_pack, pair_to_dense, pair_unpack,
                      perturbed_state3)

RNG = np.random.default_rng(21)


def random_symmetric(traceless=False):
    a = RNG.normal(size=(7, 7))
    a = a + a.T
    if traceless:
        a = a - np.trace(a) / 7.0 * np.eye(7)
    return a


class TestKulkarniNomizu:
    def test_flat_double_metric(self):
        g = np.eye(7)
        got = pair_to_dense(cv.kulkarni_nomizu(g, g))
        want = 2 * (np.einsum('il,jk->ijkl', g, g)
                    - np.einsum('ik,jl->ijkl', g, g))
        assert np.allclose(got, want)

    def test_commutes(self):
        a, b = random_symmetric(), random_symmetric()
        assert np.allclose(cv.kulkarni_nomizu(a, b), cv.kulkarni_nomizu(b, a),
                           atol=1e-13)

    def test_curvature_symmetries(self):
        a, b = random_symmetric(), random_symmetric()
        K = pair_to_dense(cv.kulkarni_nomizu(a, b))
        assert np.allclose(K, -np.einsum('ijkl->jikl', K), atol=1e-13)
        assert np.allclose(K, -np.einsum('ijkl->ijlk', K), atol=1e-13)
        assert np.allclose(K, np.einsum('ijkl->klij', K), atol=1e-13)

    def test_point_major_gathers_match_fancy_index(self, state16):
        # pair_ginv and kulkarni_nomizu gather on the flat 49 slots: the
        # same bits as the fancy index, each point's matrix contiguous
        m, E = state16.metric, state16.bundle.E
        i, j, k, l = al.PAIR
        gi = m.ginv
        want = gi[..., i, k] * gi[..., j, l] - gi[..., i, l] * gi[..., j, k]
        got = ge.pair_ginv(gi)
        assert got.flags.c_contiguous and np.array_equal(got, want)
        want = (E[..., i, l] * m.g[..., j, k] + E[..., j, k] * m.g[..., i, l]
                - E[..., i, k] * m.g[..., j, l]
                - E[..., j, l] * m.g[..., i, k])
        got = cv.kulkarni_nomizu(E, m.g)
        assert got.flags.c_contiguous and np.array_equal(got, want)

    def test_traceless_contraction_pins_one_fifth(self):
        # g^il (E o g)_ijkl = 5 E in dimension 7, fixing the 1/5 in the
        # curvature decomposition
        E = random_symmetric(traceless=True)
        got = np.einsum('il,ijkl->jk', np.eye(7),
                        pair_to_dense(cv.kulkarni_nomizu(E, np.eye(7))))
        assert np.allclose(got, 5.0 * E, atol=1e-12)


class TestWeyl:
    def test_flat_vanishes(self):
        st = flat_state()
        W = cv.weyl(st.bundle, st.metric)
        assert np.max(np.abs(W)) == 0.0

    def test_tracefree_and_decomposition(self, state16):
        b = state16.bundle
        m = state16.metric
        W = pair_unpack(cv.weyl(b, m))
        tr = np.einsum('...il,...ijkl->...jk', m.ginv, pair_to_dense(W))
        assert np.max(np.abs(tr)) < 1e-10
        R = b.R[..., None, None]
        recon = (R / 84.0) * cv.kulkarni_nomizu(m.g, m.g) \
            + 0.2 * cv.kulkarni_nomizu(b.E, m.g) + W
        assert np.max(np.abs(b.Rm - recon)) < 1e-14
        ric = np.einsum('...il,...ijkl->...jk', m.ginv,
                        pair_to_dense(recon))
        assert np.allclose(ric, b.Ric, atol=1e-12)

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_blocks_match_whole_grid_formula(self, state16, three,
                                             monkeypatch):
        # g's pair entries serve both products in each block: the bytes of
        # the whole-grid kulkarni_nomizu formula at any block size, on the
        # upper triangle that weyl keeps.  g, Ric and E are symmetric only
        # to about an ulp, so the dense block is too; unpacked, W reads each
        # lower entry off its mirror and is exactly symmetric
        st = perturbed_state3() if three else state16
        b, m = st.bundle, st.metric
        want = (b.Rm - (b.R[..., None, None] / 84.0)
                * cv.kulkarni_nomizu(m.g, m.g)
                - 0.2 * cv.kulkarni_nomizu(b.E, m.g))
        assert want.tobytes() == cv.weyl_block(
            b.Rm, b.R[..., None, None], b.E, m.g).tobytes()
        upper = np.triu(want) + np.swapaxes(np.triu(want, 1), -1, -2)
        for budget in (1 << 40, al.BLOCK_BYTES, SMALL_BLOCK_BYTES):
            monkeypatch.setattr(al, 'BLOCK_BYTES', budget)
            W = cv.weyl(b, m)
            assert W.tobytes() == pair_pack(want).tobytes()
            assert pair_unpack(W).tobytes() == upper.tobytes()

    @pytest.mark.parametrize('spec', (
        gr.GridSpec.from_active(16, (0, 1)), GRID3), ids=('2axis', '3axis'))
    def test_conformally_flat_oracle(self, spec):
        # phi = e^{3u} phi_0 has the metric e^{2u} delta, whose Weyl tensor
        # vanishes: the discrete W and |W|_C1 are rounding (measured 3e-16
        # to 8e-16 and 4e-15 to 6e-15) while E is of order 1; u uses each
        # axis's own wavenumber, so the unequal periods of GRID3 are exact
        x = [spec.coordinates(a) * (2 * np.pi / spec.periods[a])
             for a in spec.active_axes]
        u = sum(0.2 / (j + 1) * np.sin(xj + 0.4 * j + 0.3)
                for j, xj in enumerate(x)) + 0.1 * np.cos(x[0] - x[1])
        phi = gr.FormField(3, spec, np.exp(3 * u)[..., None]
                           * flat_phi_field(spec).values)
        m = ge.MetricField.from_phi(phi)
        assert np.allclose(m.g, np.exp(2 * u)[..., None, None] * np.eye(7),
                           rtol=0.0, atol=1e-14)
        b = ge.riemann(m)
        W = cv.weyl(b, m)
        assert np.max(np.abs(b.E)) > 1.0
        assert np.max(np.abs(W)) <= 1e-14
        assert np.max(cv.c1_norm(W, m)) <= 1e-13

    def test_printed_variant_gap(self, state16):
        # the literal printed coefficients omit the scalar factor on the
        # final term, so the two variants differ by |1 - R|/30 * (gg pair)
        b = state16.bundle
        m = state16.metric
        pair = (np.einsum('...il,...jk->...ijkl', m.g, m.g)
                - np.einsum('...ik,...jl->...ijkl', m.g, m.g))
        want = ((1.0 - b.R) / 30.0)[..., None, None, None, None] * pair
        gap = cv.weyl_variant_residual(b, m)
        assert gap > 0.0
        assert abs(gap - np.max(np.abs(want))) < 1e-12


class TestC1Norm:
    def test_constant_scalar_flat(self):
        st = flat_state()
        mx = np.max(dense_c1_norm(np.ones(st.spec.shape), st.metric, 0))
        assert mx == pytest.approx(1.0, abs=1e-14)

    def test_metric_gives_sqrt7(self, state16):
        mx = np.max(dense_c1_norm(state16.metric.g, state16.metric, 2))
        assert mx == pytest.approx(np.sqrt(7.0), abs=1e-12)

    def test_double_metric_gives_sqrt336(self, state64):
        # |g o g|^2 = 4 (2 * 7^2 - 2 * 7) = 336 exactly; nabla(g o g)
        # vanishes only up to the O(h^4) product-rule defect of the
        # stencil, whose square is below rounding at N=64 (5e-13
        # relative at N=32)
        m = state64.metric
        fld = cv.c1_norm(pair_pack(cv.kulkarni_nomizu(m.g, m.g)), m)
        assert np.max(np.abs(fld - np.sqrt(336.0))) <= 1e-12 * np.sqrt(336.0)

    @pytest.mark.parametrize('three', (False, True))
    def test_chunk_size_does_not_move_bits(self, state16, three,
                                           monkeypatch):
        st = perturbed_state3() if three else state16
        W = cv.weyl(st.bundle, st.metric)
        whole = cv.c1_norm(W, st.metric)
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        # a fresh metric, so that gamma_flat is built in small blocks too
        m = ge.MetricField.from_phi(st.phi)
        assert np.array_equal(cv.c1_norm(W, m), whole)

    @staticmethod
    def c1_peak(st):
        # the bundle has built gamma_flat; Lambda^2(g^-1) is built per
        # block inside c1_norm, so its blocks count toward the peak
        m = st.metric
        W = cv.weyl(st.bundle, m)
        tracemalloc.start()
        try:
            cv.c1_norm(W, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory(self, state32):
        # d_a W per block: with it whole-grid, one array per active axis,
        # this peaked at 14.8 MB; 3.7 MB with a packed W and Lambda^2(g^-1)
        # per block
        assert self.c1_peak(state32) <= 5e6

    def test_peak_memory_three_axes(self):
        # 16^3 points: 58.0 MB with d_a W whole-grid, 5.0 MB per block
        # beside a cached Lambda^2(g^-1), 3.5 MB with it per block too
        spec = gr.GridSpec.from_active(16, (0, 1, 2))
        assert self.c1_peak(fl.FlowState(
            0.0, perturbed_phi_field(spec, EPS, MODES3))) <= 5e6

    def test_weyl_c1_stable_under_refinement(self, state32, state64):
        vals = {}
        for st in (state32, state64):
            fld = cv.c1_norm(cv.weyl(st.bundle, st.metric), st.metric)
            vals[st.spec.shape[0]] = np.max(fld)
        assert abs(vals[32] - vals[64]) / vals[64] < 0.01


class TestPinching:
    def test_flat_f_vanishes(self):
        f = vf.StateTensors(flat_state(), c=1.0).f_field(2.0)
        assert np.max(np.abs(f)) == 0.0

    def test_einstein_like_bundle_gives_zero(self):
        st = flat_state()
        b = st.bundle
        lam = 0.3
        b.Ric = lam * st.metric.g
        b.R = np.full(st.spec.shape, 7.0 * lam)
        b.E = b.Ric - (b.R[..., None, None] / 7.0) * st.metric.g
        f = vf.StateTensors(st, c=1.0).f_field(2.0)
        assert np.max(np.abs(f)) < 1e-14

    def test_gamma_two_identity(self, state16):
        b = state16.bundle
        f = vf.StateTensors(state16, c=1.0).f_field(2.0)
        rt = b.R + 1.0
        rict = b.Ric + (1.0 / 7.0) * state16.metric.g
        ident = ge.tensor_norm2(rict, state16.metric, 2) / rt ** 2 - 1.0 / 7.0
        assert np.max(np.abs(f - ident)) < 1e-13

    def test_nonpositive_shift_raises(self, state16):
        tight = -float(np.min(state16.bundle.R)) / 2.0
        with pytest.raises(NonPositiveShiftedScalar):
            vf.StateTensors(state16, c=tight).f_field(2.0)

    def test_auto_shift(self, state16):
        c = cv.auto_shift(state16.bundle)
        assert c == pytest.approx(1.0 - float(np.min(state16.bundle.R)))
        cv.shifted_scalar(state16.bundle, c)

    def test_f_nonnegative(self, state16):
        c = cv.auto_shift(state16.bundle)
        f = vf.StateTensors(state16, c=c).f_field(2.0)
        assert np.min(f) >= 0.0


def whitening(g0):
    return np.linalg.inv(np.linalg.cholesky(g0))


class TestPinchingReport:
    def test_report_row(self, state16):
        c = cv.auto_shift(state16.bundle)
        running = {'period_ref': period_integrals(state16.phi)}
        row = monitor_row(vf.StateTensors(state16, c), (2.0,),
                          whitening(state16.metric.g), running)
        assert row['f_max_g2'] >= row['f_min_g2'] >= 0.0
        assert row['W_c1_max'] >= 0.0
        assert row['distortion'] == pytest.approx(1.0, abs=1e-10)
        assert running['w_ratio'] == row['ratio_driver']
        assert list(row) == csv_columns((2.0,))
        assert row['min_C_g2'] is None


class TestRatioFit:
    def _rows(self, lhs, drv):
        return [{'ratio_lhs': l, 'ratio_driver': d, 't': float(n)}
                for n, (l, d) in enumerate(zip(lhs, drv))]

    def test_flat_history(self):
        fit = cv.traceless_ricci_ratio_fit(self._rows([0.0] * 5, [0.0] * 5),
                                           c1=0.0)
        assert fit['C2'] == 0.0
        assert fit['min_margin'] >= 0.0

    def test_single_row_exact(self):
        fit = cv.traceless_ricci_ratio_fit(self._rows([0.5], [1.0]), c1=0.2)
        assert fit['min_margin'] >= 0.0
        assert fit['C2'] == 0.0  # C1 >= 1 already covers lhs = 0.5

    def test_slope_needed(self):
        # lhs exceeds any admissible intercept where the driver is large,
        # so the fit must engage the slope; margins stay nonnegative
        lhs = [0.1, 5.0]
        drv = [0.0, 10.0]
        fit = cv.traceless_ricci_ratio_fit(self._rows(lhs, drv), c1=0.2)
        assert fit['C2'] > 0.0
        assert fit['min_margin'] >= -1e-12
        assert fit['C1'] == pytest.approx(
            max(0.2, 2 * fit['C2'] ** 2 + 1), rel=1e-12)

    def test_nan_row_fails_to_bracket(self):
        # a NaN ratio_lhs satisfies no bound, so no slope is ever found
        with pytest.raises(ArithmeticError, match="failed to bracket"):
            cv.traceless_ricci_ratio_fit(
                self._rows([0.5, float('nan')], [1.0, 1.0]), c1=0.2)


class TestDistortionBound:
    def test_distortion_bound(self):
        rows = [{'distortion': 1.0, 'speed_integral': 0.0},
                {'distortion': 1.05, 'speed_integral': 0.1}]
        assert cv.distortion_bound_check(rows) is True
        rows[1]['distortion'] = 1.2
        assert cv.distortion_bound_check(rows) is False


class TestMetricDistortion:
    def test_identity(self, state16):
        g = state16.metric.g
        assert cv.metric_distortion(whitening(g), g) == \
            pytest.approx(1.0, abs=1e-12)

    def test_known_stretch(self, state16):
        w = whitening(state16.metric.g)
        g = state16.metric.g
        assert cv.metric_distortion(w, 4.0 * g) == \
            pytest.approx(4.0, rel=1e-10)
        assert cv.metric_distortion(w, 0.25 * g) == \
            pytest.approx(4.0, rel=1e-10)
