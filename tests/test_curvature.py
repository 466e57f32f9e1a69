import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import curvature as cv
from g2flow import geometry as ge
from g2flow import verify as vf
from g2flow.cli import csv_columns, monitor_row
from g2flow.errors import NonPositiveShiftedScalar
from g2flow.grid import period_integrals

from conftest import (SMALL_BLOCK_BYTES, dense_c1_norm, flat_state,
                      pair_to_dense, perturbed_state3)

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
        assert m.pair_ginv.flags.c_contiguous
        assert np.array_equal(m.pair_ginv, want)
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
        W = cv.weyl(b, m)
        tr = np.einsum('...il,...ijkl->...jk', m.ginv, pair_to_dense(W))
        assert np.max(np.abs(tr)) < 1e-10
        R = b.R[..., None, None]
        recon = (R / 84.0) * cv.kulkarni_nomizu(m.g, m.g) \
            + 0.2 * cv.kulkarni_nomizu(b.E, m.g) + W
        assert np.max(np.abs(b.Rm - recon)) < 1e-14
        ric = np.einsum('...il,...ijkl->...jk', m.ginv,
                        pair_to_dense(recon))
        assert np.allclose(ric, b.Ric, atol=1e-12)

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
        fld = cv.c1_norm(cv.kulkarni_nomizu(m.g, m.g), m)
        assert np.max(np.abs(fld - np.sqrt(336.0))) <= 1e-12 * np.sqrt(336.0)

    @pytest.mark.parametrize('three', (False, True))
    def test_chunk_size_does_not_move_bits(self, state16, three,
                                           monkeypatch):
        st = perturbed_state3() if three else state16
        W = cv.weyl(st.bundle, st.metric)
        whole = cv.c1_norm(W, st.metric)
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        assert np.array_equal(cv.c1_norm(W, st.metric), whole)

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


class TestDistortionBound:
    def test_distortion_bound(self):
        rows = [{'distortion': 1.0, 'speed_integral': 0.0},
                {'distortion': 1.05, 'speed_integral': 0.1}]
        out = cv.distortion_bound_check(rows)
        assert out['ok']
        rows[1]['distortion'] = 1.2
        assert not cv.distortion_bound_check(rows)['ok']


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
