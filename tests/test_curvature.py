import numpy as np
import pytest

from g2flow import curvature as cv
from g2flow import geometry as ge
from g2flow import verify as vf
from g2flow.cli import csv_columns, monitor_row
from g2flow.errors import NonPositiveShiftedScalar
from g2flow.grid import period_integrals

from conftest import flat_state

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
        got = cv.kulkarni_nomizu(g, g)
        want = 2 * (np.einsum('il,jk->ijkl', g, g)
                    - np.einsum('ik,jl->ijkl', g, g))
        assert np.allclose(got, want)

    def test_commutes(self):
        a, b = random_symmetric(), random_symmetric()
        assert np.allclose(cv.kulkarni_nomizu(a, b), cv.kulkarni_nomizu(b, a),
                           atol=1e-13)

    def test_curvature_symmetries(self):
        a, b = random_symmetric(), random_symmetric()
        K = cv.kulkarni_nomizu(a, b)
        assert np.allclose(K, -np.einsum('ijkl->jikl', K), atol=1e-13)
        assert np.allclose(K, -np.einsum('ijkl->ijlk', K), atol=1e-13)
        assert np.allclose(K, np.einsum('ijkl->klij', K), atol=1e-13)

    def test_traceless_contraction_pins_one_fifth(self):
        # g^il (E o g)_ijkl = 5 E in dimension 7, fixing the 1/5 in the
        # curvature decomposition
        E = random_symmetric(traceless=True)
        got = np.einsum('il,ijkl->jk', np.eye(7),
                        cv.kulkarni_nomizu(E, np.eye(7)))
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
        tr = np.einsum('...il,...ijkl->...jk', m.ginv, W)
        assert np.max(np.abs(tr)) < 1e-10
        R = b.R[..., None, None, None, None]
        recon = (R / 84.0) * cv.kulkarni_nomizu(m.g, m.g) \
            + 0.2 * cv.kulkarni_nomizu(b.E, m.g) + W
        assert np.max(np.abs(b.Rm - recon)) < 1e-14
        ric = np.einsum('...il,...ijkl->...jk', m.ginv, recon)
        assert np.allclose(ric, b.Ric, atol=1e-12)

    def test_printed_variant_gap(self, state16):
        # the literal printed coefficients omit the scalar factor on the
        # final term, so the two variants differ by |1 - R|/30 * (gg pair)
        b = state16.bundle
        m = state16.metric
        pair = (np.einsum('...il,...jk->...ijkl', m.g, m.g)
                - np.einsum('...ik,...jl->...ijkl', m.g, m.g))
        want = ((1.0 - b.R) / 30.0)[..., None, None, None, None] * pair
        gap = cv.weyl_variant_residual(b)
        assert gap > 0.0
        assert abs(gap - np.max(np.abs(want))) < 1e-12


class TestC1Norm:
    def test_constant_scalar_flat(self):
        st = flat_state()
        fld, mx = cv.c1_norm(np.ones(st.spec.shape), st.metric, 0)
        assert mx == pytest.approx(1.0, abs=1e-14)

    def test_metric_gives_sqrt7(self, state16):
        fld, mx = cv.c1_norm(state16.metric.g, state16.metric, 2)
        assert mx == pytest.approx(np.sqrt(7.0), abs=1e-12)

    def test_weyl_c1_stable_under_refinement(self, state32, state64):
        vals = {}
        for st in (state32, state64):
            b = st.bundle
            if b.W is None:
                cv.weyl(b, st.metric)
            _, mx = cv.c1_norm(b.W, st.metric, 4)
            vals[st.spec.shape[0]] = mx
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


class TestPinchingReport:
    def test_report_row(self, state16):
        c = cv.auto_shift(state16.bundle)
        running = {'period_ref': period_integrals(state16.phi)}
        row = monitor_row(state16, None, c, (2.0,), state16.metric.g,
                          running)
        assert row['f_max_g2'] >= row['f_min_g2'] >= 0.0
        assert row['W_c1_max'] >= 0.0
        assert row['distortion'] == pytest.approx(1.0, abs=1e-10)
        assert running['w_ratio'] == row['ratio_driver']
        public = {k for k in row if not k.startswith('_')}
        assert public == set(csv_columns((2.0,))) - {'min_C_g2'}


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


class TestBlowupMonitor:
    def _rows(self, ts, ws):
        return [{'t': t, 'W_c1_max': w, 'distortion': 1.0,
                 'speed_integral': 0.0} for t, w in zip(ts, ws)]

    def test_flat_rate_zero(self):
        out = cv.weyl_blowup_monitor(self._rows([0.0, 0.1], [0.0, 0.0]),
                                     T_est=1.0, delta=0.5)
        assert np.all(out['rate'] == 0.0)

    def test_critical_rate_is_flat(self):
        # a history blowing up exactly like 1/(T-t)^{1-delta} produces a
        # constant rate series: the monitor's reference level
        T, delta = 1.0, 0.3
        ts = np.linspace(0.0, 0.9, 10)
        ws = 2.5 / (T - ts) ** (1.0 - delta)
        out = cv.weyl_blowup_monitor(self._rows(ts, ws), T_est=T, delta=delta)
        assert np.allclose(out['rate'], 2.5)

    def test_subcritical_rate_decays(self):
        # slower growth gives r(t) = (T-t)^delta, monotone to zero
        T, delta = 1.0, 0.3
        ts = np.linspace(0.0, 0.9, 10)
        ws = (T - ts) ** (2.0 * delta - 1.0)
        out = cv.weyl_blowup_monitor(self._rows(ts, ws), T_est=T, delta=delta)
        assert np.allclose(out['rate'], (T - ts) ** delta)
        assert np.all(np.diff(out['rate']) < 0.0)

    def test_domain_errors(self):
        rows = self._rows([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cv.weyl_blowup_monitor(rows, T_est=0.5, delta=0.5)
        with pytest.raises(ValueError):
            cv.weyl_blowup_monitor(rows, T_est=2.0, delta=1.5)

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
        assert cv.metric_distortion(g, g, state16.spec) == \
            pytest.approx(1.0, abs=1e-12)

    def test_known_stretch(self, state16):
        g = state16.metric.g
        assert cv.metric_distortion(g, 4.0 * g, state16.spec) == \
            pytest.approx(4.0, rel=1e-10)
        assert cv.metric_distortion(g, 0.25 * g, state16.spec) == \
            pytest.approx(4.0, rel=1e-10)
