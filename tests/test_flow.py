import os

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import flow as fl
from g2flow import grid as gr
from g2flow.errors import NotPositive, PositivityLost, SnapshotError, Stalled
from g2flow.initial_data import Mode, flat_phi_field, perturbed_phi_field

from conftest import (GRID3, flat_state, perturbed_state3, rewrite_header,
                      scenario_spec)


@pytest.fixture(scope="module")
def short_run():
    """A 30-step perturbed run at N=16 shared by the monotonicity and
    conservation tests."""
    spec = scenario_spec(16)
    states = [fl.FlowState(0.0, perturbed_phi_field(spec, 0.05))]
    for _ in range(30):
        states.append(fl.step(states[-1]))
    return states


class TestStepPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            fl.StepPolicy(safety=0.0)
        with pytest.raises(ValueError):
            fl.StepPolicy(safety=1.5)
        with pytest.raises(ValueError):
            fl.StepPolicy(dt_floor=1.0, max_dt=0.5)


class TestRhs:
    def test_flat_zero(self):
        assert fl.rhs(flat_phi_field(scenario_spec(8))).max_abs() == 0.0

    def test_result_is_exact(self):
        out = fl.rhs(perturbed_phi_field(scenario_spec(16), 0.05))
        assert gr.exterior_derivative(out).max_abs() <= 1e-13

    def test_linear_in_epsilon_at_leading_order(self):
        spec = scenario_spec(16)
        r1 = fl.rhs(perturbed_phi_field(spec, 0.04)).max_abs()
        r2 = fl.rhs(perturbed_phi_field(spec, 0.02)).max_abs()
        assert abs(r1 / (2.0 * r2) - 1.0) < 0.10

    def test_positivity_failure_reported(self):
        spec = scenario_spec(4)
        comps = np.zeros(35)
        comps[al.POS[3][(0, 1, 2)]] = 1.0
        bad = gr.FormField.constant(al.FormK(3, comps), spec)
        with pytest.raises(NotPositive) as err:
            fl.rhs(bad)
        assert err.value.point is not None
        with pytest.raises(PositivityLost) as err:
            fl.step_fixed(fl.FlowState(0.0, bad), 1e-3)
        assert err.value.point is not None


class TestStep:
    def test_flat_fixed_point(self):
        spec = scenario_spec(8)
        st = fl.FlowState(0.0, flat_phi_field(spec))
        ref = st.phi.values.copy()
        for _ in range(25):
            st = fl.step(st)
        assert np.max(np.abs(st.phi.values - ref)) <= 1e-12

    def test_volume_monotone(self, short_run):
        vols = np.array([s.volume() for s in short_run])
        assert np.all(np.diff(vols) >= -1e-10 * vols[:-1])
        assert vols[-1] > vols[0]

    def test_torsion_decays(self, short_run):
        t0 = float(np.max(short_run[0].T_norm2))
        t1 = float(np.max(short_run[-1].T_norm2))
        assert t1 < 0.1 * t0

    def test_closedness_preserved(self, short_run):
        for s in short_run[::10]:
            assert s.closedness() <= 1e-12

    def test_periods_pinned(self, short_run):
        p0 = gr.period_integrals(short_run[0].phi)
        p1 = gr.period_integrals(short_run[-1].phi)
        scale = max(abs(v) for v in p0.values())
        for key in p0:
            assert abs(p1[key] - p0[key]) <= 1e-10 * scale

    def test_stall_when_floor_exceeds_suggestion(self, short_run):
        policy = fl.StepPolicy(safety=0.5, dt_floor=10.0, max_dt=20.0)
        with pytest.raises(Stalled):
            fl.step(short_run[0], policy)

    def test_nan_dt_stalls(self, short_run, monkeypatch):
        # nan < dt_floor is False; the controller must still refuse nan
        monkeypatch.setattr(fl, 'suggest_dt', lambda state, policy: np.nan)
        with pytest.raises(Stalled):
            fl.step(short_run[0])

    @staticmethod
    def leave_cone(monkeypatch, failures):
        """Make RK4 leave the positive cone on its first ``failures``
        calls and return the unchanged 3-form after; returns the dt of
        every call."""
        calls = []

        def rk4(state, dt):
            calls.append(dt)
            if len(calls) <= failures:
                raise NotPositive("left the positive cone", point=3)
            return state.phi
        monkeypatch.setattr(fl, '_rk4', rk4)
        return calls

    @pytest.mark.parametrize('k', [0, 1, 3, fl.MAX_RETRIES])
    def test_positivity_failures_halve_dt(self, monkeypatch, k):
        state = flat_state()
        dt0 = fl.suggest_dt(state, fl.StepPolicy())
        calls = self.leave_cone(monkeypatch, k)
        new = fl.step(state)
        assert new.dt == dt0 * 0.5 ** k
        assert new.t == state.t + new.dt and new.step_index == 1
        assert calls == [dt0 * 0.5 ** i for i in range(k + 1)]

    def test_retry_budget_exhausted(self, monkeypatch):
        state = flat_state()
        dt0 = fl.suggest_dt(state, fl.StepPolicy())
        self.leave_cone(monkeypatch, fl.MAX_RETRIES + 1)
        with pytest.raises(PositivityLost) as err:
            fl.step(state)
        assert err.value.dt_history == tuple(
            dt0 * 0.5 ** i for i in range(fl.MAX_RETRIES + 1))
        assert err.value.point == 3 and err.value.t == state.t

    def test_floor_crossed_while_halving_stalls(self, monkeypatch):
        state = flat_state()
        dt0 = fl.suggest_dt(state, fl.StepPolicy())
        # dt0 and dt0/2 clear the floor; the second halving crosses it
        policy = fl.StepPolicy(dt_floor=0.3 * dt0)
        self.leave_cone(monkeypatch, fl.MAX_RETRIES + 1)
        with pytest.raises(Stalled) as err:
            fl.step(state, policy)
        assert err.value.dt == dt0 / 4
        assert err.value.dt_history == (dt0, dt0 / 2)
        assert isinstance(err.value.__cause__, NotPositive)

    def test_three_axes_unequal_periods_conserved(self):
        st = perturbed_state3()
        p0 = gr.period_integrals(st.phi)
        h = GRID3.min_active_spacing()
        for _ in range(3):
            st = fl.step_fixed(st, 0.25 * h * h)
        assert st.closedness() <= 1e-12
        p1 = gr.period_integrals(st.phi)
        scale = max(abs(v) for v in p0.values())
        for key in p0:
            assert abs(p1[key] - p0[key]) <= 1e-10 * scale

    @pytest.mark.parametrize('n, axes', [(24, 3), (8, 4)])
    def test_worst_exact_mode_damped(self, n, axes):
        # flat data plus 1e-6 of the stencil's worst exact mode along every
        # active axis, 20 RK4 steps at the step rule's dt.  Without the
        # stability cap, dt rho_0 was 2.82 (|R| = 1.06) here on 3 axes and
        # 3.76 (|R| = 3.8) on 4, and the seed grew 1.87x and 4,000x.  Half
        # of it lies in the linearised flow's kernel and stays at any dt.
        # The data stay flat to 1e-6, so the rule's dt moves by 0.2% over
        # the run; it is read once to keep the run short
        spec = gr.GridSpec.from_active(n, range(axes))
        t = 2 * np.pi * np.arange(n) / n
        j = int(np.argmax((8 * np.sin(t) - np.sin(2 * t)) ** 2))
        mode = Mode((j,) * axes + (0,) * (7 - axes), (0, 6))
        st = fl.FlowState(0.0, perturbed_phi_field(spec, 1e-6, (mode,)))
        flat = flat_phi_field(spec).values
        seed = np.max(np.abs(st.phi.values - flat))
        dt = fl.suggest_dt(st, fl.StepPolicy())
        assert dt * spec.stencil_bound() <= fl.STABLE_DT_RHO
        for _ in range(20):
            st = fl.step_fixed(st, dt)
        assert np.max(np.abs(st.phi.values - flat)) < 0.6 * seed

    def test_step_builds_four_metrics(self, monkeypatch):
        # stage k1 reads the state's cached metric, so only stages k2-k4
        # and the new state's positivity check build one
        state = fl.FlowState(0.0, perturbed_phi_field(scenario_spec(8), 0.05))
        state.metric
        calls = []
        inner = al.metric_data_from_phi

        def counted(phi3):
            calls.append(phi3.shape)
            return inner(phi3)

        monkeypatch.setattr(al, 'metric_data_from_phi', counted)
        new = fl.step_fixed(state, 1e-3)
        assert len(calls) == 4
        assert new.dt == 1e-3

    def test_state_caches_are_fresh(self, short_run):
        s = short_run[1]
        assert s.metric is s.metric
        assert s.bundle is s.bundle
        for name in ('T', 'That', 'T_norm2', 'S'):
            assert getattr(s, name) is getattr(s, name)
        assert s.step_index == 1


def metric_evolution_crosscheck(state_prev, state_next):
    """Compare the finite-difference metric velocity between two states
    against -2 S at the averaged midpoint 3-form.

    Returns a dict with the max absolute and relative residuals, the exact
    trace identity tr S = R + |T|^2/3 (algebraic, rounding-level) and the
    discretization-level residual tr S - (2/3) R.
    """
    dt = state_next.t - state_prev.t
    fd = (state_next.metric.g - state_prev.metric.g) / dt
    mid = fl.FlowState(0.5 * (state_prev.t + state_next.t),
                       gr.FormField(3, state_prev.spec,
                                    0.5 * (state_prev.phi.values
                                           + state_next.phi.values)))
    b = mid.bundle
    rhs_mid = -2.0 * mid.S
    resid = np.max(np.abs(fd - rhs_mid))
    scale = max(float(np.max(np.abs(rhs_mid))), 1e-30)
    m = mid.metric
    trS = np.einsum('...ij,...ij->...', m.ginv, mid.S)
    exact_tr = np.max(np.abs(trS - (b.R + mid.T_norm2 / 3.0)))
    paper_tr = np.max(np.abs(trS - (2.0 / 3.0) * b.R))
    return {
        'residual_max': float(resid),
        'residual_rel': float(resid / scale),
        'trace_algebraic': float(exact_tr),
        'trace_vs_scalar': float(paper_tr),
    }


class TestCrosscheck:
    def test_flat_both_sides_zero(self):
        spec = scenario_spec(8)
        a = fl.FlowState(0.0, flat_phi_field(spec))
        b = fl.step_fixed(a, 1e-3)
        out = metric_evolution_crosscheck(a, b)
        assert out['residual_max'] <= 1e-14

    def test_trace_identities(self, short_run):
        out = metric_evolution_crosscheck(short_run[0], short_run[1])
        assert out['trace_algebraic'] <= 1e-12
        # tr S = (2/3) R holds through R = -|T|^2, an order h^4 statement
        assert out['trace_vs_scalar'] < 1e-4

    def test_time_order_of_residual(self):
        # difference estimator over dt, dt/2, dt/4 at fixed grid
        spec = scenario_spec(16)
        phi0 = perturbed_phi_field(spec, 0.05)
        h2 = spec.min_active_spacing() ** 2
        res = {}
        for lvl in range(3):
            dt = 1.0 * h2 / 2 ** lvl
            a = fl.FlowState(0.0, phi0)
            b = fl.step_fixed(a, dt)
            res[dt] = metric_evolution_crosscheck(a, b)['residual_max']
        ss = sorted(res, reverse=True)
        num = res[ss[0]] - res[ss[1]]
        den = res[ss[1]] - res[ss[2]]
        assert num > 0 and den > 0
        assert np.log2(num / den) > 1.8


class TestSnapshot:
    def test_roundtrip_bit_exact(self, short_run, tmp_path):
        st = short_run[3]
        path = tmp_path / "state.g2snap"
        fl.snapshot(st, path, aux={'c': 1.25, 'w_ratio': 0.5})
        back, aux = fl.restore(path)
        assert np.array_equal(back.phi.values, st.phi.values)
        assert back.t == st.t and back.step_index == st.step_index
        assert aux == {'c': 1.25, 'w_ratio': 0.5}
        assert back.spec.shape == st.spec.shape
        assert back.spec.periods == st.spec.periods

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.g2snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 256)
        with pytest.raises(SnapshotError):
            fl.restore(path)

    def test_version_mismatch(self, short_run, tmp_path):
        path = tmp_path / "v.g2snap"
        fl.snapshot(short_run[0], path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            fl.restore(path)

    def test_truncated(self, short_run, tmp_path):
        path = tmp_path / "t.g2snap"
        fl.snapshot(short_run[0], path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 64])
        with pytest.raises(SnapshotError):
            fl.restore(path)
        assert not os.path.exists(str(path) + ".tmp")

    def test_corrupt_payload(self, short_run, tmp_path):
        path = tmp_path / "c.g2snap"
        fl.snapshot(short_run[0], path)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            fl.restore(path)

    def test_axis_mask_rewritten_rejected(self, short_run, tmp_path):
        path = tmp_path / "m.g2snap"
        fl.snapshot(short_run[0], path)
        rewrite_header(path, 17, 0x7f)  # all seven axes; the shape has two
        with pytest.raises(SnapshotError, match="active-axis mask"):
            fl.restore(path)

    @pytest.mark.parametrize('field, value, problem', [
        (2, 9, "degree 9"),
        (3, 0, "shape"),
        (3, 2, "shape"),
        (3, 3, "shape"),
        (10, -1.0, "periods"),
        (10, np.inf, "periods"),
        (18, np.nan, "time"),
        (18, np.inf, "time"),
        (18, -1.0, "time"),
    ])
    def test_malformed_header_rejected(self, short_run, tmp_path, field,
                                       value, problem):
        path = tmp_path / "h.g2snap"
        fl.snapshot(short_run[0], path)
        rewrite_header(path, field, value)
        with pytest.raises(SnapshotError, match=problem):
            fl.restore(path)

    @pytest.mark.parametrize('number', [b'NaN', b'Infinity', b'1e999'])
    def test_nonfinite_aux_rejected(self, short_run, tmp_path, number):
        # json.loads reads NaN, Infinity and 1e999 by default; the value is
        # padded with spaces so the aux length, size and CRC still match
        path = tmp_path / "aux.g2snap"
        fl.snapshot(short_run[0], path, aux={'c': 1.2345678})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'1.2345678', number.ljust(9), 1))
        with pytest.raises(SnapshotError, match="non-finite"):
            fl.restore(path)

    @pytest.mark.parametrize('number', [float('nan'), float('inf')])
    def test_nonfinite_aux_refused_on_write(self, short_run, tmp_path,
                                            number):
        path = tmp_path / "aux.g2snap"
        with pytest.raises(SnapshotError, match="aux"):
            fl.snapshot(short_run[0], path, aux={'c': number})
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_aux_rejected(self, short_run, tmp_path):
        # one byte of the aux JSON rewritten: size and payload CRC still
        # match, so only the JSON parse can refuse it
        path = tmp_path / "aux.g2snap"
        fl.snapshot(short_run[0], path, aux={'c': 1.25})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'{"c"', b'["c"', 1))
        with pytest.raises(SnapshotError, match="corrupt auxiliary block"):
            fl.restore(path)

    def test_nonclosed_rejected(self, tmp_path):
        spec = scenario_spec(8)
        vals = flat_phi_field(spec).values.copy()
        comp = al.POS[3][(3, 4, 5)]
        vals[..., comp] += 0.1 * np.sin(spec.coordinates(0))
        bad_state = fl.FlowState(0.0, gr.FormField(3, spec, vals))
        path = tmp_path / "nc.g2snap"
        fl.snapshot(bad_state, path)
        with pytest.raises(SnapshotError):
            fl.restore(path)

    @pytest.mark.parametrize('comp', [(2, 3, 4), (0, 1, 2)])
    def test_nonfinite_rejected(self, tmp_path, comp):
        # (0, 1, 2) holds both active axes, so d phi never reads it and
        # only the explicit finiteness check can catch the NaN
        spec = scenario_spec(8)
        vals = flat_phi_field(spec).values.copy()
        vals.reshape(-1, 35)[5, al.POS[3][comp]] = np.nan
        path = tmp_path / "nan.g2snap"
        fl.snapshot(fl.FlowState(0.0, gr.FormField(3, spec, vals)), path)
        with pytest.raises(SnapshotError):
            fl.restore(path)


class TestDeterminism:
    def test_trajectory_bitwise_repeatable(self):
        spec = scenario_spec(16)

        def run():
            st = fl.FlowState(0.0, perturbed_phi_field(spec, 0.05))
            for _ in range(5):
                st = fl.step(st)
            return st.phi.values

        assert np.array_equal(run(), run())
