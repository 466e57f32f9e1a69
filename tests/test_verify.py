import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import flow as fl
from g2flow import geometry as ge
from g2flow import grid as gr
from g2flow import verify as vf
from g2flow.curvature import auto_shift
from g2flow.errors import NonPositiveShiftedScalar
from g2flow.initial_data import perturbed_phi_field

from conftest import (EPS, GRID3, MODES3, SMALL_BLOCK_BYTES,
                      dense_hessian_traces, flat_state, pair_to_dense,
                      perturbed_state, perturbed_state3, scenario_spec)


@pytest.fixture(scope="module")
def ts16():
    return vf.StateTensors(perturbed_state(16), c=1.0)


@pytest.fixture(scope="module")
def ts32():
    return vf.StateTensors(perturbed_state(32), c=1.0)


class TestAuxTerms:
    def test_flat_values(self):
        # at the flat point with c = 1: I = 0, J = 0, H = -2/7, and the
        # shifted-scalar RHS balances to zero
        ts = vf.StateTensors(flat_state(), c=1.0)
        aux = vf.compute_aux_terms(ts)
        assert np.max(np.abs(aux.I)) < 1e-14
        assert np.max(np.abs(aux.J)) < 1e-14
        assert np.max(np.abs(aux.H + 2.0 / 7.0)) < 1e-14
        rhs = vf.rhs_shifted_scalar_evolution(ts)
        assert np.max(np.abs(rhs)) < 1e-14

    def test_flat_h_scales_with_shift(self):
        # H(flat, c) = -2 c^2 / 7
        ts = vf.StateTensors(flat_state(), c=2.0)
        aux = vf.compute_aux_terms(ts)
        assert np.max(np.abs(aux.H + 8.0 / 7.0)) < 1e-13

    def test_cubic_parity(self):
        # E^3 flips sign under E -> -E; the Weyl quadratic does not
        rng = np.random.default_rng(3)
        E = rng.normal(size=(7, 7))
        E = E + E.T
        E -= np.trace(E) / 7 * np.eye(7)
        e3 = np.einsum('ij,jl,li->', E, E, E)
        assert abs(e3 + np.einsum('ij,jl,li->', -E, -E, -E)) < 1e-12
        W = rng.normal(size=(7, 7, 7, 7))
        wee = np.einsum('pijl,pl,ij->', W, E, E)
        assert abs(wee - np.einsum('pijl,pl,ij->', W, -E, -E)) < 1e-12

    def test_built_once_per_crosscheck_state(self, state16, monkeypatch):
        # both shifted consistency checks read StateTensors.aux
        inner, calls = vf.compute_aux_terms, []

        def counted(ts):
            calls.append(ts)
            return inner(ts)
        monkeypatch.setattr(vf, 'compute_aux_terms', counted)
        vf.crosscheck_residuals(state16, 1.0)
        assert len(calls) == 1

    def test_shift_positivity_enforced(self, state16):
        ts = vf.StateTensors(state16, c=1e-4)
        with pytest.raises(NonPositiveShiftedScalar):
            ts.Rt

    def test_gamma_two_kills_exponent_factor(self):
        assert (2.0 - 2.0) * (2.0 - 1.0) == 0.0
        # the term's coefficient vanishes identically at gamma = 2, so the
        # full RHS equals the version with that term deleted
        ts = vf.StateTensors(perturbed_state(8), c=1.0)
        full = vf.rhs_pinching_evolution(ts, 2.0)
        grad_R = ts.grad_R
        grad_n2 = np.einsum('...ab,...a,...b->...', ts.m.ginv, grad_R,
                            grad_R)
        probe = full + 0.0 * grad_n2 * ts.f_field(2.0)
        assert np.allclose(full, probe)


def routed_contractions(ts):
    """Every contraction across the pairs, through algebra.pair_apply."""
    S = ts.state.S
    S_up = al.slot_apply(S, ts.m.ginv, 2)
    return {'Rm_Ric_up': ts.Rm_Ric_up, 'Rm_That_up': ts.Rm_That_up,
            'Rm_TT': ts.Rm_TT, 'WEE': ts.WEE,
            'lichnerowicz': vf.lichnerowicz(
                ts, S, S_up, ge.covariant_derivative(S, ts.m, 2)),
            'shifted_rhs': vf.rhs_shifted_ricci_norm_evolution(ts)}


def dense_pair_apply(P, X):
    return np.einsum('...pijl,...pl->...ij', pair_to_dense(P), X,
                     optimize=True)


class TestPairContractions:
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_match_dense_einsums(self, state16, three, monkeypatch):
        # the four cached contractions against the einsums over the dense
        # 7^4 expansion; lichnerowicz and the shifted RHS against
        # themselves with the dense einsum in place of the kernel
        st = perturbed_state3() if three else state16
        ts = vf.StateTensors(st, c=1.0)
        got = routed_contractions(ts)
        up = lambda X: al.slot_apply(X, ts.m.ginv, 2)  # noqa: E731
        D, T_up, E_up = pair_to_dense(ts.b.Rm), up(ts.state.T), up(ts.b.E)
        want = {
            'Rm_Ric_up': np.einsum('...pijl,...pl->...ij', D, ts.Ric_up),
            'Rm_That_up': np.einsum('...pijl,...pl->...ij', D,
                                    up(ts.state.That)),
            'Rm_TT': np.einsum('...ijmn,...in,...mj->...', D, T_up, T_up,
                               optimize=True),
            'WEE': np.einsum('...pijl,...pl,...ij->...', pair_to_dense(ts.W),
                             E_up, E_up, optimize=True)}
        monkeypatch.setattr(al, 'pair_apply', dense_pair_apply)
        ref = routed_contractions(vf.StateTensors(st, c=1.0))
        want.update(lichnerowicz=ref['lichnerowicz'],
                    shifted_rhs=ref['shifted_rhs'])
        for name, w in want.items():
            assert np.max(np.abs(got[name] - w)) <= \
                1e-13 * np.max(np.abs(w)), name

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_chunk_size_does_not_move_bits(self, state16, three,
                                           monkeypatch):
        st = perturbed_state3() if three else state16
        whole = routed_contractions(vf.StateTensors(st, c=1.0))
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        got = routed_contractions(vf.StateTensors(st, c=1.0))
        for name, w in whole.items():
            assert np.array_equal(got[name], w), name

    def test_peak_memory(self, state32):
        # the operator lives one chunk at a time: with the dense 7^4
        # expansions these peaked at 59.4 and 79.5 MB
        ts = vf.StateTensors(state32, c=1.0)
        ts.b
        for name in ('Rm_Ric_up', 'WEE'):
            tracemalloc.start()
            try:
                getattr(ts, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12e6, name

    def test_no_dense_curvature_in_src(self):
        src = Path(vf.__file__).parent
        for path in src.glob('*.py'):
            text = path.read_text()
            for word in ('pair_to_dense', 'Rm_dense', "'...pijl"):
                assert word not in text, (path.name, word)


class TestHessianTraces:
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_match_dense_second_derivative(self, state16, three):
        # the Laplacian, A and div div = g^os A_os against the traces of
        # the dense second derivative; the traces of g vanish in exact
        # arithmetic, so its scale is |g| = 1
        ts = vf.StateTensors(perturbed_state3() if three else state16, c=1.0)
        m = ts.m
        for name, X in (('That', ts.state.That), ('S', ts.state.S),
                        ('Ric', ts.b.Ric), ('g', m.g)):
            Y = ge.covariant_derivative(X, m, 2)
            lap, A = ge.hessian_traces(Y, m, inner=True)
            assert np.array_equal(ge.hessian_traces(Y, m), lap), name
            got = (lap, A, np.einsum('...os,...os->...', m.ginv, A))
            for part, g, w in zip(('lap', 'A', 'div_div'), got,
                                  dense_hessian_traces(X, m)):
                scale = 1.0 if name == 'g' else np.max(np.abs(w))
                assert np.max(np.abs(g - w)) <= 1e-13 * scale, (name, part)

    def test_peak_memory(self, state32):
        # the Laplacian and A of S from nabla S: through the whole-grid
        # second derivative and its two einsums this peaked at 64.6 MB
        m, S = state32.metric, state32.S
        m.gamma_flat
        tracemalloc.start()
        try:
            ge.hessian_traces(ge.covariant_derivative(S, m, 2), m, inner=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    def test_no_dense_hessian_in_src(self):
        # second_covariant stays for scalars and 1-forms only
        rank2 = re.compile(r'second_covariant\(.*,\s*2\)')
        for path in Path(vf.__file__).parent.glob('*.py'):
            text = path.read_text()
            assert not rank2.search(text), path.name
            for word in ("'...abij", "'...insj"):
                assert word not in text, (path.name, word)


class TestFixedStateCrosschecks:
    def test_exact_algebra_checks(self, ts16):
        assert vf.shifted_scalar_consistency_residual(ts16) < 1e-9
        assert vf.lichnerowicz_metric_residual(ts16) < 1e-9

    def test_fourth_order_checks(self, ts16, ts32):
        for fn in (vf.divergence_identity_residual, vf.bochner_residual,
                   vf.ricci_trace_vs_scalar_residual,
                   vf.shifted_norm_consistency_residual):
            r16, r32 = fn(ts16), fn(ts32)
            order = math.log2(r16 / r32)
            assert order > 3.4, f"{fn.__name__}: order {order:.2f}"

    def test_flat_crosschecks_vanish(self):
        ts = vf.StateTensors(flat_state(), c=1.0)
        assert vf.divergence_identity_residual(ts) < 1e-14
        assert vf.bochner_residual(ts) < 1e-14
        assert vf.ricci_trace_vs_scalar_residual(ts) < 1e-14
        assert vf.shifted_norm_consistency_residual(ts) < 1e-14


class TestStructureIdentities:
    def test_orders_three_axes_unequal_periods(self):
        # GRID3 against GRID3 doubled along each active axis; the periods
        # 5 and 3 are not multiples of 2 pi, so every test field must use
        # the grid's own wavenumbers.  8^3 is pre-asymptotic (orders
        # 3.40-3.57), so the gate here is 3.0 rather than 3.5
        doubled = gr.GridSpec(
            tuple(2 * n if n > 1 else 1 for n in GRID3.shape), GRID3.periods)
        coarse, fine = (vf.structure_residuals(fl.FlowState(
            0.0, perturbed_phi_field(spec, EPS, MODES3)))
            for spec in (GRID3, doubled))
        for name in coarse:
            order = math.log2(coarse[name] / fine[name])
            assert order >= 3.0, f"{name}: order {order:.2f}"


class TestOrderEstimator:
    def test_recovers_order_through_floor(self):
        for p in (1.0, 2.0, 3.0):
            res = {s: 0.7 * s ** p + 4e-5 for s in (0.1, 0.05, 0.025)}
            assert vf.difference_order(res) == pytest.approx(p, abs=1e-6)

    def test_floor_fallback(self):
        res = {0.1: 1e-15, 0.05: 1e-15, 0.025: 1e-15}
        out = vf.difference_order(res)
        assert abs(out) < 0.5

    def test_needs_three_levels(self):
        assert vf.difference_order({0.1: 1.0, 0.05: 0.25}) is None


class TestTrajectories:
    def test_centered_states_times(self):
        # eight steps of dt/4: the centre at dt, the sides at dt -/+ s
        state0 = fl.FlowState(0.0, perturbed_phi_field(scenario_spec(8), 0.02))
        centre, sides = vf.centered_states(state0, 0.04, 1.0, (2.0,))
        assert centre.t == pytest.approx(0.04)
        assert centre.step_index == 4
        assert list(sides) == [0.04, 0.02, 0.01]
        before, after = sides[0.01]
        third = fixed_steps(state0.phi, 0.01)[2]                # t = 0.03
        assert np.array_equal(before['R'], third.bundle.R)
        assert set(after) == {'Ric', 'R', 'Ric_norm2', 'Ric_t_norm2',
                              ('f', 2.0)}

    def test_difference_reads_build_no_torsion(self):
        # the centered differences read Ric, R and the norms built on
        # them, which the curvature alone gives
        state = fl.FlowState(0.0, perturbed_phi_field(scenario_spec(8), 0.02))
        reads = vf._difference_reads(state, 1.0, (2.0,))
        assert 'torsion' not in vars(state)
        assert np.array_equal(reads['R'], state.bundle.R)

    def test_flat_trajectory_all_residuals_vanish(self):
        from g2flow.initial_data import flat_phi_field
        state0 = fl.FlowState(0.0, flat_phi_field(scenario_spec(8)))
        res = vf.evaluate_residuals(
            *vf.centered_states(state0, 0.04, 1.0, (2.0,)), 1.0, (2.0,))
        assert max(max(rs.values()) for rs in res.values()) < 1e-13

    def test_evolution_checks_time_order(self):
        # the acceptance gate reruns this at N = 64; at N = 32 every check
        # already resolves second order in dt through the spatial floor
        state = perturbed_state(32)
        c = auto_shift(state.bundle)
        h2 = state.spec.min_active_spacing() ** 2
        results = vf.run_evolution_checks(state, dt=1.5 * h2, c=c,
                                          gammas=(2.0,))
        for name, r in results.items():
            assert r['measured_order'] is not None
            assert r['measured_order'] >= 1.8, \
                f"{name}: order {r['measured_order']:.2f}"
            assert r['passed']

    def test_evolution_checks_three_axes_unequal_periods(self):
        # GRID3's periods and modes at 12^3 and the default spacing 2 h^2
        spec = gr.GridSpec((12, 12, 12, 1, 1, 1, 1), GRID3.periods)
        state = fl.FlowState(0.0, perturbed_phi_field(spec, EPS, MODES3))
        c = auto_shift(state.bundle)
        h = spec.min_active_spacing()
        results = vf.run_evolution_checks(state, dt=2.0 * h * h, c=c)
        assert len(results) == 10
        for name, r in results.items():
            assert r['passed'] and r['measured_order'] >= 1.8, \
                f"{name}: order {r['measured_order']:.2f}"

    def test_planted_rhs_error_fails(self, monkeypatch):
        # a 1% error in one right-hand side fails its check at N = 32 and
        # the default spacing, while the checks sharing its difference pass
        rhs_scalar = vf.rhs_scalar_evolution
        rhs_pinching = vf.rhs_pinching_evolution
        monkeypatch.setattr(vf, 'rhs_scalar_evolution',
                            lambda ts: 1.01 * rhs_scalar(ts))
        monkeypatch.setattr(
            vf, 'rhs_pinching_evolution',
            lambda ts, g: (1.01 if g == 2.0 else 1.0) * rhs_pinching(ts, g))
        state = perturbed_state(32)
        c = auto_shift(state.bundle)
        h = state.spec.min_active_spacing()
        results = vf.run_evolution_checks(state, dt=2.0 * h * h, c=c,
                                          gammas=(1.5, 2.0))
        assert not results['scalar_evolution']['passed']
        assert not results['pinching_evolution_g2']['passed']
        for name in ('general_flow_scalar', 'shifted_scalar_evolution',
                     'pinching_evolution_g1.5'):
            assert results[name]['passed'], name

    def test_evolution_checks_spatial_order(self):
        # with the spacing pinned far below the parabolic scale, the
        # residual is dominated by the h^4 spatial part over a grid doubling;
        # one spacing needs only the centre and the states at centre -/+ s
        s = 1e-3
        res = {}
        for n in (32, 64):
            before = perturbed_state(n)
            c = auto_shift(before.bundle)
            centre = fl.step_fixed(before, s)
            after = fl.step_fixed(centre, s)
            sides = {s: tuple(vf._difference_reads(st, c, (2.0,))
                              for st in (before, after))}
            res[n] = vf.evaluate_residuals(centre, sides, c, (2.0,))
        for name in res[32]:
            order = np.log2(res[32][name][s] / res[64][name][s])
            assert order >= 3.5, f"{name}: spatial order {order:.2f}"


def fixed_steps(phi0, spacing):
    """The states after one, two and three fixed RK4 steps of ``spacing``
    from phi0 at t = 0."""
    states = [fl.FlowState(0.0, phi0)]
    for _ in range(3):
        states.append(fl.step_fixed(states[-1], spacing))
    return states[1:]


def pinching_constant(states, c):
    return vf.minimal_pinching_constant(
        *(vf.StateTensors(st, c=c) for st in states))


class TestMinimalPinchingConstant:
    def test_flat_needs_nothing(self):
        from g2flow.initial_data import flat_phi_field
        spec = scenario_spec(8)
        phi0 = flat_phi_field(spec)
        prev, mid, nxt = fixed_steps(phi0, 0.01)
        assert pinching_constant((prev, mid, nxt), c=1.0) == 0.0

    def test_perturbed_finite(self):
        spec = scenario_spec(16)
        phi0 = perturbed_phi_field(spec, 0.05)
        c = auto_shift(fl.FlowState(0.0, phi0).bundle)
        h2 = spec.min_active_spacing() ** 2
        prev, mid, nxt = fixed_steps(phi0, h2)
        cmin = pinching_constant((prev, mid, nxt), c)
        assert np.isfinite(cmin)
        assert cmin >= 0.0

    def test_halving_epsilon_keeps_constant_tame(self):
        # the inequality's constant may not degrade as the data shrinks
        spec = scenario_spec(16)
        h2 = spec.min_active_spacing() ** 2
        vals = {}
        for eps in (0.05, 0.025):
            phi0 = perturbed_phi_field(spec, eps)
            c = auto_shift(fl.FlowState(0.0, phi0).bundle)
            prev, mid, nxt = fixed_steps(phi0, h2)
            vals[eps] = pinching_constant((prev, mid, nxt), c)
        if vals[0.05] > 0.0:
            assert vals[0.025] <= 2.0 * max(vals[0.05], 1e-6)

    def test_nonpositive_shift_raises(self):
        # min(R + c) <= 0 at the first state only is enough to raise
        phi0 = perturbed_phi_field(scenario_spec(8), 0.05)
        prev, mid, nxt = fixed_steps(phi0, 0.01)
        c = -float(np.min(prev.bundle.R))
        assert float(np.min(mid.bundle.R)) + c > 0.0
        with pytest.raises(NonPositiveShiftedScalar):
            pinching_constant((prev, mid, nxt), c)
