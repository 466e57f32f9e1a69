import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import cli
from g2flow import curvature as cv
from g2flow import flow as fl
from g2flow import geometry as ge
from g2flow import grid as gr
from g2flow import verify as vf
from g2flow.curvature import auto_shift
from g2flow.errors import NonPositiveShiftedScalar
from g2flow.initial_data import perturbed_phi_field

from conftest import (EPS, GRID3, MODES3, SMALL_BLOCK_BYTES,
                      dense_hessian_traces, flat_state, pair_to_dense,
                      pair_unpack, perturbed_state, perturbed_state3,
                      scenario_spec, triple_pinching_constant)


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

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_blocks_do_not_move_bits(self, state16, three, monkeypatch):
        # both outputs of the shared nabla Ric block loop, |nabla Ric|^2 and
        # the gradient combination, against their whole-grid expressions,
        # and every term in small blocks against the default
        st = perturbed_state3() if three else state16
        ts = vf.StateTensors(st, c=1.0)
        whole = vf.compute_aux_terms(ts)
        nric = ge.covariant_derivative(ts.b.Ric, ts.m, 2)
        combo = ts.Rt[..., None, None, None] * nric \
            - np.einsum('...a,...ij->...aij', ts.grad_R, ts.Ric_t)
        norm2 = ts.nabla_Ric_norms[0]
        assert np.array_equal(norm2, ge.tensor_norm2(nric, ts.m, 3))
        assert np.array_equal(whole.grad_combo,
                              ge.tensor_norm2(combo, ts.m, 3))
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        fresh = vf.StateTensors(st, c=1.0)
        got = vf.compute_aux_terms(fresh)
        for name in ('I', 'J', 'H', 'grad_combo'):
            assert np.array_equal(getattr(got, name), getattr(whole, name)), \
                name
        assert np.array_equal(fresh.nabla_Ric_norms[0], norm2)

    def test_peak_memory(self, state32):
        # the gradient combination per block, each on its block of nabla
        # Ric: its whole-grid 7^3 arrays peaked at 11.3 MB here
        ts = vf.StateTensors(state32, c=1.0)
        for name in ('Rt', 'Ric_t', 'Ric_t_norm2', 'Ric_t_up', 'Rm_That_up',
                     'That_traces', 'hess_T2', 'lap_T2', 'Rm_TT',
                     'gradT_combo', 'grad_R'):
            getattr(ts, name)
        tracemalloc.start()
        try:
            vf.compute_aux_terms(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

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
    if P.shape[-1] == al.TRI_PACK.size:
        P = pair_unpack(P)
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
        D, T_up = pair_to_dense(pair_unpack(ts.b.Rm)), up(ts.state.T)
        E_up = up(ts.b.E)
        want = {
            'Rm_Ric_up': np.einsum('...pijl,...pl->...ij', D, ts.Ric_up),
            'Rm_That_up': np.einsum('...pijl,...pl->...ij', D,
                                    up(ts.state.That)),
            'Rm_TT': np.einsum('...ijmn,...in,...mj->...', D, T_up, T_up,
                               optimize=True),
            'WEE': np.einsum('...pijl,...pl,...ij->...',
                             pair_to_dense(pair_unpack(ts.W)),
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
        # second derivative and its two einsums this peaked at 64.6 MB,
        # with whole-grid Christoffel terms at 21.3 MB
        m, S = state32.metric, state32.S
        m.gamma_flat
        tracemalloc.start()
        try:
            ge.hessian_traces(ge.covariant_derivative(S, m, 2), m, inner=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_no_dense_hessian_in_src(self):
        # second_covariant stays for scalars and 1-forms only
        rank2 = re.compile(r'second_covariant\(.*,\s*2\)')
        for path in Path(vf.__file__).parent.glob('*.py'):
            text = path.read_text()
            assert not rank2.search(text), path.name
            for word in ("'...abij", "'...insj"):
                assert word not in text, (path.name, word)


class TestGradTCombo:
    def test_matches_einsum(self, ts16):
        g = ts16.m.ginv
        nt = ge.covariant_derivative(ts16.state.T, ts16.m, 2)
        want = np.einsum('...ja,...ib,...mn,...aim,...bnj->...', g, g, g,
                         nt, nt, optimize=True)
        err = np.max(np.abs(ts16.gradT_combo - want))
        assert err <= 1e-13 * np.max(np.abs(want))

    def test_peak_memory(self, state32):
        # the five-operand einsum peaked at 16.9 MB here, whole-grid
        # slot_apply products on a whole-grid nabla T at 8.5 MB
        ts = vf.StateTensors(state32, c=1.0)
        ts.b, ts.state.T, ts.m.gamma_flat
        tracemalloc.start()
        try:
            ts.gradT_combo
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


def whole_grid_general_flow(ts):
    """rhs_general_flow with the divergence of eta as one whole-grid
    einsum."""
    m = ts.m
    eta = -2.0 * ts.state.S
    deta = ge.covariant_derivative(eta, m, 2)
    lich = vf.lichnerowicz(ts, eta, al.slot_apply(eta, m.ginv, 2), deta)
    tr_eta = np.einsum('...ij,...ij->...', m.ginv, eta)
    hess_tr = ge.second_covariant(tr_eta, m, 0)
    div_eta = np.einsum('...am,...amj->...j', m.ginv, deta, optimize=True)
    ddiv = ge.covariant_derivative(div_eta, m, 1)
    sym_ddiv = ddiv + np.einsum('...ij->...ji', ddiv)
    div_div = np.einsum('...aj,...aj->...', m.ginv, ddiv, optimize=True)
    ric_pair = np.einsum('...ij,...ij->...', ts.Ric_up, eta)
    lap_tr = np.einsum('...ab,...ab->...', m.ginv, hess_tr, optimize=True)
    return (-0.5 * (lich + hess_tr - sym_ddiv),
            -lap_tr + div_div - ric_pair)


class TestWholeGridExpressions:
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_blocks_do_not_move_bits(self, state16, three, monkeypatch):
        # gradT_combo, WEE, |nabla Ric|^2, the gradient combination and the
        # general-flow RHS (its divergence of eta) per block, in blocks of
        # 5 to 35 points and in the default ones, against their whole-grid
        # expressions
        st = perturbed_state3() if three else state16
        ts = vf.StateTensors(st, c=1.0)
        m, g = ts.m, ts.m.ginv
        nt = ge.covariant_derivative(st.T, m, 2)
        up = al.slot_apply(nt, g, 3, (2, 0))
        down = np.moveaxis(al.slot_apply(nt, g, 3, (0,)), -1, -3)
        E_up = al.slot_apply(ts.b.E, g, 2)
        nric = ge.covariant_derivative(ts.b.Ric, m, 2)
        combo = ts.Rt[..., None, None, None] * nric \
            - np.einsum('...a,...ij->...aij', ts.grad_R, ts.Ric_t)
        ric, scalar = whole_grid_general_flow(ts)
        want = {'gradT_combo': np.sum(up * down, axis=(-3, -2, -1)),
                'WEE': np.sum(al.pair_apply(cv.weyl_block(
                    pair_unpack(ts.b.Rm), ts.b.R[..., None, None], ts.b.E,
                    m.g), E_up)
                    * E_up, axis=(-2, -1)),
                'nabla_Ric_norm2': ge.tensor_norm2(nric, m, 3),
                'grad_combo': ge.tensor_norm2(combo, m, 3),
                'general_flow_ricci': ric, 'general_flow_scalar': scalar}
        for budget in (al.BLOCK_BYTES, SMALL_BLOCK_BYTES):
            monkeypatch.setattr(al, 'BLOCK_BYTES', budget)
            fresh = vf.StateTensors(st, c=1.0)
            ric, scalar = vf.rhs_general_flow(fresh)
            got = {'gradT_combo': fresh.gradT_combo, 'WEE': fresh.WEE,
                   'nabla_Ric_norm2': fresh.nabla_Ric_norms[0],
                   'grad_combo': fresh.nabla_Ric_norms[1],
                   'general_flow_ricci': ric, 'general_flow_scalar': scalar}
            for name, w in want.items():
                assert np.array_equal(got[name], w), (name, budget)

    def test_no_whole_grid_rank3_cache(self, state32, monkeypatch):
        # after the right-hand sides, no cached tensor holds 7^3 floats per
        # point: nabla Ric and the other first derivatives of 2-tensors are
        # built per block, or dropped once read
        made = []

        class Recorded(vf.StateTensors):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def arrays(v):
            if isinstance(v, np.ndarray):
                yield v
            elif isinstance(v, (tuple, list)):
                for x in v:
                    yield from arrays(x)
            elif isinstance(v, dict) or dataclasses.is_dataclass(v):
                for x in (v if isinstance(v, dict) else vars(v)).values():
                    yield from arrays(x)

        monkeypatch.setattr(vf, 'StateTensors', Recorded)
        vf.evaluate_residuals(state32, {}, 1.0, (1.5, 2.0, 3.0))
        (ts,) = made
        cached = {k: v for k, v in vars(ts).items() if k not in ('state', 'm')}
        assert {'aux', 'That_traces', 'nabla_Ric_norms'} <= set(cached)
        for name, v in cached.items():
            for a in arrays(v):
                assert not (a.ndim == 10 and a.shape[-3:] == (7, 7, 7)), name


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

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_chunk_size_does_not_move_bits(self, state16, three,
                                           monkeypatch):
        # each run on a fresh state, so every cached tensor is rebuilt
        phi = (perturbed_state3() if three else state16).phi
        whole = vf.structure_residuals(fl.FlowState(0.0, phi))
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        assert vf.structure_residuals(fl.FlowState(0.0, phi)) == whole

    def test_peak_memory(self, state32):
        # with whole-grid dense curvature rows and form derivatives this
        # peaked at 30.8 MB, with a whole-grid T ^ phi wedge, Y and phi^
        # at 20.2 MB
        state32.bundle, state32.torsion, state32.psi
        tracemalloc.start()
        try:
            vf.structure_residuals(state32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


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
        before = fixed_steps(state0.phi, 0.01)[2]               # t = 0.03
        after = fl.step_fixed(fl.step_fixed(before, 0.01), 0.01)  # t = 0.05
        assert np.array_equal(sides[0.01]['R'],
                              after.bundle.R - before.bundle.R)
        assert set(sides[0.01]) == {'Ric', 'R', 'Ric_norm2', 'Ric_t_norm2',
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
            lo, hi = (vf._difference_reads(st, c, (2.0,))
                      for st in (before, after))
            sides = {s: {key: hi[key] - lo[key] for key in hi}}
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
    """minimal_pinching_constant of three consecutive states, read from
    their pinching records as a run builds them."""
    first, *rest = (vf.StateTensors(st, c=c) for st in states)
    return vf.minimal_pinching_constant(
        vf.pinching_record(first, end=True),
        *(vf.pinching_record(ts) for ts in rest))


def reference_constant(states, c):
    """The same from the StateTensors triple; None where it raises."""
    try:
        return triple_pinching_constant(
            *(vf.StateTensors(st, c=c) for st in states))
    except NonPositiveShiftedScalar:
        return None


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

    def test_nonpositive_shift_gives_none(self):
        # min(R + c) <= 0 at the first state only is enough for no constant
        phi0 = perturbed_phi_field(scenario_spec(8), 0.05)
        prev, mid, nxt = fixed_steps(phi0, 0.01)
        c = -float(np.min(prev.bundle.R))
        assert float(np.min(mid.bundle.R)) + c > 0.0
        assert vf.pinching_record(vf.StateTensors(prev, c=c)) is None
        assert pinching_constant((prev, mid, nxt), c) is None
        with pytest.raises(NonPositiveShiftedScalar):
            triple_pinching_constant(
                *(vf.StateTensors(st, c=c) for st in (prev, mid, nxt)))


class TestPinchingRecords:
    """The per-state records give the StateTensors-triple constant exactly,
    in each branch of minimal_pinching_constant."""

    @staticmethod
    def triple(spacings):
        """Three states after fixed steps of ``spacings`` from a perturbed
        N=16 start at epsilon 0.2, where the constant is positive."""
        phi0 = perturbed_phi_field(scenario_spec(16), 0.2)
        states = [fl.FlowState(0.0, phi0)]
        for dt in spacings:
            states.append(fl.step_fixed(states[-1], dt))
        return states[1:], auto_shift(states[0].bundle)

    @pytest.mark.parametrize('spacings', [(0.01, 0.01, 0.01),
                                          (0.01, 0.01, 0.005)],
                             ids=['equal', 'unequal'])
    def test_perturbed_triple(self, spacings):
        states, c = self.triple(spacings)
        got = pinching_constant(states, c)
        assert got > 0.0
        assert got == reference_constant(states, c)

    def test_flat_triple(self):
        from g2flow.initial_data import flat_phi_field
        states = fixed_steps(flat_phi_field(scenario_spec(8)), 0.01)
        assert pinching_constant(states, 1.0) == 0.0
        assert reference_constant(states, 1.0) == 0.0

    def test_first_state_nonpositive(self):
        phi0 = perturbed_phi_field(scenario_spec(16), 0.05)
        states = fixed_steps(phi0, 0.001)
        c = -float(np.min(states[0].bundle.R))
        assert pinching_constant(states, c) is None
        assert reference_constant(states, c) is None


class TestTransport:
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_matches_laplacian_and_partials(self, state16, three):
        # the transport term takes grad f once, through grid.partial_block,
        # and still gives the bytes of scalar_laplacian plus the inner
        # product with partial_stack's grid.partial_derivative
        ts = vf.StateTensors(perturbed_state3() if three else state16, c=1.0)
        m = ts.m
        for gamma in (1.5, 2.0, 3.0):
            f = ts.f_field(gamma)
            inner = np.einsum('...ab,...a,...b->...', m.ginv,
                              ge.partial_stack(f, m.spec), ts.grad_R,
                              optimize=True)
            want = ge.scalar_laplacian(f, m) \
                + (2.0 * (gamma - 1.0) / ts.Rt) * inner
            assert np.array_equal(ts.transport(gamma), want), gamma


class TestVerificationRun:
    @staticmethod
    def config(n, out, groups='all'):
        return cli.parse_config(f"grid.n = {n}\ninitial.family = perturbed\n"
                                f"checks.enable = {groups}\n"
                                f"output.dir = {out}\n")

    def test_t0_state_goes_after_first_step(self, tmp_path, monkeypatch):
        # no frame holds the t = 0 state once the trajectory has stepped
        # from it, so its curvature and torsion caches go with it
        inner, t0 = vf.step_fixed, []

        def step(state, dt):
            gc.collect()
            if t0:
                assert t0[0]() is None
            else:
                t0.append(weakref.ref(state))
            return inner(state, dt)

        monkeypatch.setattr(vf, 'step_fixed', step)
        vf.run_verification(self.config(8, tmp_path, 'evolution'),
                            str(tmp_path))
        assert len(t0) == 1

    def test_peak_memory(self, tmp_path):
        # every check group at N=32; with whole-grid Christoffel products,
        # dense curvature rows and the t = 0 state held through the
        # trajectory this peaked at 46.3 MB, with whole-grid curvature
        # rows in riemann and aux terms at 31.7 MB
        cfg = self.config(32, tmp_path)
        tracemalloc.start()
        try:
            report = vf.run_verification(cfg, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report['passed']
        assert peak <= 31e6
