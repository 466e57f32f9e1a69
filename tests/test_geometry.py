import tracemalloc

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import flow as fl
from g2flow import geometry as ge
from g2flow import grid as gr
from g2flow import verify as vf
from g2flow.errors import DegreeError, NotPositive
from g2flow.initial_data import perturbed_phi_field

from conftest import (EPS, MODES3, SMALL_BLOCK_BYTES, dense_riemann,
                      flat_state, l2_form_inner, pair_pack, pair_to_dense,
                      pair_unpack, perturbed_state, perturbed_state3,
                      scenario_spec, smooth_field)


def warped_metric_field(n, amp=0.15):
    spec = gr.GridSpec.from_active(n, (0,))
    x = spec.coordinates(0)
    u = amp * np.sin(x)
    g = np.broadcast_to(np.eye(7), spec.shape + (7, 7)).copy()
    g[..., 1, 1] = np.exp(2 * u)
    return spec, u, ge.MetricField(spec, g, np.linalg.inv(g),
                                   np.linalg.det(g),
                                   np.sqrt(np.linalg.det(g)),
                                   np.ones(spec.shape))


class TestPointBlocks:
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_blocks_do_not_move_bits(self, state16, three, monkeypatch):
        # the metric kernel and psi on one whole-grid block against blocks
        # of 35 and 31 points, the last one short
        phi = (perturbed_state3() if three else state16).phi
        monkeypatch.setattr(al, 'BLOCK_BYTES', 1 << 40)
        whole = al.metric_data_from_phi(phi.values)
        m = ge.MetricField(phi.spec, *whole)
        psi = ge.psi_from_phi(phi, m).values
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        got = al.metric_data_from_phi(phi.values)
        for a, b in zip(got, whole):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(ge.psi_from_phi(phi, m).values, psi)

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_derivative_blocks_do_not_move_bits(self, state16, three,
                                                monkeypatch):
        # the pointwise parts of the form derivative (k = 2, 3, 4) and of
        # the Hessian traces in blocks of 8 to 45 points against the
        # default blocks
        st = perturbed_state3() if three else state16
        m = st.metric
        forms = [gr.FormField(k, m.spec,
                              smooth_field(m.spec, al.NCOMP[k], 20 + k))
                 for k in (2, 3, 4)]
        Y = ge.covariant_derivative(st.S, m, 2)

        def run():
            out = {f'nabla {w.degree}-form': ge.form_covariant_derivative(w, m)
                   for w in forms}
            out['lap'], out['A'] = ge.hessian_traces(Y, m, inner=True)
            out['lap alone'] = ge.hessian_traces(Y, m)
            return out

        whole = run()
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        for name, got in run().items():
            assert np.array_equal(got, whole[name]), name

    @pytest.mark.parametrize('budget', ('default', 'small'))
    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_christoffel_and_pair_norm_blocks_match_whole_grid(
            self, state16, three, budget, monkeypatch):
        # gamma_flat, built per block from each block's own d_a g, and
        # pair_norm2, with Lambda^2(g^-1) built per block, in the bytes of
        # their whole-grid formulas
        st = perturbed_state3() if three else state16
        if budget == 'small':
            monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        m = ge.MetricField.from_phi(st.phi)
        dg = ge.partial_stack(m.g, m.spec)
        A = dg + np.swapaxes(dg, -3, -2)
        A -= np.moveaxis(dg, -3, -1)
        up = al.slot_apply(A, m.ginv, 3, (2,))
        up *= 0.5
        assert m.gamma_flat.tobytes() == up.tobytes()
        i, j, k, l = al.PAIR
        gi = m.ginv
        lam = gi[..., i, k] * gi[..., j, l] - gi[..., i, l] * gi[..., j, k]
        PL = pair_unpack(st.bundle.Rm) @ lam
        want = 4.0 * np.sum(PL * np.swapaxes(PL, -1, -2), axis=(-2, -1))
        assert ge.pair_norm2(st.bundle.Rm, m).tobytes() == want.tobytes()

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_form_and_torsion_blocks_match_whole_grid(self, state16, three,
                                                      monkeypatch):
        # nabla phi and nabla psi from form_covariant_block, and the
        # torsion built beside nabla phi per block, in the bytes of their
        # whole-grid formulas at every block budget
        st = perturbed_state3() if three else state16
        m = st.metric
        want = {}
        for w in (st.phi, st.psi):
            idx, sgn = al.basis_interior_table(w.degree)
            scatter = np.zeros((idx.size, al.NCOMP[w.degree]))
            scatter[np.arange(idx.size), idx.ravel()] = sgn.ravel()
            nw = ge.partial_stack(w.values, m.spec)
            nw -= (m.gamma_flat @ (w.values[..., idx] * sgn)).reshape(
                nw.shape[:-1] + (idx.size,)) @ scatter
            want[w.degree] = nw
        idx, sgn = al.basis_interior_table(4)
        ipsi_up = m.g @ (ge.raised_from_dual(st.phi, m)[..., idx] * sgn)
        T = 0.25 * (want[3] @ np.swapaxes(ipsi_up, -1, -2))
        for budget in (1 << 40, al.BLOCK_BYTES, SMALL_BLOCK_BYTES):
            monkeypatch.setattr(al, 'BLOCK_BYTES', budget)
            for w in (st.phi, st.psi):
                got = ge.form_covariant_derivative(w, m)
                assert got.tobytes() == want[w.degree].tobytes(), budget
            assert ge.torsion_from_phi(st.phi, m).tobytes() == T.tobytes()

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_tensor_blocks_do_not_move_bits(self, state16, three,
                                            monkeypatch):
        # covariant derivatives of ranks 0-3, the Hessian traces and the
        # rank-3 norm on one whole-grid block against blocks of 5 to 35
        # points; the derivatives against the whole-grid formula too
        st = perturbed_state3() if three else state16
        m = st.metric
        X3 = ge.covariant_derivative(st.S, m, 2)
        fields = (st.T_norm2, smooth_field(m.spec, 7, 31), st.S, X3)

        def run():
            out = {f'nabla rank {r}': ge.covariant_derivative(X, m, r)
                   for r, X in enumerate(fields)}
            out['lap'], out['A'] = ge.hessian_traces(X3, m, inner=True)
            out['lap alone'] = ge.hessian_traces(X3, m)
            out['norm rank 3'] = ge.tensor_norm2(X3, m, 3)
            return out

        monkeypatch.setattr(al, 'BLOCK_BYTES', 1 << 40)
        whole = run()
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        for name, got in run().items():
            assert np.array_equal(got, whole[name]), name
        for rank, X in enumerate(fields):
            want = ge.partial_stack(X, m.spec)
            for s in range(rank):
                corr = al.slot_apply(X, m.gamma_flat, rank, (s,))
                corr = corr.reshape(X.shape[:7 + s] + (7, 7)
                                    + X.shape[8 + s:])
                want -= np.moveaxis(corr, 7 + s, 7)
            assert whole[f'nabla rank {rank}'].tobytes() == want.tobytes(), \
                rank

    def test_peak_memory(self, state32):
        # at N=32, with the derivative's input built: the whole-grid
        # Christoffel terms and partials peaked at 8.4 MB (rank 2) and
        # 61.8 MB (rank 3), the whole-grid d_a Y of the Hessian traces at
        # 8.2 MB and the rank-3 norm's slot_apply products at 8.4 MB
        m, S = state32.metric, state32.S
        Y = ge.covariant_derivative(S, m, 2)
        for name, call, bound in (
                ('nabla rank 2', lambda: ge.covariant_derivative(S, m, 2),
                 5e6),
                ('nabla rank 3', lambda: ge.covariant_derivative(Y, m, 3),
                 24e6),
                ('Hessian traces', lambda: ge.hessian_traces(Y, m, inner=True),
                 6e6),
                ('norm rank 3', lambda: ge.tensor_norm2(Y, m, 3), 3e6)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (name, peak)


class TestMetricField:
    def test_orientation_flip_rejected(self):
        # -phi is positive for the opposite orientation: each point alone
        # is fine, the field is not
        phi = flat_state().phi
        values = phi.values.copy()
        values[0] *= -1.0
        with pytest.raises(NotPositive, match="orientation flips"):
            ge.MetricField.from_phi(gr.FormField(3, phi.spec, values))


class TestChristoffel:
    def test_flat_is_zero(self):
        st = flat_state()
        assert np.max(np.abs(st.metric.christoffel)) == 0.0

    def test_conformal_oracle(self):
        errs = {}
        for n in (16, 32):
            spec = gr.GridSpec.from_active(n, (0,))
            x = spec.coordinates(0)
            u, du = 0.1 * np.sin(x), 0.1 * np.cos(x)
            g = np.exp(2 * u)[..., None, None] * np.eye(7)
            mf = ge.MetricField(spec, g, np.linalg.inv(g), np.linalg.det(g),
                                np.sqrt(np.linalg.det(g)), np.ones(spec.shape))
            exact = np.zeros(spec.shape + (7, 7, 7))
            for k in range(7):
                for i in range(7):
                    for j in range(7):
                        v = 0.0
                        if i == 0 and k == j:
                            v += du
                        if j == 0 and k == i:
                            v += du
                        if k == 0 and i == j:
                            v -= du
                        exact[..., k, i, j] = v
            errs[n] = np.max(np.abs(mf.christoffel - exact))
        assert np.log2(errs[16] / errs[32]) > 3.5

    def test_gamma_flat_is_contiguous(self, state16):
        # built in the (a, i, p) order that the matrix products read, so
        # that BLAS takes them without a copy
        m = state16.metric
        flat = m.gamma_flat
        assert flat.flags.c_contiguous
        assert np.array_equal(flat.reshape(flat.shape[:-2] + (7, 7, 7)),
                              np.moveaxis(m.christoffel, -3, -1))

    def test_lower_symmetry(self, state16):
        gam = state16.metric.christoffel
        assert np.allclose(gam, np.einsum('...kij->...kji', gam), atol=1e-14)

    def test_metric_compatibility_exact(self, state16):
        ng = ge.covariant_derivative(state16.metric.g, state16.metric, 2)
        assert np.max(np.abs(ng)) < 1e-14


class TestCovariantDerivative:
    def test_constant_scalar(self, state16):
        spec = state16.spec
        out = ge.covariant_derivative(np.ones(spec.shape), state16.metric, 0)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize('k', (1, 2, 3, 4))
    def test_form_derivative_matches_dense(self, k):
        # the induced derivation on increasing components against the dense
        # rank-k derivative, under the three-axis unequal-period metric;
        # the dense reference holds 7^(k+1) doubles per point, so k <= 4
        m = perturbed_state3().metric
        w = gr.FormField(k, m.spec, smooth_field(m.spec, al.NCOMP[k], 20 + k))
        dense = ge.covariant_derivative(al.form_to_dense(k, w.values), m, k)
        got = ge.form_covariant_derivative(w, m)
        assert got.shape == m.spec.shape + (7, al.NCOMP[k])
        err = np.max(np.abs(got - al.dense_to_form(k, dense)))
        scale = np.max(np.abs(dense))
        assert err <= 1e-13 * scale

    def test_ricci_identity_order(self):
        errs = {}
        for n in (16, 32):
            st = perturbed_state(n)
            b = st.bundle
            alpha = smooth_field(st.spec, 7, seed=9)
            errs[n] = vf.ricci_identity_residual(alpha, st.metric, b.Rm)
        assert np.log2(errs[16] / errs[32]) > 3.5


class TestRiemann:
    def test_flat_vanishes(self):
        b = flat_state().bundle
        assert np.max(np.abs(b.Rm)) == 0.0
        assert np.max(np.abs(b.R)) == 0.0

    def test_warped_scalar_oracle(self):
        errs = {}
        for n in (16, 32):
            spec, u, mf = warped_metric_field(n)
            x = spec.coordinates(0)
            upp, up = -0.15 * np.sin(x), 0.15 * np.cos(x)
            b = ge.riemann(mf)
            errs[n] = np.max(np.abs(b.R + 2 * (upp + up ** 2)))
        assert np.log2(errs[16] / errs[32]) > 3.5

    def test_stored_symmetries_exact(self, state16, monkeypatch):
        # each block's projection is exactly symmetric, so the stored upper
        # triangle loses nothing; unpacked, Rm has the curvature symmetries
        blocks, project = [], ge._curvature_project

        def spy(raw):
            blocks.append(project(raw))
            return blocks[-1]
        monkeypatch.setattr(ge, '_curvature_project', spy)
        for m in (perturbed_state3().metric, state16.metric):
            blocks.clear()
            packed = ge.riemann(m).Rm
            proj = np.concatenate(blocks)
            assert np.array_equal(proj, np.swapaxes(proj, -1, -2))
            assert packed.shape == m.vol.shape + (231,)
            assert packed.reshape(-1, 231).tobytes() == \
                pair_pack(proj).tobytes()
        Rm = pair_to_dense(pair_unpack(packed))
        assert np.allclose(Rm, -np.einsum('...ijkl->...jikl', Rm), atol=1e-15)
        assert np.allclose(Rm, -np.einsum('...ijkl->...ijlk', Rm), atol=1e-15)
        assert np.allclose(Rm, np.einsum('...ijkl->...klij', Rm), atol=1e-15)
        bianchi = (Rm + np.einsum('...ijkl->...jkil', Rm)
                   + np.einsum('...ijkl->...kijl', Rm))
        assert np.max(np.abs(bianchi)) < 1e-14

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_matches_dense_reference(self, state16, three):
        # the pair-form curvature of the connection matrices against the
        # dense 7^4 construction, on state16 and on the unequal-period GRID3
        m = (perturbed_state3() if three else state16).metric
        got, want = ge.riemann(m), dense_riemann(m)
        scale = np.max(np.abs(want.Rm))
        for name, g, w in (('Rm', pair_to_dense(pair_unpack(got.Rm)),
                            pair_to_dense(want.Rm)),
                           ('Ric', got.Ric, want.Ric), ('E', got.E, want.E)):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), name
        # R = -|T|^2 is small beside the curvature it is traced from
        assert np.max(np.abs(got.R - want.R)) <= 1e-14 * scale
        assert got.symmetry_defect == pytest.approx(want.symmetry_defect,
                                                    rel=1e-12)

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_chunk_size_does_not_move_bits(self, state16, three,
                                           monkeypatch):
        m = (perturbed_state3() if three else state16).metric
        whole = ge.riemann(m)
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        got = ge.riemann(m)
        for name in ('Rm', 'Ric', 'R', 'E'):
            assert np.array_equal(getattr(got, name), getattr(whole, name))
        assert got.symmetry_defect == whole.symmetry_defect

    @staticmethod
    def riemann_peak(m):
        m.gamma_flat
        tracemalloc.start()
        try:
            ge.riemann(m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory(self, state32):
        # d_a H per block: with all curvature rows whole-grid this peaked
        # at 54 MB, with the derivative rows whole-grid at 21.6 MB and with
        # d_a H whole-grid at 17.0 MB
        assert self.riemann_peak(state32.metric) <= 15e6

    def test_peak_memory_three_axes(self):
        # 16^3 points: with the derivative rows whole-grid, 81.5 MB, with
        # d_a H whole-grid 57.1 MB
        spec = gr.GridSpec.from_active(16, (0, 1, 2))
        st = fl.FlowState(0.0, perturbed_phi_field(spec, EPS, MODES3))
        assert self.riemann_peak(st.metric) <= 30e6

    def test_symmetry_defect_converges(self):
        d16 = perturbed_state(16).bundle.symmetry_defect
        d32 = perturbed_state(32).bundle.symmetry_defect
        assert np.log2(d16 / d32) > 3.5

    def test_trace_relations(self, state16):
        b = state16.bundle
        m = state16.metric
        ric = np.einsum('...il,...ijkl->...jk', m.ginv,
                        pair_to_dense(pair_unpack(b.Rm)))
        assert np.allclose(ric, b.Ric, atol=1e-14)
        tr_e = np.einsum('...jk,...jk->...', m.ginv, b.E)
        assert np.max(np.abs(tr_e)) < 1e-10
        assert np.allclose(b.Ric, np.einsum('...jk->...kj', b.Ric),
                           atol=1e-14)


class TestHodgeOperators:
    def test_star_involution_on_fields(self, state16):
        m = state16.metric
        a = gr.FormField(2, state16.spec, smooth_field(state16.spec, 21, 10))
        ss = ge.hodge_star_field(ge.hodge_star_field(a, m), m)
        assert np.max(np.abs(ss.values - a.values)) < 1e-12

    def test_codifferential_flat_constant(self):
        st = flat_state()
        c = gr.FormField(2, st.spec, st.spec.zeros((21,)) + np.arange(21.0))
        assert ge.codifferential(c, st.metric).max_abs() == 0.0

    def test_codifferential_requires_degree(self):
        st = flat_state()
        zero = gr.FormField(0, st.spec, st.spec.zeros((1,)))
        with pytest.raises(DegreeError):
            ge.codifferential(zero, st.metric)

    @staticmethod
    def adjoint_gap(state):
        """|<da, b> - <a, d*b>| / (|a| |b|) for smooth a, b."""
        m = state.metric
        spec = state.spec
        a = gr.FormField(1, spec, smooth_field(spec, 7, 11))
        b = gr.FormField(2, spec, smooth_field(spec, 21, 12))
        lhs = l2_form_inner(gr.exterior_derivative(a), b, m)
        rhs = l2_form_inner(a, ge.codifferential(b, m), m)
        na = np.sqrt(l2_form_inner(a, a, m))
        nb = np.sqrt(l2_form_inner(b, b, m))
        return abs(lhs - rhs) / (na * nb)

    def test_adjointness_exact(self, state16):
        # summation by parts telescopes exactly on the periodic grid, so
        # the discrete pair (d, d*) is adjoint to rounding, curved or not
        assert self.adjoint_gap(state16) < 1e-12

    def test_adjointness_three_axes_unequal_periods(self):
        assert self.adjoint_gap(perturbed_state3()) < 1e-12

    def test_codifferential_is_negative_divergence(self):
        errs = {}
        for n in (16, 32):
            st = perturbed_state(n)
            m = st.metric
            beta = gr.FormField(2, st.spec, smooth_field(st.spec, 21, 13))
            delta = ge.codifferential(beta, m)
            nb = ge.covariant_derivative(al.form_to_dense(2, beta.values),
                                         m, 2)
            div = np.einsum('...ai,...aij->...j', m.ginv, nb, optimize=True)
            errs[n] = np.max(np.abs(delta.values + div))
        assert np.log2(errs[16] / errs[32]) > 3.5

    def test_laplacian_flat_zero_and_exactness(self, state16):
        st = flat_state()
        lap = fl.rhs(st.phi)
        assert lap.max_abs() == 0.0
        lap16 = fl.rhs(state16.phi)
        assert gr.exterior_derivative(lap16).max_abs() < 1e-13

    def test_laplacian_matches_full_hodge_on_closed(self, state16):
        m = state16.metric
        closed_part = fl.rhs(state16.phi)
        dphi = gr.exterior_derivative(state16.phi)
        full = closed_part.values + ge.codifferential(dphi, m).values
        assert np.max(np.abs(full - closed_part.values)) < 1e-13


class TestTorsion:
    def test_flat_torsion_free(self):
        st = flat_state()
        assert np.max(np.abs(st.torsion)) == 0.0
        assert ge.tau2(st.phi, st.psi, st.metric).max_abs() == 0.0

    def test_closed_structure_components(self, state16):
        # tau2, the whole intrinsic torsion of a closed structure, is of
        # type Lambda^2_14 and equals -2 T
        T = state16.torsion
        tau2 = ge.tau2(state16.phi, state16.psi, state16.metric)
        skew = np.max(np.abs(T + np.einsum('...ij->...ji', T)))
        assert skew < 1e-5
        tau2d = al.form_to_dense(2, tau2.values)
        assert np.max(np.abs(state16.T + 0.5 * tau2d)) < 1e-5
        in14 = al.wedge_comps(4, 2, state16.psi.values, tau2.values)
        assert np.max(np.abs(in14)) < 1e-12

    def test_peak_memory(self, state32):
        # the form derivative's Christoffel product lives one block of
        # points at a time: on the whole grid this peaked at 15.8 MB
        m = state32.metric
        m.gamma_flat
        tracemalloc.start()
        try:
            ge.torsion_from_phi(state32.phi, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_identity_convergence_suite(self):
        """Spatial order >= 3.5 for the closed-structure identities over
        one grid doubling (the acceptance run re-checks at 32 -> 64)."""
        res = {n: vf.structure_residuals(perturbed_state(n))
               for n in (16, 32)}
        for name in res[16]:
            order = np.log2(res[16][name] / res[32][name])
            assert order > 3.5, f"{name}: order {order:.2f}"

    def test_scalar_curvature_nonpositive(self, state16, state32):
        h4 = state32.spec.min_active_spacing() ** 4
        assert float(np.max(state32.bundle.R)) <= 10 * 0.05 * h4
        assert float(np.max(state16.bundle.R)) < 0.0

    def test_scalar_curvature_negative_three_axes(self):
        assert float(np.max(perturbed_state3().bundle.R)) < 0.0

    def test_bianchi_residual_invariant_under_axis_relabeling(self, state16):
        # swap the two active coordinates (and every tensor index 0 <-> 1):
        # the residual of the Bianchi-type identity must not change
        perm = (1, 0, 2, 3, 4, 5, 6)
        spec = state16.spec
        vals = np.swapaxes(state16.phi.values, 0, 1)
        out = np.empty_like(vals)
        for n, J in enumerate(al.INC[3]):
            Jp = tuple(perm[j] for j in J)
            out[..., al.POS[3][tuple(sorted(Jp))]] = al.perm_sign(Jp) \
                * vals[..., n]
        phi2 = gr.FormField(3, spec, out)
        r1 = vf.structure_residuals(state16)['bianchi_type_identity']
        r2 = vf.structure_residuals(
            fl.FlowState(0.0, phi2))['bianchi_type_identity']
        assert r2 == pytest.approx(r1, rel=1e-10)

    def test_nonclosed_structure_general_identities(self):
        # the nabla phi / nabla psi formulas hold for any positive
        # structure, closed or not
        errs = {}
        for n in (16, 32):
            spec = scenario_spec(n)
            base = perturbed_phi_field(spec, 0.03)
            extra = 0.02 * smooth_field(spec, 35, seed=77, amp=0.5)
            phi = gr.FormField(3, spec, base.values + extra)
            res = vf.structure_residuals(fl.FlowState(0.0, phi))
            errs[n] = {
                'nabla_phi': res['torsion_defines_nabla_phi'],
                'nabla_psi': res['nabla_psi_formula'],
            }
        for name in errs[16]:
            order = np.log2(errs[16][name] / errs[32][name])
            assert order > 3.4, f"{name}: order {order:.2f}"
