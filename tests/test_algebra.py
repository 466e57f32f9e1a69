import numpy as np
import pytest

from g2flow import algebra as al
from g2flow.errors import DegreeError, NotPositive

from conftest import (SMALL_BLOCK_BYTES, pair_to_dense, pair_unpack,
                      perturbed_state3)

RNG = np.random.default_rng(42)


def healthy_linear_map(rng, flip=False):
    """Random invertible 7x7 with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    q2, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    u = q1 @ np.diag(rng.uniform(0.5, 2.0, 7)) @ q2
    if flip:
        u[:, 0] *= -1.0
    return u


def random_metric_point(rng):
    a = rng.normal(size=(7, 7))
    g = a @ a.T + 7 * np.eye(7)
    return al.MetricPoint(g=g, g_inv=np.linalg.inv(g),
                          det_g=float(np.linalg.det(g)),
                          vol_coeff=float(np.sqrt(np.linalg.det(g))),
                          orientation=1.0)


class TestStandardPhi:
    def test_defining_components(self):
        phi = al.standard_phi()
        assert phi[(0, 1, 2)] == 1.0
        assert phi[(1, 4, 6)] == -1.0

    def test_seven_monomials(self):
        phi = al.standard_phi()
        assert int(np.sum(phi.comps != 0)) == 7

    def test_antisymmetry_accessor(self):
        phi = al.standard_phi()
        assert phi[(1, 0, 2)] == -1.0
        assert phi[(0, 0, 2)] == 0.0

    def test_immutability(self):
        phi = al.standard_phi()
        with pytest.raises(AttributeError):
            phi.degree = 4
        with pytest.raises(ValueError):
            phi.comps[0] = 2.0


class TestWedge:
    def test_basis_product(self):
        e1 = al.FormK(1, np.eye(7)[0])
        e2 = al.FormK(1, np.eye(7)[1])
        w = al.wedge(e1, e2)
        assert w[(0, 1)] == 1.0
        assert np.sum(w.comps != 0) == 1

    def test_phi_wedge_psi_is_seven_volumes(self):
        phi = al.standard_phi()
        psi = al.standard_psi()
        assert al.wedge(phi, psi).comps[0] == pytest.approx(7.0, abs=1e-13)

    def test_graded_commutativity(self):
        for p, q in ((1, 2), (2, 2), (2, 3), (3, 3), (1, 4)):
            a = al.FormK(p, RNG.normal(size=al.NCOMP[p]))
            b = al.FormK(q, RNG.normal(size=al.NCOMP[q]))
            lhs = al.wedge(a, b).comps
            rhs = (-1.0) ** (p * q) * al.wedge(b, a).comps
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_odd_degree_self_wedge_vanishes(self):
        a = al.FormK(3, RNG.normal(size=35))
        assert np.max(np.abs(al.wedge(a, a).comps)) < 1e-13

    def test_zero_form_wedge_is_scaling(self):
        # a 0-form on either side goes through the general wedge table
        c = -1.75
        zero = al.FormK(0, [c])
        for q in range(al.DIM + 1):
            b = al.FormK(q, RNG.normal(size=al.NCOMP[q]))
            for w in (al.wedge(zero, b), al.wedge(b, zero)):
                assert w.degree == q
                assert np.array_equal(w.comps, c * b.comps)
            # batched over leading axes, as on a grid
            cs = RNG.normal(size=(5, 1))
            bs = RNG.normal(size=(5, al.NCOMP[q]))
            assert np.array_equal(al.wedge_comps(0, q, cs, bs), cs * bs)
            assert np.array_equal(al.wedge_comps(q, 0, bs, cs), cs * bs)

    def test_degree_overflow(self):
        a = al.FormK(4, RNG.normal(size=35))
        with pytest.raises(DegreeError):
            al.wedge(a, a)


class TestInterior:
    def test_e1_hook_phi(self):
        phi = al.standard_phi()
        got = al.interior(np.eye(7)[0], phi)
        want = np.zeros(21)
        for pair in ((1, 2), (3, 4), (5, 6)):
            want[al.POS[2][pair]] = 1.0
        assert np.allclose(got.comps, want)

    def test_hook_of_missing_index(self):
        e1 = al.FormK(1, np.eye(7)[0])
        assert al.interior(np.eye(7)[6], e1).comps[0] == 0.0

    def test_double_hook_vanishes(self):
        v = RNG.normal(size=7)
        a = al.FormK(3, RNG.normal(size=35))
        assert np.max(np.abs(al.interior(v, al.interior(v, a)).comps)) < 1e-13

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            al.interior(np.eye(7)[0], al.FormK(0, [1.0]))


class TestIndexTables:
    """Each table read off the wedge table against its perm_sign
    definition, entry by entry and in dtype."""

    @staticmethod
    def same(got, want):
        return got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize('k', range(8))
    def test_complement_table(self, k):
        idx = np.empty(al.NCOMP[k], dtype=np.intp)
        sgn = np.empty(al.NCOMP[k], dtype=np.float64)
        for n, I in enumerate(al.INC[k]):
            Ic = tuple(sorted(set(range(al.DIM)) - set(I)))
            idx[n] = al.POS[al.DIM - k][Ic]
            sgn[n] = al.perm_sign(I + Ic)
        got = al.complement_table(k)
        assert self.same(got[0], idx) and self.same(got[1], sgn)

    @pytest.mark.parametrize('k', range(1, 8))
    def test_basis_interior_table(self, k):
        idx = np.zeros((al.DIM, al.NCOMP[k - 1]), dtype=np.intp)
        sgn = np.zeros((al.DIM, al.NCOMP[k - 1]))
        for m in range(al.DIM):
            for n_out, J in enumerate(al.INC[k - 1]):
                if m in J:
                    continue
                I, s = al.sort_with_sign((m,) + J)
                idx[m, n_out] = al.POS[k][I]
                sgn[m, n_out] = s
        got = al.basis_interior_table(k)
        assert self.same(got[0], idx) and self.same(got[1], sgn)

    def test_volume_pairing_table(self):
        from itertools import combinations
        K = np.zeros((al.NCOMP[3], al.NCOMP[2] * al.NCOMP[2]))
        for A in al.INC[2]:
            rest = tuple(sorted(set(range(al.DIM)) - set(A)))
            for B in combinations(rest, 2):
                T = tuple(sorted(set(rest) - set(B)))
                col = al.NCOMP[2] * al.POS[2][A] + al.POS[2][B]
                K[al.POS[3][T], col] = al.perm_sign(A + B + T)
        assert self.same(al.volume_pairing_table(), K)


class TestFormToDense:
    @staticmethod
    def scatter_reference(k, a):
        """The zero-filled array with every signed permutation of each
        increasing component written into it."""
        from itertools import permutations
        out = np.zeros(a.shape[:-1] + (al.DIM,) * k)
        for n, I in enumerate(al.INC[k]):
            for p in permutations(range(k)):
                J = tuple(I[m] for m in p)
                out[(...,) + J] = a[..., n] * float(al.perm_sign(p))
        return out

    @pytest.mark.parametrize('k', range(1, 8))
    def test_gather_matches_scatter_bytes(self, k):
        # negative components and zeros of both signs: a repeated-index
        # entry must be +0.0 whatever the component it shares a row with
        a = RNG.normal(size=(3, 2, al.NCOMP[k]))
        a.flat[::3] = -0.0
        a.flat[1::5] = 0.0
        got = al.form_to_dense(k, a)
        want = self.scatter_reference(k, a)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPairOperator:
    def test_matches_dense_expansion(self):
        # M[(p, l), (i, j)] = P_pijl entry by entry, on batched symmetric
        # pair matrices
        P = RNG.normal(size=(3, 2, 21, 21))
        P = P + np.swapaxes(P, -1, -2)
        D = np.einsum('...pijl->...plij', pair_to_dense(P))
        assert np.array_equal(al.pair_operator(P),
                              D.reshape(P.shape[:-2] + (49, 49)))

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_packed_entries_match_unpacked(self, state16, three):
        # the gather composed with TRI_UNPACK reads a packed Rm in the bytes
        # of the unpacked matrix, so pair_apply's contractions do too
        b = (perturbed_state3() if three else state16).bundle
        assert al.pair_operator(b.Rm).tobytes() == al.pair_operator(
            pair_unpack(b.Rm)).tobytes()
        assert al.pair_apply(b.Rm, b.Ric).tobytes() == al.pair_apply(
            pair_unpack(b.Rm), b.Ric).tobytes()

    def test_repeated_entries_are_positive_zero(self):
        # an entry with p = i or j = l reads the appended +0.0, so no
        # negative zero appears on a negative input
        M = al.pair_operator(-np.ones((2, 21, 21))).reshape(2, *(7,) * 4)
        p, l, i, j = np.indices((7,) * 4)
        rep = (p == i) | (j == l)
        assert np.all(M[:, rep] == 0.0) and not np.any(np.signbit(M[:, rep]))
        assert np.all(np.abs(M[:, ~rep]) == 1.0)


class TestBilinearForm:
    def test_standard_gives_identity(self):
        B = al.bilinear_form_B(al.standard_phi())
        assert np.allclose(B, np.eye(7), atol=1e-14)

    def test_symmetry(self):
        for _ in range(5):
            phi = al.FormK(3, RNG.normal(size=35))
            B = al.bilinear_form_B(phi)
            assert np.allclose(B, B.T, atol=1e-12)

    def test_degenerate_has_low_rank(self):
        comps = np.zeros(35)
        comps[al.POS[3][(0, 1, 2)]] = 1.0
        B = al.bilinear_form_B(al.FormK(3, comps))
        assert np.linalg.matrix_rank(B) < 7


class TestMetricFromPhi:
    def test_standard_maps_to_identity(self):
        m = al.metric_from_phi(al.standard_phi())
        assert np.allclose(m.g, np.eye(7), atol=1e-14)
        assert m.vol_coeff == pytest.approx(1.0, abs=1e-14)
        assert m.orientation == 1.0

    def test_scaling_exponent(self):
        # pullback by lambda * id multiplies the metric by lambda^2
        lam = 1.7
        pb = al.pullback_3form(lam * np.eye(7), al.standard_phi())
        m = al.metric_from_phi(pb)
        assert np.allclose(m.g, lam ** 2 * np.eye(7), atol=1e-12)

    def test_degenerate_rejected(self):
        comps = np.zeros(35)
        comps[al.POS[3][(0, 1, 2)]] = 1.0
        with pytest.raises(NotPositive):
            al.metric_from_phi(al.FormK(3, comps))

    def test_nonfinite_rejected_with_point(self):
        phis = np.broadcast_to(al.standard_phi().comps, (4, 3, 35)).copy()
        phis[2, 1, 7] = np.nan
        with pytest.raises(NotPositive, match="non-finite") as err:
            al.metric_data_from_phi(phis)
        assert err.value.point == 7

    @pytest.mark.parametrize('case, message', [
        ('split', "3-form is not positive (bilinear form indefinite)"),
        ('split_null_first_axis',
         "3-form is not positive (bilinear form indefinite)"),
        ('no_first_axis', "bilinear form is singular"),
    ])
    def test_nonpositive_rejected_with_point(self, case, message):
        # the split 3-form (the sign of e356 flipped) has a bilinear form
        # of signature (4, 3); pulled back by a map taking e1 to the null
        # vector e1 + e3 it keeps det B = -1 with B[0, 0] = 0; without its
        # terms on axis 1, e1 -| phi = 0 and B is singular, B[0, 0] = 0
        comps = al.standard_phi().comps.copy()
        comps[al.POS[3][(2, 4, 5)]] *= -1.0
        if case == 'split_null_first_axis':
            u = np.eye(7)
            u[2, 0] = 1.0
            comps = al.pullback_3form(u, al.FormK(3, comps)).comps
        elif case == 'no_first_axis':
            comps = al.standard_phi().comps.copy()
            comps[[n for n, I in enumerate(al.INC[3]) if 0 in I]] = 0.0
        if case != 'split':
            assert al.bilinear_form_comps(comps)[0, 0] == 0.0
        phis = np.broadcast_to(al.standard_phi().comps, (4, 3, 35)).copy()
        phis[2, 1] = comps
        with pytest.raises(NotPositive) as err:
            al.metric_data_from_phi(phis)
        assert str(err.value) == message
        assert err.value.point == 7

    def test_nonfinite_in_later_block_has_global_point(self, monkeypatch):
        # 35-point blocks: flat index 47 sits in the second of three
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        phis = np.broadcast_to(al.standard_phi().comps, (8, 10, 35)).copy()
        phis[4, 7, 3] = np.inf
        with pytest.raises(NotPositive, match="non-finite") as err:
            al.metric_data_from_phi(phis)
        assert err.value.point == 47

    def test_indefinite_in_two_blocks_names_whole_grid_point(
            self, monkeypatch):
        # split 3-forms at flat indices 10 (first block) and 50 (second);
        # the one at 50, scaled by 2, has the least eigenvalue, so a
        # diagnosis of the first failing block alone would name 10
        split = al.standard_phi().comps.copy()
        split[al.POS[3][(2, 4, 5)]] *= -1.0
        phis = np.broadcast_to(al.standard_phi().comps, (80, 35)).copy()
        phis[10], phis[50] = split, 2.0 * split
        errors = []
        for budget in (1 << 40, SMALL_BLOCK_BYTES):
            monkeypatch.setattr(al, 'BLOCK_BYTES', budget)
            with pytest.raises(NotPositive, match="indefinite") as err:
                al.metric_data_from_phi(phis)
            errors.append(err.value.point)
        assert errors == [50, 50]

    def test_metric_inverse_consistency(self):
        u = healthy_linear_map(np.random.default_rng(3))
        m = al.metric_from_phi(al.pullback_3form(u, al.standard_phi()))
        assert np.allclose(m.g @ m.g_inv, np.eye(7), atol=1e-12)
        assert m.vol_coeff == pytest.approx(np.sqrt(m.det_g), rel=1e-12)

    def test_orientation_reversing_pullback(self):
        u = healthy_linear_map(np.random.default_rng(4), flip=True)
        m = al.metric_from_phi(al.pullback_3form(u, al.standard_phi()))
        assert m.orientation == -1.0
        assert np.all(np.linalg.eigvalsh(m.g) > 0)


class TestHodgeStar:
    def test_standard_dual(self):
        psi = al.standard_psi()
        expect = {(3, 4, 5, 6): 1, (1, 2, 5, 6): 1, (1, 2, 3, 4): 1,
                  (0, 2, 4, 6): 1, (0, 2, 3, 5): -1, (0, 1, 4, 5): -1,
                  (0, 1, 3, 6): -1}
        for idx, val in expect.items():
            assert psi[idx] == pytest.approx(val, abs=1e-14)
        assert int(np.sum(psi.comps != 0)) == 7

    def test_star_of_one_and_volume(self):
        m = random_metric_point(np.random.default_rng(5))
        one = al.FormK(0, [1.0])
        vol = al.hodge_star(one, m)
        assert vol.comps[0] == pytest.approx(m.vol_coeff, rel=1e-13)
        back = al.hodge_star(vol, m)
        assert back.comps[0] == pytest.approx(1.0, rel=1e-12)

    def test_involution_all_degrees(self):
        m = random_metric_point(np.random.default_rng(6))
        for k in range(8):
            a = al.FormK(k, RNG.normal(size=al.NCOMP[k]))
            ss = al.hodge_star(al.hodge_star(a, m), m)
            assert np.allclose(ss.comps, a.comps, atol=1e-12)

    def test_isometry_in_normalized_norm(self):
        # the k-tensor convention carries k! multiplicities, so the star is
        # an isometry of the k!-normalized inner product
        import math
        m = random_metric_point(np.random.default_rng(7))
        for k in range(8):
            a = al.FormK(k, RNG.normal(size=al.NCOMP[k]))
            sa = al.hodge_star(a, m)
            n1 = al.form_inner(a, a, m) / math.factorial(k)
            n2 = al.form_inner(sa, sa, m) / math.factorial(7 - k)
            assert n2 == pytest.approx(n1, rel=1e-10)

    def test_norm_convention(self):
        phi = al.standard_phi()
        m = al.metric_from_phi(phi)
        assert al.form_inner(phi, phi, m) == pytest.approx(42.0, abs=1e-12)
        psi = al.standard_psi()
        assert al.form_inner(psi, psi, m) == pytest.approx(168.0, abs=1e-12)


class TestDecompose2:
    def setup_method(self):
        self.phi = al.standard_phi()
        self.m = al.metric_from_phi(self.phi)
        self.psi = al.hodge_star(self.phi, self.m)

    def test_vector_part_has_no_pi14(self):
        x = RNG.normal(size=7)
        beta = al.interior(x, self.phi)
        d = al.decompose_2form(beta, self.phi, self.psi, self.m)
        assert np.max(np.abs(d.pi14.comps)) < 1e-12

    def test_psi_wedge_kernel_has_no_pi7(self):
        beta = al.FormK(2, RNG.normal(size=21))
        d = al.decompose_2form(beta, self.phi, self.psi, self.m)
        in14 = d.pi14
        assert np.max(np.abs(al.wedge(self.psi, in14).comps)) < 1e-12
        again = al.decompose_2form(in14, self.phi, self.psi, self.m)
        assert np.max(np.abs(again.pi7.comps)) < 1e-12

    def test_reconstruction_and_eigenvalues(self):
        beta = al.FormK(2, RNG.normal(size=21))
        d = al.decompose_2form(beta, self.phi, self.psi, self.m)
        assert np.allclose(d.pi7.comps + d.pi14.comps, beta.comps,
                           atol=1e-10)
        w7 = al.hodge_star(al.wedge(self.phi, d.pi7), self.m)
        w14 = al.hodge_star(al.wedge(self.phi, d.pi14), self.m)
        assert np.allclose(w7.comps, 2.0 * d.pi7.comps, atol=1e-12)
        assert np.allclose(w14.comps, -d.pi14.comps, atol=1e-12)

    def test_idempotence(self):
        beta = al.FormK(2, RNG.normal(size=21))
        d = al.decompose_2form(beta, self.phi, self.psi, self.m)
        d2 = al.decompose_2form(d.pi7, self.phi, self.psi, self.m)
        assert np.allclose(d2.pi7.comps, d.pi7.comps, atol=1e-12)
        assert np.max(np.abs(d2.pi14.comps)) < 1e-12

    def test_type_dimensions(self):
        # rank of X -> X -| phi is 7; kernel of psi ^ . has dimension 14
        hook = np.stack([al.interior(np.eye(7)[i], self.phi).comps
                         for i in range(7)])
        assert np.linalg.matrix_rank(hook) == 7
        wedge_map = np.stack([al.wedge(self.psi,
                                       al.FormK(2, np.eye(21)[i])).comps
                              for i in range(21)])
        assert np.linalg.matrix_rank(wedge_map) == 21 - 14


class TestDecompose3:
    def setup_method(self):
        self.phi = al.standard_phi()
        self.m = al.metric_from_phi(self.phi)
        self.psi = al.hodge_star(self.phi, self.m)

    def test_phi_is_pure_pi1(self):
        d = al.decompose_3form(self.phi, self.phi, self.psi, self.m)
        assert np.allclose(d.pi1.comps, self.phi.comps, atol=1e-12)
        assert np.max(np.abs(d.pi7.comps)) < 1e-12
        assert np.max(np.abs(d.pi27.comps)) < 1e-12

    def test_hook_psi_is_pure_pi7(self):
        eta = al.interior(np.eye(7)[0], self.psi)
        d = al.decompose_3form(eta, self.phi, self.psi, self.m)
        assert np.max(np.abs(d.pi1.comps)) < 1e-12
        assert np.max(np.abs(d.pi27.comps)) < 1e-12

    def test_reconstruction_orthogonality_and_27_wedges(self):
        eta = al.FormK(3, RNG.normal(size=35))
        d = al.decompose_3form(eta, self.phi, self.psi, self.m)
        total = d.pi1.comps + d.pi7.comps + d.pi27.comps
        assert np.allclose(total, eta.comps, atol=1e-10)
        assert abs(al.form_inner(d.pi1, d.pi7, self.m)) < 1e-10
        assert abs(al.form_inner(d.pi1, d.pi27, self.m)) < 1e-10
        assert abs(al.form_inner(d.pi7, d.pi27, self.m)) < 1e-10
        assert np.max(np.abs(al.wedge(d.pi27, self.phi).comps)) < 1e-10
        assert np.max(np.abs(al.wedge(d.pi27, self.psi).comps)) < 1e-10


class TestContractionIdentities:
    def test_standard_residuals(self):
        res = al.contraction_residuals(al.standard_phi())
        assert set(res) == {'phiphi_psi', 'phiphi_6g', 'psipsi_24g',
                            'phipsi_4phi'}
        assert max(res.values()) <= 1e-12

    def test_explicit_six_and_twentyfour(self):
        phi = al.standard_phi()
        m = al.metric_from_phi(phi)
        P = phi.to_dense()
        lhs2 = np.einsum('ijk,abc,jb,kc->ia', P, P, m.g_inv, m.g_inv)
        assert np.allclose(lhs2, 6.0 * np.eye(7), atol=1e-12)
        Q = al.standard_psi().to_dense()
        lhs3 = np.einsum('ijkl,abcd,jb,kc,ld->ia', Q, Q, m.g_inv, m.g_inv,
                         m.g_inv, optimize=True)
        assert np.allclose(lhs3, 24.0 * np.eye(7), atol=1e-12)

    def test_gl_equivariance(self):
        rng = np.random.default_rng(11)
        phi = al.standard_phi()
        for trial in range(40):
            u = healthy_linear_map(rng, flip=bool(trial % 2))
            pb = al.pullback_3form(u, phi)
            res = al.contraction_residuals(pb)
            scale = max(1.0, float(np.max(np.abs(
                al.metric_from_phi(pb).g))))
            assert max(res.values()) / scale < 1e-8

    def test_stabilizer_fixes_metric(self):
        # elements of the 14-dimensional stabilizer algebra annihilate phi;
        # their exponentials pull phi back to itself and fix the metric
        phi = al.standard_phi()
        P = phi.to_dense()
        basis = []
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        act = np.zeros((21, 7, 7, 7))
        for n, (i, j) in enumerate(pairs):
            A = np.zeros((7, 7))
            A[i, j], A[j, i] = 1.0, -1.0
            act[n] = (np.einsum('im,mjk->ijk', A, P)
                      + np.einsum('jm,imk->ijk', A, P)
                      + np.einsum('km,ijm->ijk', A, P))
        mat = act.reshape(21, -1)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        null = u[:, s <= 1e-10].T      # coefficient vectors killing phi
        assert null.shape[0] == 14  # dim of the stabilizer algebra
        rng = np.random.default_rng(12)
        for _ in range(3):
            coeff = rng.normal(size=null.shape[0])
            A = np.zeros((7, 7))
            for cf, row in zip(coeff, null):
                for n, (i, j) in enumerate(pairs):
                    A[i, j] += cf * row[n]
                    A[j, i] -= cf * row[n]
            # matrix exponential by squaring a short series
            B = A / 16.0
            E = np.eye(7)
            term = np.eye(7)
            for k in range(1, 12):
                term = term @ B / k
                E = E + term
            for _ in range(4):
                E = E @ E
            pb = al.pullback_3form(E.T, phi)
            m = al.metric_from_phi(pb)
            assert np.allclose(pb.comps, phi.comps, atol=1e-9)
            assert np.allclose(m.g, np.eye(7), atol=1e-10)
