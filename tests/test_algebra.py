import math

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow.errors import DegreeError, NotPositive
from g2flow.initial_data import flat_phi_field

from conftest import (SMALL_BLOCK_BYTES, contraction_residuals,
                      form_inner_comps, pair_pack, pair_to_dense, pair_unpack,
                      perturbed_state3, pullback, scenario_spec)

RNG = np.random.default_rng(42)

# the standard structure, its metric data in star_comps's argument order
# (g, g^-1, vol, orientation) and its dual 4-form
PHI = al.standard_phi()
g, GI, _, vol, orientation = al.metric_data_from_phi(PHI)
FLAT = (g, GI, vol, orientation)
PSI = al.star_comps(3, PHI, *FLAT)


def healthy_linear_map(rng, flip=False):
    """Random invertible 7x7 with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    q2, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    u = q1 @ np.diag(rng.uniform(0.5, 2.0, 7)) @ q2
    if flip:
        u[:, 0] *= -1.0
    return u


def random_metric(rng):
    """(g, g^-1, vol, orientation) of a random positive-definite g."""
    a = rng.normal(size=(7, 7))
    g = a @ a.T + 7 * np.eye(7)
    return g, np.linalg.inv(g), np.sqrt(np.linalg.det(g)), 1.0


class TestStandardPhi:
    def test_defining_components(self):
        phi = al.standard_phi()
        assert phi[al.POS[3][(0, 1, 2)]] == 1.0
        assert phi[al.POS[3][(1, 4, 6)]] == -1.0

    def test_seven_monomials(self):
        assert int(np.sum(al.standard_phi() != 0)) == 7

    def test_antisymmetry_accessor(self):
        # the dense expansion carries each index order's sign, and 0 on a
        # repeated index
        P = al.form_to_dense(3, al.standard_phi())
        assert P[1, 0, 2] == -1.0
        assert P[0, 0, 2] == 0.0

    def test_immutability(self):
        # a field's values are read-only, and it takes no new attribute
        phi = flat_phi_field(scenario_spec(4))
        with pytest.raises(AttributeError):
            phi.extra = 0.0
        with pytest.raises(ValueError):
            phi.values[..., 0] = 2.0


class TestWedge:
    def test_basis_product(self):
        w = al.wedge_comps(1, 1, np.eye(7)[0], np.eye(7)[1])
        assert w[al.POS[2][(0, 1)]] == 1.0
        assert np.sum(w != 0) == 1

    def test_phi_wedge_psi_is_seven_volumes(self):
        assert al.wedge_comps(3, 4, PHI, PSI)[0] == pytest.approx(7.0,
                                                                 abs=1e-13)

    def test_graded_commutativity(self):
        for p, q in ((1, 2), (2, 2), (2, 3), (3, 3), (1, 4)):
            a = RNG.normal(size=al.NCOMP[p])
            b = RNG.normal(size=al.NCOMP[q])
            lhs = al.wedge_comps(p, q, a, b)
            rhs = (-1.0) ** (p * q) * al.wedge_comps(q, p, b, a)
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_odd_degree_self_wedge_vanishes(self):
        a = RNG.normal(size=35)
        assert np.max(np.abs(al.wedge_comps(3, 3, a, a))) < 1e-13

    def test_zero_form_wedge_is_scaling(self):
        # a 0-form on either side goes through the general wedge table
        c = -1.75
        zero = np.array([c])
        for q in range(al.DIM + 1):
            b = RNG.normal(size=al.NCOMP[q])
            for w in (al.wedge_comps(0, q, zero, b),
                      al.wedge_comps(q, 0, b, zero)):
                assert w.shape == (al.NCOMP[q],)
                assert np.array_equal(w, c * b)
            # batched over leading axes, as on a grid
            cs = RNG.normal(size=(5, 1))
            bs = RNG.normal(size=(5, al.NCOMP[q]))
            assert np.array_equal(al.wedge_comps(0, q, cs, bs), cs * bs)
            assert np.array_equal(al.wedge_comps(q, 0, bs, cs), cs * bs)

    def test_degree_overflow(self):
        a = RNG.normal(size=35)
        with pytest.raises(DegreeError):
            al.wedge_comps(4, 4, a, a)


class TestInterior:
    def test_e1_hook_phi(self):
        got = al.interior_comps(3, np.eye(7)[0], PHI)
        want = np.zeros(21)
        for pair in ((1, 2), (3, 4), (5, 6)):
            want[al.POS[2][pair]] = 1.0
        assert np.allclose(got, want)

    def test_hook_of_missing_index(self):
        assert al.interior_comps(1, np.eye(7)[6], np.eye(7)[0])[0] == 0.0

    def test_double_hook_vanishes(self):
        v = RNG.normal(size=7)
        a = RNG.normal(size=35)
        twice = al.interior_comps(2, v, al.interior_comps(3, v, a))
        assert np.max(np.abs(twice)) < 1e-13

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            al.interior_comps(0, np.eye(7)[0], np.array([1.0]))


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
                idx[m, n_out] = al.POS[k][tuple(sorted((m,) + J))]
                sgn[m, n_out] = al.perm_sign((m,) + J)
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
    @staticmethod
    def dense_operator(P):
        """M[(p, l), (i, j)] = P_pijl off the dense expansion of the
        symmetric pair matrices P (.., 21, 21)."""
        D = np.einsum('...pijl->...plij', pair_to_dense(P))
        return D.reshape(P.shape[:-2] + (49, 49))

    def test_matches_dense_expansion(self):
        # M[(p, l), (i, j)] = P_pijl entry by entry, on the packed entries
        # of batched symmetric pair matrices
        P = RNG.normal(size=(3, 2, 21, 21))
        P = P + np.swapaxes(P, -1, -2)
        assert np.array_equal(al.pair_operator(pair_pack(P)),
                              self.dense_operator(P))

    @pytest.mark.parametrize('three', (False, True), ids=('2axis', '3axis'))
    def test_packed_entries_match_unpacked(self, state16, three):
        # the gather composed with TRI_UNPACK reads a packed Rm as the
        # dense expansion of its unpacked matrix, and pair_apply's
        # contractions are the flattened 2-tensor times that operator
        b = (perturbed_state3() if three else state16).bundle
        D = self.dense_operator(pair_unpack(b.Rm))
        assert np.array_equal(al.pair_operator(b.Rm), D)
        want = b.Ric.reshape(b.R.shape + (1, 49)) @ D
        assert al.pair_apply(b.Rm, b.Ric).tobytes() == want.tobytes()

    def test_repeated_entries_are_positive_zero(self):
        # an entry with p = i or j = l reads the appended +0.0, so no
        # negative zero appears on a negative input
        M = al.pair_operator(-np.ones((2, 231))).reshape(2, *(7,) * 4)
        p, l, i, j = np.indices((7,) * 4)
        rep = (p == i) | (j == l)
        assert np.all(M[:, rep] == 0.0) and not np.any(np.signbit(M[:, rep]))
        assert np.all(np.abs(M[:, ~rep]) == 1.0)


class TestBilinearForm:
    def test_standard_gives_identity(self):
        B = al.bilinear_form_comps(al.standard_phi())
        assert np.allclose(B, np.eye(7), atol=1e-14)

    def test_symmetry(self):
        for _ in range(5):
            B = al.bilinear_form_comps(RNG.normal(size=35))
            assert np.allclose(B, B.T, atol=1e-12)

    def test_degenerate_has_low_rank(self):
        comps = np.zeros(35)
        comps[al.POS[3][(0, 1, 2)]] = 1.0
        B = al.bilinear_form_comps(comps)
        assert np.linalg.matrix_rank(B) < 7


class TestMetricFromPhi:
    def test_standard_maps_to_identity(self):
        g, _, _, vol, orientation = al.metric_data_from_phi(al.standard_phi())
        assert np.allclose(g, np.eye(7), atol=1e-14)
        assert vol == pytest.approx(1.0, abs=1e-14)
        assert orientation == 1.0

    def test_scaling_exponent(self):
        # pullback by lambda * id multiplies the metric by lambda^2
        lam = 1.7
        g = al.metric_data_from_phi(pullback(lam * np.eye(7), PHI))[0]
        assert np.allclose(g, lam ** 2 * np.eye(7), atol=1e-12)

    def test_degenerate_rejected(self):
        comps = np.zeros(35)
        comps[al.POS[3][(0, 1, 2)]] = 1.0
        with pytest.raises(NotPositive):
            al.metric_data_from_phi(comps)

    def test_nonfinite_rejected_with_point(self):
        phis = np.broadcast_to(al.standard_phi(), (4, 3, 35)).copy()
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
        comps = al.standard_phi()
        comps[al.POS[3][(2, 4, 5)]] *= -1.0
        if case == 'split_null_first_axis':
            u = np.eye(7)
            u[2, 0] = 1.0
            comps = pullback(u, comps)
        elif case == 'no_first_axis':
            comps = al.standard_phi()
            comps[[n for n, I in enumerate(al.INC[3]) if 0 in I]] = 0.0
        if case != 'split':
            assert al.bilinear_form_comps(comps)[0, 0] == 0.0
        phis = np.broadcast_to(al.standard_phi(), (4, 3, 35)).copy()
        phis[2, 1] = comps
        with pytest.raises(NotPositive) as err:
            al.metric_data_from_phi(phis)
        assert str(err.value) == message
        assert err.value.point == 7

    def test_nonfinite_in_later_block_has_global_point(self, monkeypatch):
        # 35-point blocks: flat index 47 sits in the second of three
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        phis = np.broadcast_to(al.standard_phi(), (8, 10, 35)).copy()
        phis[4, 7, 3] = np.inf
        with pytest.raises(NotPositive, match="non-finite") as err:
            al.metric_data_from_phi(phis)
        assert err.value.point == 47

    def test_indefinite_in_two_blocks_names_whole_grid_point(
            self, monkeypatch):
        # split 3-forms at flat indices 10 (first block) and 50 (second);
        # the one at 50, scaled by 2, has the least eigenvalue, so a
        # diagnosis of the first failing block alone would name 10
        split = al.standard_phi()
        split[al.POS[3][(2, 4, 5)]] *= -1.0
        phis = np.broadcast_to(al.standard_phi(), (80, 35)).copy()
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
        g, ginv, det_g, vol, _ = al.metric_data_from_phi(pullback(u, PHI))
        assert np.allclose(g @ ginv, np.eye(7), atol=1e-12)
        assert vol == pytest.approx(np.sqrt(det_g), rel=1e-12)

    def test_orientation_reversing_pullback(self):
        u = healthy_linear_map(np.random.default_rng(4), flip=True)
        g, _, _, _, orientation = al.metric_data_from_phi(pullback(u, PHI))
        assert orientation == -1.0
        assert np.all(np.linalg.eigvalsh(g) > 0)


class TestHodgeStar:
    def test_standard_dual(self):
        expect = {(3, 4, 5, 6): 1, (1, 2, 5, 6): 1, (1, 2, 3, 4): 1,
                  (0, 2, 4, 6): 1, (0, 2, 3, 5): -1, (0, 1, 4, 5): -1,
                  (0, 1, 3, 6): -1}
        for idx, val in expect.items():
            assert PSI[al.POS[4][idx]] == pytest.approx(val, abs=1e-14)
        assert int(np.sum(PSI != 0)) == 7

    def test_star_of_one_and_volume(self):
        m = random_metric(np.random.default_rng(5))
        vol = al.star_comps(0, np.array([1.0]), *m)
        assert vol[0] == pytest.approx(m[2], rel=1e-13)
        back = al.star_comps(7, vol, *m)
        assert back[0] == pytest.approx(1.0, rel=1e-12)

    def test_involution_all_degrees(self):
        m = random_metric(np.random.default_rng(6))
        for k in range(8):
            a = RNG.normal(size=al.NCOMP[k])
            ss = al.star_comps(7 - k, al.star_comps(k, a, *m), *m)
            assert np.allclose(ss, a, atol=1e-12)

    def test_isometry_in_normalized_norm(self):
        # the k-tensor convention carries k! multiplicities, so the star is
        # an isometry of the k!-normalized inner product
        m = random_metric(np.random.default_rng(7))
        for k in range(8):
            a = RNG.normal(size=al.NCOMP[k])
            sa = al.star_comps(k, a, *m)
            n1 = form_inner_comps(k, a, a, m[1]) / math.factorial(k)
            n2 = form_inner_comps(7 - k, sa, sa, m[1]) / math.factorial(7 - k)
            assert n2 == pytest.approx(n1, rel=1e-10)

    def test_norm_convention(self):
        assert form_inner_comps(3, PHI, PHI, GI) == pytest.approx(42.0,
                                                                  abs=1e-12)
        assert form_inner_comps(4, PSI, PSI, GI) == pytest.approx(168.0,
                                                                  abs=1e-12)


class TestDecompose2:
    @staticmethod
    def split(beta):
        """Type components (pi7, pi14) of a 2-form on the standard
        structure: pi7 = (beta + *(phi ^ beta)) / 3 and
        pi14 = (2 beta - *(phi ^ beta)) / 3."""
        w = al.star_comps(5, al.wedge_comps(3, 2, PHI, beta), *FLAT)
        return (beta + w) / 3.0, (2.0 * beta - w) / 3.0

    def test_vector_part_has_no_pi14(self):
        x = RNG.normal(size=7)
        _, pi14 = self.split(al.interior_comps(3, x, PHI))
        assert np.max(np.abs(pi14)) < 1e-12

    def test_psi_wedge_kernel_has_no_pi7(self):
        _, in14 = self.split(RNG.normal(size=21))
        assert np.max(np.abs(al.wedge_comps(4, 2, PSI, in14))) < 1e-12
        again, _ = self.split(in14)
        assert np.max(np.abs(again)) < 1e-12

    def test_reconstruction_and_eigenvalues(self):
        beta = RNG.normal(size=21)
        pi7, pi14 = self.split(beta)
        assert np.allclose(pi7 + pi14, beta, atol=1e-10)
        w7 = al.star_comps(5, al.wedge_comps(3, 2, PHI, pi7), *FLAT)
        w14 = al.star_comps(5, al.wedge_comps(3, 2, PHI, pi14), *FLAT)
        assert np.allclose(w7, 2.0 * pi7, atol=1e-12)
        assert np.allclose(w14, -pi14, atol=1e-12)

    def test_idempotence(self):
        pi7, _ = self.split(RNG.normal(size=21))
        again7, again14 = self.split(pi7)
        assert np.allclose(again7, pi7, atol=1e-12)
        assert np.max(np.abs(again14)) < 1e-12

    def test_type_dimensions(self):
        # rank of X -> X -| phi is 7; kernel of psi ^ . has dimension 14
        hook = al.interior_comps(3, np.eye(7), PHI)
        assert np.linalg.matrix_rank(hook) == 7
        wedge_map = al.wedge_comps(4, 2, PSI, np.eye(21))
        assert np.linalg.matrix_rank(wedge_map) == 21 - 14


class TestDecompose3:
    @staticmethod
    def split(eta):
        """Type components (pi1, pi7, pi27) of a 3-form on the standard
        structure by orthogonal projection: pi1 onto the span of phi,
        pi7 = X -| psi with X recovered through the 24 g(X, Y)
        contraction identity, and pi27 the remainder."""
        pi1 = (form_inner_comps(3, eta, PHI, GI)
               / form_inner_comps(3, PHI, PHI, GI)) * PHI
        ipsi = al.interior_comps(4, np.eye(7), PSI)   # rows e_a -| psi
        X = GI @ form_inner_comps(3, eta, ipsi, GI) / 24.0
        pi7 = al.interior_comps(4, X, PSI)
        return pi1, pi7, eta - pi1 - pi7

    def test_phi_is_pure_pi1(self):
        pi1, pi7, pi27 = self.split(PHI)
        assert np.allclose(pi1, PHI, atol=1e-12)
        assert np.max(np.abs(pi7)) < 1e-12
        assert np.max(np.abs(pi27)) < 1e-12

    def test_hook_psi_is_pure_pi7(self):
        pi1, _, pi27 = self.split(al.interior_comps(4, np.eye(7)[0], PSI))
        assert np.max(np.abs(pi1)) < 1e-12
        assert np.max(np.abs(pi27)) < 1e-12

    def test_reconstruction_orthogonality_and_27_wedges(self):
        eta = RNG.normal(size=35)
        pi1, pi7, pi27 = self.split(eta)
        assert np.allclose(pi1 + pi7 + pi27, eta, atol=1e-10)
        assert abs(form_inner_comps(3, pi1, pi7, GI)) < 1e-10
        assert abs(form_inner_comps(3, pi1, pi27, GI)) < 1e-10
        assert abs(form_inner_comps(3, pi7, pi27, GI)) < 1e-10
        assert np.max(np.abs(al.wedge_comps(3, 3, pi27, PHI))) < 1e-10
        assert np.max(np.abs(al.wedge_comps(3, 4, pi27, PSI))) < 1e-10


class TestContractionIdentities:
    def test_standard_residuals(self):
        res, _ = contraction_residuals(PHI)
        assert set(res) == {'phiphi_psi', 'phiphi_6g', 'psipsi_24g',
                            'phipsi_4phi'}
        assert max(res.values()) <= 1e-12

    def test_explicit_six_and_twentyfour(self):
        P = al.form_to_dense(3, PHI)
        lhs2 = np.einsum('ijk,abc,jb,kc->ia', P, P, GI, GI)
        assert np.allclose(lhs2, 6.0 * np.eye(7), atol=1e-12)
        Q = al.form_to_dense(4, PSI)
        lhs3 = np.einsum('ijkl,abcd,jb,kc,ld->ia', Q, Q, GI, GI, GI,
                         optimize=True)
        assert np.allclose(lhs3, 24.0 * np.eye(7), atol=1e-12)

    def test_gl_equivariance(self):
        # 40 pullbacks, every other one orientation-reversing; each
        # residual measured against max(1, max|g|) of its own metric
        rng = np.random.default_rng(11)
        us = np.stack([healthy_linear_map(rng, flip=bool(trial % 2))
                       for trial in range(40)])
        pbs = pullback(us, PHI)
        res, _ = contraction_residuals(pbs)
        g = al.metric_data_from_phi(pbs)[0]
        scale = np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
        assert np.max(np.stack(list(res.values())) / scale) < 1e-8

    def test_stabilizer_fixes_metric(self):
        # elements of the 14-dimensional stabilizer algebra annihilate phi;
        # their exponentials pull phi back to itself and fix the metric
        P = al.form_to_dense(3, PHI)
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
            pb = pullback(E.T, PHI)
            g = al.metric_data_from_phi(pb)[0]
            assert np.allclose(pb, PHI, atol=1e-9)
            assert np.allclose(g, np.eye(7), atol=1e-10)
