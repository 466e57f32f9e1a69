"""Discrete Riemannian geometry of a G2-structure field on the periodic
grid: induced metric, Levi-Civita connection, curvature, Hodge operators
and the full torsion of a (not necessarily closed) positive 3-form field.

Tensor fields are dense numpy arrays with the 7 grid axes leading and the
tensor slots trailing; forms and their derivatives keep increasing
components, and the curvature is computed and stored in 21x21 pair form.
All second derivatives are nested first-order covariant derivatives, so
contraction bookkeeping downstream relies on one discretization.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as al
from .algebra import DIM, slot_apply
from .errors import DegreeError, NotPositive
from .grid import (FormField, exterior_derivative, partial_block,
                   partial_derivative)


# ---------------------------------------------------------------------------
# metric field
# ---------------------------------------------------------------------------

class MetricField:
    """Grid-sampled metric with inverse, determinant, volume density and
    orientation, plus the lazily built connection data."""

    def __init__(self, spec, g, ginv, det_g, vol, orientation):
        self.spec = spec
        self.g = g
        self.ginv = ginv
        self.det_g = det_g
        self.vol = vol
        self.orientation = orientation

    @classmethod
    def from_phi(cls, phi):
        """Pointwise metric of a positive 3-form field.

        The orientation must be uniform across the grid; a sign change in
        the volume form inside a connected field is a data error.
        """
        g, ginv, detg, vol, orient = al.metric_data_from_phi(phi.values)
        if np.any(orient != orient.flat[0]):
            raise NotPositive("orientation flips across the grid")
        return cls(phi.spec, g, ginv, detg, vol, orient)

    @property
    def christoffel(self):
        """Gamma^k_ij with index order [k, i, j]: a view of gamma_flat."""
        H = self.gamma_flat.reshape(self.g.shape[:-2] + (DIM,) * 3)
        return np.moveaxis(H, -1, -3)

    @cached_property
    def gamma_flat(self):
        """Christoffel symbols Gamma^p_ai as rows (a, i) and columns p for
        the batched matrix products in covariant derivatives and curvature,
        cached: per al.chunks block, the first-kind symbols d_a g_ip + d_i
        g_ap - d_p g_ai, from the block's own d_a g (grid.partial_block),
        times g^-1 on the right, halved."""
        n, gi = self.vol.size, self.ginv.reshape(-1, DIM, DIM)
        out = np.empty((n, DIM * DIM, DIM))
        for c in al.chunks(n, DIM ** 3):
            dg = np.zeros((len(gi[c]),) + (DIM,) * 3)       # (.., a, i, j)
            for a in self.spec.active_axes:
                dg[:, a] = partial_block(self.g, self.spec, a, c)
            A = dg + np.swapaxes(dg, -3, -2)
            A -= np.moveaxis(dg, -3, -1)
            up = slot_apply(A, gi[c], 3, (2,))
            up *= 0.5
            out[c] = up.reshape(-1, DIM * DIM, DIM)
        return out.reshape(self.g.shape[:-2] + out.shape[1:])


def pair_ginv(gi):
    """Lambda^2(g^-1) = g^ik g^jl - g^il g^jk in pair form at a block of
    points gi (.., 7, 7), which raises one pair of a pair-form tensor: its
    231 packed entries unpacked, exact as g^-1 is exactly symmetric."""
    il, jk, ik, jl = al.pair_entries(gi, packed=True)
    return al.tri_unpack(ik * jl - il * jk)


# ---------------------------------------------------------------------------
# covariant calculus on dense tensor fields
# ---------------------------------------------------------------------------

def partial_stack(T, spec):
    """Stack of coordinate partials along every axis, new axis first after
    the grid: shape (*grid, 7, *slots).  Inactive axes contribute exact
    zeros without being computed."""
    out = np.zeros(T.shape[:DIM] + (DIM,) + T.shape[DIM:])
    idx = [slice(None)] * DIM
    for a in spec.active_axes:
        out[tuple(idx) + (a,)] = partial_derivative(T, spec, a)
    return out


def covariant_derivative(T, m, rank):
    """Levi-Civita covariant derivative of a (0, rank)-tensor field.

    Returns a (0, rank+1)-tensor with the derivative slot first:
    out[a, i1..ik] = d_a T - sum_m Gamma^p_{a i_m} T[.. p ..], built per
    al.chunks block of points by covariant_block.
    """
    n, sh = m.vol.size, T.shape[DIM:]
    out = np.empty(T.shape[:DIM] + (DIM,) + sh)
    flat = out.reshape((n, DIM) + sh)
    # live per block: the block's derivative, one Christoffel term and
    # the product it is read from
    for c in al.chunks(n, 3 * DIM ** (rank + 1)):
        flat[c] = covariant_block(T, m, rank, c)
    return out


def covariant_block(T, m, rank, c):
    """covariant_derivative(T, m, rank) at the flat points of slice c, shape
    (points, 7, *slots): each d_a T taken at the block's own points
    (grid.partial_block), zero along inactive axes, then the Christoffel
    terms subtracted slot by slot."""
    sh = T.shape[DIM:]
    Tc = T.reshape((-1,) + sh)[c]
    out = np.zeros((len(Tc), DIM) + sh)
    for a in m.spec.active_axes:
        out[:, a] = partial_block(T, m.spec, a, c)
    gam = m.gamma_flat.reshape(-1, DIM * DIM, DIM)[c]
    for s in range(rank):
        # Gamma^p_{a i} T[.. p ..]: slot s becomes the pair (a, i), a to front
        corr = slot_apply(Tc, gam, rank, (s,))
        corr = corr.reshape((-1,) + sh[:s] + (DIM, DIM) + sh[s + 1:])
        out -= np.moveaxis(corr, 1 + s, 1)
    return out


def form_covariant_derivative(a, m):
    """Levi-Civita covariant derivative of a k-form field (k >= 1) on its
    increasing components, shape (.., 7, binomial(7, k)) with the
    derivative slot first: nabla_a w = d_a w - Gamma^p_ai e^i ^ (e_p -| w),
    the derivation Gamma_a induces on k-forms, built per al.chunks block
    of points by form_covariant_block."""
    n, k = m.vol.size, a.degree
    out = np.empty(a.values.shape[:DIM] + (DIM, al.NCOMP[k]))
    for c in al.chunks(n, DIM ** 2 * al.NCOMP[k - 1]):
        out.reshape(n, DIM, -1)[c] = form_covariant_block(a, m, c)
    return out


def form_covariant_block(a, m, c):
    """form_covariant_derivative(a, m) at the flat points of slice c, shape
    (points, 7, binomial(7, k)): each d_b w taken at the block's own points
    (grid.partial_block), zero along inactive axes, minus the interior
    gather times gamma_flat, scattered by e^i ^."""
    idx, sgn = al.basis_interior_table(a.degree)
    scatter = np.zeros((idx.size, al.NCOMP[a.degree]))
    scatter[np.arange(idx.size), idx.ravel()] = sgn.ravel()
    w = a.values.reshape(-1, al.NCOMP[a.degree])[c]
    out = np.zeros((len(w), DIM, w.shape[1]))
    for b in m.spec.active_axes:
        out[:, b] = partial_block(a.values, m.spec, b, c)
    gam = m.gamma_flat.reshape(-1, DIM * DIM, DIM)[c]
    out -= (gam @ (w[:, idx] * sgn)).reshape(-1, DIM, idx.size) @ scatter
    return out


def second_covariant(T, m, rank):
    """Two nested covariant derivatives; slots (a, b, i1..ik)."""
    return covariant_derivative(covariant_derivative(T, m, rank), m, rank + 1)


def hessian_traces(Y, m, inner=False):
    """Traces of (nabla nabla X)_abij = d_a Y_bij - Gamma^p_ab Y_pij -
    Gamma^p_ai Y_bpj - Gamma^p_aj Y_bip for a 2-tensor X, from Y = nabla X
    (slots b, i, j): the rough Laplacian g^ab (nabla nabla X)_abij, and with
    ``inner`` also A_aj = g^bi (nabla nabla X)_abij.  All of it runs per
    al.chunks block: the Christoffel terms, through K_bip = g^ab Gamma^p_ai
    ((7, 49) per point) and its trace b = i, then each d_a Y, taken at the
    block's own points (grid.partial_block) and contracted as it is built."""
    n, spec = m.vol.size, m.spec
    Y3, gam = Y.reshape(n, DIM, DIM, DIM), m.gamma_flat.reshape(n, -1, DIM)
    gi, ginv = m.ginv.reshape(n, 1, -1), m.ginv.reshape(n, DIM, DIM)
    out = np.empty((1 + inner, n, DIM, DIM))                # lap, A
    for c in al.chunks(n, DIM ** 3):
        Yf = Y3[c].reshape(gam[c].shape)                     # ((b, i), j)
        Ys = np.swapaxes(Y3[c], 1, 2).reshape(-1, DIM, DIM ** 2)  # (i, (b, p))
        K = (ginv[c] @ gam[c].reshape(Ys.shape)).reshape(Y3[c].shape)
        tr = np.trace(K, axis1=1, axis2=2)[:, None, :]
        K = np.swapaxes(K, 1, 2).reshape(Ys.shape)           # (i, (b, p))
        KY = K @ Yf
        lap = out[0, c]
        lap[...] = -((tr @ Yf.reshape(Ys.shape)).reshape(KY.shape) + KY
                     + Ys @ np.swapaxes(K, -1, -2))
        if inner:
            trY = np.swapaxes(gi[c] @ Yf, -1, -2)            # g^bi Y_bip
            out[1, c] = -(K @ Ys.reshape(Yf.shape) + KY
                          + (gam[c] @ trY).reshape(KY.shape))
        del Ys, K, KY               # freed before the block's partials
        for a in spec.active_axes:
            dY = partial_block(Y, spec, a, c).reshape(-1, DIM, DIM ** 2)
            lap += (ginv[c, a:a + 1, :] @ dY).reshape(lap.shape)
            if inner:
                out[1, c, a:a + 1, :] += gi[c] @ dY.reshape(-1, DIM ** 2, DIM)
    lap, *A = out.reshape(out.shape[:1] + Y.shape[:-1])
    return (lap, *A) if inner else lap


def scalar_laplacian(u, m):
    """g^{ab} (d_a d_b u - Gamma^p_ab d_p u) for a scalar field."""
    hess = second_covariant(u, m, 0)
    return np.einsum('...ab,...ab->...', m.ginv, hess, optimize=True)


def tensor_norm2(T, m, rank):
    """Pointwise squared norm of a (0, rank)-tensor: full contraction with
    the inverse metric on every slot, per al.chunks block of points."""
    sh = T.shape[T.ndim - rank:]
    Tf, gi = T.reshape((-1,) + sh), m.ginv.reshape(-1, DIM, DIM)
    out, axes = np.empty(len(Tf)), tuple(range(1, rank + 1))
    for c in al.chunks(len(Tf), 2 * DIM ** rank):
        out[c] = np.sum(Tf[c] * slot_apply(Tf[c], gi[c], rank), axis=axes)
    return out.reshape(T.shape[:T.ndim - rank])


def pair_norm2(P, m):
    """Pointwise squared norm of a packed pair-form tensor (.., 231), every
    slot raised: |P|^2 = 4 tr(P Lam P Lam), P unpacked and Lam = pair_ginv
    built per al.chunks block."""
    Pf = P.reshape(-1, al.TRI_PACK.size)
    gi, out = m.ginv.reshape(-1, DIM, DIM), np.empty(len(Pf))
    for c in al.chunks(len(Pf), 6 * al.NCOMP[2] ** 2):
        PL = al.tri_unpack(Pf[c]) @ pair_ginv(gi[c])
        out[c] = 4.0 * np.sum(PL * np.swapaxes(PL, -1, -2), axis=(-2, -1))
    return out.reshape(P.shape[:-1])


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureBundle:
    """Curvature data of a metric field.

    Rm is the raw finite-difference curvature made antisymmetric in its
    second pair and symmetric under pair exchange, in pair form
    (algebra.PAIR): an exactly symmetric 21x21 matrix per point, stored on
    its 231 entries P <= Q (algebra.TRI_PACK); the size of that projection
    (an order h^4 quantity) is kept in ``symmetry_defect`` as a
    discretization diagnostic.
    """
    Rm: np.ndarray
    Ric: np.ndarray
    R: np.ndarray
    E: np.ndarray
    symmetry_defect: float


def _curvature_project(raw):
    """Orthogonal projection of raw rows raw[.., P, k, l] = R_ijkl, P =
    (i<j), onto Sym^2(Lambda^2) in pair form: antisymmetry in (k, l), then
    pair symmetry.  The first Bianchi identity needs no projection: the
    Christoffel symbols are exactly symmetric in their lower indices, so
    the discrete cyclic sum of the raw curvature cancels term by term."""
    k, l = al.PAIR[2][0], al.PAIR[3][0]
    A = 0.5 * (raw[..., k, l] - raw[..., l, k])
    return 0.5 * (A + np.swapaxes(A, -1, -2))


# Row j: the other index i of the six pairs P that contain j, in increasing
# P, those pairs and the signs e^P_ij, so that Ric_jk = sum_P e^P_ij R_Pk^i
_RIC_I = np.array([[i for i in range(DIM) if i != j] for j in range(DIM)])
_RIC_P = np.array([[al.POS[2][tuple(sorted((i, j)))] for i in row]
                   for j, row in enumerate(_RIC_I)])
_RIC_S = np.where(_RIC_I < np.arange(DIM)[:, None], 1.0, -1.0)


def riemann(m):
    """Curvature bundle of a metric field.  Rm is, on the 21 pairs i<j, the
    curvature d_i G_j - d_j G_i + [G_i, G_j] of the connection matrices
    (G_i)^l_k = Gamma^l_ik: its transposed rows R_ijk^l come from H_i =
    G_i^T in gamma_flat and are lowered by one product with g.  All of it
    runs over al.chunks of points, the derivatives d_a H too, which each
    block takes at its own points (grid.partial_block).  Index conventions
    are pinned by the tests: the Ricci identity holds as (nabla_i nabla_j -
    nabla_j nabla_i) alpha_k = -R_{ijk}^m alpha_m, and Ric_jk = g^{il}
    R_{ijkl}, so the scalar curvature of a closed G2-structure comes out
    nonpositive."""
    i, j = al.PAIR[0][:, 0], al.PAIR[1][:, 0]
    shape, n = m.g.shape[:-2], m.g[..., 0, 0].size
    H = m.gamma_flat.reshape(shape + (DIM,) * 3)
    Hf = H.reshape(n, DIM, DIM, DIM)
    g, gi = m.g.reshape(n, DIM, DIM), m.ginv.reshape(n, DIM, DIM)
    Rm, dev = np.empty((n, al.TRI_PACK.size)), np.empty(n)
    Ric = np.empty(g.shape)
    for c in al.chunks(n, i.size * DIM * DIM):
        r = np.zeros((len(Hf[c]), i.size, DIM, DIM))    # (.., P, k, l)
        # d_a H_b enters + on the pairs (a, b) and - on the pairs (b, a)
        for a in m.spec.active_axes:
            d, fwd, back = partial_block(H, m.spec, a, c), i == a, j == a
            r[:, fwd] += d[:, j[fwd]]
            r[:, back] -= d[:, i[back]]
        Hj, Hi = Hf[c, j], Hf[c, i]
        r += Hj @ Hi
        r -= Hi @ Hj
        raw = slot_apply(r, g[c], 3, (2,))
        del r, Hj, Hi
        proj = _curvature_project(raw)
        Rm[c] = proj.reshape(-1, i.size ** 2)[:, al.TRI_PACK]
        rows = al.form_to_dense(2, proj)
        raw -= rows
        dev[c] = np.max(np.abs(raw, out=raw), axis=(-3, -2, -1))
        up = slot_apply(rows, gi[c], 3, (2,))
        del raw, rows, proj
        # (j, P, .., k) in the order of each j's pairs, summed in that order
        Ric[c] = np.moveaxis(np.sum(
            up[:, _RIC_P, :, _RIC_I] * _RIC_S[..., None, None], axis=1), 0, 1)
        del up
    Rm, Ric = Rm.reshape(shape + Rm.shape[1:]), Ric.reshape(m.g.shape)
    R = np.einsum('...jk,...jk->...', m.ginv, Ric, optimize=True)
    E = Ric - (R[..., None, None] / 7.0) * m.g
    return CurvatureBundle(Rm=Rm, Ric=Ric, R=R, E=E,
                           symmetry_defect=float(np.max(dev)))


# ---------------------------------------------------------------------------
# Hodge star and codifferential on fields
# ---------------------------------------------------------------------------

def hodge_star_field(a, m):
    """Hodge star of a FormField under a MetricField (kernels shared
    with the pointwise implementation)."""
    out = al.star_comps(a.degree, a.values, m.g, m.ginv, m.vol,
                        m.orientation)
    return FormField(DIM - a.degree, a.spec, out)


def codifferential(a, m):
    """d* = (-1)^k  star d star  on a k-form field; the sign makes the
    operator L2-adjoint to d on the periodic grid up to discretization
    error (pinned by the adjointness test)."""
    k = a.degree
    if k < 1:
        raise DegreeError("codifferential requires degree >= 1")
    sgn = -1.0 if k % 2 else 1.0
    out = hodge_star_field(exterior_derivative(hodge_star_field(a, m)), m)
    return FormField(k - 1, a.spec, sgn * out.values)


# ---------------------------------------------------------------------------
# torsion of a G2-structure field
# ---------------------------------------------------------------------------

# psi_ijab for each i<j<a<b (INC[4] order): the pair positions of (i, j)
# and (a, b), and the four indices
_SPLIT = tuple(np.array(c) for c in zip(*(
    (al.POS[2][K[:2]], al.POS[2][K[2:]]) + K for K in al.INC[4])))


def psi_from_phi(phi, m):
    """The dual 4-form psi = *phi of a positive 3-form field under its own
    metric m, by the contraction identity phi_ijk phi_ab^k = g_ia g_jb -
    g_ib g_ja + psi_ijab on each increasing (i<j),(a<b) split: the rows
    phi_Jk of the interior gather, one slot raised by g^-1, contracted
    over k, in blocks of points (al.chunks).  Quadratic in phi, so
    psi(-phi) = psi(phi) as for the star."""
    P, Q, i, j, a, b = _SPLIT
    idx, sgn = al.basis_interior_table(3)
    n = m.vol.size
    phis, gs = phi.values.reshape(n, -1), m.g.reshape(n, DIM, DIM)
    ginv = m.ginv.reshape(gs.shape)
    out = np.empty((n, al.NCOMP[4]))
    for c in al.chunks(n, 2 * DIM * al.NCOMP[4]):
        rows = phis[c][:, idx] * sgn                  # (.., k, J) phi_Jk
        up = ginv[c] @ rows                            # phi_J^k
        g = gs[c]
        out[c] = (np.einsum('...kc,...kc->...c', rows[..., P], up[..., Q])
                  - g[..., i, a] * g[..., j, b] + g[..., i, b] * g[..., j, a])
    return FormField(4, phi.spec, out.reshape(m.vol.shape + out.shape[1:]))


def raised_from_dual(dual, m):
    """Components a^I of the form a = *dual with every slot raised, read
    off its dual (** = 1 in dimension 7): a^I = sgn(I, Ic) dual_Ic / (vol
    orientation), the inverse of the star's k <= 3 route."""
    idx, sgn = al.complement_table(DIM - dual.degree)
    out = dual.values[..., idx] * sgn
    out /= (m.vol * m.orientation)[..., None]
    return out


def torsion_from_phi(phi, m):
    """Full torsion 2-tensor T_il = (1/4) (nabla_i phi)_J (e_l -| psi)^J of
    a 3-form field, summed over increasing J: the raw contraction T_i^m =
    (1/24) nabla_i phi_jkl psi^{mjkl} with its second slot lowered.  The
    raised psi is read off its dual phi, so (e_l -| psi)^J = g_lm psi^{mJ}
    is one gather and one product with g, per al.chunks block beside the
    block's nabla phi (form_covariant_block).  For a closed structure T is
    skew to discretization error; flow.FlowState.T takes its exact skew
    part for the evolution formulas."""
    n, (idx, sgn) = m.vol.size, al.basis_interior_table(4)
    psi_up = raised_from_dual(phi, m).reshape(n, -1)
    g, out = m.g.reshape(n, DIM, DIM), np.empty((n, DIM, DIM))
    for c in al.chunks(n, DIM ** 2 * al.NCOMP[2]):
        ipsi_up = g[c] @ (psi_up[c][:, idx] * sgn)   # (.., l, J)
        out[c] = 0.25 * (form_covariant_block(phi, m, c)
                         @ np.swapaxes(ipsi_up, -1, -2))
    return out.reshape(m.g.shape)


def tau2(phi, psi, m):
    """The intrinsic torsion form tau2 of a closed 3-form field, which
    carries all of its torsion (tau0 = tau1 = tau3 = 0, d psi = tau2 ^
    phi): minus the Lambda^2_14 part (2 *d psi - *(phi ^ *d psi)) / 3 of
    *d psi."""
    sdpsi = hodge_star_field(exterior_derivative(psi), m)     # 2-form
    wstar = hodge_star_field(phi.wedge(sdpsi), m)
    return FormField(2, phi.spec, -(2.0 * sdpsi.values - wstar.values) / 3.0)
