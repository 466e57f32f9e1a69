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
from .grid import FormField, exterior_derivative, partial_derivative


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
        """Gamma^k_ij with index order [k, i, j], from central differences
        of the metric, built on each read; gamma_flat keeps the cached copy."""
        dg = partial_stack(self.g, self.spec)               # (.., a, i, j)
        A = (np.einsum('...ijl->...lij', dg)
             + np.einsum('...jil->...lij', dg)
             - dg)
        return 0.5 * slot_apply(A, self.ginv, 3, (0,))

    @cached_property
    def gamma_flat(self):
        """Christoffel symbols Gamma^p_ai as rows (a, i) and columns p for
        the batched matrix products in covariant derivatives and curvature:
        a strided view of one christoffel array, cached."""
        flat = np.moveaxis(self.christoffel, -3, -1)     # (.., a, i, p)
        return flat.reshape(self.g.shape[:-2] + (DIM * DIM, DIM))

    @cached_property
    def pair_ginv(self):
        """Lambda^2(g^-1) = g^ik g^jl - g^il g^jk in pair form: it raises one
        pair of a pair-form tensor; each point's matrix is contiguous."""
        il, jk, ik, jl = al.pair_entries(self.ginv)
        return ik * jl - il * jk


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
    out[a, i1..ik] = d_a T - sum_m Gamma^p_{a i_m} T[.. p ..].
    """
    out = partial_stack(T, m.spec)
    sh = T.shape
    nb = T.ndim - rank
    for s in range(rank):
        # Gamma^p_{a i} T[.. p ..]: slot s becomes the pair (a, i), a to front
        corr = slot_apply(T, m.gamma_flat, rank, (s,))
        corr = corr.reshape(sh[:nb + s] + (DIM, DIM) + sh[nb + s + 1:])
        out -= np.moveaxis(corr, nb + s, nb)
    return out


def form_covariant_derivative(a, m):
    """Levi-Civita covariant derivative of a k-form field (k >= 1) on its
    increasing components, shape (.., 7, binomial(7, k)) with the
    derivative slot first: nabla_a w = d_a w - Gamma^p_ai e^i ^ (e_p -| w),
    the derivation Gamma_a induces on k-forms.  The interior gather, one
    product with gamma_flat and the e^i ^ scatter share one table."""
    idx, sgn = al.basis_interior_table(a.degree)
    scatter = np.zeros((idx.size, al.NCOMP[a.degree]))
    scatter[np.arange(idx.size), idx.ravel()] = sgn.ravel()
    gam_iw = m.gamma_flat @ (a.values[..., idx] * sgn)      # (.., (a, i), J)
    corr = gam_iw.reshape(a.values.shape[:-1] + (DIM, idx.size)) @ scatter
    return partial_stack(a.values, m.spec) - corr


def second_covariant(T, m, rank):
    """Two nested covariant derivatives; slots (a, b, i1..ik)."""
    return covariant_derivative(covariant_derivative(T, m, rank), m, rank + 1)


def hessian_traces(Y, m, inner=False):
    """Traces of (nabla nabla X)_abij = d_a Y_bij - Gamma^p_ab Y_pij -
    Gamma^p_ai Y_bpj - Gamma^p_aj Y_bip for a 2-tensor X, from Y = nabla X
    (slots b, i, j): the rough Laplacian g^ab (nabla nabla X)_abij, and with
    ``inner`` also A_aj = g^bi (nabla nabla X)_abij.  Each d_a Y is
    contracted as it is built; the Christoffel terms run through the (7, 49)
    matrix K_bip = g^ab Gamma^p_ai per point and its trace over b = i."""
    sh = Y.shape[:-3]
    Yf = Y.reshape(sh + (-1, DIM))                           # ((b, i), j)
    Ys = np.swapaxes(Y, -3, -2).reshape(sh + (DIM, -1))      # (i, (b, p))
    K = (m.ginv @ m.gamma_flat.reshape(sh + (DIM, -1))).reshape(Y.shape)
    K = np.swapaxes(K, -3, -2).reshape(sh + (DIM, -1))       # (i, (b, p))
    tr = np.trace(K.reshape(Y.shape), axis1=-3, axis2=-2)[..., None, :]
    KY = K @ Yf
    lap = -((tr @ Yf.reshape(sh + (DIM, -1))).reshape(KY.shape) + KY
            + Ys @ np.swapaxes(K, -1, -2))
    gi = m.ginv.reshape(sh + (1, -1))                        # g^bi, flat
    if inner:
        trY = np.swapaxes(gi @ Yf, -1, -2)                   # g^bi Y_bip
        A = -(K @ Ys.reshape(Yf.shape) + KY
              + (m.gamma_flat @ trY).reshape(KY.shape))
    for a in m.spec.active_axes:
        dY = partial_derivative(Y, m.spec, a).reshape(sh + (DIM, -1))
        lap += (m.ginv[..., a:a + 1, :] @ dY).reshape(KY.shape)
        if inner:
            A[..., a:a + 1, :] += gi @ dY.reshape(Yf.shape)
    return (lap, A) if inner else lap


def scalar_laplacian(u, m):
    """g^{ab} (d_a d_b u - Gamma^p_ab d_p u) for a scalar field."""
    hess = second_covariant(u, m, 0)
    return np.einsum('...ab,...ab->...', m.ginv, hess, optimize=True)


def tensor_norm2(T, m, rank):
    """Pointwise squared norm of a (0, rank)-tensor: full contraction with
    the inverse metric on every slot."""
    axes = tuple(range(-rank, 0))
    return np.sum(T * slot_apply(T, m.ginv, rank), axis=axes)


def pair_norm2(P, m):
    """Pointwise squared norm of a pair-form tensor, every slot raised:
    |P|^2 = 4 tr(P Lam P Lam), Lam = m.pair_ginv."""
    PL = P @ m.pair_ginv
    return 4.0 * np.sum(PL * np.swapaxes(PL, -1, -2), axis=(-2, -1))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureBundle:
    """Curvature data of a metric field.

    Rm is the raw finite-difference curvature made antisymmetric in its
    second pair and symmetric under pair exchange, stored in pair form
    (algebra.PAIR), a symmetric 21x21 matrix per point; the size of that
    projection (an order h^4 quantity) is kept in ``symmetry_defect`` as a
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


def riemann(m):
    """Curvature bundle of a metric field.  Rm is, on the 21 pairs i<j, the
    curvature d_i G_j - d_j G_i + [G_i, G_j] of the connection matrices
    (G_i)^l_k = Gamma^l_ik: its transposed rows R_ijk^l come from H_i =
    G_i^T in gamma_flat and are lowered by one product with g.  Only the
    derivative rows, which need neighbours, are built on the whole grid;
    the rest runs over al.chunks of points.  Index conventions are pinned
    by the tests: the Ricci identity holds as (nabla_i nabla_j - nabla_j
    nabla_i) alpha_k = -R_{ijk}^m alpha_m, and Ric_jk = g^{il} R_{ijkl}, so
    the scalar curvature of a closed G2-structure comes out nonpositive."""
    i, j = al.PAIR[0][:, 0], al.PAIR[1][:, 0]
    shape, n = m.g.shape[:-2], m.g[..., 0, 0].size
    H = m.gamma_flat.reshape(shape + (DIM,) * 3)
    rup = np.zeros(shape + (i.size, DIM, DIM))          # (.., P, k, l)
    for a in m.spec.active_axes:
        dH = partial_derivative(H, m.spec, a)           # d_a H_b
        rup[..., i == a, :, :] += dH[..., j[i == a], :, :]
        rup[..., j == a, :, :] -= dH[..., i[j == a], :, :]
    H, rup = H.reshape(n, DIM, DIM, DIM), rup.reshape(n, i.size, DIM, DIM)
    g, gi = m.g.reshape(n, DIM, DIM), m.ginv.reshape(n, DIM, DIM)
    # the defect and the trace read the rows R_(i<j)kl: Ric_jk = e^P_ij
    # R_Pk^i, with e^P_ij = +-1 on the two orders of pair P
    eP = al.form_to_dense(2, np.eye(i.size))
    Rm, dev = np.empty((n, i.size, i.size)), np.empty(n)
    Ric = np.empty(g.shape)
    for c in al.chunks(n, i.size * DIM * DIM):
        r = rup[c]
        r += H[c, j] @ H[c, i]
        r -= H[c, i] @ H[c, j]
        raw = slot_apply(r, g[c], 3, (2,))
        Rm[c] = _curvature_project(raw)
        rows = al.form_to_dense(2, Rm[c])
        dev[c] = np.max(np.abs(rows - raw), axis=(-3, -2, -1))
        up = slot_apply(rows, gi[c], 3, (2,))
        Ric[c] = np.einsum('Pij,...Pki->...jk', eP, up, optimize=True)
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
    is one gather and one product with g.  For a closed structure T is
    skew to discretization error; flow.FlowState.T takes its exact skew
    part for the evolution formulas."""
    psi_up = raised_from_dual(phi, m)
    idx, sgn = al.basis_interior_table(4)
    ipsi_up = m.g @ (psi_up[..., idx] * sgn)        # (.., l, J)
    nphi = form_covariant_derivative(phi, m)
    return 0.25 * (nphi @ np.swapaxes(ipsi_up, -1, -2))


def tau2(phi, psi, m):
    """The intrinsic torsion form tau2 of a closed 3-form field, which
    carries all of its torsion (tau0 = tau1 = tau3 = 0, d psi = tau2 ^
    phi): minus the Lambda^2_14 part (2 *d psi - *(phi ^ *d psi)) / 3 of
    *d psi."""
    sdpsi = hodge_star_field(exterior_derivative(psi), m)     # 2-form
    wstar = hodge_star_field(phi.wedge(sdpsi), m)
    return FormField(2, phi.spec, -(2.0 * sdpsi.values - wstar.values) / 3.0)
