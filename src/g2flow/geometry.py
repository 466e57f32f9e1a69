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
    orientation, plus a lazily built Christoffel cache."""

    def __init__(self, spec, g, ginv, det_g, vol, orientation):
        self.spec = spec
        self.g = g
        self.ginv = ginv
        self.det_g = det_g
        self.vol = vol
        self.orientation = orientation
        self._christoffel = None

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
        of the metric; built on first use and cached."""
        if self._christoffel is None:
            dg = partial_stack(self.g, self.spec)           # (.., a, i, j)
            A = (np.einsum('...ijl->...lij', dg)
                 + np.einsum('...jil->...lij', dg)
                 - dg)
            self._christoffel = 0.5 * slot_apply(A, self.ginv, 3, (0,))
        return self._christoffel

    @cached_property
    def gamma_flat(self):
        """Christoffel symbols Gamma^p_ai as rows (a, i) and columns p, a
        contiguous copy for the batched matrix products in covariant
        derivatives and curvature."""
        flat = np.moveaxis(self.christoffel, -3, -1)     # (.., a, i, p)
        return flat.reshape(self.g.shape[:-2] + (DIM * DIM, DIM))

    @cached_property
    def pair_ginv(self):
        """Lambda^2(g^-1) = g^ik g^jl - g^il g^jk in pair form: it raises one
        pair of a pair-form tensor."""
        i, j, k, l = al.PAIR
        gi = self.ginv
        return gi[..., i, k] * gi[..., j, l] - gi[..., i, l] * gi[..., j, k]


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

    Rm is the raw finite-difference curvature projected onto algebraic
    curvature tensors, stored in pair form (algebra.PAIR), a symmetric
    21x21 matrix per point; the size of the projection (an order h^4
    quantity) is kept in ``symmetry_defect`` as a discretization
    diagnostic.  Torsion-dependent members (That, S, T_norm2) are attached
    by ``attach_torsion``.
    """
    m: MetricField
    Rm: np.ndarray
    Ric: np.ndarray
    R: np.ndarray
    E: np.ndarray
    symmetry_defect: float
    That: np.ndarray = None
    S: np.ndarray = None
    T_norm2: np.ndarray = None
    T: np.ndarray = None


def _curvature_project(raw):
    """Orthogonal projection of raw rows raw[.., P, k, l] = R_ijkl, P =
    (i<j), onto algebraic curvature tensors in pair form: antisymmetry in
    (k, l), pair symmetry, then the first Bianchi identity, which removes
    the Lambda^4 part (R_ijkl + R_jkil + R_kijl) / 3 by the wedge table."""
    k, l = al.PAIR[2][0], al.PAIR[3][0]
    A = 0.5 * (raw[..., k, l] - raw[..., l, k])
    Rm = 0.5 * (A + np.swapaxes(A, -1, -2))
    ia, ib, sg, scatter = al.wedge_table(2, 2)
    w = (Rm[..., ia, ib] * sg) @ scatter / 6.0
    Rm[..., ia, ib] -= (w @ scatter.T) * sg
    return Rm


def riemann(m):
    """Curvature bundle of a metric field.  Rm is, on the 21 pairs i<j, the
    curvature d_i G_j - d_j G_i + [G_i, G_j] of the connection matrices
    (G_i)^l_k = Gamma^l_ik: its transposed rows R_ijk^l come from H_i =
    G_i^T in gamma_flat and are lowered by one product with g.  Index
    conventions are pinned by the tests: the Ricci identity holds as
    (nabla_i nabla_j - nabla_j nabla_i) alpha_k = -R_{ijk}^m alpha_m, and
    Ric_jk = g^{il} R_{ijkl}, so the scalar curvature of a closed
    G2-structure comes out nonpositive."""
    i, j = al.PAIR[0][:, 0], al.PAIR[1][:, 0]
    H = m.gamma_flat.reshape(m.g.shape[:-2] + (DIM,) * 3)
    rup = np.zeros(H.shape[:-3] + (i.size, DIM, DIM))    # (.., P, k, l)
    for a in m.spec.active_axes:
        dH = partial_derivative(H, m.spec, a)           # d_a H_b
        rup[..., i == a, :, :] += dH[..., j[i == a], :, :]
        rup[..., j == a, :, :] -= dH[..., i[j == a], :, :]
    rup += H[..., j, :, :] @ H[..., i, :, :]
    rup -= H[..., i, :, :] @ H[..., j, :, :]
    raw = slot_apply(rup, m.g, 3, (2,))
    Rm = _curvature_project(raw)
    # the traces read one transient expansion; rows j<i mirror rows i<j
    dense = al.pair_to_dense(Rm)
    defect = float(np.max(np.abs(dense[..., i, j, :, :] - raw)))
    Ric = np.einsum('...il,...ijkl->...jk', m.ginv, dense, optimize=True)
    R = np.einsum('...jk,...jk->...', m.ginv, Ric, optimize=True)
    E = Ric - (R[..., None, None] / 7.0) * m.g
    return CurvatureBundle(m=m, Rm=Rm, Ric=Ric, R=R, E=E,
                           symmetry_defect=defect)


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

def torsion_from_phi(phi, m, psi):
    """Full torsion 2-tensor T_il = (1/4) (nabla_i phi)_J (e_l -| psi)^J of
    a 3-form field, summed over increasing J: the raw contraction T_i^m =
    (1/24) nabla_i phi_jkl psi^{mjkl} with its second slot lowered.  For a
    closed structure it is skew to discretization error; ``attach_torsion``
    takes its exact skew part for the evolution formulas."""
    idx, sgn = al.basis_interior_table(4)
    ipsi_up = al.move_indices_dense(3, psi.values[..., idx] * sgn,
                                    m.ginv[..., None, :, :])
    nphi = form_covariant_derivative(phi, m)
    return 0.25 * (nphi @ np.swapaxes(ipsi_up, -1, -2))


def intrinsic_torsion(phi, psi, m):
    """Intrinsic torsion forms (tau0, tau1, tau2, tau3) of a 3-form field,
    from the type decomposition of d phi and d psi.  For a closed field
    only tau2 is populated beyond discretization error."""
    spec = phi.spec
    dphi = exterior_derivative(phi)
    dpsi = exterior_derivative(psi)
    # scalar torsion: coefficient of psi in d phi.  <d phi, psi> = 4 <*d
    # phi, phi> and |psi|^2 = 168 exactly for a compatible pair, so the
    # pairing runs through the cheap degree-3 inner product.
    sdphi = hodge_star_field(dphi, m)
    tau0 = al.form_inner_comps(3, sdphi.values, phi.values, m.ginv) / 42.0

    # vector torsion: <d phi, dx^a ^ phi> = 3 c tau1^a with the universal
    # c = |alpha ^ phi|^2 / |alpha|^2 = 96 (4! times the four unit
    # components of e^1 ^ phi); the pairing is evaluated through the
    # wedge/interior adjointness to stay on cheap degree-3 inner products
    idx, sgn = al.basis_interior_table(4)
    w = dphi.values[..., idx] * sgn                      # (.., 7, 35) e_m -| dphi
    phir = al.move_indices_dense(3, phi.values, m.ginv)
    inner_m = 24.0 * np.matmul(w, phir[..., None])[..., 0]
    M = np.einsum('...am,...m->...a', m.ginv, inner_m)   # <dphi, dx^a ^ phi>
    tau1_up = M / (3.0 * 96.0)
    tau1 = FormField(1, spec, np.einsum('...ab,...b->...a', m.g, tau1_up))

    rem = FormField(4, spec,
                    dphi.values - tau0[..., None] * psi.values
                    - 3.0 * tau1.wedge(phi).values)
    tau3 = hodge_star_field(rem, m)

    sdpsi = hodge_star_field(dpsi, m)                    # 2-form
    wstar = hodge_star_field(FormField(5, spec,
                                       al.wedge_comps(3, 2, phi.values,
                                                      sdpsi.values)), m)
    pi14 = (2.0 * sdpsi.values - wstar.values) / 3.0
    tau2 = FormField(2, spec, -pi14)
    return tau0, tau1, tau2, tau3


def attach_torsion(bundle, T):
    """Fill the torsion-dependent members of a curvature bundle: the exact
    skew part T of the torsion, the squared torsion T_hat, |T|^2 and the
    flow tensor S = Ric + |T|^2 g / 3 + 2 T_hat, all built from the skew
    part so S is symmetric to rounding."""
    m = bundle.m
    Ts = 0.5 * (T - np.einsum('...ij->...ji', T))
    T_up = slot_apply(Ts, m.ginv, 2, (1,))                # T_i^k
    That = np.einsum('...ik,...kj->...ij', T_up, Ts, optimize=True)
    Tn2 = tensor_norm2(Ts, m, 2)
    bundle.That = That
    bundle.T_norm2 = Tn2
    bundle.T = Ts
    bundle.S = bundle.Ric + (Tn2[..., None, None] / 3.0) * m.g + 2.0 * That
    return bundle
