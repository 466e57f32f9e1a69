"""Pointwise exterior algebra and G2-structure algebra on a 7-dimensional
tangent space.

Forms are stored by strictly increasing multi-index in lexicographic order,
so a k-form carries binomial(7, k) components.  Every kernel in this module
accepts arrays with arbitrary leading (batch) axes and a trailing component
axis; the grid modules reuse the same kernels on whole fields.

Index conventions: tensor indices run 0..6 internally, 1..7 in
documentation.  The inner product of k-forms follows the k-tensor
convention (full contraction over all k slots, so |phi|^2 = 42 for the
standard 3-form).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import DegreeError, NotPositive

DIM = 7

# ---------------------------------------------------------------------------
# multi-index tables
# ---------------------------------------------------------------------------

INC = {k: tuple(combinations(range(DIM), k)) for k in range(DIM + 1)}
POS = {k: {idx: n for n, idx in enumerate(INC[k])} for k in range(DIM + 1)}
NCOMP = {k: len(INC[k]) for k in range(DIM + 1)}  # 1,7,21,35,35,21,7,1

# Pair form of a curvature-type 4-tensor T: the symmetric 21x21 matrix
# T[(...,) + PAIR] = T[(i<j), (k<l)], rows and columns in INC[2] order.
_I, _J = (np.array(c) for c in zip(*INC[2]))
PAIR = (_I[:, None], _J[:, None], _I[None, :], _J[None, :])
# A symmetric pair-form matrix on its 231 entries P <= Q, row by row:
# TRI_PACK picks them from the 441 flat entries, and TRI_UNPACK reads each
# flat entry (P, Q) back off the packed entry (min(P, Q), max(P, Q))
_FLAT = np.arange(NCOMP[2] ** 2).reshape(NCOMP[2], NCOMP[2])
TRI_PACK = _FLAT[np.triu_indices(NCOMP[2])]
TRI_UNPACK = np.searchsorted(TRI_PACK, np.minimum(_FLAT, _FLAT.T)).ravel()


def perm_sign(seq):
    """Sign of the permutation sorting ``seq``; 0 if any index repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def sort_with_sign(seq):
    """Return (sorted tuple, permutation sign); sign 0 on repeats."""
    s = perm_sign(seq)
    return tuple(sorted(seq)), s


@lru_cache(maxsize=None)
def complement_table(k):
    """For each I in INC[k]: (position of complement in INC[7-k], sign(I, Ic)).

    sign(I, Ic) is the sign of the permutation (I, Ic) of (0..6); it equals
    sign(Ic, I) because k(7-k) is even for every k.  These are the terms
    e^I ^ e^Ic = sign(I, Ic) e^0..6 of the wedge table, one per I in order.
    """
    _, idx, sgn, _ = wedge_table(k, DIM - k)
    return idx, sgn


@lru_cache(maxsize=None)
def wedge_table(p, q):
    """Sparse term list for the wedge of a p-form with a q-form.

    Returns integer arrays (ia, ib, iout) and float signs such that
    (a ^ b)[iout] += sign * a[ia] * b[ib], plus a scatter matrix used to
    accumulate the per-term products into output components.
    """
    k = p + q
    ia, ib, iout, sg = [], [], [], []
    for n_out, K in enumerate(INC[k]):
        for sub in combinations(range(k), p):
            I = tuple(K[m] for m in sub)
            J = tuple(K[m] for m in range(k) if m not in sub)
            s = perm_sign(I + J)
            ia.append(POS[p][I])
            ib.append(POS[q][J])
            iout.append(n_out)
            sg.append(float(s))
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    iout = np.asarray(iout, dtype=np.intp)
    sg = np.asarray(sg, dtype=np.float64)
    scatter = np.zeros((len(iout), NCOMP[k]))
    scatter[np.arange(len(iout)), iout] = 1.0
    return ia, ib, sg, scatter


@lru_cache(maxsize=None)
def dense_table(k):
    """Gather data of the dense 7^k array of a k-form: for each flat entry
    the increasing component it reads and the sign of its index order, or
    the extra component NCOMP[k] with sign +1 on a repeated index; plus the
    flat positions of the increasing entries.  Built from the k! orderings
    of all increasing indices at once, not from the 7^k entries."""
    inc = np.array(INC[k], dtype=np.intp).reshape(NCOMP[k], k)
    weights = DIM ** np.arange(k - 1, -1, -1)
    pos, sign = np.full(DIM ** k, NCOMP[k], dtype=np.intp), np.ones(DIM ** k)
    for p in permutations(range(k)):
        flat = inc[:, p] @ weights
        pos[flat], sign[flat] = np.arange(NCOMP[k]), perm_sign(p)
    return pos, sign, inc @ weights


@lru_cache(maxsize=None)
def basis_interior_table(k):
    """Gather table for e_m -| a over all m at once: (idx, sign) of shape
    (7, binomial(7, k-1)); idx points into the k-form components, entries
    with m in J are flagged by sign 0 (idx 0).  Each wedge-table term
    e^m ^ e^J = s e^I gives e_m -| e^I = s e^J."""
    m, J, s, scatter = wedge_table(1, k - 1)
    idx = np.zeros((DIM, NCOMP[k - 1]), dtype=np.intp)
    sgn = np.zeros((DIM, NCOMP[k - 1]))
    idx[m, J] = scatter.argmax(axis=1)
    sgn[m, J] = s
    return idx, sgn


@lru_cache(maxsize=None)
def volume_pairing_table():
    """Fixed (35, 441) table K: (phi @ K)[21 a + b] is the coefficient of
    dx^1...dx^7 in e^a ^ e^b ^ phi for the 2-form basis elements a, b.
    Each of the 210 disjoint (pair, pair, triple) partitions of {0..6}
    contributes the sign of its concatenated permutation: the wedge-table
    sign of e^a ^ e^b = s e^U times the complement sign of (U, T)."""
    a, b, s, scatter = wedge_table(2, 2)
    U = scatter.argmax(axis=1)
    T, sign_UT = complement_table(4)
    K = np.zeros((NCOMP[3], NCOMP[2] * NCOMP[2]))
    K[T[U], NCOMP[2] * a + b] = s * sign_UT[U]
    return K


# ---------------------------------------------------------------------------
# batched kernels (trailing component axis, arbitrary leading axes)
# ---------------------------------------------------------------------------

# bytes of the largest temporary of a wide pointwise kernel per block of
# points: it then stays within a core's 2 MiB L2 cache whatever the grid
BLOCK_BYTES = 1 << 20


def chunks(n, width):
    """Slices of max(1, BLOCK_BYTES // (8 width)) consecutive points
    covering range(n), the last one possibly short, for a kernel whose
    largest temporary holds ``width`` floats per point.  Kernels run point
    by point through the same operations in every block, so their results
    do not depend on BLOCK_BYTES."""
    size = max(1, BLOCK_BYTES // (8 * width))
    return (slice(s, s + size) for s in range(0, n, size))


def wedge_comps(p, q, a, b):
    """Wedge product on raw component arrays."""
    if p + q > DIM:
        raise DegreeError(f"wedge degree overflow: {p} + {q} > {DIM}")
    ia, ib, sg, scatter = wedge_table(p, q)
    terms = a[..., ia] * b[..., ib] * sg
    return terms @ scatter


def interior_comps(k, v, a):
    """Interior product v -| a on raw component arrays (v has 7 entries)."""
    if k < 1:
        raise DegreeError("interior product requires degree >= 1")
    idx, sgn = basis_interior_table(k)
    return (v[..., None, :] @ (a[..., idx] * sgn))[..., 0, :]


def form_to_dense(k, a):
    """Expand increasing components into the dense antisymmetric 7^k array:
    one gather by dense_table and a sign multiply, with no padded copy of
    the input.  An entry with a repeated index is +0.0 whatever a holds."""
    pos, sign, _ = dense_table(k)
    out = np.take(a, pos, axis=-1, mode='clip')
    out *= sign
    out[..., pos == NCOMP[k]] = 0.0
    return out.reshape(a.shape[:-1] + (DIM,) * k)


def pair_entries(a, packed=False):
    """The entries (a_il, a_jk, a_ik, a_jl), each (.., 21, 21), or (..,
    231) on TRI_PACK if ``packed``, of 7x7 matrices a on the pairs of PAIR:
    one np.take on the flat 49 slots, so point-major in memory."""
    i, j, k, l = PAIR
    slots = np.stack([DIM * i + l, DIM * j + k, DIM * i + k, DIM * j + l])
    if packed:
        slots = slots.reshape(4, -1)[:, TRI_PACK]
    flat = a.reshape(a.shape[:-2] + (DIM * DIM,))
    return np.moveaxis(np.take(flat, slots, axis=-1), -slots.ndim, 0)


def tri_unpack(t):
    """The pair-form matrices (.., 21, 21) of packed t (.., 231): np.take."""
    return np.take(t, TRI_UNPACK, axis=-1).reshape(t.shape[:-1] + (21, 21))


@lru_cache(maxsize=None)
def pair_operator_table(size=NCOMP[2] ** 2):
    """pair_operator's gather, read off dense_table(2): for each entry
    ((p, l), (i, j)) the flat pair entry [(p, i), (j, l)] and its sign, or
    the appended entry ``size`` with sign +1 where p = i or j = l; composed
    with TRI_UNPACK for the 231 packed entries."""
    P = NCOMP[2]
    pos, sign = (t.reshape(DIM, DIM) for t in dense_table(2)[:2])
    row, col = pos[:, None, :, None], pos.T[None, :, None, :]   # (p, l, i, j)
    rep = (row == P) | (col == P)
    sgn = np.where(rep, 1.0, sign[:, None, :, None] * sign.T[None, :, None, :])
    src = np.where(rep, P * P, P * row + col).ravel()
    if size == TRI_PACK.size:
        src = np.append(TRI_UNPACK, size)[src]
    return src, sgn.ravel()


def pair_operator(P):
    """The 49x49 operators M[(p, l), (i, j)] = P_pijl of pair-form tensors
    P, (.., 21, 21) or packed (.., 231), chosen by the trailing size: one
    gather by pair_operator_table and a sign multiply.  A repeated-index
    entry reads an appended +0.0, so it is +0.0."""
    lead = P.shape[:-1] if P.shape[-1] == TRI_PACK.size else P.shape[:-2]
    flat = P.reshape(lead + (-1,))
    src, sgn = pair_operator_table(flat.shape[-1])
    M = np.take(np.concatenate((flat, np.zeros(lead + (1,))), -1),
                src, axis=-1)
    M *= sgn
    return M.reshape(lead + (DIM * DIM,) * 2)


def pair_apply(P, X):
    """P_pijl X^pl for pair-form tensors P, dense or packed, and 2-tensors
    X at the same points: X flattened times pair_operator(P), built one
    block of points at a time, so no 7^4 array spans the grid."""
    n = X[..., 0, 0].size
    Pc, Xc = P.reshape((n,) + P.shape[X.ndim - 2:]), X.reshape(n, 1, DIM ** 2)
    out = np.empty(Xc.shape)
    for c in chunks(n, DIM ** 4):
        np.matmul(Xc[c], pair_operator(Pc[c]), out=out[c])
    return out.reshape(X.shape)


def dense_to_form(k, dense):
    """Read increasing components off a dense antisymmetric array."""
    _, _, inc_flat = dense_table(k)
    flat = dense.reshape(dense.shape[:-k] + (DIM ** k,))
    return flat[..., inc_flat].copy()


def slot_apply(T, mat, rank, slots=None):
    """out[.., i', ..] = mat[i', p] T[.., p, ..] on each listed slot of a
    rank-``rank`` tensor (every slot by default), for batched matrices mat
    of shape (.., r, 7), so the slot's size becomes r.  The last slot (rank
    >= 2) is one right product with mat^T; any other slot is moved to the
    front, a copy in runs of the trailing slots, for one left product.
    Only T refers to the previous step's array, so no stale one survives."""
    nb = T.ndim - rank
    for s in range(rank) if slots is None else slots:
        if s == rank - 1 and s > 0:
            sh = T.shape
            T = np.matmul(T.reshape(sh[:nb] + (-1, DIM)),
                          np.swapaxes(mat, -1, -2)).reshape(sh[:-1] + (-1,))
        else:
            T = np.moveaxis(T, nb + s, nb)
            sh = T.shape
            T = np.matmul(mat, T.reshape(sh[:nb] + (DIM, -1)))
            T = np.moveaxis(T.reshape(sh[:nb] + (-1,) + sh[nb + 1:]),
                            nb, nb + s)
    return T


def move_indices_dense(k, comps, mat):
    """Act with ``mat`` on every slot of a k-form: raise all indices when
    mat is the inverse metric, lower when it is the metric.  Runs through
    the dense representation, which beats materializing the order-k
    compound matrix."""
    if k == 0:
        return comps.copy()
    return dense_to_form(k, slot_apply(form_to_dense(k, comps), mat, k))


def form_inner_comps(k, a, b, ginv):
    """Tensor inner product of two k-forms (includes the k! multiplicity)."""
    br = move_indices_dense(k, b, ginv)
    return math.factorial(k) * np.sum(a * br, axis=-1)


def star_comps(k, a, g, ginv, vol, orientation):
    """Hodge star on raw components.

    For k <= 3 every input index is raised with g^{-1}; for k >= 4 the
    dual route is used (permute first, lower the (7-k)-form indices with
    g) so only forms of degree <= 3 are ever moved.
    """
    signed_vol = vol * orientation
    # output component J reads input component Jc
    idx, sg = complement_table(DIM - k)
    if k <= 3:
        raised = move_indices_dense(k, a, ginv)
        return raised[..., idx] * sg * signed_vol[..., None]
    dual = a[..., idx] * sg / signed_vol[..., None]
    return move_indices_dense(DIM - k, dual, g)


def bilinear_form_comps(phi3):
    """Volume-form coefficient of (1/6)(e_i -| phi)^(e_j -| phi)^phi.

    Returns a batched symmetric 7x7 array measured against dx^1...dx^7.
    Bryant's formula as matrix products: Q(phi) = phi @ K is the 21x21
    volume pairing of 2-forms wedged with phi, and B = iphi Q iphi^T / 6
    with iphi the rows e_i -| phi.
    """
    idx, sgn = basis_interior_table(3)
    flat = phi3.reshape(-1, NCOMP[3])   # one batch axis halves matmul time
    iphi = flat[:, idx] * sgn                        # (n, 7, 21)
    Q = (flat @ volume_pairing_table()).reshape(-1, NCOMP[2], NCOMP[2])
    B = iphi @ Q @ np.swapaxes(iphi, -1, -2) / 6.0
    return B.reshape(phi3.shape[:-1] + (DIM, DIM))


def _lower_inverse(L):
    """X = L^-1 of batched lower-triangular 7x7 matrices: seven rows of
    forward substitution, X_i = (e_i - L_i,<i X_<i) / L_ii."""
    X = np.zeros_like(L)
    for i in range(DIM):
        row = -np.einsum('...k,...kj->...j', L[..., i, :i], X[..., :i, :])
        row[..., i] += 1.0
        X[..., i, :] = row / L[..., i, i, None]
    return X


def metric_data_from_phi(phi3):
    """Batched metric data (g, g_inv, det_g, vol, orientation) from a
    positive 3-form.  Raises NotPositive with the first offending flat
    index when a component is not finite or the bilinear form is not
    definite.

    One Cholesky factor L of Bt = s0 B serves every output: the
    factorization is the definiteness check, det Bt = prod diag(L)^2 and
    Bt^-1 = X^T X with X = L^-1.  s0 = sign(B[0, 0]) is the sign of det B
    on every definite B (an odd dimension), and a zero B[0, 0] fails the
    factorization.  It runs over blocks of points (chunks); one that fails
    is diagnosed again on the whole grid, so the index is the global one."""
    finite = np.all(np.isfinite(phi3), axis=-1)
    if not np.all(finite):
        bad = int(np.argmin(np.reshape(finite, -1)))
        raise NotPositive("3-form has non-finite components", point=bad)
    flat = phi3.reshape(-1, NCOMP[3])
    n = flat.shape[0]
    g, ginv = np.empty((n, DIM, DIM)), np.empty((n, DIM, DIM))
    detg, vol, s0 = np.empty(n), np.empty(n), np.empty(n)
    try:
        for c in chunks(n, NCOMP[2] ** 2):
            B = bilinear_form_comps(flat[c])
            s0[c] = np.sign(B[:, 0, 0])
            Bt = s0[c, None, None] * B
            L = np.linalg.cholesky(Bt)
            detBt = np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1) ** 2
            X = _lower_inverse(L)
            scale = detBt ** (-1.0 / 9.0)
            g[c] = scale[:, None, None] * Bt
            ginv[c] = (np.swapaxes(X, -1, -2) @ X) / scale[:, None, None]
            detg[c] = detBt ** (2.0 / 9.0)
            vol[c] = detBt ** (1.0 / 9.0)
    except np.linalg.LinAlgError:
        # the first point of least |det B| when one is singular, else the
        # point of least eigenvalue of sign(det B) B
        B = bilinear_form_comps(phi3)
        detB = np.linalg.det(B)
        s = np.sign(detB)
        if np.any(s == 0.0):
            bad = int(np.argmin(np.abs(detB).reshape(-1)))
            raise NotPositive("bilinear form is singular", point=bad)
        ev = np.linalg.eigvalsh(s[..., None, None] * B)[..., 0]
        bad = int(np.argmin(ev.reshape(-1)))
        raise NotPositive("3-form is not positive (bilinear form indefinite)",
                          point=bad)
    return tuple(a.reshape(phi3.shape[:-1] + a.shape[1:])
                 for a in (g, ginv, detg, vol, s0))


# ---------------------------------------------------------------------------
# pointwise public types and operations
# ---------------------------------------------------------------------------

class FormK:
    """Antisymmetric k-tensor at a point, stored by increasing multi-index.

    Component access accepts any index tuple and returns the signed value,
    e.g. f[(1, 0, 2)] == -f[(0, 1, 2)].
    """

    __slots__ = ("degree", "comps")

    def __init__(self, degree, comps=None):
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree must be in 0..{DIM}, got {degree}")
        if comps is None:
            comps = np.zeros(NCOMP[degree])
        comps = np.asarray(comps, dtype=np.float64)
        if comps.shape != (NCOMP[degree],):
            raise ValueError(f"expected {NCOMP[degree]} components for "
                             f"degree {degree}, got shape {comps.shape}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", comps)
        self.comps.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("FormK is immutable")

    def __getitem__(self, idx):
        if self.degree == 0:
            return float(self.comps[0])
        if isinstance(idx, int):
            idx = (idx,)
        key, s = sort_with_sign(tuple(idx))
        if s == 0:
            return 0.0
        return s * float(self.comps[POS[self.degree][key]])

    def to_dense(self):
        return form_to_dense(self.degree, self.comps)

    @classmethod
    def from_dense(cls, degree, dense):
        return cls(degree, dense_to_form(degree, np.asarray(dense, dtype=np.float64)))

    def __repr__(self):
        return f"FormK(degree={self.degree})"


@dataclass(frozen=True)
class MetricPoint:
    """Metric data induced by a positive 3-form at a point.

    ``orientation`` is +1 when the induced volume form is positively
    oriented against dx^1...dx^7 and -1 otherwise; vol_coeff stays
    positive either way.
    """
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    vol_coeff: float
    orientation: float = 1.0


@dataclass(frozen=True)
class Decomposition2:
    """Splitting of a 2-form into the 7- and 14-dimensional types."""
    pi7: FormK
    pi14: FormK


@dataclass(frozen=True)
class Decomposition3:
    """Splitting of a 3-form into the 1-, 7- and 27-dimensional types."""
    pi1: FormK
    pi7: FormK
    pi27: FormK


def standard_phi():
    """The flat-model positive 3-form: e123 + e145 + e167 + e246 - e257
    - e347 - e356."""
    comps = np.zeros(NCOMP[3])
    for I, s in (((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1),
                 ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1),
                 ((2, 4, 5), -1)):
        comps[POS[3][I]] = s
    return FormK(3, comps)


def standard_psi():
    """Hodge dual of the standard 3-form in the flat metric."""
    phi = standard_phi()
    m = metric_from_phi(phi)
    return hodge_star(phi, m)


def wedge(a, b):
    """Exterior product of two forms at a point."""
    return FormK(a.degree + b.degree,
                 wedge_comps(a.degree, b.degree, a.comps, b.comps))


def interior(v, a):
    """Interior product v -| a; contracts v into the first slot of a."""
    v = np.asarray(v, dtype=np.float64)
    return FormK(a.degree - 1, interior_comps(a.degree, v, a.comps))


def bilinear_form_B(phi):
    """Symmetric 7x7 coefficient array of the volume-valued bilinear form
    of a 3-form.  For the standard 3-form this is the identity matrix."""
    return bilinear_form_comps(phi.comps)


def metric_from_phi(phi):
    """Metric, inverse, determinant, volume coefficient and orientation
    induced by a positive 3-form.  Raises NotPositive otherwise."""
    g, ginv, detg, vol, orient = metric_data_from_phi(phi.comps[None, :])
    return MetricPoint(g=g[0], g_inv=ginv[0], det_g=float(detg[0]),
                       vol_coeff=float(vol[0]), orientation=float(orient[0]))


def hodge_star(a, m):
    """Hodge star of a form with respect to a MetricPoint."""
    out = star_comps(a.degree, a.comps[None, :], m.g[None, ...],
                     m.g_inv[None, ...], np.asarray([m.vol_coeff]),
                     np.asarray([m.orientation]))
    return FormK(DIM - a.degree, out[0])


def form_inner(a, b, m):
    """Tensor inner product of two k-forms (full index contraction)."""
    if a.degree != b.degree:
        raise DegreeError("degree mismatch in inner product")
    return float(form_inner_comps(a.degree, a.comps[None, :],
                                  b.comps[None, :], m.g_inv[None, ...])[0])


def decompose_2form(beta, phi, psi, m):
    """Type components of a 2-form: pi7 = (beta + *(phi^beta))/3 and
    pi14 = (2 beta - *(phi^beta))/3."""
    w = hodge_star(wedge(phi, beta), m)
    pi7 = FormK(2, (beta.comps + w.comps) / 3.0)
    pi14 = FormK(2, (2.0 * beta.comps - w.comps) / 3.0)
    return Decomposition2(pi7=pi7, pi14=pi14)


def decompose_3form(eta, phi, psi, m):
    """Type components of a 3-form via orthogonal projection.

    The 1-part is the projection onto the span of phi; the 7-part is
    X -| psi with X recovered through the 24 g(X, Y) contraction identity;
    the 27-part is the remainder.
    """
    n_phi = form_inner(phi, phi, m)
    pi1 = FormK(3, (form_inner(eta, phi, m) / n_phi) * phi.comps)
    idx, sgn = basis_interior_table(4)
    ipsi = psi.comps[idx] * sgn                       # (7, 35) rows e_a -| psi
    M = np.array([form_inner_comps(3, eta.comps[None, :], ipsi[a][None, :],
                                   m.g_inv[None, ...])[0] for a in range(DIM)])
    X = m.g_inv @ M / 24.0
    pi7 = interior(X, psi)
    pi27 = FormK(3, eta.comps - pi1.comps - pi7.comps)
    return Decomposition3(pi1=pi1, pi7=pi7, pi27=pi27)


def contraction_residuals(phi):
    """Max-norm residuals of the four contraction identities tying a
    positive 3-form, its dual 4-form and the induced metric:

      phi_ijk phi_abc g^kc           = g_ia g_jb - g_ib g_ja + psi_ijab
      phi_ijk phi_abc g^jb g^kc      = 6 g_ia
      psi_ijkl psi_abcd g^jb g^kc g^ld = 24 g_ia
      phi_ijq psi_abkl g^ia g^jb     = 4 phi_qkl

    Returns a dict with keys 'phiphi_psi', 'phiphi_6g', 'psipsi_24g',
    'phipsi_4phi'.
    """
    m = metric_from_phi(phi)
    psi = hodge_star(phi, m)
    P = phi.to_dense()
    Q = psi.to_dense()
    gi = m.g_inv
    g = m.g
    lhs1 = np.einsum('ijk,abc,kc->ijab', P, P, gi, optimize=True)
    rhs1 = (np.einsum('ia,jb->ijab', g, g)
            - np.einsum('ib,ja->ijab', g, g) + Q)
    lhs2 = np.einsum('ijk,abc,jb,kc->ia', P, P, gi, gi, optimize=True)
    lhs3 = np.einsum('ijkl,abcd,jb,kc,ld->ia', Q, Q, gi, gi, gi,
                     optimize=True)
    lhs4 = np.einsum('ijq,abkl,ia,jb->qkl', P, Q, gi, gi, optimize=True)
    return {
        'phiphi_psi': float(np.max(np.abs(lhs1 - rhs1))),
        'phiphi_6g': float(np.max(np.abs(lhs2 - 6.0 * g))),
        'psipsi_24g': float(np.max(np.abs(lhs3 - 24.0 * g))),
        'phipsi_4phi': float(np.max(np.abs(lhs4 - 4.0 * P))),
    }


def pullback_3form(u, phi):
    """Pullback of a 3-form by the linear map u: (u* phi)_abc =
    u^i_a u^j_b u^k_c phi_ijk."""
    P = phi.to_dense()
    out = np.einsum('ia,jb,kc,ijk->abc', u, u, u, P, optimize=True)
    return FormK.from_dense(3, out)
