"""Curvature decomposition and pinching monitors.

Every norm and monitor uses the exactly trace-free Weyl tensor W' of the
decomposition Rm = (R/84) g o g + (1/5) E o g + W'.  The literal
printed-coefficient variant, whose final term carries 1/30 without a scalar
curvature factor, is built only by ``weyl_variant_residual``, which reports
its gap to W'.
"""

from functools import lru_cache

import numpy as np

from .algebra import (DIM, NCOMP, TRI_PACK, TRI_UNPACK, basis_interior_table,
                      chunks, pair_entries)
from .errors import NonPositiveShiftedScalar
# perfbench/selftest.py checks that its tracer wraps this tensor_norm2 binding
from .geometry import pair_ginv, tensor_norm2  # noqa: F401
from .grid import partial_block


def kulkarni_nomizu(alpha, beta):
    """(a o b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik for
    symmetric 2-tensors (batched over leading axes), in pair form."""
    ail, ajk, aik, ajl = pair_entries(alpha)
    bil, bjk, bik, bjl = pair_entries(beta)
    return ail * bjk + ajk * bil - aik * bjl - ajl * bik


def weyl_block(Rm, R, E, g):
    """weyl at a block of points, from its rows Rm (.., 21, 21), R (.., 1,
    1), E and g (.., 7, 7): g's pair entries serve both products, and g o g
    = x + x - y - y (x = g_il g_jk, y = g_ik g_jl)."""
    gil, gjk, gik, gjl = pair_entries(g)
    Eil, Ejk, Eik, Ejl = pair_entries(E)
    x, y = gil * gjk, gik * gjl
    return (Rm - (R / 84.0) * (x + x - y - y)
            - 0.2 * (Eil * gjk + Ejk * gil - Eik * gjl - Ejl * gik))


def weyl(bundle, m):
    """Trace-free Weyl tensor Rm - (R/84) g o g - (1/5) E o g in pair form,
    stored on its 231 entries P <= Q (algebra.TRI_PACK), over blocks of
    points (algebra.chunks), each by weyl_block."""
    n = bundle.R.size
    Rm, R = bundle.Rm.reshape(n, NCOMP[2], NCOMP[2]), bundle.R.reshape(n, 1, 1)
    E, g = bundle.E.reshape(n, DIM, DIM), m.g.reshape(n, DIM, DIM)
    W = np.empty((n, TRI_PACK.size))
    for c in chunks(n, 4 * NCOMP[2] ** 2):
        W[c] = weyl_block(Rm[c], R[c], E[c], g[c]).reshape(
            -1, NCOMP[2] ** 2)[:, TRI_PACK]
    return W.reshape(bundle.R.shape + W.shape[1:])


def weyl_variant_residual(bundle, m):
    """Max-norm gap between the trace-free Weyl and the printed-coefficient
    variant Rm - (1/5)(g_il R_jk + g_jk R_il - g_ik R_jl - g_jl R_ik)
    + (1/30)(g_il g_jk - g_ik g_jl) on the packed entries; nonzero whenever
    the scalar curvature differs from 1."""
    pair = kulkarni_nomizu(m.g, m.g) / 2.0
    printed = bundle.Rm - 0.2 * kulkarni_nomizu(bundle.Ric, m.g) + pair / 30.0
    printed = printed.reshape(printed.shape[:-2] + (-1,))[..., TRI_PACK]
    return float(np.max(np.abs(weyl(bundle, m) - printed)))


@lru_cache(maxsize=None)
def pair_derivation_table():
    """Fixed (49, 441) +-1 table: Gamma_a flattened over (i, p), times the
    table, is the 21x21 matrix of w -> Gamma^p_ai e^i ^ (e_p -| w), the
    derivation form_covariant_derivative applies, from the same table."""
    idx, sgn = basis_interior_table(2)         # e^i ^ e^j = sgn e^idx
    i, p, j = np.meshgrid(*(np.arange(DIM),) * 3, indexing='ij')
    tab = np.zeros((DIM, DIM, NCOMP[2], NCOMP[2]))
    np.add.at(tab, (i, p, idx[i, j], idx[p, j]), sgn[i, j] * sgn[p, j])
    return tab.reshape(DIM * DIM, NCOMP[2] ** 2)


def c1_norm(W, m):
    """Pointwise |W|_{C1} = sqrt(|W|^2 + |nabla W|^2) of a packed Weyl field
    (weyl), unpacked per block of points (algebra.chunks), each block taking
    its own d_a W (grid.partial_block) and freeing its temporaries.  Gamma_a
    acts on each pair as the 2-form derivation D_a, so nabla_a W = d_a W -
    D_a W - (D_a W)^T; with the block's Lam = pair_ginv, |W|^2 = 4 tr(W Lam
    W Lam) and |nabla W|^2 = 4 g^ab tr(nabla_a W Lam nabla_b W Lam)."""
    P, Wf = NCOMP[2], W.reshape(-1, TRI_PACK.size)
    gam = m.gamma_flat.reshape(-1, DIM, DIM * DIM)
    gi, out = m.ginv.reshape(-1, DIM, DIM), np.empty(len(Wf))
    for c in chunks(len(Wf), DIM * NCOMP[2] ** 2):
        lam, Wc = pair_ginv(gi[c]), Wf[c][:, TRI_UNPACK].reshape(-1, P, P)
        WL = Wc @ lam
        w2 = 4.0 * np.sum(WL * np.swapaxes(WL, -1, -2), axis=(-2, -1))
        del WL
        DW = ((gam[c] @ pair_derivation_table()).reshape(-1, DIM, P, P)
              @ Wc[:, None, :, :])
        nW = np.zeros(DW.shape)              # d_a W, zero on inactive axes
        for a in m.spec.active_axes:
            nW[:, a] = partial_block(W, m.spec, a, c)[:, TRI_UNPACK].reshape(
                -1, P, P)
        nW -= DW
        nW -= np.swapaxes(DW, -1, -2)
        del DW
        nWL = nW @ lam[:, None, :, :]
        del nW
        gnWL = (gi[c] @ nWL.reshape(-1, DIM, P * P)).reshape(nWL.shape)
        out[c] = np.sqrt(w2 + 4.0 * np.sum(nWL * np.swapaxes(gnWL, -1, -2),
                                           axis=(-3, -2, -1)))
        del nWL, gnWL
    return out.reshape(W.shape[:-1])


def auto_shift(bundle):
    """Default shift: 1 + max(0, -min R) for the supplied (initial)
    curvature bundle."""
    return float(1.0 + max(0.0, -float(np.min(bundle.R))))


def shifted_scalar(bundle, c):
    """R + c, with the positivity hypothesis enforced."""
    rt = bundle.R + c
    if np.min(rt) <= 0.0:
        raise NonPositiveShiftedScalar(
            f"min(R + c) = {float(np.min(rt)):.3e} <= 0")
    return rt


def metric_distortion(w0, g):
    """max over the grid of max(lambda_max, 1/lambda_min) for the pencil
    g(t) v = lambda g(0) v: the symmetric eigenproblem of w0 g w0^T with
    the whitening w0 = L^-1 of the Cholesky factor L of g(0)."""
    M = w0 @ g @ np.swapaxes(w0, -1, -2)
    ev = np.linalg.eigvalsh(M)
    lo, hi = float(np.min(ev[..., 0])), float(np.max(ev[..., -1]))
    return max(hi, 1.0 / lo)


def _column(history, name):
    """One column of a history of monitor-row dicts."""
    return np.array([r[name] for r in history], dtype=float)


def traceless_ricci_ratio_fit(history, c1):
    """Least slope C2 >= 0, with intercept C1 = max(c1, 2 C2^2 + 1), such
    that ratio_lhs(t) <= C1 + C2 * driver(t) on every recorded row.

    The feasible set in C2 is an up-set, so a bisection finds the minimum;
    the margin series is nonnegative by construction of the fit.
    """
    lhs = _column(history, 'ratio_lhs')
    drv = _column(history, 'ratio_driver')

    def ok(c2):
        return np.all(lhs <= max(c1, 2.0 * c2 * c2 + 1.0) + c2 * drv + 1e-15)

    if ok(0.0):
        c2 = 0.0
    else:
        hi = 1.0
        while not ok(hi):
            hi *= 2.0
            if hi > 1e12:
                raise ArithmeticError("ratio fit failed to bracket")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        c2 = hi
    C1 = max(c1, 2.0 * c2 * c2 + 1.0)
    return {'C1': float(C1), 'C2': float(c2),
            'min_margin': float(np.min(C1 + c2 * drv - lhs))}


def distortion_bound_check(history):
    """e^{-N} g(0) <= g(t) <= e^{N} g(0): the recorded eigenvalue
    distortion may not exceed exp of the accumulated metric-speed
    integral N(t) = int max 2|S| dt; whether every row keeps it."""
    dist = _column(history, 'distortion')
    bound = np.exp(_column(history, 'speed_integral'))
    return bool(np.all(dist <= bound * (1.0 + 1e-10)))
