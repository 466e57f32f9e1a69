"""Curvature decomposition and pinching monitors.

Every norm and monitor uses the exactly trace-free Weyl tensor W' of the
decomposition Rm = (R/84) g o g + (1/5) E o g + W'.  The literal
printed-coefficient variant, whose final term carries 1/30 without a scalar
curvature factor, is built only by ``weyl_variant_residual``, which reports
its gap to W'.
"""

from functools import lru_cache

import numpy as np

from .algebra import DIM, NCOMP, basis_interior_table, chunks, pair_entries
from .errors import NonPositiveShiftedScalar
# perfbench/selftest.py checks that its tracer wraps this tensor_norm2 binding
from .geometry import pair_norm2, tensor_norm2  # noqa: F401
from .grid import partial_derivative


def kulkarni_nomizu(alpha, beta):
    """(a o b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik for
    symmetric 2-tensors (batched over leading axes), in pair form."""
    ail, ajk, aik, ajl = pair_entries(alpha)
    bil, bjk, bik, bjl = pair_entries(beta)
    return ail * bjk + ajk * bil - aik * bjl - ajl * bik


def weyl(bundle, m):
    """Trace-free Weyl tensor Rm - (R/84) g o g - (1/5) E o g in pair form,
    over blocks of points (algebra.chunks)."""
    n = bundle.R.size
    Rm, R = bundle.Rm.reshape(n, NCOMP[2], NCOMP[2]), bundle.R.reshape(n, 1, 1)
    E, g = bundle.E.reshape(n, DIM, DIM), m.g.reshape(n, DIM, DIM)
    W = np.empty(Rm.shape)
    for c in chunks(n, DIM * NCOMP[2] ** 2):
        W[c] = (Rm[c] - (R[c] / 84.0) * kulkarni_nomizu(g[c], g[c])
                - 0.2 * kulkarni_nomizu(E[c], g[c]))
    return W.reshape(bundle.Rm.shape)


def weyl_variant_residual(bundle, m):
    """Max-norm gap between the trace-free Weyl and the printed-coefficient
    variant Rm - (1/5)(g_il R_jk + g_jk R_il - g_ik R_jl - g_jl R_ik)
    + (1/30)(g_il g_jk - g_ik g_jl); nonzero whenever the scalar curvature
    differs from 1."""
    pair = kulkarni_nomizu(m.g, m.g) / 2.0
    printed = bundle.Rm - 0.2 * kulkarni_nomizu(bundle.Ric, m.g) + pair / 30.0
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
    """Pointwise |W|_{C1} = sqrt(|W|^2 + |nabla W|^2) of a pair-form Weyl
    field, |W|^2 from pair_norm2.  Gamma_a acts on each pair as the 2-form
    derivation D_a, so nabla_a W = d_a W - D_a W - (D_a W)^T, and
    |nabla W|^2 = 4 g^ab tr(nabla_a W Lam nabla_b W Lam), Lam = m.pair_ginv.
    The derivative terms run over blocks of points (algebra.chunks).
    """
    P = NCOMP[2]
    Wf = W.reshape(-1, P, P)
    n = Wf.shape[0]
    gam = m.gamma_flat.reshape(n, DIM, DIM * DIM)
    lam = m.pair_ginv.reshape(Wf.shape)
    gi = m.ginv.reshape(n, DIM, DIM)
    dW = [(a, partial_derivative(W, m.spec, a).reshape(Wf.shape))
          for a in m.spec.active_axes]
    dn2 = np.empty(n)
    for c in chunks(n, DIM * NCOMP[2] ** 2):
        D = (gam[c] @ pair_derivation_table()).reshape(-1, DIM, P, P)
        DW = D @ Wf[c, None, :, :]
        dWc = np.zeros(DW.shape)             # d_a W, zero on inactive axes
        for a, d in dW:
            dWc[:, a] = d[c]
        nWL = (dWc - DW - np.swapaxes(DW, -1, -2)) @ lam[c, None, :, :]
        gnWL = (gi[c] @ nWL.reshape(-1, DIM, P * P)).reshape(nWL.shape)
        dn2[c] = np.sum(nWL * np.swapaxes(gnWL, -1, -2), axis=(-3, -2, -1))
    return np.sqrt(pair_norm2(W, m) + 4.0 * dn2.reshape(W.shape[:-2]))


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
    margins = C1 + c2 * drv - lhs
    return {'C1': float(C1), 'C2': float(c2),
            'margins': margins, 'min_margin': float(np.min(margins))}


def distortion_bound_check(history):
    """e^{-N} g(0) <= g(t) <= e^{N} g(0): the recorded eigenvalue
    distortion may not exceed exp of the accumulated metric-speed
    integral N(t) = int max 2|S| dt."""
    dist = _column(history, 'distortion')
    bound = np.exp(_column(history, 'speed_integral'))
    return {'distortion': dist, 'bound': bound,
            'ok': bool(np.all(dist <= bound * (1.0 + 1e-10)))}
