"""Curvature decomposition and pinching monitors.

Every norm and monitor uses the exactly trace-free Weyl tensor W' of the
decomposition Rm = (R/84) g o g + (1/5) E o g + W'.  The literal
printed-coefficient variant, whose final term carries 1/30 without a scalar
curvature factor, is built only by ``weyl_variant_residual``, which reports
its gap to W'.
"""

import numpy as np

from .errors import NonPositiveShiftedScalar
from .geometry import covariant_derivative, tensor_norm2


def kulkarni_nomizu(alpha, beta):
    """(a o b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik for
    symmetric 2-tensors (batched over leading axes)."""
    return (np.einsum('...il,...jk->...ijkl', alpha, beta)
            + np.einsum('...jk,...il->...ijkl', alpha, beta)
            - np.einsum('...ik,...jl->...ijkl', alpha, beta)
            - np.einsum('...jl,...ik->...ijkl', alpha, beta))


def weyl(bundle, m):
    """Trace-free Weyl tensor Rm - (R/84) g o g - (1/5) E o g."""
    R = bundle.R[..., None, None, None, None]
    return (bundle.Rm - (R / 84.0) * kulkarni_nomizu(m.g, m.g)
            - 0.2 * kulkarni_nomizu(bundle.E, m.g))


def weyl_variant_residual(bundle):
    """Max-norm gap between the trace-free Weyl and the printed-coefficient
    variant Rm - (1/5)(g_il R_jk + g_jk R_il - g_ik R_jl - g_jl R_ik)
    + (1/30)(g_il g_jk - g_ik g_jl); nonzero whenever the scalar curvature
    differs from 1."""
    g = bundle.m.g
    W = weyl(bundle, bundle.m)
    pair = (np.einsum('...il,...jk->...ijkl', g, g)
            - np.einsum('...ik,...jl->...ijkl', g, g))
    printed = bundle.Rm - 0.2 * kulkarni_nomizu(bundle.Ric, g) + pair / 30.0
    return float(np.max(np.abs(W - printed)))


def c1_norm(tensor, m, rank):
    """Pointwise sqrt(|A|^2 + |nabla A|^2) and its grid supremum."""
    n2 = tensor_norm2(tensor, m, rank)
    dn2 = tensor_norm2(covariant_derivative(tensor, m, rank), m, rank + 1)
    fld = np.sqrt(n2 + dn2)
    return fld, float(np.max(fld))


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


def metric_distortion(g0, g):
    """max over the grid of max(lambda_max, 1/lambda_min) for the pencil
    g(t) v = lambda g(0) v (Cholesky-whitened symmetric eigenproblem)."""
    L = np.linalg.cholesky(g0)
    Linv = np.linalg.inv(L)
    M = Linv @ g @ np.swapaxes(Linv, -1, -2)
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


def weyl_blowup_monitor(history, T_est, delta):
    """Rate series r(t) = max |W|_{C1} * (T_est - t)^{1-delta} for
    inspecting blow-up behavior toward an estimated horizon T_est."""
    ts = _column(history, 't')
    if T_est <= ts.max():
        raise ValueError("T_est must exceed the last recorded time")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    w = _column(history, 'W_c1_max')
    rate = w * (T_est - ts) ** (1.0 - delta)
    return {'t': ts, 'rate': rate}


def distortion_bound_check(history):
    """e^{-N} g(0) <= g(t) <= e^{N} g(0): the recorded eigenvalue
    distortion may not exceed exp of the accumulated metric-speed
    integral N(t) = int max 2|S| dt."""
    dist = _column(history, 'distortion')
    bound = np.exp(_column(history, 'speed_integral'))
    return {'distortion': dist, 'bound': bound,
            'ok': bool(np.all(dist <= bound * (1.0 + 1e-10)))}
