"""Numerical verification of the evolution equations along the flow.

Each check compares a centered finite-difference time derivative over three
states against the stated right-hand side evaluated at the middle state;
every derivative in an RHS uses the same discrete operators as the flow, so
residuals isolate the tensor algebra rather than mixing discretizations.

Measured orders use the three-spacing difference estimator
log2((r1 - r2) / (r2 - r4)), which cancels the spacing-independent spatial
floor that a parabolic dt = O(h^2) would otherwise mix into plain ratios.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curvature import c1_norm, shifted_scalar, weyl
from .flow import FlowState, step_fixed
from .geometry import (covariant_derivative, partial_stack, raise_all,
                       raise_index, scalar_laplacian, second_covariant,
                       tensor_norm2)


# ---------------------------------------------------------------------------
# shared per-state tensor cache
# ---------------------------------------------------------------------------

class StateTensors:
    """Derived tensor arrays at one flow state, computed once and shared by
    every check.  Second derivatives are nested first derivatives, and all
    raised variants come from the same inverse metric, so algebraically
    identical expressions evaluate to identical arrays."""

    def __init__(self, state, c=1.0):
        self.state = state
        self.c = float(c)
        self.m = state.metric
        self.b = state.bundle
        if self.b.W is None:
            weyl(self.b, self.m)
        self._f = {}

    # --- bare fields ---
    @property
    def Ric(self):
        return self.b.Ric

    @property
    def R(self):
        return self.b.R

    @property
    def S(self):
        return self.b.S

    @property
    def T(self):
        return self.b.T

    @property
    def That(self):
        return self.b.That

    @property
    def Tn2(self):
        return self.b.T_norm2

    @cached_property
    def Rt(self):
        """Shifted scalar R + c; positivity enforced."""
        return shifted_scalar(self.b, self.c)

    @cached_property
    def Ric_t(self):
        """Shifted Ricci: Ric + (c/7) g."""
        return self.Ric + (self.c / 7.0) * self.m.g

    @cached_property
    def Ric_t_norm2(self):
        return tensor_norm2(self.Ric_t, self.m, 2)

    @cached_property
    def Ric_norm2(self):
        return tensor_norm2(self.Ric, self.m, 2)

    @cached_property
    def E_norm2(self):
        return tensor_norm2(self.b.E, self.m, 2)

    # --- raised variants ---
    @cached_property
    def Ric_up(self):
        return raise_all(self.Ric, self.m, 2)

    @cached_property
    def Ric_mixed(self):
        """R_i^p (second slot raised)."""
        return raise_index(self.Ric, self.m, 2, 1)

    @cached_property
    def Ric_t_up(self):
        return raise_all(self.Ric_t, self.m, 2)

    @cached_property
    def That_up(self):
        return raise_all(self.That, self.m, 2)

    @cached_property
    def T_up(self):
        return raise_all(self.T, self.m, 2)

    @cached_property
    def E_up(self):
        return raise_all(self.b.E, self.m, 2)

    @cached_property
    def S_up(self):
        return raise_all(self.S, self.m, 2)

    # --- first derivatives ---
    @cached_property
    def nabla_Ric(self):
        return covariant_derivative(self.Ric, self.m, 2)

    @cached_property
    def nabla_Ric_norm2(self):
        return tensor_norm2(self.nabla_Ric, self.m, 3)

    @cached_property
    def nabla_T(self):
        return covariant_derivative(self.T, self.m, 2)

    @cached_property
    def grad_R(self):
        return partial_stack(self.R, self.m.spec)

    # --- second derivatives ---
    @cached_property
    def dd_That(self):
        return second_covariant(self.That, self.m, 2)

    @cached_property
    def lap_That(self):
        return np.einsum('...ab,...abij->...ij', self.m.ginv,
                         self.dd_That, optimize=True)

    @cached_property
    def div_grad_That(self):
        """A_ij = nabla_i nabla^p That_pj (inner derivative contracted with
        the first tensor slot)."""
        return np.einsum('...ns,...insj->...ij', self.m.ginv,
                         self.dd_That, optimize=True)

    @cached_property
    def div_div_That(self):
        """nabla^i nabla^j That_ij (outer with first slot, inner with
        second); equals the transposed wiring exactly because That is
        symmetric by construction."""
        return np.einsum('...os,...nt,...onst->...', self.m.ginv,
                         self.m.ginv, self.dd_That, optimize=True)

    @cached_property
    def hess_T2(self):
        return second_covariant(self.Tn2, self.m, 0)

    @cached_property
    def lap_T2(self):
        return np.einsum('...ab,...ab->...', self.m.ginv, self.hess_T2)

    @cached_property
    def dd_S(self):
        return second_covariant(self.S, self.m, 2)

    @cached_property
    def lap_S(self):
        return np.einsum('...ab,...abij->...ij', self.m.ginv, self.dd_S,
                         optimize=True)

    @cached_property
    def dd_Ric(self):
        return second_covariant(self.Ric, self.m, 2)

    @cached_property
    def lap_Ric(self):
        return np.einsum('...ab,...abij->...ij', self.m.ginv,
                         self.dd_Ric, optimize=True)

    # --- curvature contractions ---
    @cached_property
    def Rm_Ric_up(self):
        """R_pijl R^pl."""
        return np.einsum('...pijl,...pl->...ij', self.b.Rm, self.Ric_up,
                         optimize=True)

    @cached_property
    def Rm_That_up(self):
        """R_pijl That^pl."""
        return np.einsum('...pijl,...pl->...ij', self.b.Rm, self.That_up,
                         optimize=True)

    @cached_property
    def Rm_TT(self):
        """R_ijmn T^in T^mj (the scalar-evolution quadratic)."""
        return np.einsum('...ijmn,...in,...mj->...', self.b.Rm,
                         self.T_up, self.T_up, optimize=True)

    @cached_property
    def Rm_TT_div(self):
        """R_ijmp T^ip T^mj (the divergence-identity quadratic)."""
        return np.einsum('...ijmp,...ip,...mj->...', self.b.Rm,
                         self.T_up, self.T_up, optimize=True)

    @cached_property
    def gradT_combo(self):
        """nabla^j T_im nabla^i T^m_j."""
        nt = self.nabla_T
        return np.einsum('...ja,...ib,...mn,...aim,...bnj->...',
                         self.m.ginv, self.m.ginv, self.m.ginv,
                         nt, nt, optimize=True)

    @cached_property
    def W_c1_field(self):
        fld, _ = c1_norm(self.b.W, self.m, 4)
        return fld

    # --- pinching scalars ---
    def f_field(self, gamma):
        if gamma not in self._f:
            self._f[gamma] = self.E_norm2 / self.Rt ** gamma
        return self._f[gamma]

    @cached_property
    def E3(self):
        """E_ij E^j_l E^li."""
        E = self.b.E
        Em = raise_index(E, self.m, 2, 1)         # E_i^j
        return np.einsum('...ij,...jl,...li->...', Em, Em, Em,
                         optimize=True)

    @cached_property
    def WEE(self):
        """W_pijl E^pl E^ij with the trace-free Weyl."""
        return np.einsum('...pijl,...pl,...ij->...', self.b.W,
                         self.E_up, self.E_up, optimize=True)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def rhs_general_flow_ricci(ts, eta):
    """Evolution of Ric under d/dt g = eta: -(Lichnerowicz Laplacian of eta
    + Hess tr eta - symmetrized derivative of div eta)/2."""
    m = ts.m
    dd_eta = second_covariant(eta, m, 2)
    lap_eta = np.einsum('...ab,...abij->...ij', m.ginv, dd_eta, optimize=True)
    eta_mixed = raise_index(eta, m, 2, 0)
    lich = (lap_eta
            - np.einsum('...ip,...pj->...ij', ts.Ric_mixed, eta)
            - np.einsum('...jp,...pi->...ij', ts.Ric_mixed, eta)
            + 2.0 * np.einsum('...pijl,...pl->...ij', ts.b.Rm,
                              raise_all(eta, m, 2), optimize=True))
    tr_eta = np.einsum('...ij,...ij->...', m.ginv, eta)
    hess_tr = second_covariant(tr_eta, m, 0)
    div_eta = np.einsum('...am,...amj->...j', m.ginv,
                        covariant_derivative(eta, m, 2), optimize=True)
    ddiv = covariant_derivative(div_eta, m, 1)
    sym_ddiv = ddiv + np.einsum('...ij->...ji', ddiv)
    return -0.5 * (lich + hess_tr - sym_ddiv)


def rhs_general_flow_scalar(ts, eta):
    """Evolution of R under d/dt g = eta."""
    m = ts.m
    tr_eta = np.einsum('...ij,...ij->...', m.ginv, eta)
    div_eta = np.einsum('...am,...amj->...j', m.ginv,
                        covariant_derivative(eta, m, 2), optimize=True)
    div_div = np.einsum('...aj,...aj->...', m.ginv,
                        covariant_derivative(div_eta, m, 1), optimize=True)
    ric_pair = np.einsum('...ij,...ij->...', ts.Ric_up, eta)
    return -scalar_laplacian(tr_eta, m) + div_div - ric_pair


def rhs_ricci_evolution(ts):
    """Ricci evolution under the Laplacian flow: Delta S minus curvature
    and torsion quadratics minus the Hessian terms."""
    A = ts.div_grad_That
    hess = ts.hess_T2
    return (ts.lap_S
            - 2.0 * np.einsum('...ip,...pj->...ij', ts.Ric_mixed, ts.Ric)
            - 2.0 * np.einsum('...ip,...pj->...ij', ts.Ric_mixed, ts.That)
            - 2.0 * np.einsum('...jp,...pi->...ij', ts.Ric_mixed, ts.That)
            + 2.0 * ts.Rm_Ric_up
            + 4.0 * ts.Rm_That_up
            - hess / 3.0
            - 2.0 * A - 2.0 * np.einsum('...ij->...ji', A))


def rhs_ricci_norm_evolution(ts):
    """Evolution of |Ric|^2 under the flow."""
    m = ts.m
    lap_ric2 = scalar_laplacian(ts.Ric_norm2, m)
    A = ts.div_grad_That
    return (lap_ric2
            - 2.0 * ts.nabla_Ric_norm2
            + 4.0 * np.einsum('...ij,...ij->...', ts.Rm_Ric_up, ts.Ric_up)
            + (4.0 / 3.0) * ts.Tn2 * ts.Ric_norm2
            + 8.0 * np.einsum('...ij,...ij->...', ts.Rm_That_up, ts.Ric_up)
            + (2.0 / 3.0) * ts.R * ts.lap_T2
            + 4.0 * np.einsum('...ij,...ij->...', ts.Ric_up, ts.lap_That)
            - (2.0 / 3.0) * np.einsum('...ij,...ij->...', ts.Ric_up, ts.hess_T2)
            - 8.0 * np.einsum('...ij,...ij->...', ts.Ric_up, A))


def rhs_scalar_evolution(ts):
    """Evolution of R: Delta R + 2|Ric|^2 - (2/3) R^2 + torsion terms."""
    return (scalar_laplacian(ts.R, ts.m)
            + 2.0 * ts.Ric_norm2
            - (2.0 / 3.0) * ts.R ** 2
            + 4.0 * ts.Rm_TT
            - 4.0 * ts.gradT_combo)


@dataclass
class AuxTerms:
    """Auxiliary scalars of the shifted-Ricci evolution equations."""
    I: np.ndarray
    J: np.ndarray
    H: np.ndarray
    E3: np.ndarray
    WEE: np.ndarray
    grad_combo: np.ndarray


def compute_aux_terms(ts):
    """I, J, H plus the cubic/Weyl scalars entering the pinching equation."""
    c = ts.c
    Rt = ts.Rt
    rn2 = ts.Ric_t_norm2
    I = (-(4.0 / 3.0) * Rt * rn2
         + (16.0 * c / 21.0) * rn2
         + 8.0 * np.einsum('...ij,...ij->...', ts.Rm_That_up, ts.Ric_t_up)
         + (4.0 * c / 21.0) * Rt ** 2
         - (16.0 / 147.0) * c * c * Rt)
    A = ts.div_grad_That
    J = ((2.0 / 3.0) * Rt * ts.lap_T2
         + 4.0 * np.einsum('...ij,...ij->...', ts.Ric_t_up, ts.lap_That)
         - (2.0 / 3.0) * np.einsum('...ij,...ij->...', ts.Ric_t_up, ts.hess_T2)
         - 8.0 * np.einsum('...ij,...ij->...', ts.Ric_t_up, A))
    H = (-(2.0 / 3.0) * Rt ** 2
         + (16.0 / 21.0) * c * Rt
         - (8.0 / 21.0) * c * c
         + 4.0 * ts.Rm_TT
         - 4.0 * ts.gradT_combo)
    # |Rt nabla Ric_t - (grad Rt) Ric_t|^2, slots (a, i, j); nabla Ric_t
    # equals nabla Ric exactly because nabla g vanishes to rounding
    combo = Rt[..., None, None, None] * ts.nabla_Ric \
        - np.einsum('...a,...ij->...aij', ts.grad_R, ts.Ric_t)
    grad_combo = tensor_norm2(combo, ts.m, 3)
    return AuxTerms(I=I, J=J, H=H, E3=ts.E3, WEE=ts.WEE,
                    grad_combo=grad_combo)


def rhs_shifted_ricci_norm_evolution(ts, aux=None):
    """Evolution of |Ric + (c/7) g|^2."""
    aux = aux or compute_aux_terms(ts)
    m = ts.m
    lap = scalar_laplacian(ts.Ric_t_norm2, m)
    nrt = covariant_derivative(ts.Ric_t, m, 2)
    return (lap - 2.0 * tensor_norm2(nrt, m, 3)
            + 4.0 * np.einsum('...pijl,...pl,...ij->...', ts.b.Rm,
                              ts.Ric_t_up, ts.Ric_t_up, optimize=True)
            + aux.I + aux.J)


def rhs_shifted_scalar_evolution(ts, aux=None):
    """Evolution of R + c."""
    aux = aux or compute_aux_terms(ts)
    return scalar_laplacian(ts.Rt, ts.m) + 2.0 * ts.Ric_t_norm2 + aux.H


def rhs_pinching_evolution(ts, gamma, aux=None):
    """Full evolution equation of f = |E|^2 / (R + c)^gamma."""
    aux = aux or compute_aux_terms(ts)
    m = ts.m
    c = ts.c
    Rt = ts.Rt
    f = ts.f_field(gamma)
    E2 = ts.E_norm2
    grad_f = partial_stack(f, m.spec)
    grad_Rt = ts.grad_R                      # nabla(R + c) = nabla R
    inner_f_Rt = np.einsum('...ab,...a,...b->...', m.ginv, grad_f, grad_Rt,
                           optimize=True)
    grad_Rt_n2 = np.einsum('...ab,...a,...b->...', m.ginv, grad_Rt, grad_Rt,
                           optimize=True)
    bracket = (-gamma * E2 ** 2
               + 2.0 * Rt * aux.WEE
               - 0.8 * Rt * aux.E3
               + (5.0 / 21.0 - gamma / 7.0) * Rt ** 2 * E2
               + (c / 21.0) * Rt * E2
               - (2.0 * c / 49.0) * Rt ** 3)
    return (scalar_laplacian(f, m)
            + (2.0 * (gamma - 1.0) / Rt) * inner_f_Rt
            - (2.0 / Rt ** (gamma + 2.0)) * aux.grad_combo
            - ((2.0 - gamma) * (gamma - 1.0) / Rt ** 2) * grad_Rt_n2 * f
            + (2.0 / Rt ** (gamma + 1.0)) * bracket
            + (aux.I + aux.J) / Rt ** gamma
            - (gamma / Rt ** (gamma + 1.0)) * ts.Ric_t_norm2 * aux.H
            - ((2.0 - gamma) / 7.0) * aux.H / Rt ** (gamma - 1.0))


# ---------------------------------------------------------------------------
# fixed-state algebraic cross-checks
# ---------------------------------------------------------------------------

def divergence_identity_residual(ts):
    """nabla^i nabla^j That_ij - (R^jp That_pj - R_ijmp T^ip T^mj
    + nabla^j T_im nabla^i T^m_j); order h^4."""
    rhs = (np.einsum('...jp,...jp->...', ts.Ric_up, ts.That)
           - ts.Rm_TT_div + ts.gradT_combo)
    return float(np.max(np.abs(ts.div_div_That - rhs)))


def bochner_residual(ts):
    """Delta |Ric|^2 - 2 R^ij Delta R_ij - 2 |nabla Ric|^2; order h^4."""
    lap_ric2 = scalar_laplacian(ts.Ric_norm2, ts.m)
    mid = 2.0 * np.einsum('...ij,...ij->...', ts.Ric_up, ts.lap_Ric)
    return float(np.max(np.abs(lap_ric2 - mid - 2.0 * ts.nabla_Ric_norm2)))


def ricci_trace_vs_scalar_residual(ts):
    """Trace of the Ricci-evolution RHS against the scalar-evolution RHS,
    offset by the divergence identity; order h^4 (the derivation commutes
    traces with the Laplacian and substitutes R = -|T|^2)."""
    m = ts.m
    tr32 = np.einsum('...ij,...ij->...', m.ginv, rhs_ricci_evolution(ts))
    metric_motion = 2.0 * np.einsum('...ij,...ij->...', ts.S_up, ts.Ric)
    div_gap = ts.div_div_That - (
        np.einsum('...jp,...jp->...', ts.Ric_up, ts.That)
        - ts.Rm_TT_div + ts.gradT_combo)
    lhs = tr32 + metric_motion - rhs_scalar_evolution(ts) + 4.0 * div_gap
    return float(np.max(np.abs(lhs)))


def shifted_norm_consistency_residual(ts):
    """RHS(shifted Ricci norm) - [RHS(Ricci norm) + (2c/7) RHS(scalar)];
    order h^4 through the R = -|T|^2 substitution in the I-term."""
    aux = compute_aux_terms(ts)
    lhs = rhs_shifted_ricci_norm_evolution(ts, aux)
    rhs = rhs_ricci_norm_evolution(ts) + (2.0 * ts.c / 7.0) * rhs_scalar_evolution(ts)
    return float(np.max(np.abs(lhs - rhs)))


def shifted_scalar_consistency_residual(ts):
    """RHS(shifted scalar) - RHS(scalar): pure pointwise algebra, so this
    must vanish to rounding."""
    aux = compute_aux_terms(ts)
    lhs = rhs_shifted_scalar_evolution(ts, aux)
    return float(np.max(np.abs(lhs - rhs_scalar_evolution(ts))))


def lichnerowicz_metric_residual(ts):
    """Lichnerowicz Laplacian applied to g itself collapses to Delta g = 0
    (exact metric compatibility)."""
    m = ts.m
    dd_g = second_covariant(m.g, m, 2)
    lap_g = np.einsum('...ab,...abij->...ij', m.ginv, dd_g, optimize=True)
    lich = (lap_g
            - np.einsum('...ip,...pj->...ij', ts.Ric_mixed, m.g)
            - np.einsum('...jp,...pi->...ij', ts.Ric_mixed, m.g)
            + 2.0 * np.einsum('...pijl,...pl->...ij', ts.b.Rm, m.ginv,
                              optimize=True))
    return float(np.max(np.abs(lich)))


# ---------------------------------------------------------------------------
# trajectory machinery and checks
# ---------------------------------------------------------------------------

@dataclass
class EvolutionCheckResult:
    """Outcome of one evolution-equation check."""
    name: str
    residuals: dict                 # spacing -> max-norm residual
    expected_order: tuple = (2.0, 4.0)
    measured_order: float = None
    passed: bool = None

    @property
    def residual_max(self):
        return self.residuals[max(self.residuals)]


def difference_order(residuals):
    """Order from three residuals at spacings s, s/2, s/4: the differences
    cancel any spacing-independent floor."""
    ss = sorted(residuals, reverse=True)
    if len(ss) < 3:
        return None
    r1, r2, r4 = (residuals[s] for s in ss[:3])
    num, den = r1 - r2, r2 - r4
    if num <= 0.0 or den <= 0.0:
        # residuals already at the floor; fall back to the raw ratio
        return math.log2(max(r1, 1e-300) / max(r2, 1e-300))
    return math.log2(num / den)


def centered_states(phi0, t_center, spacing):
    """Integrate with fixed steps of ``spacing`` from t = 0 and return the
    states at t_center - spacing, t_center, t_center + spacing."""
    n_center = round(t_center / spacing)
    if abs(n_center * spacing - t_center) > 1e-12 * max(t_center, 1.0):
        raise ValueError("t_center must be a multiple of spacing")
    st = FlowState(0.0, phi0)
    keep = {}
    for n in range(1, n_center + 2):
        st = step_fixed(st, spacing)
        if n in (n_center - 1, n_center, n_center + 1):
            keep[n] = st
    if n_center == 1:
        keep[0] = FlowState(0.0, phi0)
    return keep[n_center - 1], keep[n_center], keep[n_center + 1]


def _fd(prev_val, next_val, spacing):
    return (next_val - prev_val) / (2.0 * spacing)


CHECK_NAMES = (
    'general_flow_ricci', 'general_flow_scalar', 'ricci_evolution',
    'ricci_norm_evolution', 'scalar_evolution',
    'shifted_ricci_norm_evolution', 'shifted_scalar_evolution',
)


def evaluate_residuals(prev, mid, nxt, spacing, c, gammas=(2.0,)):
    """Max-norm residuals of every evolution equation on one state triple."""
    ts = StateTensors(mid, c=c)
    aux = compute_aux_terms(ts)
    bp, bn = prev.bundle, nxt.bundle
    mp_, mn_ = prev.metric, nxt.metric
    out = {}

    eta = -2.0 * ts.S
    fd_ric = _fd(bp.Ric, bn.Ric, spacing)
    out['general_flow_ricci'] = float(np.max(np.abs(
        fd_ric - rhs_general_flow_ricci(ts, eta))))
    fd_R = _fd(bp.R, bn.R, spacing)
    out['general_flow_scalar'] = float(np.max(np.abs(
        fd_R - rhs_general_flow_scalar(ts, eta))))
    out['ricci_evolution'] = float(np.max(np.abs(
        fd_ric - rhs_ricci_evolution(ts))))

    ric2_p = tensor_norm2(bp.Ric, mp_, 2)
    ric2_n = tensor_norm2(bn.Ric, mn_, 2)
    out['ricci_norm_evolution'] = float(np.max(np.abs(
        _fd(ric2_p, ric2_n, spacing) - rhs_ricci_norm_evolution(ts))))
    out['scalar_evolution'] = float(np.max(np.abs(
        fd_R - rhs_scalar_evolution(ts))))

    rict_p = bp.Ric + (c / 7.0) * mp_.g
    rict_n = bn.Ric + (c / 7.0) * mn_.g
    out['shifted_ricci_norm_evolution'] = float(np.max(np.abs(
        _fd(tensor_norm2(rict_p, mp_, 2), tensor_norm2(rict_n, mn_, 2),
            spacing) - rhs_shifted_ricci_norm_evolution(ts, aux))))
    out['shifted_scalar_evolution'] = float(np.max(np.abs(
        fd_R - rhs_shifted_scalar_evolution(ts, aux))))

    for gamma in gammas:
        ep = tensor_norm2(bp.E, mp_, 2)
        en = tensor_norm2(bn.E, mn_, 2)
        fp = ep / (bp.R + c) ** gamma
        fn = en / (bn.R + c) ** gamma
        out[f'pinching_evolution_g{gamma:g}'] = float(np.max(np.abs(
            _fd(fp, fn, spacing) - rhs_pinching_evolution(ts, gamma, aux))))
    return out


def run_evolution_checks(phi0, dt, c, gammas=(1.5, 2.0, 3.0), levels=3,
                         min_order=1.8):
    """All evolution checks at spacings dt, dt/2, dt/4 centered at t = dt.

    Returns a list of EvolutionCheckResult with measured time orders from
    the difference estimator.
    """
    names = list(CHECK_NAMES) + [f'pinching_evolution_g{g:g}' for g in gammas]
    residuals = {n: {} for n in names}
    for lvl in range(levels):
        s = dt / 2 ** lvl
        prev, mid, nxt = centered_states(phi0, dt, s)
        res = evaluate_residuals(prev, mid, nxt, s, c, gammas)
        for n in names:
            residuals[n][s] = res[n]
    out = []
    for n in names:
        order = difference_order(residuals[n])
        out.append(EvolutionCheckResult(
            name=n, residuals=residuals[n], measured_order=order,
            passed=(order is not None and order >= min_order)))
    return out


def minimal_pinching_constant(prev, mid, nxt, c, w_c1_field=None):
    """Smallest C >= 0 making the gamma = 2 pinching inequality hold
    pointwise on this state triple:

      df/dt <= Delta f + (2/Rt)<grad f, grad Rt>
               + 4 Rt f (-f/2 + C sqrt(f) + C + C |W|_C1^2 / Rt^2).
    """
    ts = StateTensors(mid, c=c)
    m = ts.m
    spacing_r = mid.t - prev.t
    spacing_s = nxt.t - mid.t
    f_p = tensor_norm2(prev.bundle.E, prev.metric, 2) / (prev.bundle.R + c) ** 2
    f_n = tensor_norm2(nxt.bundle.E, nxt.metric, 2) / (nxt.bundle.R + c) ** 2
    f_m = ts.f_field(2.0)
    if abs(spacing_r - spacing_s) < 1e-13 * max(spacing_r, spacing_s):
        dfdt = (f_n - f_p) / (spacing_r + spacing_s)
    else:
        r, s = spacing_r, spacing_s
        dfdt = (-s / (r * (r + s))) * f_p + ((s - r) / (r * s)) * f_m \
            + (r / (s * (r + s))) * f_n
    grad_f = partial_stack(f_m, m.spec)
    inner = np.einsum('...ab,...a,...b->...', m.ginv, grad_f, ts.grad_R,
                      optimize=True)
    base = scalar_laplacian(f_m, m) + (2.0 / ts.Rt) * inner \
        - 2.0 * ts.Rt * f_m ** 2
    w2 = (ts.W_c1_field if w_c1_field is None else w_c1_field) ** 2
    num = dfdt - base
    den = 4.0 * ts.Rt * f_m * (np.sqrt(f_m) + 1.0 + w2 / ts.Rt ** 2)
    mask = den > 0.0
    if not np.any(mask):
        return 0.0
    ratio = np.where(mask & (num > 0.0), num / np.where(mask, den, 1.0), 0.0)
    return float(np.max(ratio))
