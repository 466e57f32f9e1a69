"""Numerical verification: the evolution equations along the flow, the
fixed-state cross-checks and structure identities, and the driver that
gates them and writes verification.json.

Each evolution check compares centered finite-difference time derivatives,
at three spacings on one fixed-step trajectory, against the stated
right-hand side at the centre state; every derivative in an RHS uses the
same discrete operators as the flow, so residuals isolate the tensor
algebra rather than mixing discretizations.

Measured orders use the three-spacing difference estimator
log2((r1 - r2) / (r2 - r4)), which cancels the spacing-independent spatial
floor that a parabolic dt = O(h^2) would otherwise mix into plain ratios.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as al
from . import geometry as ge
from .algebra import slot_apply
from .curvature import (auto_shift, c1_norm, shifted_scalar, weyl,
                         weyl_block)
from .flow import FlowState, step_fixed
from .geometry import (covariant_block, covariant_derivative, hessian_traces,
                       partial_stack, scalar_laplacian, second_covariant,
                       tensor_norm2)
from .grid import TWO_PI
from .report import atomic_write_json


# ---------------------------------------------------------------------------
# shared per-state tensor cache
# ---------------------------------------------------------------------------

class StateTensors:
    """Derived tensor arrays at one flow state, computed once and shared by
    the run monitor and every check.  Second derivatives are nested first
    derivatives, and all raised variants come from the same inverse metric,
    so algebraically identical expressions evaluate to identical arrays.
    Everything built on R + c raises NonPositiveShiftedScalar when
    min(R + c) <= 0.  Torsion terms are read from the state, so a read
    that needs no torsion builds none."""

    def __init__(self, state, c=1.0):
        self.state = state
        self.c = float(c)
        self.m = state.metric
        self._f = {}

    @cached_property
    def b(self):
        return self.state.bundle

    @cached_property
    def Rt(self):
        """Shifted scalar R + c; positivity enforced."""
        return shifted_scalar(self.b, self.c)

    @cached_property
    def Ric_t(self):
        """Shifted Ricci: Ric + (c/7) g."""
        return self.b.Ric + (self.c / 7.0) * self.m.g

    @cached_property
    def Ric_t_norm2(self):
        return tensor_norm2(self.Ric_t, self.m, 2)

    @cached_property
    def Ric_norm2(self):
        return tensor_norm2(self.b.Ric, self.m, 2)

    @cached_property
    def E_norm2(self):
        return tensor_norm2(self.b.E, self.m, 2)

    # --- raised variants ---
    @cached_property
    def Ric_up(self):
        return slot_apply(self.b.Ric, self.m.ginv, 2)

    @cached_property
    def Ric_mixed(self):
        """R_i^p (second slot raised)."""
        return slot_apply(self.b.Ric, self.m.ginv, 2, (1,))

    @cached_property
    def Ric_t_up(self):
        return slot_apply(self.Ric_t, self.m.ginv, 2)

    # --- first derivatives ---
    @cached_property
    def nabla_Ric_norms(self):
        """|nabla Ric|^2 and the pinching gradient combination |Rt nabla
        Ric_t - (grad Rt) Ric_t|^2 (slots a, i, j), both from one block of
        nabla Ric per al.chunks block (geometry.covariant_block), so no
        whole-grid nabla Ric is held; nabla Ric_t equals nabla Ric exactly
        because nabla g vanishes to rounding."""
        n = self.m.vol.size
        rt, dR = self.Rt.reshape(n, 1, 1, 1), self.grad_R.reshape(n, 7)
        ric_t, gi = self.Ric_t.reshape(n, 7, 7), self.m.ginv.reshape(n, 7, 7)
        out = np.empty((2, n))
        for c in al.chunks(n, 5 * 7 ** 3):
            nr = covariant_block(self.b.Ric, self.m, 2, c)
            out[0, c] = np.sum(nr * slot_apply(nr, gi[c], 3),
                               axis=(-3, -2, -1))
            nr = rt[c] * nr - np.einsum('...a,...ij->...aij', dR[c], ric_t[c])
            out[1, c] = np.sum(nr * slot_apply(nr, gi[c], 3),
                               axis=(-3, -2, -1))
        return tuple(out.reshape((2,) + self.m.vol.shape))

    @cached_property
    def grad_R(self):
        return partial_stack(self.b.R, self.m.spec)

    # --- second derivatives ---
    @cached_property
    def That_traces(self):
        """(Delta That, A) with A_ij = nabla_i nabla^p That_pj (inner
        derivative contracted with the first tensor slot)."""
        dThat = covariant_derivative(self.state.That, self.m, 2)
        return hessian_traces(dThat, self.m, inner=True)

    @cached_property
    def hess_T2(self):
        return second_covariant(self.state.T_norm2, self.m, 0)

    @cached_property
    def lap_T2(self):
        return np.einsum('...ab,...ab->...', self.m.ginv, self.hess_T2)

    # --- curvature contractions ---
    @cached_property
    def aux(self):
        return compute_aux_terms(self)

    @cached_property
    def Rm_Ric_up(self):
        """R_pijl R^pl."""
        return al.pair_apply(self.b.Rm, self.Ric_up)

    @cached_property
    def Rm_That_up(self):
        """R_pijl That^pl."""
        That_up = slot_apply(self.state.That, self.m.ginv, 2)
        return al.pair_apply(self.b.Rm, That_up)

    @cached_property
    def Rm_TT(self):
        """R_ijmn T^in T^mj = <R(T^#), (T^#)^T> (the scalar-evolution
        quadratic)."""
        T_up = slot_apply(self.state.T, self.m.ginv, 2)
        return np.sum(al.pair_apply(self.b.Rm, T_up)
                      * np.swapaxes(T_up, -1, -2), axis=(-2, -1))

    @cached_property
    def div_gap(self):
        """The divergence identity's two sides, nabla^i nabla^j That_ij
        - (R^jp That_pj - R_ijmp T^ip T^mj + nabla^j T_im nabla^i T^m_j)."""
        # nabla^i nabla^j That_ij read off A, the outer derivative with the
        # second slot and the inner with the first; That is symmetric, so
        # this agrees with the other wiring to rounding
        div_div = np.einsum('...os,...os->...', self.m.ginv,
                            self.That_traces[1])
        return div_div - (
            np.einsum('...jp,...jp->...', self.Ric_up, self.state.That)
            - self.Rm_TT + self.gradT_combo)

    @cached_property
    def gradT_combo(self):
        """nabla^j T_im nabla^i T^m_j = nabla^a T_i^m nabla^i T_ma, from two
        slot_apply products per al.chunks block, each on its block of
        nabla T (geometry.covariant_block)."""
        n = self.m.vol.size
        gi, out = self.m.ginv.reshape(n, 7, 7), np.empty(n)
        for c in al.chunks(n, 5 * 7 ** 3):
            nt = covariant_block(self.state.T, self.m, 2, c)
            up = slot_apply(nt, gi[c], 3, (2, 0))            # nabla^a T_i^m
            nt = np.moveaxis(slot_apply(nt, gi[c], 3, (0,)), -1, -3)
            out[c] = np.sum(up * nt, axis=(-3, -2, -1))
        return out.reshape(self.m.vol.shape)

    @cached_property
    def W(self):
        """Trace-free Weyl tensor on its 231 packed pair entries."""
        return weyl(self.b, self.m)

    @cached_property
    def W_c1_field(self):
        return c1_norm(self.W, self.m)

    # --- pinching scalars ---
    def f_field(self, gamma):
        if gamma not in self._f:
            self._f[gamma] = self.E_norm2 / self.Rt ** gamma
        return self._f[gamma]

    def transport(self, gamma):
        """Delta f + (2 (gamma - 1) / Rt) <grad f, grad R>, f = f_field(gamma):
        grad f is taken once (a scalar's covariant derivative is its
        gradient) and Delta f differentiates it once more, as
        scalar_laplacian does."""
        f, m = self.f_field(gamma), self.m
        df = covariant_derivative(f, m, 0)
        lap = np.einsum('...ab,...ab->...', m.ginv,
                        covariant_derivative(df, m, 1), optimize=True)
        inner = np.einsum('...ab,...a,...b->...', m.ginv, df, self.grad_R,
                          optimize=True)
        return lap + (2.0 * (gamma - 1.0) / self.Rt) * inner

    @cached_property
    def E3(self):
        """E_ij E^j_l E^li."""
        Em = slot_apply(self.b.E, self.m.ginv, 2, (1,))  # E_i^j
        return np.einsum('...ij,...jl,...li->...', Em, Em, Em,
                         optimize=True)

    @cached_property
    def WEE(self):
        """W_pijl E^pl E^ij = <W(E^#), E^#> with the trace-free Weyl, each
        al.chunks block's W contracted as soon as weyl_block builds it, so
        no whole-grid W is held (the monitor's packed W is, for c1_norm's
        stencil)."""
        b, n = self.b, self.m.vol.size
        Rm, R = b.Rm.reshape(n, 21, 21), b.R.reshape(n, 1, 1)
        E, g = b.E.reshape(n, 7, 7), self.m.g.reshape(n, 7, 7)
        E_up = slot_apply(b.E, self.m.ginv, 2).reshape(n, 7, 7)
        out = np.empty(n)
        for c in al.chunks(n, 7 ** 4):
            W = weyl_block(Rm[c], R[c], E[c], g[c])
            out[c] = np.sum(al.pair_apply(W, E_up[c]) * E_up[c],
                            axis=(-2, -1))
        return out.reshape(b.R.shape)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def lichnerowicz(ts, h, h_up, dh):
    """Lichnerowicz Laplacian of a symmetric 2-tensor h, given h_up, h with
    both slots raised, and dh = nabla h: Delta h - Ric h - h Ric + 2 Rm(h)."""
    return (hessian_traces(dh, ts.m)
            - np.einsum('...ip,...pj->...ij', ts.Ric_mixed, h)
            - np.einsum('...jp,...pi->...ij', ts.Ric_mixed, h)
            + 2.0 * al.pair_apply(ts.b.Rm, h_up))


def rhs_general_flow(ts):
    """Evolutions of Ric and R under d/dt g = eta = -2S: Ric moves by
    -(Lichnerowicz Laplacian of eta + Hess tr eta - symmetrized derivative
    of div eta)/2, and R by -Delta tr eta + div div eta - <Ric, eta>."""
    m = ts.m
    eta = -2.0 * ts.state.S
    deta = covariant_derivative(eta, m, 2)
    lich = lichnerowicz(ts, eta, slot_apply(eta, m.ginv, 2), deta)
    tr_eta = np.einsum('...ij,...ij->...', m.ginv, eta)
    hess_tr = second_covariant(tr_eta, m, 0)
    # g^am nabla_a eta_mj per al.chunks block: on the whole grid this
    # einsum allocates a 7^3 temporary per point
    gi, de = m.ginv.reshape(-1, 7, 7), deta.reshape(-1, 7, 7, 7)
    div_eta = np.concatenate([
        np.einsum('...am,...amj->...j', gi[c], de[c], optimize=True)
        for c in al.chunks(len(gi), 7 ** 3)]).reshape(eta.shape[:-1])
    ddiv = covariant_derivative(div_eta, m, 1)
    sym_ddiv = ddiv + np.einsum('...ij->...ji', ddiv)
    div_div = np.einsum('...aj,...aj->...', m.ginv, ddiv, optimize=True)
    ric_pair = np.einsum('...ij,...ij->...', ts.Ric_up, eta)
    lap_tr = np.einsum('...ab,...ab->...', m.ginv, hess_tr, optimize=True)
    return (-0.5 * (lich + hess_tr - sym_ddiv),
            -lap_tr + div_div - ric_pair)


def rhs_ricci_evolution(ts):
    """Ricci evolution under the Laplacian flow: Delta S minus curvature
    and torsion quadratics minus the Hessian terms."""
    A, That = ts.That_traces[1], ts.state.That
    hess = ts.hess_T2
    return (hessian_traces(covariant_derivative(ts.state.S, ts.m, 2), ts.m)
            - 2.0 * np.einsum('...ip,...pj->...ij', ts.Ric_mixed, ts.b.Ric)
            - 2.0 * np.einsum('...ip,...pj->...ij', ts.Ric_mixed, That)
            - 2.0 * np.einsum('...jp,...pi->...ij', ts.Ric_mixed, That)
            + 2.0 * ts.Rm_Ric_up
            + 4.0 * ts.Rm_That_up
            - hess / 3.0
            - 2.0 * A - 2.0 * np.einsum('...ij->...ji', A))


def rhs_ricci_norm_evolution(ts):
    """Evolution of |Ric|^2 under the flow."""
    m = ts.m
    lap_ric2 = scalar_laplacian(ts.Ric_norm2, m)
    lap_That, A = ts.That_traces
    return (lap_ric2
            - 2.0 * ts.nabla_Ric_norms[0]
            + 4.0 * np.einsum('...ij,...ij->...', ts.Rm_Ric_up, ts.Ric_up)
            + (4.0 / 3.0) * ts.state.T_norm2 * ts.Ric_norm2
            + 8.0 * np.einsum('...ij,...ij->...', ts.Rm_That_up, ts.Ric_up)
            + (2.0 / 3.0) * ts.b.R * ts.lap_T2
            + 4.0 * np.einsum('...ij,...ij->...', ts.Ric_up, lap_That)
            - (2.0 / 3.0) * np.einsum('...ij,...ij->...', ts.Ric_up, ts.hess_T2)
            - 8.0 * np.einsum('...ij,...ij->...', ts.Ric_up, A))


def rhs_scalar_evolution(ts):
    """Evolution of R: Delta R + 2|Ric|^2 - (2/3) R^2 + torsion terms."""
    return (scalar_laplacian(ts.b.R, ts.m)
            + 2.0 * ts.Ric_norm2
            - (2.0 / 3.0) * ts.b.R ** 2
            + 4.0 * ts.Rm_TT
            - 4.0 * ts.gradT_combo)


@dataclass
class AuxTerms:
    """Auxiliary scalars of the shifted-Ricci evolution equations."""
    I: np.ndarray
    J: np.ndarray
    H: np.ndarray
    grad_combo: np.ndarray


def compute_aux_terms(ts):
    """I, J and H, and the gradient combination of the pinching equation."""
    c = ts.c
    Rt = ts.Rt
    rn2 = ts.Ric_t_norm2
    I = (-(4.0 / 3.0) * Rt * rn2
         + (16.0 * c / 21.0) * rn2
         + 8.0 * np.einsum('...ij,...ij->...', ts.Rm_That_up, ts.Ric_t_up)
         + (4.0 * c / 21.0) * Rt ** 2
         - (16.0 / 147.0) * c * c * Rt)
    lap_That, A = ts.That_traces
    J = ((2.0 / 3.0) * Rt * ts.lap_T2
         + 4.0 * np.einsum('...ij,...ij->...', ts.Ric_t_up, lap_That)
         - (2.0 / 3.0) * np.einsum('...ij,...ij->...', ts.Ric_t_up, ts.hess_T2)
         - 8.0 * np.einsum('...ij,...ij->...', ts.Ric_t_up, A))
    H = (-(2.0 / 3.0) * Rt ** 2
         + (16.0 / 21.0) * c * Rt
         - (8.0 / 21.0) * c * c
         + 4.0 * ts.Rm_TT
         - 4.0 * ts.gradT_combo)
    return AuxTerms(I=I, J=J, H=H, grad_combo=ts.nabla_Ric_norms[1])


def rhs_shifted_ricci_norm_evolution(ts):
    """Evolution of |Ric + (c/7) g|^2; nabla Ric_t = nabla Ric because
    nabla g vanishes to rounding."""
    lap = scalar_laplacian(ts.Ric_t_norm2, ts.m)
    rm_ric = np.sum(al.pair_apply(ts.b.Rm, ts.Ric_t_up) * ts.Ric_t_up,
                    axis=(-2, -1))
    return (lap - 2.0 * ts.nabla_Ric_norms[0] + 4.0 * rm_ric
            + ts.aux.I + ts.aux.J)


def rhs_shifted_scalar_evolution(ts):
    """Evolution of R + c."""
    return scalar_laplacian(ts.Rt, ts.m) + 2.0 * ts.Ric_t_norm2 + ts.aux.H


def rhs_pinching_evolution(ts, gamma):
    """Full evolution equation of f = |E|^2 / (R + c)^gamma."""
    aux, c, Rt = ts.aux, ts.c, ts.Rt
    f, E2 = ts.f_field(gamma), ts.E_norm2
    grad_Rt = ts.grad_R                      # nabla(R + c) = nabla R
    grad_Rt_n2 = np.einsum('...ab,...a,...b->...', ts.m.ginv, grad_Rt,
                           grad_Rt, optimize=True)
    bracket = (-gamma * E2 ** 2
               + 2.0 * Rt * ts.WEE
               - 0.8 * Rt * ts.E3
               + (5.0 / 21.0 - gamma / 7.0) * Rt ** 2 * E2
               + (c / 21.0) * Rt * E2
               - (2.0 * c / 49.0) * Rt ** 3)
    return (ts.transport(gamma)
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
    """The divergence identity (StateTensors.div_gap); order h^4."""
    return float(np.max(np.abs(ts.div_gap)))


def bochner_residual(ts):
    """Delta |Ric|^2 - 2 R^ij Delta R_ij - 2 |nabla Ric|^2; order h^4."""
    m = ts.m
    lap_ric2 = scalar_laplacian(ts.Ric_norm2, m)
    # a whole-grid nabla Ric for the neighbours hessian_traces reads,
    # dropped once it returns
    lap_ric = hessian_traces(covariant_derivative(ts.b.Ric, m, 2), m)
    mid = 2.0 * np.einsum('...ij,...ij->...', ts.Ric_up, lap_ric)
    return float(np.max(np.abs(lap_ric2 - mid
                                - 2.0 * ts.nabla_Ric_norms[0])))


def ricci_trace_vs_scalar_residual(ts):
    """Trace of the Ricci-evolution RHS against the scalar-evolution RHS,
    offset by the divergence identity; order h^4 (the derivation commutes
    traces with the Laplacian and substitutes R = -|T|^2)."""
    m = ts.m
    tr32 = np.einsum('...ij,...ij->...', m.ginv, rhs_ricci_evolution(ts))
    S_up = slot_apply(ts.state.S, m.ginv, 2)
    metric_motion = 2.0 * np.einsum('...ij,...ij->...', S_up, ts.b.Ric)
    lhs = tr32 + metric_motion - rhs_scalar_evolution(ts) + 4.0 * ts.div_gap
    return float(np.max(np.abs(lhs)))


def shifted_norm_consistency_residual(ts):
    """RHS(shifted Ricci norm) - [RHS(Ricci norm) + (2c/7) RHS(scalar)];
    order h^4 through the R = -|T|^2 substitution in the I-term."""
    lhs = rhs_shifted_ricci_norm_evolution(ts)
    rhs = rhs_ricci_norm_evolution(ts) + (2.0 * ts.c / 7.0) * rhs_scalar_evolution(ts)
    return float(np.max(np.abs(lhs - rhs)))


def shifted_scalar_consistency_residual(ts):
    """RHS(shifted scalar) - RHS(scalar): pure pointwise algebra, so this
    must vanish to rounding."""
    lhs = rhs_shifted_scalar_evolution(ts)
    return float(np.max(np.abs(lhs - rhs_scalar_evolution(ts))))


def lichnerowicz_metric_residual(ts):
    """Lichnerowicz Laplacian applied to g itself collapses to Delta g = 0
    (exact metric compatibility)."""
    m = ts.m
    lich = lichnerowicz(ts, m.g, m.ginv, covariant_derivative(m.g, m, 2))
    return float(np.max(np.abs(lich)))


# One row per cross-check: (name, residual, constant, exact).  An exact
# check's tolerance is the constant; the others are 4th order, with
# tolerance constant * max(eps, 1e-3) * h^4, calibrated on the reference
# scenario with ample headroom.
CROSSCHECKS = (
    ('divergence_identity', divergence_identity_residual, 0.2, False),
    ('bochner', bochner_residual, 20.0, False),
    ('ricci_trace_vs_scalar', ricci_trace_vs_scalar_residual, 20.0, False),
    ('shifted_norm_consistency', shifted_norm_consistency_residual, 1.0,
     False),
    ('shifted_scalar_consistency', shifted_scalar_consistency_residual,
     1e-9, True),
    ('lichnerowicz_metric', lichnerowicz_metric_residual, 1e-9, True),
)


def crosscheck_residuals(state, c):
    """Every CROSSCHECKS residual at one state with shift c."""
    ts = StateTensors(state, c=c)
    return {name: residual(ts) for name, residual, _, _ in CROSSCHECKS}


# ---------------------------------------------------------------------------
# trajectory machinery and checks
# ---------------------------------------------------------------------------

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


def _difference_reads(state, c, gammas):
    """What the centered differences read at an off-centre state: Ric, R,
    |Ric|^2, |Ric_t|^2 and f per gamma, from its curvature alone."""
    ts = StateTensors(state, c=c)
    return {'Ric': ts.b.Ric, 'R': ts.b.R, 'Ric_norm2': ts.Ric_norm2,
            'Ric_t_norm2': ts.Ric_t_norm2,
            **{('f', g): ts.f_field(g) for g in gammas}}


def centered_states(state0, dt, c, gammas=(2.0,)):
    """One trajectory of fixed steps dt/4 from state0 to t0 + 2 dt: the
    centre state at t0 + dt and, per spacing s in dt, dt/2, dt/4, the
    differences {key: after - before} of the _difference_reads at
    t0 + dt + s and t0 + dt - s.  A "before" read is held only until its
    "after" one is read, and each other state (state0 too, if passed its
    only reference) is dropped once passed."""
    q, state = dt / 4.0, state0
    before, diffs = {4: _difference_reads(state0, c, gammas)}, {}
    del state0
    for k in range(1, 9):
        state = step_fixed(state, q)
        if k in (2, 3):
            before[4 - k] = _difference_reads(state, c, gammas)
        elif k == 4:
            centre = state
        elif k in (5, 6, 8):
            diffs[k - 4] = {key: after - before[k - 4][key] for key, after
                            in _difference_reads(state, c, gammas).items()}
            del before[k - 4]
    return centre, {j * q: diffs[j] for j in (4, 2, 1)}


def evaluate_residuals(centre, sides, c, gammas=(2.0,)):
    """Max-norm residuals of every evolution equation, {name: {s: r}}: the
    right-hand sides are built once at the centre state and compared with
    the centered difference at each spacing s, from centered_states'
    differences {s: {key: after - before}}."""
    ts = StateTensors(centre, c=c)
    rhs_ric, rhs_R = rhs_general_flow(ts)
    checks = [
        ('general_flow_ricci', 'Ric', rhs_ric),
        ('general_flow_scalar', 'R', rhs_R),
        ('ricci_evolution', 'Ric', rhs_ricci_evolution(ts)),
        ('ricci_norm_evolution', 'Ric_norm2', rhs_ricci_norm_evolution(ts)),
        ('scalar_evolution', 'R', rhs_scalar_evolution(ts)),
        ('shifted_ricci_norm_evolution', 'Ric_t_norm2',
         rhs_shifted_ricci_norm_evolution(ts)),
        ('shifted_scalar_evolution', 'R', rhs_shifted_scalar_evolution(ts))]
    checks += [(f'pinching_evolution_g{g:g}', ('f', g),
                rhs_pinching_evolution(ts, g)) for g in gammas]
    return {name: {s: float(np.max(np.abs(diff[key] / (2.0 * s) - rhs)))
                   for s, diff in sides.items()}
            for name, key, rhs in checks}


def run_evolution_checks(state0, dt, c, gammas=(1.5, 2.0, 3.0)):
    """Every evolution check at spacings dt, dt/2, dt/4 centered at t0 + dt
    on one trajectory from state0, as verification.json records keyed by
    name with the difference estimator's time order.  A check passes when
    its order reaches TIME_MIN_ORDER or its finest residual is at the
    rounding floor.  Given state0's only reference, it drops it after a step."""
    hold, state0 = [state0], None
    residuals = evaluate_residuals(
        *centered_states(hold.pop(), dt, c, gammas), c, gammas)
    out = {}
    for n, rs in residuals.items():
        order = difference_order(rs)
        floor = rs[min(rs)] <= RESIDUAL_FLOOR
        out[n] = {
            'residuals': {repr(s): v for s, v in sorted(rs.items())},
            'measured_order': order, 'min_order': TIME_MIN_ORDER,
            'passed': floor or (order is not None
                                and order >= TIME_MIN_ORDER)}
    return out


def pinching_record(ts, end=False):
    """What minimal_pinching_constant reads of StateTensors ``ts``: t,
    f = f_field(2) and, unless ``end`` (the first or last state of a run,
    never the middle of a triple), base and den; None when min(R + c) <= 0."""
    from .errors import NonPositiveShiftedScalar
    try:
        rec = {'t': ts.state.t, 'f': ts.f_field(2.0)}
    except NonPositiveShiftedScalar:
        return None
    if end:
        return rec
    f, rt = rec['f'], ts.Rt
    rec['base'] = ts.transport(2.0) - 2.0 * rt * f ** 2
    w2 = ts.W_c1_field ** 2
    rec['den'] = 4.0 * rt * f * (np.sqrt(f) + 1.0 + w2 / rt ** 2)
    return rec


def minimal_pinching_constant(prev, mid, nxt):
    """Smallest C >= 0 making the gamma = 2 pinching inequality

      df/dt <= Delta f + (2/Rt)<grad f, grad Rt>
               + 4 Rt f (-f/2 + C sqrt(f) + C + C |W|_C1^2 / Rt^2)

    hold pointwise, read as df/dt - base <= C den from the pinching_record
    of three consecutive states sharing one shift c; None when any record
    is None (min(R + c) <= 0 there).
    """
    if None in (prev, mid, nxt):
        return None
    r, s = mid['t'] - prev['t'], nxt['t'] - mid['t']
    if abs(r - s) < 1e-13 * max(r, s):
        dfdt = (nxt['f'] - prev['f']) / (r + s)
    else:
        dfdt = (-s / (r * (r + s))) * prev['f'] \
            + ((s - r) / (r * s)) * mid['f'] + (r / (s * (r + s))) * nxt['f']
    num, den = dfdt - mid['base'], mid['den']
    mask = den > 0.0
    if not np.any(mask):
        return 0.0
    ratio = np.where(mask & (num > 0.0), num / np.where(mask, den, 1.0), 0.0)
    return float(np.max(ratio))


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

STRUCTURE_MIN_ORDER = 3.5
TIME_MIN_ORDER = 1.8
RESIDUAL_FLOOR = 1e-12


def pinching_shift(cfg, state):
    """The shift c of R + c: the configured number, or auto_shift of the
    state's curvature."""
    if cfg.pinching_c == 'auto':
        return auto_shift(state.bundle)
    return cfg.pinching_c


def ricci_identity_residual(alpha, m, Rm):
    """Max-norm residual over i<j of (nabla_i nabla_j - nabla_j nabla_i)
    alpha_k + R_ijkl alpha^l on a 1-form, Rm's rows expanded per al.chunks."""
    i, j, n = al.PAIR[0][:, 0], al.PAIR[1][:, 0], m.vol.size
    dd = second_covariant(alpha, m, 1).reshape(n, 7, 7, 7)
    alpha_up = np.einsum('...lm,...m->...l', m.ginv, alpha).reshape(n, 7)
    Rm, term = Rm.reshape(n, i.size, i.size), np.empty((n, i.size, 7))
    for c in al.chunks(n, i.size * 49):
        term[c] = np.einsum('...Pkl,...l->...Pk', al.form_to_dense(2, Rm[c]),
                            alpha_up[c], optimize=True)
    return float(np.max(np.abs(dd[:, i, j, :] - dd[:, j, i, :] + term)))


def structure_residuals(state):
    """Max-norm residuals of the identities of a closed structure at one
    state (Lotay-Wei, GAFA 2017), in one pass that builds each shared
    tensor once.  Forms are differentiated, and the two form-gradient
    formulas read, on increasing components."""
    m, T, b, phi, psi = (state.metric, state.torsion, state.bundle,
                         state.phi, state.psi)
    spec, n = state.spec, m.vol.size
    Tp, gi = T.reshape(n, 7, 7), m.ginv.reshape(n, 7, 7)
    phis, psis = phi.values.reshape(n, -1), psi.values.reshape(n, -1)

    def gap(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs)))

    def block_gaps(gaps):
        """Each gap's max over the al.chunks blocks c of gaps(c), a dict of
        pointwise gaps; the widest temporary is a block of dense Rm rows."""
        per = [gaps(c) for c in al.chunks(n, al.NCOMP[2] ** 2 * 7)]
        return {name: float(np.max([p[name] for p in per])) for name in per[0]}

    # nabla_m psi = -T_m ^ phi (T_m the 1-form T_mi dx^i)
    npsi = ge.form_covariant_derivative(psi, m).reshape(n, 7, -1)
    res = block_gaps(lambda c: {'nabla_psi_formula': gap(
        npsi[c], -al.wedge_comps(1, 3, Tp[c], phis[c, None, :]))})
    del npsi

    # nabla_i phi = T_i^m (e_m -| psi)
    idx, sgn = al.basis_interior_table(4)
    nphi = ge.form_covariant_derivative(phi, m).reshape(n, 7, -1)
    res.update(block_gaps(lambda c: {'torsion_defines_nabla_phi': gap(
        nphi[c],
        slot_apply(Tp[c], gi[c], 2, (1,)) @ (psis[c][:, idx] * sgn))}))
    del nphi

    Rm, Ric = b.Rm.reshape(n, al.NCOMP[2], -1), b.Ric.reshape(n, 7, 7)
    eP = al.form_to_dense(2, np.eye(al.NCOMP[2]))

    def torsion_gaps(c):
        t, d = Tp[c], covariant_block(T, m, 2, c)
        phi_up = slot_apply(al.form_to_dense(3, phis[c]), gi[c], 3, (1, 2))
        # Y_ijk = (R_ijmn / 4 + T_im T_jn / 2) phi_k^{mn}, R_ijmn = e^P_ij
        # R_Pmn from the rows R_(i<j)mn
        Y = 0.25 * np.einsum('Pij,...Pmn,...kmn->...ijk', eP,
                             al.form_to_dense(2, Rm[c]), phi_up,
                             optimize=True)
        Y += 0.5 * np.einsum('...im,...jn,...kmn->...ijk', t, t, phi_up,
                             optimize=True)
        return {
            # nabla_i T_jk - nabla_j T_ik = -(R_ijmn / 2 + T_im T_jn)
            # phi_k^{mn}
            'bianchi_type_identity': gap(
                d - np.einsum('...ijk->...jik', d), -2.0 * Y),
            # the six-term formula nabla_i T_jk = -Y_ijk - Y_kji + Y_ikj
            'torsion_gradient_formula': gap(
                d, -Y - np.einsum('...ijk->...kji', Y)
                + np.einsum('...ijk->...ikj', Y)),
            # R_jk = -(nabla_i T_jm) phi_k^{im} - T_j^i T_ik
            'ricci_from_torsion_vs_metric': gap(
                -np.einsum('...ijm,...kim->...jk', d, phi_up, optimize=True)
                - np.einsum('...ja,...ak->...jk',
                            slot_apply(t, gi[c], 2, (1,)), t, optimize=True),
                Ric[c])}

    res.update(block_gaps(torsion_gaps))
    res['scalar_equals_minus_torsion_norm'] = gap(
        b.R, -tensor_norm2(T, m, 2))

    # the Lie-algebra torsion tau2 is divergence-free: nabla^i tau2_ij = 0
    tau2 = ge.tau2(phi, psi, m)
    div = al.interior_comps(2, m.ginv, ge.form_covariant_derivative(tau2, m))
    res['lie_algebra_torsion_divergence'] = float(np.max(np.abs(
        div.sum(axis=-2))))

    # the commutator identity on a smooth periodic 1-form and the rows of Rm
    alpha = np.zeros(spec.shape + (7,))
    for comp in range(7):
        for a in spec.active_axes:
            k = TWO_PI / spec.periods[a]
            alpha[..., comp] += np.sin(k * spec.coordinates(a) + 0.37 * comp
                                       + 0.11 * a)
    res['ricci_commutator_identity'] = ricci_identity_residual(alpha, m, b.Rm)
    return res


def _record(report, group, records):
    """Store one group's per-check records; the report passes only if
    every record does."""
    report['groups'][group] = records
    report['passed'] &= all(r['passed'] for r in records.values())


def run_verification(cfg, run_dir, log=print):
    """Structure identities (spatial order against the grid halved along
    each active axis), fixed-state cross-checks, and the evolution-equation
    suite; returns the report dict (also written to verification.json)."""
    report = {'passed': True, 'groups': {}}
    eps = cfg.initial_epsilon if cfg.initial_family != 'flat' else 0.0
    state_hi = FlowState(0.0, cfg.initial_phi())
    c = pinching_shift(cfg, state_hi)
    h = state_hi.spec.min_active_spacing()
    scale4 = max(eps, 1e-3) * h ** 4

    if 'structure' in cfg.checks_enable:
        res_hi = structure_residuals(state_hi)
        if cfg.initial_family == 'flat':
            records = {name: {'residual': r, 'passed': r <= 1e-11}
                       for name, r in res_hi.items()}
        else:
            res_lo = structure_residuals(
                FlowState(0.0, cfg.initial_phi(state_hi.spec.halved())))
            records = {}
            for name, r_hi in res_hi.items():
                r_lo = res_lo[name]
                if r_hi <= RESIDUAL_FLOOR:
                    order, ok = None, True
                else:
                    order = float(np.log2(r_lo / r_hi))
                    ok = order >= STRUCTURE_MIN_ORDER
                records[name] = {
                    'residual_coarse': r_lo, 'residual_fine': r_hi,
                    'order': order, 'min_order': STRUCTURE_MIN_ORDER,
                    'passed': ok}
        _record(report, 'structure', records)

    if 'crosschecks' in cfg.checks_enable:
        res = crosscheck_residuals(state_hi, c)
        records = {}
        for name, _, const, exact in CROSSCHECKS:
            tol = const if exact else const * scale4
            records[name] = {'residual': res[name], 'tolerance': tol,
                             'passed': res[name] <= tol}
        _record(report, 'crosschecks', records)

    if 'evolution' in cfg.checks_enable:
        dt = cfg.verify_dt_multiplier * 0.5 * (h * h)
        hold, state_hi = [state_hi], None   # popped: the callee drops it
        _record(report, 'evolution', run_evolution_checks(hold.pop(), dt, c))

    report['pinching_shift_c'] = c
    atomic_write_json(os.path.join(run_dir, 'verification.json'), report)
    return report
