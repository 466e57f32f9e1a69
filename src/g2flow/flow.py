"""Time integration of the closed Laplacian flow d phi/dt = d(d* phi).

The integrator is classical four-stage Runge-Kutta.  Every stage derivative
is an exact discrete differential, so closedness and the de Rham class of
the evolving 3-form are preserved to rounding no matter the step size; the
step controller only guards positivity and the parabolic scale.
"""

import binascii
import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as al
from .errors import NotPositive, PositivityLost, SnapshotError, Stalled
from .geometry import (MetricField, hodge_star_field, pair_norm2,
                       psi_from_phi, riemann, tensor_norm2, torsion_from_phi)
from .grid import (MIN_POINTS, FormField, GridSpec, exterior_derivative,
                   integrate_scalar, resolvable)

# retries of a step whose stages leave the positive cone, each at half dt
MAX_RETRIES = 8
# largest ||d phi|| a restored 3-form may show
CLOSED_TOL = 1e-9


@dataclass(frozen=True)
class StepPolicy:
    """Step-size control: dt = safety * h_min^2 / (1 + max(|T|^2 + |Rm|)),
    clipped to [dt_floor, max_dt]; positivity failures halve and retry."""
    safety: float = 0.5
    dt_floor: float = 1e-9
    max_dt: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if self.dt_floor <= 0 or self.max_dt < self.dt_floor:
            raise ValueError("need 0 < dt_floor <= max_dt")


class FlowState:
    """Flow snapshot: time, the closed 3-form, and lazily derived geometry.

    The dual 4-form, metric, curvature, torsion and the evolution formulas'
    torsion terms are computed on first access and cached; the 3-form array
    is frozen so caches can never go stale.  ``dt`` is the step that
    produced the state (None for a state that no step produced).
    """

    def __init__(self, t, phi, step_index=0, dt=None):
        self.t = float(t)
        self.phi = phi
        self.step_index = int(step_index)
        self.dt = dt

    @property
    def spec(self):
        return self.phi.spec

    def closedness(self):
        return exterior_derivative(self.phi).max_abs()

    @cached_property
    def metric(self):
        return MetricField.from_phi(self.phi)

    @cached_property
    def psi(self):
        return psi_from_phi(self.phi, self.metric)

    @cached_property
    def bundle(self):
        """Curvature bundle of the metric (geometry.riemann)."""
        return riemann(self.metric)

    @cached_property
    def torsion(self):
        """The raw torsion 2-tensor T (skew to discretization error)."""
        return torsion_from_phi(self.phi, self.metric)

    @cached_property
    def T(self):
        """The exact skew part of the torsion; That, T_norm2 and S are built
        from it, so S is symmetric to rounding."""
        return 0.5 * (self.torsion - np.einsum('...ij->...ji', self.torsion))

    @cached_property
    def That(self):
        """The squared torsion That_ij = T_i^k T_kj."""
        T_up = al.slot_apply(self.T, self.metric.ginv, 2, (1,))
        return np.einsum('...ik,...kj->...ij', T_up, self.T, optimize=True)

    @cached_property
    def T_norm2(self):
        return tensor_norm2(self.T, self.metric, 2)

    @cached_property
    def S(self):
        """The flow tensor S = Ric + |T|^2 g / 3 + 2 That."""
        return (self.bundle.Ric
                + (self.T_norm2[..., None, None] / 3.0) * self.metric.g
                + 2.0 * self.That)

    def volume(self):
        """Total volume of the induced metric (the functional whose
        gradient flow this is)."""
        return integrate_scalar(self.metric.vol, self.spec)


def rhs(phi, m=None, psi=None):
    """d(d* phi) on a closed 3-form field; exact in the image of d.  The
    metric ``m`` and dual 4-form ``psi`` of phi are built unless given (a
    FlowState passes its cached ones); d* phi = -* d psi on 3-forms.

    A 3-form outside the positive cone raises NotPositive with the flat
    index of the first bad point, for the step controller to translate.
    """
    if m is None:
        m = MetricField.from_phi(phi)
    if psi is None:
        psi = psi_from_phi(phi, m)
    dstar = hodge_star_field(exterior_derivative(psi), m)
    return exterior_derivative(FormField(2, phi.spec, -dstar.values))


def suggest_dt(state, policy):
    """Parabolic step from the current curvature and torsion scales."""
    h = state.spec.min_active_spacing()
    if h is None:
        return policy.max_dt
    rm_norm = np.sqrt(pair_norm2(state.bundle.Rm, state.metric))
    crowd = float(np.max(state.T_norm2 + rm_norm))
    dt = policy.safety * h * h / (1.0 + crowd)
    return min(dt, policy.max_dt)


def _rk4(state, dt):
    """One classical RK4 step of the state's 3-form; stage k1 reads the
    state's cached metric and dual 4-form."""
    phi = state.phi
    k1 = rhs(phi, state.metric, state.psi)
    k2 = rhs(FormField(3, phi.spec, phi.values + 0.5 * dt * k1.values))
    k3 = rhs(FormField(3, phi.spec, phi.values + 0.5 * dt * k2.values))
    k4 = rhs(FormField(3, phi.spec, phi.values + dt * k3.values))
    upd = (k1.values + 2.0 * k2.values + 2.0 * k3.values + k4.values) * (dt / 6.0)
    return FormField(3, phi.spec, phi.values + upd)


def step(state, policy=StepPolicy()):
    """Advance one accepted step; returns the new FlowState.

    The step is rejected and halved when any stage leaves the positive
    cone; Stalled is raised if control falls below dt_floor, and
    PositivityLost if the retry budget is exhausted.
    """
    dt = suggest_dt(state, policy)
    if not dt >= policy.dt_floor:
        raise Stalled(f"suggested dt {dt:.3e} below floor", dt=dt)
    history = []
    last_err = None
    for _ in range(MAX_RETRIES + 1):
        history.append(dt)
        try:
            new = FlowState(state.t + dt, _rk4(state, dt),
                            state.step_index + 1, dt)
            new.metric  # force the positivity check of the accepted state
            return new
        except NotPositive as e:
            last_err = e
            dt *= 0.5
            if not dt >= policy.dt_floor:
                raise Stalled("positivity retries drove dt below floor",
                              dt=dt, dt_history=history) from e
    raise PositivityLost("positivity failed after retries", t=state.t,
                         point=getattr(last_err, 'point', None),
                         dt_history=history)


def step_fixed(state, dt):
    """One RK4 step at a prescribed dt (verification trajectories); no
    retry logic, positivity failure raises immediately."""
    try:
        new = FlowState(state.t + dt, _rk4(state, dt), state.step_index + 1,
                        dt)
        new.metric
        return new
    except NotPositive as e:
        raise PositivityLost("positivity lost at fixed dt", t=state.t,
                             point=e.point, dt_history=(dt,)) from e


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------

MAGIC = b"G2SNAP01"
SNAP_VERSION = 1
SNAP_HEADER = struct.Struct('<8sII7I7dIdQII')


def _axis_mask(spec):
    """Bit a set for every active axis a of the grid."""
    return sum(1 << a for a in spec.active_axes)


def snapshot(state, path, aux=None):
    """Write a FlowState to a binary snapshot (atomic: temp then rename).

    Layout: magic, version, degree, shape, periods, active-axis mask, t,
    step index, CRC32 of the payload, auxiliary JSON (small run bookkeeping
    scalars), then the component array as little-endian float64.  A
    non-finite aux number raises SnapshotError before any file is written.
    """
    spec = state.spec
    try:
        aux_bytes = json.dumps(aux or {}, sort_keys=True, allow_nan=False,
                               separators=(",", ":")).encode()
    except ValueError as e:
        raise SnapshotError(f"auxiliary block not writable: {e}") from e
    payload = np.ascontiguousarray(state.phi.values, dtype='<f8').tobytes()
    header = SNAP_HEADER.pack(
        MAGIC, SNAP_VERSION, state.phi.degree, *spec.shape, *spec.periods,
        _axis_mask(spec), state.t, state.step_index,
        binascii.crc32(payload), len(aux_bytes))
    tmp = str(path) + ".tmp"
    with open(tmp, 'wb') as f:
        f.write(header)
        f.write(aux_bytes)
        f.write(payload)
    os.replace(tmp, path)


def _finite_number(text):
    """restore's aux JSON number hook: NaN, Infinity and 1e999 raise."""
    value = float(text)
    if not np.isfinite(value):
        raise SnapshotError(f"auxiliary block holds non-finite {text}")
    return value


def restore(path):
    """Read a snapshot back; returns (FlowState, aux dict).

    Fails loudly (SnapshotError) on a bad magic, unknown version, a
    degree other than 3, a shape entry other than 1 or >= 4, a period not
    finite and positive, a negative or non-finite t, an active-axis mask
    the shape does not imply, size or CRC mismatch, non-finite values in
    the aux block or payload, or a 3-form that is not closed.
    """
    head_len = SNAP_HEADER.size
    with open(path, 'rb') as f:
        raw = f.read()
    if len(raw) < head_len:
        raise SnapshotError("snapshot truncated inside header")
    fields = SNAP_HEADER.unpack(raw[:head_len])
    magic, version, degree = fields[0], fields[1], fields[2]
    if magic != MAGIC:
        raise SnapshotError("bad magic; not a snapshot file")
    if version != SNAP_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    shape = fields[3:10]
    periods = fields[10:17]
    mask = fields[17]
    t = fields[18]
    step_index = fields[19]
    crc = fields[20]
    aux_len = fields[21]
    if degree != 3:
        raise SnapshotError(f"snapshot degree {degree}, want 3")
    if not resolvable(shape):
        raise SnapshotError(f"snapshot shape {shape}: each axis needs 1 or "
                            f"at least {MIN_POINTS} points")
    if not all(0.0 < p < np.inf for p in periods):
        raise SnapshotError(f"snapshot periods {periods} are not all "
                            "finite and positive")
    if not 0.0 <= t < np.inf:
        raise SnapshotError(f"snapshot time {t} is not finite and >= 0")
    spec = GridSpec(shape, periods)
    if mask != _axis_mask(spec):
        raise SnapshotError(
            f"active-axis mask {mask:#x} does not match the shape "
            f"(want {_axis_mask(spec):#x})")
    ncomp = al.NCOMP[3]
    want = spec.npoints * ncomp * 8
    aux_end = head_len + aux_len
    if len(raw) != aux_end + want:
        raise SnapshotError(
            f"snapshot size mismatch: have {len(raw)}, want {aux_end + want}")
    try:
        aux = json.loads(raw[head_len:aux_end].decode(),
                         parse_constant=_finite_number,
                         parse_float=_finite_number)
    except ValueError as e:
        raise SnapshotError("corrupt auxiliary block") from e
    payload = raw[aux_end:]
    if binascii.crc32(payload) != crc:
        raise SnapshotError("payload CRC mismatch")
    values = np.frombuffer(payload, dtype='<f8').astype(np.float64)
    values = values.reshape(spec.shape + (ncomp,))
    if not np.all(np.isfinite(values)):
        raise SnapshotError("snapshot payload holds non-finite values")
    phi = FormField(3, spec, values)
    resid = exterior_derivative(phi).max_abs()
    if not resid <= CLOSED_TOL:
        raise SnapshotError(
            f"restored form is not closed (||d phi|| = {resid:.3e})")
    return FlowState(t, phi, step_index), aux
