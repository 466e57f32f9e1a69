"""Periodic grids over the flat 7-torus and grid-sampled differential forms.

Fields keep the full 7-axis grid shape (inactive axes have a single point),
followed by component axes.  All derivative operators are 4th-order central
differences built from periodic shifts; along distinct axes they commute
exactly, which is what makes the discrete d o d vanish to rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DIM, INC, NCOMP, POS, wedge_comps
from .errors import DegreeError

TWO_PI = 2.0 * np.pi

# The fewest points on an active axis: on 2 or 3 points the stencil's two
# neighbours on each side wrap onto each other (d sin comes out 0 on 2).
MIN_POINTS = 4


def resolvable(shape):
    """Whether every axis of a grid shape has 1 point or at least
    MIN_POINTS: the rule for every grid that comes from outside."""
    return all(n == 1 or n >= MIN_POINTS for n in shape)


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the 7-torus.

    shape: points per axis (inactive axes have one point).
    periods: coordinate period per axis.
    active_axes: axes along which fields may vary, derived: the axes with
    more than one point.
    """
    shape: tuple
    periods: tuple = (TWO_PI,) * DIM
    active_axes: tuple = field(init=False)

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        periods = tuple(float(p) for p in self.periods)
        if len(shape) != DIM or len(periods) != DIM:
            raise ValueError("shape and periods must have 7 entries")
        if any(n < 1 for n in shape):
            raise ValueError("axis sizes must be positive")
        if any(p <= 0 for p in periods):
            raise ValueError("periods must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "active_axes",
                           tuple(a for a in range(DIM) if shape[a] > 1))

    @classmethod
    def from_active(cls, n, active_axes, period=TWO_PI):
        """Uniform grid: n points along each listed axis, one elsewhere."""
        shape = [1] * DIM
        for a in active_axes:
            shape[a] = int(n)
        return cls(tuple(shape), (float(period),) * DIM)

    def halved(self):
        """The grid with half the points on each active axis, the coarse
        grid of the structure orders."""
        return GridSpec(tuple(max(n // 2, 1) for n in self.shape),
                        self.periods)

    @property
    def spacing(self):
        return tuple(self.periods[a] / self.shape[a] for a in range(DIM))

    @property
    def npoints(self):
        return int(np.prod(self.shape))

    @property
    def cell_volume(self):
        """Coordinate volume per grid cell (product over all 7 periods)."""
        v = 1.0
        for a in range(DIM):
            v *= self.spacing[a] if self.shape[a] > 1 else self.periods[a]
        return v

    def min_active_spacing(self):
        if not self.active_axes:
            return None
        return min(self.spacing[a] for a in self.active_axes)

    def stencil_bound(self):
        """rho_0 = sum_a max_j s(2 pi j / N_a)^2 / h_a^2, s(t) = (8 sin t -
        sin 2t) / 6: the spectral radius of the flat flow linearised on
        exact forms, under the 4th-order stencil, for each axis size (in
        plain floats: parsing a config allocates no array)."""
        return sum(max(((8.0 * math.sin(t) - math.sin(2.0 * t)) / 6.0) ** 2
                       for t in (TWO_PI * j / n for j in range(n)))
                   / self.spacing[a] ** 2
                   for a, n in enumerate(self.shape) if n > 1)

    def coordinates(self, axis):
        """Sample coordinates along one axis, broadcastable to grid shape."""
        n = self.shape[axis]
        x = np.arange(n) * (self.periods[axis] / n)
        newshape = [1] * DIM
        newshape[axis] = n
        return x.reshape(newshape)

    def zeros(self, trailing=()):
        return np.zeros(self.shape + tuple(trailing))


def partial_derivative(values, spec, axis):
    """4th-order central difference along one axis of a grid-shaped array.

    Component axes trail the 7 grid axes and are untouched.  Inactive axes
    produce an exact zero.  The result and one difference are the only
    arrays it allocates; the expression is the four-np.roll formula's.
    """
    if spec.shape[axis] == 1:
        return np.zeros_like(values)
    n, lead = spec.shape[axis], (slice(None),) * axis
    out, d2 = np.empty(values.shape), np.empty(values.shape)
    # v[p + s] - v[p - s] from at most three slice pairs, cut where either
    # index wraps: np.roll's operands on any axis size, 2 and 3 included
    for s, d in ((1, out), (2, d2)):
        fwd, back = s % n, -s % n
        cuts = sorted({0, n - fwd, n - back, n})
        for lo, hi in zip(cuts, cuts[1:]):
            f, b = (lo + fwd) % n, (lo + back) % n
            np.subtract(values[lead + (slice(f, f + hi - lo),)],
                        values[lead + (slice(b, b + hi - lo),)],
                        out=d[lead + (slice(lo, hi),)])
    out *= 8.0
    out -= d2
    out /= 12.0 * spec.spacing[axis]
    return out


def partial_block(values, spec, axis, c):
    """partial_derivative(values, spec, axis) at the flat points of slice c,
    shape (points, *slots), in the same bytes: the same arithmetic on the
    rows of the periodic +-1, +-2 neighbours, gathered from (points, row)
    one at a time, so each spacing's difference is formed in place and at
    most three block arrays are live; along an inactive axis every
    neighbour is the point itself."""
    rows, n = values.reshape(spec.npoints, -1), spec.shape[axis]
    stride = int(np.prod(spec.shape[axis + 1:]))
    p = np.arange(*c.indices(spec.npoints))
    x = p // stride % n

    def neighbour(s):
        return rows[p + ((x + s) % n - x) * stride]
    out = neighbour(1)
    out -= neighbour(-1)
    out *= 8.0
    d2 = neighbour(2)
    d2 -= neighbour(-2)
    out -= d2
    out /= 12.0 * spec.spacing[axis]
    return out.reshape((p.size,) + values.shape[DIM:])


class FormField:
    """Grid-sampled k-form: components (canonical increasing order) per point."""

    __slots__ = ("degree", "spec", "values")

    def __init__(self, degree, spec, values):
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree must be in 0..{DIM}")
        values = np.asarray(values, dtype=np.float64)
        want = spec.shape + (NCOMP[degree],)
        if values.shape != want:
            raise ValueError(f"expected value shape {want}, got {values.shape}")
        self.degree = degree
        self.spec = spec
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, form, spec):
        """Broadcast a pointwise FormK over the whole grid."""
        vals = np.broadcast_to(form.comps, spec.shape + form.comps.shape).copy()
        return cls(form.degree, spec, vals)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def wedge(self, other):
        return FormField(self.degree + other.degree, self.spec,
                         wedge_comps(self.degree, other.degree,
                                     self.values, other.values))


def exterior_derivative(a):
    """Discrete exterior derivative of a FormField.

    (d a)_{i0..ik} = sum_m (-1)^m d_{i_m} a_{i0..^i_m..ik}; built from the
    shared central-difference operator so d(d a) cancels to rounding.
    """
    k = a.degree
    if k >= DIM:
        raise DegreeError("cannot raise degree past 7")
    spec = a.spec
    out = spec.zeros((NCOMP[k + 1],))
    # derivative of every component along every active axis, gathered once
    partials = {ax: partial_derivative(a.values, spec, ax)
                for ax in spec.active_axes}
    for n_out, K in enumerate(INC[k + 1]):
        acc = None
        for m in range(k + 1):
            ax = K[m]
            if ax not in partials:
                continue
            J = K[:m] + K[m + 1:]
            term = partials[ax][..., POS[k][J]]
            if m % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is not None:
            out[..., n_out] = acc
    return FormField(k + 1, spec, out)


def integrate_scalar(values, spec):
    """Integral of a scalar sample over the torus (sum times cell volume).

    The reduction is a plain fixed-order numpy sum, so results are
    reproducible bit for bit for a fixed configuration.
    """
    return float(np.sum(values)) * spec.cell_volume


def period_integrals(a):
    """Integrals of a 3-form field over every coordinate 3-cycle spanned by
    active-axis-aligned planes, averaged over the transverse positions.

    For a closed field these are the de Rham periods; an exact-form update
    leaves them untouched, so they pin the cohomology class along a flow.
    """
    spec = a.spec
    out = {}
    for n, K in enumerate(INC[3]):
        comp = a.values[..., n]
        cell = 1.0
        for ax in K:
            cell *= spec.spacing[ax] if spec.shape[ax] > 1 else spec.periods[ax]
        # sum over the cycle axes, average over the rest
        total = comp
        for ax in K:
            total = total.sum(axis=ax, keepdims=True)
        out[K] = float(np.mean(total) * cell)
    return out
