"""Built-in initial data for flows and verification runs.

The perturbed family is phi = phi_std + eps * d(beta) with beta a smooth
periodic 2-form given by a short list of Fourier modes.  Because the
exterior derivative is applied discretely, the perturbation is exactly
closed on every grid and stays in the de Rham class of the flat structure.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import DIM, POS, standard_phi
from .grid import FormField


@dataclass(frozen=True)
class Mode:
    """One Fourier mode of the potential 2-form.

    waves: integer wavenumber along each of the 7 axes (nonzero entries
    only on active axes); comp: increasing index pair (0-based) of the
    2-form component; amplitude and phase set a cos(k.x + phase) profile.
    """
    waves: tuple
    comp: tuple
    amplitude: float = 1.0
    phase: float = 0.0


# Mixed components and incommensurate phases; chosen so the traceless Ricci
# norm of the resulting structure is bounded away from zero across the grid
# (monitored quantities divide by it).
DEFAULT_MODES = (
    Mode((1, 0, 0, 0, 0, 0, 0), (1, 2), 1.00, 0.40),
    Mode((0, 1, 0, 0, 0, 0, 0), (3, 4), 0.85, 1.10),
    Mode((1, 1, 0, 0, 0, 0, 0), (5, 6), 0.60, 0.70),
    Mode((1, -1, 0, 0, 0, 0, 0), (0, 3), 0.45, 0.20),
    Mode((0, 1, 0, 0, 0, 0, 0), (1, 4), 0.35, 2.10),
)


def check_modes(spec, modes):
    """Raise ValueError if a mode has more than 7 wavenumbers, a component
    that is not an increasing index pair, or a wave along an inactive axis
    of spec."""
    for mode in modes:
        if len(mode.waves) > DIM:
            raise ValueError(f"mode has {len(mode.waves)} wavenumbers, "
                             f"at most {DIM}")
        i, j = mode.comp
        if not 0 <= i < j < DIM:
            raise ValueError(f"mode component {i + 1},{j + 1} is not a pair "
                             f"a,b with 1 <= a < b <= {DIM}")
        for a, k in enumerate(mode.waves):
            if k != 0 and spec.shape[a] == 1:
                raise ValueError(f"mode wave on inactive axis {a + 1}")


def potential_2form(spec, modes=DEFAULT_MODES):
    """Sample the mode list into a 2-form field on the grid."""
    check_modes(spec, modes)
    vals = spec.zeros((21,))
    for mode in modes:
        phase = np.asarray(mode.phase)
        arg = np.zeros(spec.shape)
        for a, k in enumerate(mode.waves):
            if k == 0:
                continue
            arg = arg + (2.0 * np.pi * k / spec.periods[a]) * spec.coordinates(a)
        vals[..., POS[2][tuple(mode.comp)]] += mode.amplitude * np.cos(arg + phase)
    return FormField(2, spec, vals)


def flat_phi_field(spec):
    """Constant standard structure: the torsion-free fixed point."""
    phi = standard_phi()
    vals = np.broadcast_to(phi, spec.shape + phi.shape)
    return FormField(3, spec, vals.copy())


def perturbed_phi_field(spec, epsilon=0.05, modes=DEFAULT_MODES):
    """Exactly closed perturbation of the flat structure in its de Rham
    class; positivity is the caller's responsibility to check (it holds
    for the default modes up to eps of a few tenths)."""
    from .grid import exterior_derivative
    base = flat_phi_field(spec)
    if epsilon == 0.0:
        return base
    dbeta = exterior_derivative(potential_2form(spec, modes))
    return FormField(3, spec, base.values + epsilon * dbeta.values)
