import numpy as np
import pytest

from g2flow import flow as fl
from g2flow import grid as gr
from g2flow.initial_data import flat_phi_field, perturbed_phi_field

EPS = 0.05


def scenario_spec(n, axes=(0, 1)):
    return gr.GridSpec.from_active(n, axes)


def perturbed_state(n, eps=EPS):
    return fl.FlowState(0.0, perturbed_phi_field(scenario_spec(n), eps))


def flat_state(n=8):
    return fl.FlowState(0.0, flat_phi_field(scenario_spec(n)))


def smooth_field(spec, ncomp, seed=0, amp=1.0):
    """Deterministic few-mode field used where tests need generic smooth
    data that refines consistently across grids."""
    rng = np.random.default_rng(seed)
    out = np.zeros(spec.shape + (ncomp,))
    for comp in range(ncomp):
        f = np.zeros(spec.shape)
        for _ in range(2):
            ph = rng.uniform(0, 2 * np.pi)
            a = rng.normal() * amp
            arg = np.zeros(spec.shape)
            for ax in spec.active_axes:
                k = int(rng.integers(-2, 3))
                arg = arg + k * spec.coordinates(ax)
            f = f + a * np.sin(arg + ph)
        out[..., comp] = f
    return out


@pytest.fixture(scope="session")
def state16():
    return perturbed_state(16)


@pytest.fixture(scope="session")
def state32():
    return perturbed_state(32)


@pytest.fixture(scope="session")
def state64():
    return perturbed_state(64)
