"""The g2flow benchmark's workloads: inputs, timed units and correctness
gates.

A workload run is a closed loop in one process: each call into g2flow
waits for the previous one.  It runs one *unit*: a number of flow steps
that follows from ``--seconds`` alone, or one whole verification suite.
One unit per fresh process, because later units in a process can run
faster (they reuse memory the first one faulted in), and a run that mixed
first and later units would credit a faster commit with that.

The seed only sets the phases of the perturbation modes; seed 0 is the
acceptance scenario (``initial_data.DEFAULT_MODES`` exactly).  This module
imports neither numpy nor g2flow at load time, so a fresh process that
times its set-up pays for those imports inside the timed region.
"""

import contextlib
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
EPSILON = 0.05

# Closedness, period-drift and volume gates of every accepted step (the
# tolerances of acceptance criteria 4 and 5).
CLOSED_TOL = 1e-12
PERIOD_REL_TOL = 1e-10
VOLUME_REL_SLACK = 1e-10

MIN_STEPS = 3

# (waves, 0-based comp pair, amplitude, phase): a copy of
# g2flow.initial_data.DEFAULT_MODES, kept here so the benchmark owns its
# inputs; selftest.py checks that the two agree.
DEFAULT_MODES = (
    ((1, 0, 0, 0, 0, 0, 0), (1, 2), 1.00, 0.40),
    ((0, 1, 0, 0, 0, 0, 0), (3, 4), 0.85, 1.10),
    ((1, 1, 0, 0, 0, 0, 0), (5, 6), 0.60, 0.70),
    ((1, -1, 0, 0, 0, 0, 0), (0, 3), 0.45, 0.20),
    ((0, 1, 0, 0, 0, 0, 0), (1, 4), 0.35, 2.10),
)

# Waves along axis 3, so the 3-axis data is genuinely 3-D (every pair of
# active axes is coupled by at least one mode).
AXIS3_MODES = (
    ((0, 0, 1, 0, 0, 0, 0), (0, 5), 0.70, 0.90),
    ((1, 0, -1, 0, 0, 0, 0), (2, 6), 0.50, 1.70),
    ((0, 1, 1, 0, 0, 0, 0), (1, 3), 0.40, 2.60),
)


def seeded_modes(base, seed):
    """``base`` unchanged for seed 0; otherwise every phase drawn
    uniformly from [0, 2 pi) by a generator seeded with ``seed``."""
    if seed == 0:
        return base
    rng = random.Random(seed)
    return tuple((w, c, a, rng.uniform(0.0, TWO_PI)) for w, c, a, _ in base)


def modes_config(modes):
    """The ``initial.modes`` value of a mode list (1-based components,
    phases written with every digit so parsing round-trips exactly)."""
    return ';'.join(f"{','.join(map(str, w))}|{c[0] + 1},{c[1] + 1}|"
                    f"{a!r}|{p!r}" for w, c, a, p in modes)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # the reason it exists, and the layers it stresses
    n: int              # points per active axis
    axes: tuple         # 1-based active axes
    modes: tuple        # base mode list (phases re-drawn per seed)
    step_cost_s: float = 0.0    # nominal seconds per step (0: not a flow)
    config: str = ''    # extra config lines
    smoke: dict = field(default_factory=dict)   # overrides for --smoke

    def size(self, seconds, smoke=False):
        """(points per axis, steps) of one unit.  The step count follows
        from --seconds and the nominal step cost on the reference machine,
        never from a measurement, so every commit does the same work."""
        if smoke:
            return self.smoke.get('n', self.n), self.smoke.get('steps', 0)
        if not self.step_cost_s:
            return self.n, 0
        return self.n, max(MIN_STEPS, round(seconds / self.step_cost_s))

    def points(self, seconds, smoke=False):
        return self.size(seconds, smoke)[0] ** len(self.axes)

    def config_text(self, seed, seconds, smoke=False):
        n, steps = self.size(seconds, smoke)
        lines = [
            f'seed = {seed}',
            f'grid.n = {n}',
            f"grid.active_axes = {','.join(map(str, self.axes))}",
            'initial.family = perturbed',
            f'initial.epsilon = {EPSILON!r}',
            f'initial.modes = {modes_config(seeded_modes(self.modes, seed))}',
            f'flow.steps = {steps}',
        ]
        extra = self.smoke.get('config', '') if smoke else ''
        return '\n'.join(lines) + '\n' + self.config + extra


# Which layer metric should move which end-to-end metric, on which
# workload (spans are listed in spans.py).  A change to one layer is
# expected to show where this map says, and nowhere else.
#
# - curvature.c1_norm.self_s, curvature.weyl.self_s: step_s.p50, run_s and
#   peak_rss_mb on flow_monitored_2d.  c1_norm has 0 calls on the other two
#   workloads, so they must not move; weyl is a small share of
#   verify_suite_n64.
# - algebra.metric_data_from_phi.self_s, algebra.star_comps.self_s:
#   step_s.p50 on flow_integrate_3d (most of a step), run_s on
#   verify_suite_n64 (20-30%); a small share of flow_monitored_2d.
# - geometry.covariant_derivative.self_s, geometry.tensor_norm2.self_s:
#   run_s on verify_suite_n64, step_s.p50 on flow_monitored_2d through
#   c1_norm; no calls on flow_integrate_3d.
# - geometry.riemann, geometry.torsion_from_phi: run_s on verify_suite_n64
#   and step_s.p50 on flow_monitored_2d; absent from flow_integrate_3d.
# - verify.minimal_pinching_constant: flow_monitored_2d only.
# - grid.partial_derivative, grid.exterior_derivative: all three
#   workloads, the largest share on flow_integrate_3d.
# - flow.snapshot, flow.restore (time and bytes): run_s on
#   flow_integrate_3d; negligible elsewhere.
# - report.*: negligible everywhere; the prediction is no end-to-end
#   change.

WORKLOADS = {w.name: w for w in (
    # What `g2flow run` and acceptance criteria 4, 5 and 7 do: the
    # acceptance long_run config, cut to a fixed number of steps.  The
    # monitors dominate (c1_norm, weyl, minimal_pinching_constant, riemann
    # and torsion_from_phi on every new state); RK4 is a small share.
    # Stresses the curvature stack: ROADMAP item 2 (pair-form curvature)
    # must show here.
    Workload(
        name='flow_monitored_2d',
        why='g2flow run with monitors (acceptance long_run, N=32, axes 1,2);'
            ' stresses curvature.c1_norm/weyl and the pinching constant',
        n=32, axes=(1, 2), modes=DEFAULT_MODES, step_cost_s=2.2,
        config='flow.safety = 0.06\npinching.c = auto\n'
               'pinching.gammas = 1.5,2,3\noutput.snapshot_every = 0\n',
        smoke={'n': 8, 'steps': 3}),
    # A benchmark-driven loop of flow.step_fixed on 3 active axes with a
    # snapshot write and read-back every SNAPSHOT_EVERY steps.  The
    # curvature stack is never called: this is the bypass workload for
    # curvature changes and the target of ROADMAP item 3 (the metric
    # kernel, ~75% of a step, and the dense Hodge-star index moves, ~20%).
    # Three active axes put more load on grid.partial_derivative.
    # Snapshot writes beside reads make an I/O change that helps one side
    # and costs the other show up.
    Workload(
        name='flow_integrate_3d',
        why='fixed-dt RK4 on axes 1,2,3 at N=12 with snapshot I/O; stresses'
            ' the metric kernel and Hodge stars, bypasses curvature',
        n=12, axes=(1, 2, 3), modes=DEFAULT_MODES + AXIS3_MODES,
        step_cost_s=0.26,
        smoke={'n': 8, 'steps': 4}),
    # `g2flow verify` at the acceptance-criterion-6 scenario: 8 structure
    # checks (on N and N/2), 6 cross-checks and 10 evolution checks.  It
    # uses geometry differently from the monitor (rank-1..3
    # covariant_derivative/tensor_norm2 towers in verify.StateTensors, no
    # c1_norm), runs 10 fixed RK4 steps in verify.centered_states and has
    # the highest memory, so a geometry change tuned for the monitor that
    # slows verification shows here.  N=32 is too coarse: two evolution
    # checks fall below time order 1.8 there.
    Workload(
        name='verify_suite_n64',
        why='g2flow verify with all 24 checks at N=64 (acceptance 6); '
            'stresses geometry towers and verify, bypasses c1_norm',
        n=64, axes=(1, 2), modes=DEFAULT_MODES,
        config='checks.enable = all\n',
        smoke={'n': 8, 'config': 'verify.dt_multiplier = 0.25\n'}),
)}

# flow_integrate_3d: dt = DT_FRACTION * h_min^2.  flow.suggest_dt of the
# seed-0 state with the default StepPolicy is 0.4345 h_min^2.
DT_FRACTION = 0.25
SNAPSHOT_EVERY = 5
SMOKE_SNAPSHOT_EVERY = 2

VERIFY_CHECKS = 24


# ---------------------------------------------------------------------------
# units: each returns {'run_s', 'step_s', 'attempted', 'failed'}
# ---------------------------------------------------------------------------

class Context:
    """What a unit needs besides g2flow: a working directory and the
    switch that keeps the benchmark's own checks out of the trace."""

    def __init__(self, out_dir, tracer=None, smoke=False):
        self.out_dir = out_dir
        self.tracer = tracer
        self.smoke = smoke

    def checking(self):
        return self.tracer.paused() if self.tracer else \
            contextlib.nullcontext()


def _report_exception(where):
    print(f'perfbench: exception in {where}:', file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _finite(*arrays):
    import numpy as np
    return all(bool(np.isfinite(a).all()) for a in arrays)


def _same_state(a, b):
    """Bit-for-bit equality of phi, t and step index."""
    return (a.phi.values.tobytes() == b.phi.values.tobytes()
            and a.phi.values.shape == b.phi.values.shape
            and a.t == b.t and a.step_index == b.step_index)


def _step_gates(closedness, period_err, vol_prev, vol_new):
    return (closedness <= CLOSED_TOL
            and period_err / TWO_PI ** 3 <= PERIOD_REL_TOL
            and vol_new >= vol_prev - VOLUME_REL_SLACK * vol_prev)


def unit_flow_monitored(ctx, cli, cfg, phi0):
    """One cli.run_flow of cfg.flow_steps monitored steps.  step_s holds
    the intervals between successive calls into flow.step, so each
    includes a monitor row and a minimal pinching constant."""
    from g2flow import flow
    steps = cfg.flow_steps
    run_dir = os.path.join(ctx.out_dir, 'run')
    calls, nonfinite = [], set()
    inner = flow.step

    def hooked(*args, **kwargs):
        calls.append(time.perf_counter())
        new = inner(*args, **kwargs)
        with ctx.checking():
            if not _finite(new.phi.values, new.metric.g):
                nonfinite.add(new.step_index)
        return new

    flow.step = hooked
    try:
        t0 = time.perf_counter()
        history, _, _, final = cli.run_flow(cfg, run_dir,
                                            flow.FlowState(0.0, phi0), {})
        run_s = time.perf_counter() - t0
    except Exception:
        _report_exception('cli.run_flow')
        return {'run_s': None, 'step_s': [], 'attempted': steps,
                'failed': steps}
    finally:
        flow.step = inner

    failed = 0
    with ctx.checking():
        try:
            back, _ = flow.restore(os.path.join(run_dir, 'snapshots',
                                                'final.g2snap'))
            restored = _same_state(back, final)
        except Exception:
            _report_exception('flow.restore of the final snapshot')
            restored = False
        for k in range(1, steps + 1):
            ok = k < len(history) and k not in nonfinite
            if ok:
                row, prev = history[k], history[k - 1]
                nums = [v for v in row.values() if isinstance(v, float)]
                ok = (_step_gates(row['closedness'], row['period_max_err'],
                                  prev['volume'], row['volume'])
                      and _finite(nums))
            if k == steps:
                ok = ok and restored
            failed += not ok
    diffs = [b - a for a, b in zip(calls, calls[1:])]
    return {'run_s': run_s, 'step_s': diffs, 'attempted': steps,
            'failed': failed}


def unit_flow_integrate(ctx, cli, cfg, phi0):
    """cfg.flow_steps flow.step_fixed calls at dt = DT_FRACTION h_min^2,
    with a snapshot write and restore read-back every SNAPSHOT_EVERY
    steps.  step_s is one step_fixed plus that step's snapshot I/O."""
    from g2flow import flow
    from g2flow.grid import exterior_derivative, period_integrals
    from g2flow.initial_data import flat_phi_field
    steps = cfg.flow_steps
    every = SMOKE_SNAPSHOT_EVERY if ctx.smoke else SNAPSHOT_EVERY
    spec = phi0.spec
    h = spec.min_active_spacing()
    dt = DT_FRACTION * h * h
    path = os.path.join(ctx.out_dir, 'state.g2snap')
    state = flow.FlowState(0.0, phi0)
    with ctx.checking():
        ref = period_integrals(flat_phi_field(spec))
        vol_prev = state.volume()
    step_s, failed = [], 0
    for k in range(1, steps + 1):
        try:
            t0 = time.perf_counter()
            new = flow.step_fixed(state, dt)
            back = None
            if k % every == 0:
                flow.snapshot(new, path, {'step': k})
                back, _ = flow.restore(path)
            step_s.append(time.perf_counter() - t0)
        except Exception:
            _report_exception(f'step {k}')
            failed += steps - k + 1
            break
        with ctx.checking():
            periods = period_integrals(new.phi)
            perr = max(abs(periods[K] - ref[K]) for K in ref)
            vol = new.volume()
            ok = (_step_gates(exterior_derivative(new.phi).max_abs(), perr,
                              vol_prev, vol)
                  and _finite(new.phi.values, new.metric.g)
                  and (back is None or _same_state(back, new)))
        failed += not ok
        state, vol_prev = new, vol
    return {'run_s': sum(step_s) if step_s else None, 'step_s': step_s,
            'attempted': steps, 'failed': failed}


def unit_verify(ctx, cli, cfg, phi0):
    """One cli.run_verification with every check group.  Each of the 24
    checks is one operation.  step_s holds the fixed RK4 steps that
    verify.centered_states takes, timed at the call."""
    from g2flow import verify
    run_dir = os.path.join(ctx.out_dir, 'verify')
    os.makedirs(run_dir, exist_ok=True)
    step_s = []
    inner = verify.step_fixed

    def hooked(*args, **kwargs):
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        step_s.append(time.perf_counter() - t0)
        return out

    verify.step_fixed = hooked
    try:
        t0 = time.perf_counter()
        report = cli.run_verification(cfg, run_dir, log=lambda *a: None)
        run_s = time.perf_counter() - t0
    except Exception:
        _report_exception('cli.run_verification')
        return {'run_s': None, 'step_s': step_s, 'attempted': VERIFY_CHECKS,
                'failed': VERIFY_CHECKS}
    finally:
        verify.step_fixed = inner
    passed = sum(bool(chk.get('passed'))
                 for grp in report['groups'].values() for chk in grp.values())
    return {'run_s': run_s, 'step_s': step_s, 'attempted': VERIFY_CHECKS,
            'failed': VERIFY_CHECKS - min(passed, VERIFY_CHECKS)}


UNITS = {
    'flow_monitored_2d': unit_flow_monitored,
    'flow_integrate_3d': unit_flow_integrate,
    'verify_suite_n64': unit_verify,
}
