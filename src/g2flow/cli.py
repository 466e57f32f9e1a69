"""Batch runner: config parsing, flow runs with monitors, verification
suites, snapshots, and CI-friendly exit codes.

Exit codes: 0 all enabled checks passed, 1 check failure, 2 configuration
error, 3 runtime error (positivity loss, stall, bad snapshot, a failed
numpy linear-algebra or floating-point operation, memory exhaustion).
"""

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, G2FlowError, NonPositiveShiftedScalar
from .grid import MIN_POINTS, TWO_PI, resolvable
from .report import (CsvWriter, atomic_write_json, read_csv,
                     write_run_plots)
# structure/crosscheck_residuals are bound here as perfbench's span targets
from .verify import (StateTensors, crosscheck_residuals,
                     minimal_pinching_constant, pinching_shift,
                     run_verification, structure_residuals)

CHECK_GROUPS = ('structure', 'evolution', 'crosschecks')


def _int(raw, number=int):
    try:
        return number(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r}") from None


def _real(raw):
    """The one parser of real values; nan and inf are rejected."""
    v = _int(raw, float)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw!r}")
    return v


def _tuple(item):
    def parse(raw):
        try:
            return tuple(item(x) for x in raw.split(','))
        except ValueError:
            raise ValueError("cannot parse") from None
    return parse


def _groups(raw):
    groups = {'': (), 'none': (), 'all': CHECK_GROUPS}.get(
        raw, tuple(x.strip() for x in raw.split(',')))
    bad = [x for x in groups if x not in CHECK_GROUPS]
    if bad:
        raise ValueError(f"unknown groups {bad}")
    return groups


_BOOLS = {'true': True, '1': True, 'yes': True,
          'false': False, '0': False, 'no': False}
_GT0 = (lambda v: v > 0, "must be > 0.0")
_GE0 = (lambda v: v >= 0, "must be >= 0")
_GAMMAS = (lambda gs: all(g > 0 for g in gs), "gammas must be positive")

# The config schema, one row per key: (key, parser, default, *checks), each
# check a (predicate, problem) pair whose problem is formatted with the
# value; a parser or check may also raise ValueError(problem).  A key's
# RunConfig attribute is the key with dots as underscores.
SCHEMA = (
    ('config_version', _int, 1, (lambda v: v == 1, "unsupported version {}")),
    ('seed', _int, 0),
    ('grid.n', _int, 32,
     (lambda n: n >= MIN_POINTS, "need at least 4 points per axis")),
    ('grid.active_axes', lambda raw: tuple(sorted(_tuple(int)(raw))), (1, 2),
     (lambda axes: all(1 <= a <= 7 for a in axes)
      and len(set(axes)) == len(axes), "need distinct axes in 1..7")),
    ('grid.period', _real, TWO_PI, (lambda v: v > 0, "must be positive")),
    # full 7-tuples, overriding the three keys above
    ('grid.shape', _tuple(int), None,
     (lambda s: len(s) == 7 and resolvable(s),
      "need 7 axis sizes, each 1 or at least 4")),
    ('grid.periods', _tuple(_real), None,
     (lambda p: len(p) == 7 and min(p) > 0, "need 7 positive reals")),
    ('initial.family', str, 'flat',
     (lambda f: f in ('flat', 'perturbed', 'from-snapshot'),
      "unknown family {!r}")),
    ('initial.epsilon', _real, 0.05, _GE0),
    ('initial.modes', str, 'default'),
    ('initial.snapshot', str, ''),
    ('flow.steps', _int, 100, _GE0),
    ('flow.safety', _real, 0.5,
     _GT0, (lambda v: v <= 1.0, "must be in (0, 1]")),
    ('flow.dt_floor', _real, 1e-9, _GT0),
    ('flow.max_dt', _real, 1.0, _GT0),
    ('flow.fixed_dt', lambda raw: _real(raw) if raw else None, None,
     (lambda v: v is None or v > 0, "must be positive")),
    ('pinching.c', lambda raw: raw if raw == 'auto' else _real(raw), 'auto',
     (lambda c: c == 'auto' or c > 0, "must be positive or 'auto'")),
    ('pinching.gammas', _tuple(_real), (2.0,), _GAMMAS),
    ('checks.enable', _groups, ()),
    ('checks.tol_scale', _real, 1.0, _GT0),
    ('checks.min_time_order', _real, 1.8, _GT0),
    ('verify.dt_multiplier', _real, 4.0, _GT0),
    ('verify.gammas', _tuple(_real), (1.5, 2.0, 3.0), _GAMMAS),
    ('output.dir', str, 'g2flow_out'),
    ('output.plots', lambda raw: _BOOLS.get(raw.lower()), False,
     (lambda v: v is not None, "expected true/false")),
    ('output.snapshot_every', _int, 0, _GE0),
)


class RunConfig:
    """Validated run configuration: one attribute per SCHEMA key, holding
    its default unless the config sets it, plus the config ``text``."""

    def __init__(self, text):
        for key, _, default, *_ in SCHEMA:
            setattr(self, key.replace('.', '_'), default)
        self.text = text

    def grid_spec(self):
        from .grid import GridSpec
        if self.grid_shape is not None:
            periods = self.grid_periods or (self.grid_period,) * 7
            return GridSpec(self.grid_shape, periods)
        axes0 = tuple(a - 1 for a in self.grid_active_axes)
        return GridSpec.from_active(self.grid_n, axes0, self.grid_period)

    def initial_phi(self, spec=None):
        """The configured flat or perturbed 3-form on ``spec``, by default
        the configured grid; flat is the perturbed family at epsilon 0."""
        from .initial_data import perturbed_phi_field
        eps = self.initial_epsilon if self.initial_family == 'perturbed' \
            else 0.0
        return perturbed_phi_field(spec or self.grid_spec(), eps,
                                   self.modes())

    def modes(self):
        from .initial_data import DEFAULT_MODES, Mode
        if self.initial_modes in ('default', ''):
            return DEFAULT_MODES
        out = []
        try:
            for part in self.initial_modes.split(';'):
                waves, comp, amp, phase = part.split('|')
                waves = tuple(int(w) for w in waves.split(','))
                a, b = (int(x) for x in comp.split(','))
                out.append(Mode(waves, (a - 1, b - 1), float(amp),
                                float(phase)))
        except ValueError:
            raise ValueError("cannot parse mode list") from None
        return tuple(out)


def parse_config(text):
    """Parse ``key = value`` lines ('#' comments) over the SCHEMA keys.
    Unknown and duplicate keys, type errors and constraint violations are
    all reported together."""
    from .initial_data import check_modes
    rows = {row[0]: row for row in SCHEMA}
    cfg = RunConfig(text)
    problems = []
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split('#', 1)[0].strip()
        if not line:
            continue
        if '=' not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, _, raw = (part.strip() for part in line.partition('='))
        if key not in rows:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        _, parse, _, *checks = rows[key]
        try:
            value = parse(raw)
            for ok, problem in checks:
                if not ok(value):
                    raise ValueError(problem.format(value))
        except ValueError as err:
            problems.append(f"{key}: {err}")
            continue
        setattr(cfg, key.replace('.', '_'), value)

    # the mode list and the checks across keys
    try:
        modes = cfg.modes()
        if cfg.initial_family == 'perturbed':
            check_modes(cfg.grid_spec(), modes)
    except ValueError as err:
        problems.append(f"initial.modes: {err}")
    # the structure orders of a perturbed field rerun it on the halved
    # grid, and read log2 of the residual ratio as if the spacing doubled
    if 'structure' in cfg.checks_enable and \
            cfg.initial_family == 'perturbed':
        spec = cfg.grid_spec()
        if not resolvable(spec.halved().shape):
            problems.append("checks.enable: structure halves the grid, so "
                            "each active axis needs at least 8 points")
        elif any(spec.shape[a] % 2 for a in spec.active_axes):
            problems.append("checks.enable: structure halves the grid, so "
                            "each active axis needs an even number of points")
    if cfg.initial_family == 'from-snapshot':
        if not cfg.initial_snapshot:
            problems.append("initial.snapshot: required for from-snapshot")
        elif not os.path.exists(cfg.initial_snapshot):
            problems.append(
                f"initial.snapshot: path {cfg.initial_snapshot!r} not found")
        # the structure orders need the same field at N/2, which a
        # snapshot cannot supply
        if cfg.checks_enable:
            problems.append("checks.enable: verification needs "
                            "initial.family flat or perturbed")
    if cfg.flow_max_dt < cfg.flow_dt_floor:
        problems.append("flow.max_dt: must be >= flow.dt_floor")
    if problems:
        raise ConfigError(problems)
    return cfg


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def csv_columns(gammas):
    cols = ['step', 't', 'dt', 'closedness', 'period_max_err', 'volume',
            'min_R', 'max_R', 'T2_max', 'E_max', 'W_c1_max', 'ratio_lhs',
            'ratio_driver', 'distortion', 'speed_integral']
    for g in gammas:
        cols.append(f'f_max_g{g:g}')
    cols.append('f_min_g2')
    cols.append('min_C_g2')
    return cols


def build_initial_state(cfg):
    from .flow import FlowState, restore
    if cfg.initial_family == 'from-snapshot':
        return restore(cfg.initial_snapshot)
    return FlowState(0.0, cfg.initial_phi()), {}


def monitor_row(ts, gammas, w0, running):
    """The series.csv row of one accepted state, read through its
    StateTensors ``ts``; the dt cell is the step that produced the state,
    blank when none did, and min_C_g2 is left blank for the caller.  Where
    min(R + c) <= 0 the ratio and f cells are blank too, and
    running['pinching_paused'] is set.  ``running`` holds the reference
    periods and the running Weyl-ratio maximum, updated in place; ``w0``
    whitens g(0) for metric_distortion."""
    from .curvature import metric_distortion
    from .grid import period_integrals
    state, b = ts.state, ts.b
    periods = period_integrals(state.phi)
    ref = running['period_ref']
    row = dict.fromkeys(csv_columns(gammas))
    row.update({
        'step': state.step_index, 't': state.t, 'dt': state.dt,
        'closedness': state.closedness(),
        'period_max_err': max(abs(periods[k] - ref[k]) for k in ref),
        'volume': state.volume(),
        'min_R': float(np.min(b.R)), 'max_R': float(np.max(b.R)),
        'T2_max': float(np.max(state.T_norm2)),
        'E_max': float(np.sqrt(np.max(ts.E_norm2))),
        'W_c1_max': float(np.max(ts.W_c1_field)),
    })
    try:
        rt = ts.Rt
    except NonPositiveShiftedScalar:
        running['pinching_paused'] = True
    else:
        row['ratio_lhs'] = float(np.max(np.sqrt(ts.E_norm2) / rt))
        running['w_ratio'] = max(running.get('w_ratio', 0.0),
                                 float(np.max(ts.W_c1_field / rt)))
        row['ratio_driver'] = running['w_ratio']
        for g in gammas:
            row[f'f_max_g{g:g}'] = float(np.max(ts.f_field(g)))
        row['f_min_g2'] = float(np.min(ts.f_field(2.0)))
    row['distortion'] = metric_distortion(w0, state.metric.g)
    row['speed_integral'] = running.get('speed_integral', 0.0)
    return row


def run_flow(cfg, run_dir, start_state=None, start_aux=None):
    """Advance the configured flow, emitting CSV rows and snapshots.

    The minimal-pinching-constant column needs a centered state triple, so
    the row for step n gets its cell once step n+1 exists; the very first
    and last rows carry an empty cell there, as does any triple holding a
    state with min(R + c) <= 0.  A resumed run emits rows strictly after
    its restored step, which makes its output byte-comparable with the
    same rows of an unbroken run.
    """
    # imported at call time, so a flow.step swapped in before the call is
    # the one run: perfbench times each step that way, and a module-level
    # import would leave its step_s empty
    from .flow import StepPolicy, snapshot, step, step_fixed
    from .geometry import tensor_norm2

    snap_dir = os.path.join(run_dir, 'snapshots')
    os.makedirs(snap_dir, exist_ok=True)

    state, aux = (start_state, dict(start_aux or {}))
    if state is None:
        state, aux = build_initial_state(cfg)
    resumed = state.step_index > 0
    gammas = cfg.pinching_gammas
    policy = StepPolicy(safety=cfg.flow_safety, dt_floor=cfg.flow_dt_floor,
                        max_dt=cfg.flow_max_dt)
    c = float(aux['c']) if 'c' in aux else pinching_shift(cfg, state)

    # Distortion is measured against g at t = 0, whitened once; when
    # resuming, the starting metric is rebuilt from the configured family.
    if resumed and cfg.initial_family in ('flat', 'perturbed'):
        g0 = build_initial_state(cfg)[0].metric.g
    else:
        g0 = state.metric.g
    w0 = np.linalg.inv(np.linalg.cholesky(g0))

    # reference periods of the flat class on this grid: the flow's exact
    # invariants, independent of the run's own starting step
    from .grid import period_integrals
    from .initial_data import flat_phi_field
    period_ref = period_integrals(flat_phi_field(state.spec))

    running = {'w_ratio': float(aux.get('w_ratio', 0.0)),
               'speed_integral': float(aux.get('speed_integral', 0.0)),
               'period_ref': period_ref}
    events = []

    def snapshot_to(name):
        snapshot(ts.state, os.path.join(snap_dir, name),
                 {'c': c, 'w_ratio': running['w_ratio'],
                  'speed_integral': running['speed_integral']})

    # every row made, and the StateTensors of the last states; a resumed
    # run's restored row already exists in the original CSV
    ts = StateTensors(state, c)
    last = [ts]
    history = [] if resumed else [monitor_row(ts, gammas, w0, running)]
    t_wall = time.time()
    try:
        while ts.state.step_index < cfg.flow_steps:
            if cfg.flow_fixed_dt:
                new = step_fixed(ts.state, cfg.flow_fixed_dt)
            else:
                new = step(ts.state, policy)
            # metric speed 2 |S| accumulates the distortion-bound integral
            sp = 2.0 * np.sqrt(np.max(tensor_norm2(ts.state.S, ts.m, 2)))
            running['speed_integral'] += new.dt * sp
            ts = StateTensors(new, c)
            last.append(ts)
            history.append(monitor_row(ts, gammas, w0, running))
            if len(last) == 3:
                try:
                    history[-2]['min_C_g2'] = minimal_pinching_constant(*last)
                except NonPositiveShiftedScalar:
                    pass
                del last[0]
            if cfg.output_snapshot_every and \
                    new.step_index % cfg.output_snapshot_every == 0:
                snapshot_to(f'step{new.step_index:06d}.g2snap')
    finally:
        writer = CsvWriter(os.path.join(run_dir, 'series.csv'),
                           csv_columns(gammas))
        for row in history:
            writer.add_row(row)
        writer.flush()
    snapshot_to('final.g2snap')
    events.append(f'completed {ts.state.step_index - state.step_index} '
                  f'steps in {time.time() - t_wall:.1f}s wall')
    if running.get('pinching_paused'):
        events.append('pinching monitors paused: min(R + c) <= 0 '
                      '(scalar curvature escaped below -c)')
    return history, events, c, ts.state


# ---------------------------------------------------------------------------
# manifest and subcommands
# ---------------------------------------------------------------------------

def write_manifest(cfg, run_dir, events, c, extra=None):
    manifest = {
        'config_text': cfg.text,
        'config_sha256': hashlib.sha256(cfg.text.encode()).hexdigest(),
        'package_version': __version__,
        'numpy_version': np.__version__,
        'csv_columns': csv_columns(cfg.pinching_gammas),
        'pinching_shift_c': c,
        'events': events,
        'timestamps': {'written_at': time.strftime('%Y-%m-%dT%H:%M:%S')},
    }
    if extra:
        manifest.update(extra)
    atomic_write_json(os.path.join(run_dir, 'manifest.json'), manifest)


# failures of a run that exit 3 with error.json instead of a traceback
RUNTIME_ERRORS = (G2FlowError, np.linalg.LinAlgError, FloatingPointError,
                  MemoryError)


def _error_record(run_dir, err):
    rec = {'error_type': type(err).__name__, 'message': str(err)}
    for attr in ('t', 'point', 'dt', 'dt_history'):
        if hasattr(err, attr):
            rec[attr] = getattr(err, attr)
    try:
        os.makedirs(run_dir, exist_ok=True)
        atomic_write_json(os.path.join(run_dir, 'error.json'), rec)
    except OSError:
        pass
    return rec


def monitor_summary(history):
    """Post-run monitors: the ratio-estimate fit and the minimal-pinching-
    constant series statistics over the rows the pinching monitors filled,
    and the distortion bound, which does not involve c, over every row."""
    from .curvature import distortion_bound_check, traceless_ricci_ratio_fit
    if not history:
        return {'available': False}
    rows = [r for r in history if r.get('ratio_lhs') is not None]
    out = {'available': bool(rows)}
    if rows:
        c1 = rows[0]['ratio_lhs']      # max |E| / (R + c) at the first row
        fit = traceless_ricci_ratio_fit(rows, c1)
        out.update({'c1': c1, 'ratio_fit_C1': fit['C1'],
                    'ratio_fit_C2': fit['C2'],
                    'ratio_fit_min_margin': fit['min_margin']})
    out['distortion_bound_ok'] = distortion_bound_check(history)['ok']
    mins = np.array([r['min_C_g2'] for r in history
                     if r.get('min_C_g2') is not None], dtype=float)
    if mins.size:
        med = float(np.median(mins))
        out['min_C_max'] = float(np.max(mins))
        out['min_C_median'] = med
        out['min_C_max_over_median'] = (float(np.max(mins)) / med
                                        if med > 0 else None)
    return out


def cmd_run(cfg, resume_from=None):
    run_dir = cfg.output_dir
    start_state = start_aux = None
    if resume_from is not None:
        from .flow import restore
        start_state, start_aux = restore(resume_from)
    history, events, c, _ = run_flow(cfg, run_dir, start_state,
                                     start_aux)
    if cfg.checks_enable:
        report = run_verification(cfg, run_dir)
    else:
        report = {'passed': True, 'groups': {}}
        atomic_write_json(os.path.join(run_dir, 'verification.json'),
                          report)
    write_manifest(cfg, run_dir, events, c,
                   extra={'monitors': monitor_summary(history),
                          'final': dict(history[-1]) if history else {}})
    if cfg.output_plots:
        data = read_csv(os.path.join(run_dir, 'series.csv'))
        write_run_plots(run_dir, data)
    if not report['passed']:
        print("verification failed; see verification.json", file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg):
    if cfg.initial_family == 'from-snapshot':
        # verification builds its field from the config, never from the
        # snapshot, so its report would describe another state
        raise ConfigError(["initial.family: g2flow verify needs "
                           "initial.family flat or perturbed"])
    if not cfg.checks_enable:
        # a report of no groups would pass having checked nothing
        raise ConfigError(["checks.enable: g2flow verify needs at least "
                           "one check group"])
    run_dir = cfg.output_dir
    os.makedirs(run_dir, exist_ok=True)
    report = run_verification(cfg, run_dir)
    write_manifest(cfg, run_dir, ['verification run'],
                   report.get('pinching_shift_c', 0.0))
    return 0 if report['passed'] else 1


def cmd_report(run_dir):
    csv_path = os.path.join(run_dir, 'series.csv')
    if not os.path.exists(csv_path):
        print(f"no series.csv under {run_dir}", file=sys.stderr)
        return 2
    data = read_csv(csv_path)
    paths = write_run_plots(run_dir, data)
    print(f"wrote {len(paths)} charts under {run_dir}/plots")
    return 0


def _load_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        raise ConfigError([f"cannot read config {path!r}: {err}"])
    return parse_config(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='g2flow',
        description='Laplacian flow of closed G2-structures on the flat '
                    '7-torus, with identity verification.')
    sub = parser.add_subparsers(dest='command', required=True)
    p_run = sub.add_parser('run', help='run a flow per config')
    p_run.add_argument('config')
    p_ver = sub.add_parser('verify', help='run the verification suites')
    p_ver.add_argument('config')
    p_res = sub.add_parser('resume', help='resume a flow from a snapshot')
    p_res.add_argument('snapshot')
    p_res.add_argument('config')
    p_rep = sub.add_parser('report', help='regenerate charts from a run dir')
    p_rep.add_argument('run_dir')
    args = parser.parse_args(argv)

    if args.command == 'report':
        return cmd_report(args.run_dir)
    cfg = None
    try:
        cfg = _load_config(args.config)
        if args.command == 'verify':
            return cmd_verify(cfg)
        return cmd_run(cfg, resume_from=getattr(args, 'snapshot', None))
    except ConfigError as err:
        for p in err.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as err:
        if cfg is None:
            raise
        _error_record(cfg.output_dir, err)
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == '__main__':
    sys.exit(main())
