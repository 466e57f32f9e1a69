"""Batch runner: config parsing, flow runs with monitors, verification
suites, snapshots, and CI-friendly exit codes.

Exit codes: 0 all enabled checks passed, 1 check failure, 2 configuration
error, 3 runtime error (positivity loss, stall, bad snapshot).
"""

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, G2FlowError
from .report import (CsvWriter, atomic_write_json, read_csv,
                     write_run_plots)

TWO_PI = 2.0 * np.pi

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
     (lambda n: n >= 4, "need at least 4 points per axis")),
    ('grid.active_axes', lambda raw: tuple(sorted(_tuple(int)(raw))), (1, 2),
     (lambda axes: all(1 <= a <= 7 for a in axes)
      and len(set(axes)) == len(axes), "need distinct axes in 1..7")),
    ('grid.period', _real, TWO_PI, (lambda v: v > 0, "must be positive")),
    # full 7-tuples, overriding the three keys above
    ('grid.shape', _tuple(int), None,
     (lambda s: len(s) == 7 and min(s) >= 1, "need 7 positive integers")),
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
    ('pinching.c', str, 'auto',
     (lambda c: c == 'auto' or _real(c) > 0, "must be positive or 'auto'")),
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

    def modes(self):
        from .initial_data import DEFAULT_MODES, Mode
        if self.initial_modes in ('default', ''):
            return DEFAULT_MODES
        out = []
        for part in self.initial_modes.split(';'):
            waves, comp, amp, phase = part.split('|')
            waves = tuple(int(w) for w in waves.split(','))
            a, b = (int(x) for x in comp.split(','))
            out.append(Mode(waves, (a - 1, b - 1), float(amp), float(phase)))
        return tuple(out)


def parse_config(text):
    """Parse ``key = value`` lines ('#' comments) over the SCHEMA keys.
    Unknown and duplicate keys, type errors and constraint violations are
    all reported together."""
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
        cfg.modes()
    except ValueError:
        problems.append("initial.modes: cannot parse mode list")
    if cfg.initial_family == 'from-snapshot':
        if not cfg.initial_snapshot:
            problems.append("initial.snapshot: required for from-snapshot")
        elif not os.path.exists(cfg.initial_snapshot):
            problems.append(
                f"initial.snapshot: path {cfg.initial_snapshot!r} not found")
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
    from .initial_data import flat_phi_field, perturbed_phi_field
    if cfg.initial_family == 'from-snapshot':
        state, aux = restore(cfg.initial_snapshot)
        return state, aux
    spec = cfg.grid_spec()
    if cfg.initial_family == 'flat':
        phi = flat_phi_field(spec)
    else:
        phi = perturbed_phi_field(spec, cfg.initial_epsilon, cfg.modes())
    return FlowState(0.0, phi), {}


def monitor_row(state, dt, c, gammas, g0, running):
    """All monitored scalars at one accepted state: the series.csv row
    (without min_C_g2) plus the pointwise Weyl C1 field under
    '_w_c1_field'.  ``running`` holds the reference periods and the running
    Weyl-ratio maximum, which is updated in place."""
    from .curvature import c1_norm, metric_distortion, weyl
    from .geometry import tensor_norm2
    from .grid import period_integrals
    b = state.bundle
    m = state.metric
    if b.W is None:
        weyl(b, m)
    periods = period_integrals(state.phi)
    ref = running['period_ref']
    perr = max(abs(periods[k] - ref[k]) for k in ref)
    row = {
        'step': state.step_index, 't': state.t, 'dt': dt,
        'closedness': state.closedness(), 'period_max_err': perr,
        'volume': state.volume(),
        'min_R': float(np.min(b.R)), 'max_R': float(np.max(b.R)),
        'T2_max': float(np.max(b.T_norm2)),
    }
    e2 = tensor_norm2(b.E, m, 2)
    row['E_max'] = float(np.sqrt(np.max(e2)))
    wfld, wmax = c1_norm(b.W, m, 4)
    row['W_c1_max'] = wmax
    rt = b.R + c
    if np.min(rt) > 0.0:
        row['ratio_lhs'] = float(np.max(np.sqrt(e2) / rt))
        running['w_ratio'] = max(running.get('w_ratio', 0.0),
                                 float(np.max(wfld / rt)))
        row['ratio_driver'] = running['w_ratio']
        for g in gammas:
            fg = e2 / rt ** g
            row[f'f_max_g{g:g}'] = float(np.max(fg))
            if g == 2.0:
                row['f_min_g2'] = float(np.min(fg))
        if 2.0 not in gammas:
            row['f_min_g2'] = None
    else:
        running['pinching_paused'] = True
    row['distortion'] = metric_distortion(g0, m.g, state.spec)
    row['speed_integral'] = running.get('speed_integral', 0.0)
    row['_w_c1_field'] = wfld
    return row


def run_flow(cfg, run_dir, start_state=None, start_aux=None):
    """Advance the configured flow, emitting CSV rows and snapshots.

    The minimal-pinching-constant column needs a centered state triple, so
    the row for step n is written once step n+1 exists; the very first and
    last rows carry an empty cell there.  A resumed run emits rows strictly
    after its restored step, which makes its output byte-comparable with
    the same rows of an unbroken run.
    """
    from .curvature import auto_shift
    from .flow import StepPolicy, snapshot, step, step_fixed
    from .geometry import tensor_norm2
    from .verify import minimal_pinching_constant

    os.makedirs(run_dir, exist_ok=True)
    snap_dir = os.path.join(run_dir, 'snapshots')
    os.makedirs(snap_dir, exist_ok=True)

    state, aux = (start_state, dict(start_aux or {}))
    if state is None:
        state, aux = build_initial_state(cfg)
    resumed = state.step_index > 0
    gammas = cfg.pinching_gammas
    policy = StepPolicy(safety=cfg.flow_safety, dt_floor=cfg.flow_dt_floor,
                        max_dt=cfg.flow_max_dt)

    if 'c' in aux:
        c = float(aux['c'])
    elif cfg.pinching_c == 'auto':
        c = auto_shift(state.bundle)
    else:
        c = float(cfg.pinching_c)

    # Distortion is measured against g at t = 0; when resuming, the
    # starting metric is rebuilt from the configured initial family.
    if resumed and cfg.initial_family in ('flat', 'perturbed'):
        g0 = build_initial_state(cfg)[0].metric.g
    else:
        g0 = state.metric.g

    # reference periods of the flat class on this grid: the flow's exact
    # invariants, independent of the run's own starting step
    from .grid import period_integrals
    from .initial_data import flat_phi_field
    period_ref = period_integrals(flat_phi_field(state.spec))

    running = {'w_ratio': float(aux.get('w_ratio', 0.0)),
               'speed_integral': float(aux.get('speed_integral', 0.0)),
               'period_ref': period_ref}
    events = []

    writer = CsvWriter(os.path.join(run_dir, 'series.csv'),
                       csv_columns(gammas))
    history = []

    def emit(row):
        clean = {k: v for k, v in row.items() if not k.startswith('_')}
        history.append(clean)
        writer.add_row(clean)

    prev_state = None
    cur_state = state
    # a resumed run's restored row already exists in the original CSV
    cur_row = None if resumed else monitor_row(state, None, c, gammas, g0,
                                               running)
    target = cfg.flow_steps
    t_wall = time.time()
    steps_done = 0
    try:
        while state.step_index < target:
            if cfg.flow_fixed_dt:
                new_state = step_fixed(cur_state, cfg.flow_fixed_dt)
            else:
                new_state = step(cur_state, policy)
            dt = new_state.t - cur_state.t
            # metric speed 2 |S| accumulates the distortion-bound integral
            sp = 2.0 * np.sqrt(np.max(tensor_norm2(cur_state.bundle.S,
                                                   cur_state.metric, 2)))
            running['speed_integral'] += dt * sp
            new_row = monitor_row(new_state, dt, c, gammas, g0, running)
            if cur_row is not None:
                if prev_state is not None:
                    cur_row['min_C_g2'] = minimal_pinching_constant(
                        prev_state, cur_state, new_state, c,
                        w_c1_field=cur_row.get('_w_c1_field'))
                else:
                    cur_row['min_C_g2'] = None
                emit(cur_row)
            prev_state, cur_state, cur_row = cur_state, new_state, new_row
            state = new_state
            steps_done += 1
            if cfg.output_snapshot_every and \
                    state.step_index % cfg.output_snapshot_every == 0:
                aux_out = {'c': c, 'w_ratio': running['w_ratio'],
                           'speed_integral': running['speed_integral']}
                snapshot(state, os.path.join(
                    snap_dir, f'step{state.step_index:06d}.g2snap'), aux_out)
    finally:
        if cur_row is not None:
            cur_row['min_C_g2'] = None
            emit(cur_row)
        writer.flush()
    aux_out = {'c': c, 'w_ratio': running['w_ratio'],
               'speed_integral': running['speed_integral']}
    snapshot(state, os.path.join(snap_dir, 'final.g2snap'), aux_out)
    events.append(f'completed {steps_done} steps in '
                  f'{time.time() - t_wall:.1f}s wall')
    if running.get('pinching_paused'):
        events.append('pinching monitors paused: min(R + c) <= 0 '
                      '(scalar curvature escaped below -c)')
    return history, events, c, state


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

STRUCTURE_MIN_ORDER = 3.5
RESIDUAL_FLOOR = 1e-12

# Per-check constants for the 4th-order tolerance C * eps * h^4, calibrated
# on the reference scenario with ample headroom.
CROSSCHECK_TOL = {
    'divergence_identity': 0.2,
    'bochner': 20.0,
    'ricci_trace_vs_scalar': 20.0,
    'shifted_norm_consistency': 1.0,
}
EXACT_CROSSCHECKS = {
    'shifted_scalar_consistency': 1e-9,
    'lichnerowicz_metric': 1e-9,
}


def structure_residuals(state):
    """Residuals of the pointwise/derivative identities of a closed
    structure at one state."""
    from . import geometry as ge
    m = state.metric
    tor = state.torsion
    b = state.bundle
    spec = state.spec
    alpha = np.zeros(spec.shape + (7,))
    for comp in range(7):
        f = np.zeros(spec.shape)
        for a in spec.active_axes:
            f = f + np.sin(spec.coordinates(a) + 0.37 * comp + 0.11 * a)
        alpha[..., comp] = f
    ric_tor = ge.ricci_from_torsion(tor, state.phi, m)
    return {
        'torsion_defines_nabla_phi': ge.nabla_phi_residual(tor, state.phi,
                                                           state.psi, m),
        'nabla_psi_formula': ge.nabla_psi_residual(state.phi, state.psi,
                                                   tor, m),
        'lie_algebra_torsion_divergence': ge.divergence_residual(tor.tau2, m),
        'ricci_commutator_identity': ge.ricci_identity_residual(alpha, m, b),
        'ricci_from_torsion_vs_metric': float(np.max(np.abs(ric_tor - b.Ric))),
        'scalar_equals_minus_torsion_norm': float(np.max(np.abs(
            b.R + ge.tensor_norm2(tor.T, m, 2)))),
        'bianchi_type_identity': ge.bianchi_type_residual(tor, b, state.phi, m),
        'torsion_gradient_formula': ge.torsion_gradient_residual(
            tor, b, state.phi, m),
    }


def crosscheck_residuals(state, c):
    from .verify import (StateTensors, bochner_residual,
                         divergence_identity_residual,
                         lichnerowicz_metric_residual,
                         ricci_trace_vs_scalar_residual,
                         shifted_norm_consistency_residual,
                         shifted_scalar_consistency_residual)
    ts = StateTensors(state, c=c)
    return {
        'divergence_identity': divergence_identity_residual(ts),
        'bochner': bochner_residual(ts),
        'ricci_trace_vs_scalar': ricci_trace_vs_scalar_residual(ts),
        'shifted_norm_consistency': shifted_norm_consistency_residual(ts),
        'shifted_scalar_consistency': shifted_scalar_consistency_residual(ts),
        'lichnerowicz_metric': lichnerowicz_metric_residual(ts),
    }


def run_verification(cfg, run_dir, log=print):
    """Structure identities (spatial order against the grid halved along
    each active axis), fixed-state cross-checks, and the evolution-equation
    suite; returns the report dict (also written to verification.json)."""
    from .curvature import auto_shift
    from .flow import FlowState
    from .grid import GridSpec
    from .initial_data import perturbed_phi_field
    from .verify import run_evolution_checks

    report = {'passed': True, 'groups': {}}
    eps = cfg.initial_epsilon if cfg.initial_family != 'flat' else 0.0
    flat = cfg.initial_family == 'flat'

    def mkstate(spec):
        return FlowState(0.0, perturbed_phi_field(spec, eps, cfg.modes()))

    state_hi = mkstate(cfg.grid_spec())
    c = auto_shift(state_hi.bundle) if cfg.pinching_c == 'auto' \
        else float(cfg.pinching_c)
    h = state_hi.spec.min_active_spacing()
    scale4 = max(eps, 1e-3) * h ** 4 * cfg.checks_tol_scale

    if 'structure' in cfg.checks_enable:
        grp = {}
        res_hi = structure_residuals(state_hi)
        if flat:
            for name, r in res_hi.items():
                ok = r <= 1e-11
                grp[name] = {'residual': r, 'passed': ok}
                report['passed'] &= ok
        else:
            hi = state_hi.spec
            res_lo = structure_residuals(mkstate(GridSpec(
                tuple(max(n // 2, 1) for n in hi.shape), hi.periods)))
            for name, r_hi in res_hi.items():
                r_lo = res_lo[name]
                if r_hi <= RESIDUAL_FLOOR:
                    order, ok = None, True
                else:
                    order = float(np.log2(r_lo / r_hi))
                    ok = order >= STRUCTURE_MIN_ORDER
                grp[name] = {'residual_coarse': r_lo, 'residual_fine': r_hi,
                             'order': order, 'min_order': STRUCTURE_MIN_ORDER,
                             'passed': ok}
                report['passed'] &= ok
        report['groups']['structure'] = grp

    if 'crosschecks' in cfg.checks_enable:
        grp = {}
        res = crosscheck_residuals(state_hi, c)
        for name, r in res.items():
            if name in EXACT_CROSSCHECKS:
                tol = EXACT_CROSSCHECKS[name] * cfg.checks_tol_scale
            else:
                tol = CROSSCHECK_TOL[name] * scale4
            ok = r <= tol
            grp[name] = {'residual': r, 'tolerance': tol, 'passed': ok}
            report['passed'] &= ok
        report['groups']['crosschecks'] = grp

    if 'evolution' in cfg.checks_enable:
        grp = {}
        h2 = h * h
        dt = cfg.verify_dt_multiplier * 0.5 * h2
        results = run_evolution_checks(
            state_hi.phi, dt=dt, c=c, gammas=cfg.verify_gammas,
            min_order=cfg.checks_min_time_order)
        for r in results:
            res_fine = r.residuals[min(r.residuals)]
            if res_fine <= RESIDUAL_FLOOR:
                ok = True
            else:
                ok = bool(r.passed)
            grp[r.name] = {
                'residuals': {repr(s): v for s, v in sorted(r.residuals.items())},
                'measured_order': r.measured_order,
                'min_order': cfg.checks_min_time_order,
                'passed': ok,
            }
            report['passed'] &= ok
        report['groups']['evolution'] = grp

    report['pinching_shift_c'] = c
    atomic_write_json(os.path.join(run_dir, 'verification.json'), report)
    return report


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
    """Post-run monitors: the ratio-estimate fit, the distortion bound,
    and the minimal-pinching-constant series statistics."""
    from .curvature import distortion_bound_check, traceless_ricci_ratio_fit
    rows = [r for r in history if r.get('ratio_lhs') is not None]
    if not rows:
        return {'available': False}
    f0 = rows[0].get('f_max_g2')
    c1 = float(np.sqrt(f0)) if f0 is not None else 0.0
    fit = traceless_ricci_ratio_fit(rows, c1)
    dist = distortion_bound_check(rows)
    mins = np.array([r['min_C_g2'] for r in history
                     if r.get('min_C_g2') is not None], dtype=float)
    out = {
        'available': True,
        'c1': c1,
        'ratio_fit_C1': fit['C1'],
        'ratio_fit_C2': fit['C2'],
        'ratio_fit_min_margin': fit['min_margin'],
        'distortion_bound_ok': dist['ok'],
    }
    if mins.size:
        med = float(np.median(mins))
        out['min_C_max'] = float(np.max(mins))
        out['min_C_median'] = med
        out['min_C_max_over_median'] = (float(np.max(mins)) / med
                                        if med > 0 else None)
    return out


def cmd_run(cfg, resume_from=None):
    run_dir = cfg.output_dir
    try:
        start_state = start_aux = None
        if resume_from is not None:
            from .flow import restore
            start_state, start_aux = restore(resume_from)
        history, events, c, final = run_flow(cfg, run_dir, start_state,
                                             start_aux)
    except G2FlowError as err:
        _error_record(run_dir, err)
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    if cfg.checks_enable:
        report = run_verification(cfg, run_dir)
    else:
        report = {'passed': True, 'groups': {}}
        atomic_write_json(os.path.join(run_dir, 'verification.json'), report)
    final_row = {k: v for k, v in history[-1].items()} if history else {}
    write_manifest(cfg, run_dir, events, c,
                   extra={'monitors': monitor_summary(history),
                          'final': final_row})
    if cfg.output_plots:
        data = read_csv(os.path.join(run_dir, 'series.csv'))
        write_run_plots(run_dir, data)
    if not report['passed']:
        print("verification failed; see verification.json", file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg):
    run_dir = cfg.output_dir
    os.makedirs(run_dir, exist_ok=True)
    try:
        report = run_verification(cfg, run_dir)
    except G2FlowError as err:
        _error_record(run_dir, err)
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
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
    # honor the thread-count variable before any heavy numpy work
    threads = os.environ.get('G2FLOW_THREADS')
    if threads:
        for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',
                    'MKL_NUM_THREADS'):
            os.environ.setdefault(var, threads)
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

    try:
        if args.command == 'run':
            return cmd_run(_load_config(args.config))
        if args.command == 'verify':
            return cmd_verify(_load_config(args.config))
        if args.command == 'resume':
            return cmd_run(_load_config(args.config),
                           resume_from=args.snapshot)
        if args.command == 'report':
            return cmd_report(args.run_dir)
    except ConfigError as err:
        for p in err.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    return 2


if __name__ == '__main__':
    sys.exit(main())
