"""The g2flow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke      # N=8, seconds

Run from the root of a g2flow checkout; the package is imported from
``src``.  Workloads and their reasons are in workloads.py, the spans of
the traced run in spans.py.

Set-up is timed in SETUP_REPEATS fresh processes (after one warm-up that
fills the byte-code cache) and reported as their median.  The workload
itself runs in one more fresh process, so its peak RSS is its own.  BLAS
and OpenMP thread counts and the allocator are pinned by PINNED_ENV in
every child.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
state the workload, the machine fingerprint and every metric with its
unit, ``failed_ratio`` included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import BASELINE_NOTES, per_layer_metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = 1     # BLAS/OpenMP threads; no higher than nproc
# The malloc settings make glibc keep freed memory for reuse instead of
# unmapping it.  With the defaults, page faults took about 30% of a
# flow_integrate_3d run, and their cost on a shared VM varied by 25% from
# run to run, more than any bound could absorb.
PINNED_ENV = {
    'OMP_NUM_THREADS': str(THREADS),
    'OPENBLAS_NUM_THREADS': str(THREADS),
    'MKL_NUM_THREADS': str(THREADS),
    'G2FLOW_THREADS': str(THREADS),
    'MALLOC_MMAP_THRESHOLD_': '1073741824',
    'MALLOC_TRIM_THRESHOLD_': '4294967296',
}
SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 2
TIME_LIMIT_S = 170.0
OUT_DIR = '.perfbench_out'

END_TO_END = (
    ('setup_s', 's'),
    ('run_s', 's'),
    ('step_s.p50', 's'),
    ('peak_rss_mb', 'MB'),
)


class ChildFailed(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(root / 'src')] + ([env['PYTHONPATH']] if env.get('PYTHONPATH')
                               else []))
    env.update(PINNED_ENV)
    return env


def run_child(root, env, mode, spec, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f'{mode}: time limit reached')
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / 'child.py'), mode, json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f'{mode}: timed out') from err
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f'{mode}: exit code {proc.returncode}')
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise ChildFailed(f'{mode}: no result line') from err


def fingerprint_label(fp):
    """'matches reference' or the fields that differ from the machine the
    bounds were tuned on."""
    with open(HERE / 'reference_fingerprint.json') as f:
        ref = json.load(f)
    diff = [k for k in ref if fp.get(k) != ref[k]]
    if not diff:
        return 'matches reference'
    return 'DIFFERS from reference in ' + ', '.join(diff) + \
        ': figures are not comparable with runs on the reference machine'


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[1])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, default=0)
    ap.add_argument('--seconds', type=float, default=10.0)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--smoke', action='store_true',
                    help='tiny grids (N=8) and few steps, for selftest.py')
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error('--seed must be >= 0')

    root = HERE.parent
    if not (root / 'src' / 'g2flow' / '__init__.py').is_file():
        print(f'perfbench: no g2flow package under {root / "src"}',
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(root)
    wl = WORKLOADS[args.workload]
    tag = f'{wl.name}-seed{args.seed}'
    spec = {'workload': wl.name, 'seed': args.seed, 'smoke': args.smoke,
            'seconds': args.seconds, 'trace': args.trace,
            'pinned_env': sorted(PINNED_ENV),
            'out_dir': str(root / OUT_DIR / f'{tag}-{os.getpid()}'),
            'trace_file': str(root / OUT_DIR / f'trace-{tag}.json')}
    repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
    try:
        setups = [run_child(root, env, 'setup', spec, deadline)['setup_s']
                  for _ in range(repeats + 1)][1:]
        if args.trace:
            # the untraced reference is a fresh process too, so both sides
            # of trace.overhead_s pay the same first-unit costs
            ref = run_child(root, env, 'run', dict(spec, trace=0), deadline)
        res = run_child(root, env, 'run', spec, deadline)
    except ChildFailed as err:
        print(f'perfbench: {err}', file=sys.stderr)
        return 1

    units = [ref, res] if args.trace else [res]
    attempted = sum(u['attempted'] for u in units)
    failed = sum(u['failed'] for u in units)
    correct = failed == 0 and all(u['run_s'] is not None for u in units)
    n, steps = wl.size(args.seconds, args.smoke)
    fp = res['fingerprint']
    print(f'perfbench: workload {wl.name}, seed {args.seed}, '
        f'{wl.points(args.seconds, args.smoke)} grid points '
        f'({n}^{len(wl.axes)}), {steps or "no"} flow steps; closed loop, '
        f'1 client process, {THREADS} BLAS/OpenMP thread(s)')
    print(f'perfbench: fingerprint {json.dumps(fp, sort_keys=True)} '
        f'({fingerprint_label(fp)})')
    print(f'perfbench: failed_ratio = {failed / attempted:.6g} fraction '
        f'({failed} of {attempted} operations failed)')

    if args.trace:
        layers = res['layers']
        if correct:
            layers['trace.overhead_s'] = res['run_s'] - ref['run_s']
            layers['trace.uncovered_s'] = res['uncovered_s']
        else:
            layers['trace.overhead_s'] = layers['trace.uncovered_s'] = 0.0
        metrics = {name: {'value': layers[name], 'unit': unit}
                   for name, unit in per_layer_metric_specs()}
        print(f"perfbench: {res['span_count']} spans, trace written to "
            f"{OUT_DIR}/trace-{tag}.json; missing span targets: "
            f"{', '.join(res['missing']) or 'none'}")
        if wl.name == 'flow_monitored_2d':
            for name, base in BASELINE_NOTES.items():
                med = res['call_medians'][name]
                got = 'no calls' if med is None else f'{med * 1e3:.1f} ms'
                print(f'perfbench: per-call median {name}: {got} at N={n} '
                    f'(ROADMAP baseline {base * 1e3:.0f} ms at N=32)')
    else:
        values = {
            'setup_s': statistics.median(setups),
            'run_s': res['run_s'] or 0.0,
            'step_s.p50': (statistics.median(res['step_s'])
                           if res['step_s'] else 0.0),
            'peak_rss_mb': res['peak_rss_mb'],
        }
        metrics = {name: {'value': values[name], 'unit': unit}
                   for name, unit in END_TO_END}
        print(f'perfbench: setup_s is the median of {len(setups)} fresh '
            f'processes, step_s.p50 the median of {len(res["step_s"])} '
            f'steps')
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
