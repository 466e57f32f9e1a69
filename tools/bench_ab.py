"""Paired A/B benchmark record of two g2flow commits.

    python tools/bench_ab.py --label NAME [--base REV] [--change REV]
        [--workloads a,b] [--seeds 1,2,3] [--smoke] [--out DIR]

Exports each revision with ``git archive`` into its own temporary
directory (no network, nothing registered in the repository), then runs
``perfbench/run.py`` unchanged in both trees for BENCHMARK.json's
``run_seconds``, one seed after the other, in ABBA order: the base runs
first for the 1st, 3rd, ... seed and the change first for the 2nd, 4th,
....  Writes ``BENCH_<label>.json`` into --out
with both commit ids, the machine fingerprint, every raw result line and,
per workload and end-to-end metric of BENCHMARK.json, the paired
change/base ratios, their median, the number of pairs in which the change
was lower, the exact two-sided sign-test p-value of those pairs (ties
dropped), both sides' quartiles and a verdict (see ``verdict``).
``--base HEAD --change HEAD`` is a self-pair: its ratios show the spread
that noise alone gives.

Exit status: 0 when every run was correct, 1 when a run failed or was
incorrect (the record is written either way), 2 on a usage error, such as
an --out that is not an existing directory (refused before any run).
"""

import argparse
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = re.compile(r'^perfbench: fingerprint (\{.*\}) \((.*)\)$')


def git(*args):
    return subprocess.run(['git', '-C', str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit, dest):
    """The committed files of ``commit``, extracted under ``dest``."""
    archive = subprocess.run(['git', '-C', str(ROOT), 'archive', commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, 'data_filter'):  # Python >= 3.10.12 / 3.11.4
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)


def run_perfbench(tree, workload, seed, seconds, smoke):
    """One perfbench run; its result object, fingerprint and exit code."""
    cmd = [sys.executable, 'perfbench/run.py', '--workload', workload,
           '--seed', str(seed), '--seconds', str(seconds),
           '--trace', '0'] + (['--smoke'] if smoke else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines() or ['']
    fp = [FINGERPRINT.match(x) for x in lines]
    fp = next((m.groups() for m in fp if m), (None, None))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
        sys.stderr.write(proc.stderr)
    return {'exit': proc.returncode, 'result': result,
            'fingerprint': json.loads(fp[0]) if fp[0] else None,
            'fingerprint_label': fp[1]}


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3 if xs else [None] * 3
    return statistics.quantiles(xs, n=4, method='inclusive')


def sign_test(vals):
    """Exact two-sided sign-test p-value of paired (base, change) values:
    ties are dropped, and under the null each remaining pair is lower on
    the change side with probability 1/2."""
    lower = sum(c < b for b, c in vals)
    n = lower + sum(c > b for b, c in vals)
    tail = sum(math.comb(n, k) for k in range(min(lower, n - lower) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def verdict(vals, bound, better):
    """The verdict on paired (base, change) values of one metric:

    - ``gain`` when the change is better in at least 9 of 10 pairs (ties
      count for neither side) and its median is better than the base's by
      more than the base's interquartile range;
    - ``regression`` when the change's median is worse than the base's by
      more than the bound, a fraction of the base's median;
    - ``unresolved`` when the base's interquartile range is wider than the
      bound allows;
    - ``no change`` otherwise."""
    sign = 1.0 if better == 'lower' else -1.0
    base, change = (sorted(v) for v in zip(*vals))
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    wins = sum(sign * (c - b) < 0 for b, c in vals)
    if 10 * wins >= 9 * len(vals) and sign * (b_med - c_med) > q3 - q1:
        return 'gain'
    if sign * (c_med - b_med) > bound * abs(b_med):
        return 'regression'
    if q3 - q1 > bound * abs(b_med):
        return 'unresolved'
    return 'no change'


def summarize(pairs, metric):
    """Paired statistics of one end-to-end metric over the pairs whose two
    runs were both correct."""
    name = metric['name']
    vals = [(p['base']['result']['metrics'][name]['value'],
             p['change']['result']['metrics'][name]['value'])
            for p in pairs if all(ok(p[s]) for s in ('base', 'change'))]
    if not vals:
        return {'pairs': 0}
    ratios = [c / b if b else float('nan') for b, c in vals]
    med = statistics.median(ratios)
    base_q, change_q = (quartiles(sorted(v)) for v in zip(*vals))
    return {'pairs': len(vals), 'ratios': ratios, 'median_ratio': med,
            'change_lower': sum(c < b for b, c in vals),
            'sign_test_p': sign_test(vals),
            'base_quartiles': base_q, 'change_quartiles': change_q,
            'bound': metric['bound'], 'better': metric['better'],
            'verdict': verdict(vals, metric['bound'], metric['better'])}


def ok(run):
    return run['exit'] == 0 and bool(run['result']) and \
        run['result']['correct']


def main(argv=None):
    with open(ROOT / 'BENCHMARK.json') as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--label', required=True)
    ap.add_argument('--base', default='HEAD~1')
    ap.add_argument('--change', default='HEAD')
    ap.add_argument('--workloads',
                    default=','.join(w['name'] for w in bench['workloads']))
    ap.add_argument('--seeds', default='1,2,3')
    ap.add_argument('--smoke', action='store_true',
                    help="perfbench's tiny grids (N=8), for a quick check")
    ap.add_argument('--out', default=str(ROOT))
    args = ap.parse_args(argv)
    known = {w['name'] for w in bench['workloads']}
    workloads = args.workloads.split(',')
    if not set(workloads) <= known or not re.fullmatch(r'[\w.-]+',
                                                       args.label):
        ap.error(f'workloads must be among {sorted(known)}, and the label '
                 'letters, digits, ".", "_" or "-"')
    # checked before git resolves anything, so outside a checkout too
    if not Path(args.out).is_dir():
        ap.error(f'--out {args.out} is not a directory')
    try:
        seeds = [int(s) for s in args.seeds.split(',')]
        commits = {side: git('rev-parse', '--verify', rev + '^{commit}')
                   for side, rev in (('base', args.base),
                                     ('change', args.change))}
    except (ValueError, subprocess.CalledProcessError) as err:
        ap.error(f'bad seeds or revision: {err}')

    record = {'label': args.label, 'base': commits['base'],
              'change': commits['change'], 'seconds': bench['run_seconds'],
              'smoke': args.smoke, 'seeds': seeds, 'workloads': {}}
    with tempfile.TemporaryDirectory(prefix='bench_ab-') as tmp:
        trees = {}
        for side, commit in commits.items():
            trees[side] = os.path.join(tmp, side)
            export(commit, trees[side])
        for wl in workloads:
            pairs = []
            for n, seed in enumerate(seeds):
                order = ('base', 'change') if n % 2 == 0 else \
                    ('change', 'base')
                pair = {'seed': seed, 'first': order[0]}
                for side in order:
                    pair[side] = run_perfbench(trees[side], wl, seed,
                                               bench['run_seconds'],
                                               args.smoke)
                    print(f'bench_ab: {wl} seed {seed} {side}: '
                          f"{json.dumps(pair[side]['result'])}", flush=True)
                pairs.append(pair)
            record['workloads'][wl] = {
                'pairs': pairs,
                'metrics': {m['name']: summarize(pairs, m)
                            for m in bench['end_to_end']}}
    runs = [p[s] for w in record['workloads'].values() for p in w['pairs']
            for s in ('base', 'change')]
    fps = [(r.pop('fingerprint'), r.pop('fingerprint_label')) for r in runs]
    record['fingerprint'], record['fingerprint_label'] = fps[0]
    record['fingerprints_agree'] = all(fp == fps[0] for fp in fps)
    out = Path(args.out) / f'BENCH_{args.label}.json'
    out.write_text(json.dumps(record, indent=1) + '\n')
    for wl, w in record['workloads'].items():
        for name, s in w['metrics'].items():
            if s['pairs']:
                print(f"bench_ab: {wl} {name}: median ratio "
                      f"{s['median_ratio']:.4f}, change lower in "
                      f"{s['change_lower']}/{s['pairs']}, sign-test p "
                      f"{s['sign_test_p']:.3g}: {s['verdict']}")
    print(f'bench_ab: wrote {out}')
    return 0 if all(ok(r) for r in runs) else 1


if __name__ == '__main__':
    sys.exit(main())
