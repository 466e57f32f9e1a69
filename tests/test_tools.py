"""The scripts under tools/, run as a user runs them."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from g2flow.cli import main

TOOLS = Path(__file__).resolve().parents[1] / 'tools'


def run_diff(a, b):
    return subprocess.run(
        [sys.executable, str(TOOLS / 'run_diff.py'), str(a), str(b)],
        capture_output=True, text=True, check=False)


def test_run_diff_of_a_run_against_itself(tmp_path):
    # every change is 0 and the exit status 0; a blanked cell in a copy
    # is a structural difference, exit status 1
    out = tmp_path / "run"
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"grid.n = 8\ninitial.family = perturbed\n"
                   f"flow.steps = 2\nchecks.enable = crosschecks\n"
                   f"output.dir = {out}\n")
    assert main(['run', str(cfg)]) in (0, 1)
    same = run_diff(out, out)
    assert same.returncode == 0, same.stdout + same.stderr
    changes = [line.strip('|').split('|')[-1].strip()
               for line in same.stdout.splitlines()
               if line.startswith('| ') and '---' not in line]
    numbers = [c for c in changes if c and c[0].isdigit()]
    assert len(numbers) > 20 and all(float(c) == 0.0 for c in numbers)
    assert 'DIFFERS' not in same.stdout

    other = tmp_path / "other"
    shutil.copytree(out, other)
    lines = (other / 'series.csv').read_text().splitlines()
    lines[1] = ','.join([''] + lines[1].split(',')[1:])
    (other / 'series.csv').write_text('\n'.join(lines) + '\n')
    changed = run_diff(out, other)
    assert changed.returncode == 1
    assert 'DIFFERS: series.csv column step: blank cells differ' in \
        changed.stdout


def test_bench_ab_sign_test():
    # exact two-sided p-values on hand-made (base, change) pairs; ties
    # count for neither side
    sys.path.insert(0, str(TOOLS))
    try:
        from bench_ab import sign_test
    finally:
        sys.path.remove(str(TOOLS))
    nine = [(1.0, 0.9)] * 9 + [(1.0, 1.1)]
    assert sign_test(nine) == pytest.approx(0.0215, abs=5e-5)
    assert sign_test(nine[::-1] + [(2.0, 2.0)] * 3) == sign_test(nine)
    assert sign_test([(1.0, 0.9)] * 10) == pytest.approx(0.00195, abs=5e-6)
    assert sign_test([(1.0, 1.1)] * 10) == sign_test([(1.0, 0.9)] * 10)
    assert sign_test([(1.0, 0.9), (1.0, 1.1)]) == 1.0
    assert sign_test([(1.0, 1.0)]) == 1.0


def test_bench_ab_verdicts():
    # synthetic (base, change) pairs against a 25% bound; the base's
    # interquartile range is 0.02 of its median unless made wide
    sys.path.insert(0, str(TOOLS))
    try:
        from bench_ab import verdict
    finally:
        sys.path.remove(str(TOOLS))
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]

    def pairs(scales, bases=base):
        return [(b, s * b) for b, s in zip(bases, scales)]

    assert verdict(pairs([0.8] * 10), 0.25, 'lower') == 'gain'
    # nine lower and one tie is 9/10; eight lower is not enough
    assert verdict(pairs([0.8] * 9 + [1.0]), 0.25, 'lower') == 'gain'
    assert verdict(pairs([0.8] * 8 + [1.1] * 2), 0.25, 'lower') == \
        'no change'
    # lower in every pair, but by less than the base's quartile spread
    assert verdict(pairs([0.999] * 10), 0.25, 'lower') == 'no change'
    assert verdict(pairs([1.3] * 10), 0.25, 'lower') == 'regression'
    assert verdict(pairs([1.2] * 10), 0.25, 'lower') == 'no change'
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(pairs([1.05] * 10, wide), 0.25, 'lower') == 'unresolved'
    assert verdict(pairs([1.2] * 10), 0.05, 'higher') == 'gain'
    assert verdict(pairs([0.9] * 10), 0.05, 'higher') == 'regression'


def test_bench_ab_smoke_self_pair(tmp_path):
    # HEAD against itself on perfbench's N=8 grids: one ABBA pair, both
    # runs correct, one ratio per end-to-end metric
    root = TOOLS.parent
    if subprocess.run(['git', '-C', str(root), 'rev-parse', 'HEAD'],
                      capture_output=True, check=False).returncode != 0:
        pytest.skip('needs a git checkout with a commit')
    proc = subprocess.run(
        [sys.executable, str(TOOLS / 'bench_ab.py'), '--label', 'selfpair',
         '--base', 'HEAD', '--change', 'HEAD', '--smoke', '--workloads',
         'flow_integrate_3d', '--seeds', '0', '--out', str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rec = json.loads((tmp_path / 'BENCH_selfpair.json').read_text())
    assert rec['base'] == rec['change'] and len(rec['base']) == 40
    assert rec['fingerprint']['nproc'] >= 1 and rec['fingerprints_agree']
    wl = rec['workloads']['flow_integrate_3d']
    (pair,) = wl['pairs']
    assert pair['first'] == 'base'
    assert pair['base']['result']['correct'] and \
        pair['change']['result']['correct']
    names = {m['name'] for m in json.loads(
        (root / 'BENCHMARK.json').read_text())['end_to_end']}
    assert set(wl['metrics']) == names
    for s in wl['metrics'].values():
        assert s['pairs'] == 1 and len(s['ratios']) == 1
        assert s['median_ratio'] == s['ratios'][0] > 0.0
        assert s['change_lower'] in (0, 1)
        assert 0.0 < s['sign_test_p'] <= 1.0
        assert s['verdict'] in ('gain', 'regression', 'unresolved',
                                'no change')


def test_bench_ab_refuses_missing_out_directory(tmp_path):
    # refused before the first run: exit 2, a message and no run lines
    missing = tmp_path / 'not' / 'made'
    proc = subprocess.run(
        [sys.executable, str(TOOLS / 'bench_ab.py'), '--label', 'x',
         '--base', 'HEAD', '--change', 'HEAD', '--smoke', '--workloads',
         'flow_integrate_3d', '--seeds', '0', '--out', str(missing)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert f'--out {missing} is not a directory' in proc.stderr
    assert 'bench_ab: ' not in proc.stdout
    assert not missing.exists()
