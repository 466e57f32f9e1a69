"""Tests of the benchmark itself (not of g2flow).

    python3 perfbench/selftest.py

Run from the root of a checkout.  The smoke runs use N=8 grids and take
seconds; at N=8 the verification suite is too coarse for its order gates,
so only its check count is asserted there.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / 'src')]

import spans  # noqa: E402
import workloads as wls  # noqa: E402

BENCHMARK = json.loads((ROOT / 'BENCHMARK.json').read_text())
BARE_DIR = ROOT / '.perfbench_out' / 'bare'


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / 'perfbench' / 'run.py'), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestInputs(unittest.TestCase):

    def test_seed0_is_the_acceptance_scenario(self):
        from g2flow import cli
        from g2flow.initial_data import DEFAULT_MODES
        for wl in wls.WORKLOADS.values():
            cfg = cli.parse_config(wl.config_text(0, 20))
            self.assertEqual(cfg.modes()[:len(DEFAULT_MODES)], DEFAULT_MODES)

    def test_seed_sets_phases_only_and_repeats(self):
        base = wls.DEFAULT_MODES + wls.AXIS3_MODES
        a, b = wls.seeded_modes(base, 7), wls.seeded_modes(base, 7)
        self.assertEqual(a, b)
        self.assertNotEqual(a, wls.seeded_modes(base, 8))
        for (w, c, amp, _), (w2, c2, amp2, _) in zip(a, base):
            self.assertEqual((w, c, amp), (w2, c2, amp2))

    def test_3d_workload_has_axis3_waves(self):
        wl = wls.WORKLOADS['flow_integrate_3d']
        self.assertIn(3, wl.axes)
        self.assertTrue(any(w[2] for w, _, _, _ in wl.modes))

    def test_3d_dt_is_below_suggested_dt(self):
        from g2flow import cli, flow
        cfg = cli.parse_config(
            wls.WORKLOADS['flow_integrate_3d'].config_text(0, 20))
        state, _ = cli.build_initial_state(cfg)
        h = state.spec.min_active_spacing()
        self.assertLess(wls.DT_FRACTION * h * h,
                        flow.suggest_dt(state, flow.StepPolicy()))

    def test_step_count_depends_on_seconds_only(self):
        wl = wls.WORKLOADS['flow_monitored_2d']
        self.assertEqual(wl.size(20), wl.size(20))
        self.assertGreater(wl.size(40)[1], wl.size(20)[1])
        self.assertEqual(wls.WORKLOADS['verify_suite_n64'].size(20), (64, 0))


class TestTracer(unittest.TestCase):

    def test_wraps_every_binding_and_restores(self):
        from g2flow import curvature, geometry, verify
        orig = geometry.tensor_norm2
        tr = spans.Tracer()
        tr.install()
        try:
            self.assertEqual(tr.missing, [])
            self.assertIsNot(geometry.tensor_norm2, orig)
            self.assertIs(curvature.tensor_norm2, geometry.tensor_norm2)
            self.assertIs(verify.tensor_norm2, geometry.tensor_norm2)
            self.assertIs(verify.c1_norm, curvature.c1_norm)
        finally:
            tr.uninstall()
        self.assertIs(geometry.tensor_norm2, orig)
        self.assertIs(curvature.tensor_norm2, orig)

    def test_missing_target_is_reported(self):
        tr = spans.Tracer(spans.SPANS + (('geometry', 'no_such_function'),
                                         ('nomodule', 'f')))
        tr.install()
        tr.uninstall()
        self.assertEqual(tr.missing,
                         ['geometry.no_such_function', 'nomodule.f'])

    def test_self_time_excludes_children(self):
        from g2flow import grid
        from g2flow.initial_data import perturbed_phi_field
        spec = grid.GridSpec.from_active(8, (0, 1))
        phi = perturbed_phi_field(spec)
        tr = spans.Tracer()
        tr.install()
        try:
            grid.exterior_derivative(phi)
            with tr.paused():
                grid.exterior_derivative(phi)
        finally:
            tr.uninstall()
        m, top = tr.layer_metrics()
        self.assertEqual(m['grid.exterior_derivative.calls'], 1)
        self.assertEqual(m['grid.partial_derivative.calls'], 2)
        self.assertAlmostEqual(
            m['grid.exterior_derivative.self_s']
            + m['grid.partial_derivative.self_s'],
            m['grid.exterior_derivative.total_s'])
        self.assertEqual(top, m['grid.exterior_derivative.total_s'])


class TestSmokeRuns(unittest.TestCase):
    """Every workload, untraced and traced, at N=8."""

    def check(self, workload, trace):
        proc = bench('--workload', workload, '--seed', '3', '--seconds', '1',
                     '--trace', str(trace), '--smoke')
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.assertEqual(set(res), {'correct', 'attempted', 'failed',
                                    'metrics'})
        want = BENCHMARK['per_layer' if trace else 'end_to_end']
        self.assertEqual({k: v['unit'] for k, v in res['metrics'].items()},
                         {m['name']: m['unit'] for m in want})
        self.assertIn('failed_ratio =', proc.stdout)
        self.assertIn('fingerprint', proc.stdout)
        if workload == 'verify_suite_n64':
            self.assertEqual(res['attempted'], 24 * (1 + trace))
        else:
            self.assertTrue(res['correct'], proc.stdout + proc.stderr)
            self.assertEqual(res['failed'], 0)
        return res['metrics']

    def test_untraced(self):
        for wl in wls.WORKLOADS:
            with self.subTest(wl):
                m = self.check(wl, 0)
                self.assertTrue(all(v['value'] > 0 for v in m.values()))

    def test_traced(self):
        for wl in wls.WORKLOADS:
            with self.subTest(wl):
                m = self.check(wl, 1)
                c1 = m['curvature.c1_norm.calls']['value']
                if wl == 'flow_monitored_2d':
                    self.assertGreater(c1, 0)
                    self.assertGreater(m['verify.minimal_pinching_constant'
                                         '.calls']['value'], 0)
                else:
                    self.assertEqual(c1, 0)
                if wl == 'flow_integrate_3d':
                    self.assertGreater(m['flow.snapshot.bytes']['value'], 0)
                    self.assertGreater(m['flow.restore.calls']['value'], 0)
                self.assertEqual(m['flow.step.accept_ratio']['value'], 1.0)
                self.assertTrue(
                    (ROOT / '.perfbench_out' / f'trace-{wl}-seed3.json')
                    .is_file())

    def test_fails_without_the_program(self):
        shutil.rmtree(BARE_DIR, ignore_errors=True)
        BARE_DIR.mkdir(parents=True)
        try:
            shutil.copy(ROOT / 'BENCHMARK.json', BARE_DIR)
            shutil.copytree(HERE, BARE_DIR / 'perfbench',
                            ignore=shutil.ignore_patterns('__pycache__'))
            proc = bench('--workload', 'flow_integrate_3d', '--seed', '0',
                         '--seconds', '1', '--trace', '0', cwd=BARE_DIR)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, '')
        finally:
            shutil.rmtree(BARE_DIR, ignore_errors=True)


if __name__ == '__main__':
    os.chdir(ROOT)
    unittest.main()
