"""Acceptance gate: each test is one acceptance criterion, checked at its
stated tolerance, printing one PASS/FAIL line (run with -s to stream them).

The long perturbed run (criteria 4, 5, 7, 9) is a module fixture shared by
its consumers; criteria with stated runtime budgets assert them.
"""

import json
import time

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import cli
from g2flow import flow as fl
from g2flow import verify as vf
from g2flow.curvature import auto_shift, traceless_ricci_ratio_fit
from g2flow.initial_data import flat_phi_field

from conftest import contraction_residuals, pullback, scenario_spec

EPSILON = 0.05
SPATIAL_TOL = {32: EPSILON * (2 * np.pi / 32) ** 4,
               64: EPSILON * (2 * np.pi / 64) ** 4}


_CAPSYS = None


@pytest.fixture(autouse=True)
def _passthrough_printer(capsys):
    """Let the per-criterion PASS/FAIL lines reach the real stdout even
    under pytest's fd-level capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """200 monitored steps of the standard perturbed scenario with a
    conservative step policy (dt well below the parabolic limit keeps the
    whole run inside the window where the pinching constant is resolved)."""
    out = tmp_path_factory.mktemp("accept") / "run200"
    text = f"""\
grid.n = 32
grid.active_axes = 1,2
initial.family = perturbed
initial.epsilon = {EPSILON}
flow.steps = 200
flow.safety = 0.06
pinching.c = auto
pinching.gammas = 1.5,2,3
output.dir = {out}
output.snapshot_every = 100
"""
    cfg = cli.parse_config(text)
    history, events, c, final = cli.run_flow(cfg, str(out))
    return {'history': history, 'c': c, 'dir': str(out), 'cfg': cfg}


class TestCriterion1:
    def test_pointwise_algebra_suite(self):
        t0 = time.time()
        res, _ = contraction_residuals(al.standard_phi())
        std = float(np.max(list(res.values())))
        std_ok = std <= 1e-12

        rng = np.random.default_rng(2026)
        n = 1000
        q1 = np.linalg.qr(rng.normal(size=(n, 7, 7)))[0]
        q2 = np.linalg.qr(rng.normal(size=(n, 7, 7)))[0]
        sv = rng.uniform(0.5, 2.0, size=(n, 7))
        us = q1 * sv[:, None, :] @ q2
        _, rel = contraction_residuals(pullback(us, al.standard_phi()))
        worst = float(np.max(list(rel.values())))
        elapsed = time.time() - t0
        ok = std_ok and worst <= 1e-8 and elapsed < 10.0
        assert report(
            "1 (pointwise algebra)", ok,
            f"standard residual {std:.2e} <= 1e-12, "
            f"1000 pullbacks worst rel {worst:.2e} <= 1e-8, "
            f"{elapsed:.1f}s < 10s")


class TestCriterion2:
    def test_flat_fixed_point(self):
        t0 = time.time()
        spec = scenario_spec(16)
        st = fl.FlowState(0.0, flat_phi_field(spec))
        ref = st.phi.values.copy()
        for _ in range(100):
            st = fl.step(st)
        drift = float(np.max(np.abs(st.phi.values - ref)))
        b = st.bundle
        from g2flow.curvature import weyl
        W = weyl(b, st.metric)
        worst = max(float(np.max(np.abs(st.T))), float(np.max(np.abs(b.R))),
                    float(np.max(np.abs(b.Rm))), float(np.max(np.abs(W))))
        elapsed = time.time() - t0
        ok = drift <= 1e-12 and worst <= 1e-12 and elapsed < 30.0
        assert report(
            "2 (flat fixed point)", ok,
            f"drift {drift:.2e}, curvature/torsion {worst:.2e} <= 1e-12, "
            f"{elapsed:.1f}s < 30s")


class TestCriterion3:
    def test_structure_identities_spatial_order(self, state32, state64):
        t0 = time.time()
        res32 = vf.structure_residuals(state32)
        res64 = vf.structure_residuals(state64)
        orders = {name: float(np.log2(res32[name] / res64[name]))
                  for name in res32}
        worst_name = min(orders, key=orders.get)
        elapsed = time.time() - t0
        ok = all(o >= 3.5 for o in orders.values()) and elapsed < 300.0
        assert report(
            "3 (structure identities 32->64)", ok,
            f"orders {min(orders.values()):.2f}..{max(orders.values()):.2f} "
            f"(worst {worst_name}), {elapsed:.0f}s < 300s")


class TestCriterion4:
    def test_closedness_and_cohomology(self, long_run):
        rows = long_run['history']
        closed = max(r['closedness'] for r in rows)
        period = max(r['period_max_err'] for r in rows)
        period_rel = period / (2.0 * np.pi) ** 3
        ok = len(rows) == 201 and closed <= 1e-12 and period_rel <= 1e-10
        assert report(
            "4 (closedness and cohomology)", ok,
            f"200 steps, ||d phi|| {closed:.2e} <= 1e-12, "
            f"period drift {period_rel:.2e} <= 1e-10 relative")


class TestCriterion5:
    def test_volume_monotonicity(self, long_run):
        vols = np.array([r['volume'] for r in long_run['history']])
        slack = -1e-10 * vols[:-1]
        ok = bool(np.all(np.diff(vols) >= slack))
        assert report(
            "5 (volume ascent)", ok,
            f"min step increment {float(np.min(np.diff(vols))):.3e} "
            f"(slack 1e-10 relative)")


class TestCriterion6:
    def test_evolution_equations(self, state64):
        t0 = time.time()
        c = auto_shift(state64.bundle)
        h = state64.spec.min_active_spacing()
        results = vf.run_evolution_checks(
            state64, dt=4.0 * 0.5 * h * h, c=c, gammas=(1.5, 2.0, 3.0))
        orders = {n: r['measured_order'] for n, r in results.items()}
        time_ok = all(r['passed'] for r in results.values())

        ts = vf.StateTensors(state64, c=c)
        tol4 = {
            'divergence_identity': 0.2 * EPSILON * h ** 4,
            'shifted_norm_consistency': 1.0 * EPSILON * h ** 4,
            'ricci_trace_vs_scalar': 20.0 * EPSILON * h ** 4,
        }
        cross = {
            'divergence_identity': vf.divergence_identity_residual(ts),
            'shifted_norm_consistency':
                vf.shifted_norm_consistency_residual(ts),
            'ricci_trace_vs_scalar': vf.ricci_trace_vs_scalar_residual(ts),
        }
        cross_ok = all(cross[k] <= tol4[k] for k in cross)
        exact = vf.shifted_scalar_consistency_residual(ts)
        elapsed = time.time() - t0
        ok = time_ok and cross_ok and exact <= 1e-9 and elapsed < 600.0
        assert report(
            "6 (evolution equations)", ok,
            f"time orders {min(orders.values()):.2f}.."
            f"{max(orders.values()):.2f} >= 1.8, crosschecks "
            + ", ".join(f"{k} {cross[k]:.1e}<={tol4[k]:.1e}" for k in cross)
            + f", exact H-consistency {exact:.1e} <= 1e-9, "
            f"{elapsed:.0f}s < 600s")


class TestCriterion7:
    def test_pinching_monitors(self, long_run):
        rows = long_run['history']
        f2 = np.array([r['f_max_g2'] for r in rows], dtype=float)
        finite = bool(np.all(np.isfinite(f2)))
        c1 = float(np.sqrt(f2[0]))
        fit = traceless_ricci_ratio_fit(rows, c1)
        margins_ok = fit['min_margin'] >= 0.0
        mins = np.array([r['min_C_g2'] for r in rows
                         if r.get('min_C_g2') is not None])
        med = float(np.median(mins))
        mx = float(np.max(mins))
        if mx == 0.0:
            ratio_ok, ratio_txt = True, "series identically zero"
        elif med == 0.0:
            ratio_ok, ratio_txt = False, "median zero with positive max"
        else:
            ratio_ok = mx / med <= 10.0
            ratio_txt = f"max/median {mx / med:.2f} <= 10"
        ok = finite and margins_ok and ratio_ok
        assert report(
            "7 (pinching monitors)", ok,
            f"f finite, fit C1={fit['C1']:.3f} C2={fit['C2']:.3f} "
            f"min margin {fit['min_margin']:.3f} >= 0, minimal-C {ratio_txt}")


class TestCriterion8:
    def test_determinism_and_persistence(self, tmp_path):
        base = """\
grid.n = 8
grid.active_axes = 1,2
initial.family = perturbed
initial.epsilon = 0.05
flow.steps = 10
flow.safety = 0.25
output.dir = {out}
output.snapshot_every = 5
"""
        d1, d2, d3 = (tmp_path / n for n in ("full", "resumed", "replay"))
        c1p = tmp_path / "c1.cfg"
        c1p.write_text(base.format(out=d1))
        assert cli.main(['run', str(c1p)]) == 0
        c2p = tmp_path / "c2.cfg"
        c2p.write_text(base.format(out=d2))
        snap = str(d1 / 'snapshots' / 'step000005.g2snap')
        assert cli.main(['resume', snap, str(c2p)]) == 0
        full = (d1 / 'series.csv').read_text().splitlines()
        part = (d2 / 'series.csv').read_text().splitlines()
        resume_ok = part[0] == full[0] and part[1:] == full[7:]

        man = json.loads((d1 / 'manifest.json').read_text())
        c3p = tmp_path / "c3.cfg"
        c3p.write_text(man['config_text'].replace(str(d1), str(d3)))
        assert cli.main(['run', str(c3p)]) == 0
        replay_ok = (d1 / 'series.csv').read_bytes() == \
            (d3 / 'series.csv').read_bytes()
        ok = resume_ok and replay_ok
        assert report(
            "8 (determinism and persistence)", ok,
            f"resume rows byte-identical: {resume_ok}, manifest config "
            f"replay byte-identical: {replay_ok}")


class TestCriterion9:
    def test_scalar_nonpositivity(self, long_run, state32, state64):
        max_r_run = max(r['max_R'] for r in long_run['history'])
        tol_run = 10.0 * SPATIAL_TOL[32]
        fixed_ok = (float(np.max(state32.bundle.R)) <= 10.0 * SPATIAL_TOL[32]
                    and float(np.max(state64.bundle.R)) <= 10.0 * SPATIAL_TOL[64])
        ok = max_r_run <= tol_run and fixed_ok
        assert report(
            "9 (scalar curvature nonpositive)", ok,
            f"run max R {max_r_run:.3e} <= {tol_run:.1e}; fixed states "
            f"within 10x spatial tolerance as well")
