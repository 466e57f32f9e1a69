import gc
import hashlib
import json
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import cli
from g2flow import flow as fl
from g2flow import geometry as ge
from g2flow import report as rp
from g2flow import verify as vf
from g2flow.cli import main, monitor_summary, parse_config, run_flow
from g2flow.errors import ConfigError, PositivityLost

from conftest import flat_state, rewrite_header

BASE_CFG = """\
config_version = 1
grid.n = 8
grid.active_axes = 1,2
initial.family = {family}
flow.steps = {steps}
flow.safety = 0.25
pinching.gammas = 1.5,2
output.dir = {out}
output.snapshot_every = {snap}
"""


def write_cfg(tmp_path, name, **kw):
    kw.setdefault('steps', 8)
    kw.setdefault('snap', 4)
    kw.setdefault('family', 'perturbed')
    text = BASE_CFG.format(**kw)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# every real-valued key: a value template and the problem a non-finite
# entry gives (lists report their usual parse failure)
FINITE = "must be finite, got {!r}"
REAL_VALUED = [
    ('grid.period', '{}', FINITE),
    ('grid.periods', '1,1,1,1,1,1,{}', "cannot parse"),
    ('initial.epsilon', '{}', FINITE),
    ('flow.safety', '{}', FINITE),
    ('flow.fixed_dt', '{}', FINITE),
    ('pinching.c', '{}', FINITE),
    ('pinching.gammas', '1.5,{}', "cannot parse"),
    ('verify.dt_multiplier', '{}', FINITE),
]

# the default mode list moved onto axes 1 and 3
MODES_AXES_13 = ("1,0,0,0,0,0,0|2,3|1.0|0.4;0,0,1,0,0,0,0|4,5|0.85|1.1;"
                 "1,0,1,0,0,0,0|6,7|0.6|0.7;1,0,-1,0,0,0,0|1,4|0.45|0.2")

# conftest.MODES3: the default mode list and two modes along axis 3
MODES_AXES_123 = ("1,0,0,0,0,0,0|2,3|1.0|0.4;0,1,0,0,0,0,0|4,5|0.85|1.1;"
                  "1,1,0,0,0,0,0|6,7|0.6|0.7;1,-1,0,0,0,0,0|1,4|0.45|0.2;"
                  "0,1,0,0,0,0,0|2,5|0.35|2.1;0,0,1,0,0,0,0|3,6|0.5|0.3;"
                  "1,0,-1,0,0,0,0|1,7|0.4|1.3")


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.flow_steps == 100
        assert cfg.initial_family == 'flat'
        assert cfg.grid_n == 32
        assert cfg.pinching_c == 'auto'

    def test_comments_and_values(self):
        cfg = parse_config("# hi\nflow.steps = 7  # trailing\n")
        assert cfg.flow_steps == 7

    def test_all_violations_reported(self):
        bad = ("grid.n = 16\ngrid.n = 8\nwho = 1\n"
               "initial.epsilon = -2\nflow.safety = 7\nnot a line\n")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msgs = "\n".join(err.value.problems)
        assert "duplicate key" in msgs
        assert "unknown key" in msgs
        assert "epsilon" in msgs
        assert "safety" in msgs
        assert "expected key = value" in msgs
        assert len(err.value.problems) == 5

    def test_pinching_values_must_be_positive(self):
        with pytest.raises(ConfigError) as err:
            parse_config("pinching.c = -1\npinching.gammas = 1.5,0\n")
        msgs = "\n".join(err.value.problems)
        assert "pinching.c" in msgs
        assert "pinching.gammas" in msgs

    @pytest.mark.parametrize('bad', ['nan', 'inf'])
    @pytest.mark.parametrize('key, value, problem', REAL_VALUED,
                             ids=[row[0] for row in REAL_VALUED])
    def test_nonfinite_reals_rejected(self, key, value, problem, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {value.format(bad)}\n")
        assert err.value.problems == [f"{key}: {problem.format(bad)}"]

    def test_readme_config_block(self):
        # README's example config parses and names every key, so the docs
        # cannot list a key that is gone or miss one that is added
        readme = os.path.join(os.path.dirname(__file__), '..', 'README.md')
        with open(readme) as f:
            block = re.search(r'```ini\n(.*?)```', f.read(), re.S).group(1)
        parse_config(block)
        missing = [key for key, *_ in cli.SCHEMA if not re.search(
            rf'(?<![\w.]){re.escape(key)}(?![\w.])', block)]
        assert not missing

    def test_pinching_shift_is_auto_or_number(self):
        assert parse_config("pinching.c = 0.5").pinching_c == 0.5
        with pytest.raises(ConfigError) as err:
            parse_config("pinching.c = big")
        assert err.value.problems == ["pinching.c: cannot parse 'big'"]

    def test_modes_on_inactive_axis_rejected(self):
        text = "grid.n = 8\ngrid.active_axes = 1,3\ninitial.family = {}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text.format('perturbed'))
        assert err.value.problems == [
            "initial.modes: mode wave on inactive axis 2"]
        parse_config(text.format('flat'))
        parse_config(text.format('perturbed')
                     + f"initial.modes = {MODES_AXES_13}\n")

    def test_unsupported_version(self):
        with pytest.raises(ConfigError):
            parse_config("config_version = 2")

    def test_mode_list_parsing(self):
        cfg = parse_config(
            "initial.modes = 1,0,0,0,0,0,0|2,3|1.0|0.5;"
            "0,1,0,0,0,0,0|4,5|0.7|0.1")
        modes = cfg.modes()
        assert len(modes) == 2
        assert modes[0].comp == (1, 2)
        assert modes[1].amplitude == 0.7

    def test_bad_mode_list(self):
        with pytest.raises(ConfigError):
            parse_config("initial.modes = garbage")

    @pytest.mark.parametrize('mode, problem', [
        ('1,0,0,0,0,0,0,1|2,3|1|0', "mode has 8 wavenumbers, at most 7"),
        ('1,0,0,0,0,0,0|3,2|1|0', "mode component 3,2 is not a pair"),
        ('1,0,0,0,0,0,0|0,2|1|0', "mode component 0,2 is not a pair"),
        ('1,0,0,0,0,0,0|2,2|1|0', "mode component 2,2 is not a pair"),
        ('1,0,0,0,0,0,0|1,8|1|0', "mode component 1,8 is not a pair"),
    ])
    def test_malformed_mode_rejected(self, mode, problem):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.n = 8\ninitial.family = perturbed\n"
                         f"initial.modes = {mode}\n")
        [got] = err.value.problems
        assert got.startswith(f"initial.modes: {problem}")

    def test_grid_shape_override(self):
        cfg = parse_config("grid.shape = 8,1,8,1,1,1,1")
        assert cfg.grid_spec().active_axes == (0, 2)
        # grid.period stays the uniform period of a grid.shape
        spec = parse_config("grid.shape = 8,1,8,1,1,1,1\n"
                            "grid.period = 3.0").grid_spec()
        assert spec.periods == (3.0,) * 7

    SHAPE = "grid.shape = 8,8,1,1,1,1,1\n"
    PERIODS = "grid.periods = 1,2,3,4,5,6,7\n"

    @pytest.mark.parametrize('text, problem', [
        ("grid.n = 16\n" + SHAPE, "grid.n: cannot be mixed with grid.shape"),
        ("grid.active_axes = 1,3\n" + SHAPE,
         "grid.active_axes: cannot be mixed with grid.shape"),
        (SHAPE + PERIODS + "grid.period = 1\n",
         "grid.period: cannot be mixed with grid.periods"),
        ("grid.n = 16\n" + PERIODS, "grid.periods: needs grid.shape"),
        # a value that did not parse is reported once, as unparsable
        ("grid.n = x\n" + SHAPE, "grid.n: cannot parse 'x'"),
        ("grid.shape = 8,8\n" + PERIODS,
         "grid.shape: need 7 axis sizes, each 1 or at least 4"),
    ], ids=['n', 'active_axes', 'period', 'periods_alone', 'bad_n',
            'bad_shape'])
    def test_grid_keys_not_mixed(self, text, problem):
        # grid.shape and grid.periods spell the grid in place of the
        # uniform keys, which would otherwise be silently ignored
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize('shape', ['8,1,3,1,1,1,1', '2,1,8,1,1,1,1',
                                       '8,0,8,1,1,1,1', '8,8,8'])
    def test_grid_shape_axis_sizes(self, shape):
        # every axis has 1 or at least 4 points, as grid.n demands
        with pytest.raises(ConfigError) as err:
            parse_config(f"grid.shape = {shape}")
        assert err.value.problems == [
            "grid.shape: need 7 axis sizes, each 1 or at least 4"]
        parse_config("grid.shape = 4,1,5,1,1,1,1")

    @pytest.mark.parametrize('n', [4, 7])
    def test_structure_needs_halvable_grid(self, tmp_path, capsys, n):
        # the structure orders rerun a perturbed field at N // 2 points
        # per active axis, which must keep 4: refused before any work
        def text(n, family='perturbed', groups='structure'):
            return (f"grid.n = {n}\ninitial.family = {family}\n"
                    f"checks.enable = {groups}\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text(n))
        assert main(['verify', str(cfg)]) == 2
        assert "checks.enable: structure halves the grid, so each active " \
            "axis needs at least 8 points" in capsys.readouterr().err
        assert not (tmp_path / 'out').exists()
        parse_config(text(n, family='flat'))
        parse_config(text(n, groups='crosschecks,evolution'))
        parse_config(text(8))

    @pytest.mark.parametrize('grid', ['grid.n = 17',
                                      'grid.shape = 16,9,1,1,1,1,1'])
    def test_structure_needs_even_axes(self, tmp_path, capsys, grid):
        # the structure orders take log2 of the residual ratio, which
        # assumes the halved grid has exactly twice the spacing; N // 2 of
        # an odd N does not: refused before any work
        text = (f"{grid}\ninitial.family = perturbed\nchecks.enable = "
                f"structure\noutput.dir = {tmp_path / 'out'}\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text)
        assert main(['verify', str(cfg)]) == 2
        assert "checks.enable: structure halves the grid, so each active " \
            "axis needs an even number of points" in capsys.readouterr().err
        assert not (tmp_path / 'out').exists()
        parse_config(text.replace('perturbed', 'flat'))
        parse_config(text.replace('= structure', '= crosschecks,evolution'))

    def test_checks_groups(self):
        assert parse_config("checks.enable = all").checks_enable == \
            ('structure', 'evolution', 'crosschecks')
        assert parse_config("checks.enable = none").checks_enable == ()
        with pytest.raises(ConfigError):
            parse_config("checks.enable = structure,bogus")


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, "a.cfg", out=out)
        assert main(['run', cfg]) == 0
        assert (out / 'series.csv').exists()
        assert (out / 'manifest.json').exists()
        assert (out / 'snapshots' / 'final.g2snap').exists()
        data = rp.read_csv(out / 'series.csv')
        assert len(data['step']) == 9       # initial row + 8 steps
        assert max(data['closedness']) <= 1e-12
        assert max(data['period_max_err']) <= 1e-9
        man = json.loads((out / 'manifest.json').read_text())
        assert man['monitors']['available']
        assert man['monitors']['ratio_fit_min_margin'] >= 0.0

    def test_three_axis_monitored_run(self, tmp_path):
        # 3 monitored steps on axes 1,2,3 at N=16: every cell is finite
        # but the first row's dt and the first and last min_C_g2; the live
        # arrays peaked at 126.0 MB with c1_norm's d_a W and riemann's d_a H
        # whole-grid, at 85.8 MB with the Christoffel build, Lambda^2
        # (g^-1) and a dense W whole-grid, and at 58.1 MB with a dense Rm
        # and a whole-grid nabla phi in the torsion (51.3 MB without them)
        out = tmp_path / "run3"
        cfg = parse_config("grid.n = 16\ngrid.active_axes = 1,2,3\n"
                           "initial.family = perturbed\n"
                           f"initial.modes = {MODES_AXES_123}\n"
                           f"flow.steps = 3\noutput.dir = {out}\n")
        tracemalloc.start()
        try:
            run_flow(cfg, str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = rp.read_csv(out / 'series.csv')
        assert data['step'] == [0.0, 1.0, 2.0, 3.0]
        blank = {(c, row) for c, col in data.items()
                 for row, v in enumerate(col) if v is None}
        assert blank == {('dt', 0), ('min_C_g2', 0), ('min_C_g2', 3)}
        assert all(np.isfinite(v) for col in data.values() for v in col
                   if v is not None)
        assert peak <= 57e6

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = write_cfg(tmp_path, "c1.cfg", out=out1)
        cfg2 = write_cfg(tmp_path, "c2.cfg", out=out2)
        assert main(['run', cfg1]) == 0
        assert main(['run', cfg2]) == 0
        assert (out1 / 'series.csv').read_bytes() == \
            (out2 / 'series.csv').read_bytes()

    @pytest.mark.parametrize('family', ['perturbed', 'flat'])
    def test_resume_matches_unbroken(self, tmp_path, family):
        # epsilon stays at its default 0.05, which the flat family ignores
        out1, out2 = tmp_path / "full", tmp_path / "resumed"
        cfg1 = write_cfg(tmp_path, "f.cfg", out=out1, family=family)
        cfg2 = write_cfg(tmp_path, "g.cfg", out=out2, family=family)
        assert main(['run', cfg1]) == 0
        snap = str(out1 / 'snapshots' / 'step000004.g2snap')
        assert main(['resume', snap, cfg2]) == 0
        full = (out1 / 'series.csv').read_text().splitlines()
        part = (out2 / 'series.csv').read_text().splitlines()
        assert part[0] == full[0]
        # resumed rows are steps 5..8: rows 6.. of the unbroken file
        assert part[1:] == full[6:]

    def test_resume_at_end_builds_no_curvature(self, tmp_path,
                                               monkeypatch):
        # a snapshot already at flow.steps makes no row and no pinching
        # record, so nothing reads the restored state's curvature
        out = tmp_path / "full"
        assert main(['run', write_cfg(tmp_path, "f.cfg", out=out,
                                      steps=3)]) == 0

        def riemann(m):
            raise AssertionError("curvature built")

        monkeypatch.setattr(ge, 'riemann', riemann)
        monkeypatch.setattr(fl, 'riemann', riemann)
        cfg = write_cfg(tmp_path, "g.cfg", out=tmp_path / "r", steps=3)
        assert main(['resume', str(out / 'snapshots' / 'final.g2snap'),
                     cfg]) == 0
        assert len(rp.read_csv(tmp_path / "r" / 'series.csv')['step']) == 0

    @pytest.mark.parametrize('command', ['run', 'resume'])
    def test_one_live_state_per_step(self, tmp_path, monkeypatch, command):
        # from the second step on, the state stepped from is the only one
        # alive of the states the run was handed or made; no StateTensors
        # is alive at any step, so no monitor tensor outlives its row
        out = tmp_path / "full"
        argv = ['run', write_cfg(tmp_path, "f.cfg", out=out, steps=3)]
        if command == 'resume':
            assert main(argv) == 0
            argv = ['resume', str(out / 'snapshots' / 'final.g2snap'),
                    write_cfg(tmp_path, "g.cfg", out=tmp_path / "r", steps=6)]
        inner, live, calls = fl.step, weakref.WeakSet(), []

        def step(state, *args, **kwargs):
            gc.collect()
            if calls:
                assert set(live) == {state}
            assert not [x for x in gc.get_objects()
                        if isinstance(x, vf.StateTensors)]
            calls.append(state.step_index)
            live.add(state)
            new = inner(state, *args, **kwargs)
            live.add(new)
            return new
        monkeypatch.setattr(fl, 'step', step)
        assert main(argv) == 0
        assert calls == ([0, 1, 2] if command == 'run' else [3, 4, 5])

    @pytest.mark.parametrize('family, extra', [
        ('flat', ''), ('perturbed', 'initial.epsilon = 0.1\n'),
        ('perturbed', 'initial.modes = 1,0,0,0,0,0,0|2,3|1.0|0.4\n')],
        ids=['family', 'epsilon', 'modes'])
    def test_resume_from_other_initial_data_exit_code(self, tmp_path,
                                                      monkeypatch, family,
                                                      extra):
        # a perturbed run's snapshot with a config of the same grid whose
        # initial 3-form differs: refused before any step, no series.csv
        full = tmp_path / "full"
        assert main(['run', write_cfg(tmp_path, "f.cfg", out=full,
                                      steps=2, snap=0)]) == 0
        monkeypatch.setattr(fl, 'step', None)
        out = tmp_path / "other"
        cfg = tmp_path / "other.cfg"
        cfg.write_text(BASE_CFG.format(family=family, steps=4, snap=0,
                                       out=out) + extra)
        snap = str(full / 'snapshots' / 'final.g2snap')
        assert main(['resume', snap, str(cfg)]) == 3
        assert os.listdir(out) == ['error.json']
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'SnapshotError'
        assert "initial 3-form" in rec['message']

    def test_resume_from_snapshot_without_phi0_key(self, tmp_path):
        # the key holds the SHA-256 of the config's initial 3-form; a
        # snapshot written before it existed resumes unchecked, as before
        out1, out2 = tmp_path / "full", tmp_path / "resumed"
        cfg1 = write_cfg(tmp_path, "f.cfg", out=out1)
        assert main(['run', cfg1]) == 0
        state, aux = fl.restore(out1 / 'snapshots' / 'step000004.g2snap')
        phi0 = parse_config(open(cfg1).read()).initial_phi()
        assert aux.pop('phi0_sha256') == \
            hashlib.sha256(phi0.values.tobytes()).hexdigest()
        old = tmp_path / "old.g2snap"
        fl.snapshot(state, old, aux)
        cfg2 = write_cfg(tmp_path, "g.cfg", out=out2)
        assert main(['resume', str(old), cfg2]) == 0
        full = (out1 / 'series.csv').read_text().splitlines()
        part = (out2 / 'series.csv').read_text().splitlines()
        assert part[1:] == full[6:]

    def test_dt_column_is_the_step_taken(self, tmp_path):
        # at t = 1e6 the difference of consecutive times is not 0.001
        out = tmp_path / "run"
        text = BASE_CFG.format(family='flat', steps=3, out=out, snap=0)
        cfg = parse_config(text + "flow.fixed_dt = 0.001\n")
        run_flow(cfg, str(out), fl.FlowState(1e6, flat_state().phi))
        assert rp.read_csv(out / 'series.csv')['dt'] == [None] + [0.001] * 3

    def test_manifest_config_roundtrip(self, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        cfg1 = write_cfg(tmp_path, "m.cfg", out=out1)
        assert main(['run', cfg1]) == 0
        man = json.loads((out1 / 'manifest.json').read_text())
        text = man['config_text'].replace(str(out1), str(out2))
        cfg2 = tmp_path / "m2.cfg"
        cfg2.write_text(text)
        assert main(['run', str(cfg2)]) == 0
        assert (out1 / 'series.csv').read_bytes() == \
            (out2 / 'series.csv').read_bytes()

    def test_flat_run_with_all_checks_passes(self, tmp_path):
        out = tmp_path / "flat"
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"""\
grid.n = 8
initial.family = flat
flow.steps = 3
checks.enable = all
output.dir = {out}
""")
        assert main(['run', str(cfg)]) == 0
        rep = json.loads((out / 'verification.json').read_text())
        assert rep['passed']
        data = rp.read_csv(out / 'series.csv')
        for col in ('closedness', 'T2_max', 'E_max', 'W_c1_max', 'max_R'):
            assert max(abs(v) for v in data[col]) <= 1e-10

    def test_verification_json_byte_identical_on_rerun(self, tmp_path):
        outs = []
        for tag in ("v1", "v2"):
            out = tmp_path / tag
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(f"""\
grid.n = 8
initial.family = perturbed
initial.epsilon = 0.05
flow.steps = 0
checks.enable = crosschecks
output.dir = {out}
""")
            assert main(['verify', str(cfg)]) in (0, 1)
            outs.append((out / 'verification.json').read_bytes())
        assert outs[0] == outs[1]

    def test_verification_record_layout(self, tmp_path):
        # the perturbed N=8 structure group fails the 3.5 order gate on
        # its pre-asymptotic coarse grid; the layout is what is pinned here
        out = tmp_path / "layout"
        cfg = tmp_path / "layout.cfg"
        cfg.write_text(f"""\
grid.n = 8
initial.family = perturbed
checks.enable = all
verify.dt_multiplier = 0.25
output.dir = {out}
""")
        code = main(['verify', str(cfg)])
        rep = json.loads((out / 'verification.json').read_text())
        assert set(rep) == {'passed', 'groups', 'pinching_shift_c'}
        assert code == (0 if rep['passed'] else 1)
        groups = rep['groups']
        assert set(groups) == {'structure', 'crosschecks', 'evolution'}
        assert set(groups['structure']) == {
            'torsion_defines_nabla_phi', 'nabla_psi_formula',
            'lie_algebra_torsion_divergence', 'ricci_commutator_identity',
            'ricci_from_torsion_vs_metric',
            'scalar_equals_minus_torsion_norm', 'bianchi_type_identity',
            'torsion_gradient_formula'}
        assert set(groups['crosschecks']) == {
            'divergence_identity', 'bochner', 'ricci_trace_vs_scalar',
            'shifted_norm_consistency', 'shifted_scalar_consistency',
            'lichnerowicz_metric'}
        assert set(groups['evolution']) == {
            'general_flow_ricci', 'general_flow_scalar', 'ricci_evolution',
            'ricci_norm_evolution', 'scalar_evolution',
            'shifted_ricci_norm_evolution', 'shifted_scalar_evolution',
            'pinching_evolution_g1.5', 'pinching_evolution_g2',
            'pinching_evolution_g3'}
        keys = {'structure': {'residual_coarse', 'residual_fine', 'order',
                              'min_order', 'passed'},
                'crosschecks': {'residual', 'tolerance', 'passed'},
                'evolution': {'residuals', 'measured_order', 'min_order',
                              'passed'}}
        for name, records in groups.items():
            for rec in records.values():
                assert set(rec) == keys[name]
        for rec in groups['evolution'].values():
            assert len(rec['residuals']) == 3
        assert rep['passed'] == all(rec['passed'] for records in
                                    groups.values()
                                    for rec in records.values())

    @pytest.mark.parametrize('n, eps', [(8, 0.05), (16, 0.35)])
    def test_evolution_default_spacing_exit_code(self, tmp_path, n, eps):
        # the default verify.dt_multiplier on coarse grids: the trajectory
        # steps dt/4 = h^2/2, so it keeps positivity and the checks pass
        out = tmp_path / "evolution"
        cfg = tmp_path / "evolution.cfg"
        cfg.write_text(f"grid.n = {n}\ninitial.family = perturbed\n"
                       f"initial.epsilon = {eps}\nchecks.enable = evolution\n"
                       f"output.dir = {out}\n")
        assert main(['verify', str(cfg)]) == 0
        rep = json.loads((out / 'verification.json').read_text())
        assert len(rep['groups']['evolution']) == 10 and rep['passed']

    def test_verify_uses_grid_shape(self, tmp_path):
        # grid.shape spells the same grid as grid.n with grid.active_axes;
        # structure also builds the halved grid
        outs = []
        for tag, grid in (("shape", "grid.shape = 8,1,8,1,1,1,1"),
                          ("axes", "grid.n = 8\ngrid.active_axes = 1,3")):
            out = tmp_path / tag
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(f"""\
{grid}
initial.family = perturbed
initial.modes = {MODES_AXES_13}
checks.enable = structure,crosschecks
output.dir = {out}
""")
            assert main(['verify', str(cfg)]) in (0, 1)
            outs.append((out / 'verification.json').read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.n = -3\nunknown.key = 1\n")
        assert main(['run', str(cfg)]) == 2

    @pytest.mark.parametrize('key', [
        'flow.dt_floor', 'flow.max_dt', 'checks.tol_scale',
        'checks.min_time_order', 'verify.gammas'])
    def test_removed_key_exit_code(self, tmp_path, capsys, key):
        # the step bounds, verify's gates and its gammas are constants
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 1\noutput.dir = {tmp_path / 'out'}\n")
        assert main(['run', str(cfg)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize('command, key, scale, extra', [
        ('run', 'flow.fixed_dt', 1.0, ''),
        ('verify', 'verify.dt_multiplier', 8.0 / (2 * np.pi / 8) ** 2,
         'checks.enable = evolution\n')])
    def test_step_past_stability_exit_code(self, tmp_path, capsys, command,
                                           key, scale, extra):
        # N=8 on 2 axes: the cap is 0.703 h^2, so a fixed dt, or a verify
        # trajectory step dt/4 = multiplier h^2 / 8, just past it is refused
        cap = fl.stable_dt(parse_config("grid.n = 8\n").grid_spec())
        for factor, code in ((0.99, 0), (1.01, 2)):
            cfg = tmp_path / f"{code}.cfg"
            cfg.write_text(f"grid.n = 8\ninitial.family = perturbed\n"
                           f"flow.steps = 1\n{extra}"
                           f"{key} = {factor * scale * cap}\n"
                           f"output.dir = {tmp_path / str(code)}\n")
            assert main([command, str(cfg)]) == code
        assert f"{key}: the RK4 step" in capsys.readouterr().err

    def test_three_axis_verify_names_stable_multiplier(self, tmp_path,
                                                       capsys):
        # 3 equal axes at N=8: the default multiplier puts dt/4 past the
        # cap, so verify exits 2 and names 8 stable_dt / h^2 rounded down,
        # which the same config then takes
        grid = "grid.n = 8\ngrid.active_axes = 1,2,3\n"
        spec = parse_config(grid).grid_spec()
        h = spec.min_active_spacing()
        largest = 8.0 * fl.stable_dt(spec) / h ** 2
        cfg = tmp_path / "refused.cfg"
        cfg.write_text(f"{grid}initial.family = perturbed\n"
                       "checks.enable = evolution\n"
                       f"output.dir = {tmp_path / 'refused'}\n")
        assert main(['verify', str(cfg)]) == 2
        match = re.search(r"verify\.dt_multiplier: the RK4 step \S+ is past "
                          r"the stable step \S+ of this grid; the largest "
                          r"stable verify\.dt_multiplier is (\S+)\n",
                          capsys.readouterr().err)
        named = float(match.group(1))
        assert 0.999 * largest <= named <= largest
        cfg.write_text(cfg.read_text().replace("refused", "named")
                       + f"verify.dt_multiplier = {match.group(1)}\n")
        assert main(['verify', str(cfg)]) == 0

    def test_inactive_mode_axis_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "axes.cfg"
        cfg.write_text("grid.n = 8\ngrid.active_axes = 1,3\n"
                       "initial.family = perturbed\n"
                       f"output.dir = {tmp_path}\n")
        assert main(['run', str(cfg)]) == 2
        assert "initial.modes: mode wave on inactive axis 2" in \
            capsys.readouterr().err

    def test_nonpositive_shift_pauses(self, tmp_path):
        # min(R + c) < 0 on every state: the pinching cells stay blank,
        # the manifest records the pause, and the run still exits 0
        out = tmp_path / "pause"
        cfg = tmp_path / "pause.cfg"
        cfg.write_text(BASE_CFG.format(family='perturbed', steps=3, snap=0,
                                       out=out) + "pinching.c = 0.0001\n")
        assert main(['run', str(cfg)]) == 0
        man = json.loads((out / 'manifest.json').read_text())
        assert any(e.startswith('pinching monitors paused')
                   for e in man['events'])
        data = rp.read_csv(out / 'series.csv')
        assert len(data['step']) == 4
        assert all(r + 0.0001 < 0.0 for r in data['min_R'])
        for col in ('ratio_lhs', 'f_max_g1.5', 'f_max_g2', 'f_min_g2',
                    'min_C_g2'):
            assert data[col] == [None] * 4

    def test_nonpositive_shift_in_checks_exit_code(self, tmp_path):
        # the crosschecks need R + c > 0: a typed error and exit 3 after
        # the run, not a traceback
        out = tmp_path / "chk"
        cfg = tmp_path / "chk.cfg"
        cfg.write_text(BASE_CFG.format(family='perturbed', steps=1, snap=0,
                                       out=out)
                       + "pinching.c = 0.0001\nchecks.enable = crosschecks\n")
        assert main(['run', str(cfg)]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'NonPositiveShiftedScalar'

    def test_failed_checks_exit_code(self, tmp_path, capsys, monkeypatch):
        # every cross-check tolerance zeroed: the run completes and exits 1
        monkeypatch.setattr(vf, 'CROSSCHECKS', tuple(
            (name, residual, 0.0, exact)
            for name, residual, _, exact in vf.CROSSCHECKS))
        out = tmp_path / "fail"
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(BASE_CFG.format(family='perturbed', steps=1, snap=0,
                                       out=out)
                       + "checks.enable = crosschecks\n")
        assert main(['run', str(cfg)]) == 1
        assert "verification failed" in capsys.readouterr().err
        report = json.loads((out / 'verification.json').read_text())
        assert not report['passed']
        assert (out / 'series.csv').exists()
        assert not (out / 'error.json').exists()

    def test_grid_keys_mixed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "mixed"
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("grid.n = 16\ngrid.periods = 1,2,3,4,5,6,7\n"
                       f"output.dir = {out}\n")
        assert main(['run', str(cfg)]) == 2
        assert "grid.periods: needs grid.shape" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_without_checks_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nochecks"
        cfg = write_cfg(tmp_path, "nochecks.cfg", out=out)
        assert main(['verify', cfg]) == 2
        assert "checks.enable: g2flow verify needs at least one check " \
            "group" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self):
        assert main(['run', '/definitely/not/here.cfg']) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # a truncated snapshot fails at restore time
        snap = tmp_path / "corrupt.g2snap"
        snap.write_bytes(b"G2SNAP01" + b"\x00" * 64)
        out = tmp_path / "err"
        cfg = write_cfg(tmp_path, "err.cfg", out=out, steps=2)
        assert main(['resume', str(snap), cfg]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'SnapshotError'

    @pytest.mark.parametrize('grid', ['grid.n = 16',
                                      'grid.n = 8\ngrid.period = 3.0'],
                             ids=['shape', 'period'])
    def test_resume_on_other_grid_exit_code(self, tmp_path, grid):
        # the snapshot is on grid.n = 8 with period 2 pi: another shape or
        # period is refused before any step, with no series.csv
        snap = tmp_path / "s.g2snap"
        fl.snapshot(flat_state(), snap)
        out = tmp_path / "other"
        cfg = tmp_path / "other.cfg"
        cfg.write_text(BASE_CFG.replace('grid.n = 8', grid).format(
            family='flat', steps=2, snap=0, out=out))
        assert main(['resume', str(snap), str(cfg)]) == 3
        assert os.listdir(out) == ['error.json']
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'SnapshotError'
        assert "snapshot grid" in rec['message']

    def test_resume_from_malformed_header_exit_code(self, tmp_path):
        snap = tmp_path / "deg9.g2snap"
        fl.snapshot(flat_state(), snap)
        rewrite_header(snap, 2, 9)  # degree
        out = tmp_path / "deg9"
        cfg = write_cfg(tmp_path, "deg9.cfg", out=out)
        assert main(['resume', str(snap), cfg]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'SnapshotError'

    def test_failed_run_keeps_its_rows(self, tmp_path, monkeypatch):
        # the 4th step fails: rows 0-3 are written, and min_C_g2 only on
        # the rows whose both neighbours exist
        inner, calls = fl.step, []

        def step(*args, **kwargs):
            calls.append(args)
            if len(calls) == 4:
                raise PositivityLost("left the positive cone")
            return inner(*args, **kwargs)
        monkeypatch.setattr(fl, 'step', step)
        out = tmp_path / "failed"
        cfg = write_cfg(tmp_path, "failed.cfg", out=out, snap=0)
        assert main(['run', cfg]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'PositivityLost'
        data = rp.read_csv(out / 'series.csv')
        assert data['step'] == [0, 1, 2, 3]
        assert [v is None for v in data['min_C_g2']] == \
            [True, False, False, True]

    def test_linalg_error_exit_code(self, tmp_path, monkeypatch):
        def fail(phi3):
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(al, 'metric_data_from_phi', fail)
        out = tmp_path / "linalg"
        cfg = write_cfg(tmp_path, "linalg.cfg", out=out)
        assert main(['run', cfg]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'LinAlgError'

    def test_verify_runtime_error_exit_code(self, tmp_path, monkeypatch,
                                            capsys):
        def fail(cfg, run_dir):
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(cli, 'run_verification', fail)
        out = tmp_path / "vlinalg"
        cfg = tmp_path / "vlinalg.cfg"
        cfg.write_text(BASE_CFG.format(family='perturbed', steps=1, snap=0,
                                       out=out)
                       + "checks.enable = crosschecks\n")
        assert main(['verify', str(cfg)]) == 3
        assert "runtime error: singular matrix" in capsys.readouterr().err
        rec = json.loads((out / 'error.json').read_text())
        assert rec == {'error_type': 'LinAlgError',
                       'message': 'singular matrix'}
        assert not (out / 'manifest.json').exists()


class TestReportAndPlots:
    def test_report_subcommand(self, tmp_path):
        out = tmp_path / "rep"
        cfg = write_cfg(tmp_path, "r.cfg", out=out, steps=4, snap=0)
        assert main(['run', cfg]) == 0
        assert main(['report', str(out)]) == 0
        plots = os.listdir(out / 'plots')
        assert any(p.endswith('.svg') for p in plots)
        svg = (out / 'plots' / 'volume.svg').read_text()
        assert svg.startswith('<svg')
        assert 'polyline' in svg

    def test_report_missing_dir(self, tmp_path):
        assert main(['report', str(tmp_path / 'nope')]) == 2

    def test_chart_handles_empty_series(self):
        svg = rp.svg_line_chart([], [], 'empty')
        assert 'no data' in svg

    def test_chart_deterministic(self):
        xs = [0.0, 1.0, 2.0]
        ys = [1.0, None, 3.0]
        assert rp.svg_line_chart(xs, ys, 't') == rp.svg_line_chart(xs, ys, 't')


class TestCsvHelpers:
    def test_fmt(self):
        assert rp.fmt(None) == ""
        assert rp.fmt(3) == "3"
        assert rp.fmt(0.1) == repr(0.1)

    def test_roundtrip(self, tmp_path):
        w = rp.CsvWriter(tmp_path / "x.csv", ("a", "b"))
        w.add_row({'a': 1.5, 'b': None})
        w.add_row({'a': 2, 'b': 0.25})
        w.flush()
        data = rp.read_csv(tmp_path / "x.csv")
        assert data['a'] == [1.5, 2.0]
        assert data['b'] == [None, 0.25]


class TestMonitorSummary:
    def test_empty(self):
        assert monitor_summary([]) == {'available': False}

    def test_distortion_without_pinching_rows(self):
        # the distortion bound does not involve c: rows whose pinching
        # cells are blank still carry it
        rows = [{'ratio_lhs': None, 'distortion': d, 'speed_integral': 0.1}
                for d in (1.0, 2.0)]
        assert monitor_summary(rows) == {'available': False,
                                         'distortion_bound_ok': False}

    def test_distortion_checked_when_pinching_pauses(self, tmp_path):
        # a shift below -min R pauses the pinching monitors on every row;
        # the distortion columns are filled and checked all the same
        out = tmp_path / "run"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(BASE_CFG.format(family='perturbed', steps=3, snap=0,
                                       out=out) + "pinching.c = 1e-6\n")
        assert main(['run', str(cfg)]) == 0
        data = rp.read_csv(out / 'series.csv')
        assert set(data['ratio_lhs']) == {None}
        assert None not in data['distortion'] + data['speed_integral']
        man = json.loads((out / 'manifest.json').read_text())
        assert man['monitors'] == {'available': False,
                                   'distortion_bound_ok': True}

    def test_gamma_two_columns_without_gamma_two(self, tmp_path):
        # f_min_g2 and the manifest's c1 do not depend on whether 2 is
        # among pinching.gammas
        runs = {}
        for tag, gammas in (('with', '2'), ('without', '1.5,3')):
            out = tmp_path / tag
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(BASE_CFG.format(family='perturbed', steps=3,
                                           snap=0, out=out)
                           .replace("pinching.gammas = 1.5,2",
                                    f"pinching.gammas = {gammas}"))
            assert main(['run', str(cfg)]) == 0
            runs[tag] = (rp.read_csv(out / 'series.csv')['f_min_g2'],
                         json.loads((out / 'manifest.json').read_text()))
        (f_with, man_with), (f_without, man_without) = runs.values()
        assert None not in f_with and f_with == f_without
        assert man_with['monitors']['c1'] > 0.0
        assert man_with['monitors']['c1'] == man_without['monitors']['c1']

    def test_zero_series_statistics(self):
        rows = [{'ratio_lhs': 0.0, 'ratio_driver': 0.0, 'f_max_g2': 0.0,
                 'min_C_g2': 0.0, 't': float(n), 'distortion': 1.0,
                 'speed_integral': 0.0} for n in range(4)]
        out = monitor_summary(rows)
        assert out['min_C_max'] == 0.0
        assert out['min_C_max_over_median'] is None
        assert out['distortion_bound_ok']
