import json
import os

import pytest

from g2flow import report as rp
from g2flow.cli import main, monitor_summary, parse_config
from g2flow.errors import ConfigError

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
    ('flow.dt_floor', '{}', FINITE),
    ('flow.max_dt', '{}', FINITE),
    ('flow.fixed_dt', '{}', FINITE),
    ('pinching.c', '{}', FINITE),
    ('pinching.gammas', '1.5,{}', "cannot parse"),
    ('checks.tol_scale', '{}', FINITE),
    ('checks.min_time_order', '{}', FINITE),
    ('verify.dt_multiplier', '{}', FINITE),
    ('verify.gammas', '{}', "cannot parse"),
]

# the default mode list moved onto axes 1 and 3
MODES_AXES_13 = ("1,0,0,0,0,0,0|2,3|1.0|0.4;0,0,1,0,0,0,0|4,5|0.85|1.1;"
                 "1,0,1,0,0,0,0|6,7|0.6|0.7;1,0,-1,0,0,0,0|1,4|0.45|0.2")


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

    def test_unsupported_version(self):
        with pytest.raises(ConfigError):
            parse_config("config_version = 2")

    def test_snapshot_path_must_resolve(self):
        with pytest.raises(ConfigError) as err:
            parse_config("initial.family = from-snapshot\n"
                         "initial.snapshot = /nowhere/x.g2snap")
        assert any("not found" in p for p in err.value.problems)

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

    def test_grid_shape_override(self):
        cfg = parse_config("grid.shape = 8,1,8,1,1,1,1")
        assert cfg.grid_spec().active_axes == (0, 2)

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

    def test_max_dt_below_floor_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "dt.cfg"
        cfg.write_text(f"flow.max_dt = 1e-12\noutput.dir = {tmp_path}\n")
        assert main(['run', str(cfg)]) == 2
        assert "flow.max_dt: must be >= flow.dt_floor" in \
            capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(['run', '/definitely/not/here.cfg']) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # from-snapshot pointing at a corrupt file passes config validation
        # (the path exists) but fails at restore time
        snap = tmp_path / "corrupt.g2snap"
        snap.write_bytes(b"G2SNAP01" + b"\x00" * 64)
        out = tmp_path / "err"
        cfg = tmp_path / "err.cfg"
        cfg.write_text(f"""\
initial.family = from-snapshot
initial.snapshot = {snap}
flow.steps = 2
output.dir = {out}
""")
        assert main(['run', str(cfg)]) == 3
        rec = json.loads((out / 'error.json').read_text())
        assert rec['error_type'] == 'SnapshotError'


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
        svg = rp.svg_line_chart([], {'x': []}, 'empty')
        assert 'no data' in svg

    def test_chart_deterministic(self):
        xs = [0.0, 1.0, 2.0]
        series = {'a': [1.0, None, 3.0]}
        assert rp.svg_line_chart(xs, series, 't') == \
            rp.svg_line_chart(xs, series, 't')


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

    def test_zero_series_statistics(self):
        rows = [{'ratio_lhs': 0.0, 'ratio_driver': 0.0, 'f_max_g2': 0.0,
                 'min_C_g2': 0.0, 't': float(n), 'distortion': 1.0,
                 'speed_integral': 0.0} for n in range(4)]
        out = monitor_summary(rows)
        assert out['min_C_max'] == 0.0
        assert out['min_C_max_over_median'] is None
        assert out['distortion_bound_ok']
