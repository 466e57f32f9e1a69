import tracemalloc

import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import grid as gr
from g2flow.errors import DegreeError
from g2flow.initial_data import flat_phi_field

from conftest import GRID3, SMALL_BLOCK_BYTES, scenario_spec, smooth_field


class TestGridSpec:
    def test_basic_construction(self):
        spec = gr.GridSpec((16, 8, 1, 1, 1, 1, 1))
        assert spec.active_axes == (0, 1)
        assert spec.spacing[0] == pytest.approx(2 * np.pi / 16)
        assert spec.npoints == 128

    def test_from_active(self):
        spec = gr.GridSpec.from_active(32, (2, 5), period=1.0)
        assert spec.shape == (1, 1, 32, 1, 1, 32, 1)
        assert spec.min_active_spacing() == pytest.approx(1.0 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            gr.GridSpec((16, 8, 1))
        with pytest.raises(ValueError):
            gr.GridSpec((0, 8, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            gr.GridSpec((8, 1, 1, 1, 1, 1, 1), (0.0,) * 7)

    @pytest.mark.parametrize('spec', [GRID3, scenario_spec(4),
                                      scenario_spec(5), scenario_spec(32)])
    def test_stencil_bound_is_largest_eigenvalue(self, spec):
        # rho_0 is the sum over axes of the largest eigenvalue of D^T D,
        # D the periodic stencil's matrix along the axis
        rho = 0.0
        for a in spec.active_axes:
            n = spec.shape[a]
            line = gr.GridSpec(tuple(n if b == a else 1 for b in range(7)),
                               spec.periods)
            eye = np.eye(n).reshape(line.shape + (n,))
            D = gr.partial_derivative(eye, line, a).reshape(n, n)
            rho += np.max(np.linalg.eigvalsh(D.T @ D))
        assert spec.stencil_bound() == pytest.approx(rho, rel=1e-12)

    def test_cell_volume_counts_inactive_periods(self):
        spec = gr.GridSpec.from_active(4, (0,))
        assert spec.cell_volume == pytest.approx(
            (2 * np.pi / 4) * (2 * np.pi) ** 6)


class TestDerivative:
    def test_constant_field(self):
        spec = scenario_spec(8)
        c = flat_phi_field(spec)
        assert gr.exterior_derivative(c).max_abs() == 0.0

    def test_inactive_axis_zero(self):
        spec = scenario_spec(8)
        vals = smooth_field(spec, 1, seed=1)[..., 0]
        assert np.all(gr.partial_derivative(vals, spec, 3) == 0.0)

    @pytest.mark.parametrize('spec, ncomp', [
        (GRID3, 35), (scenario_spec(32), 441), (scenario_spec(3), 5),
        (scenario_spec(2), 5), (scenario_spec(5), 5), (scenario_spec(4), 5)])
    def test_stencil_bytes_match_roll_formula(self, spec, ncomp):
        # the slice-pair stencil evaluates the same expression on the same
        # operands as the four-np.roll formula, so bytes agree; on 5 points
        # the s = 2 interior is one plane, on 4 it is empty, and on 2 and 3
        # the shifts wrap past each other
        vals = np.random.default_rng(4).standard_normal(spec.shape + (ncomp,))
        for ax in spec.active_axes:
            h = spec.spacing[ax]
            f1, b1, f2, b2 = (np.roll(vals, s, axis=ax)
                              for s in (-1, 1, -2, 2))
            want = (8.0 * (f1 - b1) - (f2 - b2)) / (12.0 * h)
            got = gr.partial_derivative(vals, spec, ax)
            assert got.tobytes() == want.tobytes()

    def test_peak_memory(self):
        # the result and one difference: the padded copy and three
        # whole-field differences peaked at 11.3 MB here
        spec = scenario_spec(32)
        vals = np.random.default_rng(5).standard_normal(spec.shape + (441,))
        tracemalloc.start()
        try:
            gr.partial_derivative(vals, spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize('spec', [GRID3] + [
        scenario_spec(n) for n in (2, 3, 4, 5, 8)])
    def test_block_bytes_match_whole_grid(self, spec, monkeypatch):
        # each block's own stencil gathers the neighbours' rows: the bytes
        # of the whole-grid derivative on every axis, inactive ones too,
        # in the 5-point blocks of the widest kernels
        vals = np.random.default_rng(6).standard_normal(spec.shape + (5, 3))
        monkeypatch.setattr(al, 'BLOCK_BYTES', SMALL_BLOCK_BYTES)
        for ax in range(al.DIM):
            want = gr.partial_derivative(vals, spec, ax)
            want = want.reshape((spec.npoints,) + want.shape[al.DIM:])
            for c in al.chunks(spec.npoints, al.DIM * al.NCOMP[2] ** 2):
                got = gr.partial_block(vals, spec, ax, c)
                assert got.tobytes() == want[c].tobytes()

    def test_d_squared_rounding_only(self):
        spec = scenario_spec(16)
        a = gr.FormField(2, spec, smooth_field(spec, 21, seed=2))
        dda = gr.exterior_derivative(gr.exterior_derivative(a))
        assert dda.max_abs() <= 1e-13

    def test_d_squared_three_axes_unequal_periods(self):
        a = gr.FormField(2, GRID3, smooth_field(GRID3, 21, seed=2))
        dda = gr.exterior_derivative(gr.exterior_derivative(a))
        assert dda.max_abs() <= 1e-13

    def test_analytic_derivative_fourth_order(self):
        errs = {}
        for n in (16, 32):
            spec = scenario_spec(n)
            x0 = spec.coordinates(0)
            vals = np.zeros(spec.shape + (7,))
            vals[..., 1] = np.sin(x0)
            df = gr.exterior_derivative(gr.FormField(1, spec, vals))
            want = np.zeros(spec.shape + (21,))
            want[..., al.POS[2][(0, 1)]] = np.cos(x0)
            errs[n] = np.max(np.abs(df.values - want))
        assert np.log2(errs[16] / errs[32]) > 3.5

    def test_degree_cap(self):
        spec = scenario_spec(8)
        top = gr.FormField(7, spec, spec.zeros((1,)))
        with pytest.raises(DegreeError):
            gr.exterior_derivative(top)


class TestFormField:
    def test_shape_validation(self):
        spec = scenario_spec(8)
        with pytest.raises(ValueError):
            gr.FormField(2, spec, spec.zeros((20,)))

    def test_pointwise_ops_match_algebra(self):
        spec = scenario_spec(4)
        a = gr.FormField(2, spec, smooth_field(spec, 21, seed=3))
        b = gr.FormField(3, spec, smooth_field(spec, 35, seed=4))
        w = a.wedge(b)
        pt = tuple(0 for _ in range(7))
        pw = al.wedge_comps(2, 3, a.values[pt], b.values[pt])
        assert np.allclose(w.values[pt], pw)


class TestIntegrals:
    def test_scalar_integral_of_one(self):
        spec = scenario_spec(8)
        total = gr.integrate_scalar(np.ones(spec.shape), spec)
        assert total == pytest.approx((2 * np.pi) ** 7, rel=1e-12)

    def test_periods_of_flat_structure(self):
        spec = scenario_spec(8)
        periods = gr.period_integrals(flat_phi_field(spec))
        vol3 = (2 * np.pi) ** 3
        expect = {(0, 1, 2): 1, (0, 3, 4): 1, (0, 5, 6): 1, (1, 3, 5): 1,
                  (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}
        for key, val in periods.items():
            want = expect.get(key, 0.0) * vol3
            assert val == pytest.approx(want, abs=1e-9)

    def test_periods_ignore_exact_forms(self):
        spec = scenario_spec(8)
        beta = gr.FormField(2, spec, smooth_field(spec, 21, seed=6))
        dbeta = gr.exterior_derivative(beta)
        for val in gr.period_integrals(dbeta).values():
            assert abs(val) < 1e-10
