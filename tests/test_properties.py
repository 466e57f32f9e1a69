"""Property tests (hypothesis) for pointwise kernels and the discrete
exterior calculus.

The torsion identities nabla phi = T -| psi and nabla psi = -T ^ phi are
checked on increasing components through the interior-table gather and
the wedge kernel; these tests pin both against the dense einsum formulas
on random data.  The metric kernel's bilinear form, a product with a fixed
volume-pairing table, is pinned against Bryant's formula spelled out with
the interior and wedge kernels, and the metric kernel is GL-equivariant:
the pullback of the standard 3-form by u induces the metric u^T u.  On
those pullbacks, in both orientations, psi read off phi by the
contraction identity matches the Hodge star, and the torsion read
through phi's dual matches the dense raise of e_l -| psi on perturbed
2- and 3-axis states.  The one slot kernel, slot_apply, is pinned
against einsum on every rank and slot choice it serves.  On random
smooth periodic fields on the three-axis, unequal-period grid, d o d
vanishes and d* is the adjoint of d to rounding.  The pair-form Weyl C1
norm matches the dense every-slot contraction on perturbed 2- and 3-axis
states; the pair-form
Kulkarni-Nomizu product matches the dense einsum, the dense expansion of
the stored Rm has the curvature symmetries, and suggest_dt's pair-form
|Rm| matches the dense norm.  The pair-form curvature projection matches
the dense antisymmetric, pair-symmetric projection on random raw rows and
is idempotent.  The Weyl C1 field, R, |E|^2 and
suggest_dt's field |T|^2 + |Rm| are bit-identical under the grid's
translations and the reflection x1 -> -x1, and agree to rounding under
permutations of axes with equal shape and period; so are the max-type
columns of a whole 3-step monitored run.
"""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from g2flow import algebra as al  # noqa: E402
from g2flow import curvature as cv  # noqa: E402
from g2flow import flow as fl  # noqa: E402
from g2flow import geometry as ge  # noqa: E402
from g2flow import grid as gr  # noqa: E402
from g2flow import verify as vf  # noqa: E402
from g2flow.cli import parse_config, run_flow  # noqa: E402
from g2flow.initial_data import (DEFAULT_MODES,  # noqa: E402
                                 perturbed_phi_field)

from conftest import (GRID3, MODES3, dense_c1_norm,  # noqa: E402
                      dense_kulkarni_nomizu, dense_torsion, l2_form_inner,
                      pair_to_dense, pair_unpack, perturbed_state3,
                      smooth_field)

BATCH = 3
REL = 1e-13

_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
tensors = arrays(np.float64, (BATCH, 7, 7), elements=_unit)
forms = arrays(np.float64, (BATCH, 35), elements=_unit)  # degree 3 or 4


def assert_close(got, want, scale):
    """Agreement to REL relative to the size of the summed terms."""
    assert np.max(np.abs(got - want)) <= REL * scale


@settings(max_examples=60, deadline=None)
@given(T=tensors, phi=forms)
def test_wedge_matches_four_term_formula(T, phi):
    # -(T_m ^ phi)_ijkl against the dense four-term expression
    phid = al.form_to_dense(3, phi)
    dense = -(np.einsum('...mi,...jkl->...mijkl', T, phid)
              - np.einsum('...mj,...ikl->...mijkl', T, phid)
              - np.einsum('...mk,...jil->...mijkl', T, phid)
              - np.einsum('...ml,...jki->...mijkl', T, phid))
    got = -al.wedge_comps(1, 3, T, phi[..., None, :])
    scale = 4.0 * np.max(np.abs(T)) * np.max(np.abs(phi))
    assert_close(got, al.dense_to_form(4, dense), scale)


@settings(max_examples=60, deadline=None)
@given(T=tensors, psi=forms)
def test_interior_table_matches_einsum(T, psi):
    # T_i^m (e_m -| psi)_jkl against the dense contraction
    dense = np.einsum('...im,...mjkl->...ijkl', T, al.form_to_dense(4, psi))
    idx, sgn = al.basis_interior_table(4)
    got = T @ (psi[..., idx] * sgn)
    scale = 7.0 * np.max(np.abs(T)) * np.max(np.abs(psi))
    assert_close(got, al.dense_to_form(3, dense), scale)


@settings(max_examples=60, deadline=None)
@given(phi=forms, near=st.booleans())
def test_bilinear_form_matches_bryant_formula(phi, near):
    # B_ij vol = (1/6)(e_i -| phi) ^ (e_j -| phi) ^ phi, built without
    # the volume-pairing table; near=True takes a small perturbation of
    # standard_phi
    if near:
        phi = al.standard_phi().comps + 0.1 * phi
    iphi = al.interior_comps(3, np.eye(7), phi[:, None, :])   # (B, 7, 21)
    pairs = al.wedge_comps(2, 2, iphi[:, :, None, :], iphi[:, None, :, :])
    want = al.wedge_comps(4, 3, pairs, phi[:, None, None, :])[..., 0] / 6.0
    # each entry sums 210 products of three components, over 6
    scale = 35.0 * np.max(np.abs(phi)) ** 3
    assert_close(al.bilinear_form_comps(phi), want, scale)


def gl_pullbacks(seed, sv, flip):
    """u = q1 diag(sv) q2 with random orthogonal q1, q2 (one per batch
    point), its first column negated when flip, and the pullbacks u* phi_0
    of the standard 3-form."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((BATCH, 7, 7)))[0]
              for _ in range(2))
    u = q1 * sv[:, None, :] @ q2
    if flip:
        u[:, 0] = -u[:, 0]
    phis = al.dense_to_form(3, np.einsum(
        'nia,njb,nkc,ijk->nabc', u, u, u, al.standard_phi().to_dense(),
        optimize=True))
    return u, phis


gl_maps = dict(seed=st.integers(0, 2 ** 32 - 1),
               sv=arrays(np.float64, (BATCH, 7),
                         elements=st.floats(0.5, 2.0)),
               flip=st.booleans())


@settings(max_examples=40, deadline=None)
@given(**gl_maps)
def test_metric_kernel_gl_equivariant(seed, sv, flip):
    # the pullback u* phi_0 of the standard 3-form induces g = u^T u, so
    # det g = det(u)^2, vol = |det u| and the orientation is sign(det u)
    u, phis = gl_pullbacks(seed, sv, flip)
    g, ginv, det_g, vol, orient = al.metric_data_from_phi(phis)
    gram = np.swapaxes(u, -1, -2) @ u
    det_u = np.linalg.det(u)
    for got, want in ((g, gram), (ginv, np.linalg.inv(gram)),
                      (det_g, det_u ** 2), (vol, np.abs(det_u))):
        err = np.abs(got - want).reshape(BATCH, -1).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).reshape(BATCH, -1).max(1))
    assert np.array_equal(orient, np.sign(det_u))


@settings(max_examples=40, deadline=None)
@given(**gl_maps)
def test_psi_from_phi_matches_star(seed, sv, flip):
    # the contraction identity against the Hodge star's dense raise, in
    # both orientations, on a field of BATCH points
    phis = gl_pullbacks(seed, sv, flip)[1]
    spec = gr.GridSpec((BATCH,) + (1,) * 6)
    phi = gr.FormField(3, spec, phis.reshape(spec.shape + (35,)))
    m = ge.MetricField.from_phi(phi)
    want = al.star_comps(3, phi.values, m.g, m.ginv, m.vol, m.orientation)
    assert_close(ge.psi_from_phi(phi, m).values, want, np.max(np.abs(want)))


@pytest.mark.parametrize('three', (False, True))
def test_torsion_matches_dense_raise(state16, state3, three):
    # T from phi's dual psi^K against the seven dense 3-form raises
    state = state3 if three else state16
    T = ge.torsion_from_phi(state.phi, state.metric)
    want = dense_torsion(state.phi, state.metric, state.psi)
    assert_close(T, want, np.max(np.abs(want)))


@settings(max_examples=25, deadline=None)
@given(rank=st.integers(1, 5), data=st.data())
def test_slot_apply_matches_einsum(rank, data):
    # square (.., 7, 7) matrices on a random slot subset or every slot
    # (None), or the (.., 49, 7) Christoffel shape on one slot
    rows = data.draw(st.sampled_from((7, 49)))
    if rows == 7:
        slots = data.draw(st.none() | st.lists(
            st.integers(0, rank - 1), min_size=1, max_size=rank, unique=True))
    else:
        slots = [data.draw(st.integers(0, rank - 1))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    T = rng.standard_normal((BATCH,) + (7,) * rank)
    mat = rng.standard_normal((BATCH, rows, 7))
    sub = 'abcde'[:rank]
    want = T
    for s in range(rank) if slots is None else slots:
        out = sub[:s] + 'z' + sub[s + 1:]
        want = np.einsum(f'nz{sub[s]},n{sub}->n{out}', mat, want)
    got = al.slot_apply(T, mat, rank, slots)
    assert got.shape == want.shape
    assert_close(got, want, np.max(np.abs(want)))


def smooth_fields(ncomp):
    """Random smooth periodic fields on GRID3 (conftest.smooth_field: two
    random Fourier modes per component), over six decades of size."""
    return st.builds(
        lambda seed, log_amp: smooth_field(GRID3, ncomp, seed,
                                           10.0 ** log_amp),
        st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))


@pytest.fixture(scope="module")
def state3():
    return perturbed_state3()


@settings(max_examples=10, deadline=None)
@given(vals=smooth_fields(21))
def test_d_squared_vanishes_on_three_axes(vals):
    dda = gr.exterior_derivative(gr.exterior_derivative(
        gr.FormField(2, GRID3, vals)))
    # the GRID3 bound of test_grid, relative to the size of the field
    assert dda.max_abs() <= 1e-13 * np.max(np.abs(vals))


@pytest.mark.parametrize('k', (2, 3))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_codifferential_adjoint_on_three_axes(state3, k, data):
    # |<da, b> - <a, d*b>| / (|a| |b|) for a random (k-1)-form a and
    # k-form b under the perturbed three-axis metric
    m = state3.metric
    a = gr.FormField(k - 1, GRID3, data.draw(smooth_fields(al.NCOMP[k - 1])))
    b = gr.FormField(k, GRID3, data.draw(smooth_fields(al.NCOMP[k])))
    lhs = l2_form_inner(gr.exterior_derivative(a), b, m)
    rhs = l2_form_inner(a, ge.codifferential(b, m), m)
    norms = np.sqrt(l2_form_inner(a, a, m) * l2_form_inner(b, b, m))
    assert abs(lhs - rhs) <= 1e-12 * norms


@settings(max_examples=8, deadline=None)
@given(three=st.booleans(), n=st.sampled_from((6, 8, 12)),
       periods=st.lists(st.floats(4.0, 9.0), min_size=3, max_size=3),
       eps=st.floats(0.01, 0.1))
def test_weyl_c1_pair_form_matches_dense(three, n, periods, eps):
    # perturbed states on 2-axis grids and on 3-axis grids, with unequal
    # periods on the active axes
    axes = (0, 1, 2) if three else (0, 1)
    shape = tuple(n if a in axes else 1 for a in range(7))
    spec = gr.GridSpec(shape, tuple(periods) + (2 * np.pi,) * 4)
    state = fl.FlowState(0.0, perturbed_phi_field(
        spec, eps, MODES3 if three else DEFAULT_MODES))
    m = state.metric
    W = cv.weyl(state.bundle, m)
    want = dense_c1_norm(pair_to_dense(pair_unpack(W)), m, 4)
    got = cv.c1_norm(W, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


# --- the pair form against its dense expansion ---

@settings(max_examples=40, deadline=None)
@given(a=tensors, b=tensors)
def test_kulkarni_nomizu_pair_form_matches_dense(a, b):
    # random batched symmetric 2-tensors; the expansion also carries the
    # entries off the increasing pairs
    a, b = a + np.swapaxes(a, -1, -2), b + np.swapaxes(b, -1, -2)
    want = dense_kulkarni_nomizu(a, b)
    got = pair_to_dense(cv.kulkarni_nomizu(a, b))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def bianchi_sum(D):
    return (D + np.einsum('...ijkl->...jkil', D)
            + np.einsum('...ijkl->...kijl', D))


@settings(max_examples=30, deadline=None)
@given(raw=arrays(np.float64, (BATCH, 21, 7, 7), elements=_unit))
def test_curvature_project_on_pair_rows(raw):
    # random raw rows R_ijkl, (i<j), which break the first Bianchi
    # identity: the pair-form projection is the dense (k, l)-antisymmetric,
    # pair-symmetric projection of the (i, j)-antisymmetric extension,
    # gathered at PAIR, to 1e-14 of the unit entry scale; its expansion has
    # both antisymmetries and the pair symmetry exactly, and it is
    # idempotent.  Bianchi is left to the stored Rm of real metrics.
    i, j = al.PAIR[0][:, 0], al.PAIR[1][:, 0]
    dense = np.zeros((BATCH,) + (7,) * 4)
    dense[:, i, j], dense[:, j, i] = raw, -raw
    got = ge._curvature_project(raw)
    A = 0.5 * (dense - np.einsum('...ijkl->...ijlk', dense))
    want = 0.5 * (A + np.einsum('...ijkl->...klij', A))
    assert np.max(np.abs(got - want[(...,) + al.PAIR])) <= 1e-14
    D = pair_to_dense(got)
    assert np.array_equal(D, -np.einsum('...ijkl->...jikl', D))
    assert np.array_equal(D, -np.einsum('...ijkl->...ijlk', D))
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    again = ge._curvature_project(D[:, i, j])
    assert np.max(np.abs(again - got)) <= 1e-14


CURVED = pytest.mark.parametrize('three', (False, True),
                                ids=('2axis', '3axis'))


@CURVED
def test_pair_to_dense_rm_symmetries(state16, state3, three):
    # both antisymmetries and the pair symmetry hold exactly, the first
    # Bianchi identity to rounding, and the pair entries read back
    Rm = pair_unpack((state3 if three else state16).bundle.Rm)
    D = pair_to_dense(Rm)
    assert np.array_equal(D, -np.einsum('...ijkl->...jikl', D))
    assert np.array_equal(D, -np.einsum('...ijkl->...ijlk', D))
    assert np.array_equal(D, np.einsum('...ijkl->...klij', D))
    assert np.max(np.abs(bianchi_sum(D))) < 1e-14
    assert D[(...,) + al.PAIR].tobytes() == Rm.tobytes()


@CURVED
def test_suggest_dt_pair_norm_matches_dense(state16, state3, three):
    # |Rm|^2 = 4 tr(Rm Lam Rm Lam) against every slot of the dense
    # expansion raised, and the step suggest_dt takes from it
    curved = state3 if three else state16
    b, m = curved.bundle, curved.metric
    want = ge.tensor_norm2(pair_to_dense(pair_unpack(b.Rm)), m, 4)
    got = ge.pair_norm2(b.Rm, m)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    policy = fl.StepPolicy()
    h = curved.spec.min_active_spacing()
    dt = min(policy.safety * h * h, fl.stable_dt(curved.spec)) / (
        1.0 + np.max(curved.T_norm2 + np.sqrt(want)))
    assert fl.suggest_dt(curved, policy) == pytest.approx(dt, rel=1e-14)


# --- the grid's symmetries through the pair-form index code ---

SIGN_X1 = np.array([-1.0 if 0 in I else 1.0 for I in al.INC[3]])

# the fields the symmetry tests follow; the crowd field |T|^2 + |Rm| is
# the one flow.suggest_dt takes the maximum of
FIELDS = {
    'W_c1_field': lambda ts: ts.W_c1_field,
    'R': lambda ts: ts.b.R,
    'E_norm2': lambda ts: ts.E_norm2,
    'crowd': lambda ts: (ts.state.T_norm2
                         + np.sqrt(ge.pair_norm2(ts.b.Rm, ts.m))),
}
SCALARS = ('R', 'E_norm2', 'crowd')


def fields(values, spec, names):
    ts = vf.StateTensors(fl.FlowState(0.0, gr.FormField(3, spec, values)))
    return {name: FIELDS[name](ts) for name in names}


@pytest.fixture(scope="module")
def symmetry_cases(state16, state3):
    """(state, its FIELDS) on a 2-axis and a 3-axis grid."""
    return {three: (s, fields(s.phi.values, s.spec, FIELDS))
            for three, s in ((False, state16), (True, state3))}


def draw_shifts(spec, data):
    return tuple(data.draw(st.integers(0, spec.shape[a] - 1))
                 for a in spec.active_axes)


def moved(values, axes, shifts, reflect):
    """A 3-form field shifted by whole cells, then reflected x1 -> -x1."""
    values = np.roll(values, shifts, axis=axes)
    if reflect:
        values = SIGN_X1 * np.roll(np.flip(values, 0), 1, axis=0)
    return values


def check_translation_and_reflection(symmetry_cases, three, reflect, data,
                                     names):
    # a cyclic shift by whole cells, and x1 -> -x1 (grid index i -> -i
    # mod N, components signed (-1)^[1 in I]), commute exactly with the
    # stencil and every pointwise kernel
    state, want = symmetry_cases[three]
    axes = state.spec.active_axes
    shifts = draw_shifts(state.spec, data)
    vals = moved(state.phi.values, axes, shifts, reflect)
    for name, got in fields(vals, state.spec, names).items():
        if reflect:
            got = np.roll(np.flip(got, 0), 1, axis=0)
        got = np.roll(got, tuple(-s for s in shifts), axis=axes)
        assert got.tobytes() == want[name].tobytes(), name


@settings(max_examples=8, deadline=None)
@given(three=st.booleans(), reflect=st.booleans(), data=st.data())
def test_weyl_c1_translation_and_reflection_exact(symmetry_cases, three,
                                                  reflect, data):
    check_translation_and_reflection(symmetry_cases, three, reflect, data,
                                     ('W_c1_field',))


@settings(max_examples=8, deadline=None)
@given(three=st.booleans(), reflect=st.booleans(), data=st.data())
def test_curvature_scalars_translation_and_reflection_exact(
        symmetry_cases, three, reflect, data):
    check_translation_and_reflection(symmetry_cases, three, reflect, data,
                                     SCALARS)


def check_axis_permutation(symmetry_cases, three, data, names):
    # relabelling axes of equal shape and period (the active axes among
    # themselves when their periods agree, the inactive ones among
    # themselves) maps the field to itself up to the rounding of reordered
    # sums; unlike a shift or a sign, it moves entries between pair indices
    state, want = symmetry_cases[three]
    spec = state.spec
    groups = [tuple(a for a in range(7) if spec.shape[a] == 1)]
    if not three:
        groups.append(spec.active_axes)      # equal N and period on state16
    perm = list(range(7))
    for group in groups:
        for a, b in zip(group, data.draw(st.permutations(group))):
            perm[a] = b
    new = np.empty_like(state.phi.values)
    for n, I in enumerate(al.INC[3]):
        J, sgn = al.sort_with_sign(tuple(perm[i] for i in I))
        new[..., al.POS[3][J]] = sgn * state.phi.values[..., n]
    order = tuple(np.argsort(perm)) + (7,)
    for name, got in fields(np.transpose(new, order), spec, names).items():
        # R = -|T|^2 is small beside the curvature it is contracted from,
        # so its rounding is measured on the curvature scale max|Rm|
        scale = state.bundle.Rm if name == 'R' else want[name]
        err = np.max(np.abs(np.transpose(got, perm) - want[name]))
        assert err <= 1e-12 * np.max(np.abs(scale)), name


@settings(max_examples=8, deadline=None)
@given(three=st.booleans(), data=st.data())
def test_weyl_c1_axis_permutation(symmetry_cases, three, data):
    check_axis_permutation(symmetry_cases, three, data, ('W_c1_field',))


@settings(max_examples=8, deadline=None)
@given(three=st.booleans(), data=st.data())
def test_curvature_scalars_axis_permutation(symmetry_cases, three, data):
    check_axis_permutation(symmetry_cases, three, data, SCALARS)


# --- the grid's symmetries through a whole monitored run ---

RUN3 = "grid.n = 16\ninitial.family = perturbed\nflow.steps = 3\n"
INTEGRAL_COLUMNS = ('volume', 'period_max_err')


def run_series(phi, run_dir):
    return run_flow(parse_config(RUN3), run_dir, fl.FlowState(0.0, phi))[0]


@pytest.fixture(scope="module")
def base_series(state16, tmp_path_factory):
    return run_series(state16.phi, str(tmp_path_factory.mktemp('base')))


@pytest.mark.parametrize('reflect', (False, True),
                         ids=('translate', 'reflect'))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_run_series_translation_and_reflection(state16, base_series,
                                               reflect, data):
    # a 3-step run from a shifted (and reflected) start: each state is the
    # moved image of the unmoved run's state, so every max-type column is
    # bit-identical and the integral columns agree to rounding; the
    # periods are measured against the unmoved flat class, so a reflection
    # changes them and only translations are compared there
    spec = state16.spec
    vals = moved(state16.phi.values, spec.active_axes,
                 draw_shifts(spec, data), reflect)
    with tempfile.TemporaryDirectory() as run_dir:
        series = run_series(gr.FormField(3, spec, vals), run_dir)
    assert len(series) == len(base_series) == 4
    for row, want in zip(series, base_series):
        for col, value in want.items():
            if col not in INTEGRAL_COLUMNS:
                assert repr(row[col]) == repr(value), col
        assert row['volume'] == pytest.approx(want['volume'], rel=1e-14)
        if not reflect:
            assert abs(row['period_max_err'] - want['period_max_err']) \
                <= 1e-13
