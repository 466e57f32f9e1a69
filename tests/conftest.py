import math
import os

# one BLAS thread, as CI runs the suite; OpenBLAS reads the variable when
# numpy is first imported, so it is set before that
os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from g2flow import algebra as al  # noqa: E402
from g2flow import flow as fl  # noqa: E402
from g2flow import geometry as ge  # noqa: E402
from g2flow import grid as gr  # noqa: E402
from g2flow.initial_data import (DEFAULT_MODES, Mode,  # noqa: E402
                                 flat_phi_field, perturbed_phi_field)

EPS = 0.05

# three active axes with unequal periods, and the default modes plus two
# that wave along the third axis
GRID3 = gr.GridSpec((8, 8, 8, 1, 1, 1, 1),
                    (2 * np.pi, 5.0, 3.0) + (2 * np.pi,) * 4)
MODES3 = DEFAULT_MODES + (Mode((0, 0, 1, 0, 0, 0, 0), (2, 5), 0.5, 0.3),
                          Mode((1, 0, -1, 0, 0, 0, 0), (0, 6), 0.4, 1.3))

# a block budget of 5 points for the widest kernels (Weyl, c1_norm), and
# 6 to 35 points for the others: no block size is a power of 2, so the
# 256 or 512 points of the test grids span many blocks, the last one short
SMALL_BLOCK_BYTES = 8 * 5 * al.DIM * al.NCOMP[2] ** 2


def scenario_spec(n, axes=(0, 1)):
    return gr.GridSpec.from_active(n, axes)


def perturbed_state(n, eps=EPS):
    return fl.FlowState(0.0, perturbed_phi_field(scenario_spec(n), eps))


def perturbed_state3(eps=EPS):
    return fl.FlowState(0.0, perturbed_phi_field(GRID3, eps, MODES3))


def flat_state(n=8):
    return fl.FlowState(0.0, flat_phi_field(scenario_spec(n)))


def dense_kulkarni_nomizu(alpha, beta):
    """(a o b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik as a
    dense 7^4 array: the reference for the pair-form
    curvature.kulkarni_nomizu."""
    return (np.einsum('...il,...jk->...ijkl', alpha, beta)
            + np.einsum('...jk,...il->...ijkl', alpha, beta)
            - np.einsum('...ik,...jl->...ijkl', alpha, beta)
            - np.einsum('...jl,...ik->...ijkl', alpha, beta))


def pair_to_dense(P):
    """Expand a pair-form tensor into the dense 7^4 array: one gather of
    pair entries by form_to_dense's table on rows and columns, each entry
    times the product of the two signs (0 on a repeated index).  The
    reference for the pair-form kernels, as dense_riemann is for
    geometry.riemann."""
    pos, sign, _ = al.dense_table(2)
    rep = pos == al.NCOMP[2]
    pos, sign = np.where(rep, 0, pos), np.where(rep, 0.0, sign)
    out = np.take(P.reshape(P.shape[:-2] + (-1,)),
                  (al.NCOMP[2] * pos[:, None] + pos).ravel(), axis=-1)
    out *= np.outer(sign, sign).ravel()
    return out.reshape(P.shape[:-2] + (7,) * 4)


def pair_pack(P):
    """The 231 entries P <= Q of pair-form matrices (.., 21, 21), the
    storage of curvature.weyl."""
    return P.reshape(P.shape[:-2] + (-1,))[..., al.TRI_PACK]


def pair_unpack(t):
    """The symmetric pair-form matrices (.., 21, 21) of packed entries t."""
    return t[..., al.TRI_UNPACK].reshape(t.shape[:-1] + (21, 21))


def dense_hessian_traces(X, m):
    """The traces of the whole-grid second covariant derivative dd_abij of
    a 2-tensor: the rough Laplacian g^ab dd_abij, A_ij = g^ns dd_insj and
    div div X = g^os g^nt dd_onst.  The reference for
    geometry.hessian_traces, which never builds dd."""
    dd = ge.second_covariant(X, m, 2)
    return (np.einsum('...ab,...abij->...ij', m.ginv, dd, optimize=True),
            np.einsum('...ns,...insj->...ij', m.ginv, dd, optimize=True),
            np.einsum('...os,...nt,...onst->...', m.ginv, m.ginv, dd,
                      optimize=True))


def dense_curvature_project(A):
    """Orthogonal projection of a dense 7^4 array onto algebraic curvature
    tensors: antisymmetry in both pairs, pair symmetry, and the first
    Bianchi identity.  geometry._curvature_project leaves out the last
    step, which on the raw curvature of a metric removes only rounding;
    dense_riemann keeps it, so comparing against it checks that."""
    A = 0.5 * (A - np.einsum('...ijkl->...jikl', A))
    A = 0.5 * (A - np.einsum('...ijkl->...ijlk', A))
    A = 0.5 * (A + np.einsum('...ijkl->...klij', A))
    b = (A + np.einsum('...ijkl->...jkil', A)
         + np.einsum('...ijkl->...kijl', A)) / 3.0
    return A - b


def dense_riemann(m):
    """Curvature bundle built on dense 7^4 arrays from the 49x49 Christoffel
    product and the full projection, Bianchi included: the reference for
    the pair-form geometry.riemann, which projects without Bianchi and
    reads its defect and Ricci trace off the rows R_(i<j)kl."""
    spec = m.spec
    gam = m.christoffel
    dgam = ge.partial_stack(gam, spec)              # (.., a, l, i, j)
    # Gamma^l_{ip} Gamma^p_{jk} as one batched matmul over p
    li_p = gam.reshape(gam.shape[:-3] + (49, 7))
    p_jk = gam.reshape(gam.shape[:-3] + (7, 49))
    gg = np.matmul(li_p, p_jk).reshape(gam.shape[:-3] + (7,) * 4)  # (l,i,j,k)
    gg = np.einsum('...lijk->...ijkl', gg)
    rup = (np.einsum('...iljk->...ijkl', dgam)
           - np.einsum('...jlik->...ijkl', dgam)
           + gg - np.einsum('...jikl->...ijkl', gg))
    raw = al.slot_apply(rup, m.g, 4, (3,))
    Rm = dense_curvature_project(raw)
    defect = float(np.max(np.abs(Rm - raw)))
    Ric = np.einsum('...il,...ijkl->...jk', m.ginv, Rm, optimize=True)
    R = np.einsum('...jk,...jk->...', m.ginv, Ric, optimize=True)
    E = Ric - (R[..., None, None] / 7.0) * m.g
    return ge.CurvatureBundle(Rm=Rm[(...,) + al.PAIR], Ric=Ric, R=R, E=E,
                              symmetry_defect=defect)


def triple_pinching_constant(prev, mid, nxt):
    """The minimal pinching constant read straight off a triple of
    StateTensors sharing one shift c, as verify.minimal_pinching_constant
    did before its per-state records: the reference for the record path.
    Raises NonPositiveShiftedScalar when min(R + c) <= 0 at any of the
    three states."""
    f_p, f_m, f_n = (ts.f_field(2.0) for ts in (prev, mid, nxt))
    m = mid.m
    spacing_r = mid.state.t - prev.state.t
    spacing_s = nxt.state.t - mid.state.t
    if abs(spacing_r - spacing_s) < 1e-13 * max(spacing_r, spacing_s):
        dfdt = (f_n - f_p) / (spacing_r + spacing_s)
    else:
        r, s = spacing_r, spacing_s
        dfdt = (-s / (r * (r + s))) * f_p + ((s - r) / (r * s)) * f_m \
            + (r / (s * (r + s))) * f_n
    grad_f = ge.partial_stack(f_m, m.spec)
    inner = np.einsum('...ab,...a,...b->...', m.ginv, grad_f, mid.grad_R,
                      optimize=True)
    base = ge.scalar_laplacian(f_m, m) + (2.0 / mid.Rt) * inner \
        - 2.0 * mid.Rt * f_m ** 2
    w2 = mid.W_c1_field ** 2
    num = dfdt - base
    den = 4.0 * mid.Rt * f_m * (np.sqrt(f_m) + 1.0 + w2 / mid.Rt ** 2)
    mask = den > 0.0
    if not np.any(mask):
        return 0.0
    ratio = np.where(mask & (num > 0.0), num / np.where(mask, den, 1.0), 0.0)
    return float(np.max(ratio))


def form_inner_comps(k, a, b, ginv):
    """Pointwise inner product of k-form components in the k-tensor
    convention: full contraction over all k slots, so |phi|^2 = 42 for
    the standard 3-form."""
    br = al.move_indices_dense(k, b, ginv)
    return math.factorial(k) * np.sum(a * br, axis=-1)


def l2_form_inner(a, b, m):
    """Global L2 pairing of k-form fields in the k!-normalized (form)
    convention, the one in which d and the codifferential are mutually
    adjoint; the k-tensor convention differs by the multiplicity k!."""
    v = form_inner_comps(a.degree, a.values, b.values, m.ginv) \
        / float(math.factorial(a.degree))
    return gr.integrate_scalar(v * m.vol, a.spec)


def pullback(u, phi):
    """(u* phi)_abc = u^i_a u^j_b u^k_c phi_ijk of 3-form components phi,
    batched over the leading axes of the linear maps u."""
    return al.dense_to_form(3, np.einsum(
        '...ia,...jb,...kc,ijk->...abc', u, u, u, al.form_to_dense(3, phi),
        optimize=True))


def contraction_residuals(phis):
    """Max-norm residuals, per point of a batch of positive 3-forms
    (.., 35), of the four contraction identities tying a 3-form, its dual
    4-form and the induced metric:

      phi_ijk phi_abc g^kc             = g_ia g_jb - g_ib g_ja + psi_ijab
      phi_ijk phi_abc g^jb g^kc        = 6 g_ia
      psi_ijkl psi_abcd g^jb g^kc g^ld = 24 g_ia
      phi_ijq psi_abkl g^ia g^jb       = 4 phi_qkl

    Returns two dicts keyed 'phiphi_psi', 'phiphi_6g', 'psipsi_24g' and
    'phipsi_4phi': the absolute residuals, and those relative to the max
    of the right-hand side."""
    g, ginv, _, vol, orient = al.metric_data_from_phi(phis)
    P = al.form_to_dense(3, phis)
    Q = al.form_to_dense(4, al.star_comps(3, phis, g, ginv, vol, orient))
    sides = {
        'phiphi_psi': (
            np.einsum('...ijk,...abc,...kc->...ijab', P, P, ginv,
                      optimize=True),
            np.einsum('...ia,...jb->...ijab', g, g)
            - np.einsum('...ib,...ja->...ijab', g, g) + Q),
        'phiphi_6g': (np.einsum('...ijk,...abc,...jb,...kc->...ia', P, P,
                                ginv, ginv, optimize=True), 6.0 * g),
        'psipsi_24g': (np.einsum('...ijkl,...abcd,...jb,...kc,...ld->...ia',
                                 Q, Q, ginv, ginv, ginv, optimize=True),
                       24.0 * g),
        'phipsi_4phi': (np.einsum('...ijq,...abkl,...ia,...jb->...qkl', P, Q,
                                  ginv, ginv, optimize=True), 4.0 * P)}
    absolute, relative = {}, {}
    for name, (lhs, rhs) in sides.items():
        axes = tuple(range(phis.ndim - 1, rhs.ndim))
        absolute[name] = np.max(np.abs(lhs - rhs), axis=axes)
        relative[name] = absolute[name] / np.max(np.abs(rhs), axis=axes)
    return absolute, relative


def dense_c1_norm(T, m, rank):
    """Pointwise sqrt(|T|^2 + |nabla T|^2) of a dense (0, rank)-tensor
    field, every slot raised: the reference for curvature.c1_norm."""
    return np.sqrt(ge.tensor_norm2(T, m, rank) + ge.tensor_norm2(
        ge.covariant_derivative(T, m, rank), m, rank + 1))


def dense_torsion(phi, m, psi):
    """T_il = (1/4) (nabla_i phi)_J (e_l -| psi)^J with every slot of the
    rows e_l -| psi raised as a dense 3-form: the reference for
    geometry.torsion_from_phi, which reads the raised psi off phi."""
    idx, sgn = al.basis_interior_table(4)
    ipsi_up = al.move_indices_dense(3, psi.values[..., idx] * sgn,
                                    m.ginv[..., None, :, :])
    nphi = ge.form_covariant_derivative(phi, m)
    return 0.25 * (nphi @ np.swapaxes(ipsi_up, -1, -2))


def rewrite_header(path, field, value):
    """Overwrite one field of a snapshot header in place."""
    raw = bytearray(path.read_bytes())
    fields = list(fl.SNAP_HEADER.unpack_from(raw))
    fields[field] = value
    raw[:fl.SNAP_HEADER.size] = fl.SNAP_HEADER.pack(*fields)
    path.write_bytes(bytes(raw))


def smooth_field(spec, ncomp, seed=0, amp=1.0):
    """Deterministic few-mode field used where tests need generic smooth
    data that refines consistently across grids."""
    rng = np.random.default_rng(seed)
    out = np.zeros(spec.shape + (ncomp,))
    for comp in range(ncomp):
        f = np.zeros(spec.shape)
        for _ in range(2):
            ph = rng.uniform(0, 2 * np.pi)
            a = rng.normal() * amp
            arg = np.zeros(spec.shape)
            for ax in spec.active_axes:
                k = int(rng.integers(-2, 3))
                arg = arg + (2 * np.pi * k / spec.periods[ax]) \
                    * spec.coordinates(ax)
            f = f + a * np.sin(arg + ph)
        out[..., comp] = f
    return out


@pytest.fixture(scope="session")
def state16():
    return perturbed_state(16)


@pytest.fixture(scope="session")
def state32():
    return perturbed_state(32)


@pytest.fixture(scope="session")
def state64():
    return perturbed_state(64)
