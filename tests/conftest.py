import numpy as np
import pytest

from g2flow import algebra as al
from g2flow import flow as fl
from g2flow import geometry as ge
from g2flow import grid as gr
from g2flow.initial_data import (DEFAULT_MODES, Mode, flat_phi_field,
                                 perturbed_phi_field)

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


def l2_form_inner(a, b, m):
    """Global L2 pairing of k-form fields in the k!-normalized (form)
    convention, the one in which d and the codifferential are mutually
    adjoint; the k-tensor convention differs by the multiplicity k!."""
    import math
    v = al.form_inner_comps(a.degree, a.values, b.values, m.ginv) \
        / float(math.factorial(a.degree))
    return gr.integrate_scalar(v * m.vol, a.spec)


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
