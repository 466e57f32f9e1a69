"""Property tests (hypothesis) for pointwise kernels.

The torsion identities nabla phi = T -| psi and nabla psi = -T ^ phi are
checked on increasing components through the interior-table gather and
the wedge kernel; these tests pin both against the dense einsum formulas
on random data.  The metric kernel's bilinear form, a product with a fixed
volume-pairing table, is pinned against Bryant's formula spelled out with
the interior and wedge kernels.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from g2flow import algebra as al  # noqa: E402

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
