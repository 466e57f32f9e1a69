"""Property tests (hypothesis) for pointwise kernels.

The torsion identities nabla phi = T -| psi and nabla psi = -T ^ phi are
checked on increasing components through the interior-table gather and
the wedge kernel; these tests pin both against the dense einsum formulas
on random data.
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
