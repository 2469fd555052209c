import numpy as np
import pytest

from holoqec import (
    Code,
    Frame,
    NotLogicalError,
    PauliString,
    code_from_json,
    code_to_json,
    correction_condition,
    corrects_s_errors,
    distance,
    logical_action,
    squdit_errors,
)
from holoqec.fivequbit import logical_x, logical_z, stabilizer_generators
from holoqec.pauli import random_unitary


def dense_correction_oracle(code, errors, tol=1e-9):
    """Independent check of the constant-block condition via dense matrices."""
    f = code.frame.data
    for a in errors:
        for b in errors:
            m = f.conj().T @ a.to_dense().conj().T @ b.to_dense() @ f
            fab = np.trace(m) / code.K
            if np.max(np.abs(m - fab * np.eye(code.K))) >= tol:
                return False
    return True


def test_identity_set_trivially_correctable(code5):
    rep = correction_condition(code5, squdit_errors(5, 0))
    assert rep.correctable
    assert np.isclose(rep.f_matrix[0, 0], 1.0)


def test_five_qubit_corrects_weight_one(code5):
    es = squdit_errors(5, 1)
    rep = correction_condition(code5, es)
    assert rep.correctable
    assert dense_correction_oracle(code5, es)


def test_five_qubit_weight3_logical_not_correctable(code5):
    es = list(squdit_errors(5, 1)) + [logical_x() * stabilizer_generators()[0]]
    rep = correction_condition(code5, es)
    assert not rep.correctable
    assert rep.witness is not None
    assert rep.max_deviation > 1e-3
    assert "violates" in rep.witness_message(es)


def test_correction_agrees_with_dense_oracle_on_weight2(code5):
    es = squdit_errors(5, 2)
    rep = correction_condition(code5, es)
    assert not rep.correctable  # distance 3 cannot correct all weight-2 pairs


def test_basis_independence(code5, rng):
    es = squdit_errors(5, 1)
    u = random_unitary(2, rng)
    rotated = Code(Frame(code5.frame.data @ u), code5.qudit_dims)
    rep1 = correction_condition(code5, es)
    rep2 = correction_condition(rotated, es)
    assert rep1.correctable and rep2.correctable
    # f matrix is basis independent outright
    assert np.max(np.abs(rep1.f_matrix - rep2.f_matrix)) < 1e-9


def test_full_space_distance_one():
    code = Code(Frame(np.eye(4, dtype=complex)), (2, 2))
    res = distance(code, 2)
    assert res.delta == 1


def test_distance_rejects_qudit_sites():
    code = Code(Frame(np.eye(6, dtype=complex)[:, :2]), (2, 3))
    with pytest.raises(ValueError):
        distance(code, 1)


def test_code_validates_dims():
    with pytest.raises(ValueError):
        Code(Frame(np.eye(4, dtype=complex)), (2,))


def test_five_qubit_distance(code5):
    res = distance(code5, 3)
    assert res.delta == 3
    assert res.witness is not None and res.witness.weight == 3


def test_distance_thread_invariance(code5):
    r1 = distance(code5, 3, threads=1)
    r4 = distance(code5, 3, threads=4)
    assert r1.delta == r4.delta
    assert r1.witness == r4.witness


def test_distance_exhausted_reports_lower_bound(code5):
    res = distance(code5, 2)
    assert res.delta is None
    assert res.lower_bound == 3


def test_logical_action_cases(code5):
    assert np.allclose(logical_action(code5, PauliString.identity(5)), np.eye(2))
    for g in stabilizer_generators():
        assert np.allclose(logical_action(code5, g), np.eye(2), atol=1e-12)
    mx = logical_action(code5, logical_x())
    assert np.allclose(mx, np.array([[0, 1], [1, 0]]), atol=1e-12)
    mz = logical_action(code5, logical_z())
    assert np.allclose(mz, np.diag([1, -1]), atol=1e-12)


def test_logical_action_multiplicative(code5):
    x5, z5 = logical_x(), logical_z()
    lhs = logical_action(code5, x5 * z5)
    rhs = logical_action(code5, x5) @ logical_action(code5, z5)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_logical_action_rejects_non_preserving(code5):
    bad = PauliString.single(5, 0, "X")  # weight-1 error maps C off itself
    with pytest.raises(NotLogicalError) as err:
        logical_action(code5, bad)
    assert err.value.residual > 0.5


def test_corrects_s_errors(code5):
    assert corrects_s_errors(code5, 0)
    assert corrects_s_errors(code5, 1)
    assert not corrects_s_errors(code5, 2)
    # consistency with distance: delta > 2s
    assert distance(code5, 3).delta == 3


def test_distance_correction_consistency(code5, toric2):
    """corrects_s_errors(s) iff distance > 2s, for every fixture."""
    for code, max_w in ((code5, 3), (toric2.code, 2)):
        delta = distance(code, max_w).delta
        assert delta is not None
        for s in range(max_w // 2 + 1):
            assert corrects_s_errors(code, s) == (delta > 2 * s)


def test_json_round_trip(code5):
    text = code_to_json(code5)
    back = code_from_json(text)
    assert back.qudit_dims == code5.qudit_dims
    assert np.array_equal(back.frame.data, code5.frame.data)  # bit-exact
    assert code_to_json(back) == text
