import numpy as np
import pytest

from holoqec import Frame, NotALoopError, PauliString, classify, orthonormalize
from holoqec.pauli import apply_pauli, pauli_mul, random_unitary
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY


def test_classify_identity_and_phase(rng):
    f = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)])
    res = classify(f, f)
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, 1.0)
    res = classify(f, Frame(1j * f.data))
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, 1j)


def test_classify_logical_block(rng):
    f = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    res = classify(f, Frame(f.data @ x))
    assert res.classification == NONTRIVIAL_LOGICAL
    assert np.allclose(res.logical, x)


def test_classify_rejects_non_loop(rng):
    f = Frame(np.eye(8, dtype=complex)[:, :2])
    g = Frame(np.eye(8, dtype=complex)[:, 4:6])
    with pytest.raises(NotALoopError):
        classify(f, g)


def test_phase_classification_stable_under_frame_change(rng):
    f = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)])
    v = random_unitary(2, rng)
    g = Frame(f.data @ v)
    m = random_unitary(2, rng)
    res1 = classify(f, Frame(f.data @ m))
    res2 = classify(g, Frame(g.data @ (v.conj().T @ m @ v)))
    assert res1.classification == res2.classification
    # conjugated logical action
    assert np.max(np.abs(res2.logical - v.conj().T @ res1.logical @ v)) < 1e-10


def test_functoriality_of_composition(rng):
    """Applying two Paulis in turn equals applying their product; for
    span-preserving Paulis the logical actions multiply."""
    # span{|00>, |11>}: preserved by XX and ZZ
    f = orthonormalize(
        [np.eye(4, dtype=complex)[:, 0], np.eye(4, dtype=complex)[:, 3]]
    )
    p1 = PauliString.from_label("XX")
    p2 = PauliString.from_label("ZZ")
    mid = Frame(apply_pauli(p1, f.data))
    end = Frame(apply_pauli(p2, mid.data))
    direct = apply_pauli(pauli_mul(p2, p1), f.data)
    assert np.max(np.abs(end.data - direct)) < 1e-10
    m_total = classify(f, end).logical
    m1 = f.data.conj().T @ mid.data     # logical X
    m2 = f.data.conj().T @ apply_pauli(p2, f.data)  # logical Z
    assert np.max(np.abs(m_total - m2 @ m1)) < 1e-10


def test_holonomy_result_json(rng):
    f = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)])
    res = classify(f, Frame(-f.data))
    doc = res.to_json_dict()
    assert doc["classification"] == PHASE_ONLY
    assert np.isclose(complex(doc["phase"][0], doc["phase"][1]), -1.0)
    assert len(doc["logical"]) == 2 and len(doc["logical"][0]) == 2
