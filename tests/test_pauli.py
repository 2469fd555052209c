from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoqec.frames import Frame
from holoqec.pauli import (
    SIGMA,
    LocalOperator,
    PauliString,
    alpha,
    apply_pauli,
    beta,
    interp_matrix,
    pauli_mul,
    random_unitary,
)


def random_pauli(rng, n):
    return PauliString(
        n,
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 4)),
    )


small_pauli = st.builds(
    PauliString,
    st.just(3),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 3),
)


def test_xz_is_minus_i_y():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    y = PauliString.from_label("Y")
    # -i Y adds i^3 to Y's internal exponent
    assert pauli_mul(x, z) == PauliString(1, y.x_bits, y.z_bits, (y.phase_exp + 3) % 4)
    assert pauli_mul(x, z).to_label() == "-i*Y"


def test_identity_neutral():
    p = PauliString.from_label("XYZIZ")
    i5 = PauliString.identity(5)
    assert pauli_mul(p, i5) == p
    assert pauli_mul(i5, p) == p


def test_mismatched_sizes_raise():
    with pytest.raises(ValueError):
        pauli_mul(PauliString.identity(2), PauliString.identity(3))


def test_product_matches_dense_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        assert np.allclose(pauli_mul(p, q).to_dense(), p.to_dense() @ q.to_dense())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_pauli, small_pauli, small_pauli)
def test_associativity(p, q, r):
    assert pauli_mul(pauli_mul(p, q), r) == pauli_mul(p, pauli_mul(q, r))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_pauli, small_pauli)
def test_weight_subadditive(p, q):
    assert pauli_mul(p, q).weight <= p.weight + q.weight


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_pauli)
def test_dagger_inverts(p):
    assert pauli_mul(p, p.dagger()) == PauliString.identity(3)


def test_label_round_trip():
    for label in ("+XIZZY", "-YZXII", "+i*XY", "-i*ZZZZZ", "+IIIII"):
        assert PauliString.from_label(label).to_label() == label


def test_apply_trivial_cases():
    x = PauliString.single(1, 0, "X")
    z = PauliString.single(1, 0, "Z")
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(apply_pauli(x, ket0), ket1)
    assert np.allclose(apply_pauli(z, ket1), -ket1)


def test_apply_matches_dense_oracle(rng):
    n = 3
    for _ in range(50):
        p = random_pauli(rng, n)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.max(np.abs(apply_pauli(p, v) - p.to_dense() @ v)) < 1e-12
    # and on frames
    m = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    p = random_pauli(rng, n)
    assert np.allclose(apply_pauli(p, m), p.to_dense() @ m)


def _apply_pauli_reference(p, v):
    """The index formula: (P v)[m] = i^k (-1)^popcount((m ^ x) & z) v[m ^ x]."""
    src = np.arange(1 << p.n, dtype=np.uint64) ^ np.uint64(p.x_bits)
    out = v[src]
    if p.z_bits:
        par = np.bitwise_count(src & np.uint64(p.z_bits)).astype(np.int64) & 1
        signs = 1.0 - 2.0 * par
        out = out * (signs[:, None] if v.ndim == 2 else signs)
    if p.phase_exp:
        out = out * p.phase
    return out


def test_apply_matches_index_formula_exactly(rng):
    """Values and dtype equal the index formula; zero signs may differ."""
    for n in range(1, 9):
        N = 1 << n
        inputs = (
            rng.normal(size=N),
            rng.normal(size=(N, 3)),
            rng.normal(size=N) + 1j * rng.normal(size=N),
            rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2)),
        )
        for k in range(4):
            for _ in range(5):
                p = PauliString(n, int(rng.integers(0, N)), int(rng.integers(0, N)), k)
                for v in inputs:
                    got, want = apply_pauli(p, v), _apply_pauli_reference(p, v)
                    assert got.dtype == want.dtype
                    assert got.shape == v.shape
                    assert np.array_equal(got, want)


def test_apply_leaves_input_unchanged(rng):
    v = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    before = v.copy()
    apply_pauli(PauliString.from_label("-i*XYZY"), v)
    assert np.array_equal(v, before)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(PauliString.identity(2), np.zeros(7, dtype=complex))


def test_interp_endpoints_and_midpoint():
    for letter in "XYZ":
        assert np.allclose(interp_matrix(letter, 0.0), np.eye(2))
        assert np.allclose(interp_matrix(letter, 1.0), SIGMA[letter], atol=1e-15)
    a_half = np.exp(-1j * np.pi / 4) * np.cos(np.pi / 4)
    b_half = 1j * np.exp(-1j * np.pi / 4) * np.sin(np.pi / 4)
    assert np.isclose(alpha(0.5), a_half)
    assert np.isclose(beta(0.5), b_half)
    assert np.isclose(alpha(0.0), 1.0) and np.isclose(beta(1.0), 1.0)
    assert np.isclose(alpha(1.0), 0.0, atol=1e-15) and np.isclose(beta(0.0), 0.0)


def test_interp_unitary_and_reverse_identity():
    ts = np.linspace(0.0, 1.0, 11)
    for letter in "XYZ":
        for t in ts:
            u = interp_matrix(letter, t, "forward")
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            # V(t) = U(1-t) sigma exactly as matrices
            v = interp_matrix(letter, t, "reverse")
            assert np.allclose(v, interp_matrix(letter, 1 - t) @ SIGMA[letter])
            assert np.isclose(abs(alpha(t)) ** 2 + abs(beta(t)) ** 2, 1.0)


def local_dense(op):
    """The kron of a LocalOperator's factors, identity elsewhere; qubit 0 is the last factor."""
    mats = dict(zip(op.sites, op.factors))
    return reduce(np.kron, [mats.get(j, np.eye(2)) for j in reversed(range(op.n))])


def test_local_operator_matches_dense(rng):
    p = PauliString.from_label("-i*XZY")
    op = LocalOperator.from_pauli(p)
    assert np.max(np.abs(local_dense(op) - p.to_dense())) < 1e-12
    # a Pauli's expansion is itself, exactly
    x, z, c = op.pauli_terms()
    assert (x.tolist(), z.tolist(), c.tolist()) == ([p.x_bits], [p.z_bits], [p.phase])
    # the expansion of unitary site factors sums back to their tensor product
    n = 4
    for w in range(4):
        sites = tuple(sorted(rng.choice(n, w, replace=False).tolist()))
        op = LocalOperator(n, sites, tuple(random_unitary(2, rng) for _ in sites))
        x, z, c = op.pauli_terms()
        assert x.size == 4**w
        summed = sum(c[i] * PauliString(n, int(x[i]), int(z[i])).to_dense() for i in range(x.size))
        assert np.max(np.abs(summed - local_dense(op))) < 1e-15


def test_apply_on_row_frames_matches_index_formula(rng):
    """A Frame stored on a strict subset of the rows: XOR, sign, re-sort."""
    for n in range(1, 9):
        N = 1 << n
        for k in range(4):
            for _ in range(5):
                K = int(rng.integers(1, 3)) if N > 2 else 1
                R = int(rng.integers(K, N))
                rows = np.sort(rng.choice(N, R, replace=False))
                q, _ = np.linalg.qr(rng.normal(size=(R, K)) + 1j * rng.normal(size=(R, K)))
                f = Frame.from_rows(N, rows, q)
                p = PauliString(n, int(rng.integers(0, N)), int(rng.integers(0, N)), k)
                got = apply_pauli(p, f)
                assert isinstance(got, Frame) and got.rows.size == R
                assert np.all(np.diff(got.rows) > 0)
                assert np.array_equal(got.data, _apply_pauli_reference(p, f.data))
