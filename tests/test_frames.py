import tracemalloc

import numpy as np
import pytest

from holoqec.frames import (
    DenseSizeError,
    EmptySpanError,
    Frame,
    common_rows,
    orthonormalize,
    principal_overlap,
    subspace_distance,
)
from holoqec.pauli import random_unitary


def test_frame_validation():
    good = np.eye(4, dtype=complex)[:, :2]
    Frame(good)
    with pytest.raises(ValueError):
        Frame(np.ones((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        Frame(np.zeros((4, 0), dtype=complex))


def test_orthonormalize_drops_duplicates():
    ket0 = np.array([1, 0], dtype=complex)
    f = orthonormalize([ket0, ket0])
    assert f.K == 1
    f = orthonormalize([ket0, np.array([0, 1], dtype=complex)])
    assert f.K == 2
    assert np.allclose(f.data, np.eye(2))


def test_orthonormalize_empty_span():
    with pytest.raises(EmptySpanError):
        orthonormalize([np.zeros(4, dtype=complex)])


def test_orthonormalize_span_preserved(rng):
    vecs = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(5)]
    f = orthonormalize(vecs)
    assert np.max(np.abs(f.data.conj().T @ f.data - np.eye(f.K))) < 1e-12
    # span check through projector comparison with a least-squares basis
    a = np.column_stack(vecs)
    q, _ = np.linalg.qr(a)
    p_ref = q @ q.conj().T
    assert np.max(np.abs(f.data @ f.data.conj().T - p_ref)) < 1e-10


def test_orthonormalize_idempotent_up_to_span(rng):
    vecs = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(3)]
    f1 = orthonormalize(vecs)
    f2 = orthonormalize(list(f1.data.T))
    assert subspace_distance(f1, f2) < 1e-12


def test_principal_overlap_cases(rng):
    f = orthonormalize([rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(2)])
    assert np.allclose(principal_overlap(f, f), np.eye(2))
    # orthogonal complement block
    comp = orthonormalize(
        [v - f.data @ (f.data.conj().T @ v) for v in
         (rng.normal(size=(6,)) + 1j * rng.normal(size=6) for _ in range(2))]
    )
    assert np.max(np.abs(principal_overlap(f, comp))) < 1e-10
    # rotated frame: overlap is exactly the rotation
    u = random_unitary(2, rng)
    g = Frame(f.data @ u)
    m = principal_overlap(f, g)
    assert np.allclose(m, u)
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_subspace_equal_tolerance_behavior(rng):
    f = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)])
    u = random_unitary(2, rng)
    assert subspace_distance(f, Frame(f.data @ u)) < 1e-9
    comp = np.eye(8, dtype=complex)[:, 6:]
    other = orthonormalize([comp[:, 0], comp[:, 1]])
    assert subspace_distance(f, other) > 0.5  # generic case
    # tiny rotation out of span: visible at 1e-14, invisible at 1e-8
    eps = 1e-12
    out = f.data.copy()
    leak = np.zeros(8, dtype=complex)
    leak[7] = 1.0
    leak = leak - f.data @ (f.data.conj().T @ leak)
    leak /= np.linalg.norm(leak)
    rotated = out.copy()
    rotated[:, 0] = np.sqrt(1 - eps**2) * out[:, 0] + eps * leak
    g = Frame(rotated)
    assert 1e-26 <= subspace_distance(f, g) < 1e-8


def test_principal_angles_orthogonal():
    e = np.eye(4, dtype=complex)
    f1 = Frame(e[:, :1])
    f2 = Frame(e[:, 1:2])
    cosines = np.linalg.svd(principal_overlap(f1, f2), compute_uv=False)
    assert np.isclose(np.arccos(np.clip(cosines, 0.0, 1.0))[0], np.pi / 2)
    assert np.isclose(subspace_distance(f1, f2), 1.0)


def _row_frame(rng, N, rows, K):
    """An orthonormal frame stored on the given support rows."""
    a = rng.normal(size=(len(rows), K)) + 1j * rng.normal(size=(len(rows), K))
    q, _ = np.linalg.qr(a)
    return Frame.from_rows(N, np.sort(rows), q)


def test_dense_round_trip_keeps_the_nonzero_rows(rng):
    dense = np.zeros((16, 2), dtype=complex)
    dense[[1, 4, 5, 11]] = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    f = Frame(dense)
    assert np.array_equal(f.rows, [1, 4, 5, 11])
    assert np.array_equal(f.data, dense)
    full = orthonormalize([rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(3)])
    assert full.rows.size == 8 and np.array_equal(Frame(full.data).data, full.data)


def test_from_rows_validation():
    with pytest.raises(ValueError, match="sorted"):
        Frame.from_rows(8, [3, 1], np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="sorted"):
        Frame.from_rows(8, [1, 8], np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="orthonormal"):
        Frame.from_rows(8, [1, 2], np.ones((2, 2), dtype=complex))
    f = Frame.from_rows(8, [1, 2, 6], np.eye(3, 2, dtype=complex))  # row 6 is zero
    assert np.array_equal(f.rows, [1, 2])


def test_from_rows_keeps_owned_blocks_and_copies_views():
    rows, vals = np.array([1, 5]), np.eye(2, dtype=complex)
    f = Frame.from_rows(8, rows, vals)
    assert f.vals is vals and not vals.flags.writeable
    big = np.eye(2, 3, dtype=complex)
    f = Frame.from_rows(8, rows, big[:, :2])
    big[0, 0] = 2.0  # the caller's base stays writable; the frame does not see it
    assert f.vals[0, 0] == 1.0


def test_overlap_and_combination_over_different_rows_equal_dense(rng):
    N = 64
    f1 = _row_frame(rng, N, rng.choice(N, 20, replace=False), 3)
    f2 = _row_frame(rng, N, rng.choice(N, 25, replace=False), 3)
    assert not np.array_equal(f1.rows, f2.rows)
    dense = f1.data.conj().T @ f2.data
    assert np.max(np.abs(principal_overlap(f1, f2) - dense)) < 1e-15
    rows, (a, b) = common_rows(f1, f2)
    assert np.array_equal(rows, np.union1d(f1.rows, f2.rows))
    combined = np.zeros((N, 3), dtype=complex)
    combined[rows] = 0.6 * a + 0.8j * b
    assert np.array_equal(combined, 0.6 * f1.data + 0.8j * f2.data)


def test_dense_view_guard():
    f = Frame.from_rows(1 << 26, [0, 5], np.eye(2, dtype=complex))
    with pytest.raises(DenseSizeError, match="dense view"):
        f.data


def _spread_block(rows: int, k: int) -> np.ndarray:
    """An orthonormal rows x k block with one non-zero entry in every row."""
    vals = np.zeros((rows, k), dtype=complex)
    for c in range(k):
        vals[c::k, c] = 1.0 / np.sqrt(rows // k)
    return vals


def test_orthonormality_check_stays_bounded_on_a_large_block():
    """The Gram matrix is summed over row chunks, never over a conjugate copy of the block."""
    vals = _spread_block(1 << 17, 4)  # 8 MiB
    rows = np.arange(vals.shape[0])
    tracemalloc.start()
    try:
        f = Frame.from_rows(vals.shape[0], rows, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.vals is vals
    assert peak < 0.25 * vals.nbytes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the Gram matrix
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0), complex(1, np.nan)])
def test_frames_refuse_non_finite_blocks(bad):
    """A NaN deviation compares False against any bound, so the check must not read as passed."""
    vals = np.array([[bad], [0.0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        Frame(vals)
    with pytest.raises(ValueError, match="orthonormal"):
        Frame.from_rows(4, [0, 3], vals)


def test_orthonormality_check_sees_every_chunk():
    vals = _spread_block(1 << 17, 4)
    vals[-1, 0] = 1e-3  # breaks orthogonality in the last rows only
    with pytest.raises(ValueError, match="orthonormal"):
        Frame.from_rows(vals.shape[0], np.arange(vals.shape[0]), vals)
