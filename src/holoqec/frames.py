"""Orthonormal frames and subspace comparison.

A Frame is an N x K complex matrix with orthonormal columns: an ordered basis
of a K-dimensional subspace, i.e. an encoding of a K-dimensional logical space
into an N-dimensional physical space.  It is stored on its support rows: the
sorted indices of the rows with a non-zero entry, and the R x K block of
those rows.  A dense frame is the case rows = arange(N); a toric codeword is
uniform over a coset of the vertex group, so an L = 3 toric frame keeps 1 024
of its 2^18 rows.  Subspaces are compared through the singular values of the
frame overlap (cosines of the principal angles).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DENSE_BYTES_LIMIT",
    "DenseSizeError",
    "Frame",
    "check_dense_size",
    "common_rows",
    "orthonormalize",
    "principal_overlap",
    "subspace_equal",
    "subspace_distance",
    "EmptySpanError",
]

ORTHONORMALITY_TOL = 1e-10
DENSE_BYTES_LIMIT = 256 * 2**20


class EmptySpanError(ValueError):
    """All input vectors were dropped as numerically dependent."""


class DenseSizeError(ValueError):
    """An array indexed by the full N-row space would exceed DENSE_BYTES_LIMIT."""


def check_dense_size(nbytes: int, what: str) -> None:
    """Raise DenseSizeError, before allocating, when ``what`` needs too many bytes."""
    if nbytes > DENSE_BYTES_LIMIT:
        raise DenseSizeError(
            f"{what} needs {nbytes} bytes, over the {DENSE_BYTES_LIMIT}-byte bound"
        )


class Frame:
    """N x K complex matrix with orthonormal columns, stored on its support rows.

    ``Frame(dense)`` keeps the rows of ``dense`` with any non-zero entry;
    ``Frame.from_rows(N, rows, vals)`` builds one from sorted distinct rows and
    their R x K values.  Both check orthonormality on the stored block.
    A stored frame is immutable: its arrays are read-only and its attributes
    cannot be rebound, so a shared frame, and a kernel built from it, stays valid.
    """

    __slots__ = ("N", "rows", "vals")

    def __init__(self, data):
        a = np.array(data, dtype=complex)
        if a.ndim != 2:
            raise ValueError("frame data must be a 2-d array")
        self._set(a.shape[0], np.arange(a.shape[0]), a)

    @classmethod
    def from_rows(cls, N: int, rows, vals) -> "Frame":
        """The frame whose row ``rows[i]`` is ``vals[i]`` and whose other rows are 0.

        When no row of ``vals`` is zero the frame keeps ``rows`` and ``vals``
        without a copy and makes them read-only, if they own their memory; a
        view is copied, since its base would stay writable.
        """
        rows, vals = np.asarray(rows, dtype=np.int64), np.asarray(vals, dtype=complex)
        f = cls.__new__(cls)
        f._set(int(N), *(a if a.flags.owndata else a.copy() for a in (rows, vals)))
        return f

    @classmethod
    def _unchecked(cls, N: int, rows: np.ndarray, vals: np.ndarray) -> "Frame":
        """Wrap a block known to be a valid frame, e.g. a unitary image of one."""
        f = cls.__new__(cls)
        f._store(N, rows, vals)
        return f

    def _set(self, n: int, rows: np.ndarray, vals: np.ndarray) -> None:
        if vals.ndim != 2 or rows.shape != vals.shape[:1]:
            raise ValueError("need one row index per row of an R x K block")
        k = vals.shape[1]
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
        if rows.size and (rows[0] < 0 or rows[-1] >= n or np.any(rows[1:] <= rows[:-1])):
            raise ValueError("row indices must be sorted, distinct and in range(N)")
        step = max(1, 2**16 // k)  # 1 MiB row chunks: a chunk's conjugate is the only copy
        chunks = (vals[i : i + step] for i in range(0, len(vals), step))
        g = sum(c.conj().T @ c for c in chunks)
        err = np.max(np.abs(g - np.eye(k)))
        if not err < ORTHONORMALITY_TOL:  # a NaN fails too
            raise ValueError(f"columns not orthonormal (max deviation {err:.3e})")
        keep = np.any(vals != 0, axis=1)
        if not keep.all():
            rows, vals = rows[keep], vals[keep]
        self._store(n, rows, vals)

    def _store(self, n: int, rows: np.ndarray, vals: np.ndarray) -> None:
        rows.setflags(write=False)
        vals.setflags(write=False)
        for name, value in (("N", n), ("rows", rows), ("vals", vals)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Frame is immutable: cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through _store
        return Frame._unchecked, (self.N, self.rows, self.vals)

    @property
    def K(self) -> int:
        return self.vals.shape[1]

    @property
    def data(self) -> np.ndarray:
        """The dense N x K matrix, read-only; built on access unless every row is stored."""
        if self.rows.size == self.N:
            return self.vals
        check_dense_size(16 * self.N * self.K, "the dense view of a frame")
        out = np.zeros((self.N, self.K), dtype=complex)
        out[self.rows] = self.vals
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"Frame(N={self.N}, K={self.K}, rows={self.rows.size})"


def common_rows(*frames: Frame) -> tuple[np.ndarray, list[np.ndarray]]:
    """The union of the frames' support rows, and each frame's block on it.

    Rows a frame does not store are zero in its block.  Frames on the same
    rows come back as their stored blocks.
    """
    rows = frames[0].rows
    if all(f.rows is rows or np.array_equal(f.rows, rows) for f in frames[1:]):
        return rows, [f.vals for f in frames]
    rows = np.sort(np.concatenate([f.rows for f in frames]))
    rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    blocks = []
    for f in frames:
        b = np.zeros((rows.size, f.K), dtype=complex)
        b[np.searchsorted(rows, f.rows)] = f.vals
        blocks.append(b)
    return rows, blocks


def orthonormalize(vectors, tol: float = 1e-10) -> Frame:
    """Gram-Schmidt in input order, dropping numerically dependent vectors.

    Deterministic: the output columns follow the input order, each vector
    either normalized after projection or dropped when its residual norm
    falls below ``tol``.  Re-orthogonalizes once for stability.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise EmptySpanError("no input vectors")
    dim = vecs[0].size
    cols: list[np.ndarray] = []
    for v in vecs:
        if v.size != dim:
            raise ValueError("input vectors have mixed dimensions")
        w = v.copy()
        for _ in range(2):
            for c in cols:
                w -= c * (c.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm >= tol:
            cols.append(w / nrm)
    if not cols:
        raise EmptySpanError("all vectors below tolerance; span is empty")
    return Frame(np.column_stack(cols))


def principal_overlap(f1: Frame, f2: Frame) -> np.ndarray:
    """M = F1^dagger F2; its singular values are cosines of principal angles."""
    if f1.N != f2.N or f1.K != f2.K:
        raise ValueError(
            f"frame dimensions differ: ({f1.N},{f1.K}) vs ({f2.N},{f2.K})"
        )
    _, (a, b) = common_rows(f1, f2)
    return a.conj().T @ b


def subspace_equal(f1: Frame, f2: Frame, tol: float = 1e-9) -> bool:
    """True iff the column spans agree: every overlap singular value > 1 - tol."""
    s = np.linalg.svd(principal_overlap(f1, f2), compute_uv=False)
    return bool(s.min() > 1.0 - tol)


def subspace_distance(f1: Frame, f2: Frame) -> float:
    """One minus the smallest principal cosine: 0 iff the spans agree.

    This is the quantity subspace_equal thresholds, so equal-span frames
    computed in floats score ~1e-16 rather than the sqrt-amplified values a
    sine-based metric would give.
    """
    s = np.linalg.svd(principal_overlap(f1, f2), compute_uv=False)
    return float(max(0.0, 1.0 - float(s.min())))
