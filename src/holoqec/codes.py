"""Codes as frames: correction condition, distance, and logical actions.

A code is a point of the Grassmannian of K-planes carried by an explicit
frame (encoding).  Correctability of an error set {E_a} is the constant-block
condition: every B^{ab} = F^dagger E_a^dagger E_b F must be a scalar multiple
of the identity on the logical space.  Distance is the least weight of a
Pauli violating that condition for the single-operator set {P}.

Both scans evaluate Pauli blocks with one batched kernel over the frame's
support rows.  A block whose X part maps no support row onto the support is
exactly zero and is never gathered; the correction condition takes each
error as its exact Pauli expansion and evaluates each distinct product of
two terms once.  The kernel holds a bounded working set per chunk of Paulis
(``_CHUNK_BYTES``), and the correction condition keeps one f value per pair
passed.  Both run on one thread; ``distance(threads=)`` is accepted and unused.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ErrorSet, pauli_bits, squdit_errors
from .frames import Frame, check_dense_size
from .pauli import PauliString, apply_pauli

__all__ = [
    "Code",
    "CorrectionReport",
    "DistanceResult",
    "NotLogicalError",
    "correction_condition",
    "distance",
    "logical_action",
    "corrects_s_errors",
    "code_to_json",
    "code_from_json",
]

@dataclass(frozen=True)
class Code:
    """An ((n, K)) code: a frame plus the per-site dimensions of the register."""

    frame: Frame
    qudit_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qudit_dims", tuple(int(d) for d in self.qudit_dims))
        prod = 1
        for d in self.qudit_dims:
            prod *= d
        if prod != self.frame.N:
            raise ValueError(
                f"qudit dims product {prod} != frame dimension {self.frame.N}"
            )

    @property
    def n(self) -> int:
        return len(self.qudit_dims)

    @property
    def N(self) -> int:
        return self.frame.N

    @property
    def K(self) -> int:
        return self.frame.K

    @property
    def is_qubit_code(self) -> bool:
        return all(d == 2 for d in self.qudit_dims)


@dataclass(frozen=True)
class CorrectionReport:
    correctable: bool
    f_matrix: np.ndarray | None
    witness: tuple[int, int] | None
    max_deviation: float

    def witness_message(self, errors: Sequence) -> str:
        if self.witness is None:
            return "no violation"
        a, b = self.witness
        return (
            f"pair ({a}, {b}) = ({errors[a]!r}, {errors[b]!r}) "
            f"violates the constant-block condition by {self.max_deviation:.3e}"
        )


@dataclass(frozen=True)
class DistanceResult:
    delta: int | None
    lower_bound: int
    witness: PauliString | None

    @property
    def found(self) -> bool:
        return self.delta is not None


class NotLogicalError(ValueError):
    def __init__(self, residual: float):
        super().__init__(f"unitary does not preserve the codespace (residual {residual:.3e})")
        self.residual = residual


# Working-set bound of the block kernel on an R-row, K-column frame: one step
# gathers and signs _CHUNK_BYTES // (16 R K) blocks' R x K rows, and a scan
# hands the kernel _CHUNK_BYTES // (16 R) Paulis at a time, whose row indices
# (12 bytes per Pauli and row) fit in the same bound.
_CHUNK_BYTES = 8 * 2**20
# i^k for k = 0..3, and (-1)^k for k = 0, 1
_UNITS = np.array([1, 1j, -1, -1j])
_SIGNS = np.array([1.0, -1.0])


class _PauliBlocks:
    """Blocks B = F^dagger X^x Z^z F over the frame's support rows (exact).

    B[i,j] = sum_m conj(F[m,i]) (-1)^{popcount((m^x)&z)} F[m^x, j], and only
    rows m in the support contribute.  F[m^x] is gathered through an int32
    map from row index to block position, in which rows off the support
    point at one padded zero row.  The map, the padded block and its
    conjugate transpose are fixed per frame and built once.

    When X^x maps no support row onto the support, every block with that x
    is exactly zero and nothing is gathered; for a toric frame that is most
    x.  Otherwise the rows are gathered once per x and that x's z signs are
    applied ``chunk`` blocks at a time.  Callers pass ``width`` Paulis per
    call.  x and z are held as int64: the map's DenseSizeError already caps
    n at 26, and n > 62 is refused.
    """

    def __init__(self, frame: Frame):
        self.n = frame.N.bit_length() - 1
        if self.n > 62:
            raise ValueError(f"Pauli bit masks are int64; n = {self.n} qubits is too many")
        check_dense_size(4 * frame.N, "the row-position map of a frame")
        r = frame.rows.size
        self.rows = frame.rows
        self.pos = np.full(frame.N, r, dtype=np.int32)
        self.pos[frame.rows] = np.arange(r, dtype=np.int32)
        self.padded = np.vstack([frame.vals, np.zeros((1, frame.K), dtype=complex)])
        self.left = frame.vals.conj().T
        self.chunk = max(1, _CHUNK_BYTES // (16 * r * frame.K))
        self.width = max(1, _CHUNK_BYTES // (16 * r))

    def blocks(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The (c, K, K) blocks of X^x[i] Z^z[i] for int64 arrays x, z of length c."""
        k, r = self.left.shape
        out = np.zeros((x.size, k, k), dtype=complex)
        xs, inverse = np.unique(x, return_inverse=True)
        src = self.rows ^ xs[:, None]
        at = self.pos.take(src)
        for u in np.flatnonzero((at < r).any(axis=1)):
            right = self.padded.take(at[u], axis=0)
            members = np.flatnonzero(inverse == u)
            for lo in range(0, members.size, self.chunk):
                part = members[lo : lo + self.chunk]
                par = np.bitwise_count(src[u] & z[part, None]) & 1
                out[part] = self.left @ (right * (1.0 - 2.0 * par)[:, :, None])
        return out


def _scalar_part(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f = tr(B)/K and the deviation ||B - f * 1||_max of each block of a (c, K, K) stack."""
    k = B.shape[-1]
    entries = B.reshape(-1, k * k).T.copy()  # one row per entry: the reductions run along rows
    f = entries[:: k + 1].sum(axis=0) / k
    entries[:: k + 1] -= f
    return f, np.abs(entries).max(axis=0)


class _Products:
    """The K x K block of each distinct phase-free product X^x Z^z evaluated so far.

    Keyed by x << n | z (2n <= 52 bits under the map's n <= 26) and kept
    sorted, 8 + 16 K^2 bytes per product; new keys go through the kernel once.
    """

    def __init__(self, kernel: _PauliBlocks):
        if 2 * kernel.n > 63:
            raise ValueError(f"product keys are int64; n = {kernel.n} qubits is too many")
        self.kernel = kernel
        self.keys = np.empty(0, dtype=np.int64)
        k = kernel.left.shape[0]
        self.blocks = np.empty((0, k, k), dtype=complex)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.blocks.nbytes

    def __call__(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        n = self.kernel.n
        keys = (x << n) | z
        at = np.searchsorted(self.keys, keys)
        seen = at < self.keys.size
        seen[seen] = self.keys[at[seen]] == keys[seen]
        if not seen.all():
            new = np.unique(keys[~seen])
            blocks = self.kernel.blocks(new >> n, new & ((1 << n) - 1))
            order = np.argsort(np.concatenate([self.keys, new]))
            self.keys = np.concatenate([self.keys, new])[order]
            self.blocks = np.concatenate([self.blocks, blocks])[order]
            at = np.searchsorted(self.keys, keys)
        return self.blocks.take(at, axis=0)


def _pauli_terms(errors) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ends, x, z, c): rows ends[a]..ends[a+1]-1 hold the pauli_terms c X^x Z^z of error a.

    An ErrorSet is one term per error, read straight from its (x, z, phase)
    arrays.  Any other iterable is taken as PauliStrings and LocalOperators,
    each expanded by its ``pauli_terms``.
    """
    if isinstance(errors, ErrorSet):
        return np.arange(len(errors) + 1), errors.x, errors.z, _UNITS[errors.phase]
    terms = [e.pauli_terms() for e in errors]
    x, z, c = (np.concatenate([t[i] for t in terms]) for i in range(3))
    return np.cumsum([0] + [t[0].size for t in terms]), x, z, c


def correction_condition(code: Code, errors, tol: float = 1e-9) -> CorrectionReport:
    """Check the constant-block correction condition for an error set.

    For every pair (a, b), in row-major order, computes
    B^{ab} = F^dagger E_a^dagger E_b F and tests ||B - f_ab * 1||_max < tol
    with f_ab = tr(B)/K.  Fails fast with the first violating pair as the
    witness; on success returns the full f matrix.

    Every error enters as its exact Pauli expansion E_a = sum_s c_s X^x_s Z^z_s
    (one term for a PauliString, up to 4^w for a LocalOperator on w sites),
    so B^{ab} sums conj(c_s) c_t (-1)^{|x_s & z_s| + |z_s & x_t|} times the
    block of X^{x_s ^ x_t} Z^{z_s ^ z_t} over the terms of a and b.  The
    kernel evaluates each distinct product block once.  With one term per
    error the coefficients are exact units, so a Pauli set's f and
    deviations are those of its products.

    Pairs are scanned in runs of consecutive a * m + b holding at most the
    kernel's width in term pairs: first rows 0 and 1 (row 0 of an ErrorSet
    pairs the identity with each error), then as many whole rows as are
    done, or a row too wide for that in chunks of columns.

    Memory grows with the scan: 16 bytes per pair passed and 8 + 16 K^2
    bytes per distinct product.  Once those would pass the dense bound,
    DenseSizeError is raised; a set that fails earlier still returns its
    witness.  The m x m ``f_matrix`` is stacked only when every pair has
    passed.
    """
    ends, x, z, c = _pauli_terms(errors)
    m = ends.size - 1
    # (c_s X^x_s Z^z_s)^dagger = conj(c_s) (-1)^{|x_s & z_s|} X^x_s Z^z_s
    left = c.conj() * _SIGNS[np.bitwise_count(x & z) & 1]
    products = _Products(_PauliBlocks(code.frame))
    width, k = products.kernel.width, code.K

    f_runs = [np.empty(0, dtype=complex)]
    a = b = 0
    while a < m:
        rows = int(np.searchsorted(ends, ends[a] + width // ends[-1], side="right")) - 1 - a
        if b == 0 and rows > 0:  # whole rows: as many as scanned so far, at least two
            a1, b1 = a + min(max(a, 2), rows), m
        else:  # one row, in chunks of columns
            a1 = a + 1
            cut = ends[b] + width // (ends[a + 1] - ends[a])
            b1 = min(m, max(b + 1, int(np.searchsorted(ends, cut, side="right")) - 1))
        s, t = slice(ends[a], ends[a1]), slice(ends[b], ends[b1])  # the terms of a and of b
        coef = left[s, None] * c[t] * _SIGNS[np.bitwise_count(z[s, None] & x[t]) & 1]
        blocks = coef[..., None, None] * products(x[s, None] ^ x[t], z[s, None] ^ z[t])
        if blocks.shape[:2] != (a1 - a, b1 - b):  # else every error of the run is one term
            # sum each pair's term blocks: over the terms of b, then over those of a
            blocks = np.add.reduceat(blocks, ends[b:b1] - ends[b], axis=1)
            blocks = np.add.reduceat(blocks, ends[a:a1] - ends[a], axis=0)
        f, dev = _scalar_part(blocks.reshape(-1, k, k))
        bad = np.flatnonzero(dev >= tol)
        if bad.size:
            i, j = divmod(int(bad[0]), b1 - b)
            return CorrectionReport(False, None, (a + i, b + j), float(dev[bad[0]]))
        f_runs.append(f)
        a, b = (a1, 0) if b1 == m else (a, b1)
        check_dense_size(
            16 * (a * m + b) + products.nbytes,
            f"f values of the first {a * m + b} pairs of {m} errors, with the distinct products",
        )
    return CorrectionReport(True, np.concatenate(f_runs).reshape(m, m), None, 0.0)


def _weight_class(n: int, w: int, chunk: int):
    """(x, z) arrays of every weight-w Pauli in squdit_errors order, about ``chunk`` at a time."""
    combos = itertools.combinations(range(n), w)
    while batch := list(itertools.islice(combos, max(1, chunk // 3**w))):
        yield pauli_bits(np.array(batch, dtype=np.int64))


def distance(
    code: Code, max_weight: int, tol: float = 1e-8, threads: int = 1
) -> DistanceResult:
    """Brute-force distance by weight-ordered Pauli enumeration.

    Tests every Pauli of weight 1..max_weight against the constant-block
    condition and returns the least violating weight, or reports the search
    exhausted.  Each weight class goes through the batched block kernel in
    enumeration-order chunks, and the witness is the first violation in
    that order.  The phase of a Pauli does not change its deviation, so the
    kernel evaluates X^x Z^z.  ``threads`` is accepted and unused: the scan
    runs on one thread, which was faster than a thread pool on two cores.
    """
    if not code.is_qubit_code:
        raise ValueError("distance enumeration supports qubit codes only")
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be in 1..{code.n}")
    kernel = _PauliBlocks(code.frame)
    for w in range(1, max_weight + 1):
        for x, z in _weight_class(code.n, w, kernel.width):
            hit = np.flatnonzero(_scalar_part(kernel.blocks(x, z))[1] >= tol)
            if hit.size:
                xw, zw = int(x[hit[0]]), int(z[hit[0]])
                return DistanceResult(w, w, PauliString(code.n, xw, zw, (xw & zw).bit_count()))
    return DistanceResult(None, max_weight + 1, None)


def logical_action(code: Code, u: PauliString, tol: float = 1e-9) -> np.ndarray:
    """M = F^dagger U F for a Pauli U, valid only when U preserves the codespace.

    Raises NotLogicalError carrying ||(1 - P) U F|| otherwise.
    """
    g = apply_pauli(u, code.frame.data)
    m = code.frame.data.conj().T @ g
    residual = float(np.linalg.norm(g - code.frame.data @ m))
    if np.max(np.abs(m.conj().T @ m - np.eye(code.K))) >= tol:
        raise NotLogicalError(residual)
    return m


def corrects_s_errors(code: Code, s: int, tol: float = 1e-9) -> bool:
    """True iff the full weight-<=s Pauli set passes the correction condition."""
    if s < 0:
        raise ValueError("s must be non-negative")
    return correction_condition(code, squdit_errors(code.n, s), tol).correctable


# -- JSON serialization -------------------------------------------------------


def code_to_json(code: Code) -> str:
    """Row-major [re, im] pairs; repr floats round-trip bit-exactly."""
    doc = {
        "n": code.n,
        "qudit_dims": list(code.qudit_dims),
        "K": code.K,
        "frame": [
            [z.real, z.imag] for row in code.frame.data for z in row
        ],
    }
    return json.dumps(doc)


def code_from_json(text: str) -> Code:
    doc = json.loads(text)
    dims = tuple(doc["qudit_dims"])
    N = 1
    for d in dims:
        N *= d
    K = doc["K"]
    flat = np.array([complex(re, im) for re, im in doc["frame"]])
    return Code(Frame(flat.reshape(N, K)), dims)
