"""Codes as frames: correction condition, distance, and logical actions.

A code is a point of the Grassmannian of K-planes carried by an explicit
frame (encoding).  Correctability of an error set {E_a} is the constant-block
condition: every B^{ab} = F^dagger E_a^dagger E_b F must be a scalar multiple
of the identity on the logical space.  Distance is the least weight of a
Pauli violating that condition for the single-operator set {P}.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _paulis_on_support, squdit_errors
from .frames import Frame, check_dense_size
from .pauli import LocalOperator, PauliString, apply_pauli

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


# -- operator application dispatch -------------------------------------------


def _apply_operator(op, arr: np.ndarray) -> np.ndarray:
    if isinstance(op, PauliString):
        return apply_pauli(op, arr)
    if isinstance(op, LocalOperator):
        return op.apply(arr)
    if isinstance(op, np.ndarray):
        return op @ arr
    if callable(op):
        return op(arr)
    raise TypeError(f"cannot apply operator of type {type(op)!r}")


class _PauliBlocks:
    """B = F^dagger P F over the frame's support rows (exact).

    B[i,j] = sum_m conj(F[m,i]) * i^k (-1)^{popcount((m^x)&z)} F[m^x, j],
    and only rows m in the support contribute.  F[m^x] is gathered through
    an int32 map from row index to block position, in which rows off the
    support point at one padded zero row.  The map, the padded block and
    its conjugate transpose are fixed per frame and built once.
    """

    def __init__(self, frame: Frame):
        check_dense_size(4 * frame.N, "the row-position map of a frame")
        r = frame.rows.size
        self.rows, self.vals = frame.rows, frame.vals
        self.pos = np.full(frame.N, r, dtype=np.int32)
        self.pos[frame.rows] = np.arange(r, dtype=np.int32)
        self.padded = np.vstack([frame.vals, np.zeros((1, frame.K), dtype=complex)])
        self.left = frame.vals.conj().T
        self.eye = np.eye(frame.K)

    def __call__(self, p: PauliString) -> np.ndarray:
        if p.x_bits == 0:
            src, right = self.rows, self.vals
        else:
            src = np.bitwise_xor(self.rows, p.x_bits)
            right = self.padded.take(self.pos.take(src), axis=0)
        if p.z_bits:
            par = np.bitwise_count(np.bitwise_and(src, p.z_bits)).astype(np.int64) & 1
            right = right * (1.0 - 2.0 * par)[:, None]
        if p.phase_exp:
            right = right * p.phase
        return self.left @ right


def _scalar_part(B: np.ndarray, eye: np.ndarray) -> tuple[complex, float]:
    """f = tr(B)/K and the deviation ||B - f * 1||_max."""
    f = np.trace(B) / eye.shape[0]
    return f, float(np.max(np.abs(B - f * eye)))


def correction_condition(code: Code, errors, tol: float = 1e-9) -> CorrectionReport:
    """Check the constant-block correction condition for an error set.

    For every pair (a, b), in row-major order, computes
    B^{ab} = F^dagger E_a^dagger E_b F and tests ||B - f_ab * 1||_max < tol
    with f_ab = tr(B)/K.  Fails fast with a named witness pair; on success
    returns the full f matrix.

    Memory grows with the scan: each row a of f is one vector of m complex
    values (16 m bytes), allocated when the scan reaches that row, so a
    failing set costs memory only for the rows it has reached.  A set with
    any non-Pauli error first holds m dense N x K images E_a F, and raises
    DenseSizeError when those would pass the dense bound.  The m x m
    ``f_matrix`` (16 m^2 bytes, briefly twice that while its rows are
    stacked) is built only when every pair has passed.
    """
    errs = list(errors)
    m = len(errs)
    eye = np.eye(code.K)

    if all(isinstance(e, PauliString) for e in errs):
        blocks = _PauliBlocks(code.frame)

        def row_blocks(a):
            ea = errs[a].dagger()
            return (blocks(ea * eb) for eb in errs)

    else:
        # mixed / non-Pauli operators: precompute G_a = E_a F densely
        check_dense_size(
            16 * m * code.N * code.K, f"the dense images E_a F of {m} errors in a non-Pauli set"
        )
        gs = [_apply_operator(e, code.frame.data) for e in errs]

        def row_blocks(a):
            ga = gs[a].conj().T
            return (ga @ gb for gb in gs)

    rows = []
    for a in range(m):
        row = np.zeros(m, dtype=complex)
        for b, B in enumerate(row_blocks(a)):
            row[b], dev = _scalar_part(B, eye)
            if dev >= tol:
                return CorrectionReport(False, None, (a, b), dev)
        rows.append(row)
    return CorrectionReport(True, np.array(rows, dtype=complex).reshape(m, m), None, 0.0)


def _scan_supports(
    blocks: _PauliBlocks,
    n: int,
    indexed_supports: list[tuple[int, tuple[int, ...]]],
    tol: float,
) -> tuple[int, int, PauliString] | None:
    """First Def-2.4 violation over all letter assignments on the supports.

    Takes (global index, support) pairs and returns the violation with the
    smallest (support index, letter index), so chunked scans merge into a
    deterministic, thread-count-independent result.
    """
    for si, supp in indexed_supports:
        for li, p in enumerate(_paulis_on_support(n, supp)):
            if _scalar_part(blocks(p), blocks.eye)[1] >= tol:
                return si, li, p
    return None


def distance(
    code: Code, max_weight: int, tol: float = 1e-8, threads: int = 1
) -> DistanceResult:
    """Brute-force distance by weight-ordered Pauli enumeration.

    Tests every Pauli of weight 1..max_weight against the constant-block
    condition and returns the least violating weight, or reports the search
    exhausted.  ``threads`` chunks the weight class; the reported witness is
    the first in enumeration order regardless of thread count.
    """
    if not code.is_qubit_code:
        raise ValueError("distance enumeration supports qubit codes only")
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be in 1..{code.n}")
    blocks = _PauliBlocks(code.frame)
    n = code.n

    for w in range(1, max_weight + 1):
        supports = list(enumerate(itertools.combinations(range(n), w)))
        if threads <= 1 or len(supports) < 4 * threads:
            hit = _scan_supports(blocks, n, supports, tol)
        else:
            chunks = [supports[i::threads] for i in range(threads)]
            with ThreadPoolExecutor(max_workers=threads) as ex:
                results = list(
                    ex.map(lambda c: _scan_supports(blocks, n, c, tol), chunks)
                )
            hits = [r for r in results if r is not None]
            hit = min(hits, key=lambda t: (t[0], t[1])) if hits else None
        if hit is not None:
            return DistanceResult(w, w, hit[2])
    return DistanceResult(None, max_weight + 1, None)


def logical_action(code: Code, u, tol: float = 1e-9) -> np.ndarray:
    """M = F^dagger U F, valid only when U preserves the codespace.

    Raises NotLogicalError carrying ||(1 - P) U F|| otherwise.
    """
    g = _apply_operator(u, code.frame.data)
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
