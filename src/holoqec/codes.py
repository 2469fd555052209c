"""Codes as frames: stabilizer-code builds, correction condition, distance, and logical actions.

A code is a point of the Grassmannian of K-planes carried by an explicit
frame (encoding); ``stabilizer_code`` builds one from Pauli generators and
seeds, exactly.  Correctability of an error set {E_a} is the constant-block
condition: every B^{ab} = F^dagger E_a^dagger E_b F must be a scalar multiple
of the identity on the logical space.  Distance is the least weight of a
Pauli violating that condition for the single-operator set {P}.

Both scans evaluate Pauli blocks with one batched kernel over the frame's
support rows.  A block is exactly zero, and never gathered, when the Pauli
anticommutes with one of the code's stabilizer generators or its X part
maps no support row onto the support; the correction condition takes each
error as its exact Pauli expansion and evaluates each distinct product of
two terms once.  The kernel holds a bounded working set per chunk of Paulis
(``_CHUNK_BYTES``), and the correction condition keeps one f value per pair
passed.  Both run on one thread; ``distance(threads=)`` is accepted and unused.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ErrorSet, pauli_bits
from .frames import Frame, check_dense_size, common_rows
from .pauli import PauliString, apply_pauli

__all__ = [
    "Code",
    "CorrectionReport",
    "DistanceResult",
    "NotLogicalError",
    "correction_condition",
    "distance",
    "logical_action",
    "stabilizer_code",
    "code_to_json",
    "code_from_json",
]

@dataclass(frozen=True)
class Code:
    """An ((n, K)) code: a frame, its register's per-site dimensions, and stabilizer
    generators S with S F = lambda F, lambda a unit; the kernel reads only their bits."""

    frame: Frame
    qudit_dims: tuple[int, ...]
    stabilizers: tuple[PauliString, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qudit_dims", tuple(int(d) for d in self.qudit_dims))
        if (prod := math.prod(self.qudit_dims)) != self.frame.N:
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

    @cached_property
    def _blocks(self) -> _PauliBlocks:
        """The frame's Pauli block kernel, built on first use and kept with the code."""
        return _PauliBlocks(self.frame, self.stabilizers)


def stabilizer_code(generators: Sequence[PauliString], seeds: Sequence[int]) -> Code:
    """The code with columns P|seeds[k]>, normalised, where P is the product of (1 + g)/2
    over commuting Hermitian Paulis g, its ``stabilizers`` (Gottesman, quant-ph/9705052).

    Factor g adds i^p (-1)^{|r & z|} times row r's amplitude to row r ^ x.  Row i
    of seed b is b ^ V_i: V_i XORs the X parts, among those that made new rows,
    picked by the bits of i; so r ^ x is row i ^ m if x = V_m, else a new row.
    The amplitudes stay Gaussian integers of one modulus, or all vanish
    (ValueError names the seed and g), so a column is amp / |amp| / sqrt(R),
    exactly.  R <= 2^(generators with an X part) is bounded before any row is made.
    """
    gens = tuple(generators)
    if not len(seeds) or len({g.n for g in gens}) != 1 or any(g.dagger() != g for g in gens):
        raise ValueError("need seeds, and Hermitian generators all on the same qubits")
    if not all(g.commutes_with(h) for g, h in itertools.combinations(gens, 2)):
        raise ValueError("stabilizer generators must commute")
    n, k = gens[0].n, len(seeds)
    rows_per_seed = 2 ** sum(g.x_bits != 0 for g in gens)
    check_dense_size(k * rows_per_seed * (8 + 16 * k), "the support rows of a stabilizer code")
    rows = np.array(seeds, dtype=np.int64)[:, None]  # rows[k, i] is row i of seed k
    amp = np.ones(rows.shape, dtype=complex)
    for g in gens:
        image = _UNITS[g.phase_exp] * _SIGNS[np.bitwise_count(rows & g.z_bits) & 1] * amp
        if (m := np.flatnonzero(rows[0] == rows[0, 0] ^ g.x_bits)).size:
            amp = amp + image[:, np.arange(rows.shape[1]) ^ m[0]]
        else:
            rows, amp = np.hstack([rows, rows ^ g.x_bits]), np.hstack([amp, image])
        if (dead := np.flatnonzero(~amp.any(axis=1))).size:
            raise ValueError(f"seed {seeds[dead[0]]} is killed by the generator {g!r}")
    r = rows.shape[1]
    amp = amp / np.abs(amp) / np.sqrt(r) + 0.0  # + 0.0: a -0.0 part would change code_to_json
    order = np.argsort(rows, axis=None)
    rows, amp = rows.ravel()[order], amp.ravel()[order]
    if np.any(rows[1:] == rows[:-1]):
        raise ValueError(f"seeds {tuple(seeds)} put two columns on one codeword")
    vals = np.zeros((rows.size, k), dtype=complex)
    vals[np.arange(rows.size), order // r] = amp
    return Code(Frame.from_rows(1 << n, rows, vals), (2,) * n, gens)


@dataclass(frozen=True)
class CorrectionReport:
    correctable: bool
    f_matrix: np.ndarray | None
    witness: tuple[int, int] | None
    max_deviation: float


@dataclass(frozen=True)
class DistanceResult:
    delta: int | None
    lower_bound: int
    witness: PauliString | None


class NotLogicalError(ValueError):
    def __init__(self, residual: float):
        super().__init__(f"unitary does not preserve the codespace (residual {residual:.3e})")
        self.residual = residual


# Working-set bound of the block kernel on an R-row, K-column frame: one step
# signs _CHUNK_BYTES // (16 R K) copies of the K x R block F^dagger, one per
# Pauli, across as many x as those Paulis hold; a scan hands the kernel
# _CHUNK_BYTES // (16 R) Paulis at a time, whose row lookup (24 bytes per
# distinct x and row) holds at most 1.5 times that bound.  The generator test
# adds 16 bytes per Pauli and generator: g < R / 4 for every code built here.
_CHUNK_BYTES = 8 * 2**20
# i^k for k = 0..3, and (-1)^k for k = 0, 1
_UNITS = np.array([1, 1j, -1, -1j])
_SIGNS = np.array([1.0, -1.0])


class _PauliBlocks:
    """Blocks B = F^dagger X^x Z^z F over the frame's support rows (exact).

    B[i,j] = sum_m conj(F[m,i]) (-1)^{popcount((m^x)&z)} F[m^x, j], and only
    rows m in the support contribute.  F[m^x] is found by binary search of
    m^x in the sorted support rows; a row off the support points at one
    padded zero row.  The padded block, the contiguous F^dagger and the
    code's generators are fixed per frame;
    ``Code._blocks`` builds them once per code, and checks that each
    generator S has S F = lambda F exactly for a unit lambda, or raises
    ValueError naming S.

    A Pauli with an odd symplectic product popcount((x & gz) ^ (z & gx))
    with some generator has B = lambda^-1 F^dagger P S F = -B = 0; it is
    dropped before any other work.  When X^x maps no support row onto the
    support, every block with that x is exactly zero and nothing is
    gathered; for a toric frame that is most x.

    The other Paulis are taken in order of x, ``chunk`` per ``_step``.  A
    step folds each Pauli's sign (-1)^{|m&z|} (-1)^{|x&z|} into its own copy
    of F^dagger, which is exact, and multiplies each run of equal x by that
    x's rows, gathered once: a narrow frame spans many x in one step, a wide
    one gathers once per x.  Callers pass ``width`` Paulis per call.  x and
    z are held as int64, so n > 62 is refused; the correction condition's
    product keys cap n at 32.
    """

    def __init__(self, frame: Frame, stabilizers: Sequence[PauliString] = ()):
        self.n = frame.N.bit_length() - 1
        if self.n > 62:
            raise ValueError(f"Pauli bit masks are int64; n = {self.n} qubits is too many")
        for s in stabilizers:
            image = apply_pauli(s, frame)
            if not np.array_equal(image.rows, frame.rows) or not any(
                np.array_equal(image.vals, u * frame.vals) for u in _UNITS
            ):
                raise ValueError(f"{s!r} does not fix the code's frame up to a unit")
        self.gx = np.array([s.x_bits for s in stabilizers], dtype=np.int64)
        self.gz = np.array([s.z_bits for s in stabilizers], dtype=np.int64)
        self.rows = frame.rows
        self.padded = np.vstack([frame.vals, np.zeros((1, frame.K), dtype=complex)])
        self.left = np.ascontiguousarray(frame.vals.conj().T)

    @property
    def width(self) -> int:
        return max(1, _CHUNK_BYTES // (16 * self.rows.size))

    def blocks(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The (c, K, K) blocks of X^x[i] Z^z[i] for int64 arrays x, z of length c."""
        k, r = self.left.shape
        chunk = max(1, _CHUNK_BYTES // (16 * r * k))
        out = np.zeros((x.size, k, k), dtype=complex)
        odd = x[:, None] & self.gz  # the symplectic product with each generator
        odd ^= z[:, None] & self.gx
        keep = np.flatnonzero(~(np.bitwise_count(odd) & 1).any(axis=1))
        xs, inverse = np.unique(x[keep], return_inverse=True)
        want = self.rows ^ xs[:, None]
        at = np.searchsorted(self.rows, want)
        at[self.rows.take(at, mode="clip") != want] = r  # off the support: the zero row
        todo = np.flatnonzero((at < r).any(axis=1)[inverse])
        todo = todo[np.argsort(inverse[todo], kind="stable")]
        for lo in range(0, todo.size, chunk):
            part = todo[lo : lo + chunk]
            i = keep[part]
            out[i] = self._step(x[i], z[i], at, inverse[part])
        return out

    def _step(self, x: np.ndarray, z: np.ndarray, at: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The blocks of X^x[i] Z^z[i], sorted by x, whose x gathers the rows at[u[i]]."""
        par = np.bitwise_count(self.rows & z[:, None])  # |(m^x)&z| = |m&z| + |x&z| mod 2
        par += np.bitwise_count(x & z)[:, None]
        signed = self.left * (1 - 2 * (par & 1).view(np.int8)).astype(float)[:, None, :]
        cuts = np.flatnonzero(u[1:] != u[:-1]) + 1
        k = self.left.shape[0]
        out = np.empty((x.size, k, k), dtype=complex)
        for i, j in zip([0, *cuts], [*cuts, x.size]):
            out[i:j] = signed[i:j] @ self.padded.take(at[u[i]], axis=0)
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

    Keyed by x << n | z as uint64, so 2n <= 64, and kept sorted, 8 + 16 K^2
    bytes per product; new keys go through the kernel once.
    """

    def __init__(self, kernel: _PauliBlocks):
        if 2 * kernel.n > 64:
            raise ValueError(f"product keys are uint64; n = {kernel.n} qubits is too many")
        self.kernel = kernel
        self.keys = np.empty(0, dtype=np.uint64)
        k = kernel.left.shape[0]
        self.blocks = np.empty((0, k, k), dtype=complex)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.blocks.nbytes

    def __call__(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        n = self.kernel.n
        keys = x.astype(np.uint64) << n | z.astype(np.uint64)
        at = np.searchsorted(self.keys, keys)
        seen = at < self.keys.size
        seen[seen] = self.keys[at[seen]] == keys[seen]
        if not seen.all():
            new = np.unique(keys[~seen])
            hi, lo = new >> n, new & ((1 << n) - 1)
            blocks = self.kernel.blocks(hi.astype(np.int64), lo.astype(np.int64))
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
    products = _Products(code._blocks)
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
    kernel = code._blocks
    for w in range(1, max_weight + 1):
        for x, z in _weight_class(code.n, w, kernel.width):
            hit = np.flatnonzero(_scalar_part(kernel.blocks(x, z))[1] >= tol)
            if hit.size:
                xw, zw = int(x[hit[0]]), int(z[hit[0]])
                return DistanceResult(w, w, PauliString(code.n, xw, zw, (xw & zw).bit_count()))
    return DistanceResult(None, max_weight + 1, None)


def logical_action(code: Code, u: PauliString, tol: float = 1e-9) -> np.ndarray:
    """M = F^dagger U F for a Pauli U, valid only when U preserves the codespace.

    Raises NotLogicalError carrying ||(1 - P) U F|| otherwise; reads support rows only.
    """
    _, (f, g) = common_rows(code.frame, apply_pauli(u, code.frame))
    m = f.conj().T @ g
    residual = float(np.linalg.norm(g - f @ m))
    if np.max(np.abs(m.conj().T @ m - np.eye(code.K))) >= tol:
        raise NotLogicalError(residual)
    return m


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
    if missing := {"qudit_dims", "K", "frame"} - set(doc if isinstance(doc, dict) else ()):
        raise ValueError(f"code JSON lacks {', '.join(map(repr, sorted(missing)))}")
    dims, k = doc["qudit_dims"], doc["K"]
    if not isinstance(dims, list) or not all(type(d) is int and d > 0 for d in dims):
        raise ValueError("code JSON 'qudit_dims' must be a list of positive ints")
    if type(k) is not int:
        raise ValueError("code JSON 'K' must be an int")
    try:
        flat = np.array([complex(re, im) for re, im in doc["frame"]])
    except (TypeError, ValueError):
        raise ValueError("code JSON 'frame' must be a list of [re, im] pairs") from None
    return Code(Frame(flat.reshape(math.prod(dims), k)), dims)
