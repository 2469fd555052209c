"""Codes as frames: stabilizer-code builds, correction condition, distance, and logical actions.

A code is a point of the Grassmannian of K-planes carried by an explicit
frame (encoding); ``stabilizer_code`` builds one from Pauli generators and
seeds, exactly.  Correctability of an error set {E_a} is the constant-block
condition: every B^{ab} = F^dagger E_a^dagger E_b F must be a scalar multiple
of the identity on the logical space.  Distance is the least weight of a
Pauli violating that condition for the single-operator set {P}.

Both scans evaluate Pauli blocks with one batched kernel over the frame's
support rows.  A block is exactly zero, and never gathered, when the Pauli
anticommutes with one of the code's stabilizer generators (its syndrome,
one int64 mask read off a 256-entry table per byte of x and of z, is not
0) or its X part maps no support row onto the support.  Each scan finds
each item's syndrome once: distance hands the kernel only the Paulis of
syndrome 0, and the correction condition takes each error as its exact
Pauli expansion, finds each term's syndrome as it reads the term, pairs
only terms of equal syndrome, whose product commutes with every generator,
and evaluates each distinct product once per run.  With one
unit-coefficient term per error it scores the distinct products and reads
each pair's f and deviation off them.  The kernel bounds its own working
set (``_CHUNK_BYTES``) for any number of Paulis; both scans hand it runs
that start at 2 048 items and grow with the scan to about ``_CHUNK_BYTES``
of K x K blocks, the correction condition reads a lazy ErrorSet only as
far as its runs reach, and it keeps one f value per pair passed.  Both run
on one thread; ``distance(threads=)`` is accepted and unused.
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
from .pauli import _UNITS, PauliString, apply_pauli, pauli_term_table

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


# Working-set bound of the block kernel on an R-row, K-column frame: its row
# lookup holds 24 bytes per row for at most _CHUNK_BYTES // (24 R) distinct x
# at a time, and one step signs _CHUNK_BYTES // (16 R K) copies of the K x R
# block F^dagger, one per Pauli.  A scan's run holds about _CHUNK_BYTES of
# K x K blocks, 16 K^2 bytes per Pauli or term pair.
_CHUNK_BYTES = 8 * 2**20
# A scan's first run holds _FIRST_RUN Paulis or term pairs, and each later
# one as many as were scanned before it, up to the run budget: a witness met
# early costs little, and a long scan makes few calls.  A run costs about
# 0.2 ms before its first item, an item of syndrome 0 a few microseconds:
# over the benchmark's scan questions 2 048 took a tenth less time than 512,
# and 4 096 a little less again but more on the slowest question.
_FIRST_RUN = 2048
# A Pauli's syndrome is one int64 mask, a bit per stabilizer generator
_SYNDROME_BITS = 64
# (-1)^k for k = 0, 1
_SIGNS = np.array([1.0, -1.0])


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:  # a NaN fails too
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _run_size(done: int, k: int) -> int:
    """The items of a scan's next run, ``done`` items in, on a K = k frame."""
    return min(max(1, _CHUNK_BYTES // (16 * k * k)), max(_FIRST_RUN, done))


class _PauliBlocks:
    """Blocks B = F^dagger X^x Z^z F over the frame's support rows (exact).

    B[i,j] = sum_m conj(F[m,i]) (-1)^{popcount((m^x)&z)} F[m^x, j], and only
    rows m in the support contribute.  F[m^x] is found by binary search of
    m^x in the sorted support rows; a row off the support points at one
    padded zero row.  The padded block, the contiguous F^dagger and the
    generators' syndrome tables are fixed per frame;
    ``Code._blocks`` builds them once per code, and checks that each
    generator S has S F = lambda F exactly for a unit lambda, read off one
    stored entry, or raises ValueError naming S.  More generators than the
    64 bits of a syndrome mask are refused.

    A Pauli with an odd symplectic product popcount((x & gz) ^ (z & gx))
    with some generator has B = lambda^-1 F^dagger P S F = -B = 0; those
    parities are the bits of its ``syndromes`` mask.  The mask is linear in
    the bits of x and z, so it is the XOR of one 256-entry table lookup per
    byte of x and of z (at most 2 x 8 tables, built with the kernel).
    ``blocks`` drops a Pauli whose mask is not 0 before any other work;
    ``live_blocks`` takes Paulis whose masks the caller has found 0, as the
    scans do, each Pauli or term tested once.  When X^x maps no support row
    onto the support, every block with that x is exactly zero and nothing
    is gathered; for a toric frame that is most x.

    The other Paulis are taken in order of x: their distinct x are looked
    up a group at a time (``_CHUNK_BYTES`` of lookup), and each group's live
    Paulis ``chunk`` per ``_step``.  A step folds each Pauli's sign
    (-1)^{|m&z|} (-1)^{|x&z|} into its own copy of F^dagger, which is exact,
    and multiplies each run of equal x by that x's rows, gathered once: a
    narrow frame spans many x in one step, a wide one gathers once per x.
    Both take any number of Paulis and bound their own working set.
    x and z are held as int64, so n > 62 is refused; the correction
    condition's product keys cap n at 32.
    """

    def __init__(self, frame: Frame, stabilizers: Sequence[PauliString] = ()):
        self.n = frame.N.bit_length() - 1
        if self.n > 62:
            raise ValueError(f"Pauli bit masks are int64; n = {self.n} qubits is too many")
        if len(stabilizers) > _SYNDROME_BITS:
            raise ValueError(
                f"{len(stabilizers)} stabilizer generators; an int64 syndrome mask "
                f"holds {_SYNDROME_BITS}"
            )
        flat = frame.vals.ravel()
        at = int(np.argmax(flat != 0))  # one stored entry picks the unit
        for s in stabilizers:
            image = apply_pauli(s, frame)
            fixed = np.array_equal(image.rows, frame.rows)
            if fixed:
                u = next((u for u in _UNITS if u * flat[at] == image.vals.flat[at]), None)
                fixed = u is not None and np.array_equal(image.vals, u * frame.vals)
            if not fixed:
                raise ValueError(f"{s!r} does not fix the code's frame up to a unit")
        gx = np.array([s.x_bits for s in stabilizers], dtype=np.int64)
        gz = np.array([s.z_bits for s in stabilizers], dtype=np.int64)
        bit = np.left_shift(1, np.arange(gx.size, dtype=np.int64))
        # tables[0, b, v] and tables[1, b, v]: the masks of X^x and of Z^z, x = z = v << 8b
        v = np.arange(256, dtype=np.int64) << 8 * np.arange(-(-self.n // 8))[:, None]
        self.tables = np.stack([(np.bitwise_count(v[..., None] & g) & 1) @ bit for g in (gz, gx)])
        self.rows = frame.rows
        self.padded = np.vstack([frame.vals, np.zeros((1, frame.K), dtype=complex)])
        self.left = np.ascontiguousarray(frame.vals.conj().T)

    def blocks(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The (c, K, K) blocks of X^x[i] Z^z[i] for int64 arrays x, z of length c."""
        k = self.left.shape[0]
        out = np.zeros((x.size, k, k), dtype=complex)
        live = np.flatnonzero(self.syndromes(x, z) == 0)
        out[live] = self.live_blocks(x[live], z[live])
        return out

    def live_blocks(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``blocks`` of Paulis whose syndromes are 0, which is not tested again."""
        k, r = self.left.shape
        chunk = max(1, _CHUNK_BYTES // (16 * r * k))
        group = max(1, _CHUNK_BYTES // (24 * r))
        out = np.zeros((x.size, k, k), dtype=complex)
        xs, inverse = np.unique(x, return_inverse=True)
        keep = np.argsort(inverse, kind="stable")
        inverse = inverse[keep]
        ends = np.searchsorted(inverse, np.arange(0, xs.size + group, group))
        for g, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
            want = self.rows ^ xs[g * group : (g + 1) * group, None]
            at = np.searchsorted(self.rows, want)
            at[self.rows.take(at, mode="clip") != want] = r  # off the support: the zero row
            u = inverse[lo:hi] - g * group
            todo = np.flatnonzero((at < r).any(axis=1)[u])
            for j in range(0, todo.size, chunk):
                part = todo[j : j + chunk]
                i = keep[lo + part]
                out[i] = self._step(x[i], z[i], at, u[part])
        return out

    def syndromes(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """One int64 mask per Pauli X^x[i] Z^z[i]: bit g is the parity of its symplectic
        product with generator g, so the product of two Paulis has the XOR of their masks."""
        out = np.zeros(x.size, dtype=np.int64)
        for b, (tx, tz) in enumerate(self.tables.transpose(1, 0, 2)):
            out ^= tx[x >> 8 * b & 255]
            out ^= tz[z >> 8 * b & 255]
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


def _pauli_terms(errors, kernel: _PauliBlocks):
    """(ends, read, units): rows ends[a]..ends[a+1]-1 of the term table hold the
    pauli_terms c X^x Z^z of error a, ``read(stop)`` gives (x, z, c, s) of at
    least its first ``stop`` rows, s each term's ``kernel.syndromes`` mask, and
    ``units`` says that every c is 1, i, -1 or -i.

    An ErrorSet is one term i^phase X^x Z^z per error, read through
    ``ErrorSet.prefix``, so a lazy set is expanded, and its masks found,
    only as far as the scan reads, each term's once.  Any other iterable is
    taken as PauliStrings and LocalOperators, expanded by ``pauli_term_table``.
    """
    if isinstance(errors, ErrorSet):
        syndromes, known = np.empty(len(errors), dtype=np.int64), 0

        def read(stop):
            nonlocal known
            x, z, phase = errors.prefix(stop)
            if known < stop:
                syndromes[known:stop] = kernel.syndromes(x[known:], z[known:])
                known = stop
            return x, z, _UNITS[phase], syndromes

        return np.arange(len(errors) + 1), read, True
    x, z, c, ends = pauli_term_table(errors)
    terms = x, z, c, kernel.syndromes(x, z)
    return ends, lambda stop: terms, bool(np.isin(c, _UNITS).all())


def _pair_scores(kernel: _PauliBlocks, ta, tb, ea, eb, units: bool):
    """(f, deviation) of every pair of a run's errors a and b, a-major.

    ``ta`` and ``tb`` are the (x, z, c, syndrome) terms of the run's errors
    a and of its errors b, and ``ea`` and ``eb`` each error's first term in
    them, then their count.  Only term pairs with equal syndromes are keyed,
    deduplicated and evaluated, once per distinct product: the product of
    any other pair anticommutes with a generator, so its block is 0.
    """
    (xa, za, ca, sa), (xb, zb, cb, sb) = ta, tb
    ia, ib = np.nonzero(sa[:, None] == sb)
    n, k = kernel.n, kernel.left.shape[0]
    keys = (xa[ia] ^ xb[ib]).astype(np.uint64) << n | (za[ia] ^ zb[ib]).astype(np.uint64)
    keys, inverse = np.unique(keys, return_inverse=True)
    x, z = (keys >> n).astype(np.int64), (keys & ((1 << n) - 1)).astype(np.int64)
    blocks = kernel.live_blocks(x, z)
    # (c_s X^x_s Z^z_s)^dagger c_t X^x_t Z^z_t is conj(c_s) c_t
    # (-1)^{|x_s & z_s| + |z_s & x_t|} X^{x_s ^ x_t} Z^{z_s ^ z_t}
    left = ca.conj() * _SIGNS[np.bitwise_count(xa & za) & 1]
    pairs = xa.size * xb.size
    single = pairs == (ea.size - 1) * (eb.size - 1)  # every error of the run is one term
    if single and units:  # f = coef f_key and the deviation is the key's, exactly
        coef = left[ia] * cb[ib] * _SIGNS[np.bitwise_count(za[ia] & xb[ib]) & 1]
        f_key, dev_key = _scalar_part(blocks)
        f, dev = np.zeros(pairs, dtype=complex), np.zeros(pairs)
        live = ia * xb.size + ib
        f[live], dev[live] = coef * f_key[inverse], dev_key[inverse]
        return f, dev
    out = np.zeros((xa.size, xb.size, k, k), dtype=complex)
    out[ia, ib] = blocks[inverse]
    del blocks
    coef = left[:, None] * cb * _SIGNS[np.bitwise_count(za[:, None] & xb) & 1]
    np.multiply(coef[..., None, None], out, out=out)
    if not single:  # sum each pair's term blocks: over the terms of b, then over those of a
        out = np.add.reduceat(out, eb[:-1], axis=1)
        out = np.add.reduceat(out, ea[:-1], axis=0)
    return _scalar_part(out.reshape(-1, k, k))


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
    symplectic product is bilinear, so a product anticommutes with some
    stabilizer generator exactly when its two terms' syndromes differ; those
    term pairs give 0 and are never keyed (Gottesman, quant-ph/9705052).
    Each run keys its other products as x << n | z in uint64, so n <= 32,
    and the kernel evaluates each distinct one once.  When every error of
    a run is one term with a unit coefficient (any ErrorSet), each pair's f
    is its coefficient times its product's f, and its deviation is the
    product's, exactly; no per-pair block is formed.  Runs of other errors
    sum each pair's term blocks before scoring them.

    Pairs are scanned in runs of consecutive a * m + b holding at most
    ``_run_size`` term pairs: 2 048 first, then as many as were scanned,
    up to about ``_CHUNK_BYTES`` of K x K blocks.  A run is as many whole
    rows as fit, or a row too wide for that in chunks of columns, and an
    ErrorSet is read (and a lazy one expanded) only up to the last error
    of the run.  Each term's syndrome is found once per scan, as it is read.

    Memory grows with the scan by 16 bytes per pair passed.  Once that
    would pass the dense bound, DenseSizeError is raised; a set that fails
    earlier still returns its witness.  The m x m ``f_matrix`` is stacked
    only when every pair has passed.  A ``tol`` that is not finite and
    positive is refused.
    """
    _check_tol(tol)
    kernel, k = code._blocks, code.K
    if 2 * kernel.n > 64:
        raise ValueError(f"product keys are uint64; n = {kernel.n} qubits is too many")
    ends, read, units = _pauli_terms(errors, kernel)
    m = ends.size - 1

    f_runs = [np.empty(0, dtype=complex)]
    a = b = done = 0
    while a < m:
        size = _run_size(done, k)
        rows = int(np.searchsorted(ends, ends[a] + size // ends[-1], side="right")) - 1 - a
        if b == 0 and rows > 0:  # as many whole rows as fit
            a1, b1 = a + rows, m
        else:  # one row, in chunks of columns
            a1 = a + 1
            cut = ends[b] + size // (ends[a + 1] - ends[a])
            b1 = min(m, max(b + 1, int(np.searchsorted(ends, cut, side="right")) - 1))
        terms = read(ends[max(a1, b1)])
        ea, eb = ends[a : a1 + 1] - ends[a], ends[b : b1 + 1] - ends[b]
        f, dev = _pair_scores(
            kernel, [t[ends[a] : ends[a1]] for t in terms],
            [t[ends[b] : ends[b1]] for t in terms], ea, eb, units,
        )
        done += ea[-1] * eb[-1]
        bad = np.flatnonzero(dev >= tol)
        if bad.size:
            i, j = divmod(int(bad[0]), b1 - b)
            return CorrectionReport(False, None, (a + i, b + j), float(dev[bad[0]]))
        f_runs.append(f)
        a, b = (a1, 0) if b1 == m else (a, b1)
        check_dense_size(16 * (a * m + b), f"f values of the first {a * m + b} pairs of {m} errors")
    return CorrectionReport(True, np.concatenate(f_runs).reshape(m, m), None, 0.0)


def _weight_class(n: int, w: int, k: int):
    """(x, z) arrays of every weight-w Pauli in squdit_errors order, in runs of ``_run_size``."""
    combos, done = itertools.combinations(range(n), w), 0
    while batch := list(itertools.islice(combos, max(1, _run_size(done, k) // 3**w))):
        done += len(batch) * 3**w
        yield pauli_bits(np.array(batch, dtype=np.int64))


def distance(
    code: Code, max_weight: int, tol: float = 1e-8, threads: int = 1
) -> DistanceResult:
    """Brute-force distance by weight-ordered Pauli enumeration.

    Tests every Pauli of weight 1..max_weight against the constant-block
    condition and returns the least violating weight, or reports the search
    exhausted.  Each weight class goes through the batched block kernel in
    enumeration-order runs of ``_run_size``, and the witness is the first
    violation in that order.  The phase of a Pauli does not change its
    deviation, so the kernel evaluates X^x Z^z, and only for the Paulis of
    syndrome 0: any other has block 0, deviation 0 < tol, and is never the
    witness.  A ``tol`` that is not finite and positive is refused.
    ``threads`` is accepted and unused: the scan runs on one thread, which
    was faster than a thread pool on two cores.
    """
    _check_tol(tol)
    if not code.is_qubit_code:
        raise ValueError("distance enumeration supports qubit codes only")
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be in 1..{code.n}")
    kernel = code._blocks
    for w in range(1, max_weight + 1):
        for x, z in _weight_class(code.n, w, code.K):
            live = np.flatnonzero(kernel.syndromes(x, z) == 0)
            if not live.size:
                continue
            hit = live[_scalar_part(kernel.live_blocks(x[live], z[live]))[1] >= tol]
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
