"""Error-set generators: bounded-weight Paulis and geometrically local clusters.

Both generators include the identity first and enumerate deterministically:
by weight, then support lexicographically, then the 3^w letters on each
support.  ``squdit_errors`` orders the letters X < Y < Z per site with the
first site slowest; ``geolocal_errors`` orders them by (x mask, z mask).
Both find their supports eagerly, so the length and every refusal
(``EnumerationCapError`` included) come at the call, and return an ErrorSet
that expands the letters on its supports with ``pauli_bits`` only as far as
it is read: a fail-fast correction scan expands about as many errors as it
reads.  ``geolocal_errors`` works on its disks, their unions and their
subsets as numpy arrays of int64 site masks, in batches bounded by the
enumeration cap.  A PauliString is built only when a caller indexes or
iterates the set.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .pauli import LocalOperator, PauliString

__all__ = [
    "ErrorSet",
    "squdit_errors",
    "GeoLattice",
    "geolocal_errors",
    "conjugated_error_set",
    "EnumerationCapError",
]

# (x bit, z bit) of the letters X, Y, Z
_LETTER_BITS = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int64)

DEFAULT_ENUMERATION_CAP = 10**6
_UNION_BATCH = 4096  # disk-index combinations OR-reduced at a time


class EnumerationCapError(RuntimeError):
    def __init__(self, projected: int, cap: int):
        super().__init__(
            f"error-set enumeration would produce ~{projected} operators, over the cap {cap}"
        )
        self.projected = projected
        self.cap = cap


class ErrorSet:
    """An ordered set of n-qubit Pauli errors with the identity first.

    Error a is i^phase[a] X^x[a] Z^z[a].  ``ErrorSet(paulis)`` builds one
    from PauliStrings and ``ErrorSet.from_bits(n, x, z)`` from bit masks;
    both hold their arrays from the start.  The generators build sets that
    know their length from their supports and expand the 3^w letters on
    each support only when read: ``prefix(stop)`` expands at least the
    first ``stop`` errors, in whole supports and at least doubling what is
    expanded, and returns their read-only (x, z, phase) arrays, which is how
    the correction condition reads a set.  ``x``, ``z`` and ``phase`` are
    the whole read-only arrays, expanded on first access, and ``len`` expands
    nothing.  Indexing and iteration build PauliStrings on demand.
    """

    __slots__ = ("n", "_size", "_parts", "_x", "_z", "_phase", "_done")

    def __init__(self, paulis: Sequence[PauliString]):
        paulis = tuple(paulis)
        n = paulis[0].n if paulis else 0
        if any(p.n != n for p in paulis):
            raise ValueError("every error of a set must act on the same qubit count")
        x = np.array([p.x_bits for p in paulis], dtype=np.int64)
        z = np.array([p.z_bits for p in paulis], dtype=np.int64)
        self._set(n, x, z, np.array([p.phase_exp for p in paulis], dtype=np.int64))

    @classmethod
    def from_bits(cls, n: int, x, z) -> "ErrorSet":
        """The errors X^x Z^z times i^(number of Y letters), so each letter is Hermitian."""
        es = cls.__new__(cls)
        x, z = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
        es._set(n, x, z, _hermitian_phase(x, z))
        return es

    @classmethod
    def _on_supports(cls, n: int, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> "ErrorSet":
        """The identity, then for each (supports, order) the 3^w Hermitian Paulis with full
        support on each row of the (c, w) site array, letters in ``pauli_bits`` order
        permuted by ``order``; nothing past the identity is expanded yet."""
        _check_qubits(n)
        es = cls.__new__(cls)
        es.n, es._parts, es._size, es._done = n, [], 1, 1
        for supports, order in parts:
            es._parts.append((es._size, supports, order))
            es._size += supports.shape[0] * order.size
        es._x, es._z, es._phase = (np.zeros(es._size, dtype=np.int64) for _ in range(3))
        return es

    def _set(self, n: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> None:
        if x.ndim != 1 or not x.shape == z.shape == phase.shape:
            raise ValueError("need one x, z and phase per error")
        _check_qubits(n)
        if np.any((x | z) >> n):  # a bit at or above n, or a negative mask
            raise ValueError("bit mask exceeds qubit count")
        if not x.size or x[0] or z[0]:
            raise ValueError("error sets must contain the identity (first)")
        for a in (x, z, phase):
            a.setflags(write=False)
        self.n, self._x, self._z, self._phase = n, x, z, phase
        self._size = self._done = x.size
        self._parts = []

    def _expand(self, stop: int) -> None:
        """Expand whole supports until at least ``stop`` errors, and at least twice those
        already expanded (or all of them), are."""
        stop = min(self._size, max(stop, 2 * self._done))
        for start, supports, order in self._parts:
            per = order.size
            if self._done >= stop:
                break
            if self._done >= start + per * supports.shape[0]:
                continue
            i, j = (self._done - start) // per, min(supports.shape[0], -(-(stop - start) // per))
            x, z = (a.reshape(-1, per)[:, order].ravel() for a in pauli_bits(supports[i:j]))
            lo, hi = start + i * per, start + j * per
            self._x[lo:hi], self._z[lo:hi], self._phase[lo:hi] = x, z, _hermitian_phase(x, z)
            self._done = hi
        if self._done == self._size:
            for a in (self._x, self._z, self._phase):
                a.setflags(write=False)

    def prefix(self, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (x, z, phase) arrays of the first ``stop`` errors."""
        if stop > self._done:
            self._expand(stop)
        views = self._x[:stop], self._z[:stop], self._phase[:stop]
        for v in views:
            v.setflags(write=False)
        return views

    @property
    def x(self) -> np.ndarray:
        return self.prefix(self._size)[0]

    @property
    def z(self) -> np.ndarray:
        return self.prefix(self._size)[1]

    @property
    def phase(self) -> np.ndarray:
        return self.prefix(self._size)[2]

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i) -> PauliString:
        i = operator.index(i)
        if not -self._size <= i < self._size:
            raise IndexError(f"error index {i} out of range for {self._size} errors")
        i %= self._size
        x, z, phase = self.prefix(i + 1)
        return PauliString(self.n, int(x[i]), int(z[i]), int(phase[i]))

    def __iter__(self) -> Iterator[PauliString]:
        for xzk in zip(*(a.tolist() for a in self.prefix(self._size))):
            yield PauliString(self.n, *xzk)


def _hermitian_phase(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """i^(number of Y letters): the phase that makes X^x Z^z a product of Hermitian letters."""
    return np.bitwise_count(x & z).astype(np.int64) & 3


def _check_qubits(n: int) -> None:
    if n > 63:
        raise ValueError(f"Pauli bit masks are int64; n = {n} qubits is too many")


def pauli_bits(supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) int64 masks of the 3^w Paulis with full support on each row of a (c, w) site array.

    Rows run in order, then letters X < Y < Z per site with the first site slowest.
    """
    w = supports.shape[1]
    if supports.size and supports.max() > 62:
        raise ValueError(f"Pauli bit masks are int64; site {supports.max()} is too high")
    letters = np.array(list(itertools.product(range(3), repeat=w)), dtype=np.intp)
    letters = _LETTER_BITS[letters.reshape(3**w, w)]
    bits = np.left_shift(1, supports.astype(np.int64))
    # the sites of a row are distinct, so summing their bits sets each one
    return (bits @ letters[..., 0].T).ravel(), (bits @ letters[..., 1].T).ravel()


def squdit_errors(n: int, s: int) -> ErrorSet:
    """All Pauli strings of weight <= s, identity included, expanded when read.

    Size is sum_{w<=s} C(n, w) 3^w.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    parts = [
        (np.array(list(itertools.combinations(range(n), w)), dtype=np.int64), np.arange(3**w))
        for w in range(1, s + 1)
    ]
    return ErrorSet._on_supports(n, parts)


@dataclass(frozen=True)
class GeoLattice:
    """Sites at fixed positions on a period-L torus with the wrapped L1 metric.

    Positions may be fractional (e.g. edge midpoints of a toric layout).
    """

    L: int
    positions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("lattice period must be at least 2")

    @property
    def n(self) -> int:
        return len(self.positions)

    def site_distance(self, i: int, j: int) -> float:
        (x1, y1), (x2, y2) = self.positions[i], self.positions[j]
        dx = abs(x1 - x2) % self.L
        dy = abs(y1 - y2) % self.L
        return min(dx, self.L - dx) + min(dy, self.L - dy)

    @classmethod
    def toric_edges(cls, L: int) -> "GeoLattice":
        """Edge midpoints of the L x L periodic square lattice, matching the
        edge indexing used by the toric module (horizontal first, x fastest)."""
        pos = [(x + 0.5, float(y)) for y in range(L) for x in range(L)]
        pos += [(float(x), y + 0.5) for y in range(L) for x in range(L)]
        return cls(L, tuple(pos))


def geolocal_errors(
    lat: GeoLattice, s: int, t: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> ErrorSet:
    """All Paulis supported on unions of <= s clusters of diameter <= t.

    Clusters are disks in the wrapped lattice metric, centered on sites, of
    radius t/2; each is an int64 mask of its sites, read off one distance
    matrix.  The unions of k <= s distinct disks are OR-reduced from batches
    of disk-index combinations and deduplicated in first-seen order; each adds
    4^|union| to the projected size, and the enumeration refuses with
    ``EnumerationCapError`` at the first union that takes it past ``cap``.
    The supports (every non-empty subset of a union, counted once) are put
    in (weight, sites) order, and the 3^w Paulis on a weight-w support in
    (x mask, z mask) order: a permutation that depends on w alone, so it is
    found once per weight on the support (0, ..., w-1).  The letters are
    expanded when the set is read (``ErrorSet.prefix``).
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if t < 1:
        raise ValueError("cluster diameter t must be at least 1")
    n = lat.n
    if n > 63:
        raise ValueError(f"geolocal site masks are int64 and hold at most 63 sites, not {n}")
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    pos = np.array(lat.positions, dtype=float).reshape(n, 2)
    d = np.abs(pos[:, None, :] - pos[None, :, :]) % lat.L
    d = np.minimum(d, lat.L - d)
    inside = d[..., 0] + d[..., 1] <= t / 2 + 1e-9
    masks = np.bitwise_or.reduce(np.where(inside, bits, 0), axis=1)
    disks = masks[np.sort(np.unique(masks, return_index=True)[1])]

    projected = 0
    unions = np.zeros(0, dtype=np.int64)  # sorted
    for k in range(1, min(s, disks.size) + 1):
        combos = itertools.combinations(range(disks.size), k)
        while (idx := np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _UNION_BATCH)), dtype=np.intp
        )).size:
            u = np.bitwise_or.reduce(disks[idx.reshape(-1, k)], axis=1)
            u = u[np.sort(np.unique(u, return_index=True)[1])]
            u = u[~np.isin(u, unions, assume_unique=True)]
            weights = np.bitwise_count(u)
            added = sum(c * 4**w for w, c in enumerate(np.bincount(weights).tolist()))
            if projected + added > cap:
                for w in weights.tolist():
                    projected += 4**w
                    if projected > cap:
                        raise EnumerationCapError(projected, cap)
            projected += added
            unions = np.union1d(unions, u)

    # every non-empty subset of each union, as rows of sorted sites per weight;
    # the cap bounds these arrays too, since sum 2^|u| <= sum 4^|u| <= cap
    subsets: dict[int, list[np.ndarray]] = {}
    weights = np.bitwise_count(unions)
    for size in np.unique(weights).tolist():
        sites = np.nonzero(unions[weights == size, None] & bits)[1].reshape(-1, size)
        for w in range(1, size + 1):
            pick = np.array(list(itertools.combinations(range(size), w)), dtype=np.intp)
            subsets.setdefault(w, []).append(sites[:, pick].reshape(-1, w))
    # a support inside several unions is enumerated once: the letters on a
    # support determine the Pauli, so distinct supports give distinct errors
    parts = []
    for w in sorted(subsets):
        rows = np.concatenate(subsets[w])
        rows = rows[np.unique(bits[rows].sum(axis=1), return_index=True)[1]]
        cx, cz = pauli_bits(np.arange(w)[None])
        parts.append((rows[np.lexsort(rows.T[::-1])], np.lexsort((cz, cx))))
    return ErrorSet._on_supports(n, parts)


def conjugated_error_set(
    es: ErrorSet, site_unitaries: Sequence[np.ndarray]
) -> list[LocalOperator]:
    """{U E U^{-1}} for a transversal U given by per-site unitaries.

    Conjugation is sitewise, so every output operator keeps the support of
    its source error.
    """
    if len(site_unitaries) != es.n:
        raise ValueError("need one site unitary per qubit")
    for j, u in enumerate(site_unitaries):
        if np.shape(u) != (2, 2):
            raise ValueError(f"site {j}: factor has shape {np.shape(u)}, need 2 x 2")
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-12:
            raise ValueError("site factors must be unitary")
    return [
        LocalOperator.from_pauli(e).conjugate_by(site_unitaries) for e in es
    ]
