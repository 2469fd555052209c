"""Error-set generators: bounded-weight Paulis and geometrically local clusters.

Both generators include the identity and enumerate deterministically (weight,
then support lexicographically, then letters X < Y < Z per site).  They fill
an ErrorSet's (x, z, phase) int64 arrays straight from ``pauli_bits``; a
PauliString is built only when a caller indexes or iterates the set.
"""

from __future__ import annotations

import functools
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


class EnumerationCapError(RuntimeError):
    def __init__(self, projected: int, cap: int):
        super().__init__(
            f"error-set enumeration would produce ~{projected} operators, over the cap {cap}"
        )
        self.projected = projected
        self.cap = cap


class ErrorSet:
    """An ordered set of n-qubit Pauli errors with the identity first.

    Error a is i^phase[a] X^x[a] Z^z[a], stored as read-only int64 arrays
    ``x``, ``z`` and ``phase``; the correction condition reads them as they
    are.  ``ErrorSet(paulis)`` builds one from PauliStrings and
    ``ErrorSet.from_bits(n, x, z)`` from bit masks.  Indexing and iteration
    build PauliStrings on demand.
    """

    __slots__ = ("n", "x", "z", "phase")

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
        es._set(n, x, z, np.bitwise_count(x & z).astype(np.int64) & 3)
        return es

    def _set(self, n: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> None:
        if x.ndim != 1 or not x.shape == z.shape == phase.shape:
            raise ValueError("need one x, z and phase per error")
        if n > 63:
            raise ValueError(f"Pauli bit masks are int64; n = {n} qubits is too many")
        if np.any((x | z) >> n):  # a bit at or above n, or a negative mask
            raise ValueError("bit mask exceeds qubit count")
        if not x.size or x[0] or z[0]:
            raise ValueError("error sets must contain the identity (first)")
        for a in (x, z, phase):
            a.setflags(write=False)
        self.n, self.x, self.z, self.phase = n, x, z, phase

    def __len__(self) -> int:
        return self.x.size

    def __getitem__(self, i) -> PauliString:
        i = operator.index(i)
        return PauliString(self.n, int(self.x[i]), int(self.z[i]), int(self.phase[i]))

    def __iter__(self) -> Iterator[PauliString]:
        for xzk in zip(self.x.tolist(), self.z.tolist(), self.phase.tolist()):
            yield PauliString(self.n, *xzk)


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
    """All Pauli strings of weight <= s, identity included.

    Size is sum_{w<=s} C(n, w) 3^w.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    x, z = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    for w in range(1, s + 1):
        supports = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
        xw, zw = pauli_bits(supports)
        x.append(xw)
        z.append(zw)
    return ErrorSet.from_bits(n, np.concatenate(x), np.concatenate(z))


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
    radius t/2.  The enumeration deduplicates across overlapping disk
    choices and refuses up front when the projected size exceeds ``cap``.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if t < 1:
        raise ValueError("cluster diameter t must be at least 1")
    n = lat.n
    # each disk as the bit mask of its sites; unique disks only, in first-seen order
    disks = list(dict.fromkeys(
        sum(1 << q for q in range(n) if lat.site_distance(c, q) <= t / 2 + 1e-9) for c in range(n)
    ))

    projected = 0
    unions: dict[int, None] = {}
    for k in range(1, s + 1):
        for combo in itertools.combinations(disks, k):
            u = functools.reduce(operator.or_, combo)
            if u in unions:
                continue
            unions[u] = None
            projected += 4 ** u.bit_count()
            if projected > cap:
                raise EnumerationCapError(projected, cap)

    # a support inside several unions is enumerated once: the letters on a
    # support determine the Pauli, so distinct supports give distinct errors.
    # Sorting the supports by (weight, support) and each support's letters
    # by (x_bits, z_bits) orders the errors by (weight, support, x, z).
    supports: set[tuple[int, ...]] = set()
    for u in unions:
        sites = [q for q in range(n) if u >> q & 1]
        for w in range(1, len(sites) + 1):
            supports.update(itertools.combinations(sites, w))
    x, z = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    for w, group in itertools.groupby(sorted(supports, key=lambda s: (len(s), s)), key=len):
        xw, zw = pauli_bits(np.array(list(group), dtype=np.int64))
        order = np.lexsort((zw, xw, np.arange(xw.size) // 3**w))
        x.append(xw[order])
        z.append(zw[order])
    return ErrorSet.from_bits(n, np.concatenate(x), np.concatenate(z))


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
