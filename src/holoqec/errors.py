"""Error-set generators: bounded-weight Paulis and geometrically local clusters.

Both generators include the identity and enumerate deterministically (weight,
then support lexicographically, then letters X < Y < Z per site).
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class ErrorSet:
    """An ordered, identity-containing set of Pauli errors."""

    errors: tuple[PauliString, ...]

    def __post_init__(self):
        if not self.errors or self.errors[0].weight != 0:
            raise ValueError("error sets must contain the identity (first)")

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.errors)

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        return self.errors[i]

    @property
    def n(self) -> int:
        return self.errors[0].n

    def to_labels(self) -> list[str]:
        return [e.to_label() for e in self.errors]


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


def _pauli_strings(n: int, x: np.ndarray, z: np.ndarray) -> list[PauliString]:
    """PauliStrings X^x Z^z times i^(number of Y letters), so each letter is Hermitian."""
    k = np.bitwise_count(x & z)
    return [PauliString(n, *xzk) for xzk in zip(x.tolist(), z.tolist(), k.tolist())]


def squdit_errors(n: int, s: int) -> ErrorSet:
    """All Pauli strings of weight <= s, identity included.

    Size is sum_{w<=s} C(n, w) 3^w.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    out = [PauliString.identity(n)]
    for w in range(1, s + 1):
        supports = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
        out += _pauli_strings(n, *pauli_bits(supports))
    return ErrorSet(tuple(out))


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
    # unique disks only, in first-seen order
    unique_disks = list(dict.fromkeys(
        tuple(q for q in range(n) if lat.site_distance(c, q) <= t / 2 + 1e-9) for c in range(n)
    ))

    projected = 0
    unions: dict[tuple[int, ...], None] = {}
    for k in range(1, s + 1):
        for combo in itertools.combinations(range(len(unique_disks)), k):
            u = tuple(sorted(set(itertools.chain(*(unique_disks[i] for i in combo)))))
            if u in unions:
                continue
            unions[u] = None
            projected += 4 ** len(u)
            if projected > cap:
                raise EnumerationCapError(projected, cap)

    # a support inside several unions is enumerated once: the letters on a
    # support determine the Pauli, so distinct supports give distinct errors.
    # Sorting the supports by (weight, support) and each support's letters
    # by (x_bits, z_bits) orders the errors by (weight, support, x, z).
    supports = {
        supp
        for u in unions
        for w in range(1, len(u) + 1)
        for supp in itertools.combinations(u, w)
    }
    out = [PauliString.identity(n)]
    for w, group in itertools.groupby(sorted(supports, key=lambda s: (len(s), s)), key=len):
        x, z = pauli_bits(np.array(list(group), dtype=np.int64))
        order = np.lexsort((z, x, np.arange(x.size) // 3**w))
        out += _pauli_strings(n, x[order], z[order])
    return ErrorSet(tuple(out))


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
