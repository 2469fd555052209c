"""Signed n-qubit Pauli algebra and single-qubit interpolating unitaries.

Operators are kept in symplectic form: two bit masks (x_bits, z_bits) plus an
integer power of i, so products and phases are exact.  Dense matrices are only
ever built for small oracles; application to state vectors and frames is a
bit-indexed permutation with signs.  A dense array is permuted on its
qubit-tensor view; a Frame, stored on its support rows, has its row indices
permuted instead.

Conventions
-----------
* Qubit ``j`` corresponds to bit ``j`` of a basis-state index (little endian),
  so ``X`` on qubit 0 maps index ``n`` to ``n ^ 1``.
* A Pauli is ``i**phase_exp * X^x_bits * Z^z_bits`` where ``X^m`` denotes the
  tensor product of ``X`` over the bits set in ``m``.  With this convention
  ``Y = i X Z`` is ``(x=1, z=1, phase_exp=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .frames import Frame

__all__ = [
    "PauliString",
    "pauli_mul",
    "apply_pauli",
    "alpha",
    "beta",
    "interp_matrix",
    "LocalOperator",
    "pauli_term_table",
    "SIGMA",
]

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

SIGMA = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
# the site operators X^x Z^z indexed by q = x + 2z, and their (x, z) bits
_SITE_PAULIS = np.array([_I2, _X, _Z, _X @ _Z])
_Q_BITS = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
# i^k for k = 0..3, equal bit for bit to PauliString.phase
_UNITS = np.array([1, 1j, -1, -1j])

# letter -> (x bit, z bit, phase exponent of i)
_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}
_PHASE_LABEL = {0: "+", 1: "+i*", 2: "-", 3: "-i*"}

@dataclass(frozen=True)
class PauliString:
    """A signed Pauli operator on ``n`` qubits in symplectic form.

    The phase is tracked exactly as an integer exponent of ``i`` modulo 4;
    only the four units {1, i, -1, -i} ever occur.
    """

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, site: int, letter: str) -> "PauliString":
        """Single-site Pauli ``letter`` on ``site`` of an ``n``-qubit register."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        x, z, p = _LETTER_BITS[letter]
        return cls(n, x << site, z << site, p)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse ``"+XIZZY"`` style text; site 0 is the leftmost letter."""
        phase = 0
        body = label
        for prefix, p in (("+i*", 1), ("-i*", 3), ("i*", 1), ("+", 0), ("-", 2)):
            if label.startswith(prefix):
                phase = p
                body = label[len(prefix):]
                break
        out = cls.identity(len(body))
        for j, letter in enumerate(body):
            out = pauli_mul(out, cls.single(len(body), j, letter))
        return cls(out.n, out.x_bits, out.z_bits, out.phase_exp + phase)

    # -- basic structure ---------------------------------------------------

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        m = self.x_bits | self.z_bits
        return tuple(j for j in range(self.n) if (m >> j) & 1)

    def letter(self, site: int) -> str:
        x = (self.x_bits >> site) & 1
        z = (self.z_bits >> site) & 1
        return ("I", "X", "Z", "Y")[x + 2 * z]

    def to_label(self) -> str:
        # site factor X^x Z^z equals -i Y when both bits are set; absorb into phase
        ny = sum(1 for j in range(self.n) if self.letter(j) == "Y")
        shown = (self.phase_exp - ny) % 4
        return _PHASE_LABEL[shown] + "".join(self.letter(j) for j in range(self.n))

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def dagger(self) -> "PauliString":
        # (X^x Z^z)^dagger = Z^z X^x = (-1)^{|x&z|} X^x Z^z
        flips = (self.x_bits & self.z_bits).bit_count()
        return PauliString(self.n, self.x_bits, self.z_bits, -self.phase_exp + 2 * flips)

    def commutes_with(self, other: "PauliString") -> bool:
        s = (self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()
        return s % 2 == 0

    # -- dense / vector action ---------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Dense matrix; for small oracles only (exponential in ``n``)."""
        ops = []
        for j in range(self.n):
            x = (self.x_bits >> j) & 1
            z = (self.z_bits >> j) & 1
            ops.append((_X if x else _I2) @ (_Z if z else _I2))
        # qubit 0 is the least significant bit, hence the reversed kron order
        full = reduce(np.kron, reversed(ops)) if ops else np.eye(1, dtype=complex)
        return self.phase * full

    def pauli_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_bits, z_bits, c) of the one term i^k X^x Z^z, as LocalOperator.pauli_terms."""
        return np.array([self.x_bits]), np.array([self.z_bits]), np.array([self.phase])


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact product ``p @ q`` with phase tracking.

    Moving ``Z^{z_p}`` through ``X^{x_q}`` costs a sign per overlapping site.
    """
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    sign_flips = (p.z_bits & q.x_bits).bit_count()
    return PauliString(
        p.n,
        p.x_bits ^ q.x_bits,
        p.z_bits ^ q.z_bits,
        p.phase_exp + q.phase_exp + 2 * sign_flips,
    )


def apply_pauli(p: PauliString, v):
    """Apply ``p`` to a state vector (N,), a dense frame (N, K) or a Frame.

    (P v)[m] = i^k (-1)^{popcount((m ^ x) & z)} v[m ^ x].  A Frame keeps its
    support: row r moves to r ^ x with the sign (-1)^{popcount(r & z)}.
    A dense array is computed on the qubit-tensor view (2,)*n + trailing,
    site j on axis n-1-j: one copy with the X axes flipped, then per Z bit a
    negated half, the one where (m ^ x)_j = 1.  A nonzero phase makes that
    copy complex.  Values equal the formula exactly; only the signs of zeros
    may differ.
    """
    N = v.N if isinstance(v, Frame) else v.shape[0]
    if N != 1 << p.n:
        raise ValueError(f"dimension mismatch: state has {N}, Pauli needs {1 << p.n}")
    if isinstance(v, Frame):
        return _apply_pauli_rows(p, v)
    flips = tuple(p.n - 1 - j for j in range(p.n) if (p.x_bits >> j) & 1)
    dtype = np.result_type(v.dtype, np.complex128) if p.phase_exp else v.dtype
    out = np.array(np.flip(v.reshape((2,) * p.n + v.shape[1:]), flips), dtype=dtype, order="C")
    # real view: numpy negates float runs several times faster than complex
    flat = out.reshape(-1).view(out.real.dtype)
    for j in range(p.n):
        if (p.z_bits >> j) & 1:
            half = flat.reshape(1 << (p.n - 1 - j), 2, -1)[:, 1 - ((p.x_bits >> j) & 1)]
            np.negative(half, out=half)
    if p.phase_exp:
        np.multiply(out, p.phase, out=out)
    return out.reshape(v.shape)


def _apply_pauli_rows(p: PauliString, f: Frame) -> Frame:
    """XOR the support rows with x, sign them by popcount(r & z), re-sort."""
    rows, vals = f.rows, f.vals
    if p.z_bits:
        par = np.bitwise_count(rows & p.z_bits) & 1
        vals = vals * (1.0 - 2.0 * par)[:, None]
    if p.phase_exp:
        vals = vals * p.phase
    if p.x_bits:
        rows = rows ^ p.x_bits
        order = np.argsort(rows)
        rows, vals = rows[order], vals[order]
    if vals is f.vals:
        return f
    return Frame._unchecked(f.N, rows, vals)


# -- single-qubit interpolating unitaries -----------------------------------
#
# U(t) = alpha(t) 1 + beta(t) sigma interpolates identity -> sigma along the
# generator (sigma - 1) pi/2; V(t) = U(1-t) sigma runs the same edge backwards.


def alpha(t: float) -> complex:
    return np.exp(-1j * t * np.pi / 2) * np.cos(t * np.pi / 2)


def beta(t: float) -> complex:
    return 1j * np.exp(-1j * t * np.pi / 2) * np.sin(t * np.pi / 2)


def interp_matrix(letter: str, t: float, direction: str = "forward") -> np.ndarray:
    """2x2 matrix of U^i(t) (forward) or V^i(t) = U^i(1-t) sigma^i (reverse)."""
    s = SIGMA[letter]
    if direction == "forward":
        return alpha(t) * _I2 + beta(t) * s
    if direction == "reverse":
        return (alpha(1 - t) * _I2 + beta(1 - t) * s) @ s
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class LocalOperator:
    """An operator supported on a few qubits, one 2x2 factor per site.

    Used for conjugated error sets U E U^{-1}, which stay site-local but are
    no longer Pauli.
    """

    n: int
    sites: tuple[int, ...]
    factors: tuple[np.ndarray, ...]

    @classmethod
    def from_pauli(cls, p: PauliString) -> "LocalOperator":
        sites = p.support
        # letterwise decomposition: P = i^(k - #Y) tensor(sigma_letter)
        n_y = sum(1 for j in sites if p.letter(j) == "Y")
        shown = 1j ** ((p.phase_exp - n_y) % 4)
        mats = []
        for k, j in enumerate(sites):
            m = SIGMA[p.letter(j)]
            if k == 0:
                m = shown * m
            mats.append(m)
        if not sites:  # phase times identity
            return cls(p.n, (0,), (p.phase * _I2,)) if p.n else cls(p.n, (), ())
        return cls(p.n, sites, tuple(mats))

    def conjugate_by(self, site_unitaries: Sequence[np.ndarray]) -> "LocalOperator":
        """U E U^{-1} for a transversal U given as per-site 2x2 unitaries."""
        mats = tuple(
            site_unitaries[j] @ m @ site_unitaries[j].conj().T
            for j, m in zip(self.sites, self.factors)
        )
        return LocalOperator(self.n, self.sites, mats)

    def pauli_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_bits, z_bits, c): this operator is sum_t c[t] X^x[t] Z^z[t], exactly;
        its rows of ``pauli_term_table``."""
        return pauli_term_table([self])[:3]


def pauli_term_table(ops) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, c, ends): rows ends[a]..ends[a+1]-1 hold the exact Pauli expansion
    sum_t c[t] X^x[t] Z^z[t] of ops[a], a PauliString or a LocalOperator.

    The PauliStrings go in as one bits array, one term each.  LocalOperators
    are expanded a group of equal site count at a time: site factor M has the
    coefficient tr(P^dagger M)/2 on P = X^x Z^z (one ``einsum`` per group),
    and the products run first site slowest.  Exact zeros are dropped, with
    no tolerance; the zero operator keeps one term.
    """
    ops = list(ops)
    groups: dict[int | None, list[int]] = {}
    for a, op in enumerate(ops):
        groups.setdefault(None if isinstance(op, PauliString) else len(op.sites), []).append(a)
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0, dtype=complex),)]
    for w, idx in groups.items():
        if w is None:
            bits = np.array(
                [(ops[a].x_bits, ops[a].z_bits, ops[a].phase_exp) for a in idx], dtype=np.int64
            )
            x, z, c = bits[:, :1], bits[:, 1:2], _UNITS[bits[:, 2:]]
            keep = np.ones(c.shape, dtype=bool)
        else:
            sites = np.array([ops[a].sites for a in idx], dtype=np.int64).reshape(len(idx), w)
            factors = np.array([ops[a].factors for a in idx], dtype=complex)
            factors = factors.reshape(len(idx), w, 2, 2)
            coef = np.einsum("qij,gsij->gsq", _SITE_PAULIS.conj(), factors) / 2
            x = z = np.zeros((len(idx), 1), dtype=np.int64)
            c = np.ones((len(idx), 1), dtype=complex)
            for j in range(w):
                x = (x[:, :, None] | _Q_BITS[0] << sites[:, j, None, None]).reshape(len(idx), -1)
                z = (z[:, :, None] | _Q_BITS[1] << sites[:, j, None, None]).reshape(len(idx), -1)
                c = (c[:, :, None] * coef[:, j, None, :]).reshape(len(idx), -1)
            keep = c != 0
            keep[:, 0] |= ~keep.any(axis=1)
        parts.append((np.repeat(idx, keep.sum(axis=1)), x[keep], z[keep], c[keep]))
    owner, x, z, c = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(owner, kind="stable")  # each error's rows, in their order
    return x[order], z[order], c[order], np.searchsorted(owner[order], np.arange(len(ops) + 1))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with phase fix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
