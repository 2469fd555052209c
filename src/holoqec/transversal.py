"""Transversal gates: the site-local unitary group, its logical subgroup's
tangent algebra, projectively-trivial-action probes, and holonomies of
transversal loops.

Everything here stays in per-site factors of any dimensions d_j, site j the
digit of weight d_0 ... d_{j-1} in a row index.  One site contraction,
``m @ arr.reshape(-1, d_j, d_0 ... d_{j-1} K)``, applies a matrix or a stack
of them to an (N,) or (N, K) array.  A site exponential is exp(H) =
V diag(e^{iw}) V^dagger with (w, V) the eigenpairs of the Hermitian -iH, one
batched ``np.linalg.eigh`` per path and site dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .codes import Code
from .frames import Frame
from .pauli import SIGMA, PauliString
from .transport import FlatnessReport, HolonomyResult, classify

__all__ = [
    "TransversalUnitary",
    "PathSegment",
    "TransversalPath",
    "LieAlgebraBasis",
    "fl_lie_algebra",
    "check_projectively_trivial_action",
    "TrivialActionReport",
    "pauli_generator_path",
    "exponential_path",
    "transversal_holonomy",
    "flatness_probe_transversal",
]

UNITARY_TOL = 1e-12


def _expm_antihermitian(h: np.ndarray) -> np.ndarray:
    """exp(H) for an (m, d, d) stack of anti-Hermitian H: V e^{iw} V^dagger, (w, V) = eigh(-iH)."""
    w, v = np.linalg.eigh(-1j * h)
    return (v * np.exp(1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _on_site(m: np.ndarray, j: int, dims: Sequence[int], arr: np.ndarray) -> np.ndarray:
    """A (d_j, d_j) matrix, or each of a (..., d_j, d_j) stack, applied to site j of arr."""
    inner = math.prod(dims[:j]) * math.prod(arr.shape[1:])
    out = m[..., None, :, :] @ arr.reshape(-1, dims[j], inner)
    return out.reshape(m.shape[:-2] + arr.shape)


@dataclass(frozen=True)
class TransversalUnitary:
    """A tensor product of per-site unitaries; factor j is d_j x d_j."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        for d in set(self.dims):  # one stacked check per site dimension
            fs = np.array([f for f in self.factors if f.shape[0] == d])
            if np.max(np.abs(fs.conj().transpose(0, 2, 1) @ fs - np.eye(d))) > UNITARY_TOL:
                raise ValueError("transversal factors must be unitary")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """The product of the factors applied to an (N,) or (N, K) array."""
        dims = self.dims
        if (N := math.prod(dims)) != arr.shape[0]:
            raise ValueError(f"site dims {dims} need {N} rows, got {arr.shape[0]}")
        out = arr
        for j, f in enumerate(self.factors):
            if not np.array_equal(f, np.eye(dims[j])):
                out = _on_site(f, j, dims, out)
        return out

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "TransversalUnitary":
        return cls(tuple(np.eye(d, dtype=complex) for d in dims))


@dataclass(frozen=True)
class PathSegment:
    """Site-local anti-Hermitian generators; None marks an idle site."""

    generators: tuple[np.ndarray | None, ...]


@dataclass(frozen=True)
class TransversalPath:
    """Piecewise-exponential path in the transversal group, F(0) = identity."""

    dims: tuple[int, ...]
    segments: tuple[PathSegment, ...]

    def __post_init__(self):
        gens: dict[int, list[np.ndarray]] = {}  # per site dimension, over distinct segments
        for seg in {id(seg): seg for seg in self.segments}.values():  # subdivide repeats one
            if len(seg.generators) != len(self.dims):
                raise ValueError("segment arity does not match site count")
            for h, d in zip(seg.generators, self.dims):
                if h is not None:
                    if np.shape(h) != (d, d):
                        raise ValueError(f"a generator on a {d}-level site must be {d} x {d}")
                    gens.setdefault(d, []).append(h)
        for hs in map(np.array, gens.values()):
            if np.max(np.abs(hs + hs.conj().transpose(0, 2, 1))) > 1e-10:
                raise ValueError("generators must be anti-Hermitian")

    def endpoint(self) -> TransversalUnitary:
        return self.evaluate(1.0)

    def evaluate(self, t: float) -> TransversalUnitary:
        """F(t) with t in [0, 1] distributed evenly over the segments."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        pos = t * len(self.segments)
        steps = [  # (site, fraction * generator) in path order; idle sites are skipped
            (j, frac * h)
            for i, seg in enumerate(self.segments)
            if (frac := min(max(pos - i, 0.0), 1.0)) > 0.0
            for j, h in enumerate(seg.generators)
            if h is not None
        ]
        factors = [np.eye(d, dtype=complex) for d in self.dims]
        for d in set(self.dims):  # one batched exponential per site dimension
            on = [(j, h) for j, h in steps if self.dims[j] == d]
            us = _expm_antihermitian(np.array([h for _, h in on]).reshape(-1, d, d))
            for (j, _), u in zip(on, us):
                factors[j] = u @ factors[j]
        return TransversalUnitary(tuple(factors))

    def apply_to(self, arr: np.ndarray, t: float = 1.0) -> np.ndarray:
        return self.evaluate(t).apply(arr)

    def compose(self, later: "TransversalPath") -> "TransversalPath":
        """This path first, then ``later``."""
        if self.dims != later.dims:
            raise ValueError("site dimensions differ")
        return TransversalPath(self.dims, self.segments + later.segments)

    def subdivide(self, pieces: Sequence[int]) -> "TransversalPath":
        """Split each segment into equal exponential pieces.

        exp(H) = exp(H/p)^p exactly, so endpoints are unchanged: this is a
        time reparametrization of the same path.
        """
        if len(pieces) != len(self.segments):
            raise ValueError("need one piece count per segment")
        segs = []
        for seg, p in zip(self.segments, pieces):
            if p < 1:
                raise ValueError("piece counts must be positive")
            scaled = tuple(None if h is None else h / p for h in seg.generators)
            segs.extend([PathSegment(scaled)] * p)
        return TransversalPath(self.dims, tuple(segs))


def pauli_generator_path(p: PauliString) -> TransversalPath:
    """One simultaneous segment of single-site rotations ending exactly at p.

    Non-identity sites carry the generator i (sigma - 1) pi/2; any net phase
    of p is realized by a commuting global-phase generator on site 0.
    """
    dims = (2,) * p.n
    gens: list[np.ndarray | None] = [None] * p.n
    n_y = 0
    for j in range(p.n):
        letter = p.letter(j)
        if letter == "Y":
            n_y += 1
        if letter != "I":
            gens[j] = 1j * (SIGMA[letter] - np.eye(2)) * np.pi / 2
    phase_quarter = (p.phase_exp - n_y) % 4
    if phase_quarter:
        theta = phase_quarter * np.pi / 2
        extra = 1j * theta * np.eye(2)
        gens[0] = extra if gens[0] is None else gens[0] + extra
    return TransversalPath(dims, (PathSegment(tuple(gens)),))


def exponential_path(
    dims: Sequence[int], generators: Sequence[np.ndarray | None]
) -> TransversalPath:
    return TransversalPath(tuple(dims), (PathSegment(tuple(generators)),))


# -- tangent algebra of the logical transversal subgroup ---------------------


@cache
def _antiherm_site_basis(d: int) -> np.ndarray:
    """Orthonormal real basis of anti-Hermitian d x d matrices: a read-only (d^2, d, d) stack."""
    out = []
    for k in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[k, k] = 1j
        out.append(m)
    for k in range(d):
        for l in range(k + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = 1.0
            m[l, k] = -1.0
            out.append(m / np.sqrt(2))
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = 1j
            m[l, k] = 1j
            out.append(m / np.sqrt(2))
    stack = np.array(out)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Real-orthonormal basis of the codespace-preserving site-local algebra."""

    site_dims: tuple[int, ...]
    coefficients: np.ndarray  # (dim, n_params) real

    @property
    def dimension(self) -> int:
        return self.coefficients.shape[0]

    def generators(self, coeffs: np.ndarray) -> list[np.ndarray | None]:
        """Per-site anti-Hermitian matrices for a parameter vector."""
        out: list[np.ndarray | None] = []
        pos = 0
        for d in self.site_dims:
            basis = _antiherm_site_basis(d).reshape(d * d, d * d)
            h = (coeffs[pos : pos + d * d] @ basis).reshape(d, d)
            pos += d * d
            out.append(h if np.max(np.abs(h)) > 1e-14 else None)
        return out

    def element(self, k: int) -> list[np.ndarray | None]:
        return self.generators(self.coefficients[k])

    def random_element(
        self, rng: np.random.Generator, scale: float = 1.0
    ) -> list[np.ndarray | None]:
        c = rng.normal(size=self.dimension) * scale
        return self.generators(self.coefficients.T @ c)


def fl_lie_algebra(code: Code, sv_cutoff: float = 1e-10) -> LieAlgebraBasis:
    """Nullspace of H -> (1 - P) H iota over site-local anti-Hermitian H.

    The constraint is exactly real-linear in the sum_j d_j^2 real parameters;
    the basis returned is orthonormal in the parameter inner product.
    """
    fdata = code.frame.data
    n_params = sum(d * d for d in code.qudit_dims)
    cols = []  # per site, one column of a per basis element: the SVD nullspace reads this order
    for j, d in enumerate(code.qudit_dims):
        hv = _on_site(_antiherm_site_basis(d), j, code.qudit_dims, fdata)
        resid = (hv - fdata @ (fdata.conj().T @ hv)).reshape(d * d, -1)
        cols.append(np.concatenate([resid.real, resid.imag], axis=1))
    a = np.concatenate(cols).T
    # U is never read: keep it thin, unless a is wide and a full vt is needed for its nullspace
    _, s, vt = np.linalg.svd(a, full_matrices=len(a) < n_params)
    null_rows = vt[np.concatenate([s, np.zeros(n_params - len(s))]) <= sv_cutoff]
    return LieAlgebraBasis(code.qudit_dims, null_rows)


@dataclass(frozen=True)
class TrivialActionReport:
    samples: int
    max_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol


def check_projectively_trivial_action(
    code: Code,
    basis: LieAlgebraBasis,
    samples: int,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> TrivialActionReport:
    """Exponentials of random algebra elements must act as a unit phase on C."""
    rng = rng or np.random.default_rng(0)
    fdata = code.frame.data
    worst = 0.0
    eye = np.eye(code.K)
    for _ in range(samples):
        gens = basis.random_element(rng)
        m = fdata.conj().T @ exponential_path(code.qudit_dims, gens).apply_to(fdata)
        xi = np.trace(m) / code.K
        residual = max(
            float(np.max(np.abs(m - xi * eye))), abs(abs(xi) - 1.0)
        )
        worst = max(worst, residual)
    return TrivialActionReport(samples, worst, tol)


def transversal_holonomy(
    code: Code, path: TransversalPath, tol: float = 1e-9
) -> HolonomyResult:
    """Lift the frame along the path and classify the loop's fibre action.

    Raises NotALoopError when the endpoint does not preserve the codespace.
    """
    end = Frame(path.apply_to(code.frame.data))
    return classify(code.frame, end, tol)


def _phase_adjusted_deviation(m1: np.ndarray, m2: np.ndarray) -> float:
    t = np.trace(m2.conj().T @ m1)
    xi = t / abs(t) if abs(t) > 1e-12 else 1.0
    return float(np.max(np.abs(m1 - xi * m2)))


def flatness_probe_transversal(
    code: Code,
    loop_endpoints: Sequence[PauliString],
    trials: int,
    tol: float = 1e-7,
    rng: np.random.Generator | None = None,
) -> FlatnessReport:
    """Homotopic transversal loop pairs must agree up to a phase.

    Each trial picks a loop endpoint (a product of the supplied codespace
    preserving Paulis), then compares the holonomy of its generator path
    against (a) a random subdivision reparametrization and (b) the same path
    pre-composed with the exponential of a random tangent-algebra element.
    """
    rng = rng or np.random.default_rng(0)
    basis = fl_lie_algebra(code)
    worst = 0.0
    for _ in range(trials):
        word_len = int(rng.integers(1, 4))
        p = PauliString.identity(code.n)
        for _ in range(word_len):
            p = p * loop_endpoints[int(rng.integers(0, len(loop_endpoints)))]
        path1 = pauli_generator_path(p)
        m1 = transversal_holonomy(code, path1).logical

        pieces = [int(rng.integers(2, 5)) for _ in path1.segments]
        m2 = transversal_holonomy(code, path1.subdivide(pieces)).logical
        worst = max(worst, _phase_adjusted_deviation(m1, m2))

        gens = basis.random_element(rng)
        pre = exponential_path(code.qudit_dims, gens)
        m3 = transversal_holonomy(code, pre.compose(path1)).logical
        worst = max(worst, _phase_adjusted_deviation(m1, m3))
    return FlatnessReport(trials, worst, tol)
