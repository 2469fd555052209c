"""Transversal gates: the site-local unitary group, its logical subgroup's
tangent algebra, projectively-trivial-action probes, and holonomies of
transversal loops.

Everything here stays in per-site factors of any dimensions d_j, site j the
digit of weight d_0 ... d_{j-1} in a row index.  Paths are evaluated as a
stack from one step table: per site dimension, the distinct anti-Hermitian
step generators, checked once, and each path's steps on each site as rows of
it.  Each row is exponentiated once, exp(H) = V diag(e^{iw}) V^dagger with
(w, V) the eigenpairs of the Hermitian -iH, in one batched
``np.linalg.eigh`` per site dimension; a repeated step reuses it.  Factor j
of P endpoints is one (P, d_j, d_j) array, and one site contraction,
``m[:, None] @ arr.reshape(P, -1, d_j, d_0 ... d_{j-1} K)``, applies it to a
(P, N, K) stack of arrays.

The probes draw each chunk's paths as lists of segments, every rng draw in
the order of a path-by-path loop, fill one table, and evaluate it with one
unitarity check, one contraction per site, and one stacked F^dagger G with
the end frame's orthonormality and loop checks.  A chunk holds about
``_CHUNK_BYTES`` of paths and their N x K end frames, so memory does not
grow with the trial count.  A ``TransversalPath`` is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .codes import _CHUNK_BYTES, Code
from .frames import ORTHONORMALITY_TOL
from .pauli import SIGMA, PauliString
from .transport import FlatnessReport, HolonomyResult, _classified, _loop_actions

__all__ = [
    "TransversalUnitary",
    "PathSegment",
    "TransversalPath",
    "LieAlgebraBasis",
    "fl_lie_algebra",
    "code_lie_algebra",
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
    """Each of a (P, d_j, d_j) stack applied to site j of the matching (P, N, K) array.

    Either P may be 1, which broadcasts against the other.
    """
    p, n, k = arr.shape
    out = m[:, None] @ arr.reshape(p, -1, dims[j], math.prod(dims[:j]) * k)
    return out.reshape(-1, n, k)


def _check_unitary(factors: Sequence[np.ndarray]) -> None:
    """ValueError unless every (P, d, d) site factor is unitary: one check per site dimension."""
    for d in {f.shape[-1] for f in factors}:
        fs = np.concatenate([f for f in factors if f.shape[-1] == d])
        if not np.max(np.abs(fs.conj().transpose(0, 2, 1) @ fs - np.eye(d))) <= UNITARY_TOL:
            raise ValueError("transversal factors must be unitary")  # a NaN fails too


def _apply_factors(factors: Sequence[np.ndarray], arr: np.ndarray) -> np.ndarray:
    """(P, d_j, d_j) site factors applied to a (P or 1, N, K) array: the (P, N, K) images.

    A site whose factors are all exactly the identity is skipped; applying an
    identity factor to the paths that have one leaves their values unchanged.
    """
    dims = [f.shape[-1] for f in factors]
    out = arr
    for j, f in enumerate(factors):
        if not (f == np.eye(dims[j])).all():
            out = _on_site(f, j, dims, out)
    if len(out) < len(factors[0]):  # every factor was the identity
        out = np.repeat(out, len(factors[0]), axis=0)
    return out


def _step_table(
    dims: tuple[int, ...], paths: Sequence[Sequence[Sequence]], t: float = 1.0
) -> tuple:
    """The steps of paths given as segments of per-site generators (None: idle).

    t in [0, 1] is spread evenly over each path's segments, so a segment runs
    for a fraction f of its generator h.  The table is (dims, P, gens, steps):
    gens[d] stacks each distinct f h on d-level sites once, h told apart by
    identity, and is checked here; a column (rank, path, site, row) of steps
    applies exp of gens[d][row] to that site of that path after rank others.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    rows: dict[tuple[int, float], int] = {}
    gens: dict[int, tuple[list, list]] = {d: ([], []) for d in dims}  # generators, fractions
    steps: list[int] = []  # flat (rank, path, site, row): a tuple kept per step fragments the heap
    for i, segments in enumerate(paths):
        pos, rank = t * len(segments), [0] * len(dims)
        for k, seg in enumerate(segments):
            if len(seg) != len(dims):
                raise ValueError("segment arity does not match site count")
            frac = min(max(pos - k, 0.0), 1.0)
            for j, h in enumerate(seg if frac > 0.0 else ()):
                if h is not None:  # idle sites are skipped
                    if (row := rows.get(key := (id(h), frac))) is None:
                        if np.asarray(h).shape != (d := dims[j], d):
                            raise ValueError(f"a generator on a {d}-level site must be {d} x {d}")
                        row = rows[key] = len(gens[d][0])
                        gens[d][0].append(h)
                        gens[d][1].append(frac)
                    steps.extend((rank[j], i, j, row))
                    rank[j] += 1
    table = {}
    for d, (hs, fs) in gens.items():
        g = table[d] = np.array(fs)[:, None, None] * np.array(hs).reshape(-1, d, d)
        if len(g) and not np.max(np.abs(g + g.conj().transpose(0, 2, 1))) <= 1e-10:
            raise ValueError("generators must be anti-Hermitian")  # a NaN fails too
    return dims, len(paths), table, np.array(steps, dtype=int).reshape(-1, 4).T


def _endpoint_factors(
    dims: tuple[int, ...], count: int, gens: dict[int, np.ndarray], steps: np.ndarray
) -> list[np.ndarray]:
    """The endpoints of a step table's paths as site factors: factor j is (P, d_j, d_j);
    unitarity unchecked.

    Each row of the table is exponentiated once, in one batch per site
    dimension; then the r-th steps on each site multiply onto their factors
    at once, r = 0, 1, ...
    """
    rank, path, site, row = steps
    site_dims = np.array(dims)
    factors = {}
    for d in set(dims):
        sites = np.flatnonzero(site_dims == d)
        stack = np.tile(np.eye(d, dtype=complex), (len(sites) * count, 1, 1))
        if (on := site_dims[site] == d).any():
            us = _expm_antihermitian(gens[d])[row[on]]
            slot, at_rank = np.searchsorted(sites, site[on]) * count + path[on], rank[on]
            for r in range(at_rank.max() + 1):
                at = at_rank == r
                stack[slot[at]] = us[at] @ stack[slot[at]]
        factors.update(zip(sites.tolist(), stack.reshape(len(sites), count, d, d)))
    return [factors[j] for j in range(len(dims))]


@dataclass(frozen=True)
class TransversalUnitary:
    """A tensor product of per-site unitaries; factor j is d_j x d_j."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_unitary([f[None] for f in self.factors])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """The product of the factors applied to an (N,) or (N, K) array."""
        dims = self.dims
        if (N := math.prod(dims)) != arr.shape[0]:
            raise ValueError(f"site dims {dims} need {N} rows, got {arr.shape[0]}")
        out = _apply_factors([f[None] for f in self.factors], arr.reshape(1, N, -1))
        return out.reshape(arr.shape)

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
        # the step table of F(1), built once: building it checks every generator
        object.__setattr__(self, "_end", self._steps(1.0))

    def endpoint(self) -> TransversalUnitary:
        return self.evaluate(1.0)

    def evaluate(self, t: float) -> TransversalUnitary:
        """F(t) with t in [0, 1] distributed evenly over the segments."""
        factors = _endpoint_factors(*(self._end if t == 1.0 else self._steps(t)))
        return TransversalUnitary(tuple(f[0] for f in factors))

    def _steps(self, t: float) -> tuple:
        return _step_table(self.dims, [[seg.generators for seg in self.segments]], t)

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
    return TransversalPath((2,) * p.n, (PathSegment(_pauli_generators(p)),))


@lru_cache(maxsize=4096)
def _pauli_generators(p: PauliString, pieces: int = 1) -> tuple[np.ndarray | None, ...]:
    """The site generators of ``pauli_generator_path(p).subdivide([pieces])``: shared arrays."""
    letters = [p.letter(j) for j in range(p.n)]
    quarter = (p.phase_exp - letters.count("Y")) % 4
    return tuple(
        _site_generator(x, quarter if j == 0 else 0, pieces) for j, x in enumerate(letters)
    )


@cache
def _site_generator(letter: str, phase_quarter: int, pieces: int) -> np.ndarray | None:
    """One site of ``pauli_generator_path``, divided as ``subdivide`` divides; read-only."""
    gen = None if letter == "I" else 1j * (SIGMA[letter] - np.eye(2)) * np.pi / 2
    if phase_quarter:
        extra = 1j * (phase_quarter * np.pi / 2) * np.eye(2)
        gen = extra if gen is None else gen + extra
    if gen is not None:
        gen = gen if pieces == 1 else gen / pieces
        gen.setflags(write=False)
    return gen


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
        return list(self._site_generators(coeffs[None])[0])

    def _site_generators(self, coeffs: np.ndarray) -> list[tuple[np.ndarray | None, ...]]:
        """``generators`` of each row of a (P, n_params) array, one product per site."""
        sites, pos = [], 0
        for d in self.site_dims:
            basis = _antiherm_site_basis(d).reshape(d * d, d * d)
            hs = (coeffs[:, pos : pos + d * d] @ basis).reshape(-1, d, d)
            pos += d * d
            live = np.max(np.abs(hs), axis=(1, 2)) > 1e-14
            sites.append([h if on else None for h, on in zip(hs, live)])
        return list(zip(*sites))

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
        hv = _on_site(_antiherm_site_basis(d), j, code.qudit_dims, fdata[None])
        resid = (hv - fdata @ (fdata.conj().T @ hv)).reshape(d * d, -1)
        cols.append(np.concatenate([resid.real, resid.imag], axis=1))
    a = np.concatenate(cols).T
    # U is never read: keep it thin, unless a is wide and a full vt is needed for its nullspace
    _, s, vt = np.linalg.svd(a, full_matrices=len(a) < n_params)
    null_rows = vt[np.concatenate([s, np.zeros(n_params - len(s))]) <= sv_cutoff]
    return LieAlgebraBasis(code.qudit_dims, null_rows)


def code_lie_algebra(
    code: Code, build: Callable[[Code], LieAlgebraBasis] | None = None
) -> LieAlgebraBasis:
    """``build(code)``, by default ``fl_lie_algebra(code)``, computed once per code.

    A code is immutable, so its basis is fixed; the code keeps it with the
    function that built it, and a different ``build`` (a wrapped or replaced
    ``fl_lie_algebra``) is called again and kept in its place.
    ``fl_lie_algebra`` itself stays uncached.
    """
    build = build or fl_lie_algebra
    held = code.__dict__.get("_lie_algebra")
    if held is None or held[0] is not build:
        held = (build, build(code))
        object.__setattr__(code, "_lie_algebra", held)
    return held[1]


@dataclass(frozen=True)
class TrivialActionReport:
    samples: int
    max_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol


# What a drawn path holds beyond its 16 N K-byte end frame: its steps, its rows
# of the step table with their eigh work, and its share of the site contractions'
# images; tracemalloc gives about 3.5 KiB for a five-qubit flatness path.
_PATH_BYTES = 4 * 2**10


def _chunk(code: Code) -> int:
    """Paths per stacked evaluation: about _CHUNK_BYTES of paths and end frames."""
    return max(1, _CHUNK_BYTES // (16 * code.N * code.K + _PATH_BYTES))


def _check_count(count: int, what: str) -> None:
    if count < 0:
        raise ValueError(f"{what} must be non-negative, got {count}")


def check_projectively_trivial_action(
    code: Code,
    basis: LieAlgebraBasis,
    samples: int,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> TrivialActionReport:
    """Exponentials of random algebra elements must act as a unit phase on C."""
    _check_count(samples, "samples")
    rng = rng or np.random.default_rng(0)
    fdata = code.frame.data
    worst = 0.0
    for start in range(0, samples, _chunk(code)):
        coeffs = [  # as random_element draws them
            basis.coefficients.T @ rng.normal(size=basis.dimension)
            for _ in range(min(_chunk(code), samples - start))
        ]
        paths = [[gens] for gens in basis._site_generators(np.array(coeffs))]
        m = fdata.conj().T @ _lift(code, _step_table(code.qudit_dims, paths))
        xi = np.trace(m, axis1=1, axis2=2) / code.K
        # hypot is abs of one complex scalar: residuals equal a path-by-path loop's bit for bit
        residual = np.maximum(
            np.max(np.abs(m - xi[:, None, None] * np.eye(code.K)), axis=(1, 2)),
            np.abs(np.hypot(xi.real, xi.imag) - 1.0),
        )
        worst = max(worst, float(residual.max()))
    return TrivialActionReport(samples, worst, tol)


def _lift(code: Code, table: tuple) -> np.ndarray:
    """The (P, N, K) images of the code frame under each path's unitarity-checked endpoint."""
    factors = _endpoint_factors(*table)
    _check_unitary(factors)
    return _apply_factors(factors, code.frame.data[None])


def _fibre_actions(code: Code, table: tuple, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lift the code frame F along each path: the (P, K, K) actions F^dagger G and residuals.

    Each end frame G is checked as Frame checks it (orthonormal columns, else
    ValueError) and as classify does (NotALoopError when it leaves span F).
    """
    ends = _lift(code, table)
    gram = ends.conj().transpose(0, 2, 1) @ ends
    err = np.max(np.abs(gram - np.eye(code.K)), axis=(1, 2))
    if not np.all(err < ORTHONORMALITY_TOL):  # a NaN fails too
        bad = err[~(err < ORTHONORMALITY_TOL)][0]
        raise ValueError(f"columns not orthonormal (max deviation {bad:.3e})")
    return _loop_actions(code.frame.data, ends, tol)


def transversal_holonomy(
    code: Code, path: TransversalPath, tol: float = 1e-9
) -> HolonomyResult:
    """Lift the frame along the path and classify the loop's fibre action.

    Raises NotALoopError when the endpoint does not preserve the codespace.
    """
    (m,), (residual,) = _fibre_actions(code, path._end, tol)
    return _classified(m, float(residual), tol)


def _phase_adjusted_deviation(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """max |m1 - xi m2| per pair of (P, K, K) stacks, xi the unit phase of tr(m2^dagger m1)."""
    t = np.trace(m2.conj().transpose(0, 2, 1) @ m1, axis1=1, axis2=2)
    a = np.hypot(t.real, t.imag)  # abs of one complex scalar, bit for bit
    xi = np.where(a > 1e-12, t / np.where(a > 1e-12, a, 1.0), 1.0)
    return np.max(np.abs(m1 - xi[:, None, None] * m2), axis=(1, 2))


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
    _check_count(trials, "trials")
    rng = rng or np.random.default_rng(0)
    basis = code_lie_algebra(code)
    per_chunk = max(1, _chunk(code) // 3)  # three paths a trial
    worst = 0.0
    for start in range(0, trials, per_chunk):
        words, pieces, coeffs = [], [], []
        for _ in range(min(per_chunk, trials - start)):
            p = PauliString.identity(code.n)
            for _ in range(int(rng.integers(1, 4))):
                p = p * loop_endpoints[int(rng.integers(0, len(loop_endpoints)))]
            words.append(p)
            pieces.append(int(rng.integers(2, 5)))  # the generator path has one segment
            coeffs.append(basis.coefficients.T @ rng.normal(size=basis.dimension))
        paths = []
        for p, k, pre in zip(words, pieces, basis._site_generators(np.array(coeffs))):
            gens = _pauli_generators(p)
            # the generator path, its subdivision, and it pre-composed with exp(pre)
            paths += [[gens], [_pauli_generators(p, k)] * k, [pre, gens]]
        table = _step_table(code.qudit_dims, paths)
        m, _ = _fibre_actions(code, table, 1e-9)  # transversal_holonomy's default tol
        m1 = np.concatenate([m[0::3], m[0::3]])
        dev = _phase_adjusted_deviation(m1, np.concatenate([m[1::3], m[2::3]]))
        worst = max(worst, float(dev.max()))
    return FlatnessReport(trials, worst, tol)
