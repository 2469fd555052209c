"""Loop classification and flatness reports shared by both verticals.

A path of unitaries acting on a base frame yields a lifted frame path; when
the endpoint spans the starting subspace again, the loop's fibre action is
the K x K matrix M = F_start^dagger F_end, classified as a pure phase or a
nontrivial logical operation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .frames import Frame, common_rows

__all__ = [
    "FlatnessReport",
    "HolonomyResult",
    "NotALoopError",
    "classify",
    "PHASE_ONLY",
    "NONTRIVIAL_LOGICAL",
]

PHASE_ONLY = "phase_only"
NONTRIVIAL_LOGICAL = "nontrivial_logical"


class NotALoopError(ValueError):
    """Endpoint span differs from the starting span."""


@dataclass(frozen=True)
class FlatnessReport:
    """Worst phase-adjusted disagreement between homotopic loops."""

    trials: int
    max_phase_adjusted_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_phase_adjusted_deviation < self.tol


@dataclass(frozen=True)
class HolonomyResult:
    logical: np.ndarray
    phase: complex
    classification: str
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "logical": [[[z.real, z.imag] for z in row] for row in self.logical],
            "phase": [self.phase.real, self.phase.imag],
            "classification": self.classification,
            "residual": self.residual,
        }


def classify(start: Frame, end: Frame, tol: float = 1e-9) -> HolonomyResult:
    """Extract and classify the fibre action M = start^dagger end of a loop.

    Phase convention: when |tr M| / K > 1/2 the candidate phase is the
    normalized trace and PhaseOnly means ||M - xi 1|| < tol; otherwise the
    result is nontrivial outright and the phase is det(M)^(1/K) on the branch
    nearest the trace argument.
    """
    if start.N != end.N or start.K != end.K:
        raise ValueError("frame dimensions differ")
    _, (s, e) = common_rows(start, end)
    (m,), (residual,) = _loop_actions(s, e[None], tol)
    return _classified(m, float(residual), tol)


def _loop_actions(s: np.ndarray, e: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The fibre actions M = s^dagger e of a stack of loop ends, and their residuals.

    ``s`` is the (R, K) start block and ``e`` the (P, R, K) end blocks on the
    same rows.  Raises NotALoopError when an end leaves span(s).  A residual
    is the larger of the loop residual ||e - s M|| and M's distance from
    unitarity.
    """
    m = s.conj().T @ e
    d = (e - s @ m).reshape(len(e), 1, -1)
    dr, di = d.real, d.imag  # ||d|| per end as np.linalg.norm sums it: one BLAS dot per part
    loop = np.sqrt((dr @ dr.transpose(0, 2, 1) + di @ di.transpose(0, 2, 1))[:, 0, 0])
    out = np.flatnonzero(loop > max(tol, 1e-7))  # loop condition: end must lie in span(start)
    if out.size:
        raise NotALoopError(
            f"endpoint leaves the starting subspace (residual {loop[out[0]]:.3e})"
        )
    k = s.shape[1]
    unitarity = np.max(np.abs(m.conj().transpose(0, 2, 1) @ m - np.eye(k)), axis=(1, 2))
    return m, np.maximum(loop, unitarity)


def _classified(m: np.ndarray, residual: float, tol: float) -> HolonomyResult:
    """Classify a loop's K x K fibre action ``m`` as ``classify`` does."""
    k = len(m)
    tr = complex(np.trace(m))
    if abs(tr) / k > 0.5:
        xi = tr / abs(tr)
        if float(np.max(np.abs(m - xi * np.eye(k)))) < max(tol, 10 * residual):
            return HolonomyResult(m, xi, PHASE_ONLY, residual)
    det = complex(np.linalg.det(m))
    base = cmath.exp(1j * cmath.phase(det) / k)
    if abs(tr) > 1e-9:
        target = cmath.phase(tr)
        roots = [base * cmath.exp(2j * cmath.pi * r / k) for r in range(k)]
        base = min(roots, key=lambda z: abs(cmath.phase(z) - target))
    return HolonomyResult(m, base, NONTRIVIAL_LOGICAL, residual)
