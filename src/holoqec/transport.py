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
    m = s.conj().T @ e
    k = start.K
    # loop condition: end must lie in span(start)
    loop_residual = float(np.linalg.norm(e - s @ m))
    if loop_residual > max(tol, 1e-7):
        raise NotALoopError(
            f"endpoint leaves the starting subspace (residual {loop_residual:.3e})"
        )
    unitarity = float(np.max(np.abs(m.conj().T @ m - np.eye(k))))
    residual = max(loop_residual, unitarity)

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
