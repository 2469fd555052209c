"""Discrete string evolutions: defect hops, legality, and exact Pauli action.

A step is a primal edge (apply Z there) or a dual edge (apply X on the primal
edge it crosses).  Legality per step: the edge must be adjacent to exactly one
defect of its type (no creation, no annihilation) and the destination must
pass ``_move_check``, the move check of every defect move.  ``_run_hops``, the
one hop runner, checks a run of steps and returns their exact Pauli product.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pauli import PauliString, apply_pauli, pauli_mul
from .build import ToricCode
from .lattice import DefectConfig, Edge, Position, TorusLattice, hardcore_check

__all__ = [
    "Step",
    "StringEvolution",
    "apply_string",
    "InvalidEvolutionError",
    "step_pauli",
]

HOP = "hop"
WOULD_CREATE = "would-create"
WOULD_ANNIHILATE = "would-annihilate"
HARDCORE_VIOLATION = "hard-core-violation"


class TransportError(ValueError):  # any illegal defect move
    pass


class InvalidEvolutionError(TransportError):
    pass


@dataclass(frozen=True)
class Step:
    """One edge application: kind 'primal' (Z on edge) or 'dual' (X across)."""

    kind: str
    edge: Edge

    def __post_init__(self):
        if self.kind not in ("primal", "dual"):
            raise ValueError("step kind must be 'primal' or 'dual'")


@dataclass(frozen=True)
class StringEvolution:
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)


def step_pauli(lat: TorusLattice, step: Step) -> PauliString:
    """The single-qubit Pauli a step applies."""
    if step.kind == "primal":
        return PauliString.single(lat.n_edges, lat.edge_index(step.edge), "Z")
    qubit = lat.dual_crossing_qubit(step.edge)
    return PauliString.single(lat.n_edges, lat.edge_index(qubit), "X")


def _move_check(
    lat: TorusLattice, cfg: DefectConfig, kind: str, idx: int, pos: Position, s: int
) -> tuple[DefectConfig | None, str | None]:
    """The configuration with defect ``idx`` of ``kind`` at ``pos``, or None and
    why not: ``pos`` holds another defect of its kind, or a pair breaks
    separation ``s``.  The reason completes a sentence about ``pos``."""
    sites = cfg.sites(kind)
    if pos != sites[idx] and pos in sites:
        return None, "is already occupied"
    moved = cfg.move(kind, idx, pos)
    hc = hardcore_check(lat, moved, s)
    if not hc.ok:
        return None, f"breaks separation {s}: {hc.violating_pair} at distance {hc.min_distance}"
    return moved, None


def _classify_step(
    lat: TorusLattice, cfg: DefectConfig, step: Step, s: int
) -> tuple[str, str, DefectConfig]:
    """Status, human detail, and the configuration after a legal hop."""
    a, b = lat.edge_endpoints(step.edge)
    sites = cfg.sites(step.kind)
    at_a, at_b = a in sites, b in sites
    if at_a and at_b:
        return WOULD_ANNIHILATE, f"{step.kind} defects at both ends of {step.edge}", cfg
    if not at_a and not at_b:
        return WOULD_CREATE, f"no {step.kind} defect adjacent to {step.edge}", cfg
    src, dst = (a, b) if at_a else (b, a)
    moved, why = _move_check(lat, cfg, step.kind, sites.index(src), dst, s)
    if why:
        return HARDCORE_VIOLATION, f"destination {dst} {why}", cfg
    return HOP, f"{step.kind} defect {src} -> {dst}", moved


def _run_hops(
    lat: TorusLattice, cfg: DefectConfig, steps, s: int, first: int = 0
) -> tuple[DefectConfig, PauliString, list[str]]:
    """Check steps one at a time from ``cfg``: the end configuration, their
    exact Pauli product (last step leftmost) and each hop's detail.  The first
    illegal step raises InvalidEvolutionError, its index counted from ``first``."""
    total = PauliString.identity(lat.n_edges)
    details = []
    for i, step in enumerate(steps, first):
        status, detail, cfg = _classify_step(lat, cfg, step, s)
        if status != HOP:
            raise InvalidEvolutionError(f"step {i}: {status}: {detail}")
        total = pauli_mul(step_pauli(lat, step), total)
        details.append(detail)
    return cfg, total, details


def apply_string(tc: ToricCode, ev: StringEvolution) -> tuple[ToricCode, PauliString]:
    """Run a valid evolution: exact composed Pauli and the endpoint code.

    The returned code's frame is the composed operator applied to the input
    frame, which spans the moved configuration's eigenspace exactly.
    """
    cfg, total, _ = _run_hops(tc.lat, tc.cfg, ev.steps, tc.separation)
    return tc.with_frame(apply_pauli(total, tc.frame), cfg), total
