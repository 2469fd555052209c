"""Discrete string evolutions: defect hops, legality, and exact Pauli action.

A step is a primal edge (apply Z there) or a dual edge (apply X on the primal
edge it crosses).  Legality per step: the edge must be adjacent to exactly one
defect of its type (no creation, no annihilation) and the destination must
keep the minimum separation from every other defect.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pauli import PauliString, apply_pauli, pauli_mul
from .build import ToricCode
from .lattice import DefectConfig, Edge, TorusLattice, hardcore_check

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


class InvalidEvolutionError(ValueError):
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
    moved = cfg.move(step.kind, sites.index(src), dst)
    hc = hardcore_check(lat, moved, s)
    if not hc.ok:
        return (
            HARDCORE_VIOLATION,
            f"destination {dst} breaks separation {s}: {hc.violating_pair} "
            f"at distance {hc.min_distance}",
            cfg,
        )
    return HOP, f"{step.kind} defect {src} -> {dst}", moved


def apply_string(tc: ToricCode, ev: StringEvolution) -> tuple[ToricCode, PauliString]:
    """Run a valid evolution: exact composed Pauli and the endpoint code.

    The returned code's frame is the composed operator applied to the input
    frame, which spans the moved configuration's eigenspace exactly.
    """
    lat = tc.lat
    cur = tc.cfg
    total = PauliString.identity(lat.n_edges)
    for i, step in enumerate(ev.steps):
        status, detail, nxt = _classify_step(lat, cur, step, tc.separation)
        if status != HOP:
            raise InvalidEvolutionError(f"step {i}: {status}: {detail}")
        total = pauli_mul(step_pauli(lat, step), total)
        cur = nxt
    return tc.with_frame(apply_pauli(total, tc.frame), cur), total
