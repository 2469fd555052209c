"""Fibre transport along defect paths and braid monodromies.

Three segment kinds compose a path: exact Pauli hops, edge-interpolation
slides (the relative unitary between two positions on one edge), and in-face
fibre moves given by the explicit coefficient solution.  Transport is the
path-ordered product applied to the frame; a braid word's monodromy is the
classified fibre action of its compiled hop path, and two homotopic
routings of a word must agree up to a phase (the flatness probe).

Each maximal run of hops goes to the one hop runner (``strings._run_hops``).
Slides and face moves find their defect by one locate function and store
where it lands by one position rule (``lattice._locate``, ``_position``);
every move passes one move check (``strings._move_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Union

import numpy as np

from ..frames import Frame, common_rows, principal_overlap
from ..pauli import apply_pauli
from ..transport import FlatnessReport, HolonomyResult, classify
from .braid import (
    BraidWord,
    ContractibleLoop,
    FullBraid,
    HalfBraid,
    RoutingError,
    TorusLoop,
    compile_braid,
)
from .build import ToricCode
from .interp import _face_corners, combine_corner_frames, corner_frames, slide_frame
from .lattice import DefectConfig, Edge, FacePos, _locate, _offset, _position
from .strings import Step, StringEvolution, TransportError, _move_check, _run_hops, step_pauli

__all__ = [
    "DiscreteHop",
    "EdgeSlide",
    "FaceMove",
    "ConfigPath",
    "TransportError",
    "transport_along",
    "monodromy",
    "flatness_probe_toric",
]


@dataclass(frozen=True)
class DiscreteHop:
    step: Step


@dataclass(frozen=True)
class EdgeSlide:
    kind: str
    edge: Edge
    t_from: float
    t_to: float


@dataclass(frozen=True)
class FaceMove:
    kind: str
    face: tuple[int, int]
    xy_from: tuple[float, float]
    xy_to: tuple[float, float]


Segment = Union[DiscreteHop, EdgeSlide, FaceMove]


@dataclass(frozen=True)
class ConfigPath:
    segments: tuple[Segment, ...]

    @classmethod
    def from_evolution(cls, ev: StringEvolution) -> "ConfigPath":
        return cls(tuple(DiscreteHop(s) for s in ev.steps))

    def __len__(self) -> int:
        return len(self.segments)


def _edge_point(edge: Edge, t: float) -> tuple[tuple[int, int], tuple[float, float]]:
    """Point t of an edge as a point of the unit square at the edge's start."""
    return (edge.x, edge.y), ((t, 0.0) if edge.o == "h" else (0.0, t))


class _State:
    """Mutable transport state: positions, frame, live face context."""

    def __init__(self, tc: ToricCode):
        self.tc = tc
        self.lat = tc.lat
        self.cfg = tc.cfg
        self.frame = tc.frame
        self.face_ctx: tuple[str, tuple[int, int], dict, int] | None = None
        self.transcript: list[dict] = []

    def run(self, segments) -> "_State":
        """Apply the segments in order, each maximal run of hops at once."""
        for is_hop, group in groupby(enumerate(segments), lambda p: isinstance(p[1], DiscreteHop)):
            if is_hop:
                self.hops(list(group))
                continue
            for _, seg in group:
                if isinstance(seg, EdgeSlide):
                    self.slide(seg)
                elif isinstance(seg, FaceMove):
                    self.face_move(seg)
                else:
                    raise TypeError(f"unknown segment {seg!r}")
        return self

    def discrete_cfg(self) -> DefectConfig:
        if not all(isinstance(p, tuple) for p in self.cfg.primal + self.cfg.dual):
            raise TransportError("configuration has defects off the lattice")
        return self.cfg

    def place(self, kind: str, idx: int, pos) -> None:
        moved, why = _move_check(self.lat, self.cfg, kind, idx, pos, self.tc.separation)
        if why:
            raise TransportError(f"{kind} site {pos} {why}")
        self.cfg = moved

    # -- segment handlers ----------------------------------------------------

    def hops(self, run: list[tuple[int, DiscreteHop]]) -> None:
        self.face_ctx = None
        steps = [seg.step for _, seg in run]
        self.cfg, total, details = _run_hops(
            self.lat, self.discrete_cfg(), steps, self.tc.separation, run[0][0]
        )
        self.frame = apply_pauli(total, self.frame)
        self.transcript += [
            {"segment": "hop", "kind": st.kind, "edge": list(st.edge), "detail": detail}
            for st, detail in zip(steps, details)
        ]

    def slide(self, seg: EdgeSlide) -> None:
        self.face_ctx = None
        if not (0.0 <= seg.t_from <= 1.0 and 0.0 <= seg.t_to <= 1.0):
            raise TransportError("slide parameters must lie in [0, 1]")
        start, uv_from = _edge_point(seg.edge, seg.t_from)
        idx = _locate(self.lat, self.cfg.sites(seg.kind), start, uv_from)
        if idx is None:
            raise TransportError(f"no {seg.kind} defect at position t={seg.t_from} on {seg.edge}")
        sigma = step_pauli(self.lat, Step(seg.kind, seg.edge))
        # U(t1) U(t0)^dagger = exp(i (t1 - t0) H) = alpha(d) 1 + beta(d) sigma
        self.frame = slide_frame(self.frame, sigma, seg.t_to - seg.t_from)
        self.place(seg.kind, idx, _position(self.lat, *_edge_point(seg.edge, seg.t_to)))
        self.transcript.append(
            {
                "segment": "slide",
                "kind": seg.kind,
                "edge": list(seg.edge),
                "t": [seg.t_from, seg.t_to],
            }
        )

    def face_move(self, seg: FaceMove) -> None:
        kind, face = seg.kind, seg.face
        if not all(0.0 <= c <= 1.0 for c in seg.xy_from + seg.xy_to):
            raise TransportError("face coordinates must lie in the unit square")
        corner = _face_corners(self.lat, kind, face)["C"]  # in-face (0, 0)
        if self.face_ctx is None or self.face_ctx[:2] != (kind, face):
            if not isinstance(_position(self.lat, corner, seg.xy_from), tuple):
                raise TransportError("face entry must start at a corner")
            tc_here = self.tc.with_frame(self.frame, self.discrete_cfg())
            self.face_ctx = (kind, face, *corner_frames(tc_here, kind, face))
        _, _, frames, idx = self.face_ctx
        sites = self.cfg.sites(kind)
        if _locate(self.lat, sites, corner, seg.xy_from) != idx:
            raise TransportError(
                f"{kind} defect is at {_offset(self.lat, sites[idx], corner)} "
                f"in face {face}, not at {seg.xy_from}"
            )
        self.frame = combine_corner_frames(frames, *seg.xy_to)
        pos = _position(self.lat, corner, seg.xy_to)
        if not isinstance(pos, FacePos):
            self.face_ctx = None
        self.place(kind, idx, pos)
        self.transcript.append(
            {
                "segment": "face",
                "kind": seg.kind,
                "face": list(seg.face),
                "xy": [list(seg.xy_from), list(seg.xy_to)],
            }
        )


def transport_along(tc: ToricCode, path: ConfigPath) -> tuple[Frame, list[dict]]:
    """Compose the path's fibre maps onto the code frame.

    Returns the transported frame and a per-segment transcript; raises
    TransportError on any illegal move.  Hops are checked one by one, but
    each run of them reaches the frame as one exact Pauli product.
    """
    st = _State(tc).run(path.segments)
    return st.frame, st.transcript


def monodromy(
    tc: ToricCode,
    word: BraidWord,
    variant: int = 0,
    tol: float = 1e-8,
) -> tuple[HolonomyResult, list[dict]]:
    """Compile a braid word, transport the frame, classify the fibre action."""
    ev, _ = compile_braid(tc.lat, tc.cfg, word, tc.separation, variant)
    end, transcript = transport_along(tc, ConfigPath.from_evolution(ev))
    return classify(tc.frame, end, tol), transcript


def _single_generators(cfg: DefectConfig) -> list:
    """Every braid generator on the configuration's defects, routable or not."""
    gens = []
    for kind in ("primal", "dual"):
        n = len(cfg.sites(kind))
        for i in range(n):
            gens.append(TorusLoop((kind, i), "horizontal"))
            gens.append(TorusLoop((kind, i), "vertical"))
            gens.append(ContractibleLoop((kind, i), 1))
        for i in range(n):
            for j in range(i + 1, n):
                gens.append(HalfBraid((kind, i), (kind, j)))
    for i in range(cfg.n_primal):
        for j in range(cfg.n_dual):
            gens.append(FullBraid(("primal", i), ("dual", j)))
            gens.append(FullBraid(("dual", j), ("primal", i)))
    return gens


def flatness_probe_toric(
    tc: ToricCode,
    trials: int,
    tol: float = 1e-7,
    rng: np.random.Generator | None = None,
) -> FlatnessReport:
    """The two routings of a braid word must transport the frame alike, up to
    a phase.

    Words of one or two generators are drawn until ``trials`` of them route
    under both variants (at most 50 draws per trial, else RoutingError).  For
    each, xi is the unit phase of tr(m1^dagger m0), m_v = F^dagger F_v, and
    the deviation is max |F_0 - xi F_1| over the transported frames.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = rng or np.random.default_rng(0)
    candidates = _single_generators(tc.cfg)
    worst = 0.0
    routed = draws = 0
    while routed < trials and draws < 50 * trials:
        draws += 1
        length = int(rng.integers(1, 3))
        word = [candidates[int(rng.integers(0, len(candidates)))] for _ in range(length)]
        try:
            ev0, _ = compile_braid(tc.lat, tc.cfg, word, tc.separation, 0)
            ev1, _ = compile_braid(tc.lat, tc.cfg, word, tc.separation, 1)
        except RoutingError:
            continue
        routed += 1
        f0, _ = transport_along(tc, ConfigPath.from_evolution(ev0))
        f1, _ = transport_along(tc, ConfigPath.from_evolution(ev1))
        m0 = principal_overlap(tc.frame, f0)
        m1 = principal_overlap(tc.frame, f1)
        t = np.trace(m1.conj().T @ m0)
        xi = t / abs(t) if abs(t) > 1e-12 else 1.0
        _, (b0, b1) = common_rows(f0, f1)
        worst = max(worst, float(np.max(np.abs(b0 - xi * b1))))
    if routed < trials:
        raise RoutingError("could not sample enough routable braid words")
    return FlatnessReport(trials, worst, tol)
