"""Fibre transport along defect paths and braid monodromies.

Three segment kinds compose a path: exact Pauli hops, edge-interpolation
slides (the relative unitary between two positions on one edge), and in-face
fibre moves given by the explicit coefficient solution.  Transport is the
path-ordered product applied to the frame; a braid word's monodromy is the
classified fibre action of its compiled hop path, and two homotopic
routings of a word must agree up to a phase (the flatness probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..frames import Frame, common_rows, principal_overlap
from ..pauli import PauliString, apply_pauli, pauli_mul
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
from .interp import combine_corner_frames, corner_frames, face_corner_coords, slide_frame
from .lattice import (
    DefectConfig,
    Edge,
    EdgePos,
    FacePos,
    VertexPos,
    hardcore_check,
)
from .strings import HOP, Step, StringEvolution, _classify_step, step_pauli

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


class TransportError(ValueError):
    pass


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


class _State:
    """Mutable transport state: positions, frame, live face context."""

    def __init__(self, tc: ToricCode):
        self.tc = tc
        self.lat = tc.lat
        self.cfg = tc.cfg.to_continuous()
        self.frame = tc.frame
        self.pending = PauliString.identity(tc.n)  # hops not yet applied
        self.face_ctx: tuple[str, tuple[int, int], dict, int] | None = None
        self.transcript: list[dict] = []

    def discrete_cfg(self) -> DefectConfig:
        if not all(isinstance(p, VertexPos) for p in self.cfg.primal + self.cfg.dual):
            raise TransportError("configuration has defects off the lattice")
        return DefectConfig(
            tuple(p.v for p in self.cfg.primal), tuple(p.v for p in self.cfg.dual)
        )

    def place(self, kind: str, idx: int, pos) -> None:
        """Move one defect, then require the hard-core condition."""
        self.cfg = self.cfg.move(kind, idx, pos)
        hc = hardcore_check(self.lat, self.cfg, self.tc.separation)
        if not hc.ok:
            raise TransportError(
                f"hard-core violation mid-path: {hc.violating_pair} "
                f"at distance {hc.min_distance}"
            )

    def flush(self) -> None:
        """Apply the pending hops' exact product to the frame, in one pass."""
        if self.pending != PauliString.identity(self.tc.n):
            self.frame = apply_pauli(self.pending, self.frame)
            self.pending = PauliString.identity(self.tc.n)

    # -- segment handlers ----------------------------------------------------

    def hop(self, seg: DiscreteHop) -> None:
        self.face_ctx = None
        cfg = self.discrete_cfg()
        status, detail, nxt = _classify_step(self.lat, cfg, seg.step, self.tc.separation)
        if status != HOP:
            raise TransportError(f"{status}: {detail}")
        self.cfg = nxt.to_continuous()
        self.pending = pauli_mul(step_pauli(self.lat, seg.step), self.pending)
        self.transcript.append(
            {"segment": "hop", "kind": seg.step.kind, "edge": list(seg.step.edge), "detail": detail}
        )

    def _find_on_edge(self, kind: str, edge: Edge, t: float) -> int:
        ends = self.lat.edge_endpoints(edge)
        for i, p in enumerate(self.cfg.sites(kind)):
            if isinstance(p, EdgePos) and p.edge == edge and abs(p.t - t) < 1e-9:
                return i
            if isinstance(p, VertexPos):
                if t in (0.0, 1.0) and p.v == ends[0 if t == 0.0 else 1]:
                    return i
        raise TransportError(f"no {kind} defect at position t={t} on {edge}")

    def slide(self, seg: EdgeSlide) -> None:
        self.face_ctx = None
        self.flush()
        if not (0.0 <= seg.t_from <= 1.0 and 0.0 <= seg.t_to <= 1.0):
            raise TransportError("slide parameters must lie in [0, 1]")
        idx = self._find_on_edge(seg.kind, seg.edge, seg.t_from)
        sigma = step_pauli(self.lat, Step(seg.kind, seg.edge))
        delta = seg.t_to - seg.t_from
        # U(t1) U(t0)^dagger = exp(i (t1 - t0) H) = alpha(d) 1 + beta(d) sigma
        self.frame = slide_frame(self.frame, sigma, delta)
        ends = self.lat.edge_endpoints(seg.edge)
        pos = (
            VertexPos(ends[0 if seg.t_to == 0.0 else 1])
            if seg.t_to in (0.0, 1.0)
            else EdgePos(seg.edge, seg.t_to)
        )
        self.place(seg.kind, idx, pos)
        self.transcript.append(
            {
                "segment": "slide",
                "kind": seg.kind,
                "edge": list(seg.edge),
                "t": [seg.t_from, seg.t_to],
            }
        )

    def _enter_face(self, seg: FaceMove) -> None:
        corner_xy = {v: k for k, v in face_corner_coords().items()}
        lbl = corner_xy.get(seg.xy_from)
        if lbl is None:
            raise TransportError("face entry must start at a corner")
        cfg = self.discrete_cfg()
        tc_here = self.tc.with_frame(self.frame, cfg)
        frames, idx = corner_frames(tc_here, seg.kind, seg.face)
        self.face_ctx = (seg.kind, seg.face, frames, idx)

    def face_move(self, seg: FaceMove) -> None:
        self.flush()
        if self.face_ctx is None or self.face_ctx[:2] != (seg.kind, seg.face):
            self._enter_face(seg)
        kind, face, frames, idx = self.face_ctx
        x, y = seg.xy_to
        self.frame = combine_corner_frames(frames, x, y)
        corner_xy = {v: k for k, v in face_corner_coords().items()}
        from .interp import _face_corners  # corner label -> lattice site

        corners = _face_corners(self.lat, kind, face)
        if seg.xy_to in corner_xy:
            pos = VertexPos(corners[corner_xy[seg.xy_to]])
            self.face_ctx = None
        elif x == 0.0 or x == 1.0 or y == 0.0 or y == 1.0:
            # exit onto a boundary edge; t runs along the uniform orientation
            if x == 0.0:
                boundary_edge, t = Edge(*corners["C"], "v"), y  # CA
            elif x == 1.0:
                boundary_edge, t = Edge(*corners["D"], "v"), y  # DB
            elif y == 0.0:
                boundary_edge, t = Edge(*corners["C"], "h"), x  # CD
            else:
                boundary_edge, t = Edge(*corners["A"], "h"), x  # AB
            pos = EdgePos(boundary_edge, t)
            self.face_ctx = None
        else:
            # FacePos.face is the lower-left corner on the defect's own lattice
            pos = FacePos(corners["C"], seg.xy_to)
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
    st = _State(tc)
    for seg in path.segments:
        if isinstance(seg, DiscreteHop):
            st.hop(seg)
        elif isinstance(seg, EdgeSlide):
            st.slide(seg)
        elif isinstance(seg, FaceMove):
            st.face_move(seg)
        else:
            raise TypeError(f"unknown segment {seg!r}")
    st.flush()
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
