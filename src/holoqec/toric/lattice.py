"""Periodic L x L square lattice, its dual, and defect configurations.

Edges carry the qubits.  Horizontal edge (x, y, 'h') runs (x,y) -> (x+1,y),
vertical edge (x, y, 'v') runs (x,y) -> (x,y+1); all orientations follow +x
or +y so every face looks the same.  Dual vertices are the faces; a dual edge
is indexed by the face it leaves in the +x or +y direction and crosses one
primal edge, which is the qubit an X-string step acts on.  Dual edge
(x, y, o) therefore joins faces exactly as primal edge (x, y, o) joins
vertices, so ``edge_endpoints`` and ``connecting_edge`` serve both lattices;
only the crossed qubit (``dual_crossing_qubit``) differs.

Primal defects live on the primal lattice; dual defects live on the dual
lattice, with positions expressed in dual coordinates (a dual vertex (x, y)
is the face (x, y) of the primal lattice).  One ``DefectConfig`` holds every
position: a vertex ``(x, y)`` of the defect's own lattice, an ``EdgePos`` in
an edge interior, or a ``FacePos`` in a face interior.  The hard-core
distance is read off one metric, with primal vertices at even and dual
vertices at odd points of a doubled cycle (``hardcore_check``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

__all__ = [
    "Edge",
    "TorusLattice",
    "EdgePos",
    "FacePos",
    "DefectConfig",
    "HardcoreReport",
    "hardcore_check",
    "DEFAULT_SEPARATION",
]

DEFAULT_SEPARATION = 3

Vertex = tuple[int, int]
Face = tuple[int, int]


class Edge(NamedTuple):
    x: int
    y: int
    o: str  # 'h' or 'v'


@dataclass(frozen=True)
class TorusLattice:
    """Geometry and indexing for the periodic square lattice of period L."""

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("lattice period must be at least 2")

    # -- counting and wrapping ----------------------------------------------

    @property
    def n_edges(self) -> int:
        return 2 * self.L * self.L

    def wrap(self, x: int) -> int:
        return x % self.L

    def wrap_vertex(self, v: Vertex) -> Vertex:
        return (v[0] % self.L, v[1] % self.L)

    def vertices(self) -> list[Vertex]:
        return [(x, y) for y in range(self.L) for x in range(self.L)]

    def faces(self) -> list[Face]:
        return [(x, y) for y in range(self.L) for x in range(self.L)]

    def edges(self) -> list[Edge]:
        out = [Edge(x, y, "h") for y in range(self.L) for x in range(self.L)]
        out += [Edge(x, y, "v") for y in range(self.L) for x in range(self.L)]
        return out

    def edge_index(self, e: Edge) -> int:
        x, y, o = self.wrap(e.x), self.wrap(e.y), e.o
        base = 0 if o == "h" else self.L * self.L
        return base + y * self.L + x

    # -- incidence -----------------------------------------------------------

    def edge_endpoints(self, e: Edge) -> tuple[Vertex, Vertex]:
        """(oriented start, oriented end); faces when ``e`` is a dual edge."""
        x, y = self.wrap(e.x), self.wrap(e.y)
        if e.o == "h":
            return (x, y), (self.wrap(x + 1), y)
        return (x, y), (x, self.wrap(y + 1))

    def vertex_star(self, v: Vertex) -> list[Edge]:
        x, y = self.wrap_vertex(v)
        return [
            Edge(x, y, "h"),
            Edge(self.wrap(x - 1), y, "h"),
            Edge(x, y, "v"),
            Edge(x, self.wrap(y - 1), "v"),
        ]

    def face_boundary(self, f: Face) -> list[Edge]:
        x, y = self.wrap(f[0]), self.wrap(f[1])
        return [
            Edge(x, y, "h"),                 # bottom
            Edge(x, self.wrap(y + 1), "h"),  # top
            Edge(x, y, "v"),                 # left
            Edge(self.wrap(x + 1), y, "v"),  # right
        ]

    def face_corners(self, f: Face) -> list[Vertex]:
        x, y = self.wrap(f[0]), self.wrap(f[1])
        return [
            (x, y),
            (self.wrap(x + 1), y),
            (x, self.wrap(y + 1)),
            (self.wrap(x + 1), self.wrap(y + 1)),
        ]

    def connecting_edge(self, a: Vertex, b: Vertex) -> Edge:
        """The edge joining two adjacent vertices, primal or dual (faces)."""
        ax, ay = self.wrap_vertex(a)
        bx, by = self.wrap_vertex(b)
        if ay == by and self.wrap(ax + 1) == bx:
            return Edge(ax, ay, "h")
        if ay == by and self.wrap(bx + 1) == ax:
            return Edge(bx, by, "h")
        if ax == bx and self.wrap(ay + 1) == by:
            return Edge(ax, ay, "v")
        if ax == bx and self.wrap(by + 1) == ay:
            return Edge(bx, by, "v")
        raise ValueError(f"vertices {a} and {b} are not adjacent")

    # -- dual lattice ---------------------------------------------------------

    def dual_crossing_qubit(self, e: Edge) -> Edge:
        """Primal edge crossed by a dual edge: the qubit of an X-string step."""
        x, y = self.wrap(e.x), self.wrap(e.y)
        if e.o == "h":  # face (x,y) -> face (x+1,y) crosses shared vertical edge
            return Edge(self.wrap(x + 1), y, "v")
        return Edge(x, self.wrap(y + 1), "h")

    # -- metric ---------------------------------------------------------------

    def coord_distance(self, a: int, b: int) -> int:
        d = abs(a - b) % self.L
        return min(d, self.L - d)

    def vertex_distance(self, a: Vertex, b: Vertex) -> int:
        return self.coord_distance(a[0], b[0]) + self.coord_distance(a[1], b[1])


def wrapped_step(L: int, a: int, b: int) -> tuple[int, int]:
    """(step sign, step count) of the shortest move a -> b on a cycle of L; a tie steps +."""
    d = (b - a) % L
    return (1, d) if 2 * d <= L else (-1, L - d)


# -- defect positions ----------------------------------------------------------


@dataclass(frozen=True)
class EdgePos:
    edge: Edge  # wrapped, so that one point of an edge has one EdgePos
    t: float  # position along the oriented edge, in (0, 1)

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("edge-interior parameter must lie strictly in (0, 1)")


@dataclass(frozen=True)
class FacePos:
    face: Face  # lower-left corner coordinates on the defect's own lattice
    xy: tuple[float, float]

    def __post_init__(self):
        x, y = self.xy
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError("face coordinates must lie in the unit square")


# a vertex (x, y) of the defect's own lattice, an edge interior or a face interior
Position = Union[Vertex, EdgePos, FacePos]


def _position(lat: TorusLattice, corner: Vertex, uv: tuple[float, float]) -> Position:
    """The canonical position of the point ``uv`` of the unit square at ``corner``:
    a side point is a vertex at an end of that side's wrapped edge, else an
    ``EdgePos``; only inner points are a ``FacePos``."""
    (cx, cy), (x, y) = corner, uv
    if x in (0.0, 1.0):
        edge, t = Edge(lat.wrap(cx + int(x)), lat.wrap(cy), "v"), y
    elif y in (0.0, 1.0):
        edge, t = Edge(lat.wrap(cx), lat.wrap(cy + int(y)), "h"), x
    else:
        return FacePos(lat.wrap_vertex(corner), uv)
    return lat.edge_endpoints(edge)[int(t)] if t in (0.0, 1.0) else EdgePos(edge, t)


def _offset(lat: TorusLattice, pos: Position, corner: Vertex) -> tuple[float, float]:
    """``pos`` relative to ``corner``: wrapped whole steps plus its fraction."""
    if isinstance(pos, EdgePos):
        (x, y, o), t = pos.edge, pos.t
        frac = (t, 0.0) if o == "h" else (0.0, t)
    elif isinstance(pos, FacePos):
        (x, y), frac = pos.face, pos.xy
    else:
        (x, y), frac = pos, (0.0, 0.0)
    return (x - corner[0]) % lat.L + frac[0], (y - corner[1]) % lat.L + frac[1]


def _locate(lat: TorusLattice, sites, corner: Vertex, uv: tuple[float, float]) -> int | None:
    """The first site within 1e-9 per axis of point ``uv`` at ``corner``, or None."""
    for i, p in enumerate(sites):
        gaps = [abs(o - u) for o, u in zip(_offset(lat, p, corner), uv)]
        if all(min(g, abs(lat.L - g)) < 1e-9 for g in gaps):
            return i
    return None


@dataclass(frozen=True)
class DefectConfig:
    """Defect positions, primal and dual, each on the defect's own lattice."""

    primal: tuple[Position, ...]
    dual: tuple[Position, ...]

    def __post_init__(self):
        if len(self.primal) % 2 or len(self.dual) % 2:
            raise ValueError("defect counts must be even")
        if len(set(self.primal)) != len(self.primal):
            raise ValueError("duplicate primal defects")
        if len(set(self.dual)) != len(self.dual):
            raise ValueError("duplicate dual defects")

    @property
    def n_primal(self) -> int:
        return len(self.primal)

    @property
    def n_dual(self) -> int:
        return len(self.dual)

    def sites(self, kind: str) -> tuple[Position, ...]:
        """The positions of one kind: ``primal`` or ``dual``."""
        if kind not in ("primal", "dual"):
            raise ValueError(f"defect kind must be 'primal' or 'dual', not {kind!r}")
        return getattr(self, kind)

    def move(self, kind: str, i: int, pos: Position) -> "DefectConfig":
        """A copy with defect ``i`` of ``kind`` at ``pos``."""
        new = list(self.sites(kind))
        new[i] = pos
        return replace(self, **{kind: tuple(new)})


@dataclass(frozen=True)
class HardcoreReport:
    ok: bool
    violating_pair: tuple[str, str] | None
    min_distance: int | None


def _doubled_axes(pos: Position, offset: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A position's adjacent vertices as one doubled-coordinate set per axis.

    Their product is the defect itself, the ends of its edge, or the corners
    of its face; ``offset`` is 0 on the primal lattice and 1 on the dual.
    """
    if isinstance(pos, EdgePos):
        x, y, o = pos.edge
        wide_x, wide_y = o == "h", o == "v"
    elif isinstance(pos, FacePos):
        (x, y), wide_x, wide_y = pos.face, True, True
    else:
        (x, y), wide_x, wide_y = pos, False, False
    x, y = 2 * x + offset, 2 * y + offset
    return ((x, x + 2) if wide_x else (x,)), ((y, y + 2) if wide_y else (y,))


def hardcore_check(lat: TorusLattice, cfg: DefectConfig, s: int) -> HardcoreReport:
    """Pairwise minimum-separation test with torus wraparound.

    A pair's distance is the least lattice distance between their adjacent
    vertices, a primal vertex measured to the closest corner of a dual one
    (a face).  On the cycle of length 2L a primal vertex x sits at 2x and a
    dual vertex at 2x + 1.  The distance is then half the sum, over both
    axes, of the least cyclic gap between the pair's doubled coordinates,
    less 1 when one defect is primal and the other dual.  Every pair must
    keep it >= s; the report names the first closest pair, primal before
    dual, in index order.
    """
    if s < 0:
        raise ValueError("separation must be non-negative")
    L2 = 2 * lat.L
    tagged = [
        (f"{kind}[{i}]", offset, _doubled_axes(p, offset))
        for offset, kind in enumerate(("primal", "dual"))
        for i, p in enumerate(cfg.sites(kind))
    ]

    worst: tuple[int, tuple[str, str]] | None = None
    for (na, oa, axes_a), (nb, ob, axes_b) in itertools.combinations(tagged, 2):
        gaps = sum(
            min(min((a - b) % L2, (b - a) % L2) for a in ca for b in cb)
            for ca, cb in zip(axes_a, axes_b)
        )
        d = gaps // 2 - (oa != ob)
        if worst is None or d < worst[0]:
            worst = (d, (na, nb))
    if worst is None:
        return HardcoreReport(True, None, None)
    d, pair = worst
    return HardcoreReport(d >= s, None if d >= s else pair, d)
