"""Periodic L x L square lattice, its dual, and defect configurations.

Edges carry the qubits.  Horizontal edge (x, y, 'h') runs (x,y) -> (x+1,y),
vertical edge (x, y, 'v') runs (x,y) -> (x,y+1); all orientations follow +x
or +y so every face looks the same.  Dual vertices are the faces; a dual edge
is indexed by the face it leaves in the +x or +y direction and crosses one
primal edge, which is the qubit an X-string step acts on.  Dual edge
(x, y, o) therefore joins faces exactly as primal edge (x, y, o) joins
vertices, so ``edge_endpoints`` and ``connecting_edge`` serve both lattices;
only the crossed qubit (``dual_crossing_qubit``) differs.

Primal defects live on the primal lattice (vertices, edge interiors, face
interiors); dual defects live on the dual lattice, with positions expressed
in dual coordinates (a dual vertex (x, y) is the face (x, y) of the primal
lattice).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

__all__ = [
    "Edge",
    "TorusLattice",
    "VertexPos",
    "EdgePos",
    "FacePos",
    "DefectConfig",
    "ContinuousDefectConfig",
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

    def vertex_face_distance(self, v: Vertex, f: Face) -> int:
        """Distance from a vertex to the closest corner of a face."""
        return min(self.vertex_distance(v, c) for c in self.face_corners(f))


# -- defect positions ----------------------------------------------------------


@dataclass(frozen=True)
class VertexPos:
    """On a vertex of the defect's own lattice (a face of the primal lattice,
    in primal coordinates, when the defect is dual)."""

    v: Vertex


@dataclass(frozen=True)
class EdgePos:
    edge: Edge
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


Position = Union[VertexPos, EdgePos, FacePos]


def _adjacent_vertices(lat: TorusLattice, pos: Position) -> list[Vertex]:
    """Vertices of the defect's own lattice adjacent to its position."""
    if isinstance(pos, VertexPos):
        return [lat.wrap_vertex(pos.v)]
    if isinstance(pos, EdgePos):
        a, b = lat.edge_endpoints(pos.edge)
        return [a, b]
    x, y = pos.face
    return [lat.wrap_vertex((x + dx, y + dy)) for dx in (0, 1) for dy in (0, 1)]


class _Sites:
    """Defect lists selected by kind: ``primal`` or ``dual``."""

    def sites(self, kind: str) -> tuple:
        if kind not in ("primal", "dual"):
            raise ValueError(f"defect kind must be 'primal' or 'dual', not {kind!r}")
        return getattr(self, kind)

    def move(self, kind: str, i: int, pos):
        """A copy with defect ``i`` of ``kind`` at ``pos``."""
        new = list(self.sites(kind))
        new[i] = pos
        return replace(self, **{kind: tuple(new)})


@dataclass(frozen=True)
class DefectConfig(_Sites):
    """Discrete defect locations: primal on vertices, dual on faces."""

    primal: tuple[Vertex, ...]
    dual: tuple[Face, ...]

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

    def to_continuous(self) -> "ContinuousDefectConfig":
        return ContinuousDefectConfig(
            tuple(VertexPos(v) for v in self.primal),
            tuple(VertexPos(f) for f in self.dual),
        )


@dataclass(frozen=True)
class ContinuousDefectConfig(_Sites):
    """Defects anywhere on the torus: vertex, edge interior, or face interior."""

    primal: tuple[Position, ...]
    dual: tuple[Position, ...]


@dataclass(frozen=True)
class HardcoreReport:
    ok: bool
    violating_pair: tuple[str, str] | None
    min_distance: int | None


def _typed_distance(
    lat: TorusLattice, kind_a: str, va: Vertex, kind_b: str, vb: Vertex
) -> int:
    """Distance between lattice vertices of possibly different lattices.

    Dual vertices are faces; a primal-to-dual distance is the distance from
    the vertex to the closest corner of the face.
    """
    if kind_a == kind_b:
        return lat.vertex_distance(va, vb)
    if kind_a == "primal":
        return lat.vertex_face_distance(va, vb)
    return lat.vertex_face_distance(vb, va)


def hardcore_check(
    lat: TorusLattice,
    cfg: DefectConfig | ContinuousDefectConfig,
    s: int,
) -> HardcoreReport:
    """Pairwise minimum-separation test with torus wraparound.

    Each defect contributes its set of adjacent lattice vertices (itself, the
    ends of its edge, or the corners of its face); every cross-pair of those
    vertices must keep lattice distance >= s.
    """
    if s < 0:
        raise ValueError("separation must be non-negative")
    if isinstance(cfg, DefectConfig):
        cfg = cfg.to_continuous()
    tagged: list[tuple[str, str, list[Vertex]]] = []
    for i, p in enumerate(cfg.primal):
        tagged.append(("primal", f"primal[{i}]", _adjacent_vertices(lat, p)))
    for i, p in enumerate(cfg.dual):
        tagged.append(("dual", f"dual[{i}]", _adjacent_vertices(lat, p)))

    worst: tuple[int, tuple[str, str]] | None = None
    for (ka, na, va), (kb, nb, vb) in itertools.combinations(tagged, 2):
        d = min(
            _typed_distance(lat, ka, a, kb, b) for a in va for b in vb
        )
        if worst is None or d < worst[0]:
            worst = (d, (na, nb))
    if worst is None:
        return HardcoreReport(True, None, None)
    d, pair = worst
    return HardcoreReport(d >= s, None if d >= s else pair, d)
