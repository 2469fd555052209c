"""Compiling braid words on defects into hard-core-legal discrete hop paths.

Routing is deterministic: staircases take minimal wrapped deltas (x before y,
ties toward +).  The second routing variant re-derives the first with a
side-bump through a face checked free of enclosed defects (falling back to a
retraced wiggle), so the two routings of a word are homotopic by
construction, never by accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .lattice import DefectConfig, TorusLattice
from .strings import HOP, Step, StringEvolution, _classify_step

__all__ = [
    "DefectRef",
    "TorusLoop",
    "FullBraid",
    "HalfBraid",
    "ContractibleLoop",
    "BraidWord",
    "RoutingError",
    "compile_braid",
]

DefectRef = tuple[str, int]  # ("primal" | "dual", index)
_OPPOSITE = {"primal": "dual", "dual": "primal"}


@dataclass(frozen=True)
class TorusLoop:
    mover: DefectRef
    direction: str  # "horizontal" | "vertical"


@dataclass(frozen=True)
class FullBraid:
    mover: DefectRef
    around: DefectRef


@dataclass(frozen=True)
class HalfBraid:
    first: DefectRef
    second: DefectRef


@dataclass(frozen=True)
class ContractibleLoop:
    mover: DefectRef
    radius: int = 1


BraidGenerator = Union[TorusLoop, FullBraid, HalfBraid, ContractibleLoop]
BraidWord = Sequence[BraidGenerator]


class RoutingError(RuntimeError):
    pass


def _signed_delta(L: int, a: int, b: int) -> tuple[int, int]:
    """(step sign, step count) for the minimal wrapped move a -> b."""
    d = (b - a) % L
    return (1, d) if 2 * d <= L else (-1, L - d)


def _staircase(L: int, a, b, x_first: bool = True) -> list:
    """Vertex sequence a -> b, x moves then y moves (or swapped)."""
    path = [a]
    x, y = a
    sx, nx = _signed_delta(L, a[0], b[0])
    sy, ny = _signed_delta(L, a[1], b[1])
    legs = [("x", sx, nx), ("y", sy, ny)]
    if not x_first:
        legs.reverse()
    for axis, sgn, cnt in legs:
        for _ in range(cnt):
            if axis == "x":
                x = (x + sgn) % L
            else:
                y = (y + sgn) % L
            path.append((x, y))
    return path


class _Compiler:
    """Threaded compilation state: configuration plus emitted steps."""

    def __init__(self, lat: TorusLattice, cfg: DefectConfig, s: int):
        self.lat = lat
        self.cfg = cfg
        self.s = s
        self.steps: list[Step] = []

    # -- basic moves ---------------------------------------------------------

    def _position(self, ref: DefectRef):
        kind, idx = ref
        sites = self.cfg.sites(kind)
        if not 0 <= idx < len(sites):
            raise RoutingError(f"no such defect {ref}")
        return sites[idx]

    def hop(self, ref: DefectRef, dest) -> None:
        kind, idx = ref
        src = self._position(ref)
        step = Step(kind, self.lat.connecting_edge(src, dest))
        status, detail, nxt = _classify_step(self.lat, self.cfg, step, self.s)
        if status != HOP:
            raise RoutingError(f"hop {src} -> {dest} for {ref}: {status}: {detail}")
        if nxt.sites(kind)[idx] != self.lat.wrap_vertex(dest):
            raise RoutingError(f"hop {src} -> {dest} moved a different defect")
        self.steps.append(step)
        self.cfg = nxt

    def walk(self, ref: DefectRef, vertices) -> None:
        for dest in vertices:
            self.hop(ref, dest)

    def route(self, ref: DefectRef, dest, x_first: bool = True) -> None:
        path = _staircase(self.lat.L, self._position(ref), dest, x_first)
        self.walk(ref, path[1:])

    # -- generators ----------------------------------------------------------

    def torus_loop(self, gen: TorusLoop) -> None:
        kind, _ = gen.mover
        x0, y0 = self._position(gen.mover)
        L = self.lat.L
        if gen.direction == "horizontal":
            ring = [((x0 + i) % L, y0) for i in range(1, L + 1)]
        elif gen.direction == "vertical":
            ring = [(x0, (y0 + i) % L) for i in range(1, L + 1)]
        else:
            raise ValueError(f"unknown torus direction {gen.direction!r}")
        self.walk(gen.mover, ring)

    def _ring(self, corner, r: int) -> list:
        """Counterclockwise perimeter of an r x r face block from its corner."""
        L = self.lat.L
        bx, by = corner
        out = []
        x, y = bx, by
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            for _ in range(r):
                x, y = (x + dx) % L, (y + dy) % L
                out.append((x, y))
        return out

    def _block_clear(self, kind: str, corner, r: int, allow=()) -> bool:
        """No enclosed defects: opposite-type sites inside the r x r block (up
        to ``allow``) and same-type sites strictly inside the perimeter.

        A primal ring with lower-left corner (bx, by) encloses the faces at
        the same coordinates; a dual ring encloses the primal vertices offset
        by +1 (the centers of the enclosed dual plaquettes).
        """
        L = self.lat.L
        bx, by = corner
        off = 0 if kind == "primal" else 1
        block = {
            ((bx + i + off) % L, (by + j + off) % L)
            for i in range(r)
            for j in range(r)
        }
        opposite = set(self.cfg.sites(_OPPOSITE[kind]))
        if (opposite & block) - set(allow):
            return False
        interior = {
            ((bx + i) % L, (by + j) % L)
            for i in range(1, r)
            for j in range(1, r)
        }
        same = set(self.cfg.sites(kind))
        return not (same & interior)

    def contractible_loop(self, gen: ContractibleLoop) -> None:
        kind, _ = gen.mover
        r = gen.radius
        if r < 1:
            raise ValueError("loop radius must be positive")
        x0, y0 = self._position(gen.mover)
        last_err = None
        for ox, oy in ((0, 0), (-r, 0), (0, -r), (-r, -r)):
            corner = ((x0 + ox) % self.lat.L, (y0 + oy) % self.lat.L)
            if not self._block_clear(kind, corner, r):
                continue
            ring = self._ring(corner, r)
            start = ring.index((x0, y0)) if (x0, y0) in ring else None
            if start is None:
                continue
            rotated = ring[start + 1 :] + ring[: start + 1]
            saved_cfg, saved_steps = self.cfg, list(self.steps)
            try:
                self.walk(gen.mover, rotated)
                return
            except RoutingError as err:
                last_err = err
                self.cfg, self.steps = saved_cfg, saved_steps
        raise RoutingError(f"no clear contractible loop at {gen.mover}: {last_err}")

    def full_braid(self, gen: FullBraid) -> None:
        mk, _ = gen.mover
        ak, _ = gen.around
        src = self._position(gen.mover)
        target = self._position(gen.around)
        tx, ty = target
        L = self.lat.L
        if mk == ak:
            corner, r = ((tx - 1) % L, (ty - 1) % L), 2
        elif mk == "primal":  # dual defect on face (tx, ty): walk its corners
            corner, r = (tx, ty), 1
        else:  # primal defect at vertex: walk the surrounding dual plaquette
            corner, r = ((tx - 1) % L, (ty - 1) % L), 1
        if not self._block_clear(mk, corner, r, allow=(target,)):
            raise RoutingError(f"braid block around {gen.around} is not clean")
        ring = self._ring(corner, r)
        dists = [self.lat.vertex_distance(src, v) for v in ring]
        entry = dists.index(min(dists))
        tail = _staircase(L, src, ring[entry], x_first=True)
        self.walk(gen.mover, tail[1:])
        rotated = ring[entry + 1 :] + ring[: entry + 1]
        self.walk(gen.mover, rotated)
        self.walk(gen.mover, list(reversed(tail))[1:])

    def half_braid(self, gen: HalfBraid) -> None:
        ka, _ = gen.first
        kb, _ = gen.second
        if ka != kb:
            raise RoutingError("half braids swap defects of the same type")
        pa = self._position(gen.first)
        pb = self._position(gen.second)
        route_a = _staircase(self.lat.L, pa, pb, x_first=True)[1:]
        route_b = _staircase(self.lat.L, pb, pa, x_first=True)[1:]
        ia = ib = 0
        while ia < len(route_a) or ib < len(route_b):
            advanced = False
            for ref, route, i in ((gen.first, route_a, ia), (gen.second, route_b, ib)):
                if i >= len(route):
                    continue
                try:
                    self.hop(ref, route[i])
                except RoutingError:
                    continue
                if ref == gen.first:
                    ia += 1
                else:
                    ib += 1
                advanced = True
                break
            if not advanced:
                raise RoutingError(
                    f"half-braid scheduler stuck at {gen.first}/{gen.second}"
                )

    def run(self, word: BraidWord) -> None:
        for gen in word:
            if isinstance(gen, TorusLoop):
                self.torus_loop(gen)
            elif isinstance(gen, FullBraid):
                self.full_braid(gen)
            elif isinstance(gen, HalfBraid):
                self.half_braid(gen)
            elif isinstance(gen, ContractibleLoop):
                self.contractible_loop(gen)
            else:
                raise TypeError(f"unknown braid generator {gen!r}")


# -- variant 1: locally-certified homotopic reroute ---------------------------

_DIRS = {(1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y"}


def _hop_vector(L: int, src, dst) -> tuple[int, int] | None:
    dx = (dst[0] - src[0]) % L
    dy = (dst[1] - src[1]) % L
    dx = dx - L if dx > L // 2 else dx
    dy = dy - L if dy > L // 2 else dy
    return (dx, dy) if (dx, dy) in _DIRS else None


def _bump_detour(L: int, src, dst, side) -> list:
    """Three-hop detour src -> src+side -> dst+side -> dst."""
    sx, sy = side
    return [
        ((src[0] + sx) % L, (src[1] + sy) % L),
        ((dst[0] + sx) % L, (dst[1] + sy) % L),
        dst,
    ]


def _enclosed_site(kind: str, L: int, src, vec, side):
    """The opposite-lattice site between a hop and its bumped detour.

    The four visited sites are src plus the offsets {0, vec, side, vec+side}.
    For a primal hop the enclosed face has its lower-left corner at the
    minimal offsets; for a dual hop the enclosed dual plaquette is centered
    at the primal vertex at the maximal offsets.
    """
    if kind == "primal":
        ox = min(0, vec[0], side[0])
        oy = min(0, vec[1], side[1])
    else:
        ox = max(0, vec[0], side[0])
        oy = max(0, vec[1], side[1])
    return ((src[0] + ox) % L, (src[1] + oy) % L)


def _rebuild_with_bump(
    lat: TorusLattice, cfg: DefectConfig, s: int, steps: list[Step]
) -> list[Step] | None:
    """Replace the first bumpable hop with a homotopic 3-hop detour."""
    cur = cfg  # the configuration before steps[k]
    for k, step in enumerate(steps):
        kind = step.kind
        a, b = lat.edge_endpoints(step.edge)
        sites = cur.sites(kind)
        if (a in sites) == (b in sites):
            return None
        src, dst = (a, b) if a in sites else (b, a)
        idx = sites.index(src)
        vec = _hop_vector(lat.L, src, dst)
        sides = [] if vec is None else [(0, 1), (0, -1)] if vec[1] == 0 else [(1, 0), (-1, 0)]
        opposite = set(cur.sites(_OPPOSITE[kind]))
        for side in sides:
            if _enclosed_site(kind, lat.L, src, vec, side) in opposite:
                continue
            trial = _Compiler(lat, cur, s)
            trial.steps = steps[:k]
            try:
                trial.walk((kind, idx), _bump_detour(lat.L, src, dst, side))
                for st in steps[k + 1 :]:
                    status, detail, nxt = _classify_step(lat, trial.cfg, st, s)
                    if status != HOP:
                        raise RoutingError(detail)
                    trial.steps.append(st)
                    trial.cfg = nxt
            except RoutingError:
                continue
            return trial.steps
        status, _, cur = _classify_step(lat, cur, step, s)
        if status != HOP:
            return None
    return None


def _append_wiggle(
    lat: TorusLattice, end: DefectConfig, s: int, steps: list[Step]
) -> list[Step]:
    """Retrace one legal edge twice at ``end``, where ``steps`` leave the
    defects: a distinct, exactly-null decoration."""
    for kind, sites in (("primal", end.primal), ("dual", end.dual)):
        for idx, pos in enumerate(sites):
            neighbors = [
                ((pos[0] + dx) % lat.L, (pos[1] + dy) % lat.L)
                for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
            ]
            for dest in neighbors:
                trial = _Compiler(lat, end, s)
                try:
                    trial.hop((kind, idx), dest)
                    trial.hop((kind, idx), pos)
                except RoutingError:
                    continue
                return steps + trial.steps
    raise RoutingError("no legal wiggle available")


def compile_braid(
    lat: TorusLattice,
    cfg: DefectConfig,
    word: BraidWord,
    s: int,
    variant: int = 0,
) -> tuple[StringEvolution, DefectConfig]:
    """Compile a braid word to a hop path, hard-core valid throughout.

    variant 0 is the canonical routing; variant 1 is the same word re-routed
    through a certified defect-free side bump (or, failing that, decorated
    with a retraced wiggle), hence homotopic to variant 0 by construction.
    """
    comp = _Compiler(lat, cfg, s)
    comp.run(word)
    steps = comp.steps
    if variant == 1:
        bumped = _rebuild_with_bump(lat, cfg, s, steps)
        steps = bumped if bumped is not None else _append_wiggle(lat, comp.cfg, s, steps)
    elif variant != 0:
        raise ValueError("variant must be 0 or 1")
    return StringEvolution(tuple(steps)), comp.cfg
