import itertools

import numpy as np
import pytest

import holoqec.toric.strings
from holoqec.toric import (
    DefectConfig,
    Edge,
    EdgePos,
    FacePos,
    HardcoreReport,
    RoutingError,
    TorusLattice,
    compile_braid,
    hardcore_check,
)
from holoqec.toric.transport import _single_generators


def test_edge_count_and_indexing():
    for L in (2, 3, 5):
        lat = TorusLattice(L)
        assert lat.n_edges == 2 * L * L
        idxs = [lat.edge_index(e) for e in lat.edges()]
        assert sorted(idxs) == list(range(2 * L * L))


def test_incidence_consistency():
    lat = TorusLattice(3)
    for v in lat.vertices():
        star = lat.vertex_star(v)
        assert len(set(star)) == 4
        for e in star:
            assert v in lat.edge_endpoints(e)
    for f in lat.faces():
        boundary = lat.face_boundary(f)
        assert len(set(boundary)) == 4
        corners = set(lat.face_corners(f))
        assert len(corners) == 4
        for e in boundary:
            a, b = lat.edge_endpoints(e)
            assert a in corners and b in corners


def test_every_face_looks_the_same():
    """Uniform orientation: each face's boundary runs +x/+x/+y/+y."""
    lat = TorusLattice(4)
    for f in lat.faces():
        bottom, top, left, right = lat.face_boundary(f)
        assert bottom.o == top.o == "h"
        assert left.o == right.o == "v"


def test_dual_crossing_is_shared_edge():
    lat = TorusLattice(3)
    for e in lat.edges():
        f1, f2 = lat.edge_endpoints(e)  # the faces a dual edge joins
        crossing = lat.dual_crossing_qubit(e)
        assert crossing in lat.face_boundary(f1)
        assert crossing in lat.face_boundary(f2)


def test_metric_symmetry_and_triangle():
    lat = TorusLattice(5)
    verts = lat.vertices()
    for a, b, c in itertools.islice(itertools.product(verts, repeat=3), 0, 2000, 7):
        assert lat.vertex_distance(a, b) == lat.vertex_distance(b, a)
        assert lat.vertex_distance(a, c) <= lat.vertex_distance(a, b) + lat.vertex_distance(b, c)


def test_wraparound_distance():
    lat = TorusLattice(3)
    assert lat.vertex_distance((0, 0), (2, 0)) == 1  # wraps
    assert lat.vertex_distance((0, 0), (1, 1)) == 2
    lat8 = TorusLattice(8)
    assert lat8.vertex_distance((0, 0), (3, 0)) == 3


def test_defect_config_parity_and_duplicates():
    with pytest.raises(ValueError):
        DefectConfig(((0, 0),), ())
    with pytest.raises(ValueError):
        DefectConfig(((0, 0), (0, 0)), ())
    DefectConfig(((0, 0), (1, 1)), ())


def test_defect_config_sites_and_move():
    cfg = DefectConfig(((0, 0), (1, 1)), ((0, 0), (2, 2)))
    assert cfg.sites("primal") == ((0, 0), (1, 1))
    assert cfg.sites("dual") == ((0, 0), (2, 2))
    assert cfg.move("dual", 1, (2, 0)) == DefectConfig(cfg.primal, ((0, 0), (2, 0)))
    assert cfg.move("primal", 0, (2, 2)) == DefectConfig(((2, 2), (1, 1)), cfg.dual)
    with pytest.raises(ValueError):
        cfg.move("primal", 0, (1, 1))  # onto the other primal defect
    with pytest.raises(ValueError):
        cfg.sites("vertex")


def test_hardcore_distance_three_pair_passes():
    lat = TorusLattice(8)
    cfg = DefectConfig(((0, 0), (3, 0)), ())
    assert hardcore_check(lat, cfg, 3).ok
    cfg = DefectConfig(((0, 0), (2, 0)), ())
    rep = hardcore_check(lat, cfg, 3)
    assert not rep.ok and rep.min_distance == 2


def test_hardcore_primal_on_dual_corner_fails():
    lat = TorusLattice(8)
    # dual defect on face (0,0): its corners include vertex (0,0)
    cfg = DefectConfig(((0, 0), (4, 4)), ((0, 0), (4, 0)))
    rep = hardcore_check(lat, cfg, 3)
    assert not rep.ok
    assert rep.min_distance == 0


def test_hardcore_face_position_adjacency():
    """A defect inside a face counts all four corners as adjacent."""
    lat = TorusLattice(9)
    # moving primal defect inside face (0,0): its corner (1,1) is the closest
    # vertex to a partner at (1, 1+s)
    s = 3
    for offset, expected in ((s, True), (s - 1, False)):
        cfg = DefectConfig((FacePos((0, 0), (0.5, 0.5)), (1, 1 + offset)), ())
        assert hardcore_check(lat, cfg, s).ok is expected


def test_hardcore_edge_position_adjacency():
    lat = TorusLattice(9)
    cfg = DefectConfig((EdgePos(Edge(0, 0, "h"), 0.5), (4, 0)), ())
    # adjacent set {(0,0), (1,0)}: distance to (4,0) is 3
    assert hardcore_check(lat, cfg, 3).ok
    assert not hardcore_check(lat, cfg, 4).ok


def test_hardcore_separation_zero_always_passes():
    lat = TorusLattice(3)
    cfg = DefectConfig(((0, 0), (1, 1)), ((0, 0), (1, 1)))
    assert hardcore_check(lat, cfg, 0).ok


# -- oracle: every cross pair of every defect pair's adjacent vertices ---------


def _reference_hardcore(lat, cfg, s):
    """The all-pairs check: the least distance over every pair of adjacent
    vertices, a dual vertex (a face) measured to its closest corner."""

    def adjacent(p):
        if isinstance(p, EdgePos):
            return list(lat.edge_endpoints(p.edge))
        if isinstance(p, FacePos):
            return lat.face_corners(p.face)
        return [lat.wrap_vertex(p)]

    def distance(ka, a, kb, b):
        if ka == kb:
            return lat.vertex_distance(a, b)
        v, f = (a, b) if ka == "primal" else (b, a)
        return min(lat.vertex_distance(v, c) for c in lat.face_corners(f))

    tagged = [
        (kind, f"{kind}[{i}]", adjacent(p))
        for kind in ("primal", "dual")
        for i, p in enumerate(cfg.sites(kind))
    ]
    worst = None
    for (ka, na, va), (kb, nb, vb) in itertools.combinations(tagged, 2):
        d = min(distance(ka, a, kb, b) for a in va for b in vb)
        if worst is None or d < worst[0]:
            worst = (d, (na, nb))
    if worst is None:
        return HardcoreReport(True, None, None)
    d, pair = worst
    return HardcoreReport(d >= s, None if d >= s else pair, d)


def _random_position(rng, L):
    x, y = (int(c) for c in rng.integers(0, L, size=2))
    shape = int(rng.integers(0, 3))
    if shape == 0:
        return (x, y)
    if shape == 1:
        return EdgePos(Edge(x, y, "hv"[int(rng.integers(0, 2))]), float(rng.uniform(0.01, 0.99)))
    return FacePos((x, y), tuple(float(c) for c in rng.uniform(0.0, 1.0, size=2)))


def test_hardcore_matches_the_all_pairs_reference_on_random_configs():
    rng = np.random.default_rng(26)
    for _ in range(2000):
        L = int(rng.integers(2, 8))
        lat = TorusLattice(L)
        primal, dual = (
            tuple(_random_position(rng, L) for _ in range(2 * int(rng.integers(0, 3))))
            for _ in range(2)
        )
        if len(set(primal)) < len(primal) or len(set(dual)) < len(dual):
            continue
        cfg = DefectConfig(primal, dual)
        for s in range(5):
            assert hardcore_check(lat, cfg, s) == _reference_hardcore(lat, cfg, s), (L, cfg, s)


def test_hardcore_matches_the_all_pairs_reference_on_braid_routes(
    monkeypatch, toric3_braidable, toric3_swap, toric3_two_primal
):
    """Every configuration the routable single generators test, both routings."""
    reached = set()

    def recording(lat, cfg, s):
        reached.add((lat, cfg))
        return hardcore_check(lat, cfg, s)

    monkeypatch.setattr(holoqec.toric.strings, "hardcore_check", recording)
    for tc in (toric3_braidable, toric3_swap, toric3_two_primal):
        for gen in _single_generators(tc.cfg):
            for variant in (0, 1):
                try:
                    compile_braid(tc.lat, tc.cfg, [gen], tc.separation, variant)
                except RoutingError:
                    pass
    assert len(reached) > 50
    for lat, cfg in reached:
        for s in range(5):
            assert hardcore_check(lat, cfg, s) == _reference_hardcore(lat, cfg, s), (cfg, s)
