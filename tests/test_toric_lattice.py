import itertools

import pytest

from holoqec.toric import (
    ContinuousDefectConfig,
    DefectConfig,
    Edge,
    EdgePos,
    FacePos,
    TorusLattice,
    VertexPos,
    hardcore_check,
)


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
        cfg = ContinuousDefectConfig(
            (FacePos((0, 0), (0.5, 0.5)), VertexPos((1, 1 + offset))), ()
        )
        assert hardcore_check(lat, cfg, s).ok is expected


def test_hardcore_edge_position_adjacency():
    lat = TorusLattice(9)
    cfg = ContinuousDefectConfig(
        (EdgePos(Edge(0, 0, "h"), 0.5), VertexPos((4, 0))), ()
    )
    # adjacent set {(0,0), (1,0)}: distance to (4,0) is 3
    assert hardcore_check(lat, cfg, 3).ok
    assert not hardcore_check(lat, cfg, 4).ok


def test_hardcore_separation_zero_always_passes():
    lat = TorusLattice(3)
    cfg = DefectConfig(((0, 0), (1, 1)), ((0, 0), (1, 1)))
    assert hardcore_check(lat, cfg, 0).ok
