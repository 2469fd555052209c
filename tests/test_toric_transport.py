import hashlib

import numpy as np
import pytest

from holoqec import Frame, subspace_distance
from holoqec.pauli import alpha, apply_pauli, beta
from holoqec.toric import (
    ConfigPath,
    ContractibleLoop,
    DefectConfig,
    DiscreteHop,
    Edge,
    EdgePos,
    EdgeSlide,
    FaceMove,
    FullBraid,
    HalfBraid,
    RoutingError,
    Step,
    TorusLoop,
    TransportError,
    apply_string,
    compile_braid,
    edge_code,
    face_code,
    monodromy,
    transport_along,
)
from holoqec.toric.strings import step_pauli
from holoqec.toric.transport import _single_generators, _State
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY


def test_constant_path_identity(toric3_two_primal):
    tc = toric3_two_primal
    out, transcript = transport_along(tc, ConfigPath(()))
    assert np.array_equal(out.data, tc.frame.data)
    assert transcript == []


def test_slide_then_hop_back_identity(toric3_two_primal):
    tc = toric3_two_primal
    path = ConfigPath(
        (
            EdgeSlide("primal", Edge(0, 0, "h"), 0.0, 1.0),
            DiscreteHop(Step("primal", Edge(0, 0, "h"))),
        )
    )
    out, _ = transport_along(tc, path)
    assert np.max(np.abs(out.data - tc.frame.data)) < 1e-12


def test_partial_slides_compose(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    direct, _ = transport_along(tc, ConfigPath((EdgeSlide("primal", e, 0.0, 0.7),)))
    stepped, _ = transport_along(
        tc,
        ConfigPath(
            (
                EdgeSlide("primal", e, 0.0, 0.3),
                EdgeSlide("primal", e, 0.3, 0.7),
            )
        ),
    )
    assert np.max(np.abs(direct.data - stepped.data)) < 1e-12


def test_slide_backwards(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    out, _ = transport_along(
        tc,
        ConfigPath(
            (
                EdgeSlide("primal", e, 0.0, 0.6),
                EdgeSlide("primal", e, 0.6, 0.0),
            )
        ),
    )
    assert np.max(np.abs(out.data - tc.frame.data)) < 1e-12


def test_in_face_loop_trivial(toric3_two_primal):
    tc = toric3_two_primal
    face = (0, 0)
    path = ConfigPath(
        (
            FaceMove("primal", face, (0.0, 0.0), (0.3, 0.4)),
            FaceMove("primal", face, (0.3, 0.4), (0.8, 0.1)),
            FaceMove("primal", face, (0.8, 0.1), (0.2, 0.7)),
            FaceMove("primal", face, (0.2, 0.7), (0.0, 0.0)),
        )
    )
    out, _ = transport_along(tc, path)
    assert np.max(np.abs(out.data - tc.frame.data)) < 1e-12


def test_face_exit_at_other_corner_matches_hops(toric3_two_primal):
    """Crossing a face through its interior lands on the same code as the
    two-hop boundary route (flat within the face union its edges)."""
    tc = toric3_two_primal
    face = (0, 0)
    through, _ = transport_along(
        tc,
        ConfigPath(
            (
                FaceMove("primal", face, (0.0, 0.0), (0.5, 0.5)),
                FaceMove("primal", face, (0.5, 0.5), (1.0, 1.0)),
            )
        ),
    )
    around, _ = transport_along(
        tc,
        ConfigPath(
            (
                DiscreteHop(Step("primal", Edge(0, 0, "h"))),
                DiscreteHop(Step("primal", Edge(1, 0, "v"))),
            )
        ),
    )
    assert subspace_distance(through, around) < 1e-10


def test_face_exit_onto_edge_then_slide(toric3_two_primal):
    tc = toric3_two_primal
    face = (0, 0)
    via_face, _ = transport_along(
        tc,
        ConfigPath(
            (
                FaceMove("primal", face, (0.0, 0.0), (0.4, 0.6)),
                FaceMove("primal", face, (0.4, 0.6), (0.0, 0.5)),  # exit onto edge CA
                EdgeSlide("primal", Edge(0, 0, "v"), 0.5, 0.0),
            )
        ),
    )
    assert np.max(np.abs(via_face.data - tc.frame.data)) < 1e-11


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_dual_slide_equals_edge_code(toric3_two_dual, t):
    tc = toric3_two_dual
    e = Edge(0, 0, "h")  # dual edge from face (0, 0) to face (1, 0)
    out, _ = transport_along(tc, ConfigPath((EdgeSlide("dual", e, 0.0, t),)))
    assert np.array_equal(out.data, edge_code(tc, "dual", e, t).data)


def test_dual_edge_code_equals_dense_combination(toric3_two_dual):
    """The dual sigma is an X: sigma F sits on other rows than F, so the
    slid frame is stored on the union of both row sets."""
    tc = toric3_two_dual
    e, t = Edge(0, 0, "h"), 0.3
    sigma = step_pauli(tc.lat, Step("dual", e))
    dense = tc.frame.data
    got = edge_code(tc, "dual", e, t)
    assert got.rows.size == 2 * tc.frame.rows.size
    assert np.array_equal(got.data, alpha(t) * dense + beta(t) * apply_pauli(sigma, dense))


@pytest.mark.parametrize(
    "face, corner", [((1, 1), (0.0, 0.0)), ((1, 0), (0.0, 1.0))], ids=["from-C", "from-A"]
)
def test_dual_face_move_equals_face_code(toric3_two_dual, face, corner):
    """The dual face centered on a primal vertex has the defect's face (0, 0)
    at corner C for vertex (1, 1) and at corner A for vertex (1, 0)."""
    tc = toric3_two_dual
    xy = (0.3, 0.6)
    out, _ = transport_along(tc, ConfigPath((FaceMove("dual", face, corner, xy),)))
    assert np.array_equal(out.data, face_code(tc, "dual", face, xy).data)


def test_transport_rejects_illegal_hop(toric3_two_primal):
    tc = toric3_two_primal
    with pytest.raises(TransportError):
        transport_along(
            tc, ConfigPath((DiscreteHop(Step("primal", Edge(1, 0, "v"))),))
        )


def test_slide_onto_an_occupied_vertex_is_refused(toric3_braidable):
    """At separation 0 the hard-core check passes, but two primal defects
    may not share a vertex; a hop there is refused as would-annihilate."""
    tc = toric3_braidable  # primal defects at (0, 0) and (0, 2)
    path = ConfigPath(
        (
            EdgeSlide("primal", Edge(0, 0, "v"), 0.0, 1.0),
            EdgeSlide("primal", Edge(0, 1, "v"), 0.0, 1.0),
        )
    )
    with pytest.raises(TransportError, match=r"primal site \(0, 2\) is already occupied"):
        transport_along(tc, path)


def test_face_entry_from_the_wrong_corner_is_refused(toric3_two_primal):
    tc = toric3_two_primal  # primal[0] sits on corner C of face (0, 0)
    with pytest.raises(TransportError, match=r"at \(0.0, 0.0\) in face \(0, 0\)"):
        transport_along(tc, ConfigPath((FaceMove("primal", (0, 0), (1.0, 1.0), (0.3, 0.4)),)))


def test_face_move_from_the_wrong_point_is_refused(toric3_two_primal):
    tc = toric3_two_primal
    path = ConfigPath(
        (
            FaceMove("primal", (0, 0), (0.0, 0.0), (0.3, 0.4)),
            FaceMove("primal", (0, 0), (0.9, 0.9), (0.5, 0.5)),
        )
    )
    with pytest.raises(TransportError, match=r"at \(0.3, 0.4\) in face \(0, 0\)"):
        transport_along(tc, path)
    # within the slide tolerance the stated start is the defect's position
    near = ConfigPath(
        (
            FaceMove("primal", (0, 0), (0.0, 0.0), (0.3, 0.4)),
            FaceMove("primal", (0, 0), (0.3 + 1e-12, 0.4), (0.0, 0.0)),
        )
    )
    out, _ = transport_along(tc, near)
    assert np.max(np.abs(out.data - tc.frame.data)) < 1e-12


@pytest.mark.parametrize(
    "fixture, seg, match",
    [
        (  # both primal defects sit on corners of face (0, 0)
            "toric3_swap",
            FaceMove("primal", (0, 0), (0.0, 0.0), (0.3, 0.3)),
            "need exactly one primal defect on a corner, found 2",
        ),
        (
            "toric3_two_primal",
            FaceMove("primal", (0, 0), (0.0, 0.0), (1.5, 0.3)),
            "face coordinates must lie in the unit square",
        ),
        (
            "toric3_two_primal",
            FaceMove("primal", (0, 0), (0.0, 2.0), (0.3, 0.3)),
            "face coordinates must lie in the unit square",
        ),
    ],
    ids=["entry", "outside", "from-outside"],
)
def test_illegal_face_moves_are_transport_errors(request, fixture, seg, match):
    tc = request.getfixturevalue(fixture)
    with pytest.raises(TransportError, match=match):
        transport_along(tc, ConfigPath((seg,)))


def test_slides_store_wrapped_edges(toric3_two_primal, toric3_braidable):
    tc = toric3_two_primal
    path = ConfigPath(
        (
            EdgeSlide("primal", Edge(3, 0, "v"), 0.0, 0.5),
            EdgeSlide("primal", Edge(0, 0, "v"), 0.5, 0.0),
        )
    )
    out, _ = transport_along(tc, path)
    assert np.max(np.abs(out.data - tc.frame.data)) < 1e-12

    # one point of one edge, named once from each end's defect
    tc = toric3_braidable  # primal defects at (0, 0) and (0, 2), separation 0
    path = ConfigPath(
        (
            EdgeSlide("primal", Edge(0, 2, "v"), 0.0, 0.5),
            EdgeSlide("primal", Edge(0, -1, "v"), 1.0, 0.5),
        )
    )
    with pytest.raises(TransportError, match=r"t=0.5\) is already occupied"):
        transport_along(tc, path)
    mid = EdgePos(Edge(0, 2, "v"), 0.5)
    with pytest.raises(ValueError, match="duplicate primal defects"):
        DefectConfig((mid, mid), ())


def test_slides_locate_vertices_within_the_tolerance(toric3_two_primal):
    tc = toric3_two_primal  # primal[0] at (0, 0), the start of edge (0, 0, v)
    e = Edge(0, 0, "v")
    out, _ = transport_along(tc, ConfigPath((EdgeSlide("primal", e, 1e-12, 0.5),)))
    assert subspace_distance(out, edge_code(tc, "primal", e, 0.5)) < 1e-9
    with pytest.raises(TransportError, match="no primal defect at position t=1e-06"):
        transport_along(tc, ConfigPath((EdgeSlide("primal", e, 1e-6, 0.5),)))


def test_hop_paths_agree_with_apply_string(toric3_braidable, toric3_swap, toric3_two_primal):
    """Every routable single generator, both routings: transport and
    apply_string give the same frame and the same configuration."""
    checked = 0
    for tc in (toric3_braidable, toric3_swap, toric3_two_primal):
        for gen in _single_generators(tc.cfg):
            for variant in (0, 1):
                try:
                    ev, _ = compile_braid(tc.lat, tc.cfg, [gen], tc.separation, variant)
                except RoutingError:
                    continue
                path = ConfigPath.from_evolution(ev)
                out, _ = transport_along(tc, path)
                moved, _ = apply_string(tc, ev)
                assert np.array_equal(out.rows, moved.frame.rows)
                assert np.array_equal(out.vals, moved.frame.vals)
                assert _State(tc).run(path.segments).cfg == moved.cfg
                checked += 1
    assert checked > 20


def _hop_reference(tc, steps, data):
    """Apply each hop's single-site Pauli in turn."""
    for step in steps:
        data = apply_pauli(step_pauli(tc.lat, step), data)
    return data


def test_hop_run_equals_sequential_hops(toric3_braidable):
    tc = toric3_braidable
    word = [FullBraid(("primal", 0), ("dual", 0)), TorusLoop(("dual", 0), "vertical")]
    ev, _ = compile_braid(tc.lat, tc.cfg, word, tc.separation, 0)
    out, transcript = transport_along(tc, ConfigPath.from_evolution(ev))
    assert np.array_equal(out.data, _hop_reference(tc, ev.steps, tc.frame.data))
    assert len(transcript) == len(ev.steps)


def test_hops_around_slide_equal_segment_reference(toric3_braidable):
    """The dual hop's X sits on the edge the primal defect then slides along,
    so it anticommutes with the slide and must reach the frame first."""
    tc = toric3_braidable
    edge = Edge(0, 0, "v")
    before = (Step("primal", Edge(0, 2, "h")), Step("dual", Edge(2, 0, "h")))
    after = (
        Step("primal", edge),
        Step("dual", Edge(2, 0, "h")),
        Step("primal", Edge(0, 2, "h")),
    )
    path = ConfigPath(
        tuple(DiscreteHop(s) for s in before)
        + (EdgeSlide("primal", edge, 0.0, 0.6), EdgeSlide("primal", edge, 0.6, 1.0))
        + tuple(DiscreteHop(s) for s in after)
    )
    out, _ = transport_along(tc, path)

    sigma = step_pauli(tc.lat, Step("primal", edge))
    data = _hop_reference(tc, before, tc.frame.data)
    for d in (0.6, 0.4):
        data = alpha(d) * data + beta(d) * apply_pauli(sigma, data)
    data = _hop_reference(tc, after, data)
    assert np.array_equal(out.data, data)
    assert subspace_distance(out, tc.frame) < 1e-10


def test_hops_before_face_move_equal_segment_reference(toric3_braidable):
    """The dual hop's X sits on edge CA of the face the primal defect then
    crosses, so the face frames must be built after it reaches the frame."""
    tc = toric3_braidable
    hop = Step("dual", Edge(2, 0, "h"))
    face = (
        FaceMove("primal", (0, 0), (0.0, 0.0), (0.5, 0.5)),
        FaceMove("primal", (0, 0), (0.5, 0.5), (1.0, 1.0)),
    )
    out, _ = transport_along(tc, ConfigPath((DiscreteHop(hop),) + face))

    moved = DefectConfig(tc.cfg.primal, ((0, 0), tc.cfg.dual[1]))
    hopped = tc.with_frame(Frame(_hop_reference(tc, (hop,), tc.frame.data)), moved)
    ref, _ = transport_along(hopped, ConfigPath(face))
    assert np.array_equal(out.data, ref.data)


def test_illegal_hop_after_legal_hops_raises(toric3_two_primal):
    tc = toric3_two_primal
    path = ConfigPath(
        (
            DiscreteHop(Step("primal", Edge(0, 0, "h"))),
            DiscreteHop(Step("primal", Edge(1, 0, "v"))),
            DiscreteHop(Step("primal", Edge(0, 0, "v"))),
        )
    )
    with pytest.raises(TransportError, match="would-create"):
        transport_along(tc, path)


def test_monodromy_table(toric3_braidable, toric3_swap):
    tc = toric3_braidable
    res, _ = monodromy(tc, [ContractibleLoop(("primal", 0), 1)])
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, 1.0)
    assert res.residual < 1e-8

    res, _ = monodromy(tc, [FullBraid(("primal", 0), ("dual", 0))])
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, -1.0)

    rh, _ = monodromy(tc, [TorusLoop(("primal", 0), "horizontal")])
    rv, _ = monodromy(tc, [TorusLoop(("dual", 0), "vertical")])
    assert rh.classification == NONTRIVIAL_LOGICAL
    assert rv.classification == NONTRIVIAL_LOGICAL
    m, mv = rh.logical, rv.logical
    assert np.allclose(m @ m, np.eye(4), atol=1e-10)
    assert not np.allclose(m, np.eye(4), atol=1e-6)
    assert not np.allclose(m, -np.eye(4), atol=1e-6)
    assert np.allclose(m @ mv, -mv @ m, atol=1e-10)

    res, _ = monodromy(toric3_swap, [HalfBraid(("primal", 0), ("primal", 1))])
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, 1.0)


def test_monodromy_variants_agree(toric3_braidable):
    tc = toric3_braidable
    for word in (
        [FullBraid(("primal", 0), ("dual", 0))],
        [TorusLoop(("dual", 0), "horizontal")],
    ):
        r0, _ = monodromy(tc, word, variant=0)
        r1, _ = monodromy(tc, word, variant=1)
        assert np.max(np.abs(r0.logical - r1.logical)) < 1e-10


def test_word_composition_matches_product(toric3_braidable):
    tc = toric3_braidable
    w1 = [TorusLoop(("primal", 0), "horizontal")]
    w2 = [TorusLoop(("dual", 0), "vertical")]
    m1 = monodromy(tc, w1)[0].logical
    m2 = monodromy(tc, w2)[0].logical
    m12 = monodromy(tc, w1 + w2)[0].logical
    assert np.max(np.abs(m12 - m2 @ m1)) < 1e-10


MONODROMY_SHA256 = "43c770244b4970ada791ddd3e9da158332d0ef9345e2f97acb12d988b2671873"


def test_monodromies_match_the_pinned_digest(toric3_braidable, toric3_swap, toric3_two_primal):
    """Every single generator on the braid fixtures, under both routings:
    the transcript, the classification and the phase to 1e-9, or the
    routing error's message."""
    h = hashlib.sha256()
    fixtures = {"braidable": toric3_braidable, "swap": toric3_swap, "two_primal": toric3_two_primal}
    for name, tc in fixtures.items():
        for gen in _single_generators(tc.cfg):
            for variant in (0, 1):
                h.update(repr((name, gen, variant)).encode())
                try:
                    res, transcript = monodromy(tc, [gen], variant)
                except RoutingError as err:
                    h.update(repr(("routing", str(err))).encode())
                    continue
                phase = tuple(round(v, 9) + 0.0 for v in (res.phase.real, res.phase.imag))
                h.update(repr((transcript, res.classification, phase)).encode())
    assert h.hexdigest() == MONODROMY_SHA256


FACE_POINTS = (
    ((0.3, 0.4), (0.8, 0.1), (0.2, 0.7)),
    ((0.05, 0.95), (0.5, 0.5), (0.95, 0.05)),
    ((0.9, 0.9), (0.12, 0.2), (0.6, 0.33)),
)
EDGE_POINTS = (((0.3, 0.6), 0.25), ((0.77, 0.12), 0.5), ((0.05, 0.95), 0.95))


def _continuous_paths(two, dual, braid):
    """(name, code, segments): the benchmark's face and edge loops at fixed
    points with every prefix, dual face moves from corners C and A, exits
    onto each boundary edge, and mixed hop / slide / face paths."""
    face = (0, 0)
    out = []
    for n, pts in enumerate(FACE_POINTS):
        loop = ((0.0, 0.0),) + pts + ((0.0, 0.0),)
        segs = tuple(FaceMove("primal", face, a, b) for a, b in zip(loop, loop[1:]))
        out += [(f"face{n}:{k}", two, segs[:k]) for k in range(1, len(segs) + 1)]
    for n, (p, t) in enumerate(EDGE_POINTS):
        for o, exit_xy in (("v", (0.0, t)), ("h", (t, 0.0))):
            segs = (
                FaceMove("primal", face, (0.0, 0.0), p),
                FaceMove("primal", face, p, exit_xy),
                EdgeSlide("primal", Edge(0, 0, o), t, 0.0),
            )
            out += [(f"edge{n}{o}:{k}", two, segs[:k]) for k in (2, 3)]
    for vertex, corner in (((1, 1), (0.0, 0.0)), ((1, 0), (0.0, 1.0))):
        segs = (
            FaceMove("dual", vertex, corner, (0.3, 0.6)),
            FaceMove("dual", vertex, (0.3, 0.6), (0.7, 0.45)),
            FaceMove("dual", vertex, (0.7, 0.45), corner),
        )
        out += [(f"dual{vertex}:{k}", dual, segs[:k]) for k in (1, 3)]
    exits = (
        ((0.0, 0.5), EdgeSlide("primal", Edge(0, 0, "v"), 0.5, 0.0)),  # CA
        ((1.0, 0.3), EdgeSlide("primal", Edge(1, 0, "v"), 0.3, 0.0)),  # DB
        ((0.3, 0.0), EdgeSlide("primal", Edge(0, 0, "h"), 0.3, 1.0)),  # CD
        ((0.7, 1.0), EdgeSlide("primal", Edge(0, 1, "h"), 0.7, 0.0)),  # AB
        ((1.0, 1.0), DiscreteHop(Step("primal", Edge(1, 0, "v")))),  # corner B
    )
    for exit_xy, then in exits:
        segs = (
            FaceMove("primal", face, (0.0, 0.0), (0.4, 0.6)),
            FaceMove("primal", face, (0.4, 0.6), exit_xy),
            then,
        )
        out += [(f"exit{exit_xy}:{k}", two, segs[:k]) for k in (2, 3)]
    mixed = (
        DiscreteHop(Step("primal", Edge(0, 0, "h"))),
        EdgeSlide("primal", Edge(1, 0, "v"), 0.0, 0.4),
        EdgeSlide("primal", Edge(1, 0, "v"), 0.4, 1.0),
        FaceMove("primal", face, (1.0, 1.0), (0.5, 0.5)),
        FaceMove("primal", face, (0.5, 0.5), (0.0, 0.0)),
        DiscreteHop(Step("primal", Edge(0, 0, "v"))),
    )
    out.append(("mixed", two, mixed))
    edge = Edge(0, 0, "v")
    braided = (
        DiscreteHop(Step("primal", Edge(0, 2, "h"))),
        DiscreteHop(Step("dual", Edge(2, 0, "h"))),
        EdgeSlide("primal", edge, 0.0, 0.6),
        EdgeSlide("primal", edge, 0.6, 1.0),
        DiscreteHop(Step("primal", edge)),
        DiscreteHop(Step("dual", Edge(2, 0, "h"))),
        FaceMove("primal", face, (0.0, 0.0), (0.5, 0.5)),
        FaceMove("primal", face, (0.5, 0.5), (1.0, 1.0)),
        DiscreteHop(Step("primal", Edge(1, 0, "v"))),
        DiscreteHop(Step("primal", Edge(0, 0, "h"))),
    )
    out.append(("braided", braid, braided))
    return out


CONTINUOUS_SHA256 = "ca11e066f336e51785299fd3a2f9bf21b09e488d3d24b9c3be4bd4180cd329c6"


def test_continuous_transport_matches_the_pinned_digest(
    toric3_two_primal, toric3_two_dual, toric3_braidable
):
    """Face and edge loops, dual face moves, boundary exits and mixed paths:
    the transcript, the final configuration, and the frame's rows and its
    values rounded to 1e-12."""
    h = hashlib.sha256()
    for name, tc, segs in _continuous_paths(toric3_two_primal, toric3_two_dual, toric3_braidable):
        st = _State(tc).run(segs)
        assert st.frame.rows.size and st.cfg is not None
        h.update(repr((name, st.transcript, st.cfg)).encode())
        h.update(st.frame.rows.tobytes())
        h.update((np.round(st.frame.vals, 12) + 0.0).tobytes())
    assert h.hexdigest() == CONTINUOUS_SHA256
