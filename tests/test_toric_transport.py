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
    EdgeSlide,
    FaceMove,
    FullBraid,
    HalfBraid,
    RoutingError,
    Step,
    TorusLoop,
    TransportError,
    compile_braid,
    edge_code,
    face_code,
    monodromy,
    transport_along,
)
from holoqec.toric.strings import step_pauli
from holoqec.toric.transport import _single_generators
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
