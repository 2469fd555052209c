import pytest

from holoqec.pauli import PauliString, pauli_mul
from holoqec.toric import (
    ContractibleLoop,
    DefectConfig,
    FullBraid,
    HalfBraid,
    RoutingError,
    TorusLoop,
    apply_string,
    compile_braid,
)
from holoqec.toric.strings import step_pauli


def net_cycle_edges(lat, ev):
    """Edge indices applied an odd number of times (the net string support)."""
    counts = {}
    for st in ev.steps:
        p = step_pauli(lat, st)
        (idx,) = p.support
        counts[idx] = counts.get(idx, 0) + 1
    return {i for i, c in counts.items() if c % 2}


def fill_faces(lat, z_edges):
    """2-chain with the given primal-edge boundary, via row-by-row parity.

    Independent enclosure oracle: integrate crossing parities of vertical
    cuts; valid only for null-homologous cycles, which the caller asserts.
    """
    L = lat.L
    from holoqec.toric import Edge

    pot = {}
    for y in range(L):
        # potential difference across the vertical edge between face (x,y)
        # and (x+1,y) is the parity of that shared edge in the cycle
        row = [0]
        for x in range(L - 1):
            e = Edge(x + 1, y, "v")
            row.append(row[-1] ^ (1 if lat.edge_index(e) in z_edges else 0))
        for x in range(L):
            pot[(x, y)] = row[x]
    # fix row offsets using horizontal-edge parities between face rows
    offset = 0
    offsets = {0: 0}
    for y in range(L - 1):
        e = Edge(0, y + 1, "h")
        offset ^= 1 if lat.edge_index(e) in z_edges else 0
        offsets[y + 1] = offset
    return {f for f, p in pot.items() if p ^ offsets[f[1]]}


def test_empty_word(toric3_braidable):
    tc = toric3_braidable
    ev, end = compile_braid(tc.lat, tc.cfg, [], tc.separation)
    assert len(ev) == 0 and end == tc.cfg


def test_torus_loop_length_and_closure(toric3_braidable):
    tc = toric3_braidable
    ev, end = compile_braid(
        tc.lat, tc.cfg, [TorusLoop(("primal", 0), "horizontal")], tc.separation
    )
    assert len(ev) == tc.lat.L
    assert end == tc.cfg
    assert apply_string(tc, ev)[0].cfg == end


def test_full_braid_encloses_exactly_one_dual(toric3_braidable):
    tc = toric3_braidable
    lat = tc.lat
    ev, end = compile_braid(
        lat, tc.cfg, [FullBraid(("primal", 0), ("dual", 0))], tc.separation
    )
    assert end == tc.cfg
    cyc = net_cycle_edges(lat, ev)
    region = fill_faces(lat, cyc)
    enclosed = set(tc.cfg.dual) & region
    complement_enclosed = set(tc.cfg.dual) - region
    # a null-homologous cycle defines the region up to complement
    assert {len(enclosed), len(complement_enclosed)} == {1}


def test_full_braid_operator_is_flipped_plaquette(toric3_braidable):
    tc = toric3_braidable
    lat = tc.lat
    ev, _ = compile_braid(
        lat, tc.cfg, [FullBraid(("primal", 0), ("dual", 0))], tc.separation
    )
    total = PauliString.identity(lat.n_edges)
    for st in ev.steps:
        total = pauli_mul(step_pauli(lat, st), total)
    from holoqec.toric.build import face_mask

    assert total == PauliString(lat.n_edges, 0, face_mask(lat, tc.cfg.dual[0]), 0)


def test_half_braid_swaps_positions(toric3_swap):
    tc = toric3_swap
    ev, end = compile_braid(
        tc.lat, tc.cfg, [HalfBraid(("primal", 0), ("primal", 1))], tc.separation
    )
    assert set(end.primal) == set(tc.cfg.primal)
    assert end.primal != tc.cfg.primal  # actually swapped
    assert apply_string(tc, ev)[0].cfg == end


def test_half_braid_requires_same_type(toric3_braidable):
    tc = toric3_braidable
    with pytest.raises(RoutingError):
        compile_braid(
            tc.lat, tc.cfg, [HalfBraid(("primal", 0), ("dual", 0))], tc.separation
        )


def test_contractible_loop_avoids_defects(toric3_braidable):
    tc = toric3_braidable
    ev, end = compile_braid(
        tc.lat, tc.cfg, [ContractibleLoop(("primal", 0), 1)], tc.separation
    )
    assert end == tc.cfg
    cyc = net_cycle_edges(tc.lat, ev)
    region = fill_faces(tc.lat, cyc)
    enclosed = set(tc.cfg.dual) & region
    assert min(len(enclosed), len(set(tc.cfg.dual) - region)) == 0


def test_dual_mover_full_braid(toric3_braidable):
    tc = toric3_braidable
    # braid around primal 1 at (0,2): the dual plaquette around primal 0 at
    # (0,0) holds the parked dual defect, so that route is rightly refused
    ev, end = compile_braid(
        tc.lat, tc.cfg, [FullBraid(("dual", 0), ("primal", 1))], tc.separation
    )
    assert end == tc.cfg
    assert apply_string(tc, ev)[0].cfg == end
    with pytest.raises(RoutingError):
        compile_braid(
            tc.lat, tc.cfg, [FullBraid(("dual", 0), ("primal", 0))], tc.separation
        )


def test_variant_routings_differ_but_agree(toric3_braidable):
    tc = toric3_braidable
    for word in (
        [TorusLoop(("primal", 0), "horizontal")],
        [FullBraid(("primal", 0), ("dual", 0))],
        [ContractibleLoop(("dual", 1), 1)],
    ):
        ev0, end0 = compile_braid(tc.lat, tc.cfg, word, tc.separation, 0)
        ev1, end1 = compile_braid(tc.lat, tc.cfg, word, tc.separation, 1)
        assert end0 == end1
        assert ev0.steps != ev1.steps
        assert apply_string(tc, ev1)[0].cfg == end1


def test_routing_error_when_blocked(lat3):
    # a primal defect with every neighbor at annihilation range cannot loop
    cfg = DefectConfig(((0, 0), (1, 0), (2, 0), (0, 1)), ())
    with pytest.raises(RoutingError):
        compile_braid(lat3, cfg, [TorusLoop(("primal", 0), "horizontal")], 0)
