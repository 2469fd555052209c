import numpy as np
import pytest

from holoqec import subspace_distance
from holoqec.pauli import PauliString, apply_pauli
from holoqec.toric import (
    DefectConfig,
    Edge,
    InvalidEvolutionError,
    Step,
    StringEvolution,
    apply_string,
    build_code,
)
from holoqec.toric.build import face_mask


def test_validate_single_hop(toric3_two_primal):
    tc = toric3_two_primal
    ev = StringEvolution((Step("primal", Edge(0, 0, "h")),))
    moved, _ = apply_string(tc, ev)
    assert moved.cfg.primal == ((1, 0), (2, 2))


def test_validate_would_create(toric3_two_primal):
    tc = toric3_two_primal
    # edge far from both defects at (0,0) and (2,2)
    ev = StringEvolution((Step("primal", Edge(1, 0, "v")),))
    with pytest.raises(InvalidEvolutionError, match="^step 0: would-create: "):
        apply_string(tc, ev)


def test_validate_would_annihilate(lat3):
    tc = build_code(lat3, DefectConfig(((0, 0), (1, 0)), ()), separation=0)
    ev = StringEvolution((Step("primal", Edge(0, 0, "h")),))
    with pytest.raises(InvalidEvolutionError, match="^step 0: would-annihilate: "):
        apply_string(tc, ev)


def test_validate_hardcore_violation(lat3):
    tc = build_code(lat3, DefectConfig(((0, 0), (1, 1)), ()), separation=2)
    # moving (0,0) -> (1,0) puts it at distance 1 from (1,1)
    ev = StringEvolution((Step("primal", Edge(0, 0, "h")),))
    with pytest.raises(InvalidEvolutionError, match="^step 0: hard-core-violation: "):
        apply_string(tc, ev)


def test_repeated_edge_is_hop_then_reverse(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    ev = StringEvolution((Step("primal", e), Step("primal", e)))
    moved, op = apply_string(tc, ev)
    assert moved.cfg == tc.cfg
    assert op == PauliString.identity(tc.lat.n_edges)
    assert np.array_equal(moved.frame.data, tc.frame.data)


def test_empty_evolution(toric3_two_primal):
    tc = toric3_two_primal
    moved, op = apply_string(tc, StringEvolution(()))
    assert op.weight == 0 and op.phase == 1
    assert moved.cfg == tc.cfg


def test_single_hop_rebuild_oracle(toric3_two_primal):
    tc = toric3_two_primal
    ev = StringEvolution((Step("primal", Edge(0, 0, "h")),))
    moved, op = apply_string(tc, ev)
    assert op == PauliString(tc.lat.n_edges, 0, 1 << tc.lat.edge_index(Edge(0, 0, "h")), 0)
    assert moved.cfg.primal == ((1, 0), (2, 2))
    rebuilt = build_code(tc.lat, moved.cfg, separation=tc.separation)
    assert subspace_distance(moved.frame, rebuilt.frame) < 1e-9


def test_closed_contractible_loop_is_stabilizer_product(toric3_two_primal):
    """A face-boundary walk composes to the plaquette operator, phase +1."""
    tc = toric3_two_primal
    lat = tc.lat
    # walk (0,0) around face (0,0): +x, +y, -x, -y
    steps = (
        Step("primal", Edge(0, 0, "h")),
        Step("primal", Edge(1, 0, "v")),
        Step("primal", Edge(0, 1, "h")),
        Step("primal", Edge(0, 0, "v")),
    )
    moved, op = apply_string(tc, StringEvolution(steps))
    assert moved.cfg == tc.cfg
    assert op == PauliString(lat.n_edges, 0, face_mask(lat, (0, 0)), 0)
    # B_(0,0) is an unflipped stabilizer: acts as exactly +1
    assert np.array_equal(moved.frame.data, apply_pauli(op, tc.frame.data))
    assert np.max(np.abs(moved.frame.data - tc.frame.data)) < 1e-15


def test_apply_rejects_invalid(toric3_two_primal):
    tc = toric3_two_primal
    with pytest.raises(InvalidEvolutionError):
        apply_string(tc, StringEvolution((Step("primal", Edge(1, 0, "v")),)))


def test_dual_hop(lat3):
    cfg = DefectConfig((), ((0, 0), (1, 1)))
    tc = build_code(lat3, cfg, separation=1)
    ev = StringEvolution((Step("dual", Edge(0, 0, "h")),))
    moved, op = apply_string(tc, ev)
    assert moved.cfg.dual == ((1, 0), (1, 1))
    # X on the crossed primal edge
    qubit = tc.lat.edge_index(tc.lat.dual_crossing_qubit(Edge(0, 0, "h")))
    assert op == PauliString(tc.lat.n_edges, 1 << qubit, 0, 0)
    rebuilt = build_code(tc.lat, moved.cfg, separation=1)
    assert subspace_distance(moved.frame, rebuilt.frame) < 1e-9


def test_endpoint_consistency_random_evolutions(toric3_swap, rng):
    """Hop-tracked configuration rebuilds to the transported span."""
    tc = toric3_swap
    lat = tc.lat
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 2000:
        attempts += 1
        cur = tc
        steps = []
        ok = True
        for _ in range(int(rng.integers(1, 6))):
            kind = "primal" if rng.integers(0, 2) == 0 else "dual"
            sites = cur.cfg.sites(kind)
            src = sites[int(rng.integers(0, len(sites)))]
            dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(0, 4))]
            dst = ((src[0] + dx) % lat.L, (src[1] + dy) % lat.L)
            step = Step(kind, lat.connecting_edge(src, dst))
            try:
                cur, _ = apply_string(cur, StringEvolution((step,)))
            except InvalidEvolutionError:
                ok = False
                break
            steps.append(step)
        if not ok or not steps:
            continue
        checked += 1
        rebuilt = build_code(lat, cur.cfg, separation=tc.separation)
        assert subspace_distance(cur.frame, rebuilt.frame) < 1e-9
    assert checked == 100
