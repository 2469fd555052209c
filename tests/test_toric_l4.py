"""The toric vertical at L = 4 (32 qubits), stored on 4 * 2^15 support rows."""

import tracemalloc

import numpy as np
import pytest

from holoqec import DenseSizeError, PauliString, correction_condition, distance, logical_action
from holoqec import toric as tt
from holoqec.errors import GeoLattice, geolocal_errors
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY


CFG4 = tt.DefectConfig(((0, 0), (2, 2)), ((2, 1), (0, 3)))


@pytest.fixture(scope="module")
def toric4():
    """Every torus loop of every defect routes under both variants here."""
    return tt.build_code(tt.TorusLattice(4), CFG4, separation=0)


def test_build_peak_stays_near_the_block():
    """The 8 MiB block is filled in sorted order and kept by the Frame without a copy.

    The traced peak was 3.7 blocks with those copies and is 2.3 without.
    """
    tracemalloc.start()
    try:
        tc = tt.build_code(tt.TorusLattice(4), CFG4, separation=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * tc.frame.vals.nbytes


def test_torus_loops_are_logicals_and_crossing_pairs_anticommute(toric4):
    eye = np.eye(4)
    loops = [
        tt.TorusLoop((kind, i), direction)
        for kind in ("primal", "dual")
        for i in range(2)
        for direction in ("horizontal", "vertical")
    ]
    for loop in loops:
        res, _ = tt.monodromy(toric4, [loop])
        assert res.classification == NONTRIVIAL_LOGICAL, loop
        assert res.residual < 1e-8
        assert np.max(np.abs(res.logical @ res.logical - eye)) < 1e-10
    for pair in (
        [tt.TorusLoop(("primal", 0), "horizontal"), tt.TorusLoop(("dual", 0), "vertical")],
        [tt.TorusLoop(("primal", 1), "vertical"), tt.TorusLoop(("dual", 1), "horizontal")],
    ):
        res, _ = tt.monodromy(toric4, pair)
        assert res.classification == NONTRIVIAL_LOGICAL
        assert np.max(np.abs(res.logical @ res.logical + eye)) < 1e-10
    res, _ = tt.monodromy(toric4, [tt.FullBraid(("primal", 0), ("dual", 1))])
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, -1.0)


def test_logical_action_answers_without_the_dense_view():
    """Crossing Z and X cycles of the defect-free L = 4 code are anticommuting logicals."""
    tc = tt.build_code(tt.TorusLattice(4), tt.DefectConfig((), ()), separation=0)
    n, L = tc.n, tc.lat.L
    row = sum(1 << tc.lat.edge_index(tt.Edge(x, 0, "h")) for x in range(L))
    col = sum(1 << tc.lat.edge_index(tt.Edge(0, y, "h")) for y in range(L))
    mz = logical_action(tc.code, PauliString(n, 0, row))
    mx = logical_action(tc.code, PauliString(n, col, 0))
    eye = np.eye(4)
    for m in (mz, mx):
        assert np.max(np.abs(m @ m - eye)) < 1e-12
    assert np.max(np.abs(mz @ mx + mx @ mz)) < 1e-12


def test_flatness_probe(toric4):
    rep = tt.flatness_probe_toric(toric4, 4, tol=1e-7, rng=np.random.default_rng(3))
    assert rep.trials == 4 and rep.ok


def test_face_checks():
    assert tt.face_checks(tt.TorusLattice(4), 1e-7)["ok"]


def test_distance_and_correctable_refuse_the_dense_row_map(toric4):
    with pytest.raises(DenseSizeError):
        distance(toric4.code, 1)
    with pytest.raises(DenseSizeError):
        correction_condition(toric4.code, geolocal_errors(GeoLattice.toric_edges(4), 1, 1))
