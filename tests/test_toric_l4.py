"""The toric vertical at L = 4 (32 qubits), stored on 4 * 2^15 support rows."""

import time
import tracemalloc

import numpy as np
import pytest

from holoqec import PauliString, correction_condition, distance, logical_action
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


def test_distance_and_correctable_answer_at_l4():
    """delta = L = 4, and every single-edge error is correctable, on the support rows alone.

    The traced peak of the distance call, kernel build included, was 4.3
    blocks; an array over all 2^32 rows would be 512 blocks or more.
    """
    tc = tt.build_code(tt.TorusLattice(4), CFG4, separation=0)  # its kernel is not built yet
    tracemalloc.start()
    try:
        res = distance(tc.code, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * tc.frame.vals.nbytes
    assert res.delta == 4 and res.lower_bound == 4
    assert repr(res.witness) == "PauliString('+" + "ZZZZ" + "I" * 28 + "')"
    rep = correction_condition(tc.code, geolocal_errors(GeoLattice.toric_edges(4), 1, 1))
    assert rep.correctable and rep.witness is None


@pytest.mark.parametrize("s, witness", [(2, (97, 646)), (3, (1, 17116))])
def test_geolocal_scans_answer_at_l4(s, witness):
    """geolocal(2,1) (4 561 errors) and geolocal(3,1) (138 481) fail at pinned pairs.

    Each witness is checked on its own: E_a^dagger E_b preserves the code
    and acts on it as a unitary that is not a scalar.  The traced peak of
    the scan, kernel build included, was 6.2 and 6.4 blocks.
    """
    tc = tt.build_code(tt.TorusLattice(4), tt.DefectConfig((), ()), separation=0)
    es = geolocal_errors(GeoLattice.toric_edges(4), s, 1)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        rep = correction_condition(tc.code, es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 10.0
    assert peak <= 8 * tc.frame.vals.nbytes
    assert not rep.correctable and rep.witness == witness
    a, b = witness
    m = logical_action(tc.code, es[a].dagger() * es[b])
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12
    assert np.max(np.abs(m - m[0, 0] * np.eye(4))) > 0.5
