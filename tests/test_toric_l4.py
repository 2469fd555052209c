"""The toric vertical at L = 4 (32 qubits), stored on 4 * 2^15 support rows."""

import numpy as np
import pytest

from holoqec import DenseSizeError, correction_condition, distance
from holoqec import toric as tt
from holoqec.errors import GeoLattice, geolocal_errors
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY


@pytest.fixture(scope="module")
def toric4():
    """Every torus loop of every defect routes under both variants here."""
    cfg = tt.DefectConfig(((0, 0), (2, 2)), ((2, 1), (0, 3)))
    return tt.build_code(tt.TorusLattice(4), cfg, separation=0)


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
