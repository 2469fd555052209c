"""Acceptance suite: one test per criterion, pinned tolerances and budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here, none deferred.
"""

import json
import time
from pathlib import Path

import numpy as np

import holoqec as hq
from holoqec import toric as tt
from holoqec.cli import main as cli_main
from holoqec.fivequbit import R3, STABILIZER_LABELS, logical_x, logical_z
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY


class Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if elapsed < self.budget else "OVER BUDGET"
        print(
            f"ACCEPTANCE {self.number}: {self.description}: {status} "
            f"({elapsed:.2f}s / budget {self.budget:.0f}s)"
        )
        assert elapsed < self.budget, f"criterion {self.number} exceeded its budget"


def test_criterion_1_five_qubit_distance():
    c = Criterion(1, "five-qubit brute-force distance = 3", 2.0)
    code = hq.five_qubit_code()
    res = hq.distance(code, 3)
    assert res.delta == 3
    assert res.witness is not None and res.witness.weight == 3
    c.done()


def test_criterion_2_correction_condition():
    c = Criterion(2, "weight-1 correctable, weight-2 witnessed failure", 5.0)
    code = hq.five_qubit_code()
    es1 = hq.squdit_errors(5, 1)
    rep1 = hq.correction_condition(code, es1, tol=1e-9)
    assert rep1.correctable

    es2 = hq.squdit_errors(5, 2)
    rep2 = hq.correction_condition(code, es2, tol=1e-9)
    assert not rep2.correctable
    assert rep2.witness is not None
    a, b = rep2.witness
    assert max(es2[a].weight, es2[b].weight) >= 1
    c.done()


def test_criterion_3_trivial_action_probe():
    c = Criterion(3, "100 tangent-algebra exponentials act as unit phases", 10.0)
    code = hq.five_qubit_code()
    basis = hq.fl_lie_algebra(code)
    assert basis.dimension == 5
    rep = hq.check_projectively_trivial_action(
        code, basis, 100, tol=1e-8, rng=np.random.default_rng(101)
    )
    assert rep.ok, f"max residual {rep.max_residual}"
    c.done()


def test_criterion_4_transversal_holonomies():
    c = Criterion(4, "logical X, Z, R3 cycle and stabilizer phases", 5.0)
    code = hq.five_qubit_code()
    xl = hq.logical_action(code, logical_x())
    zl = hq.logical_action(code, logical_z())
    yl = 1j * xl @ zl

    res = hq.transversal_holonomy(code, hq.pauli_generator_path(logical_x()))
    assert res.classification == NONTRIVIAL_LOGICAL
    assert np.max(np.abs(res.logical - xl)) < 1e-8

    res = hq.transversal_holonomy(code, hq.pauli_generator_path(logical_z()))
    assert np.max(np.abs(res.logical - zl)) < 1e-8

    import scipy.linalg

    h = scipy.linalg.logm(R3)
    h = 0.5 * (h - h.conj().T)
    res = hq.transversal_holonomy(code, hq.exponential_path((2,) * 5, [h] * 5))
    m = res.logical
    assert res.classification == NONTRIVIAL_LOGICAL
    assert np.max(np.abs(m @ xl @ m.conj().T - yl)) < 1e-8
    assert np.max(np.abs(m @ yl @ m.conj().T - zl)) < 1e-8
    assert np.max(np.abs(m @ zl @ m.conj().T - xl)) < 1e-8

    for label in STABILIZER_LABELS:
        res = hq.transversal_holonomy(
            code, hq.pauli_generator_path(hq.PauliString.from_label(label))
        )
        assert res.classification == PHASE_ONLY
        assert abs(res.phase - 1.0) < 1e-8
    c.done()


def test_criterion_5_transversal_flatness():
    c = Criterion(5, "50 homotopic transversal path pairs agree up to phase", 30.0)
    code = hq.five_qubit_code()
    endpoints = [hq.PauliString.from_label(s) for s in STABILIZER_LABELS]
    endpoints += [logical_x(), logical_z()]
    rep = hq.flatness_probe_transversal(
        code, endpoints, 50, tol=1e-7, rng=np.random.default_rng(55)
    )
    assert rep.ok, f"max deviation {rep.max_phase_adjusted_deviation}"
    c.done()


def test_criterion_6_toric_builds_and_distances():
    c = Criterion(6, "K = 4 builds (0, 2, 2+2 defects) and distance = L", 60.0)
    lat2, lat3 = tt.TorusLattice(2), tt.TorusLattice(3)

    t2 = tt.build_code(lat2, tt.DefectConfig((), ()), separation=0)
    assert t2.code.K == 4
    t2d = tt.build_code(lat2, tt.DefectConfig(((0, 0), (1, 1)), ()), separation=2)
    assert t2d.code.K == 4

    t3 = tt.build_code(lat3, tt.DefectConfig((), ()), separation=0)
    assert t3.code.K == 4
    t3d = tt.build_code(lat3, tt.DefectConfig(((0, 0), (1, 1)), ()), separation=2)
    assert t3d.code.K == 4
    t3dd = tt.build_code(
        lat3, tt.DefectConfig(((0, 0), (1, 1)), ((1, 2), (2, 1))), separation=1
    )
    assert t3dd.code.K == 4

    assert hq.distance(t2.code, 2).delta == 2
    assert hq.distance(t3.code, 3).delta == 3
    c.done()


def test_criterion_7_toric_monodromy_table():
    c = Criterion(7, "monodromy table: +1, -1, identity swap, logical Paulis", 60.0)
    lat = tt.TorusLattice(3)
    tc = tt.build_code(
        lat, tt.DefectConfig(((0, 0), (0, 2)), ((1, 1), (2, 0))), separation=0
    )

    res, _ = tt.monodromy(tc, [tt.ContractibleLoop(("primal", 0), 1)], tol=1e-8)
    assert res.classification == PHASE_ONLY
    assert abs(res.phase - 1.0) < 1e-8 and res.residual < 1e-8

    res, _ = tt.monodromy(tc, [tt.FullBraid(("primal", 0), ("dual", 0))], tol=1e-8)
    assert res.classification == PHASE_ONLY
    assert abs(res.phase + 1.0) < 1e-8
    assert np.max(np.abs(res.logical + np.eye(4))) < 1e-8

    swap_tc = tt.build_code(
        lat, tt.DefectConfig(((0, 0), (1, 1)), ((1, 2), (2, 1))), separation=0
    )
    res, _ = tt.monodromy(swap_tc, [tt.HalfBraid(("primal", 0), ("primal", 1))])
    assert res.classification == PHASE_ONLY
    assert abs(res.phase - 1.0) < 1e-8

    rh, _ = tt.monodromy(tc, [tt.TorusLoop(("primal", 0), "horizontal")])
    rv, _ = tt.monodromy(tc, [tt.TorusLoop(("dual", 0), "vertical")])
    m, mv = rh.logical, rv.logical
    assert rh.classification == NONTRIVIAL_LOGICAL
    assert np.max(np.abs(m @ m - np.eye(4))) < 1e-8
    assert np.max(np.abs(m - np.eye(4))) > 1e-3
    assert np.max(np.abs(m + np.eye(4))) > 1e-3
    assert np.max(np.abs(m @ mv + mv @ m)) < 1e-8
    c.done()


def test_criterion_8_interpolation_geometry():
    c = Criterion(8, "edge overlaps, face boundaries, diagonal, winding", 20.0)
    lat = tt.TorusLattice(3)
    tc = tt.build_code(lat, tt.DefectConfig(((0, 0), (2, 2)), ()), separation=1)
    e = tt.Edge(0, 0, "h")

    for t, tp in ((0.5, 0.25), (0.15, 0.8), (0.4, 0.45)):
        m = hq.principal_overlap(
            tt.edge_code(tc, "primal", e, t), tt.edge_code(tc, "primal", e, tp)
        )
        svals = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(svals - abs(np.cos(np.pi * (t - tp) / 2)))) < 1e-10

    face = (0, 0)
    tc_d, _ = tt.apply_string(
        tc, tt.StringEvolution((tt.Step("primal", tt.Edge(0, 0, "h")),))
    )
    tc_a, _ = tt.apply_string(
        tc, tt.StringEvolution((tt.Step("primal", tt.Edge(0, 0, "v")),))
    )
    for k in range(1, 20):
        u = k / 20
        checks = [
            (tt.face_code(tc, "primal", face, (u, 0.0)),
             tt.edge_code(tc, "primal", tt.Edge(0, 0, "h"), u)),
            (tt.face_code(tc, "primal", face, (0.0, u)),
             tt.edge_code(tc, "primal", tt.Edge(0, 0, "v"), u)),
            (tt.face_code(tc, "primal", face, (1.0, u)),
             tt.edge_code(tc_d, "primal", tt.Edge(1, 0, "v"), u)),
            (tt.face_code(tc, "primal", face, (u, 1.0)),
             tt.edge_code(tc_a, "primal", tt.Edge(0, 1, "h"), u)),
        ]
        for fb, fe in checks:
            assert hq.subspace_distance(fb, fe) < 1e-9
        # normalization and diagonal continuity
        a, cc, d = tt.lower_coeffs(u, 1.0 - u)
        ap, bp, dp = tt.upper_coeffs(u, 1.0 - u)
        assert abs(abs(a) ** 2 + abs(cc) ** 2 + abs(d) ** 2 - 1) < 1e-12
        assert abs(a - ap) < 1e-12 and abs(bp) < 1e-12 and abs(cc) < 1e-12
        assert abs(d - dp) < 1e-12
        lo = tt.face_code(tc, "primal", face, (u, 1.0 - u))
        up = tt.face_code(tc, "primal", face, (min(1.0, u + 1e-9), 1.0 - u))
        assert hq.subspace_distance(lo, up) < 1e-9

    assert abs(tt.det_winding_check()) < 1e-9
    c.done()


def test_criterion_9_toric_flatness():
    c = Criterion(9, "25 braid words, two routings, equal up to phase", 120.0)
    lat = tt.TorusLattice(3)
    tc = tt.build_code(
        lat, tt.DefectConfig(((0, 0), (0, 2)), ((1, 1), (2, 0))), separation=0
    )
    rep = tt.flatness_probe_toric(tc, 25, tol=1e-7, rng=np.random.default_rng(99))
    worst = rep.max_phase_adjusted_deviation
    assert rep.trials == 25
    assert worst < 1e-7, f"max routing deviation {worst}"
    c.done()


def test_criterion_10_determinism(tmp_path):
    c = Criterion(10, "byte-identical reports across repeats and threads", 120.0)

    def normalized(path):
        doc = json.loads(Path(path).read_text())
        doc["timestamp"] = None
        return json.dumps(doc, sort_keys=True).encode()

    runs = []
    for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "3")):
        out = tmp_path / name
        rc = cli_main(
            ["distance", "--code", "toric:L=2", "--max-weight", "2",
             "--seed", "5", "--threads", threads, "--out", str(out)]
        )
        assert rc == 0
        runs.append(normalized(out))
    assert runs[0] == runs[1] == runs[2]

    runs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        rc = cli_main(
            ["transversal", "flatness", "--trials", "15", "--seed", "21",
             "--out", str(out)]
        )
        assert rc == 0
        runs.append(normalized(out))
    assert runs[0] == runs[1]

    cfg = {
        "L": 3, "s": 0,
        "primal": [[0, 0], [0, 2]], "dual": [[1, 1], [2, 0]],
        "braid": [{"op": "FullBraid", "args": [["primal", 0], ["dual", 0]]}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        rc = cli_main(
            ["toric", "braid", "--config", str(cfg_path), "--seed", "8",
             "--out", str(out)]
        )
        assert rc == 0
        runs.append(normalized(out))
    assert runs[0] == runs[1]
    c.done()
