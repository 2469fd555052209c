"""The three workloads: fixtures, seeded request decks, and expected answers.

A workload is set up once (fixtures built through the Api, so set-up time is
the library's) and then served as a closed loop of *decks*.  A deck holds a
fixed number of requests of each kind, shuffled by the seed; the seed also
draws the concrete inputs (braid words, loop points, unitaries, seeds handed
to the CLI).  Fixed deck composition keeps the request mix, and so every
end-to-end figure, the same from seed to seed; the stream always ends on a
deck boundary.

Every request carries its expected answer, taken from the paper's table or
the test suite, and a check that names the first thing that disagrees.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import holoqec as hq
from holoqec import toric as tt
from holoqec.errors import GeoLattice
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY

from api import Api, distinct_products, pairs_checked

TOL = 1e-8  # classification and holonomy tolerance used by the acceptance suite
ROUTING_TOL = 1e-7  # two-routing agreement (acceptance criterion 9)
CC_TOL = 1e-9  # correction-condition tolerance used by the tests


@dataclass
class Request:
    key: str
    call: Callable[[Api], Any]
    check: Callable[[Any, Any], str | None]
    expected: Any


def execute(req: Request, api: Api) -> tuple[str | None, bool]:
    """Run one request: (None, False) if its answer checks out, else the
    reason it failed and whether the call raised rather than answered wrong."""
    try:
        answer = req.call(api)
    except Exception as exc:  # a raising request is a measured failure
        return f"{type(exc).__name__}: {str(exc)[:120]}", True
    return req.check(answer, req.expected), False


# -- braid_transport ----------------------------------------------------------

BRAID_CONFIGS = {
    # the conftest fixtures: braidable, swap, two primal defects at separation 1
    "braidable": (((0, 0), (0, 2)), ((1, 1), (2, 0)), 0),
    "swap": (((0, 0), (1, 1)), ((1, 2), (2, 1)), 0),
    "two_primal": (((0, 0), (2, 2)), (), 1),
}
STRATA = ("torus", "contractible", "half", "full", "pair")


def braid_setup(api: Api) -> dict:
    lat = tt.TorusLattice(3)
    return {
        name: api.build_code(lat, tt.DefectConfig(p, d), separation=s)
        for name, (p, d, s) in BRAID_CONFIGS.items()
    }


def _generators(cfg: tt.DefectConfig) -> dict[str, list]:
    """Single braid generators on a configuration, by stratum."""
    out: dict[str, list] = {s: [] for s in STRATA if s != "pair"}
    refs = [("primal", i) for i in range(cfg.n_primal)]
    refs += [("dual", i) for i in range(cfg.n_dual)]
    for ref in refs:
        out["torus"] += [tt.TorusLoop(ref, "horizontal"), tt.TorusLoop(ref, "vertical")]
        out["contractible"].append(tt.ContractibleLoop(ref, 1))
    for a, b in itertools.permutations(refs, 2):
        if a[0] == b[0]:
            out["half"].append(tt.HalfBraid(a, b))
        else:
            out["full"].append(tt.FullBraid(a, b))
    return out


def _routable(tc, word) -> bool:
    try:
        for variant in (0, 1):
            tt.compile_braid(tc.lat, tc.cfg, word, tc.separation, variant)
    except tt.RoutingError:
        return False
    return True


def expected_monodromy(word) -> dict:
    """The monodromy table, extended to words by multiplying its rows.

    Contractible loops and same-type exchanges are trivial, a full braid of a
    primal around a dual defect is -1, and torus loops are order-2 logical
    Paulis, a primal and a dual loop in crossing directions anticommuting.
    Hence a word acts as a pure phase iff every (type, direction) torus loop
    occurs an even number of times; without torus loops that phase is (-1)
    per mixed full braid; and M^2 = (-1)^(crossing anticommuting pairs).
    """
    loops = [(g.mover[0], g.direction) for g in word if isinstance(g, tt.TorusLoop)]
    phase_only = all(loops.count(t) % 2 == 0 for t in loops)
    phase = None
    if not loops:
        mixed = sum(
            isinstance(g, tt.FullBraid) and g.mover[0] != g.around[0] for g in word
        )
        phase = (-1.0) ** mixed
    crossings = sum(
        a[0] != b[0] and a[1] != b[1] for a, b in itertools.combinations(loops, 2)
    )
    return {
        "classification": PHASE_ONLY if phase_only else NONTRIVIAL_LOGICAL,
        "phase": phase,
        "square": (-1.0) ** crossings,
    }


def _routing_deviation(f0, f1) -> float:
    """max |f0 - xi f1|, xi the phase of tr(f1^dagger f0), as in acceptance
    criterion 9 (which takes the trace after projecting both onto the start
    frame; for two loops that end in its span the two agree)."""
    t = np.vdot(f1.data, f0.data)
    xi = t / abs(t) if abs(t) > 1e-12 else 1.0
    return float(np.max(np.abs(f0.data - xi * f1.data)))


def braid_request(key: str, tc, word) -> Request:
    def call(api: Api):
        ev0, _ = api.compile_braid(tc.lat, tc.cfg, word, tc.separation, 0)
        ev1, _ = api.compile_braid(tc.lat, tc.cfg, word, tc.separation, 1)
        f0, _ = api.transport_along(tc, tt.ConfigPath.from_evolution(ev0))
        f1, _ = api.transport_along(tc, tt.ConfigPath.from_evolution(ev1))
        return api.classify(tc.frame, f0, TOL), _routing_deviation(f0, f1)

    def check(answer, exp) -> str | None:
        res, dev = answer
        if dev >= ROUTING_TOL:
            return f"routings disagree by {dev:.2e}"
        if res.residual >= TOL:
            return f"loop residual {res.residual:.2e}"
        if res.classification != exp["classification"]:
            return f"{res.classification}, expected {exp['classification']}"
        if exp["phase"] is not None and abs(res.phase - exp["phase"]) >= TOL:
            return f"phase {res.phase:.6f}, expected {exp['phase']:+.0f}"
        k = res.logical.shape[0]
        if np.max(np.abs(res.logical @ res.logical - exp["square"] * np.eye(k))) >= TOL:
            return f"M^2 is not {exp['square']:+.0f}"
        return None

    return Request(key, call, check, expected_monodromy(word))


def continuous_request(key: str, tc, prefix, rest, reference) -> Request:
    """A contractible loop of EdgeSlide / FaceMove segments from a vertex.

    ``reference(api)`` gives the interpolation code where ``prefix`` ends; the
    transported frame there must span it, and the closed loop must act
    trivially (face and edge interpolation is flat and encloses nothing).
    """

    def call(api: Api):
        mid, _ = api.transport_along(tc, tt.ConfigPath(prefix))
        gap = api.subspace_distance(mid, reference(api))
        end, _ = api.transport_along(tc, tt.ConfigPath(prefix + rest))
        res = api.classify(tc.frame, end, TOL)
        return gap, res, float(np.max(np.abs(end.data - tc.frame.data)))

    def check(answer, exp) -> str | None:
        gap, res, back = answer
        if gap >= exp["gap"]:
            return f"mid-path frame {gap:.2e} from the interpolation code"
        if res.classification != exp["classification"] or abs(res.phase - exp["phase"]) >= TOL:
            return f"loop gave {res.classification} {res.phase:.6f}"
        if back >= exp["return"]:
            return f"loop returns {back:.2e} away from the start frame"
        return None

    expected = {"gap": 1e-9, "classification": PHASE_ONLY, "phase": 1.0, "return": 1e-10}
    return Request(key, call, check, expected)


def _interior(rng) -> tuple[float, float]:
    return tuple(float(v) for v in rng.integers(5, 96, size=2) / 100.0)


def _face_loop(tc, rng) -> Request:
    """Corner -> three interior points -> corner inside face (0, 0)."""
    face = (0, 0)
    pts = [(0.0, 0.0)] + [_interior(rng) for _ in range(3)] + [(0.0, 0.0)]
    segs = tuple(tt.FaceMove("primal", face, a, b) for a, b in zip(pts, pts[1:]))
    cut = int(rng.integers(1, len(segs)))
    xy = pts[cut]
    return continuous_request(
        "loop.face",
        tc,
        segs[:cut],
        segs[cut:],
        lambda api: api.face_code(tc, "primal", face, xy),
    )


def _edge_loop(tc, rng, direction: str) -> Request:
    """Corner -> interior point -> exit onto a boundary edge -> slide home."""
    face = (0, 0)
    p = _interior(rng)
    t = float(rng.integers(5, 96)) / 100.0
    edge = tt.Edge(0, 0, direction)  # edge CA ("v") or CD ("h") of face (0, 0)
    exit_xy = (0.0, t) if direction == "v" else (t, 0.0)
    prefix = (
        tt.FaceMove("primal", face, (0.0, 0.0), p),
        tt.FaceMove("primal", face, p, exit_xy),
    )
    rest = (tt.EdgeSlide("primal", edge, t, 0.0),)
    return continuous_request(
        "loop.edge", tc, prefix, rest, lambda api: api.edge_code(tc, "primal", edge, t)
    )


def braid_decks(fixtures: dict, seed: int) -> Iterator[list[Request]]:
    """Deck: per configuration one single-generator word of each stratum and
    one pair of torus loops, then two face loops and two edge loops.

    Each stratum's routable generators are dealt in a seeded order, one per
    deck, so every run covers the pools evenly and the mix of hop counts
    does not drift with the seed.
    """
    rng = np.random.default_rng(seed)
    dealers = {}
    for name, tc in fixtures.items():
        for stratum, gens in _generators(tc.cfg).items():
            pool = [g for g in gens if _routable(tc, [g])]
            if pool:
                dealers[name, stratum] = itertools.cycle(
                    [pool[i] for i in rng.permutation(len(pool))]
                )
    while True:
        deck = []
        for name, tc in fixtures.items():
            for stratum in STRATA:
                if stratum == "pair":  # every pair of routable torus loops routes
                    word = [next(dealers[name, "torus"]) for _ in range(2)]
                elif (name, stratum) in dealers:
                    word = [next(dealers[name, stratum])]
                else:
                    continue
                deck.append(braid_request(f"braid.{name}.{stratum}", tc, word))
        loop_tc = fixtures["two_primal"]
        loops = []
        for direction in ("v", "h"):  # 4 of the deck's 18 requests are loops
            loops += [_face_loop(loop_tc, rng), _edge_loop(loop_tc, rng, direction)]
        # a fixed order with the loops spread evenly, so that only the drawn
        # inputs vary with the seed, not the sequence of frame allocations
        step = len(deck) // len(loops) + 1
        for i, loop in enumerate(loops):
            deck.insert((i + 1) * step - 1, loop)
        yield deck


# -- code_scan ------------------------------------------------------------------


def scan_setup(api: Api) -> dict:
    return {
        "fivequbit": api.five_qubit_code(),
        "toric2": api.build_code(tt.TorusLattice(2), tt.DefectConfig((), ()), separation=0).code,
        "toric3": api.build_code(tt.TorusLattice(3), tt.DefectConfig((), ()), separation=0).code,
    }


def distance_request(key: str, code, max_weight: int, threads: int, expected: int) -> Request:
    def call(api: Api):
        return api.distance(code, max_weight, threads=threads)

    def check(res, exp) -> str | None:
        if res.delta != exp:
            return f"distance {res.delta}, expected {exp}"
        if res.witness is None or res.witness.weight != exp:
            return f"witness {res.witness} does not have weight {exp}"
        return None

    return Request(key, call, check, expected)


def correctable_request(key: str, code, make_errors, expected: dict) -> Request:
    distinct_by_pairs: dict[int, int | None] = {}  # the count is fixed per error set

    def call(api: Api):
        errors = make_errors(api)
        report = api.correction_condition(code, errors, tol=CC_TOL)
        if api.tracer is not None:
            pairs = pairs_checked(errors, report)
            if pairs not in distinct_by_pairs:
                distinct_by_pairs[pairs] = distinct_products(errors, pairs)
            distinct = distinct_by_pairs[pairs]
            if distinct is not None:
                api.tracer.add("codes.correction_condition.distinct_products", distinct)
        return report

    def check(rep, exp) -> str | None:
        if rep.correctable != exp["correctable"]:
            return f"correctable={rep.correctable}, expected {exp['correctable']}"
        if rep.correctable:
            return None
        if rep.witness is None or rep.max_deviation < CC_TOL:
            return "failure without a witness pair"
        if exp.get("witness") is not None and tuple(rep.witness) != exp["witness"]:
            return f"witness {rep.witness}, expected {exp['witness']}"
        return None

    return Request(key, call, check, expected)


def _random_unitary(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _geolocal(L: int, s: int, t: int):
    return lambda api: api.geolocal_errors(GeoLattice.toric_edges(L), s, t)


def scan_decks(fixtures: dict, seed: int) -> Iterator[list[Request]]:
    """Deck of 20: each quick question twice (the squdit s=1 check, which
    sorts to the middle, three times) and each slow one once (the L = 3
    geolocal(1,1) and geolocal(3,1) questions twice), so that the median
    falls inside the s=1 block and, from six decks on, the tail inside the
    geolocal(3,1) block rather than on a boundary."""
    rng = np.random.default_rng(seed)
    c5, c2, c3 = fixtures["fivequbit"], fixtures["toric2"], fixtures["toric3"]
    fixed = [
        (2, distance_request("distance.fivequbit.w3", c5, 3, 1, 3)),
        (2, distance_request("distance.toric2.w2", c2, 2, 1, 2)),
        (1, distance_request("distance.toric3.w3.t1", c3, 3, 1, 3)),
        (1, distance_request("distance.toric3.w3.t2", c3, 3, 2, 3)),
        (3, correctable_request(
            "correctable.fivequbit.squdit1", c5,
            lambda api: api.squdit_errors(5, 1), {"correctable": True})),
        (2, correctable_request(
            "correctable.fivequbit.squdit2", c5,
            lambda api: api.squdit_errors(5, 2), {"correctable": False, "witness": (1, 55)})),
        (2, correctable_request(
            "correctable.toric2.geolocal_1_1", c2, _geolocal(2, 1, 1),
            {"correctable": False, "witness": (1, 4)})),
        (2, correctable_request(
            "correctable.toric3.geolocal_1_1", c3, _geolocal(3, 1, 1), {"correctable": True})),
        (1, correctable_request(
            "correctable.toric3.geolocal_2_1", c3, _geolocal(3, 2, 1),
            {"correctable": False, "witness": (1, 208)})),
        # three diameter-1 clusters cover a logical row: not correctable
        # (test_toric_memory_claim); today this raises MemoryError
        (2, correctable_request(
            "correctable.toric3.geolocal_3_1", c3, _geolocal(3, 3, 1), {"correctable": False})),
    ]
    while True:
        deck = [req for copies, req in fixed for _ in range(copies)]
        for _ in range(2):
            us = [_random_unitary(rng) for _ in range(5)]

            def conjugated(api, us=us):
                es = api.squdit_errors(5, 1)
                return list(es) + api.conjugated_error_set(es, us)

            deck.append(correctable_request(
                "correctable.fivequbit.conjugated1", c5, conjugated, {"correctable": True}))
        rng.shuffle(deck)
        yield deck


# -- cli_transversal -------------------------------------------------------------


MERGE_INPUTS = {
    "merge-a.json": ["transversal", "lie-dim", "--expect", "5"],
    "merge-b.json": ["transversal", "holonomy", "--gate", "X"],
}


def cli_setup(api: Api, workdir: Path) -> dict:
    """Five-qubit logical operators for the checks, and the two reports
    ``report-merge`` combines, written once into the work directory."""
    for name, argv in MERGE_INPUTS.items():
        run_cli(api, argv, workdir / name)
    code = api.five_qubit_code()
    xl = api.logical_action(code, hq.logical_x())
    zl = api.logical_action(code, hq.logical_z())
    return {"workdir": workdir, "xl": xl, "zl": zl, "yl": 1j * xl @ zl}


def run_cli(api: Api, argv: list[str], out: Path) -> tuple[int, dict | None]:
    """Drive ``holoqec.cli.main`` in-process; its summary lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = api.cli_main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


def _matrix(doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc])


def cli_request(key: str, workdir: Path, argv: list[str], expected: dict) -> Request:
    out = workdir / f"{key}.json"

    def call(api: Api):
        out.unlink(missing_ok=True)
        return run_cli(api, argv, out)

    def check(answer, exp) -> str | None:
        rc, rep = answer
        if rc != exp["rc"]:
            return f"exit code {rc}, expected {exp['rc']}"
        if rep is None or rep.get("ok") is not True:
            return "report missing or not ok"
        results = rep["results"]
        for field, want in exp.get("results", {}).items():
            if results.get(field) != want:
                return f"{field} = {results.get(field)!r}, expected {want!r}"
        if "phase" in exp and abs(complex(*results["phase"]) - exp["phase"]) >= TOL:
            return f"phase {results['phase']}, expected {exp['phase']}"
        if "logical" in exp:
            err = exp["logical"](_matrix(results["logical"]))
            if err >= TOL:
                return f"logical action off by {err:.2e}"
        if "pair" in exp and (results.get("witness") or {}).get("pair") != exp["pair"]:
            return f"witness {results.get('witness')}, expected pair {exp['pair']}"
        if "merged" in exp and len(results["reports"]) != exp["merged"]:
            return f"merged {len(results['reports'])} reports"
        return None

    return Request(key, call, check, expected)


def cli_decks(fixtures: dict, seed: int) -> Iterator[list[Request]]:
    """Deck: every verb once, the correctable s=2 check twice so that the
    median sits inside one block of similar requests."""
    rng = np.random.default_rng(seed)
    wd, xl, yl, zl = fixtures["workdir"], fixtures["xl"], fixtures["yl"], fixtures["zl"]

    def r3_cycle(m):
        return max(
            np.max(np.abs(m @ xl @ m.conj().T - yl)),
            np.max(np.abs(m @ yl @ m.conj().T - zl)),
            np.max(np.abs(m @ zl @ m.conj().T - xl)),
        )

    merge_inputs = [str(wd / name) for name in MERGE_INPUTS]
    while True:
        k = int(rng.integers(1, 5))
        s1, s2 = (str(int(v)) for v in rng.integers(0, 2**31, size=2))
        deck = [
            cli_request("transversal.lie-dim", wd, ["transversal", "lie-dim", "--expect", "5"],
                        {"rc": 0, "results": {"dimension": 5}}),
            cli_request("transversal.trivial-action", wd,
                        ["transversal", "trivial-action", "--samples", "20", "--seed", s1],
                        {"rc": 0, "results": {"samples": 20}}),
            cli_request("transversal.holonomy.X", wd, ["transversal", "holonomy", "--gate", "X"],
                        {"rc": 0, "results": {"classification": NONTRIVIAL_LOGICAL},
                         "logical": lambda m: np.max(np.abs(m - xl))}),
            cli_request("transversal.holonomy.Z", wd, ["transversal", "holonomy", "--gate", "Z"],
                        {"rc": 0, "results": {"classification": NONTRIVIAL_LOGICAL},
                         "logical": lambda m: np.max(np.abs(m - zl))}),
            cli_request("transversal.holonomy.R3", wd, ["transversal", "holonomy", "--gate", "R3"],
                        {"rc": 0, "results": {"classification": NONTRIVIAL_LOGICAL},
                         "logical": r3_cycle}),
            cli_request("transversal.holonomy.stabilizer", wd,
                        ["transversal", "holonomy", "--gate", f"stabilizer-{k}"],
                        {"rc": 0, "results": {"classification": PHASE_ONLY}, "phase": 1.0}),
            cli_request("transversal.flatness", wd,
                        ["transversal", "flatness", "--trials", "10", "--seed", s2],
                        {"rc": 0, "results": {"trials": 10}}),
            cli_request("distance.fivequbit", wd,
                        ["distance", "--code", "fivequbit", "--max-weight", "3", "--expect", "3"],
                        {"rc": 0, "results": {"delta": 3}}),
            cli_request("distance.toric2", wd,
                        ["distance", "--code", "toric:L=2", "--max-weight", "2", "--expect", "2"],
                        {"rc": 0, "results": {"delta": 2}}),
            cli_request("correctable.squdit1", wd,
                        ["correctable", "--code", "fivequbit", "--errors", "squdit:s=1",
                         "--expect", "true"],
                        {"rc": 0, "results": {"correctable": True}}),
            cli_request("report-merge", wd, ["report-merge", *merge_inputs],
                        {"rc": 0, "merged": 2}),
        ] + [
            cli_request("correctable.squdit2", wd,
                        ["correctable", "--code", "fivequbit", "--errors", "squdit:s=2",
                         "--expect", "false"],
                        {"rc": 0, "results": {"correctable": False}, "pair": [1, 55]})
            for _ in range(2)
        ]
        rng.shuffle(deck)
        yield deck
