"""Fixed-fixture probes for the traced run.

Two kinds: traced calls into every layer on fixed inputs, so that each
per-layer metric exists whichever workload ran (the workload's own stream
is preferred where it made the call); and direct timings of the Pauli and
frame kernels at n = 18, which explain the per-hop transport cost and the
build time behind ``setup_s``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import holoqec as hq
from holoqec import toric as tt

from api import Api
from workloads import (
    BRAID_CONFIGS,
    TOL,
    cli_decks,
    cli_setup,
    correctable_request,
    distance_request,
    execute,
    run_cli,
)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def kernel_probes(frame: hq.Frame) -> dict[str, float]:
    """Pauli application and frame operations on a 2^18 x 4 toric frame."""
    data = frame.data
    n = 18
    x = hq.PauliString.single(n, 4, "X")
    z = hq.PauliString.single(n, 4, "Z")
    rng = np.random.default_rng(0)
    words = [
        hq.PauliString(n, int(a), int(b), int(c))
        for a, b, c in zip(
            rng.integers(0, 2**n, 64), rng.integers(0, 2**n, 64), rng.integers(0, 4, 64)
        )
    ]
    pairs = list(zip(words, words[1:] + words[:1])) * 16

    def mul_batch():
        for p, q in pairs:
            hq.pauli_mul(p, q)

    rotated = hq.Frame(hq.apply_pauli(x, data))
    columns = [data[:, k] for k in range(data.shape[1])]
    return {
        "pauli.apply_pauli.x18.ms": _median_ms(lambda: hq.apply_pauli(x, data), 9),
        "pauli.apply_pauli.z18.ms": _median_ms(lambda: hq.apply_pauli(z, data), 9),
        "pauli.pauli_mul.us": _median_ms(mul_batch, 9) * 1e3 / len(pairs),
        "frames.Frame.validate18.ms": _median_ms(lambda: hq.Frame(data), 9),
        "frames.orthonormalize18.ms": _median_ms(lambda: hq.orthonormalize(columns), 5),
        "frames.subspace_distance18.ms": _median_ms(
            lambda: hq.subspace_distance(frame, rotated), 9
        ),
    }


def layer_probes(api: Api, workdir: Path) -> tuple[int, list[str], dict[str, float]]:
    """One traced call into each layer on fixed inputs.

    Returns (requests checked, problems found, kernel timings).
    """
    tracer = api.tracer
    tracer.request = "probe"
    lat = tt.TorusLattice(3)
    codes = {
        name: api.build_code(lat, tt.DefectConfig(p, d), separation=s)
        for name, (p, d, s) in BRAID_CONFIGS.items()
    }
    empty3 = api.build_code(lat, tt.DefectConfig((), ()), separation=0)
    code5 = api.five_qubit_code()
    problems: list[str] = []

    tc = codes["braidable"]
    word = [tt.FullBraid(("primal", 0), ("dual", 0))]
    with tracer.span("request"):
        ev0, _ = api.compile_braid(tc.lat, tc.cfg, word, tc.separation, 0)
        ev1, _ = api.compile_braid(tc.lat, tc.cfg, word, tc.separation, 1)
        f0, _ = api.transport_along(tc, tt.ConfigPath.from_evolution(ev0))
        api.transport_along(tc, tt.ConfigPath.from_evolution(ev1))
        res = api.classify(tc.frame, f0, TOL)
    checked = 1
    if abs(res.phase + 1.0) >= TOL:
        problems.append(f"probe full braid phase {res.phase}")

    two = codes["two_primal"]
    api.face_code(two, "primal", (0, 0), (0.3, 0.4))
    api.edge_code(two, "primal", tt.Edge(0, 0, "h"), 0.3)
    for _ in range(3):
        api.classify(code5.frame, code5.frame, TOL)

    for req in (
        distance_request("distance.fivequbit.w3", code5, 3, 1, 3),
        distance_request("distance.toric3.w3.t1", empty3.code, 3, 1, 3),
        distance_request("distance.toric3.w3.t2", empty3.code, 3, 2, 3),
        correctable_request(
            "correctable.fivequbit.squdit1", code5,
            lambda api: api.squdit_errors(5, 1), {"correctable": True}),
        correctable_request(
            "correctable.fivequbit.squdit2", code5,
            lambda api: api.squdit_errors(5, 2), {"correctable": False, "witness": (1, 55)}),
    ):
        checked += 1
        problem, _ = execute(req, api)
        if problem:
            problems.append(f"probe {req.key}: {problem}")

    with api.traced_cli():
        fixtures = cli_setup(api, workdir)
        for req in next(cli_decks(fixtures, 0)):
            checked += 1
            problem, _ = execute(req, api)
            if problem:
                problems.append(f"probe {req.key}: {problem}")
        cfg = workdir / "toric.json"
        cfg.write_text(json.dumps({
            "L": 3, "s": 0, "primal": [[0, 0], [0, 2]], "dual": [[1, 1], [2, 0]],
            "braid": [{"op": "FullBraid", "args": [["primal", 0], ["dual", 0]]}],
        }))
        for argv in (
            ["toric", "build", "--config", str(cfg)],
            ["toric", "braid", "--config", str(cfg)],
            ["toric", "flatness", "--config", str(cfg), "--trials", "2", "--seed", "1"],
            ["toric", "face-checks", "--L", "3"],
        ):
            checked += 1
            rc, report = run_cli(api, argv, workdir / f"{argv[0]}-{argv[1]}.json")
            if rc != 0 or not (report or {}).get("ok"):
                problems.append(f"probe {' '.join(argv[:2])}: exit {rc}")
    return checked, problems, kernel_probes(empty3.frame)
