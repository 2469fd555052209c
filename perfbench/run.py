"""Layered benchmark for holoqec.

    python3 perfbench/run.py --workload braid_transport --seed 1 --seconds 35 --trace 0

Run from the repository root.  One client drives one workload as a closed
loop in this single process (a fresh process per run, so ``peak_rss_mb`` is
the workload's own), checking every answer.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics instead: it serves every request twice, once plain and once with a
span around each library call (the time difference is the tracing overhead),
runs the fixed-fixture probes, and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.

Workloads (see workloads.py for the decks and expected answers):
  braid_transport  toric L = 3 braid words and continuous loops on 2^18 x 4 frames
  code_scan        distance and correction-condition questions, read-only Pauli work
  cli_transversal  the five-qubit vertical through holoqec.cli.main, 32 x 2 frames
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("braid_transport", "code_scan", "cli_transversal")
SETUP_REPEATS = {"braid_transport": 3, "code_scan": 5, "cli_transversal": 5}
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_holoqec() -> float:
    """Put the checkout's ``src`` first on the path and time the import."""
    src = ROOT / "src"
    if not (src / "holoqec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no holoqec sources under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import holoqec  # noqa: F401
    import holoqec.cli  # noqa: F401
    import holoqec.toric  # noqa: F401

    return time.perf_counter() - t


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import holoqec, holoqec.cli, holoqec.toric; print(time.perf_counter() - t)"
)


def import_seconds(first: float, repeats: int = 3) -> tuple[float, list[float]]:
    """Median import time over this process's own import (``first``) and
    fresh interpreters run one after another, each waited for."""
    times = [first]
    for _ in range(repeats - 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times), times


# -- provenance -------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "holoqec").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset (library default)")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "load": "one client, closed loop, one process",
    }


# -- the stream ---------------------------------------------------------------------


class Stream:
    """Closed-loop results: per-request latency and named failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.keys: list[str] = []
        self.decks = 0
        self.failures: Counter = Counter()
        self.wrong = 0

    def serve(self, api, req) -> None:
        from workloads import execute

        tracer = api.tracer
        t = time.perf_counter()
        if tracer is None:
            problem, raised = execute(req, api)
        else:
            tracer.request = f"r{len(self.latencies)}"
            with tracer.span("request"):
                problem, raised = execute(req, api)
        self.latencies.append(time.perf_counter() - t)
        self.keys.append(req.key)
        if problem:
            self.failures[f"{req.key}: {problem}"] += 1
            self.wrong += not raised

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_stream(api, decks, seconds: float, tamper=None) -> Stream:
    """Serve whole decks until ``seconds`` of request time have passed.

    Deck generation and a full garbage collection happen between decks and
    are not timed, so each deck starts from the same heap state.
    """
    stream = Stream()
    while stream.busy_s < seconds or not stream.decks:
        deck = next(decks)
        if tamper is not None:
            tamper(deck)
        gc.collect()
        for req in deck:
            stream.serve(api, req)
        stream.decks += 1
    return stream


def run_paired(plain, traced, decks, seconds: float, tamper=None) -> tuple[Stream, Stream]:
    """Serve each request untraced and traced, alternating which goes first,
    so that warm-up and drift of the machine fall on both sides of the
    tracing overhead.  Stops on a deck boundary once the untraced side has
    used ``seconds``."""
    untraced, replay = Stream(), Stream()
    while untraced.busy_s < seconds or not untraced.decks:
        deck = next(decks)
        if tamper is not None:
            tamper(deck)
        gc.collect()
        for i, req in enumerate(deck):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                if side == 0:
                    untraced.serve(plain, req)
                else:
                    with traced.traced_cli():
                        replay.serve(traced, req)
        untraced.decks += 1
        replay.decks += 1
    return untraced, replay


def setup_workload(name: str, api, workdir: Path, repeats: int) -> tuple[dict, list[float]]:
    from workloads import braid_setup, cli_setup, scan_setup

    build = {
        "braid_transport": braid_setup,
        "code_scan": scan_setup,
        "cli_transversal": lambda a: cli_setup(a, workdir),
    }[name]
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fixtures = build(api)
        times.append(time.perf_counter() - t)
    return fixtures, times


def deck_source(name: str, fixtures: dict, seed: int):
    from workloads import braid_decks, cli_decks, scan_decks

    return {"braid_transport": braid_decks, "code_scan": scan_decks, "cli_transversal": cli_decks}[
        name
    ](fixtures, seed)


# -- metrics ------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(stream: Stream, setup_s: float) -> tuple[dict, dict]:
    lat = stream.latencies
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_per_s": (stream.attempted / stream.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": ((stream.attempted - stream.failed) / stream.attempted, "ratio"),
    }
    detail = {
        "samples": stream.attempted,
        "decks": stream.decks,
        "busy_s": stream.busy_s,
        "latency_tail_percentile": tail_pct,
        "fail_rate": stream.failed / stream.attempted,
        "failures": dict(stream.failures),
        "latency_ms_by_request": {
            key: statistics.median(t for k, t in zip(stream.keys, lat) if k == key) * 1e3
            for key in sorted(set(stream.keys))
        },
    }
    return metrics, detail


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def per_layer(tracer, stream: Stream, untraced: Stream, probe_kernels: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced replay, falling back to set-up and
    probe spans for layers the workload's own requests never call.

    Counts are per deck (per pass for set-up and probes), so they repeat
    exactly for a fixed deck composition.
    """
    sources = [
        ("stream", "r", stream.decks),
        ("setup", "setup", 1),
        ("probe", "probe", 1),
    ]
    spans = list(zip(tracer.spans, tracer.self_times()))
    chosen: dict[str, str] = {}

    def pick(prefix):
        for label, req_prefix, decks in sources:
            rows = [
                (s, own)
                for s, own in spans
                if (s.request or "").startswith(req_prefix) and _matches(s.name, prefix)
            ]
            if rows:
                chosen[prefix] = label
                return rows, decks, req_prefix
        raise KeyError(f"no span for {prefix}")

    def total(rows):
        return sum(s.end - s.start for s, _ in rows)

    def count(rows):
        return sum(s.count for s, _ in rows)

    def ms_per_call(prefix):
        rows, _, _ = pick(prefix)
        return total(rows) / len(rows) * 1e3

    # spans are appended when they open, so a parent always precedes its children
    root_of = list(range(len(tracer.spans)))
    for i, s in enumerate(tracer.spans):
        if s.parent is not None:
            root_of[i] = root_of[s.parent]

    def share(prefix):
        """Share of request time spent in ``prefix`` calls made by requests."""
        _, _, req_prefix = pick(prefix)
        inside = [
            i for i, s in enumerate(tracer.spans)
            if (s.request or "").startswith(req_prefix)
            and tracer.spans[root_of[i]].name == "request"
        ]
        part = sum(
            tracer.spans[i].end - tracer.spans[i].start
            for i in inside if _matches(tracer.spans[i].name, prefix)
        )
        whole = {root_of[i] for i in inside}
        return part / sum(tracer.spans[i].end - tracer.spans[i].start for i in whole)

    def per_deck(prefix):
        rows, decks, _ = pick(prefix)
        return count(rows) / decks

    def per_unit(prefix, scale):
        rows, _, _ = pick(prefix)
        rows = [r for r in rows if r[0].count > 0]
        return total(rows) / count(rows) * scale

    m: dict[str, tuple[float, str]] = {}
    m["toric.build.build_code.ms_per_call"] = (ms_per_call("toric.build.build_code"), "ms")
    m["toric.braid.compile_braid.ms_per_call"] = (ms_per_call("toric.braid.compile_braid"), "ms")
    m["toric.braid.compile_braid.share"] = (share("toric.braid.compile_braid"), "ratio")
    tr = "toric.transport.transport_along"
    m[f"{tr}.ms_per_call"] = (ms_per_call(tr), "ms")
    m[f"{tr}.share"] = (share(tr), "ratio")
    hops = per_deck(tr)
    m["toric.transport.hops"] = (hops, "count")
    m["toric.transport.ms_per_hop"] = (per_unit(tr, 1e3), "ms")
    # each hop reads and writes one N x K complex128 frame: N = 2^18, K = 4
    m["toric.transport.bytes_computed"] = (hops * (1 << 18) * 4 * 16 * 2, "B")
    m["toric.interp.face_code.ms_per_call"] = (ms_per_call("toric.interp.face_code"), "ms")
    m["toric.interp.edge_code.ms_per_call"] = (ms_per_call("toric.interp.edge_code"), "ms")
    for n in (1 << 18, 32):
        m[f"transport.classify.N{n}.ms_per_call"] = (
            ms_per_call(f"transport.classify.N{n}"),
            "ms",
        )
    m["codes.distance.ms_per_call"] = (ms_per_call("codes.distance"), "ms")
    m["codes.distance.paulis_scanned"] = (per_deck("codes.distance"), "count")
    m["codes.distance.us_per_pauli"] = (per_unit("codes.distance", 1e6), "us")
    t1 = ms_per_call("codes.distance.n18.t1")
    t2 = ms_per_call("codes.distance.n18.t2")
    m["codes.distance.parallel_efficiency"] = (t1 / (2 * t2), "ratio")
    cc = "codes.correction_condition"
    m[f"{cc}.ms_per_call"] = (ms_per_call(cc), "ms")
    m[f"{cc}.pairs_checked"] = (per_deck(cc), "count")
    rows, decks, req_prefix = pick(cc)
    distinct = tracer.counters.get(f"{cc}.distinct_products", {})
    m[f"{cc}.distinct_products"] = (
        sum(v for k, v in distinct.items() if (k or "").startswith(req_prefix)) / decks,
        "count",
    )
    m[f"{cc}.us_per_pair"] = (per_unit(cc, 1e6), "us")
    m["errors.generate.ms_per_call"] = (ms_per_call("errors.generate"), "ms")
    m["errors.operators"] = (per_deck("errors.generate"), "count")
    m["transversal.fl_lie_algebra.ms_per_call"] = (
        ms_per_call("transversal.fl_lie_algebra"),
        "ms",
    )
    m["transversal.trivial_action.us_per_sample"] = (
        per_unit("transversal.trivial_action", 1e6),
        "us",
    )
    m["transversal.holonomy.ms_per_call"] = (ms_per_call("transversal.holonomy"), "ms")
    m["transversal.flatness.ms_per_trial"] = (per_unit("transversal.flatness", 1e3), "ms")
    for verb in CLI_VERBS:
        m[f"cli.{verb}.ms_per_call"] = (ms_per_call(f"cli.{verb}"), "ms")
    m["cli.report_bytes"] = (per_deck("cli"), "B")
    for name, value in probe_kernels.items():
        m[name] = (value, "us" if name.endswith(".us") else "ms")
    m["trace.overhead_pct"] = (100.0 * (stream.busy_s - untraced.busy_s) / untraced.busy_s, "%")
    roots = [own for s, own in spans if s.name == "request" and (s.request or "").startswith("r")]
    m["bench.check.ms_per_request"] = (sum(roots) / len(roots) * 1e3, "ms")
    both = stream.failed + untraced.failed
    m["fail_rate"] = (both / (stream.attempted + untraced.attempted), "ratio")
    self_ms = {
        name: agg["self_s"] * 1e3 / stream.decks for name, agg in tracer.by_name("r").items()
    }
    return m, {"metric_source": chosen, "self_ms_per_deck": self_ms}


CLI_VERBS = (
    "distance",
    "correctable",
    "transversal.lie-dim",
    "transversal.trivial-action",
    "transversal.holonomy",
    "transversal.flatness",
    "toric.build",
    "toric.braid",
    "toric.flatness",
    "toric.face-checks",
    "report-merge",
)


# -- entry point ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float, tamper=None) -> dict:
    """Set up, serve and measure one workload; return the result object."""
    from api import Api
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if not trace:
            api = Api()
            fixtures, setup_times = setup_workload(name, api, workdir, SETUP_REPEATS[name])
            stream = run_stream(api, deck_source(name, fixtures, seed), seconds, tamper)
            metrics, detail = end_to_end(stream, import_s + statistics.median(setup_times))
            detail["setup_repeats_s"] = setup_times
            detail["import_s"] = import_s
            attempted, failed, wrong = stream.attempted, stream.failed, stream.wrong
        else:
            from probes import layer_probes

            tracer = Tracer()
            traced = Api(tracer)
            tracer.request = "setup"
            fixtures, _ = setup_workload(name, traced, workdir, 1)
            untraced, replay = run_paired(
                Api(), traced, deck_source(name, fixtures, seed), seconds / 2, tamper
            )
            checked, problems, kernels = layer_probes(traced, workdir)
            metrics, detail = per_layer(tracer, replay, untraced, kernels)
            detail["probe_problems"] = problems
            detail["failures"] = dict(untraced.failures + replay.failures)
            tracer.dump(OUT_DIR / f"trace-{name}-{seed}.json")
            attempted = untraced.attempted + replay.attempted + checked
            failed = untraced.failed + replay.failed + len(problems)
            wrong = untraced.wrong + replay.wrong + len(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    first = import_holoqec()
    import_s, import_times = import_seconds(first, 1 if args.trace else 3)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    detail = result.pop("detail")
    detail["import_repeats_s"] = import_times
    print("perfbench provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"perfbench {args.workload} seed={args.seed} " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
