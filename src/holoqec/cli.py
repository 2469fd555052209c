"""Batch front-end: fixtures in, machine-readable JSON verification reports out.

Verbs: distance, correctable, transversal, toric, report-merge.  A run is
fully determined by its flags and --seed; reports are byte-identical across
repeats except for the timestamp field.  Environment variables HOLOQEC_SEED,
HOLOQEC_TOL, HOLOQEC_THREADS, HOLOQEC_OUT mirror the corresponding flags; a
flag left out is read from its variable on every call.  The parser is built
once per process and reused by every call.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from . import (
    PauliString,
    code_from_json,
    correction_condition,
    distance,
    exponential_path,
    fl_lie_algebra,
    check_projectively_trivial_action,
    five_qubit_code,
    flatness_probe_transversal,
    pauli_generator_path,
    squdit_errors,
    subspace_distance,  # noqa: F401  unused here; perfbench/api.py swaps it by name
    transversal_holonomy,
)
from .errors import EnumerationCapError, GeoLattice, geolocal_errors
from .fivequbit import R3, STABILIZER_LABELS
from . import toric as tt

SCHEMA_VERSION = 1
ENV_PREFIX = "HOLOQEC_"


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(report: dict, out: str | None) -> None:
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _summary(line: str) -> None:
    print(line)


# -- code and error-set loading ----------------------------------------------


def _spec_params(spec: str, *required: str) -> dict[str, str]:
    """The k=v pairs after the colon of a code or error-set spec."""
    pairs = [kv.partition("=") for kv in spec.partition(":")[2].split(",")]
    if not all(eq for _, eq, _ in pairs):
        raise ValueError(f"{spec!r}: after the colon, give comma-separated k=v pairs")
    params = {k: v for k, _, v in pairs}
    for key in required:
        if key not in params:
            raise ValueError(f"{spec!r} needs {key}=...")
    return params


@lru_cache(maxsize=4)
def _toric_code(L: int, s: int):
    """The defect-free code of a ``toric:L=...,s=...`` spec: built once per (L, s)
    and shared, frozen and read-only, with its block kernel and generator check."""
    return tt.build_code(tt.TorusLattice(L), tt.DefectConfig((), ()), separation=s)


def _load_code(spec: str):
    if spec == "fivequbit":
        return five_qubit_code(), None
    if spec.startswith("toric:"):
        params = _spec_params(spec, "L")
        tc = _toric_code(int(params["L"]), int(params.get("s", 0)))
        return tc.code, tc
    path = Path(spec)
    if path.exists():
        return code_from_json(path.read_text()), None
    raise ValueError(f"unknown code spec {spec!r} (no such file)")


def _load_errors(spec: str, code, toric_code):
    if spec.startswith("squdit:"):
        params = _spec_params(spec, "s")
        return squdit_errors(code.n, int(params["s"]))
    if spec.startswith("geolocal:"):
        if toric_code is None:
            raise ValueError("geolocal error sets need a toric:L=... code")
        params = _spec_params(spec, "s", "t")
        lat = GeoLattice.toric_edges(toric_code.lat.L)
        return geolocal_errors(lat, int(params["s"]), int(params["t"]))
    raise ValueError(f"unknown error-set spec {spec!r}")


# -- subcommands ---------------------------------------------------------------


def cmd_distance(args) -> int:
    if args.max_weight < 1:
        print("--max-weight must be at least 1", file=sys.stderr)
        return 2
    code, _ = _load_code(args.code)
    res = distance(code, args.max_weight, tol=args.tol, threads=args.threads)
    found = res.delta is not None
    results = {
        "delta": res.delta,
        "lower_bound": res.lower_bound,
        "witness": res.witness.to_label() if res.witness else None,
    }
    ok = True
    if args.expect is not None:
        ok = found and res.delta == args.expect
    _summary(
        f"distance: {res.delta if found else f'> {args.max_weight}'}"
        + (f" (witness {results['witness']})" if found else "")
        + (f" expect {args.expect}: {'ok' if ok else 'MISMATCH'}" if args.expect is not None else "")
    )
    _emit(
        {
            "command": "distance",
            # --threads is an execution detail: reports must not vary with it
            "parameters": {
                "code": args.code,
                "max_weight": args.max_weight,
                "tol": args.tol,
            },
            "results": results,
            "ok": ok,
        },
        args.out,
    )
    return 0 if ok else 1


def cmd_correctable(args) -> int:
    code, toric_code = _load_code(args.code)
    es = _load_errors(args.errors, code, toric_code)
    rep = correction_condition(code, es, tol=args.tol)
    results = {
        "correctable": rep.correctable,
        "n_errors": len(es),
        "witness": None,
        "max_deviation": rep.max_deviation,
    }
    if rep.witness is not None:
        a, b = rep.witness
        results["witness"] = {
            "pair": [a, b],
            "labels": [es[a].to_label(), es[b].to_label()],
            "deviation": rep.max_deviation,
        }
    ok = True
    if args.expect is not None:
        ok = rep.correctable == (args.expect == "true")
    _summary(
        f"correctable: {rep.correctable} ({len(es)} errors)"
        + (f", witness {results['witness']['labels']}" if rep.witness else "")
    )
    _emit(
        {
            "command": "correctable",
            "parameters": {"code": args.code, "errors": args.errors, "tol": args.tol},
            "results": results,
            "ok": ok,
        },
        args.out,
    )
    return 0 if ok else 1


_GATE_BUILDERS = {
    "X": lambda: pauli_generator_path(PauliString.from_label("XXXXX")),
    "Z": lambda: pauli_generator_path(PauliString.from_label("ZZZZZ")),
}


def _transversal_path_for_gate(gate: str):
    if gate in _GATE_BUILDERS:
        return _GATE_BUILDERS[gate]()
    if gate == "R3":
        w, v = np.linalg.eig(R3)  # principal log of the unitary R3 from its eigenpairs
        h = (v * np.log(w)) @ np.linalg.inv(v)
        h = 0.5 * (h - h.conj().T)  # exact anti-Hermitian part against rounding noise
        return exponential_path((2,) * 5, [h] * 5)
    if gate.startswith("stabilizer-"):
        k = int(gate.split("-")[1])
        if not 1 <= k <= 4:
            raise ValueError("stabilizer index must be 1..4")
        return pauli_generator_path(PauliString.from_label(STABILIZER_LABELS[k - 1]))
    raise ValueError(f"unknown gate {gate!r}")


def cmd_transversal(args) -> int:
    code = five_qubit_code()
    rng = np.random.default_rng(args.seed)
    ok = True
    if args.subcommand == "lie-dim":
        basis = fl_lie_algebra(code)
        results = {"dimension": basis.dimension}
        if args.expect is not None:
            ok = basis.dimension == args.expect
        _summary(f"logical tangent algebra dimension: {basis.dimension}")
    elif args.subcommand == "trivial-action":
        basis = fl_lie_algebra(code)
        rep = check_projectively_trivial_action(
            code, basis, args.samples, tol=args.tol, rng=rng
        )
        ok = rep.ok
        results = {
            "samples": rep.samples,
            "max_residual": rep.max_residual,
            "tol": rep.tol,
        }
        _summary(
            f"trivial action: max residual {rep.max_residual:.3e} over "
            f"{rep.samples} samples ({'ok' if ok else 'FAIL'})"
        )
    elif args.subcommand == "holonomy":
        path = _transversal_path_for_gate(args.gate)
        res = transversal_holonomy(code, path, tol=args.tol)
        results = {"gate": args.gate, **res.to_json_dict()}
        ok = res.residual < args.tol
        _summary(f"holonomy {args.gate}: {res.classification}, residual {res.residual:.2e}")
    elif args.subcommand == "flatness":
        endpoints = [PauliString.from_label(s) for s in (*STABILIZER_LABELS, "XXXXX", "ZZZZZ")]
        rep = flatness_probe_transversal(code, endpoints, args.trials, tol=args.tol, rng=rng)
        ok = rep.ok
        results = {
            "trials": rep.trials,
            "max_phase_adjusted_deviation": rep.max_phase_adjusted_deviation,
            "tol": rep.tol,
        }
        _summary(
            f"flatness: max deviation {rep.max_phase_adjusted_deviation:.3e} over "
            f"{rep.trials} trials ({'ok' if ok else 'FAIL'})"
        )
    else:
        raise ValueError(f"unknown transversal subcommand {args.subcommand!r}")
    _emit(
        {
            "command": f"transversal {args.subcommand}",
            "parameters": {
                "seed": args.seed,
                "tol": args.tol,
                "samples": args.samples,
                "trials": args.trials,
                "gate": args.gate,
            },
            "results": results,
            "ok": ok,
        },
        args.out,
    )
    return 0 if ok else 1


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an int, not {value!r}") from None


def _defect_ref(op: str, r) -> tuple[str, int]:
    if not isinstance(r, list) or len(r) != 2:
        raise ValueError(f"braid op {op!r}: defect reference {r!r} is not [kind, index]")
    return r[0], _int(r[1], f"braid op {op!r}: defect index")


def _config_sites(doc: dict, key: str) -> tuple:
    sites = doc.get(key, [])
    if not isinstance(sites, list) or not all(
        isinstance(v, list) and all(type(c) is int for c in v) for v in sites
    ):
        raise ValueError(f"toric config {key!r} must be a list of [x, y] int sites")
    return tuple(map(tuple, sites))


def _load_toric_config(path: str):
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "L" not in doc:
        raise ValueError(f"toric config {path} needs \"L\"")
    lat = tt.TorusLattice(_int(doc["L"], "toric config 'L'"))
    cfg = tt.DefectConfig(_config_sites(doc, "primal"), _config_sites(doc, "dual"))
    s = _int(doc.get("s", tt.DEFAULT_SEPARATION), "toric config 's'")
    braid = doc.get("braid", [])
    if not isinstance(braid, list) or not all(
        isinstance(item, dict) and isinstance(item.get("args"), list) and "op" in item
        for item in braid
    ):
        raise ValueError("toric config 'braid' must be a list of {\"op\": ..., \"args\": [...]} objects")
    word = []
    for item in braid:
        op, a = item["op"], item["args"]
        if len(a) != 2:
            raise ValueError(f"braid op {op!r} needs 2 args, got {len(a)}")
        ref = lambda r: _defect_ref(op, r)
        if op == "TorusLoop":
            word.append(tt.TorusLoop(ref(a[0]), a[1]))
        elif op == "FullBraid":
            word.append(tt.FullBraid(ref(a[0]), ref(a[1])))
        elif op == "HalfBraid":
            word.append(tt.HalfBraid(ref(a[0]), ref(a[1])))
        elif op == "ContractibleLoop":
            word.append(tt.ContractibleLoop(ref(a[0]), _int(a[1], f"braid op {op!r}: radius")))
        else:
            raise ValueError(f"unknown braid op {op!r}")
    return lat, cfg, s, word


def cmd_toric(args) -> int:
    ok = True
    if args.subcommand == "face-checks":
        lat = tt.TorusLattice(args.L)
        results = tt.face_checks(lat, tol=args.tol)
        ok = results["ok"]
        _summary(
            f"face-checks L={args.L}: winding {results['max_winding']:.2e}, "
            f"coeffs {results['max_coeff_deviation']:.2e}, "
            f"frames {results['max_frame_deviation'] if results['max_frame_deviation'] is not None else 'n/a'}"
            f" ({'ok' if ok else 'FAIL'})"
        )
        _emit(
            {
                "command": "toric face-checks",
                "parameters": {"L": args.L, "tol": args.tol},
                "results": results,
                "ok": ok,
            },
            args.out,
        )
        return 0 if ok else 1

    if args.config is None:
        raise ValueError(f"toric {args.subcommand} needs --config")
    lat, cfg, s, word = _load_toric_config(args.config)
    tc = tt.build_code(lat, cfg, separation=s)
    if args.subcommand == "build":
        results = {
            "L": lat.L,
            "K": tc.code.K,
            "N": tc.code.N,
            "n_primal": cfg.n_primal,
            "n_dual": cfg.n_dual,
            "separation": s,
        }
        ok = tc.code.K == 4
        _summary(f"build L={lat.L} defects {cfg.n_primal}+{cfg.n_dual}: K = {tc.code.K}")
    elif args.subcommand == "braid":
        res, transcript = tt.monodromy(tc, word, variant=0, tol=args.tol)
        results = {**res.to_json_dict(), "transcript": transcript}
        ok = res.residual < args.tol
        _summary(
            f"braid: {res.classification}, phase {res.phase:.6f}, residual {res.residual:.2e}"
        )
    elif args.subcommand == "flatness":
        rep = tt.flatness_probe_toric(
            tc, args.trials, tol=args.tol, rng=np.random.default_rng(args.seed)
        )
        ok = rep.ok
        worst = rep.max_phase_adjusted_deviation
        results = {"trials": rep.trials, "max_deviation": worst, "tol": rep.tol}
        _summary(
            f"toric flatness: max deviation {worst:.3e} over {rep.trials} braid words "
            f"({'ok' if ok else 'FAIL'})"
        )
    else:
        raise ValueError(f"unknown toric subcommand {args.subcommand!r}")
    _emit(
        {
            "command": f"toric {args.subcommand}",
            "parameters": {
                "config": args.config,
                "seed": args.seed,
                "tol": args.tol,
                "trials": args.trials,
            },
            "results": results,
            "ok": ok,
        },
        args.out,
    )
    return 0 if ok else 1


def cmd_report_merge(args) -> int:
    reports = [json.loads(Path(p).read_text()) for p in args.reports]
    for path, report in zip(args.reports, reports):
        if not isinstance(report, dict):
            raise ValueError(f"report {path} is not a JSON object")
    _emit(
        {
            "command": "report-merge",
            "parameters": {"inputs": list(args.reports)},
            "results": {"reports": reports},
            "ok": all(r.get("ok", False) for r in reports),
        },
        args.out,
    )
    _summary(f"merged {len(reports)} reports")
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    # None marks a flag left out: main reads its HOLOQEC_ variable per call
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="holoqec", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("distance", help="brute-force code distance")
    p.add_argument("--code", required=True)
    p.add_argument("--max-weight", type=int, required=True, dest="max_weight")
    p.add_argument("--expect", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_distance, default_tol=1e-8)

    p = sub.add_parser("correctable", help="correction-condition check")
    p.add_argument("--code", required=True)
    p.add_argument("--errors", required=True)
    p.add_argument("--expect", choices=["true", "false"], default=None)
    _add_common(p)
    p.set_defaults(func=cmd_correctable, default_tol=1e-9)

    p = sub.add_parser("transversal", help="transversal-gate suite")
    p.add_argument("subcommand", choices=["lie-dim", "trivial-action", "holonomy", "flatness"])
    p.add_argument("--gate", default="X")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--expect", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_transversal, default_tol=1e-8)

    p = sub.add_parser("toric", help="toric-code suite")
    p.add_argument("subcommand", choices=["build", "braid", "flatness", "face-checks"])
    p.add_argument("--config", default=None)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)
    _add_common(p)
    p.set_defaults(func=cmd_toric, default_tol=1e-8)

    p = sub.add_parser("report-merge", help="merge JSON reports")
    p.add_argument("reports", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_report_merge, default_tol=1e-9)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, cast, fallback in (
            ("seed", int, 0),
            ("tol", float, args.default_tol),
            ("threads", int, 1),
            ("out", str, None),
        ):
            if getattr(args, name) is None:
                var = ENV_PREFIX + name.upper()
                raw = os.environ.get(var)
                try:
                    setattr(args, name, fallback if raw is None else cast(raw))
                except ValueError as exc:
                    raise ValueError(f"{var}={raw!r}: {exc}") from None
        return args.func(args)
    except (tt.RoutingError, ValueError, EnumerationCapError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.verb}: out of memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
