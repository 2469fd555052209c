import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holoqec import toric as tt
from holoqec.cli import main
from holoqec.codes import _PauliBlocks


def read_report(path):
    return json.loads(Path(path).read_text())


def normalized_bytes(path):
    doc = read_report(path)
    doc["timestamp"] = None
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def braid_config(tmp_path, braid):
    doc = {
        "L": 3,
        "s": 0,
        "primal": [[0, 0], [0, 2]],
        "dual": [[1, 1], [2, 0]],
        "braid": braid,
    }
    p = tmp_path / "toric.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 16.0 GiB for an array")


def test_distance_fivequbit(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["distance", "--code", "fivequbit", "--max-weight", "3",
               "--expect", "3", "--out", str(out)])
    assert rc == 0
    rep = read_report(out)
    assert rep["results"]["delta"] == 3
    assert rep["schema_version"] == 1
    assert "distance: 3" in capsys.readouterr().out


def test_distance_toric_l2(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["distance", "--code", "toric:L=2", "--max-weight", "2",
               "--expect", "2", "--out", str(out)])
    assert rc == 0


def test_distance_toric_l4(tmp_path):
    """32 qubits: the scan reads the frame's support rows only, and delta = L."""
    out = tmp_path / "r.json"
    rc = main(["distance", "--code", "toric:L=4", "--max-weight", "4",
               "--expect", "4", "--out", str(out)])
    assert rc == 0
    assert read_report(out)["results"]["witness"] == "+ZZZZ" + "I" * 28


def test_distance_expectation_mismatch(tmp_path):
    rc = main(["distance", "--code", "fivequbit", "--max-weight", "3",
               "--expect", "2", "--out", str(tmp_path / "r.json")])
    assert rc == 1


def test_distance_usage_error():
    rc = main(["distance", "--code", "fivequbit", "--max-weight", "0"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["transversal", "trivial-action", "--samples", "-1"], "--samples"),
        (["transversal", "trivial-action", "--samples", "0"], "--samples"),
        (["transversal", "flatness", "--trials", "-3"], "--trials"),
        (["transversal", "flatness", "--trials", "0"], "--trials"),
        (["toric", "flatness", "--config", "{cfg}", "--trials", "0"], "--trials"),
    ],
)
def test_probe_counts_below_one_exit_2(argv, flag, tmp_path, capsys):
    cfg = braid_config(tmp_path, [])
    out = tmp_path / "r.json"
    argv = [a.replace("{cfg}", cfg) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{flag} must be at least 1\n"
    assert not out.exists()


def test_correctable_weight1(tmp_path):
    rc = main(["correctable", "--code", "fivequbit", "--errors", "squdit:s=1",
               "--expect", "true", "--out", str(tmp_path / "r.json")])
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["toric", "build"],
        ["correctable", "--code", "toric:L=3", "--errors", "geolocal:s=2,t=2"],
        ["distance", "--code", "toric:s=0", "--max-weight", "1"],
        ["correctable", "--code", "fivequbit", "--errors", "squdit:t=1"],
        ["correctable", "--code", "toric:L=2", "--errors", "geolocal:s=1"],
        ["toric", "build", "--config", "{tmp}/missing.json"],
        ["toric", "build", "--config", "{tmp}/no-L.json"],
        ["report-merge", "{tmp}/missing.json"],
        ["distance", "--code", "{tmp}/missing.json", "--max-weight", "1"],
        ["transversal", "holonomy", "--gate", "stabilizer-5"],
        ["toric", "braid", "--config", "{tmp}/short-args.json"],
        ["toric", "braid", "--config", "{tmp}/bad-ref.json"],
        ["distance", "--code", "toric:L=5", "--max-weight", "1"],
        ["transversal", "lie-dim", "{oom}"],
        ["correctable", "--code", "fivequbit", "--errors", "squdit:s=1", "{small-limit}"],
        ["transversal", "lie-dim", "{bad-env}"],
        ["transversal", "lie-dim", "{bad-tol}"],
        ["distance", "--code", "toric:L", "--max-weight", "1"],
        ["distance", "--code", "{tmp}/no-dims.json", "--max-weight", "1"],
        ["distance", "--code", "{tmp}/flat-frame.json", "--max-weight", "1"],
        ["distance", "--code", "{tmp}/dims-not-ints.json", "--max-weight", "1"],
        ["distance", "--code", "{tmp}/k-not-int.json", "--max-weight", "1"],
        ["toric", "braid", "--config", "{tmp}/braid-item-not-object.json"],
        ["toric", "build", "--config", "{tmp}/primal-not-list.json"],
        ["toric", "build", "--config", "{tmp}/site-off-lattice.json"],
        ["report-merge", "{tmp}/list.json"],
        ["correctable", "--code", "toric:L=2", "--errors", "geolocal:s=1,t=2,u=3"],
        ["distance", "--code", "toric:L=3,S=1", "--max-weight", "1"],
        ["correctable", "--code", "fivequbit", "--errors", "squdit:s=1,s=2"],
        ["distance", "--code", "toric:L=2,s=0,L=3", "--max-weight", "1"],
        ["distance", "--code", "fivequbit", "--max-weight", "2", "--tol", "-1"],
        ["transversal", "flatness", "--tol", "nan"],
        ["toric", "face-checks", "--tol", "inf"],
        ["correctable", "--code", "fivequbit", "--errors", "squdit:s=2", "{inf-tol}"],
    ],
    ids=[
        "toric-build-without-config",
        "enumeration-cap",
        "toric-spec-without-L",
        "squdit-spec-without-s",
        "geolocal-spec-without-t",
        "toric-config-missing",
        "toric-config-without-L",
        "report-merge-missing",
        "code-file-missing",
        "stabilizer-out-of-range",
        "braid-op-too-few-args",
        "braid-ref-malformed",
        "dense-size-guard",
        "out-of-memory",
        "f-matrix-guard",
        "env-seed-not-an-int",
        "env-tol-not-a-float",
        "spec-pair-without-equals",
        "code-file-without-dims",
        "code-file-frame-not-pairs",
        "code-file-dims-not-ints",
        "code-file-K-not-int",
        "toric-config-braid-item-not-object",
        "toric-config-primal-not-a-list",
        "toric-config-site-off-lattice",
        "report-merge-not-an-object",
        "geolocal-spec-unknown-key",
        "toric-spec-unknown-key",
        "squdit-spec-repeated-key",
        "toric-spec-repeated-key",
        "tol-negative",
        "tol-nan",
        "tol-infinite",
        "env-tol-infinite",
    ],
)
def test_library_errors_exit_2_with_one_line(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "no-L.json").write_text(json.dumps({"s": 0, "primal": [], "dual": []}))
    (tmp_path / "no-dims.json").write_text(json.dumps({"n": 1, "K": 1, "frame": [[1.0, 0.0]]}))
    (tmp_path / "flat-frame.json").write_text(json.dumps({"qudit_dims": [2], "K": 1, "frame": [1, 0]}))
    for name, doc in (
        ("dims-not-ints", {"qudit_dims": "ab", "K": 1, "frame": [[1, 0], [0, 0]]}),
        ("k-not-int", {"qudit_dims": [2], "K": "1", "frame": [[1, 0], [0, 0]]}),
        ("braid-item-not-object", {"L": 3, "braid": [5]}),
        ("primal-not-list", {"L": 3, "primal": 5}),
        ("site-off-lattice", {"L": 3, "s": 0, "primal": [[3, 2], [0, 0]]}),
        ("list", [1, 2]),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for name, op in (
        ("short-args", {"op": "TorusLoop", "args": [["primal", 0]]}),
        ("bad-ref", {"op": "FullBraid", "args": [["primal"], ["dual", 0]]}),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps({"L": 3, "braid": [op]}))
    if "{oom}" in argv:  # the verb's library call runs out of memory
        argv = [a for a in argv if a != "{oom}"]
        monkeypatch.setattr("holoqec.cli.fl_lie_algebra", _out_of_memory)
    if "{small-limit}" in argv:  # the stored f rows pass a lowered dense bound
        argv = [a for a in argv if a != "{small-limit}"]
        monkeypatch.setattr("holoqec.frames.DENSE_BYTES_LIMIT", 6000)
    messages = {  # these messages name what is wrong
        "toric:L": "error: 'toric:L': after the colon, give comma-separated k=v pairs\n",
        "{tmp}/no-dims.json": "error: code JSON lacks 'qudit_dims'\n",
        "{tmp}/flat-frame.json": "error: code JSON 'frame' must be a list of [re, im] pairs\n",
        "{tmp}/dims-not-ints.json": "error: code JSON 'qudit_dims' must be a list of positive ints\n",
        "{tmp}/k-not-int.json": "error: code JSON 'K' must be an int\n",
        "{tmp}/braid-item-not-object.json": "error: toric config 'braid' must be a list of",
        "{tmp}/primal-not-list.json": "error: toric config 'primal' must be a list of [x, y] int sites\n",
        "{tmp}/site-off-lattice.json": "error: primal site (3, 2) is not a pair of ints in range(3)\n",
        "{tmp}/list.json": f"error: report {tmp_path}/list.json is not a JSON object\n",
        "geolocal:s=1,t=2,u=3": "error: 'geolocal:s=1,t=2,u=3': unknown key 'u' (keys: s, t)\n",
        "toric:L=3,S=1": "error: 'toric:L=3,S=1': unknown key 'S' (keys: L, s)\n",
        "squdit:s=1,s=2": "error: 'squdit:s=1,s=2': key 's' given twice\n",
        "toric:L=2,s=0,L=3": "error: 'toric:L=2,s=0,L=3': key 'L' given twice\n",
        "-1": "error: --tol must be finite and positive, got -1.0\n",
        "nan": "error: --tol must be finite and positive, got nan\n",
        "inf": "error: --tol must be finite and positive, got inf\n",
    }
    named = next((messages[a] for a in argv if a in messages), None)
    # a malformed variable's message names it and its value
    for mark, var, raw, rest in (
        ("{bad-env}", "HOLOQEC_SEED", "seven", ""),
        ("{bad-tol}", "HOLOQEC_TOL", "abc", ""),
        ("{inf-tol}", "HOLOQEC_TOL", "inf", "must be finite and positive, got inf\n"),
    ):
        if mark in argv:
            argv = [a for a in argv if a != mark]
            monkeypatch.setenv(var, raw)
            named = f"error: {var}='{raw}': {rest}"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named is None or err.startswith(named)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "holoqec", "distance", "--code", "fivequbit",
         "--max-weight", "3", "--expect", "3", "--out", str(tmp_path / "r.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "distance: 3" in proc.stdout
    assert read_report(tmp_path / "r.json")["results"]["delta"] == 3


def test_no_scipy_at_runtime(tmp_path):
    """Importing the package and running verbs never loads SciPy (a test-only oracle)."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = f"""
import sys
import holoqec, holoqec.cli, holoqec.toric
from holoqec.cli import main
for argv in (["transversal", "flatness", "--trials", "2"],
             ["transversal", "trivial-action", "--samples", "2"],
             ["transversal", "holonomy", "--gate", "R3"],
             ["distance", "--code", "fivequbit", "--max-weight", "2"],
             ["toric", "face-checks", "--L", "2"]):
    assert main(argv + ["--out", {str(tmp_path / "r.json")!r}]) == 0, argv
assert "scipy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_correctable_geolocal_on_toric(tmp_path):
    rc = main(["correctable", "--code", "toric:L=3,s=0",
               "--errors", "geolocal:s=1,t=1", "--expect", "true",
               "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_correctable_geolocal_3_1_reports_the_witness_labels(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["correctable", "--code", "toric:L=3,s=0", "--errors", "geolocal:s=3,t=1",
               "--expect", "false", "--out", str(out)])
    assert rc == 0
    res = read_report(out)["results"]
    assert res["n_errors"] == 23464
    assert res["witness"]["pair"] == [0, 1432]
    assert res["witness"]["labels"] == ["+" + "I" * 18, "+ZZZ" + "I" * 15]


def test_distance_on_code_file(tmp_path):
    from holoqec import code_to_json, five_qubit_code

    path = tmp_path / "code.json"
    path.write_text(code_to_json(five_qubit_code()))
    rc = main(["distance", "--code", str(path), "--max-weight", "3",
               "--expect", "3", "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_correctable_weight2_fails_with_witness(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["correctable", "--code", "fivequbit", "--errors", "squdit:s=2",
               "--expect", "false", "--out", str(out)])
    assert rc == 0
    rep = read_report(out)
    assert rep["results"]["correctable"] is False
    assert rep["results"]["witness"] is not None


def test_transversal_subcommands(tmp_path):
    assert main(["transversal", "lie-dim", "--expect", "5",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["transversal", "trivial-action", "--samples", "20",
                 "--out", str(tmp_path / "b.json")]) == 0
    out = tmp_path / "c.json"
    assert main(["transversal", "holonomy", "--gate", "R3", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"]["classification"] == "nontrivial_logical"
    assert main(["transversal", "holonomy", "--gate", "stabilizer-1",
                 "--out", str(tmp_path / "d.json")]) == 0
    rep = read_report(tmp_path / "d.json")
    assert rep["results"]["classification"] == "phase_only"
    assert main(["transversal", "flatness", "--trials", "10",
                 "--out", str(tmp_path / "e.json")]) == 0


def test_toric_build_and_braid(tmp_path):
    cfg = braid_config(
        tmp_path, [{"op": "FullBraid", "args": [["primal", 0], ["dual", 0]]}]
    )
    out = tmp_path / "build.json"
    assert main(["toric", "build", "--config", cfg, "--out", str(out)]) == 0
    assert read_report(out)["results"]["K"] == 4
    out = tmp_path / "braid.json"
    assert main(["toric", "braid", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"]["classification"] == "phase_only"
    phase = rep["results"]["phase"]
    assert abs(phase[0] + 1.0) < 1e-9 and abs(phase[1]) < 1e-9
    assert rep["results"]["transcript"]


def test_toric_contractible_braid(tmp_path):
    cfg = braid_config(
        tmp_path, [{"op": "ContractibleLoop", "args": [["primal", 0], 1]}]
    )
    out = tmp_path / "b.json"
    assert main(["toric", "braid", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"]["classification"] == "phase_only"
    assert abs(rep["results"]["phase"][0] - 1.0) < 1e-9


def test_toric_face_checks(tmp_path):
    for L in ("2", "3"):
        out = tmp_path / f"fc{L}.json"
        assert main(["toric", "face-checks", "--L", L, "--out", str(out)]) == 0
        assert read_report(out)["results"]["ok"]


def test_report_merge(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["distance", "--code", "fivequbit", "--max-weight", "2", "--out", str(a)])
    main(["transversal", "lie-dim", "--out", str(b)])
    out = tmp_path / "merged.json"
    assert main(["report-merge", str(a), str(b), "--out", str(out)]) == 0
    rep = read_report(out)
    assert len(rep["results"]["reports"]) == 2


def test_env_override_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLOQEC_SEED", "7")
    out = tmp_path / "r.json"
    main(["transversal", "trivial-action", "--samples", "5", "--out", str(out)])
    assert read_report(out)["parameters"]["seed"] == 7


def test_env_is_read_on_every_call(tmp_path, monkeypatch):
    argv = ["transversal", "trivial-action", "--samples", "3"]
    first = tmp_path / "first.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert read_report(first)["parameters"]["seed"] == 0
    out = tmp_path / "env.json"
    monkeypatch.setenv("HOLOQEC_SEED", "7")
    monkeypatch.setenv("HOLOQEC_OUT", str(out))
    monkeypatch.setenv("HOLOQEC_TOL", "0.001")
    assert main(argv) == 0
    params = read_report(out)["parameters"]
    assert params["seed"] == 7 and params["tol"] == 0.001
    assert read_report(first)["parameters"]["seed"] == 0  # left alone


def test_usage_error_leaves_the_next_call_intact(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--code", "fivequbit", "--max-weight", "x", "--seed", "5"])
    assert exc.value.code == 2
    out = tmp_path / "r.json"
    assert main(["distance", "--code", "fivequbit", "--max-weight", "3",
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["parameters"] == {"code": "fivequbit", "max_weight": 3, "tol": 1e-8}
    assert rep["results"]["delta"] == 3


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for verb in (["transversal", "lie-dim"], ["distance", "--code", "fivequbit",
                                              "--max-weight", "1"]):
        assert main(verb + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(used) == 2 and used[0] is used[1]


def test_correctable_builds_the_five_qubit_kernel_once(tmp_path, monkeypatch):
    argv = ["correctable", "--code", "fivequbit", "--errors", "squdit:s=2"]
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    assert main(argv + ["--out", str(outs[0])]) == 0
    built = []
    monkeypatch.setattr(_PauliBlocks, "__init__", lambda *a: built.append(a))
    assert main(argv + ["--out", str(outs[1])]) == 0
    assert built == []
    assert normalized_bytes(outs[0]) == normalized_bytes(outs[1])


def test_toric_spec_builds_its_code_and_kernel_once(tmp_path, monkeypatch):
    verbs = [
        ["distance", "--code", "toric:L=2", "--max-weight", "2"],
        ["correctable", "--code", "toric:L=2", "--errors", "squdit:s=1"],
    ]
    first = [main(v + ["--out", str(tmp_path / f"a{i}.json")]) for i, v in enumerate(verbs)]
    built = []
    monkeypatch.setattr(_PauliBlocks, "__init__", lambda *a: built.append(a))
    monkeypatch.setattr(tt, "build_code", lambda *a, **k: built.append(a))
    again = [main(v + ["--out", str(tmp_path / f"b{i}.json")]) for i, v in enumerate(verbs)]
    assert built == [] and first == again
    for i in range(len(verbs)):
        assert normalized_bytes(tmp_path / f"a{i}.json") == normalized_bytes(tmp_path / f"b{i}.json")


def test_determinism_across_runs_and_threads(tmp_path):
    """Same seed, repeated runs and varying --threads: identical bytes
    (timestamp aside)."""
    outs = []
    for name, threads in (("r1.json", "1"), ("r2.json", "1"), ("r3.json", "4")):
        out = tmp_path / name
        rc = main(["distance", "--code", "toric:L=2", "--max-weight", "2",
                   "--seed", "11", "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(normalized_bytes(out))
    assert outs[0] == outs[1] == outs[2]

    outs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        rc = main(["transversal", "flatness", "--trials", "10", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        outs.append(normalized_bytes(out))
    assert outs[0] == outs[1]
