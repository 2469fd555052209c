"""The holoqec calls the benchmark makes, optionally wrapped in spans.

Workloads reach the library only through an ``Api``.  Untraced, its
attributes are the library functions themselves; traced, each is wrapped so
that a span names the layer (the holoqec module) the call goes into.  The
CLI's own references are swapped for traced ones only inside ``traced_cli``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import types
from math import comb

import holoqec
import holoqec.cli as cli
from holoqec import toric as tt

from spans import Tracer

_LETTER_INDEX = {"X": 0, "Y": 1, "Z": 2}


def paulis_scanned(code, max_weight: int, result) -> int:
    """Paulis the weight-ordered scan tests up to and including its witness.

    Counted in the serial enumeration order of ``holoqec.codes.distance``
    (weight, then support combinations, then letters X < Y < Z per site),
    whatever the thread count.
    """
    n = code.n
    if result.delta is None:
        return sum(comb(n, w) * 3**w for w in range(1, max_weight + 1))
    d = result.delta
    before = sum(comb(n, w) * 3**w for w in range(1, d))
    support = result.witness.support
    rank = next(
        i for i, s in enumerate(itertools.combinations(range(n), d)) if s == support
    )
    letters = 0
    for site in support:
        letters = 3 * letters + _LETTER_INDEX[result.witness.letter(site)]
    return before + rank * 3**d + letters + 1


def pairs_checked(errors, report) -> int:
    """Ordered pairs the fail-fast correction scan visits (row-major)."""
    m = len(errors)
    if report.witness is None:
        return m * m
    a, b = report.witness
    return a * m + b + 1


def distinct_products(errors, pairs: int) -> int | None:
    """Distinct E_a^dagger E_b, up to phase, among the first ``pairs`` pairs.

    None when the set holds non-Pauli operators.
    """
    if not all(isinstance(e, holoqec.PauliString) for e in errors):
        return None
    bits = [(e.x_bits, e.z_bits) for e in errors]
    m = len(bits)
    seen = set()
    for k in range(pairs):
        (xa, za), (xb, zb) = bits[k // m], bits[k % m]
        seen.add((xa ^ xb, za ^ zb))
    return len(seen)


def _out_bytes(argv) -> int:
    argv = list(argv)
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


def cli_span_name(argv) -> str:
    argv = list(argv)
    if argv[0] in ("transversal", "toric"):
        return f"cli.{argv[0]}.{argv[1]}"
    return f"cli.{argv[0]}"


def _hops(path) -> int:
    return sum(isinstance(s, tt.DiscreteHop) for s in path.segments)


class Api:
    """Library entry points by layer; traced when given a Tracer."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        w = self._wrap
        # toric.*
        self.build_code = w("toric.build.build_code", tt.build_code)
        self.compile_braid = w("toric.braid.compile_braid", tt.compile_braid)
        self.transport_along = w(
            "toric.transport.transport_along",
            tt.transport_along,
            lambda a, k, r: _hops(a[1]),
        )
        self.face_code = w("toric.interp.face_code", tt.face_code)
        self.edge_code = w("toric.interp.edge_code", tt.edge_code)
        # transport
        self.classify = w(
            lambda start, end, *a, **k: f"transport.classify.N{start.N}",
            holoqec.classify,
        )
        # codes
        self.distance = w(
            lambda code, mw, *a, threads=1, **k: f"codes.distance.n{code.n}.t{threads}",
            holoqec.distance,
            lambda a, k, r: paulis_scanned(a[0], a[1], r),
        )
        self.correction_condition = w(
            "codes.correction_condition",
            holoqec.correction_condition,
            lambda a, k, r: pairs_checked(a[1], r),
        )
        self.logical_action = w("codes.logical_action", holoqec.logical_action)
        # errors
        n_ops = lambda a, k, r: len(r)  # noqa: E731
        self.squdit_errors = w("errors.generate", holoqec.squdit_errors, n_ops)
        self.geolocal_errors = w("errors.generate", holoqec.geolocal_errors, n_ops)
        self.conjugated_error_set = w(
            "errors.generate", holoqec.conjugated_error_set, n_ops
        )
        # fivequbit, frames
        self.five_qubit_code = w("fivequbit.five_qubit_code", holoqec.five_qubit_code)
        self.subspace_distance = w("frames.subspace_distance", holoqec.subspace_distance)
        # cli
        self.cli_main = w(cli_span_name, cli.main, lambda a, k, r: _out_bytes(a[0]))

    def _wrap(self, name, fn, count=None):
        if self.tracer is None:
            return fn
        return self.tracer.wrap(name, fn, count)

    @contextlib.contextmanager
    def traced_cli(self):
        """Route the CLI module's own library references through spans.

        Outside tracing this is a no-op.  The originals are restored on exit.
        """
        if self.tracer is None:
            yield
            return
        w = self.tracer.wrap
        swaps = {
            "distance": self.distance,
            "correction_condition": self.correction_condition,
            "squdit_errors": self.squdit_errors,
            "geolocal_errors": self.geolocal_errors,
            "five_qubit_code": self.five_qubit_code,
            "subspace_distance": self.subspace_distance,
            "fl_lie_algebra": w("transversal.fl_lie_algebra", holoqec.fl_lie_algebra),
            "check_projectively_trivial_action": w(
                "transversal.trivial_action",
                holoqec.check_projectively_trivial_action,
                lambda a, k, r: a[2],
            ),
            "transversal_holonomy": w(
                "transversal.holonomy", holoqec.transversal_holonomy
            ),
            "flatness_probe_transversal": w(
                "transversal.flatness",
                holoqec.flatness_probe_transversal,
                lambda a, k, r: a[2],
            ),
        }
        toric_ns = types.SimpleNamespace(**{k: getattr(tt, k) for k in tt.__all__})
        toric_ns.build_code = self.build_code
        toric_ns.compile_braid = self.compile_braid
        toric_ns.transport_along = self.transport_along
        toric_ns.face_code = self.face_code
        toric_ns.edge_code = self.edge_code
        toric_ns.monodromy = w("toric.transport.monodromy", tt.monodromy)
        swaps["tt"] = toric_ns
        saved = {k: getattr(cli, k) for k in swaps}
        for k, v in swaps.items():
            setattr(cli, k, v)
        try:
            yield
        finally:
            for k, v in saved.items():
                setattr(cli, k, v)
