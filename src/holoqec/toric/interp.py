"""Continuous defect positions: edge-interpolation codes, in-face codes from
the explicit coefficient solution, and the determinant-winding check.

A face with lower-left corner (fx, fy) has its corners labelled

    A = (fx, fy+1)   B = (fx+1, fy+1)
    C = (fx, fy)     D = (fx+1, fy)

with in-face coordinates (x, y) measured from C.  Under the uniform edge
orientation the face edges run C->D, A->B (+x) and C->A, D->B (+y).  Dual
faces (centered on a primal vertex) get the same treatment in dual
coordinates, with X-type connecting Paulis.  Edge and face codes vet their
corners with the move check of every defect move (``strings._move_check``).
"""

from __future__ import annotations

import numpy as np

from ..frames import Frame, common_rows, subspace_distance
from ..pauli import PauliString, alpha, apply_pauli, beta, interp_matrix, pauli_mul
from .build import ToricCode, build_code
from .lattice import DefectConfig, Edge, TorusLattice
from .strings import Step, TransportError, _move_check, step_pauli

__all__ = [
    "lower_coeffs",
    "upper_coeffs",
    "edge_code",
    "face_code",
    "corner_frames",
    "combine_corner_frames",
    "slide_frame",
    "det_winding_check",
    "FaceEntryError",
    "face_checks",
]

_EPS = 1e-12


class FaceEntryError(TransportError):
    """A corner configuration is invalid, so the face interior is off limits."""


def _unit_phase(z: complex) -> complex:
    return z / abs(z)


def lower_coeffs(x: float, y: float) -> tuple[complex, complex, complex]:
    """(a, c, d) for the triangle x + y <= 1: psi = a psi_A + c psi_C + d psi_D."""
    a = alpha(x) * beta(y)
    c = alpha(x + y)
    rad = np.sqrt(max(0.0, 1.0 - abs(a) ** 2 - abs(c) ** 2))
    ph = beta(x) * alpha(y)
    d = 0.0 if abs(ph) < _EPS else _unit_phase(ph) * rad  # d(0, y) = 0
    return a, c, d


def upper_coeffs(x: float, y: float) -> tuple[complex, complex, complex]:
    """(a', b', d') for the triangle x + y >= 1: psi = a' psi_A + b' psi_B + d' psi_D."""
    a = alpha(x) * beta(y)
    b = beta(x + y - 1.0)
    rad = np.sqrt(max(0.0, 1.0 - abs(a) ** 2 - abs(b) ** 2))
    ph = beta(x) * alpha(y)
    d = 0.0 if abs(ph) < _EPS else _unit_phase(ph) * rad  # d'(x, 1) = 0
    return a, b, d


def _face_corners(lat: TorusLattice, kind: str, face) -> dict[str, tuple[int, int]]:
    """Corner label -> defect-lattice vertex for a primal face or dual face.

    For kind='dual', ``face`` is a primal vertex and the corners are the four
    primal faces around it, i.e. dual vertices, in dual coordinates.
    """
    if kind == "primal":
        fx, fy = lat.wrap(face[0]), lat.wrap(face[1])
        return {
            "C": (fx, fy),
            "D": (lat.wrap(fx + 1), fy),
            "A": (fx, lat.wrap(fy + 1)),
            "B": (lat.wrap(fx + 1), lat.wrap(fy + 1)),
        }
    wx, wy = lat.wrap(face[0]), lat.wrap(face[1])
    return {
        "C": (lat.wrap(wx - 1), lat.wrap(wy - 1)),
        "D": (wx, lat.wrap(wy - 1)),
        "A": (lat.wrap(wx - 1), wy),
        "B": (wx, wy),
    }


def _connecting_pauli(lat: TorusLattice, kind: str, a, b) -> PauliString:
    return step_pauli(lat, Step(kind, lat.connecting_edge(a, b)))


def _moving_defect(lat: TorusLattice, tc: ToricCode, kind: str, corners) -> tuple[int, str]:
    """Index and corner label of the unique defect sitting on a corner."""
    hits = [
        (i, lbl)
        for i, p in enumerate(tc.cfg.sites(kind))
        for lbl, cv in corners.items()
        if p == cv
    ]
    if len(hits) != 1:
        raise FaceEntryError(
            f"need exactly one {kind} defect on a corner, found {len(hits)}"
        )
    return hits[0]


def corner_frames(tc: ToricCode, kind: str, face) -> tuple[dict[str, Frame], int]:
    """Exactly corresponding frames at the four corners, based at A.

    psi_B = P_AB psi_A, psi_C = P_CA psi_A, psi_D = P_CD P_CA psi_A; the two
    routes to D agree on the codespace because the face carries no defect.
    Raises FaceEntryError unless all four corner configurations are valid.
    """
    lat = tc.lat
    corners = _face_corners(lat, kind, face)
    idx, start_lbl = _moving_defect(lat, tc, kind, corners)
    for lbl, cv in corners.items():
        _, why = _move_check(lat, tc.cfg, kind, idx, cv, tc.separation)
        if why:
            raise FaceEntryError(f"corner {lbl} at {cv} {why}")

    p_ca = _connecting_pauli(lat, kind, corners["C"], corners["A"])
    p_cd = _connecting_pauli(lat, kind, corners["C"], corners["D"])
    p_ab = _connecting_pauli(lat, kind, corners["A"], corners["B"])

    to_a = {
        "A": PauliString.identity(lat.n_edges),
        "C": p_ca,
        "B": p_ab,
        "D": pauli_mul(p_ca, p_cd),
    }
    f_a = apply_pauli(to_a[start_lbl], tc.frame)
    frames = {
        "A": f_a,
        "B": apply_pauli(p_ab, f_a),
        "C": apply_pauli(p_ca, f_a),
        "D": apply_pauli(pauli_mul(p_cd, p_ca), f_a),
    }
    return frames, idx


def combine_corner_frames(frames: dict[str, Frame], x: float, y: float) -> Frame:
    """The in-face frame at (x, y) from the corner frames, on their common rows."""
    if x + y <= 1.0:
        a, c, d = lower_coeffs(x, y)
        rows, (fa, fc, fd) = common_rows(frames["A"], frames["C"], frames["D"])
        vals = a * fa + c * fc + d * fd
    else:
        a, b, d = upper_coeffs(x, y)
        rows, (fa, fb, fd) = common_rows(frames["A"], frames["B"], frames["D"])
        vals = a * fa + b * fb + d * fd
    return Frame.from_rows(frames["A"].N, rows, vals)


def face_code(tc: ToricCode, kind: str, face, xy: tuple[float, float]) -> Frame:
    """Code with the moving defect at in-face position (x, y)."""
    frames, _ = corner_frames(tc, kind, face)
    return combine_corner_frames(frames, *xy)


def slide_frame(f: Frame, sigma: PauliString, t: float) -> Frame:
    """alpha(t) F + beta(t) sigma F: F moved a parameter t along sigma's edge."""
    rows, (u, v) = common_rows(f, apply_pauli(sigma, f))
    return Frame.from_rows(f.N, rows, alpha(t) * u + beta(t) * v)


def edge_code(tc: ToricCode, kind: str, edge: Edge, t: float) -> Frame:
    """Code with the moving defect a distance t from the oriented edge start.

    C(t) = U(t) applied to the start-corner code; when the configuration's
    defect sits at the oriented end the start frame is sigma times ours.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    lat = tc.lat
    a, b = lat.edge_endpoints(edge)
    positions = tc.cfg.sites(kind)
    sigma = step_pauli(lat, Step(kind, edge))
    at_a = a in positions
    at_b = b in positions
    if at_a == at_b:
        raise ValueError(f"need exactly one {kind} defect on {edge}")
    idx = positions.index(a if at_a else b)
    for dest in (a, b):
        _, why = _move_check(lat, tc.cfg, kind, idx, dest, tc.separation)
        if why:
            raise ValueError(f"edge endpoint {dest} {why}")
    f_start = tc.frame if at_a else apply_pauli(sigma, tc.frame)
    return slide_frame(f_start, sigma, t)


_LEG_ORDER = (("CA", "reverse"), ("CD", "forward"), ("DB", "forward"), ("AB", "reverse"))


def det_winding_check(
    kind: str = "primal", samples: int = 64, flip_edge: str | None = None
) -> float:
    """Total winding of arg(det) of the four boundary interpolation families.

    Walks A -> C -> D -> B -> A; legs along the uniform orientation use the
    forward family, legs against it the reverse family, and their half-turns
    cancel pairwise.  ``flip_edge`` (one of CA, CD, DB, AB) flips one leg for
    the +-2 pi diagnostic.  Every face of every lattice has the same legs, so
    the winding depends on neither.
    """
    if samples < 4:
        raise ValueError("need at least 4 samples per leg")
    letter = "Z" if kind == "primal" else "X"
    total = 0.0
    for name, direction in _LEG_ORDER:
        if flip_edge == name:
            direction = "forward" if direction == "reverse" else "reverse"
        dets = [
            complex(np.linalg.det(interp_matrix(letter, k / samples, direction)))
            for k in range(samples + 1)
        ]
        for d0, d1 in zip(dets, dets[1:]):
            total += float(np.angle(d1 * np.conj(d0)))
    return total


def face_checks(lat: TorusLattice, tol: float) -> dict:
    """Criterion-style face diagnostics: winding, coefficients, frame checks."""
    max_winding = abs(det_winding_check())
    worst_coeff = 0.0
    for k in range(21):
        u = k / 20
        a, c, d = lower_coeffs(u, 0.0)  # edge CD
        worst_coeff = max(worst_coeff, abs(a), abs(c - alpha(u)), abs(d - beta(u)))
        a, c, d = lower_coeffs(0.0, u)  # edge CA
        worst_coeff = max(worst_coeff, abs(a - beta(u)), abs(c - alpha(u)), abs(d))
        a, b, d = upper_coeffs(u, 1.0)  # edge AB
        worst_coeff = max(worst_coeff, abs(a - alpha(u)), abs(b - beta(u)), abs(d))
        a, b, d = upper_coeffs(1.0, u)  # edge DB
        worst_coeff = max(worst_coeff, abs(a), abs(b - beta(u)), abs(d - alpha(u)))
        # diagonal agreement between the two triangles
        a, c, d = lower_coeffs(u, 1.0 - u)
        ap, bp, dp = upper_coeffs(u, 1.0 - u)
        worst_coeff = max(worst_coeff, abs(a - ap), abs(bp), abs(c), abs(d - dp))
    # normalization on a 20-point grid
    for kx in range(21):
        for ky in range(21):
            x, y = kx / 20, ky / 20
            if x + y <= 1:
                a, c, d = lower_coeffs(x, y)
                worst_coeff = max(worst_coeff, abs(abs(a) ** 2 + abs(c) ** 2 + abs(d) ** 2 - 1))
            if x + y >= 1:
                a, b, d = upper_coeffs(x, y)
                worst_coeff = max(worst_coeff, abs(abs(a) ** 2 + abs(b) ** 2 + abs(d) ** 2 - 1))
    max_frame = None
    if lat.L >= 3:
        cfg = DefectConfig(((0, 0), (2, 2)), ())
        tc = build_code(lat, cfg, separation=1)
        max_frame = 0.0
        for k in range(1, 20):
            u = k / 20
            fb = face_code(tc, "primal", (0, 0), (u, 0.0))
            fe = edge_code(tc, "primal", Edge(0, 0, "h"), u)
            max_frame = max(max_frame, subspace_distance(fb, fe))
            fb = face_code(tc, "primal", (0, 0), (0.0, u))
            fe = edge_code(tc, "primal", Edge(0, 0, "v"), u)
            max_frame = max(max_frame, subspace_distance(fb, fe))
    ok = max_winding < 1e-9 and worst_coeff < 1e-12 and (
        max_frame is None or max_frame < tol
    )
    return {
        "max_winding": max_winding,
        "max_coeff_deviation": worst_coeff,
        "max_frame_deviation": max_frame,
        "ok": ok,
    }
