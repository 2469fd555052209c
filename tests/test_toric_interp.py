import numpy as np
import pytest

from holoqec import principal_overlap, subspace_distance
from holoqec.pauli import alpha, beta, interp_matrix
from holoqec.toric import (
    DefectConfig,
    Edge,
    FaceEntryError,
    Step,
    StringEvolution,
    apply_string,
    build_code,
    det_winding_check,
    edge_code,
    face_code,
    lower_coeffs,
    upper_coeffs,
)


# -- coefficient functions -----------------------------------------------------


def test_coeff_boundary_values():
    for k in range(21):
        u = k / 20
        a, c, d = lower_coeffs(u, 0.0)  # edge CD
        assert abs(a) < 1e-14 and abs(c - alpha(u)) < 1e-14 and abs(d - beta(u)) < 1e-14
        a, c, d = lower_coeffs(0.0, u)  # edge CA
        assert abs(a - beta(u)) < 1e-14 and abs(c - alpha(u)) < 1e-14 and abs(d) < 1e-14
        a, b, d = upper_coeffs(u, 1.0)  # edge AB
        assert abs(a - alpha(u)) < 1e-14 and abs(b - beta(u)) < 1e-14 and abs(d) < 1e-14
        a, b, d = upper_coeffs(1.0, u)  # edge DB
        assert abs(a) < 1e-14 and abs(b - beta(u)) < 1e-14 and abs(d - alpha(u)) < 1e-14


def test_coeff_normalization_grid():
    for kx in range(21):
        for ky in range(21):
            x, y = kx / 20, ky / 20
            if x + y <= 1:
                a, c, d = lower_coeffs(x, y)
                assert abs(abs(a) ** 2 + abs(c) ** 2 + abs(d) ** 2 - 1) < 1e-12
            if x + y >= 1:
                a, b, d = upper_coeffs(x, y)
                assert abs(abs(a) ** 2 + abs(b) ** 2 + abs(d) ** 2 - 1) < 1e-12


def test_coeff_diagonal_continuity():
    for k in range(1, 20):
        x = k / 20
        y = 1 - x
        a, c, d = lower_coeffs(x, y)
        ap, bp, dp = upper_coeffs(x, y)
        assert abs(a - ap) < 1e-12
        assert abs(bp) < 1e-12 and abs(c) < 1e-12
        assert abs(d - dp) < 1e-12


def test_corner_values():
    a, c, d = lower_coeffs(0.0, 0.0)
    assert np.isclose(c, 1.0) and abs(a) < 1e-14 and abs(d) < 1e-14  # corner C
    a, b, d = upper_coeffs(1.0, 1.0)
    assert np.isclose(b, 1.0) and abs(a) < 1e-15 and abs(d) < 1e-15  # corner B


# -- edge codes ------------------------------------------------------------------


def test_edge_code_endpoints(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    f0 = edge_code(tc, "primal", e, 0.0)
    assert subspace_distance(f0, tc.frame) < 1e-12
    f1 = edge_code(tc, "primal", e, 1.0)
    moved, _ = apply_string(tc, StringEvolution((Step("primal", e),)))
    assert subspace_distance(f1, moved.frame) < 1e-12


def test_edge_code_overlap_closed_form(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    for t, tp in ((0.5, 0.25), (0.1, 0.7), (0.45, 0.5)):
        m = principal_overlap(
            edge_code(tc, "primal", e, t), edge_code(tc, "primal", e, tp)
        )
        svals = np.linalg.svd(m, compute_uv=False)
        closed = abs(np.cos(np.pi * (t - tp) / 2))
        assert np.max(np.abs(svals - closed)) < 1e-10


def test_edge_code_injectivity_bound(toric3_two_primal):
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    ts = np.linspace(0.0, 1.0, 9)
    for i, t in enumerate(ts):
        for tp in ts[i + 1 :]:
            if abs(t - tp) < 0.05:
                continue
            m = principal_overlap(
                edge_code(tc, "primal", e, t), edge_code(tc, "primal", e, tp)
            )
            smax = np.linalg.svd(m, compute_uv=False).max()
            assert smax <= abs(np.cos(np.pi * (t - tp) / 2)) + 1e-10
            assert smax < 1.0


def test_edge_code_from_far_end(toric3_two_primal):
    """The code at position t does not depend on which end hosts the defect."""
    tc = toric3_two_primal
    e = Edge(0, 0, "h")
    moved, _ = apply_string(tc, StringEvolution((Step("primal", e),)))
    for t in (0.25, 0.5, 0.75):
        assert subspace_distance(
            edge_code(tc, "primal", e, t), edge_code(moved, "primal", e, t)
        ) < 1e-11


def test_edge_code_requires_adjacent_defect(toric3_two_primal):
    with pytest.raises(ValueError):
        edge_code(toric3_two_primal, "primal", Edge(1, 0, "v"), 0.5)


# -- face codes -------------------------------------------------------------------


def test_face_code_corners(toric3_two_primal):
    tc = toric3_two_primal
    face = (0, 0)
    assert subspace_distance(face_code(tc, "primal", face, (0.0, 0.0)), tc.frame) < 1e-11
    moved, _ = apply_string(tc, StringEvolution((Step("primal", Edge(0, 0, "h")),)))
    assert subspace_distance(face_code(tc, "primal", face, (1.0, 0.0)), moved.frame) < 1e-11


def test_face_code_boundary_agreement(toric3_two_primal):
    tc = toric3_two_primal
    face = (0, 0)
    tc_d, _ = apply_string(tc, StringEvolution((Step("primal", Edge(0, 0, "h")),)))
    tc_a, _ = apply_string(tc, StringEvolution((Step("primal", Edge(0, 0, "v")),)))
    worst = 0.0
    for k in range(1, 20):
        u = k / 20
        pairs = [
            (face_code(tc, "primal", face, (u, 0.0)), edge_code(tc, "primal", Edge(0, 0, "h"), u)),
            (face_code(tc, "primal", face, (0.0, u)), edge_code(tc, "primal", Edge(0, 0, "v"), u)),
            (face_code(tc, "primal", face, (1.0, u)), edge_code(tc_d, "primal", Edge(1, 0, "v"), u)),
            (face_code(tc, "primal", face, (u, 1.0)), edge_code(tc_a, "primal", Edge(0, 1, "h"), u)),
        ]
        for fb, fe in pairs:
            worst = max(worst, subspace_distance(fb, fe))
    assert worst < 1e-9


def test_face_code_diagonal_continuity(toric3_two_primal):
    tc = toric3_two_primal
    face = (0, 0)
    for k in range(1, 20):
        x = k / 20
        lo = face_code(tc, "primal", face, (x, 1 - x))
        eps = 1e-9
        up = face_code(tc, "primal", face, (min(1.0, x + eps), 1 - x))
        assert subspace_distance(lo, up) < 1e-8


def test_face_code_all_faces(lat3):
    """Every face admits the construction with a suitably placed defect."""
    for face in lat3.faces():
        partner = ((face[0] + 2) % 3, (face[1] + 2) % 3)
        tc = build_code(lat3, DefectConfig((face, partner), ()), separation=1)
        f = face_code(tc, "primal", face, (0.4, 0.3))
        assert f.K == 4


def test_face_code_dual(lat3):
    cfg = DefectConfig((), ((0, 0), (2, 2)))
    tc = build_code(lat3, cfg, separation=1)
    # dual face centered at primal vertex (1, 0) has dual corner A = (0, 0)
    f = face_code(tc, "dual", (1, 0), (0.3, 0.6))
    assert f.K == 4
    # corner A has in-face coordinates (0, 1)
    fa = face_code(tc, "dual", (1, 0), (0.0, 1.0))
    assert subspace_distance(fa, tc.frame) < 1e-11


def test_face_entry_forbidden_when_corner_occupied(lat3):
    cfg = DefectConfig(((0, 0), (1, 1)), ())
    tc = build_code(lat3, cfg, separation=0)
    # face (0,0) has corner (1,1), occupied by the partner defect
    with pytest.raises(FaceEntryError):
        face_code(tc, "primal", (0, 0), (0.5, 0.5))


def test_face_entry_forbidden_on_hardcore(lat3):
    # partner at (2,2): every corner of face (0,0) keeps distance 2 -> allowed
    tc = build_code(lat3, DefectConfig(((0, 0), (2, 2)), ()), separation=2)
    face_code(tc, "primal", (0, 0), (0.5, 0.5))
    # partner at (2,1): corner (1,1) of face (0,0) sits at distance 1 -> refused
    tc2 = build_code(lat3, DefectConfig(((0, 0), (2, 1)), ()), separation=2)
    with pytest.raises(FaceEntryError):
        face_code(tc2, "primal", (0, 0), (0.5, 0.5))


# -- determinant winding -----------------------------------------------------------


def test_det_winding_zero_uniform():
    assert abs(det_winding_check()) < 1e-9


def test_det_winding_flip_diagnostic():
    for leg in ("CA", "CD", "DB", "AB"):
        w = det_winding_check(flip_edge=leg)
        assert abs(abs(w) - 2 * np.pi) < 1e-9


def test_det_winding_dual():
    assert abs(det_winding_check(kind="dual")) < 1e-9


def test_zero_length_traversal_has_no_winding():
    for letter in "XZ":
        for direction in ("forward", "reverse"):
            d = np.linalg.det(interp_matrix(letter, 0.0, direction))
            assert abs(np.angle(d)) < 1e-12
