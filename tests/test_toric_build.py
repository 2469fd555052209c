import numpy as np
import pytest

from holoqec import DenseSizeError, distance, orthonormalize
from holoqec.pauli import PauliString, apply_pauli
from holoqec.toric import ConfigError, DefectConfig, TorusLattice, build_code
from holoqec.toric.build import (
    _dual_pairing_string,
    _homology_shifts,
    face_mask,
    vertex_mask,
)


def stabilizer_eigenvalue(lat, frame, mask, pauli_kind):
    n = lat.n_edges
    p = PauliString(n, mask, 0, 0) if pauli_kind == "x" else PauliString(n, 0, mask, 0)
    block = frame.data.conj().T @ apply_pauli(p, frame.data)
    val = np.trace(block) / frame.K
    assert np.max(np.abs(block - val * np.eye(frame.K))) < 1e-12
    return val


def test_no_defect_builds(toric2, toric3):
    assert toric2.code.K == 4 and toric2.code.N == 2**8
    assert toric3.code.K == 4 and toric3.code.N == 2**18


def test_all_stabilizers_plus_one(toric2):
    lat = toric2.lat
    for v in lat.vertices():
        assert np.isclose(
            stabilizer_eigenvalue(lat, toric2.frame, vertex_mask(lat, v), "x"), 1.0
        )
    for f in lat.faces():
        assert np.isclose(
            stabilizer_eigenvalue(lat, toric2.frame, face_mask(lat, f), "z"), 1.0
        )


def test_defect_signs(lat3):
    cfg = DefectConfig(((0, 0), (1, 1)), ((1, 2), (2, 1)))
    tc = build_code(lat3, cfg, separation=1)
    assert tc.code.K == 4
    for v in lat3.vertices():
        want = -1.0 if v in cfg.primal else 1.0
        assert np.isclose(
            stabilizer_eigenvalue(lat3, tc.frame, vertex_mask(lat3, v), "x"), want
        )
    for f in lat3.faces():
        want = -1.0 if f in cfg.dual else 1.0
        assert np.isclose(
            stabilizer_eigenvalue(lat3, tc.frame, face_mask(lat3, f), "z"), want
        )


def test_two_defect_distance2_pair(lat3):
    """Defected builds keep K = 4 (max pair distance on L=3 is 2)."""
    tc = build_code(lat3, DefectConfig(((0, 0), (1, 1)), ()), separation=2)
    assert tc.code.K == 4


def test_parity_error_via_config():
    with pytest.raises(ValueError):
        DefectConfig(((0, 0),), ())


def test_hardcore_config_error(lat3):
    cfg = DefectConfig(((0, 0), (1, 0)), ())  # distance 1
    with pytest.raises(ConfigError):
        build_code(lat3, cfg, separation=3)


@pytest.mark.parametrize(
    "primal, dual",
    [
        (((0, 0, 0), (0, 2, 1)), ()),  # no star would be flipped
        (((3, 2), (0, 0)), ()),  # would build the code of (0, 2)
        (((0, 0), (-3, 0)), ()),  # both are the vertex (0, 0)
        ((), ((0, 0), (1.0, 1))),
    ],
    ids=["triple", "past-L", "negative", "float"],
)
def test_sites_off_the_lattice_are_refused(lat3, primal, dual):
    """Refused before the hard-core check, which every one of these also fails."""
    with pytest.raises(ConfigError, match=r"site .* is not a pair of ints in range\(3\)"):
        build_code(lat3, DefectConfig(primal, dual), separation=3)


def test_l2_defected_build(lat2):
    tc = build_code(lat2, DefectConfig(((0, 0), (1, 1)), ()), separation=2)
    assert tc.code.K == 4


def test_distances(toric2, toric3):
    assert distance(toric2.code, 2).delta == 2
    assert distance(toric3.code, 3).delta == 3


def test_distance_witness_is_logical_row(toric2):
    res = distance(toric2.code, 2)
    assert res.witness is not None
    assert res.witness.weight == 2


def test_dense_cap():
    """L = 4 builds on its support rows; only the dense view is refused."""
    tc = build_code(TorusLattice(4), DefectConfig((), ()), separation=0)
    assert tc.code.K == 4 and tc.frame.rows.size == 4 * 2**15
    with pytest.raises(DenseSizeError):
        tc.frame.data


def test_l5_build_is_refused_before_it_allocates():
    """4 seeds times 2^24 rows are bounded up front, before any row is made."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(DenseSizeError, match="the support rows of a stabilizer code"):
            build_code(TorusLattice(5), DefectConfig((), ()), separation=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def projector_build(lat, cfg):
    """Oracle: the dense build, seeds times every vertex projector
    (1 + eps_v A_v)/2 on all 2^n rows, then Gram-Schmidt."""
    n = lat.n_edges
    b0 = _dual_pairing_string(lat, cfg)
    row, col = _homology_shifts(lat)
    arr = np.zeros((1 << n, 4), dtype=complex)
    for k, b in enumerate((b0, b0 ^ row, b0 ^ col, b0 ^ row ^ col)):
        arr[b, k] = 1.0
    for v in lat.vertices():
        eps = -1.0 if v in cfg.primal else 1.0
        arr = 0.5 * (arr + eps * apply_pauli(PauliString(n, vertex_mask(lat, v), 0), arr))
    return orthonormalize(arr.T).data


@pytest.mark.parametrize(
    "L, primal, dual, s",
    [
        (2, (), (), 0),
        (2, ((0, 0), (1, 1)), (), 2),
        (3, (), (), 0),
        (3, ((0, 0), (2, 2)), (), 1),
        (3, (), ((0, 0), (2, 2)), 1),
        (3, ((0, 0), (0, 2)), ((1, 1), (2, 0)), 0),
        (3, ((0, 0), (1, 1)), ((1, 2), (2, 1)), 0),
        (3, ((0, 0), (1, 1)), ((1, 2), (2, 1)), 1),
    ],
    ids=["toric2", "l2-defected", "toric3", "two-primal", "two-dual", "braidable", "swap",
         "defect-signs"],
)
def test_group_build_equals_projector_build(L, primal, dual, s):
    lat = TorusLattice(L)
    cfg = DefectConfig(primal, dual)
    tc = build_code(lat, cfg, separation=s)
    assert tc.frame.rows.size == 4 * 2 ** (L * L - 1)
    assert np.array_equal(tc.frame.data, projector_build(lat, cfg))


def test_build_touches_only_support_rows(lat3):
    import tracemalloc

    tracemalloc.start()
    try:
        build_code(lat3, DefectConfig(((0, 0), (0, 2)), ((1, 1), (2, 0))), separation=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
