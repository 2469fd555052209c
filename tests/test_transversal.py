import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from holoqec import (
    Code,
    Frame,
    PauliString,
    check_projectively_trivial_action,
    distance,
    exponential_path,
    fl_lie_algebra,
    flatness_probe_transversal,
    logical_action,
    pauli_generator_path,
    transversal_holonomy,
)
from holoqec.cli import _transversal_path_for_gate
from holoqec.fivequbit import R3, STABILIZER_LABELS, logical_x, logical_z
from holoqec.pauli import SIGMA, apply_pauli, random_unitary
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY, NotALoopError
from holoqec.transversal import (
    PathSegment,
    TransversalPath,
    TransversalUnitary,
    _antiherm_site_basis,
    _expm_antihermitian,
)


def site_operator(h, j, dims):
    """Dense oracle: h on site j, identity elsewhere; site 0 is the rightmost Kronecker factor."""
    out = np.eye(1)
    for k in reversed(range(len(dims))):
        out = np.kron(out, h if k == j else np.eye(dims[k]))
    return out


def repetition_code(d, n):
    """span{|k...k>}: column k is the row sum_j k d^j."""
    dims = (d,) * n
    data = np.zeros((d**n, d), dtype=complex)
    for k in range(d):
        data[sum(k * d**j for j in range(n)), k] = 1.0
    return Code(Frame(data), dims)


def loop_endpoints():
    return [PauliString.from_label(s) for s in STABILIZER_LABELS] + [
        logical_x(),
        logical_z(),
    ]


# -- tangent algebra ----------------------------------------------------------


def test_full_space_algebra_dimension():
    code = Code(Frame(np.eye(4, dtype=complex)), (2, 2))
    basis = fl_lie_algebra(code)
    assert basis.dimension == 8  # sum of d_j^2


def test_single_qubit_span0_dimension():
    # C = span{|0>} on one qubit: diagonal u(2) generators survive
    code = Code(Frame(np.eye(2, dtype=complex)[:, :1]), (2,))
    basis = fl_lie_algebra(code)
    assert basis.dimension == 2
    for k in range(2):
        (h,) = basis.element(k)
        assert abs(h[0, 1]) < 1e-12 and abs(h[1, 0]) < 1e-12


def test_single_qutrit_span0_keeps_the_whole_nullspace():
    # C = span{|0>} on one qutrit: u(1) + u(2) survives, dimension 5.  The
    # constraint matrix is wide (2 N K = 6 rows, d^2 = 9 parameters), so
    # a thin SVD alone would return only 6 of the 9 right singular vectors.
    code = Code(Frame(np.eye(3, dtype=complex)[:, :1]), (3,))
    basis = fl_lie_algebra(code)
    assert basis.dimension == 5
    for k in range(5):
        (h,) = basis.element(k)
        assert np.max(np.abs(h[0, 1:])) < 1e-12 and np.max(np.abs(h[1:, 0])) < 1e-12


def test_toric_l2_algebra_keeps_no_square_svd_factor(toric2):
    """A (2NK)^2 U factor would be 32 MiB here; only the nullspace is needed."""
    tracemalloc.start()
    try:
        basis = fl_lie_algebra(toric2.code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension == 8
    assert peak < 8 * 2**20


def test_five_qubit_algebra_is_site_phases(code5):
    basis = fl_lie_algebra(code5)
    assert basis.dimension == 5
    fdata = code5.frame.data
    for k in range(basis.dimension):
        gens = basis.element(k)
        # tangency: (1 - P) H iota = 0
        hv = np.zeros_like(fdata)
        for j, h in enumerate(gens):
            if h is None:
                continue
            hv = hv + site_operator(h, j, code5.qudit_dims) @ fdata
        resid = hv - fdata @ (fdata.conj().T @ hv)
        assert np.max(np.abs(resid)) < 1e-10
        # restriction to the codespace is i theta 1
        m = fdata.conj().T @ hv
        theta = np.trace(m) / 2
        assert abs(theta.real) < 1e-10
        assert np.max(np.abs(m - theta * np.eye(2))) < 1e-10


def test_site_basis_is_one_read_only_stack_per_dimension():
    for d in (2, 3):
        b = _antiherm_site_basis(d)
        assert b.shape == (d * d, d, d) and not b.flags.writeable
        assert _antiherm_site_basis(d) is b
        assert np.array_equal(b + b.conj().transpose(0, 2, 1), np.zeros_like(b))
        gram = np.einsum("aij,bij->ab", b.conj(), b).real
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-15


@pytest.mark.parametrize("d, n, dim", [(2, 3, 6), (3, 3, 9)])
def test_repetition_code_algebra_is_the_diagonal_generators(d, n, dim):
    """Diagonal site generators keep span{|k...k>}; off-diagonal ones leave it."""
    code = repetition_code(d, n)
    basis = fl_lie_algebra(code)
    assert basis.dimension == dim == n * d
    fdata = code.frame.data
    for k in range(basis.dimension):
        for h in basis.element(k):
            if h is not None:
                assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-12
    off = np.zeros((d, d), dtype=complex)
    off[0, 1], off[1, 0] = 1.0, -1.0
    hv = site_operator(off, 0, code.qudit_dims) @ fdata
    assert np.linalg.norm(hv - fdata @ (fdata.conj().T @ hv)) > 0.5


def test_qutrit_repetition_code_action_is_not_a_phase():
    """The code detects no Z-type error, so its diagonal generators act logically."""
    code = repetition_code(3, 3)
    rep = check_projectively_trivial_action(code, fl_lie_algebra(code), 10)
    assert not rep.ok and rep.max_residual > 1e-3


def test_apply_on_mixed_dimensions_matches_kron(rng):
    dims = (3, 2, 2)
    factors = tuple(random_unitary(d, rng) for d in dims)
    u = TransversalUnitary(factors)
    dense = np.kron(np.kron(factors[2], factors[1]), factors[0])
    for shape in ((12,), (12, 5)):
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.max(np.abs(u.apply(arr) - dense @ arr)) < 1e-13


def test_apply_rejects_a_dims_mismatch():
    u = TransversalUnitary.identity((3, 2))
    for rows in (4, 12):
        with pytest.raises(ValueError, match="rows"):
            u.apply(np.zeros((rows, 2), dtype=complex))


def test_path_rejects_wrongly_shaped_generators(rng):
    (h4,) = _random_antihermitian(rng, 1, 4)
    with pytest.raises(ValueError, match="2 x 2"):
        exponential_path((2, 2), [h4, None])
    with pytest.raises(ValueError, match="3 x 3"):
        exponential_path((2, 3), [None, _random_antihermitian(rng, 1, 2)[0]])


def test_unitary_rejects_a_non_unitary_factor_in_mixed_dims(rng):
    factors = [random_unitary(d, rng) for d in (2, 3, 2)]
    assert TransversalUnitary(tuple(factors)).dims == (2, 3, 2)
    for j in range(3):
        bad = list(factors)
        bad[j] = 1.01 * bad[j]
        with pytest.raises(ValueError, match="unitary"):
            TransversalUnitary(tuple(bad))


def test_path_checks_every_distinct_segment(rng):
    """Segment tuples as compose (distinct segments) and subdivide (one
    segment repeated) build them: a bad generator raises wherever it sits."""
    dims = (2, 3, 2)
    good = PathSegment(tuple(_random_antihermitian(rng, 1, d)[0] for d in dims))
    hermitian = PathSegment((None, np.eye(3, dtype=complex), None))
    misshaped = PathSegment((None, None, _random_antihermitian(rng, 1, 3)[0]))
    for seg, match in ((hermitian, "anti-Hermitian"), (misshaped, "2 x 2")):
        for segs in ((good, seg), (good, good, seg), (seg,) * 3, (seg, good, seg)):
            with pytest.raises(ValueError, match=match):
                TransversalPath(dims, segs)


def test_trivial_action_probe(code5, rng):
    basis = fl_lie_algebra(code5)
    # H = 0: exact identity
    u = TransversalUnitary.identity((2,) * 5)
    m = code5.frame.data.conj().T @ u.apply(code5.frame.data)
    assert np.allclose(m, np.eye(2))
    # a pure global-phase generator gives e^{i theta}
    theta = 0.7
    path = exponential_path((2,) * 5, [1j * theta * np.eye(2)] + [None] * 4)
    res = transversal_holonomy(code5, path)
    assert res.classification == PHASE_ONLY
    assert np.isclose(res.phase, np.exp(1j * theta))
    # random exponentials of the tangent algebra
    rep = check_projectively_trivial_action(code5, basis, 100, tol=1e-8, rng=rng)
    assert rep.ok


# -- generator paths ----------------------------------------------------------


def test_pauli_generator_path_endpoints(rng):
    ident = pauli_generator_path(PauliString.identity(3))
    u = ident.endpoint()
    for f in u.factors:
        assert np.allclose(f, np.eye(2))

    x1 = pauli_generator_path(PauliString.from_label("X"))
    assert np.allclose(x1.endpoint().factors[0], SIGMA["X"], atol=1e-12)

    # endpoint matches the Pauli for all phases, including Y sites
    for label in ("XXXXX", "-ZZZZZ", "+i*XYZIZ", "YIIII"):
        p = PauliString.from_label(label)
        path = pauli_generator_path(p)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.max(np.abs(path.endpoint().apply(v) - apply_pauli(p, v))) < 1e-12


def test_pauli_generator_path_midpoint_unitary():
    p = PauliString.from_label("XXXXX")
    path = pauli_generator_path(p)
    u = path.evaluate(0.5)
    from holoqec.pauli import alpha, beta

    expected = alpha(0.5) * np.eye(2) + beta(0.5) * SIGMA["X"]
    for f in u.factors:
        assert np.max(np.abs(f - expected)) < 1e-12
        assert np.max(np.abs(f.conj().T @ f - np.eye(2))) < 1e-12


def test_subdivision_preserves_endpoint(rng):
    p = PauliString.from_label("XZZXI")
    path = pauli_generator_path(p)
    sub = path.subdivide([3])
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert np.max(np.abs(sub.endpoint().apply(v) - path.endpoint().apply(v))) < 1e-12


# -- holonomies ---------------------------------------------------------------


def test_holonomy_constant_path(code5):
    path = TransversalPath((2,) * 5, ())
    res = transversal_holonomy(code5, path)
    assert res.classification == PHASE_ONLY and np.isclose(res.phase, 1.0)


def test_holonomy_stabilizer_loops(code5):
    for label in STABILIZER_LABELS:
        res = transversal_holonomy(code5, pauli_generator_path(PauliString.from_label(label)))
        assert res.classification == PHASE_ONLY
        assert np.isclose(res.phase, 1.0, atol=1e-10)


def test_holonomy_logical_x_z(code5):
    res = transversal_holonomy(code5, pauli_generator_path(logical_x()))
    assert res.classification == NONTRIVIAL_LOGICAL
    assert np.allclose(res.logical, np.array([[0, 1], [1, 0]]), atol=1e-10)
    res = transversal_holonomy(code5, pauli_generator_path(logical_z()))
    assert np.allclose(res.logical, np.diag([1, -1]), atol=1e-10)


def r3_path():
    h = scipy.linalg.logm(R3)
    h = 0.5 * (h - h.conj().T)
    return exponential_path((2,) * 5, [h] * 5)


def _random_antihermitian(rng, m, d):
    a = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    return a - a.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_site_exponential_matches_scipy_expm(rng, d):
    hs = _random_antihermitian(rng, 20, d)
    stacked = _expm_antihermitian(hs)
    for h, u in zip(hs, stacked):
        single = _expm_antihermitian(h[None])[0]
        for got in (single, u):
            assert np.max(np.abs(got - scipy.linalg.expm(h))) < 1e-13
            assert np.max(np.abs(got.conj().T @ got - np.eye(d))) < 1e-13


def test_mixed_dimension_path_matches_scipy_expm(rng):
    """Sites of different dimensions are exponentiated in separate batches, in path order."""
    (h2,), (h3, g3) = _random_antihermitian(rng, 1, 2), _random_antihermitian(rng, 2, 3)
    path = TransversalPath((2, 3), (PathSegment((h2, h3)), PathSegment((None, g3))))
    u = path.evaluate(0.75)  # all of the first segment, half of the second
    expected = (scipy.linalg.expm(h2), scipy.linalg.expm(g3 / 2) @ scipy.linalg.expm(h3))
    for got, ref in zip(u.factors, expected):
        assert np.max(np.abs(got - ref)) < 1e-13


def test_cli_r3_generator_matches_scipy_logm():
    h = _transversal_path_for_gate("R3").segments[0].generators[0]
    assert np.max(np.abs(h - scipy.linalg.logm(R3))) < 1e-13


def test_r3_site_matrix_cycles_paulis():
    assert np.max(np.abs(R3 @ SIGMA["X"] @ R3.conj().T - SIGMA["Y"])) < 1e-12
    assert np.max(np.abs(R3 @ SIGMA["Y"] @ R3.conj().T - SIGMA["Z"])) < 1e-12
    assert np.max(np.abs(R3 @ SIGMA["Z"] @ R3.conj().T - SIGMA["X"])) < 1e-12


def test_holonomy_r3_conjugation(code5):
    res = transversal_holonomy(code5, r3_path())
    assert res.classification == NONTRIVIAL_LOGICAL
    m = res.logical
    xl = logical_action(code5, logical_x())
    zl = logical_action(code5, logical_z())
    yl = 1j * xl @ zl
    assert np.max(np.abs(m @ xl @ m.conj().T - yl)) < 1e-8
    assert np.max(np.abs(m @ yl @ m.conj().T - zl)) < 1e-8
    assert np.max(np.abs(m @ zl @ m.conj().T - xl)) < 1e-8


def test_holonomy_rejects_non_loop(code5):
    bad = pauli_generator_path(PauliString.from_label("XIIII"))
    with pytest.raises(NotALoopError):
        transversal_holonomy(code5, bad)


def test_monodromy_homomorphism(code5):
    """holonomy(path1 * path2) equals the product of endpoint holonomies."""
    p1 = pauli_generator_path(logical_x())
    p2 = pauli_generator_path(logical_z())
    m1 = transversal_holonomy(code5, p1).logical
    m2 = transversal_holonomy(code5, p2).logical
    m12 = transversal_holonomy(code5, p1.compose(p2)).logical
    assert np.max(np.abs(m12 - m2 @ m1)) < 1e-10


# -- flatness and distance preservation ----------------------------------------


def test_flatness_probe(code5, rng):
    rep = flatness_probe_transversal(code5, loop_endpoints(), 50, tol=1e-7, rng=rng)
    assert rep.ok
    assert rep.max_phase_adjusted_deviation < 1e-7


def test_transversal_orbit_preserves_distance(code5, rng):
    """Random transversal images of the code keep distance 3."""
    for _ in range(3):
        u = TransversalUnitary(tuple(random_unitary(2, rng) for _ in range(5)))
        moved = Code(Frame(u.apply(code5.frame.data)), code5.qudit_dims)
        assert distance(moved, 3).delta == 3
