import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from holoqec import (
    Code,
    Frame,
    PauliString,
    check_projectively_trivial_action,
    code_lie_algebra,
    distance,
    exponential_path,
    fl_lie_algebra,
    flatness_probe_transversal,
    logical_action,
    pauli_generator_path,
    transversal_holonomy,
)
from holoqec import transversal
from holoqec.cli import _transversal_path_for_gate
from holoqec.fivequbit import R3, STABILIZER_LABELS, flatness_endpoints, logical_x, logical_z
from holoqec.pauli import SIGMA, apply_pauli, random_unitary
from holoqec.transport import NONTRIVIAL_LOGICAL, PHASE_ONLY, NotALoopError, classify
from holoqec.transversal import (
    PathSegment,
    TransversalPath,
    TransversalUnitary,
    _antiherm_site_basis,
    _expm_antihermitian,
    _fibre_actions,
    _step_table,
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
    return list(flatness_endpoints())


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
def test_non_finite_factors_and_generators_are_refused(bad):
    """NaN and inf fail the unitarity and anti-Hermiticity checks (a NaN compares false)."""
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ValueError, match="unitary"):
        TransversalUnitary((u, np.eye(2)))
    for h in (np.diag([bad, 0.0]), np.array([[0.0, bad], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            exponential_path((2,), [1j * np.eye(2) + h])


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


# -- the stacked probes against the path-by-path loop ----------------------------


def _phase_adjusted_deviation_reference(m1, m2):
    t = np.trace(m2.conj().T @ m1)
    xi = t / abs(t) if abs(t) > 1e-12 else 1.0
    return float(np.max(np.abs(m1 - xi * m2)))


def flatness_reference(code, endpoints, trials, rng):
    """The flatness probe as a loop of one holonomy per path, drawing as the probe does."""
    basis = fl_lie_algebra(code)
    worst = 0.0
    for _ in range(trials):
        word_len = int(rng.integers(1, 4))
        p = PauliString.identity(code.n)
        for _ in range(word_len):
            p = p * endpoints[int(rng.integers(0, len(endpoints)))]
        path1 = pauli_generator_path(p)
        m1 = transversal_holonomy(code, path1).logical
        pieces = [int(rng.integers(2, 5)) for _ in path1.segments]
        m2 = transversal_holonomy(code, path1.subdivide(pieces)).logical
        worst = max(worst, _phase_adjusted_deviation_reference(m1, m2))
        pre = exponential_path(code.qudit_dims, basis.random_element(rng))
        m3 = transversal_holonomy(code, pre.compose(path1)).logical
        worst = max(worst, _phase_adjusted_deviation_reference(m1, m3))
    return worst


def trivial_action_reference(code, basis, samples, rng):
    """The trivial-action probe as a loop of one path at a time."""
    fdata = code.frame.data
    worst = 0.0
    for _ in range(samples):
        path = exponential_path(code.qudit_dims, basis.random_element(rng))
        m = fdata.conj().T @ path.apply_to(fdata)
        xi = np.trace(m) / code.K
        residual = max(float(np.max(np.abs(m - xi * np.eye(code.K)))), abs(abs(xi) - 1.0))
        worst = max(worst, residual)
    return worst


def mixed_repetition_code():
    """span{|0,0,0>, |1,1,1>} on a qutrit and two qubits: rows 0 and 1 + 3 + 6."""
    data = np.zeros((12, 2), dtype=complex)
    data[0, 0] = data[10, 1] = 1.0
    return Code(Frame(data), (3, 2, 2))


# one path per chunk, so every chunk boundary is crossed
SMALL_CHUNK = 1


@pytest.mark.parametrize("chunk_bytes", [None, SMALL_CHUNK])
def test_flatness_probe_equals_the_path_by_path_loop(code5, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(transversal, "_CHUNK_BYTES", chunk_bytes)
    for seed in range(10):
        rep = flatness_probe_transversal(
            code5, loop_endpoints(), 10, rng=np.random.default_rng(seed)
        )
        ref = flatness_reference(code5, loop_endpoints(), 10, np.random.default_rng(seed))
        assert rep.max_phase_adjusted_deviation == ref


@pytest.mark.parametrize("chunk_bytes", [None, SMALL_CHUNK])
@pytest.mark.parametrize(
    "make_code", ["code5", "qutrit-repetition", "mixed-322"]
)
def test_trivial_action_equals_the_path_by_path_loop(
    make_code, chunk_bytes, code5, monkeypatch
):
    code = {
        "code5": code5,
        "qutrit-repetition": repetition_code(3, 3),
        "mixed-322": mixed_repetition_code(),
    }[make_code]
    if chunk_bytes is not None:
        monkeypatch.setattr(transversal, "_CHUNK_BYTES", chunk_bytes)
    basis = fl_lie_algebra(code)
    for seed in range(10):
        rep = check_projectively_trivial_action(
            code, basis, 20, rng=np.random.default_rng(seed)
        )
        ref = trivial_action_reference(code, basis, 20, np.random.default_rng(seed))
        assert rep.max_residual == ref


# sha256 of the float.hex of both probes' reports over seeds 0-39: any change
# of a draw, a step or the order of a product changes it
PROBE_REPORTS_SHA256 = "9ab803ce20b4ed5fd591b3455f712090425883fb8225441dac9aabda2c8a5b09"


def test_probe_reports_match_the_pinned_digest(code5):
    basis = fl_lie_algebra(code5)
    h = hashlib.sha256()
    for seed in range(40):
        rep = flatness_probe_transversal(
            code5, loop_endpoints(), 10, rng=np.random.default_rng(seed)
        )
        h.update(rep.max_phase_adjusted_deviation.hex().encode())
    for seed in range(40):
        rep = check_projectively_trivial_action(code5, basis, 20, rng=np.random.default_rng(seed))
        h.update(rep.max_residual.hex().encode())
    assert h.hexdigest() == PROBE_REPORTS_SHA256


@pytest.mark.parametrize("gate", ["X", "Z", "R3", *(f"stabilizer-{k}" for k in range(1, 5))])
def test_holonomy_equals_classify_of_the_end_frame(code5, gate):
    """The stack of one gives what classify gives on the lifted end frame, bit for bit."""
    path = _transversal_path_for_gate(gate)
    res = transversal_holonomy(code5, path)
    ref = classify(code5.frame, Frame(path.apply_to(code5.frame.data)))
    assert np.array_equal(res.logical, ref.logical)
    assert (res.phase, res.classification, res.residual) == (
        ref.phase,
        ref.classification,
        ref.residual,
    )


def test_flatness_probe_rejects_a_non_logical_endpoint(code5):
    bad = PauliString.from_label("XIIII")
    for endpoints in ([bad], loop_endpoints() + [bad]):
        with pytest.raises(NotALoopError):
            flatness_probe_transversal(code5, endpoints, 20, rng=np.random.default_rng(1))


def test_flatness_exponentiates_each_distinct_step_once(code5, monkeypatch):
    """A subdivided segment repeats one step and paths share their Pauli steps:
    every matrix the probe sends through eigh differs from every other."""
    sent = []

    def record(h):
        sent.append(h.copy())
        return _expm_antihermitian(h)

    monkeypatch.setattr(transversal, "_expm_antihermitian", record)
    flatness_probe_transversal(code5, loop_endpoints(), 10, rng=np.random.default_rng(0))
    steps = np.concatenate(sent).reshape(-1, 4)
    assert len(steps) > 10 and len(np.unique(steps, axis=0)) == len(steps)


def _steps(paths):
    """The step table of several paths, as a probe fills it for its chunk."""
    return _step_table(paths[0].dims, [[seg.generators for seg in p.segments] for p in paths])


def test_one_failing_path_fails_the_stack(code5):
    good = [pauli_generator_path(p) for p in loop_endpoints()]
    bad = pauli_generator_path(PauliString.from_label("XIIII"))
    m, residual = _fibre_actions(code5, _steps(good), 1e-9)
    assert m.shape == (6, 2, 2) and np.all(residual < 1e-9)
    with pytest.raises(NotALoopError):
        _fibre_actions(code5, _steps(good[:3] + [bad] + good[3:]), 1e-9)


def test_probes_refuse_negative_counts(code5):
    basis = fl_lie_algebra(code5)
    with pytest.raises(ValueError, match="trials"):
        flatness_probe_transversal(code5, loop_endpoints(), -1)
    with pytest.raises(ValueError, match="samples"):
        check_projectively_trivial_action(code5, basis, -1)
    assert flatness_probe_transversal(code5, loop_endpoints(), 0).ok
    assert check_projectively_trivial_action(code5, basis, 0).ok


def _flatness_peak(code5, trials):
    tracemalloc.start()
    try:
        flatness_probe_transversal(code5, loop_endpoints(), trials, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flatness_memory_does_not_grow_with_trials(code5):
    """3 000 trials are ten chunks: past the 30-trial peak (one small chunk) the peak
    grows by at most one chunk's budget, where holding every path would take ~50 MiB."""
    _flatness_peak(code5, 3)  # first-call caches
    small, large = _flatness_peak(code5, 30), _flatness_peak(code5, 3000)
    assert large < small + transversal._CHUNK_BYTES


def test_lie_algebra_is_built_once_per_code_and_builder(code5, monkeypatch, tmp_path):
    """code_lie_algebra keeps one basis per code; fl_lie_algebra stays uncached, and a
    replaced builder (a wrapper, a test double) is called again."""
    calls = []

    def counting(code):
        calls.append(code)
        return fl_lie_algebra(code)

    code = Code(code5.frame, code5.qudit_dims, code5.stabilizers)  # not the shared object
    first = code_lie_algebra(code, counting)
    assert code_lie_algebra(code, counting) is first and len(calls) == 1
    assert fl_lie_algebra(code) is not fl_lie_algebra(code)
    monkeypatch.setattr("holoqec.transversal.fl_lie_algebra", counting)
    for _ in range(2):  # the probe builds with the module's fl_lie_algebra, here the kept one
        flatness_probe_transversal(code, flatness_endpoints(), 2, rng=np.random.default_rng(0))
    assert len(calls) == 1
    assert code_lie_algebra(code, lambda c: calls.append(c) or first) is first
    assert len(calls) == 2

    from holoqec.cli import main

    cli_calls = []
    monkeypatch.setattr("holoqec.cli.fl_lie_algebra", lambda c: cli_calls.append(c) or first)
    for verb in (["lie-dim"], ["trivial-action", "--samples", "2"]) * 2:
        assert main(["transversal", *verb, "--out", str(tmp_path / "r.json")]) == 0
    assert len(cli_calls) == 1
