import pickle
import re
import time
import tracemalloc
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoqec import (
    Code,
    Frame,
    NotLogicalError,
    PauliString,
    code_from_json,
    code_to_json,
    correction_condition,
    distance,
    five_qubit_code,
    logical_action,
    squdit_errors,
    stabilizer_code,
)
from holoqec import toric as tt
from holoqec.codes import _UNITS, _PauliBlocks, _scalar_part, _weight_class
from holoqec.errors import GeoLattice, conjugated_error_set, geolocal_errors
from holoqec.fivequbit import logical_x, logical_z, stabilizer_generators
from holoqec.frames import DenseSizeError, orthonormalize
from holoqec.pauli import apply_pauli, pauli_mul, random_unitary


def dense_correction_oracle(code, errors, tol=1e-9):
    """Independent check of the constant-block condition via dense matrices."""
    f = code.frame.data
    for a in errors:
        for b in errors:
            m = f.conj().T @ a.to_dense().conj().T @ b.to_dense() @ f
            fab = np.trace(m) / code.K
            if np.max(np.abs(m - fab * np.eye(code.K))) >= tol:
                return False
    return True


def test_identity_set_trivially_correctable(code5):
    rep = correction_condition(code5, squdit_errors(5, 0))
    assert rep.correctable
    assert np.isclose(rep.f_matrix[0, 0], 1.0)


def test_five_qubit_corrects_weight_one(code5):
    es = squdit_errors(5, 1)
    rep = correction_condition(code5, es)
    assert rep.correctable
    assert dense_correction_oracle(code5, es)


def test_five_qubit_weight3_logical_not_correctable(code5):
    es = list(squdit_errors(5, 1)) + [logical_x() * stabilizer_generators()[0]]
    rep = correction_condition(code5, es)
    assert not rep.correctable
    assert rep.witness is not None
    assert rep.max_deviation > 1e-3


def test_correction_agrees_with_dense_oracle_on_weight2(code5):
    es = squdit_errors(5, 2)
    rep = correction_condition(code5, es)
    assert not rep.correctable  # distance 3 cannot correct all weight-2 pairs


def test_basis_independence(code5, rng):
    es = squdit_errors(5, 1)
    u = random_unitary(2, rng)
    rotated = Code(Frame(code5.frame.data @ u), code5.qudit_dims)
    rep1 = correction_condition(code5, es)
    rep2 = correction_condition(rotated, es)
    assert rep1.correctable and rep2.correctable
    # f matrix is basis independent outright
    assert np.max(np.abs(rep1.f_matrix - rep2.f_matrix)) < 1e-9


def test_full_space_distance_one():
    code = Code(Frame(np.eye(4, dtype=complex)), (2, 2))
    res = distance(code, 2)
    assert res.delta == 1


def test_distance_rejects_qudit_sites():
    code = Code(Frame(np.eye(6, dtype=complex)[:, :2]), (2, 3))
    with pytest.raises(ValueError):
        distance(code, 1)


def test_code_validates_dims():
    with pytest.raises(ValueError):
        Code(Frame(np.eye(4, dtype=complex)), (2,))


def test_five_qubit_distance(code5):
    res = distance(code5, 3)
    assert res.delta == 3
    assert res.witness is not None and res.witness.weight == 3


def test_distance_thread_invariance(code5):
    r1 = distance(code5, 3, threads=1)
    r4 = distance(code5, 3, threads=4)
    assert r1.delta == r4.delta
    assert r1.witness == r4.witness


@pytest.mark.parametrize("budget", [1, 10, 1000])
def test_weight_classes_follow_the_squdit_order(budget, monkeypatch):
    """The distance scan meets Paulis in squdit_errors order, so its witness is the first."""
    monkeypatch.setattr("holoqec.codes._CHUNK_BYTES", 16 * budget)  # runs of K = 1 blocks
    got = [
        (int(x), int(z))
        for w in range(1, 4)
        for xs, zs in _weight_class(5, w, 1)
        for x, z in zip(xs, zs)
    ]
    assert got == [(p.x_bits, p.z_bits) for p in squdit_errors(5, 3)][1:]


def test_distance_exhausted_reports_lower_bound(code5):
    res = distance(code5, 2)
    assert res.delta is None
    assert res.lower_bound == 3


def test_logical_action_cases(code5):
    assert np.allclose(logical_action(code5, PauliString.identity(5)), np.eye(2))
    for g in stabilizer_generators():
        assert np.allclose(logical_action(code5, g), np.eye(2), atol=1e-12)
    mx = logical_action(code5, logical_x())
    assert np.allclose(mx, np.array([[0, 1], [1, 0]]), atol=1e-12)
    mz = logical_action(code5, logical_z())
    assert np.allclose(mz, np.diag([1, -1]), atol=1e-12)


def test_logical_action_multiplicative(code5):
    x5, z5 = logical_x(), logical_z()
    lhs = logical_action(code5, x5 * z5)
    rhs = logical_action(code5, x5) @ logical_action(code5, z5)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def cycle_strings(lat):
    """Z on the primal row y = 0 and X on the dual column that crosses it at edge (0, 0, h)."""
    n = lat.n_edges
    row = sum(1 << lat.edge_index(tt.Edge(x, 0, "h")) for x in range(lat.L))
    col = sum(1 << lat.edge_index(tt.Edge(0, y, "h")) for y in range(lat.L))
    return PauliString(n, 0, row), PauliString(n, col, 0)


def test_logical_action_on_support_rows_equals_dense(toric3):
    frame = toric3.code.frame
    z_row, x_col = cycle_strings(toric3.lat)
    for p in (z_row, x_col, x_col * z_row):
        dense = frame.data.conj().T @ apply_pauli(p, frame.data)
        assert np.max(np.abs(logical_action(toric3.code, p) - dense)) < 1e-15
    bad = PauliString.single(toric3.n, 0, "X")
    with pytest.raises(NotLogicalError) as err:
        logical_action(toric3.code, bad)
    g = apply_pauli(bad, frame.data)
    dense_residual = np.linalg.norm(g - frame.data @ (frame.data.conj().T @ g))
    assert abs(err.value.residual - dense_residual) < 1e-12


def test_logical_action_rejects_non_preserving(code5):
    bad = PauliString.single(5, 0, "X")  # weight-1 error maps C off itself
    with pytest.raises(NotLogicalError) as err:
        logical_action(code5, bad)
    assert err.value.residual > 0.5


def test_corrects_s_errors(code5):
    assert correction_condition(code5, squdit_errors(5, 0)).correctable
    assert correction_condition(code5, squdit_errors(5, 1)).correctable
    assert not correction_condition(code5, squdit_errors(5, 2)).correctable
    # consistency with distance: delta > 2s
    assert distance(code5, 3).delta == 3


def test_distance_correction_consistency(code5, toric2):
    """The weight-<=s Pauli set is correctable iff distance > 2s, for every fixture."""
    for code, max_w in ((code5, 3), (toric2.code, 2)):
        delta = distance(code, max_w).delta
        assert delta is not None
        for s in range(max_w // 2 + 1):
            correctable = correction_condition(code, squdit_errors(code.n, s)).correctable
            assert correctable == (delta > 2 * s)


def test_json_round_trip(code5):
    text = code_to_json(code5)
    back = code_from_json(text)
    assert back.qudit_dims == code5.qudit_dims
    assert np.array_equal(back.frame.data, code5.frame.data)  # bit-exact
    assert code_to_json(back) == text


# -- the stabilizer-code builder ----------------------------------------------


def projector_five_qubit():
    """Oracle: |00000> and |11111> times each dense projector (1 + g)/2, then Gram-Schmidt."""
    vecs = []
    for b in (0, 31):
        v = np.zeros(32, dtype=complex)
        v[b] = 1.0
        for g in stabilizer_generators():
            v = 0.5 * (v + apply_pauli(g, v))
        vecs.append(v)
    return orthonormalize(vecs)


def test_five_qubit_build_equals_projector_build(code5):
    """Bit for bit, signs of zero included, so its JSON text is unchanged too."""
    ref = projector_five_qubit()
    assert np.array_equal(code5.frame.rows, ref.rows)
    assert code5.frame.vals.tobytes() == ref.vals.tobytes()
    assert code5.stabilizers == stabilizer_generators()


STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")


@pytest.mark.parametrize(
    "labels, seeds, k, delta",
    [(STEANE, (0, 0b1111111), 2, 3), (("XXXX", "ZZZZ"), (0, 0b0011, 0b0101, 0b0110), 4, 2)],
    ids=["steane", "4-2-2"],
)
def test_stabilizer_code_builds_small_codes(labels, seeds, k, delta):
    gens = tuple(PauliString.from_label(s) for s in labels)
    code = stabilizer_code(gens, seeds)
    assert code.K == k and code.stabilizers == gens
    assert distance(code, delta).delta == delta
    assert np.max(np.abs(code.frame.data.conj().T @ code.frame.data - np.eye(k))) < 1e-15


@pytest.mark.parametrize("fixture", ["code5", "toric3_braidable", "toric3_swap"])
def test_every_generator_fixes_the_frame_exactly(fixture, request):
    """Toric generators carry their defect signs: each one has S F = F, not just a unit times F."""
    code = request.getfixturevalue(fixture)
    code = getattr(code, "code", code)
    for s in code.stabilizers:
        image = apply_pauli(s, code.frame)
        assert np.array_equal(image.rows, code.frame.rows)
        assert np.array_equal(image.vals, code.frame.vals)


@pytest.mark.parametrize(
    "labels, seeds, message",
    [
        (("-ZZ",), (0,), "seed 0 is killed by the generator PauliString('-ZZ')"),
        (("XX", "ZZ"), (0, 0b01), "seed 1 is killed by the generator PauliString('+ZZ')"),
        (("XI", "ZI"), (0,), "stabilizer generators must commute"),
        (("i*ZZ",), (0,), "need seeds, and Hermitian generators"),
        (("ZZ", "ZZZ"), (0,), "need seeds, and Hermitian generators"),
        ((), (0,), "need seeds, and Hermitian generators"),
        (("ZZ",), (), "need seeds, and Hermitian generators"),
    ],
    ids=["killed", "second-seed-killed", "anticommuting", "not-hermitian", "mixed-n",
         "no-generators", "no-seeds"],
)
def test_stabilizer_code_names_what_it_refuses(labels, seeds, message):
    gens = [PauliString.from_label(s) for s in labels]
    with pytest.raises(ValueError, match=re.escape(message)):
        stabilizer_code(gens, seeds)


def test_stabilizer_code_refuses_dependent_seeds():
    with pytest.raises(ValueError, match=re.escape("seeds (0, 3) put two columns on one codeword")):
        stabilizer_code([PauliString.from_label("XX")], (0, 3))


# -- the batched block kernel against per-Pauli and per-pair references ------


def pauli_block_reference(frame, p):
    """F^dagger P F for one Pauli over the frame's support rows.

    The per-Pauli kernel: gather F[m ^ x] through a row-position map whose
    rows off the support point at a padded zero row, sign, phase, multiply.
    """
    r = frame.rows.size
    pos = np.full(frame.N, r, dtype=np.int32)
    pos[frame.rows] = np.arange(r, dtype=np.int32)
    padded = np.vstack([frame.vals, np.zeros((1, frame.K), dtype=complex)])
    src = np.bitwise_xor(frame.rows, p.x_bits)
    right = padded.take(pos.take(src), axis=0)
    if p.z_bits:
        par = np.bitwise_count(np.bitwise_and(src, p.z_bits)).astype(np.int64) & 1
        right = right * (1.0 - 2.0 * par)[:, None]
    if p.phase_exp:
        right = right * p.phase
    return frame.vals.conj().T @ right


def dense_operator(e):
    """The dense matrix of a PauliString, or of a LocalOperator as the kron of its factors."""
    if isinstance(e, PauliString):
        return e.to_dense()
    mats = dict(zip(e.sites, e.factors))
    return reduce(np.kron, [mats.get(j, np.eye(2)) for j in reversed(range(e.n))])


def correction_reference(code, errors, tol=1e-9):
    """Row-major, per-pair, fail-fast loop: (witness, max_deviation, f)."""
    eye = np.eye(code.K)
    errs = list(errors)
    if all(isinstance(e, PauliString) for e in errs):
        def block(a, b):
            return pauli_block_reference(code.frame, errs[a].dagger() * errs[b])
    else:
        gs = [dense_operator(e) @ code.frame.data for e in errs]

        def block(a, b):
            return gs[a].conj().T @ gs[b]
    f = np.zeros((len(errs), len(errs)), dtype=complex)
    for a in range(len(errs)):
        for b in range(len(errs)):
            B = block(a, b)
            f[a, b] = np.trace(B) / code.K
            dev = float(np.max(np.abs(B - f[a, b] * eye)))
            if dev >= tol:
                return (a, b), dev, None
    return None, 0.0, f


def _random_products(frame, n, count, rng):
    """Random Paulis, half of them with an x that maps a support row onto the support."""
    rows = frame.rows
    live = rows[rng.integers(0, rows.size, count)] ^ rows[rng.integers(0, rows.size, count)]
    x = np.where(rng.random(count) < 0.5, live, rng.integers(0, 1 << n, count))
    return x.astype(np.int64), rng.integers(0, 1 << n, count), rng.integers(0, 4, count)


def _scattered_code(rng, n=6, r=24, k=3):
    """A frame on r random rows: some x map only part of them onto the support."""
    rows = np.sort(rng.choice(1 << n, r, replace=False))
    q, _ = np.linalg.qr(rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)))
    return Code(Frame.from_rows(1 << n, rows, q), (2,) * n)


# (n, R, K) of the _scattered_code frames: K = 1 takes numpy's dot path for
# every block, and R = 64 on n = 6 stores every row
_SCATTERED = {
    "scattered": (6, 24, 3),
    "scattered-K1": (6, 24, 1),
    "dense-K1": (6, 64, 1),
    "scattered-wide": (10, 600, 5),
}


def _kernel_code(fixture, request, rng):
    if fixture in _SCATTERED:
        return _scattered_code(rng, *_SCATTERED[fixture])
    code = request.getfixturevalue(fixture)
    return getattr(code, "code", code)


def _kernel_against_reference(code, rng):
    kernel = _PauliBlocks(code.frame)
    x, z, k = _random_products(code.frame, code.n, 300, rng)
    got = _UNITS[k][:, None, None] * kernel.blocks(x, z)
    nonzero = 0
    for i in range(x.size):
        p = PauliString(code.n, int(x[i]), int(z[i]), int(k[i]))
        ref = pauli_block_reference(code.frame, p)
        assert np.array_equal(got[i], ref)
        nonzero += bool(np.any(ref))
    assert nonzero > 0
    return np.unique(x).size


@pytest.mark.parametrize(
    "fixture", ["code5", "toric2", "toric3", "toric3_two_dual", *_SCATTERED]
)
def test_block_kernel_equals_per_pauli_reference(fixture, request, rng):
    _kernel_against_reference(_kernel_code(fixture, request, rng), rng)


@pytest.mark.parametrize("fixture", ["code5", "toric3_two_dual", "scattered-wide"])
def test_block_kernel_looks_rows_up_in_groups(fixture, request, rng, monkeypatch):
    """With 72 bytes a row, the row lookup takes 3 distinct x at a time, over many groups."""
    code = _kernel_code(fixture, request, rng)
    monkeypatch.setattr("holoqec.codes._CHUNK_BYTES", 24 * code.frame.rows.size * 3)
    assert _kernel_against_reference(code, rng) > 5 * 3


@pytest.mark.parametrize("fixture", ["code5", "toric3"])
def test_block_kernel_is_invariant_under_reordering(fixture, request, rng):
    code = request.getfixturevalue(fixture)
    code = getattr(code, "code", code)
    frame, n = code.frame, code.n
    x, z, _ = _random_products(frame, n, 200, rng)
    again = rng.integers(0, x.size, 100)  # repeated (x, z) entries
    x, z = np.concatenate([x, x[again]]), np.concatenate([z, z[again]])
    live = sum(np.isin(frame.rows ^ v, frame.rows).any() for v in x)
    assert live == x.size if fixture == "code5" else 0 < live < x.size
    kernel = _PauliBlocks(frame)
    blocks = kernel.blocks(x, z)
    perm = rng.permutation(x.size)
    assert np.array_equal(kernel.blocks(x[perm], z[perm]), blocks[perm])


def test_block_kernel_zero_when_x_misses_the_support(toric3, rng):
    frame, n = toric3.code.frame, toric3.code.n
    kernel = _PauliBlocks(frame)
    x = rng.integers(1, 1 << n, 400)
    misses = x[[not np.isin(frame.rows ^ v, frame.rows).any() for v in x]][:50]
    assert misses.size == 50
    z = rng.integers(0, 1 << n, misses.size)
    blocks = kernel.blocks(misses, z)
    assert np.all(blocks == 0)
    for xi, zi, b in zip(misses, z, blocks):
        assert np.array_equal(b, pauli_block_reference(frame, PauliString(n, int(xi), int(zi))))


def test_block_kernel_is_built_once_per_code(rng, monkeypatch):
    code = _scattered_code(rng)
    first = (distance(code, 2), correction_condition(code, squdit_errors(code.n, 1)))
    built = []
    monkeypatch.setattr(_PauliBlocks, "__init__", lambda *a: built.append(a))
    again = (distance(code, 2), correction_condition(code, squdit_errors(code.n, 1)))
    assert built == []
    assert first[0] == again[0] and first[1].witness == again[1].witness
    assert np.array_equal(first[1].f_matrix, again[1].f_matrix)


def test_five_qubit_code_is_one_read_only_object():
    code = five_qubit_code()
    assert five_qubit_code() is code
    for arr in (code.frame.vals, code.frame.rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_shared_frame_cannot_be_rebound():
    code = five_qubit_code()
    with pytest.raises(AttributeError, match="immutable"):
        code.frame.vals = code.frame.vals[:, :1]
    assert five_qubit_code().K == 2
    again = pickle.loads(pickle.dumps(code.frame))  # a copy is rebuilt through _store
    assert np.array_equal(again.vals, code.frame.vals) and not again.vals.flags.writeable


def test_block_kernel_refuses_masks_past_int64():
    wide = Frame._unchecked(1 << 63, np.array([0]), np.ones((1, 1), dtype=complex))
    with pytest.raises(ValueError, match="int64"):
        _PauliBlocks(wide)


def test_correction_condition_refuses_product_keys_past_uint64():
    """A product key x << n | z needs 2n bits: 66 at n = 33, refused before any run."""
    one = Frame._unchecked(1 << 33, np.array([0]), np.ones((1, 1), dtype=complex))
    with pytest.raises(ValueError, match="uint64; n = 33"):
        correction_condition(Code(one, (2,) * 33), [PauliString(33, 1, 0)])


_STABILIZER_FIXTURES = [
    "code5", "toric2", "toric3", "toric3_two_primal", "toric3_two_dual", "toric3_braidable",
]


@pytest.mark.parametrize("fixture", _STABILIZER_FIXTURES)
def test_generator_kernel_equals_per_pauli_reference(fixture, request, rng):
    """code._blocks skips anticommuting Paulis: their blocks are exactly 0, the rest unchanged."""
    code = request.getfixturevalue(fixture)
    code = getattr(code, "code", code)
    x, z, k = _random_products(code.frame, code.n, 300, rng)
    # a second copy with each X part moved by a generator product and each Z
    # part replaced by one: on a toric frame, a live X part then commutes with
    # every generator, so both branches below are taken
    gx, gz = (np.array([getattr(s, b) for s in code.stabilizers]) for b in ("x_bits", "z_bits"))
    pick = rng.random((x.size, gx.size)) < 0.5
    x = np.concatenate([x, x ^ np.bitwise_xor.reduce(np.where(pick, gx, 0), axis=1)])
    z = np.concatenate([z, np.bitwise_xor.reduce(np.where(pick, gz, 0), axis=1)])
    k = np.concatenate([k, k])
    got = _UNITS[k][:, None, None] * code._blocks.blocks(x, z)
    nonzero = anticommuting = 0
    for i in range(x.size):
        p = PauliString(code.n, int(x[i]), int(z[i]), int(k[i]))
        ref = pauli_block_reference(code.frame, p)
        if all(p.commutes_with(s) for s in code.stabilizers):
            assert np.array_equal(got[i], ref)
            nonzero += bool(np.any(ref))
        else:
            assert not np.any(got[i]) and np.max(np.abs(ref)) <= 1e-15
            anticommuting += 1
    assert nonzero > 0 and anticommuting > 0


def test_kernel_refuses_a_generator_that_moves_the_frame(code5):
    x0 = PauliString.from_label("XIIII")
    code = Code(code5.frame, code5.qudit_dims, (*code5.stabilizers, x0))
    for scan in (lambda: code._blocks, lambda: distance(code, 1)):
        with pytest.raises(ValueError, match=re.escape(f"{x0!r} does not fix")):
            scan()


def test_generators_come_from_the_builds_only(code5, toric3):
    assert code5.stabilizers == stabilizer_generators()
    assert len(toric3.code.stabilizers) == 2 * (3 * 3 - 1)
    assert toric3.with_frame(toric3.frame, toric3.cfg).code.stabilizers == ()
    assert code_from_json(code_to_json(code5)).stabilizers == ()


@cache
def _scan_answers(code):
    """distance to weight 3, and (witness, deviation, f_matrix) on a passing and a failing set."""
    if code.n == 5:
        sets = (squdit_errors(5, 1), squdit_errors(5, 2))
    else:
        lat = GeoLattice.toric_edges(3)
        sets = (geolocal_errors(lat, 1, 1), geolocal_errors(lat, 2, 1))
    reps = [correction_condition(code, es) for es in sets]
    return distance(code, 3), [(r.witness, r.max_deviation, r.f_matrix) for r in reps]


@pytest.mark.parametrize("fixture", ["code5", "toric3"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_generator_subsets_and_products_change_no_answer(fixture, code5, toric3, data):
    code = {"code5": code5, "toric3": toric3.code}[fixture]
    gens = code.stabilizers
    index = st.integers(0, len(gens) - 1)
    words = data.draw(st.lists(st.lists(index, min_size=1, max_size=3), max_size=len(gens)))
    chosen = tuple(reduce(pauli_mul, (gens[i] for i in w)) for w in words)
    got = _scan_answers(Code(code.frame, code.qudit_dims, chosen))
    want = _scan_answers(Code(code.frame, code.qudit_dims))
    assert got[0] == want[0]
    for (wg, dg, fg), (ww, dw, fw) in zip(got[1], want[1]):
        assert wg == ww and dg == dw
        assert (fg is None and fw is None) or np.array_equal(fg, fw)


def test_only_commuting_paulis_reach_the_multiply(toric3, monkeypatch):
    reached = []
    step = _PauliBlocks._step

    def counting(self, x, z, at, u):
        reached.append((x.copy(), z.copy()))
        return step(self, x, z, at, u)

    monkeypatch.setattr(_PauliBlocks, "_step", counting)
    code = toric3.code
    assert distance(code, 3).delta == 3
    paulis = [PauliString(code.n, int(a), int(b)) for x, z in reached for a, b in zip(x, z)]
    assert paulis and all(p.commutes_with(s) for p in paulis for s in code.stabilizers)


def _conjugated_mixed(rng, s_base):
    us = [random_unitary(2, rng) for _ in range(5)]
    return list(squdit_errors(5, s_base)) + conjugated_error_set(squdit_errors(5, 1), us)


@pytest.mark.parametrize(
    "case",
    [
        "squdit0", "squdit1", "squdit2", "geolocal_1_1", "geolocal_2_1",
        "mixed", "mixed_failing", "mid_chunk", "anticommuting",
    ],
)
def test_correction_condition_equals_per_pair_reference(case, code5, toric3, rng, monkeypatch):
    lat3 = GeoLattice.toric_edges(3)
    code, errors = {
        "squdit0": (code5, squdit_errors(5, 0)),
        "squdit1": (code5, squdit_errors(5, 1)),
        "squdit2": (code5, squdit_errors(5, 2)),
        "geolocal_1_1": (toric3.code, geolocal_errors(lat3, 1, 1)),
        "geolocal_2_1": (toric3.code, geolocal_errors(lat3, 2, 1)),
        "mixed": (code5, _conjugated_mixed(rng, 1)),
        "mixed_failing": (code5, _conjugated_mixed(rng, 2)),
        "mid_chunk": (code5, squdit_errors(5, 2)),
        # qubit 0 held in |0>: Z_0 is a stabilizer, so f = +-i on the
        # anticommuting pairs of {I, X_0, Y_0, Z_0}, and the sign of each term shows
        "anticommuting": (
            Code(Frame(np.eye(4, dtype=complex)[:, [0, 2]]), (2, 2)),
            [PauliString.from_label(p) for p in ("II", "XI", "YI", "ZI")],
        ),
    }[case]
    if case == "mid_chunk":
        # runs of at most 16 columns: the witness (1, 55) is the eighth pair of row 1's fourth run
        monkeypatch.setattr("holoqec.codes._CHUNK_BYTES", 16 * 2**2 * 16)  # K = 2
    rep = correction_condition(code, errors, tol=1e-9)
    witness, dev, f = correction_reference(code, errors, tol=1e-9)
    assert rep.witness == witness
    if f is None:
        assert rep.f_matrix is None
    if case == "mixed":
        # term sums against dense images: equal up to rounding
        assert rep.correctable and abs(rep.max_deviation - dev) < 1e-14
        assert np.max(np.abs(rep.f_matrix - f)) < 1e-14
    else:
        assert rep.max_deviation == dev
        assert f is None or np.array_equal(rep.f_matrix, f)


@pytest.mark.parametrize(
    "case", ["squdit0", "squdit1", "squdit2", "geolocal_1_1", "geolocal_2_1"]
)
def test_error_set_arrays_scan_like_the_pauli_list(case, code5, toric3):
    """An ErrorSet's (x, z, phase) arrays give the answer of its PauliStrings as a list."""
    lat3 = GeoLattice.toric_edges(3)
    code, es = {
        "squdit0": (code5, squdit_errors(5, 0)),
        "squdit1": (code5, squdit_errors(5, 1)),
        "squdit2": (code5, squdit_errors(5, 2)),
        "geolocal_1_1": (toric3.code, geolocal_errors(lat3, 1, 1)),
        "geolocal_2_1": (toric3.code, geolocal_errors(lat3, 2, 1)),
    }[case]
    rep, ref = correction_condition(code, es), correction_condition(code, list(es))
    assert rep.witness == ref.witness and rep.max_deviation == ref.max_deviation
    assert (rep.f_matrix is None) == (ref.f_matrix is None)
    assert rep.f_matrix is None or np.array_equal(rep.f_matrix, ref.f_matrix)


def test_geolocal_3_1_generation_and_scan_build_no_pauli_string(toric3, monkeypatch):
    built = []
    post_init = PauliString.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PauliString, "__post_init__", counting)
    es = geolocal_errors(GeoLattice.toric_edges(3), 3, 1)
    rep = correction_condition(toric3.code, es, tol=1e-9)
    assert len(es) == 23464 and rep.witness == (0, 1432)
    assert built == []


@pytest.mark.parametrize("width", [16, 24, 64, 4096])
def test_runs_hold_at_most_the_kernel_width(width, code5, rng, monkeypatch):
    """Each run makes one kernel call, and every pair is scored once.

    A run holds at most min(width, max(512, term pairs already scanned))
    term pairs, and one more row, or column of its row, would not fit.  The
    mixed set has 1 to 4 terms per error, so runs of whole rows, row chunks
    and single pairs all occur; the answer does not depend on them.  A
    run's term pairs are counted from the pairs it scores, in row-major
    order, and the kernel sees at most that many distinct products.
    """
    errors = _conjugated_mixed(rng, 1)
    full = correction_condition(code5, errors, tol=1e-9)
    terms = np.cumsum([0] + [len(e.pauli_terms()[0]) for e in errors])
    m = len(errors)
    products, pairs = [], []
    kernel, score = _PauliBlocks.blocks, _scalar_part

    def counting_kernel(self, x, z):
        products.append(x.size)
        return kernel(self, x, z)

    def counting_score(blocks):
        pairs.append(blocks.shape[0])
        return score(blocks)

    monkeypatch.setattr(_PauliBlocks, "blocks", counting_kernel)
    monkeypatch.setattr("holoqec.codes._scalar_part", counting_score)
    monkeypatch.setattr("holoqec.codes._CHUNK_BYTES", 16 * 2**2 * width)  # K = 2
    rep = correction_condition(code5, errors, tol=1e-9)
    assert rep.correctable and np.array_equal(rep.f_matrix, full.f_matrix)
    assert len(products) == len(pairs) and sum(pairs) == m * m
    seen, done = 0, 0
    for count, distinct in zip(pairs, products):
        (a, b), (a1, b1) = divmod(seen, m), divmod(seen + count - 1, m)  # first, last pair
        whole = (b, b1) == (0, m - 1)
        assert a1 == a or whole
        rows = terms[a1 + 1] - terms[a]
        cols = terms[b1 + 1] - terms[b]
        size = min(width, max(512, done))
        assert distinct <= rows * cols <= size
        if whole and a1 + 1 < m:  # the next row would not fit
            assert (terms[a1 + 2] - terms[a]) * terms[m] > size
        elif not whole and b1 + 1 < m:  # nor the next column
            assert rows * (terms[b1 + 2] - terms[b]) > size
        seen, done = seen + count, done + rows * cols
    assert done == terms[m] ** 2


def test_conjugated_toric_set_answered_by_the_pauli_scan(toric3, rng, monkeypatch):
    """55 conjugated geolocal(1,1) errors at L = 3 go through the term table, never a dense view.

    A conjugated weight-1 error lies in the span of the weight <= 1 Paulis,
    so the verdict is the Pauli set's.  f is checked against a per-pair sum
    over the terms of both errors, each block from the per-Pauli reference.
    """
    code = toric3.code
    es = geolocal_errors(GeoLattice.toric_edges(3), 1, 1)
    conj = conjugated_error_set(es, [random_unitary(2, rng) for _ in range(es.n)])
    assert len(conj) == 55

    def no_dense_view(frame):
        raise AssertionError("the scan read Frame.data")

    with monkeypatch.context() as patched:
        patched.setattr(Frame, "data", property(no_dense_view))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            rep = correction_condition(code, conj, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert peak < 16 * 2**20
    assert rep.correctable and correction_condition(code, es, tol=1e-9).correctable

    blocks = {}

    def block(p):  # F^dagger P F, one reference call per phase-free product
        key = (p.x_bits, p.z_bits)
        if key not in blocks:
            blocks[key] = pauli_block_reference(code.frame, PauliString(code.n, *key))
        return p.phase * blocks[key]

    terms = [
        [(ci, PauliString(code.n, int(xi), int(zi))) for xi, zi, ci in zip(*op.pauli_terms())]
        for op in conj
    ]
    def pair_block(ta, tb):  # sum over the terms of a and of b
        return sum(np.conj(cs) * ct * block(ps.dagger() * pt) for cs, ps in ta for ct, pt in tb)

    f = np.array([[np.trace(pair_block(ta, tb)) / code.K for tb in terms] for ta in terms])
    assert np.max(np.abs(rep.f_matrix - f)) < 1e-14


def test_success_side_f_bound(code5, monkeypatch):
    """Past the bound, the stored f values refuse; a witness found before that still answers.

    Squdit s = 1 (16 errors) keeps 4 096 bytes after its one run: 256 f
    values.  Squdit s = 2 finds its witness (1, 55) in its first run, rows
    0 to 3, before any f value is kept.
    """
    monkeypatch.setattr("holoqec.frames.DENSE_BYTES_LIMIT", 4000)
    with pytest.raises(DenseSizeError, match="of 16 errors"):
        correction_condition(code5, squdit_errors(5, 1))
    rep = correction_condition(code5, squdit_errors(5, 2))
    assert rep.witness == (1, 55)
