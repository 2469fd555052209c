import numpy as np
import pytest

from holoqec import (
    DenseSizeError,
    EnumerationCapError,
    GeoLattice,
    PauliString,
    conjugated_error_set,
    correction_condition,
    geolocal_errors,
    squdit_errors,
)
from holoqec.pauli import random_unitary


def test_squdit_sizes():
    assert len(squdit_errors(5, 0)) == 1
    assert len(squdit_errors(5, 1)) == 16  # 1 + 5*3
    # combinatorial count oracle
    import math

    expected = sum(math.comb(5, w) * 3**w for w in range(3))
    assert expected == 106
    assert len(squdit_errors(5, 2)) == expected


def test_squdit_contains_identity_first():
    es = squdit_errors(3, 2)
    assert es[0] == PauliString.identity(3)
    labels = es.to_labels()
    assert len(set(labels)) == len(labels)
    for lbl in labels:
        assert PauliString.from_label(lbl).to_label() == lbl


def test_geolocal_s0_identity_only():
    lat = GeoLattice.toric_edges(3)
    es = geolocal_errors(lat, 0, 1)
    assert len(es) == 1


def test_geolocal_t1_equals_squdit():
    lat = GeoLattice.toric_edges(3)
    for s in (1, 2):
        geo = set(geolocal_errors(lat, s, 1).to_labels())
        plain = set(squdit_errors(lat.n, s).to_labels())
        assert geo == plain


def test_geolocal_count_oracle_double_loop():
    """Independent (disk center, Pauli assignment) count for s=1, t=2.

    The oracle works on raw symplectic bit masks, sharing nothing with the
    generator's enumeration strategy.  Run on L=2 edges: under the wrapped
    metric the L=3 diameter-2 disks hold 9 sites each, which the generator's
    own default cap rejects (see the cap test).
    """
    import itertools

    lat = GeoLattice.toric_edges(2)
    es = geolocal_errors(lat, 1, 2)
    bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    seen = set()
    for c in range(lat.n):
        disk = [q for q in range(lat.n) if lat.site_distance(c, q) <= 1 + 1e-9]
        for letters in itertools.product("IXYZ", repeat=len(disk)):
            x = z = 0
            ny = 0
            for site, letter in zip(disk, letters):
                bx, bz = bits[letter]
                x |= bx << site
                z |= bz << site
                ny += letter == "Y"
            seen.add((x, z, ny % 4))
    got = {(p.x_bits, p.z_bits, p.phase_exp) for p in es}
    assert got == seen


@pytest.mark.parametrize("L, s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_geolocal_order_is_the_full_sort(L, s):
    """Sorted supports with letters sorted per support give the sort of all errors."""
    es = geolocal_errors(GeoLattice.toric_edges(L), s, 1)
    key = lambda p: (p.weight, p.support, p.x_bits, p.z_bits)  # noqa: E731
    assert list(es) == sorted(es, key=key)
    assert len({(p.x_bits, p.z_bits) for p in es}) == len(es)


def test_geolocal_cap_guard():
    lat = GeoLattice.toric_edges(3)
    with pytest.raises(EnumerationCapError) as err:
        geolocal_errors(lat, 1, 2)  # 18 disks of 9 sites: ~4.7e6 projected
    assert err.value.projected > 10**6


def test_conjugated_identity_unchanged(code5, rng):
    es = squdit_errors(5, 1)
    ident = [np.eye(2, dtype=complex)] * 5
    ops = conjugated_error_set(es, ident)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    for e, op in zip(es, ops):
        assert np.max(np.abs(op.apply(v) - e.apply(v))) < 1e-12


def test_conjugation_by_hadamard_swaps_z_to_x(rng):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    es_z = squdit_errors(2, 0).errors + (PauliString.single(2, 0, "Z"),)
    from holoqec.errors import ErrorSet

    ops = conjugated_error_set(ErrorSet(es_z), [h, np.eye(2, dtype=complex)])
    x0 = PauliString.single(2, 0, "X")
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.max(np.abs(ops[1].apply(v) - x0.apply(v))) < 1e-12
    assert ops[1].sites == (0,)  # support unchanged


def test_conjugated_support_preserved(rng):
    es = squdit_errors(4, 2)
    us = [random_unitary(2, rng) for _ in range(4)]
    ops = conjugated_error_set(es, us)
    for e, op in zip(es, ops):
        assert op.sites == e.support or (e.weight == 0 and len(op.sites) <= 1)


def test_conjugated_set_still_correctable(code5, rng):
    """Base set union conjugated set passes correction on a distance-3 code."""
    es = squdit_errors(5, 1)
    us = [random_unitary(2, rng) for _ in range(5)]
    mixed = list(es) + conjugated_error_set(es, us)
    rep = correction_condition(code5, mixed, tol=1e-9)
    assert rep.correctable


def test_toric_memory_claim(toric3):
    """L=3 passes st < L/2 (s=1, t=1) and fails once clusters span the torus.

    Three diameter-1 clusters (st = 3 >= L/2) cover a full Z-row, a logical
    operator, so the correction condition must break.
    """
    lat = GeoLattice.toric_edges(3)
    ok = geolocal_errors(lat, 1, 1)
    assert correction_condition(toric3.code, ok, tol=1e-9).correctable
    bad = geolocal_errors(lat, 3, 1)
    rep = correction_condition(toric3.code, bad, tol=1e-9)
    assert not rep.correctable
    # the witness product spans the torus: every nontrivial logical has weight >= L
    a, b = rep.witness
    assert (bad[a].dagger() * bad[b]).weight >= 3


def test_conjugated_toric_set_refused_before_dense_images(toric3, rng):
    """55 conjugated geolocal(1,1) errors would need 55 dense 16 MiB images."""
    import time
    import tracemalloc

    es = geolocal_errors(GeoLattice.toric_edges(3), 1, 1)
    conj = conjugated_error_set(es, [random_unitary(2, rng) for _ in range(es.n)])
    assert len(conj) == 55
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(DenseSizeError, match="of 55 errors"):
            correction_condition(toric3.code, conj, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5.0
    assert peak < 4 * 2**20
