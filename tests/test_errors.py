import hashlib
import tracemalloc

import numpy as np
import pytest

from holoqec import (
    EnumerationCapError,
    ErrorSet,
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
    labels = [e.to_label() for e in es]
    assert len(set(labels)) == len(labels)
    for lbl in labels:
        assert PauliString.from_label(lbl).to_label() == lbl


def test_error_set_arrays_are_read_only_and_round_trip():
    es = squdit_errors(4, 2)
    for a in (es.x, es.z, es.phase):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    again = ErrorSet(tuple(es))
    assert again.n == es.n and list(again) == list(es)
    for a, b in zip((again.x, again.z, again.phase), (es.x, es.z, es.phase)):
        assert np.array_equal(a, b)
    assert es[-1] == list(es)[-1] == PauliString.from_label("+IIZZ")
    assert es[len(es) - 1] == es[-1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: ErrorSet([PauliString.single(2, 0, "X"), PauliString.identity(2)]),
        lambda: ErrorSet([]),
        lambda: ErrorSet.from_bits(2, [1, 0], [0, 0]),
    ],
    ids=["identity-second", "empty", "from-bits"],
)
def test_error_set_needs_the_identity_first(make):
    with pytest.raises(ValueError, match="identity"):
        make()


def test_geolocal_s0_identity_only():
    lat = GeoLattice.toric_edges(3)
    es = geolocal_errors(lat, 0, 1)
    assert len(es) == 1


def test_geolocal_t1_equals_squdit():
    lat = GeoLattice.toric_edges(3)
    for s in (1, 2):
        geo = set(geolocal_errors(lat, s, 1))
        plain = set(squdit_errors(lat.n, s))
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


def test_geolocal_cap_refuses_before_enumerating_unions():
    """At L = 4, s = 10 the unions of up to ten of 32 disks are never built."""
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError) as err:
            geolocal_errors(GeoLattice.toric_edges(4), 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.projected > 10**6
    assert peak < 4 * 2**20


def test_conjugated_identity_unchanged():
    es = squdit_errors(5, 1)
    ident = [np.eye(2, dtype=complex)] * 5
    ops = conjugated_error_set(es, ident)
    for e, op in zip(es, ops):  # each expands to its own Pauli, exactly
        assert [t.tolist() for t in op.pauli_terms()] == [t.tolist() for t in e.pauli_terms()]


def test_conjugation_by_hadamard_swaps_z_to_x():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    es_z = tuple(squdit_errors(2, 0)) + (PauliString.single(2, 0, "Z"),)
    ops = conjugated_error_set(ErrorSet(es_z), [h, np.eye(2, dtype=complex)])
    x0 = PauliString.single(2, 0, "X")
    x, z, c = ops[1].pauli_terms()
    dense = sum(ci * PauliString(2, int(xi), int(zi)).to_dense() for xi, zi, ci in zip(x, z, c))
    assert np.max(np.abs(dense - x0.to_dense())) < 1e-12
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


@pytest.mark.parametrize(
    "factor, match",
    [(np.eye(3, dtype=complex), "site 1: factor has shape"), (2 * np.eye(2), "unitary")],
    ids=["not-2x2", "not-unitary"],
)
def test_conjugated_set_rejects_malformed_site_factors(factor, match):
    with pytest.raises(ValueError, match=match):
        conjugated_error_set(squdit_errors(3, 1), [np.eye(2), factor, np.eye(2)])


# sha256 of (x_bits, z_bits, phase_exp) over the enumerations below, which
# fix each label too: a change of order, letters or phases changes it
ENUMERATION_SHA256 = "cc765b20fcde0298e193cb52405bf8d5b6a2b5be97b70f6bfda6e681070f8815"


def test_enumerations_match_the_pinned_digest():
    h = hashlib.sha256()
    for L in (2, 3):
        for s in range(4):
            for t in range(1, 4):
                h.update(repr(("geolocal", L, s, t)).encode())
                try:
                    es = geolocal_errors(GeoLattice.toric_edges(L), s, t)
                except EnumerationCapError as err:
                    h.update(repr(("cap", err.projected)).encode())
                    continue
                for p in es:
                    h.update(repr((p.x_bits, p.z_bits, p.phase_exp)).encode())
    for n in range(1, 7):
        for s in range(min(n, 3) + 1):
            h.update(repr(("squdit", n, s)).encode())
            for p in squdit_errors(n, s):
                h.update(repr((p.x_bits, p.z_bits, p.phase_exp)).encode())
    assert h.hexdigest() == ENUMERATION_SHA256
