import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcss
from conftest import ALL_PRIMITIVE_POLYS, document_refusal, first_edit, seeded_family_members, z4_poly_divides
from qcss import binpoly, z4
from qcss.errors import ConstructionError

X3_X_1 = (1, 1, 0, 1)


def all_rotations(seq):
    seq = tuple(seq)
    return {seq[i:] + seq[:i] for i in range(len(seq))}


# ---------------------------------------------------------------- lift


def test_lift_degree3_value():
    # even/odd split oracle: (x^3+x+1)(x^3+x+1 at -x) = -(x^6 + 2x^4 + x^2 - 1)
    assert z4.graeffe_lift(X3_X_1) == (3, 1, 2, 1)  # x^3 + 2x^2 + x + 3


def test_lift_degree1_value():
    assert z4.graeffe_lift((1, 1)) == (3, 1)  # x + 3 divides x - 1


@pytest.mark.parametrize("n", sorted(binpoly.PRIMITIVE_POLYS))
def test_lift_mod2_consistency_and_divisibility(n):
    h = binpoly.primitive_polynomial(n)
    f = z4.graeffe_lift(h)
    assert tuple(c % 2 for c in f) == h
    assert f[-1] == 1
    assert z4_poly_divides(f, (1 << n) - 1)


def test_lift_rejects_nonprimitive():
    with pytest.raises(ValueError):
        z4.graeffe_lift((1, 0, 1))  # x^2 + 1
    with pytest.raises(ValueError):
        z4.graeffe_lift((1, 1, 1, 1, 1))  # irreducible, order 5


def test_divides_rejects_wrong_order():
    f = z4.graeffe_lift(X3_X_1)
    assert not z4_poly_divides(f, 6)


PRIMITIVE_2_TO_8 = [
    (n, (1,) + mid + (1,))
    for n in range(2, 9)
    for mid in itertools.product((0, 1), repeat=n - 1)
    if binpoly.is_primitive_binary((1,) + mid + (1,))
]


# ---------------------------------------------------------------- recurrence


def test_recurrence_reproduces_members(family4):
    f = family4.polynomial
    for member in family4.members[:5]:
        assert z4.run_z4_recurrence(f, member[:4]) == member


def test_recurrence_guards():
    f = z4.graeffe_lift(X3_X_1)
    with pytest.raises(ValueError):
        z4.run_z4_recurrence(f, [0, 0, 0])
    with pytest.raises(ValueError):
        z4.run_z4_recurrence((2, 1, 1), [1])  # not monic


def test_recurrence_classes_n3_brute_force():
    # all 63 nonzero initial states fall into (4^3-1)/(2^3-1) = 9 cyclic classes
    f = z4.graeffe_lift(X3_X_1)
    canon = set()
    for init in itertools.product(range(4), repeat=3):
        if not any(init):
            continue
        s = z4.run_z4_recurrence(f, init)
        canon.add(min(all_rotations(s)))
    assert len(canon) == 9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recurrence_period_divides_full_order(n):
    # the second period of a 2*(2^n - 1)-symbol scalar run is the first
    f = z4.graeffe_lift(binpoly.primitive_polynomial(n))
    period = (1 << n) - 1
    rng = np.random.default_rng(7 + n)
    for _ in range(10):
        init = rng.integers(0, 4, size=n).tolist()
        if not any(init):
            init[0] = 1
        assert recurrence_oracle(f, init, 2 * period)[period:] == z4.run_z4_recurrence(f, init)


def recurrence_oracle(f, init, length):
    """The recurrence run one symbol at a time."""
    n = len(init)
    s = list(init)
    for t in range(length - n):
        s.append(-sum(c * v for c, v in zip(f, s[t : t + n])) % 4)
    return tuple(s[:length])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_8), st.data())
def test_recurrence_matches_the_scalar_loop(case, data):
    n, coeffs = case
    f = z4.graeffe_lift(coeffs)
    init = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    assert z4.run_z4_recurrence(f, init) == recurrence_oracle(f, init, (1 << n) - 1)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("N", [1, 2, 15, 127])
def test_rotations_is_a_read_only_view_of_every_shift(N, dtype):
    row = np.random.default_rng(N).integers(-100, 100, size=N).astype(dtype)
    rotations = z4._rotations(row)
    assert rotations.shape == (N, N) and rotations.dtype == dtype
    for s in range(N):
        assert np.array_equal(rotations[s], np.roll(row, -s))
    assert not rotations.flags.writeable
    with pytest.raises(ValueError):
        rotations[0, 0] = 1


# ---------------------------------------------------------------- family


@pytest.mark.parametrize(
    "fixture_name,n", [("family3", 3), ("family4", 4), ("family5", 5), ("family6", 6)]
)
def test_family_counting(fixture_name, n, request):
    family = request.getfixturevalue(fixture_name)
    period = (1 << n) - 1
    assert family.size == (1 << n) + 1
    assert all(len(m) == period for m in family.members)
    # each cyclic class has the full 2^n - 1 distinct shifts
    for member in family.members:
        assert len(all_rotations(member)) == period
    # members are pairwise cyclically inequivalent
    canons = {min(all_rotations(m)) for m in family.members}
    assert len(canons) == family.size


def test_family_member_zero_is_binary_valued(family4):
    assert set(family4.array[0].tolist()) <= {0, 2}


def test_l0_has_ideal_autocorrelation(family5):
    # the {0,2}-valued member maps to a +-1 sequence with PACF -1 off-phase
    period = family5.period
    for tau in range(1, period):
        assert z4.z4_correlation(family5.array[0], family5.array[0], tau) == complex(-1, 0)
    assert z4.z4_correlation(family5.array[0], family5.array[0], 0) == complex(period, 0)


ALPHA_MAX_SQUARED = {2: 5, 3: 13, 4: 25, 5: 41, 6: 81}  # brute-force sweep oracle


def closed_form_alpha_squared(n):
    """Family A's alpha_max^2 at n >= 3 (Boztas, Hammons and Kumar):
    (1 + 2^(n/2))^2 at even n, (1 + 2^((n-1)/2))^2 + 2^(n-1) at odd n,
    below (1 + 2^(n/2))^2 there."""
    if n % 2 == 0:
        return (1 + 2 ** (n // 2)) ** 2
    return (1 + 2 ** ((n - 1) // 2)) ** 2 + 2 ** (n - 1)


PRIMITIVE_3_TO_9 = [
    (n, (1,) + mid + (1,))
    for n in range(3, 10)
    for mid in itertools.product((0, 1), repeat=n - 1)
    if binpoly.is_primitive_binary((1,) + mid + (1,))
]


@pytest.mark.parametrize(
    "fixture_name,n",
    [("family3", 3), ("family4", 4), ("family5", 5), ("family6", 6)] + [("table", n) for n in (2, *range(7, 13))],
)
def test_family_alpha_max(fixture_name, n, request):
    # the table polynomial's family, and at n <= 9 every primitive one's
    family = z4.build_family_a(n) if fixture_name == "table" else request.getfixturevalue(fixture_name)
    if n == 2:  # below the closed form's range: 1 + 2^(n/2) = 3 exceeds alpha
        assert abs(z4.family_alpha_max(family) - math.sqrt(ALPHA_MAX_SQUARED[2])) <= 1e-9
        return
    squared = closed_form_alpha_squared(n)
    assert ALPHA_MAX_SQUARED.get(n, squared) == squared
    families = [family] + [z4.build_family_a(n, coeffs=coeffs) for degree, coeffs in PRIMITIVE_3_TO_9 if degree == n]
    for fam in families:
        assert abs(z4.family_alpha_max(fam) - math.sqrt(squared)) <= 1e-9, fam.h


def test_alpha_max_never_forms_the_member_array():
    # alpha reads s_1 and m's window codes, as the census does
    for n in (2, 5, 12):
        family = z4.build_family_a(n)
        z4.family_alpha_max(family)
        assert "array" not in vars(family)


def brute_force_alpha(family):
    # every pair and shift but the in-phase autocorrelations, counted
    # exactly by z4_correlation
    return max(
        abs(z4.z4_correlation(a, b, tau))
        for (i, a), (j, b) in itertools.product(enumerate(family.members), repeat=2)
        for tau in range(family.period)
        if i != j or tau
    )


def fft_alpha(family):
    # all ordered pairs at once: C[i, j] = ifft(F_i conj(F_j)) runs over the
    # same shifts as z4_correlation, in the opposite direction
    F = np.fft.fft(np.array([1, 1j, -1, -1j])[np.array(family.members)], axis=1)
    mags = np.abs(np.fft.ifft(F[:, None, :] * F.conj()[None, :, :], axis=2))
    mags[np.arange(family.size), np.arange(family.size), 0] = 0.0
    return float(mags.max())


def test_alpha_max_matches_oracle(family3, family4):
    for family in (family3, family4):
        oracle = brute_force_alpha(family)
        assert abs(z4.family_alpha_max(family) - oracle) <= 1e-9


PRIMITIVE_3_TO_6 = [(n, coeffs) for n, coeffs in PRIMITIVE_3_TO_9 if n <= 6]


@pytest.mark.parametrize("n,coeffs", PRIMITIVE_3_TO_6)
def test_alpha_max_every_primitive_polynomial(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    oracle = brute_force_alpha(family) if n <= 4 else fft_alpha(family)
    assert abs(z4.family_alpha_max(family) - oracle) <= 1e-9


def test_alpha_max_rejects_a_non_family(family4):
    # only a document can offer a non-family to alpha_max, and the reader
    # refuses each with its first difference from the build
    members = list(family4.members)
    copied = members[:3] + [members[2]] + members[4:]
    t = first_edit(members[2], members[3])[0]
    assert document_refusal(family4, copied) == f"member 3 differs from the build at t = {t}"
    broken = members[5][:7] + ((members[5][7] + 1) % 4,) + members[5][8:]
    tampered = members[:5] + [broken] + members[6:]
    assert document_refusal(family4, tampered) == "member 5 differs from the build at t = 7"
    assert document_refusal(family4, members[:-1]) == "shape (16, 15) is not the build's (17, 15)"


@pytest.mark.parametrize("largest_first", [False, True])
@pytest.mark.parametrize("fixture_name", ["family3", "family4", "family5", "family6"])
def test_alpha_max_witness_reproduces_value(fixture_name, largest_first, request, monkeypatch):
    # an oracle that disagrees makes the certificate fail and expose its
    # witness (a, S_a), which the real oracle must reproduce from member 0,
    # 2m, and the member s_1 + 2 beta_a, beta_a(t) = a . code[t] mod 2; with
    # the largest symbol sum moved to member 0 the members leave the build's
    # layout, and the family is refused with the first symbol the reordering
    # moved
    family = request.getfixturevalue(fixture_name)
    alpha = z4.family_alpha_max(family)
    if largest_first:
        members = sorted(family.members, key=lambda m: -abs(sum(1j**v for v in m)))
        k, t = first_edit(members, family.members)
        assert document_refusal(family, members) == f"member {k} differs from the build at t = {t}"
        return
    oracle = z4.z4_correlation
    monkeypatch.setattr(z4, "z4_correlation", lambda a, b, tau: oracle(a, b, tau) + 1)
    with pytest.raises(ConstructionError) as err:
        z4.family_alpha_max(family)
    a, value = err.value.witness
    beta = np.array([bin(a & code).count("1") % 2 for code in family.codes.tolist()])
    row = family.s1 ^ 2 * beta
    assert oracle(family.array[0], row, 0) == value
    assert np.array_equal(row, family.array[1 + a])
    assert abs(value) == alpha


@pytest.mark.parametrize(
    "fixture_name", ["family3", "family4", "family5", "family6"]
)
def test_subset_l_zero_shift_property(fixture_name, request):
    family = request.getfixturevalue(fixture_name)
    L = qcss.subset_l(family)
    assert len(L) == family.size - 1
    for a, b in itertools.combinations(L[:6], 2):
        assert z4.z4_correlation(a, b, 0) == complex(-1, 0)


def test_subset_l_flags_misaligned_member(family3):
    # rotating one representative breaks the zero-shift pairwise property,
    # and a repeated member is no family at all: each is refused at its
    # first symbol that differs from the build
    members = list(family3.members)
    broken = members[2][1:] + members[2][:1]
    t = first_edit(broken, members[2])[0]
    message = document_refusal(family3, members[:2] + [broken] + members[3:])
    assert message == f"member 2 differs from the build at t = {t}"
    t = first_edit(members[2], members[3])[0]
    message = document_refusal(family3, members[:3] + [members[2]] + members[4:])
    assert message == f"member 3 differs from the build at t = {t}"


def gram_oracle(rows):
    """Zero-shift correlations of every pair of Z4 rows, as the matrix Z Z^H
    with Z = i^rows (exact: every product and partial sum is an integer of
    magnitude at most N < 2^53)."""
    Z = np.array([1, 1j, -1, -1j])[np.asarray(rows)]
    return Z @ Z.conj().T


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_8))
def test_subset_l_certificate_agrees_with_gram_oracle(case):
    n, coeffs = case
    family = z4.build_family_a(n, coeffs=coeffs)
    L = z4.subset_l(family, verify=True)
    G = gram_oracle(L)
    assert np.all(G[~np.eye(len(L), dtype=bool)] == -1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_8), st.data())
def test_subset_l_certificate_catches_a_rotated_member(case, data):
    # a rotation by r in 1..N-1 moves the member's reduction mod 2, a binary
    # m-sequence of period N, so the member differs from the build's and is
    # refused; the oracle must agree that some pair of L no longer
    # correlates to -1
    n, coeffs = case
    family = z4.build_family_a(n, coeffs=coeffs)
    K, N = family.array.shape
    j = data.draw(st.integers(1, K - 1), label="member")
    r = data.draw(st.integers(1, N - 1), label="rotation")
    A = family.array.copy()
    A[j] = np.roll(A[j], -r)
    G = gram_oracle(A[1:])
    assert np.any(G[~np.eye(K - 1, dtype=bool)] != -1)
    k, t = first_edit(A, family.array)
    assert k == j
    assert document_refusal(family, A) == f"member {j} differs from the build at t = {t}"


def test_build_falsifies_a_wrong_lift(monkeypatch):
    # x^3 - 1: s_1 = 0010010 repeats every 3, so it breaks the recurrence
    # s(t + 3) = s(t) at t = 5, where s(8 mod 7) = 0 but s(5) = 1
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: (3, 0, 0, 1))
    with pytest.raises(ConstructionError, match="^row 1 does not satisfy the recurrence: it breaks at t = 5$") as err:
        z4.build_family_a(3)
    assert err.value.witness == (1, 5)
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: row 1 closes after 15 symbols
    # but repeats every 5, so the coset check, whose row 0 is row 1, names
    # the least window code of m = s_1 mod 2 that repeats, and its first
    # two shifts
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: (1, 1, 1, 1, 1))
    m = np.array(z4.run_z4_recurrence((1, 1, 1, 1, 1), (0, 0, 0, 1))) % 2
    codes = [int(m[(t + np.arange(4)) % 15] @ (1 << np.arange(4))) for t in range(15)]
    code = min(c for c in codes if codes.count(c) > 1)
    where = tuple(t for t, c in enumerate(codes) if c == code)[:2]
    with pytest.raises(ConstructionError) as err:
        z4.build_family_a(4)
    assert str(err.value) == f"row 0 mod 2 is not an m-sequence: window code {code} sits at shifts {where}"
    assert err.value.witness == (code, where)


def first_residue(f, s):
    """Oracle: the first t at which sum_j f_j s(t + j), indices mod N, is
    nonzero mod 4, from rotated copies of s; None if s closes its period."""
    s = np.asarray(s, dtype=np.int64)
    residue = sum(c * np.roll(s, -j) for j, c in enumerate(f)) % 4
    broken = np.flatnonzero(residue)
    return int(broken[0]) if broken.size else None


@pytest.mark.parametrize("n", range(2, 9))
def test_build_refuses_the_identity_lift(n, monkeypatch):
    # h read as Z4 coefficients reduces to h mod 2, but for n >= 3 it does
    # not divide x^N - 1: s_1 runs the recurrence for N symbols and breaks it
    # only where its windows wrap, so the closure check alone refuses it
    h = binpoly.primitive_polynomial(n)
    N = (1 << n) - 1
    lifted = z4.build_family_a(n)
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: tuple(h))
    t = first_residue(h, z4.run_z4_recurrence(h, (0,) * (n - 1) + (1,)))
    if n == 2:  # x^2 + x + 1 is its own lift
        assert t is None and lifted.polynomial == h
        assert z4.build_family_a(n) == lifted
        return
    assert N - n <= t < N
    with pytest.raises(ConstructionError) as err:
        z4.build_family_a(n)
    assert str(err.value) == f"row 1 does not satisfy the recurrence: it breaks at t = {t}"
    assert err.value.witness == (1, t)


# sha256 of json.dumps(family_to_json(build_family_a(n, coeffs))), computed
# from the document of seeded_family_members(coeffs), one recurrence run per
# cyclic class in code order: the build must give the same members in the
# same order, byte for byte
FAMILY_DIGESTS = {
    (2, None): "655d610b3530c000f2e94b86b5d73c67fc890261f608f039974d0ae79b961440",
    (3, None): "1f4203df975fba65eed85d08bdd8f3b5d9bb05f53144675eb79ef18d83a0e800",
    (4, None): "5d810455b435c7e6adb6fbeb08d9cad406023a802af7c589e9b03e60d93d1518",
    (5, None): "c37de808dac0503a645a78ca3d095029dcedc2b08882d5ea58e85d7ca1c0cc43",
    (6, None): "cf9d901ae0473ab07ef259532d27e76a9a21599b81b3c90ba803512571b01281",
    (7, None): "e567f99f7f4f9ddc0e794d0bb9381dfeb70ecc5031f7a3d67c4c2ed20a0f6e5e",
    (8, None): "97ca4aab7582e468728df4e66981c74c039c8ab1298e721e6a31a06dbf06bfdc",
    (9, None): "382fd8687b77dade0e36ca232e56a2f28e0ce205cf0226a5df2dd29f56ca46de",
    (10, None): "e0c3b854c6ff59c6126a32b53327ebb1a6fadfbdea73b5df436baaf9c60ac288",
    # x^8 + x^5 + x^3 + x^2 + 1, not the table entry for degree 8
    (8, (1, 0, 1, 1, 0, 1, 0, 0, 1)): "738dcbd2c3719575b8f9c955492b6482a7fa74e9f964c21d6870e5eb03568053",
}


@pytest.mark.parametrize("n,coeffs", list(FAMILY_DIGESTS))
def test_family_export_is_pinned(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    doc = z4.family_to_json(family)
    text = json.dumps(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[n, coeffs]
    assert z4.family_json_bytes(family) == family_text_oracle(doc)


def family_text_oracle(doc) -> bytes:
    """The export layout, written with json: the indent=2 text around the
    members, each member one compact line."""
    head, tail = json.dumps(dict(doc, members=[]), indent=2).split("[]")
    lines = ",\n".join("    " + json.dumps(m, separators=(",", ":")) for m in doc["members"])
    return f"{head}[\n{lines}\n  ]{tail}\n".encode()


# sha256 of family_json_bytes(build_family_a(n)) for the table polynomials,
# one member per line; the JSON value is the one FAMILY_DIGESTS pins
FAMILY_TEXT_DIGESTS = {
    2: "38b823d2739a0b49b49d86c326efaef6780bfe8bbf298049d4a3e6702a1abd50",
    3: "8f09e17f135d87ac947996a8f62564e522641e0c000c3d1ff6db681a485e1acb",
    4: "4bc53f10ac02b64a42745b83619d1a2993c2f6f3c1c8724d86a903fb75822eb2",
    5: "1f2e1c9b0b6034e079bc6716b44d8bb83f295ba8b26fcb1c59c03d145b237615",
    6: "a0688c2b0fb0a97f4f774d71c697763dd939dbf42affd39830a36b7e88d8e94a",
    7: "1fe8523f73c187aa727df5584082eee912c481dcef1385bda61772438856e9ca",
    8: "71ee3a8612a9b321ae5a67405f21197ff304460a9862ac2310761f3dc8ab7b17",
    9: "3bcc7eafc32220f5a464b923c5df05a6d130b90836033e3a3ab406a792a4daf0",
    10: "e21c2cb44bc6e66cc4c5e960a0c42c5d82e7323ab3a9d9e7f8f7ea483ef81078",
    11: "276cfda4e6dd9bfe92a969211e1eb45f83e1fac783ba0c76a27a65db519f0a0e",
    12: "091f791700c6d6beafad5ea86eb09355d7c9a812c2c0d46eec76e93a52ca724e",
}


@pytest.mark.parametrize("n", list(FAMILY_TEXT_DIGESTS))
def test_table_family_text_is_pinned(n):
    assert hashlib.sha256(z4.family_json_bytes(z4.build_family_a(n))).hexdigest() == FAMILY_TEXT_DIGESTS[n]


@pytest.mark.parametrize("n", range(2, 13))
def test_members_0_and_1_come_from_one_recurrence_run(n):
    # s_1 from the state (0, ..., 0, 1), member 1 + a for a = 0
    s1 = np.array(z4.run_z4_recurrence(z4.graeffe_lift(binpoly.primitive_polynomial(n)), (0,) * (n - 1) + (1,)))
    family = z4.build_family_a(n)
    np.testing.assert_array_equal(family.array[1], s1)
    np.testing.assert_array_equal(family.array[0], 2 * (s1 % 2))


@pytest.mark.parametrize("coeffs", ALL_PRIMITIVE_POLYS)
def test_build_matches_the_seeded_oracle(coeffs):
    family = z4.build_family_a(len(coeffs) - 1, coeffs=coeffs)
    assert list(family.members) == seeded_family_members(coeffs)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_family_certificate_runs_once_per_family(n, monkeypatch):
    # making the family is the one certificate: a built family runs it once,
    # and so does a family read back, since the reader compares the document
    # with the build and returns that build; verify selects nothing
    inner = z4._m_sequence_codes
    calls = []
    monkeypatch.setattr(z4, "_m_sequence_codes", lambda windows: calls.append(len(windows)) or inner(windows))
    family = z4.build_family_a(n)
    z4.family_alpha_max(family)
    z4.subset_l(family, verify=True)
    assert calls == [n]
    assert not family.array.flags.writeable
    for verify in (True, False):
        calls.clear()
        rebuilt = z4.family_from_json(z4.family_to_json(family), verify=verify)
        z4.subset_l(rebuilt, verify=True)
        z4.family_alpha_max(rebuilt)
        z4.subset_l(rebuilt, verify=verify)
        assert calls == [n]
        assert rebuilt == family and not rebuilt.array.flags.writeable


def window_codes(A, n: int) -> np.ndarray:
    """codes[k, t]: the big-endian base-4 code of A[k, t .. t + n - 1], indices
    mod N, from rotated copies of the rows."""
    A = np.asarray(A, dtype=np.int64) % 4
    codes = np.zeros_like(A)
    for j in range(n):
        codes = 4 * codes + np.roll(A, -j, axis=1)
    return codes


# every primitive polynomial of degree 2..8, the table ones among them, and the
# table polynomials of degree 9..12
@pytest.mark.parametrize("n,coeffs", PRIMITIVE_2_TO_8 + [(n, None) for n in range(9, 13)])
def test_aligned_certificate_gives_the_window_codes(n, coeffs):
    # code order: window code a gives member 1 + a = s_1 XOR 2 beta_a, beta_a =
    # sum_j a_j m(. + j) mod 2 with m = s_1 mod 2, for every a < 2^n
    family = z4.build_family_a(n, coeffs=coeffs)
    s1 = family.s1
    windows = np.array([np.roll(s1 & 1, -j) for j in range(n)], dtype=np.int64)  # row j: m(. + j)
    for a in range(1 << n):
        beta = (a >> np.arange(n) & 1) @ windows & 1
        np.testing.assert_array_equal(family.array[1 + a], s1 ^ 2 * beta, err_msg=f"a = {a}")


def test_build_family_guards():
    with pytest.raises(ValueError):
        z4.build_family_a(1)
    with pytest.raises(ValueError):
        z4.build_family_a(13)
    with pytest.raises(ValueError):
        z4.build_family_a(4, coeffs=X3_X_1)  # degree mismatch


def test_family_with_alternative_polynomial():
    # the other primitive degree-3 polynomial x^3 + x^2 + 1
    family = z4.build_family_a(3, coeffs=(1, 0, 1, 1))
    assert family.size == 9
    qcss.subset_l(family)


def test_family_json_roundtrip(family4):
    doc = z4.family_to_json(family4)
    rebuilt = z4.family_from_json(doc)
    assert rebuilt == family4
    doc_bad = z4.family_to_json(family4)
    doc_bad["members"][3] = list(doc_bad["members"][3])
    doc_bad["members"][3][0] = (doc_bad["members"][3][0] + 1) % 4
    with pytest.raises(ValueError):
        z4.family_from_json(doc_bad)


def test_family_json_rejects_duplicated_classes(family4):
    # member 3 replaced by a copy, then by a rotation, of member 2: both
    # still satisfy the recurrence, but two members now share their windows
    member2 = family4.members[2]
    for dup in (member2, member2[5:] + member2[:5]):
        doc = z4.family_to_json(family4)
        doc["members"][3] = list(dup)
        t = first_edit(dup, family4.members[3])[0]
        with pytest.raises(ValueError, match=f"^member 3 differs from the build at t = {t}$"):
            z4.family_from_json(doc)


def _rotate(member, r):
    return member[r:] + member[:r]


def test_family_json_rejects_a_non_binary_member_0(family4):
    doc = z4.family_to_json(family4)
    doc["members"][0][0] = 1
    with pytest.raises(ValueError, match="^member 0 differs from the build at t = 0$"):
        z4.family_from_json(doc)


def test_family_json_rejects_a_misaligned_member(family4):
    # member 3 rotated by one symbol is still a full cyclic class, but no
    # longer correlates to -1 with the other members at shift zero
    doc = z4.family_to_json(family4)
    doc["members"][3] = _rotate(doc["members"][3], 1)
    t = first_edit(doc["members"][3], family4.members[3])[0]
    with pytest.raises(ValueError, match=f"^member 3 differs from the build at t = {t}$"):
        z4.family_from_json(doc)


def _swap_2_3(members):
    members[2], members[3] = members[3], members[2]


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.__setitem__(0, _rotate(m[0], 3)),
        _swap_2_3,
        # rotating all of L by one shift keeps its alignment
        lambda m: m.__setitem__(slice(1, None), [_rotate(x, 2) for x in m[1:]]),
    ],
    ids=["member-0-rotated", "members-2-3-swapped", "members-1-on-rotated"],
)
def test_non_canonical_family_document_is_rejected(edit, family4):
    # each edit leaves valid, aligned classes that build_family_a never
    # writes, and the reader names the first symbol it moved
    doc = z4.family_to_json(family4)
    edit(doc["members"])
    k, t = first_edit(doc["members"], family4.members)
    with pytest.raises(ValueError, match=f"^member {k} differs from the build at t = {t}$"):
        z4.family_from_json(doc)


@pytest.mark.parametrize("leading", [2, 3, 4, 5])
def test_non_monic_polynomial_is_refused(leading, family4):
    # a leading coefficient of 2, 3 or 0 mod 4 is no lift of a primitive
    # polynomial: the recurrence it names is not the family's, whatever the
    # members; the reader takes 5 as its residue 1
    doc = z4.family_to_json(family4)
    doc["polynomial"][-1] = leading
    if leading % 4 == 1:
        assert z4.family_from_json(doc, verify=True) == family4
        return
    # an even leading coefficient reduces to a polynomial of lower degree,
    # which builds no family; leading 3 reduces to h, whose lift ends in 1
    polynomial = tuple(c % 4 for c in doc["polynomial"])
    if leading % 2 == 0:
        message = f"the polynomial mod 2 {tuple(c % 2 for c in polynomial)} builds no family: "
    else:
        message = f"polynomial {polynomial} is not {family4.polynomial}, the lift of its reduction mod 2"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        z4.family_from_json(doc, verify=True)


WRONG_TYPES = ["4", 4.0, None, [1], {"n": 4}]
# added to a symbol, each keeps its residue mod 4 but leaves the range 0-3
OUT_OF_RANGE = [4, -4, 256, 2**40]

# one edit of a valid n = 4 family document (17 members of period 15): drop
# a key the reader needs, give a value or one symbol a wrong type, flip one
# symbol, rotate one member of subset L, or move one symbol out of 0-3
CORRUPTIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["n", "polynomial", "members"])),
    st.tuples(st.just("type"), st.sampled_from(["n", "polynomial", "members", "symbol"]), st.sampled_from(WRONG_TYPES)),
    st.tuples(st.just("flip"), st.integers(0, 16), st.integers(0, 14), st.integers(1, 3)),
    st.tuples(st.just("rotate"), st.integers(1, 16), st.integers(1, 14)),
    st.tuples(st.just("range"), st.integers(0, 16), st.integers(0, 14), st.sampled_from(OUT_OF_RANGE)),
)


def corrupt(doc, edit):
    kind, *args = edit
    members = doc["members"]
    if kind == "drop":
        del doc[args[0]]
    elif kind == "type":
        key, value = args
        if key == "symbol":
            members[5][3] = value
        else:
            doc[key] = value
    elif kind == "flip":
        k, t, d = args
        members[k][t] = (members[k][t] + d) % 4
    elif kind == "range":
        k, t, d = args
        members[k][t] += d
    else:
        k, r = args
        members[k] = _rotate(members[k], r)


@settings(max_examples=40, deadline=None)
@given(CORRUPTIONS)
def test_corrupt_family_document_is_a_value_error(edit):
    doc = z4.family_to_json(z4.build_family_a(4))
    corrupt(doc, edit)
    with pytest.raises(ValueError):  # any other exception fails the test
        z4.family_from_json(doc, verify=True)


def swap(members, j, k):
    members[j], members[k] = members[k], members[j]


def duplicate(members, j, k):
    members[k] = list(members[j])


# member edits of an n = 4 family document that leave a 17 x 15 integer array
MEMBER_EDITS = st.one_of(
    CORRUPTIONS.filter(lambda edit: edit[0] in ("flip", "rotate", "range")),
    st.tuples(st.sampled_from([swap, duplicate]), st.integers(0, 16), st.integers(0, 16)),
)


def oracle_accepts(A, f, n: int) -> bool:
    """Family A in build_family_a's code order, from its definition: f is
    the monic lift of a primitive h, the one that divides x^N - 1; every
    symbol is a residue 0-3; every row satisfies the recurrence with f; the
    window codes are every nonzero state once; row 1 starts at the state
    (0, ..., 0, 1), row 0 is 2 (row 1 mod 2), and row 1 + a - row 1 is
    2 beta_a mod 4, beta_a = sum_j a_j m(. + j) mod 2 with m = row 1 mod 2."""
    N = (1 << n) - 1
    if len(f) != n + 1 or f[-1] != 1 or not binpoly.is_primitive_binary(tuple(c % 2 for c in f)):
        return False
    if not z4_poly_divides(f, N):
        return False
    A = np.asarray(A, dtype=np.int64)
    if A.shape != (N + 2, N) or A.min() < 0 or A.max() > 3:
        return False
    if np.any(sum(c * np.roll(A, -j, axis=1) for j, c in enumerate(f)) % 4):
        return False
    codes = window_codes(A, n)
    if not np.array_equal(np.sort(codes.ravel()), np.arange(1, 4**n)):
        return False
    m = A[1] % 2
    beta = np.array([sum((np.roll(m, -j) for j in range(n) if a >> j & 1), 0 * m) % 2 for a in range(1 << n)])
    return codes[1, 0] == 1 and np.array_equal(A[0], 2 * m) and np.array_equal((A[1:] - A[1]) % 4, 2 * beta)


# the lifts of both primitive polynomials of degree 4: the family is built
# with the first, and no member satisfies the second
POLYS_4 = [coeffs for n, coeffs in PRIMITIVE_2_TO_8 if n == 4]
LIFTS_4 = [z4.graeffe_lift(coeffs) for coeffs in POLYS_4]

# the member edits, plus rotating all of L at once, or moving one
# coefficient of the polynomial by d
FAMILY_EDITS = st.one_of(
    MEMBER_EDITS,
    st.tuples(st.just("rotate-L"), st.integers(1, 14)),
    st.tuples(st.just("polynomial"), st.integers(0, 4), st.integers(1, 3)),
)


@settings(max_examples=200, deadline=None)
@given(FAMILY_EDITS, st.sampled_from(LIFTS_4))
def test_family_certificate_decides_as_the_window_check(edit, polynomial):
    # the comparison with the build decides as the definition does, and
    # names the first difference from that build
    doc = z4.family_to_json(z4.build_family_a(4, coeffs=POLYS_4[0]))
    members, polynomial = doc["members"], list(polynomial)
    if callable(edit[0]):
        edit[0](members, *edit[1:])
    elif edit[0] == "rotate-L":
        members[1:] = [_rotate(m, edit[1]) for m in members[1:]]
    elif edit[0] == "polynomial":
        polynomial[edit[1]] = (polynomial[edit[1]] + edit[2]) % 4
    else:
        corrupt(doc, edit)
    doc["polynomial"], polynomial = polynomial, tuple(polynomial)
    A = np.asarray(members)  # every edit leaves 17 rows of 15 integers
    accepted = oracle_accepts(A, polynomial, 4)
    try:
        z4.family_from_json(doc)
    except ValueError as exc:
        assert not accepted
        h = tuple(c % 2 for c in polynomial)
        if A.min() < 0 or A.max() > 3:
            assert str(exc) == "family symbols must be the integers 0-3"
        elif h not in POLYS_4:  # a lower degree or not primitive
            assert str(exc).startswith(f"the polynomial mod 2 {h} builds no family: ")
        elif polynomial not in LIFTS_4:
            assert str(exc) == f"polynomial {polynomial} is not {z4.graeffe_lift(h)}, the lift of its reduction mod 2"
        else:
            assert str(exc) == "member {} differs from the build at t = {}".format(
                *first_edit(A, z4.build_family_a(4, coeffs=h).array))
    else:
        assert accepted


PRIMITIVE_2_TO_7 = [case for case in PRIMITIVE_2_TO_8 if case[0] <= 7]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_7))
def test_family_text_roundtrip(case):
    n, coeffs = case
    family = z4.build_family_a(n, coeffs=coeffs)
    rebuilt = z4.family_from_json(json.loads(bytes(z4.family_json_bytes(family))))
    assert rebuilt == family
    for fam in (family, rebuilt):
        assert fam.array.dtype == np.int8 and not fam.array.flags.writeable
        np.testing.assert_array_equal(fam.array, np.array(family.members, dtype=np.int8))
        assert fam.members == family.members
        assert fam.size == len(family.members)
        with pytest.raises(ValueError):
            fam.array[0, 0] = 1
        assert np.array_equal(z4.subset_l(fam), family.members[1:])
        assert np.shares_memory(z4.subset_l(fam), fam.array)  # a view, not a copy
        assert z4.family_alpha_max(fam) == z4.family_alpha_max(family)
        assert z4.family_json_bytes(fam) == family_text_oracle(z4.family_to_json(family))


@pytest.mark.parametrize("n,coeffs", PRIMITIVE_2_TO_8)
def test_family_text_parses_to_the_export_form(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    assert json.loads(bytes(z4.family_json_bytes(family))) == z4.family_to_json(family)


@pytest.mark.parametrize("n,coeffs", [(5, None), (8, (1, 0, 1, 1, 0, 1, 0, 0, 1))])
def test_family_text_in_the_symbol_per_line_layout_reads_back(n, coeffs):
    # files written before the members went one per line hold the same value
    family = z4.build_family_a(n, coeffs=coeffs)
    old = json.dumps(z4.family_to_json(family), indent=2) + "\n"
    assert z4.family_from_json(json.loads(old), verify=True) == family


def test_family_text_length_is_fixed_by_the_shape():
    family = z4.build_family_a(12)
    K, N = family.array.shape
    doc = {"n": 12, "polynomial": list(family.polynomial), "members": [], "l0_index": 0}
    head, tail = json.dumps(doc, indent=2).split("[]")
    head, tail = f"{head}[\n", f"\n  ]{tail}\n"
    assert len(z4.family_json_bytes(family)) == len(head) + K * (2 * N + 7) - 2 + len(tail)


def test_family_owns_its_array():
    # a family is its (n, h): made twice it is equal, with one hash, and
    # another h or another n makes another family; what it holds is read-only
    family = z4.build_family_a(3, X3_X_1)
    same = z4.FamilyA(3, X3_X_1)
    assert family == same and hash(family) == hash(same) and family is not same
    assert family.polynomial == same.polynomial == (3, 1, 2, 1)
    assert family != z4.FamilyA(3, (1, 0, 1, 1))
    assert family != z4.FamilyA(4, (1, 1, 0, 0, 1))
    assert family != z4.FamilyA(2, (1, 1, 1))
    for name in ("s1", "codes", "array"):
        held = getattr(family, name)
        assert not held.flags.writeable, name
        with pytest.raises(ValueError):
            held[0] = 0
    assert family.array is family.array  # formed once


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("members"),
        lambda d: d.update(n="4"),
        lambda d: d.update(n=13),
        lambda d: d.update(polynomial=3),
        lambda d: d.update(polynomial=[3, 1, 2]),
        lambda d: d["members"][3].__setitem__(0, 1.5),
        lambda d: d["members"][3].__setitem__(0, "1"),
        lambda d: d["members"][3].__setitem__(0, None),
        lambda d: d["members"][3].pop(),
        lambda d: d["members"][3].__setitem__(0, [1]),
        lambda d: d.update(members=5),
        lambda d: d.update(members=[]),
        lambda d: d.update(members=[[] for _ in d["members"]]),
        # the residue mod 4 is the build's, so only the range check refuses it
        *[lambda d, v=v: d["members"][3].__setitem__(0, d["members"][3][0] + v) for v in OUT_OF_RANGE],
    ],
    ids=[
        "no-n", "no-members", "string-n", "n-too-large", "int-polynomial", "short-polynomial",
        "float-symbol", "string-symbol", "null-symbol", "ragged", "nested-symbol", "int-members",
        "no-rows", "empty-rows", *[f"symbol-plus-{v}" for v in OUT_OF_RANGE],
    ],
)
def test_malformed_family_document_is_a_value_error(edit, family4):
    doc = z4.family_to_json(family4)
    edit(doc)
    for verify in (True, False):
        with pytest.raises(ValueError):
            z4.family_from_json(doc, verify=verify)


@pytest.mark.parametrize("n", [1, 13])
def test_family_document_degree_uses_the_one_degree_bound(n, family4):
    doc = z4.family_to_json(family4)
    doc["n"] = n
    with pytest.raises(ValueError, match=rf"^degree must be in \[2, {z4.MAX_FAMILY_DEGREE}\], got {n}$"):
        z4.family_from_json(doc)


@pytest.mark.parametrize("doc", [None, [], "family"])
def test_family_document_must_be_an_object(doc):
    with pytest.raises(ValueError, match="is an object"):
        z4.family_from_json(doc)
