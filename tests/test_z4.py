import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcss
from conftest import ALL_PRIMITIVE_POLYS, seeded_family_members
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
    assert z4.z4_poly_divides(f, (1 << n) - 1)


def test_lift_rejects_nonprimitive():
    with pytest.raises(ValueError):
        z4.graeffe_lift((1, 0, 1))  # x^2 + 1
    with pytest.raises(ValueError):
        z4.graeffe_lift((1, 1, 1, 1, 1))  # irreducible, order 5


def test_divides_rejects_wrong_order():
    f = z4.graeffe_lift(X3_X_1)
    assert not z4.z4_poly_divides(f, 6)


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
    # running 2*(2^n - 1) symbols must tile the first period exactly
    f = z4.graeffe_lift(binpoly.primitive_polynomial(n))
    period = (1 << n) - 1
    rng = np.random.default_rng(7 + n)
    for _ in range(10):
        init = rng.integers(0, 4, size=n)
        if not init.any():
            init[0] = 1
        long_run = z4.run_z4_recurrence(f, init, length=2 * period)
        assert long_run[period:] == long_run[:period]


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
    assert all(v in (0, 2) for v in family4.l0)


def test_l0_has_ideal_autocorrelation(family5):
    # the {0,2}-valued member maps to a +-1 sequence with PACF -1 off-phase
    period = family5.period
    for tau in range(1, period):
        assert z4.z4_correlation(family5.l0, family5.l0, tau) == complex(-1, 0)
    assert z4.z4_correlation(family5.l0, family5.l0, 0) == complex(period, 0)


ALPHA_MAX_SQUARED = {3: 13, 4: 25, 5: 41, 6: 81}  # brute-force sweep oracle


@pytest.mark.parametrize(
    "fixture_name,n", [("family3", 3), ("family4", 4), ("family5", 5), ("family6", 6)]
)
def test_family_alpha_max(fixture_name, n, request):
    family = request.getfixturevalue(fixture_name)
    measured = z4.family_alpha_max(family)
    assert abs(measured - math.sqrt(ALPHA_MAX_SQUARED[n])) <= 1e-6
    # even degrees meet 1 + 2^(n/2) exactly; odd degrees stay below it
    bound = 1 + 2 ** (n / 2)
    if n % 2 == 0:
        assert abs(measured - bound) <= 1e-6
    else:
        assert measured <= bound + 1e-6


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


PRIMITIVE_3_TO_6 = [
    (n, (1,) + mid + (1,))
    for n in range(3, 7)
    for mid in itertools.product((0, 1), repeat=n - 1)
    if binpoly.is_primitive_binary((1,) + mid + (1,))
]


@pytest.mark.parametrize("n,coeffs", PRIMITIVE_3_TO_6)
def test_alpha_max_every_primitive_polynomial(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    oracle = brute_force_alpha(family) if n <= 4 else fft_alpha(family)
    assert abs(z4.family_alpha_max(family) - oracle) <= 1e-9


def test_alpha_max_rejects_a_non_family(family4):
    members = list(family4.members)
    copied = members[:3] + [members[2]] + members[4:]
    with pytest.raises(ConstructionError, match="is the window at") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=copied))
    code, where = err.value.witness
    assert [row for row, _ in where] == [2, 3] and where[0][1] == where[1][1]
    broken = members[5][:7] + ((members[5][7] + 1) % 4,) + members[5][8:]
    tampered = members[:5] + [broken] + members[6:]
    with pytest.raises(ConstructionError, match="does not satisfy the recurrence") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=tampered))
    assert err.value.witness == (5, broken)
    # a missing member leaves the other windows distinct, but not every state
    with pytest.raises(ConstructionError, match=r"is not 2\^n \+ 1 rows") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=members[:-1]))
    assert err.value.witness == (16, 15)


@pytest.mark.parametrize("largest_first", [False, True])
@pytest.mark.parametrize("fixture_name", ["family3", "family4", "family5", "family6"])
def test_alpha_max_witness_reproduces_value(fixture_name, largest_first, request, monkeypatch):
    # an oracle that disagrees makes the certificate fail and expose its
    # witness, which the real oracle must reproduce; with the largest symbol
    # sum moved to member 0 the witness must start from member 1
    family = request.getfixturevalue(fixture_name)
    alpha = z4.family_alpha_max(family)
    if largest_first:
        members = sorted(family.members, key=lambda m: -abs(sum(1j**v for v in m)))
        family = z4.FamilyA(n=family.n, polynomial=family.polynomial, array=members)
        assert z4.family_alpha_max(family) == alpha
    oracle = z4.z4_correlation
    monkeypatch.setattr(z4, "z4_correlation", lambda a, b, tau: oracle(a, b, tau) + 1)
    with pytest.raises(ConstructionError) as err:
        z4.family_alpha_max(family)
    i, j, tau, value = err.value.witness
    assert (i != j or tau) and 0 <= tau < family.period  # not in phase
    assert oracle(family.members[i], family.members[j], tau) == value
    assert abs(value) == alpha and i == int(largest_first)


@pytest.mark.parametrize(
    "fixture_name", ["family3", "family4", "family5", "family6"]
)
def test_subset_l_zero_shift_property(fixture_name, request):
    family = request.getfixturevalue(fixture_name)
    L = qcss.subset_l(family)  # verify=True checks every pair exactly
    assert len(L) == family.size - 1
    for a, b in itertools.combinations(L[:6], 2):
        assert z4.z4_correlation(a, b, 0) == complex(-1, 0)


def test_subset_l_flags_misaligned_member(family3):
    # rotating one representative breaks the zero-shift pairwise property
    members = list(family3.members)
    broken = members[2][1:] + members[2][:1]
    tampered = z4.FamilyA(n=family3.n, polynomial=family3.polynomial, array=members[:2] + [broken] + members[3:])
    with pytest.raises(ConstructionError, match="reduction mod 2") as err:
        qcss.subset_l(tampered)
    assert err.value.witness == (members[1], broken)  # the first failing pair
    assert f"is {z4.z4_correlation(members[1], broken)}, not" in str(err.value)
    # a repeated member is no family at all: the window check names it
    copied = z4.FamilyA(n=family3.n, polynomial=family3.polynomial, array=members[:3] + [members[2]] + members[4:])
    with pytest.raises(ConstructionError, match="not the cyclic classes"):
        qcss.subset_l(copied)


def gram_oracle(rows):
    """Zero-shift correlations of every pair of Z4 rows, as the matrix Z Z^H
    with Z = i^rows (exact: every product and partial sum is an integer of
    magnitude at most N < 2^53)."""
    Z = np.array([1, 1j, -1, -1j])[np.asarray(rows)]
    return Z @ Z.conj().T


PRIMITIVE_2_TO_8 = [
    (n, (1,) + mid + (1,))
    for n in range(2, 9)
    for mid in itertools.product((0, 1), repeat=n - 1)
    if binpoly.is_primitive_binary((1,) + mid + (1,))
]


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
    # m-sequence of period N, so the certificate fires on every such member;
    # the oracle must agree that some pair of L no longer correlates to -1
    n, coeffs = case
    family = z4.build_family_a(n, coeffs=coeffs)
    K, N = family.array.shape
    j = data.draw(st.integers(1, K - 1), label="member")
    r = data.draw(st.integers(1, N - 1), label="rotation")
    A = family.array.copy()
    A[j] = np.roll(A[j], -r)
    tampered = z4.FamilyA(n=n, polynomial=family.polynomial, array=A)
    G = gram_oracle(A[1:])
    assert np.any(G[~np.eye(K - 1, dtype=bool)] != -1)
    with pytest.raises(ConstructionError, match="reduction mod 2") as err:
        z4.subset_l(tampered, verify=True)
    first, other = err.value.witness
    partner = 2 if j == 1 else j
    assert (first, other) == (tuple(A[1].tolist()), tuple(A[partner].tolist()))
    assert G[0, partner - 1] == z4.z4_correlation(first, other)
    assert f"is {z4.z4_correlation(first, other)}, not" in str(err.value)


def test_build_falsifies_a_wrong_lift(monkeypatch):
    # x^3 - 1: every sequence has period 3, so no row closes after 7 symbols
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: (3, 0, 0, 1))
    with pytest.raises(ConstructionError, match="does not satisfy the recurrence"):
        z4.build_family_a(3)
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: rows close after 15 symbols
    # but repeat every 5, so their windows cannot partition the states
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: (1, 1, 1, 1, 1))
    with pytest.raises(ConstructionError, match="is the window at") as err:
        z4.build_family_a(4)
    code, where = err.value.witness
    assert len(where) == 2 and where[0][0] == where[1][0]  # one row, twice


# sha256 of json.dumps(family_to_json(build_family_a(n, coeffs))), computed
# with the earlier 4^n state-walk construction: the build must give the same
# members in the same order, byte for byte
FAMILY_DIGESTS = {
    (2, None): "d49b1990119a0515679be776eb68de3f8fca5db13b495ad375252bedc60a7738",
    (3, None): "789a58802ff1bb2887b2d2fbbb64e217a19520f48ffed0783ff8fca5c12df4b0",
    (4, None): "1726334e6cc5a08a206eca9d9467ae405732dec2ce811da3ab31d59b33b59c66",
    (5, None): "7926fdb323b1d747684c792d002d83970aacd5e55f5e1ea287b6f5c1b9af28e1",
    (6, None): "fa935af4bd32ee6509355f3847ff300e5594f5d45cea8b1c224b3db64dd42707",
    (7, None): "f28e4618ca0a8862a2839bf8f3fa95396a5532ae83843a507b1a32b3347fdb27",
    (8, None): "b2a490039fc5b3ae155cb9ea2b00a506ce5e18672624b454597ad5547b5fc531",
    (9, None): "a0c795aa141f0ea64658374b1a9ac00b38934ee310b5e11c34b2248b9f0d58fc",
    (10, None): "6bc4ad0bd40aad65e85d64f9046753cb2b1d2abe97fc94b9343d1884bd789ccf",
    # x^8 + x^5 + x^3 + x^2 + 1, not the table entry for degree 8
    (8, (1, 0, 1, 1, 0, 1, 0, 0, 1)): "fe97ecc29de4c298ab1ddbc1c5415332be15b75e21cca3e25e3807ac6cdfa01b",
}


@pytest.mark.parametrize("n,coeffs", list(FAMILY_DIGESTS))
def test_family_export_is_pinned(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    doc = z4.family_to_json(family)
    text = json.dumps(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[n, coeffs]
    # the array writer gives the indented dump's bytes
    assert z4.family_json_text(family) == json.dumps(doc, indent=2) + "\n"


# sha256 of family_json_text(build_family_a(n)) for the table polynomials,
# computed with the earlier build that ran one seed per cyclic class
FAMILY_TEXT_DIGESTS = {
    2: "0a15aac17ff3218311ba8a8d38153cb0fc934bfe62a1219c7682ab06a574d1fb",
    3: "be5d69d446fe2ffdd1b07199af8b4ee6fd3d9b27f5362780da3438a98ad89156",
    4: "df5151e3111868cfe13a3588c0be7623c20daa3d97708f7462a634ec6d892c30",
    5: "e8f1a7a07a64024dc4ca8b94d23cfbc295c9e52d337801a1ec86ea550bd9f36e",
    6: "1c5fc6eb64ed7aa18848119c509b5b576438a032095bdec9c63f6192ba928a92",
    7: "82706cba18258fb85e20e0b15702edd337b5285f2e58ce7e5691d92092860e64",
    8: "ea7c0a65415cce5aae5bb7a2c886aff5e95a5dede8a970dbe8595eaee09383ce",
    9: "f25d26b49e1d52c8a6eec07be413f61843695334213fe70eda2685b29772c277",
    10: "043a83fa17c5c120540191cb9ab09c18eddb0d1140a5ef98fa8f4beec5e8d8db",
    11: "e60c4aae18d7909ae093802a39d15d90d10c9f59ebbf916636b9ddd3b1ed40e7",
    12: "c5cc2e9e8e6f66c694c693fab36b116d52e8e3795a8f33974291b26733cd48e6",
}


@pytest.mark.parametrize("n", list(FAMILY_TEXT_DIGESTS))
def test_table_family_text_is_pinned(n):
    text = z4.family_json_text(z4.build_family_a(n))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_TEXT_DIGESTS[n]


@pytest.mark.parametrize("n", range(2, 13))
def test_members_0_and_1_come_from_one_recurrence_run(n):
    # s_1 from the state (0, ..., 0, 1), code 1, the least unit state
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
    # a family in the aligned layout is certified once, never by the general
    # window check, and its alpha witness is one row's first window
    inner = z4._family_certificate
    calls = []
    monkeypatch.setattr(z4, "_family_certificate", lambda *args: calls.append(args) or inner(*args))
    monkeypatch.setattr(z4, "_window_codes", None)
    family = z4.build_family_a(n)
    z4.family_alpha_max(family)
    z4.subset_l(family, verify=True)
    assert len(calls) == 1
    assert not family.array.flags.writeable
    # the build hands over its certificate in member order: a fresh one agrees
    fresh = inner(family.array, family.polynomial, n)
    for got, want in zip(family._certificate, fresh):
        np.testing.assert_array_equal(got, want)
    calls.clear()
    rebuilt = z4.family_from_json(z4.family_to_json(family), verify=True)
    z4.subset_l(rebuilt, verify=True)
    z4.family_alpha_max(rebuilt)
    assert len(calls) == 1
    assert not rebuilt.array.flags.writeable


@pytest.mark.parametrize("n,coeffs", PRIMITIVE_2_TO_8 + [(n, None) for n in range(9, 13)])
def test_aligned_certificate_gives_the_window_codes(n, coeffs):
    family = z4.build_family_a(n, coeffs=coeffs)
    codes, failure = z4._window_codes(family.array, family.polynomial, n)
    cert = family._certificate
    assert failure is None and cert.failure is None and cert.aligned
    np.testing.assert_array_equal(cert.first, codes[:, 0])
    np.testing.assert_array_equal(cert.least, codes.min(axis=1))


def first_break(beta, h):
    """Scalar oracle: the first t at which beta breaks the binary recurrence
    x(t + n) = sum_j h_j x(t + j) mod 2 of polynomial h, indices mod N."""
    n, N = len(h) - 1, len(beta)
    for t in range(N):
        if beta[(t + n) % N] != sum(h[j] * beta[(t + j) % N] for j in range(n)) % 2:
            return t
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_8), st.data())
def test_coset_witness_is_the_first_break_of_the_recurrence(case, data):
    # moving one symbol of row k by 2 moves beta_k out of B, and the witness
    # names row k and the first t where beta_k breaks m's recurrence
    n, coeffs = case
    base = z4.subset_l(z4.build_family_a(n, coeffs=coeffs)).copy()
    K, N = base.shape
    k = data.draw(st.integers(1, K - 1), label="row")
    p = data.draw(st.integers(0, N - 1), label="symbol")
    base[k, p] ^= 2
    t = first_break(((base[k] - base[0]) % 4 // 2).tolist(), coeffs)
    with pytest.raises(ConstructionError) as err:
        z4.coset_codes(base)
    assert err.value.witness == (k, t)
    assert str(err.value) == (f"(row {k} - row 0) / 2 is not a sum of the windows m(. + j), j < n: "
                              f"it differs at t = {t}")


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
        with pytest.raises(ValueError, match="not distinct cyclic classes"):
            z4.family_from_json(doc)


def _rotate(member, r):
    return member[r:] + member[:r]


def test_family_json_rejects_a_non_binary_member_0(family4):
    doc = z4.family_to_json(family4)
    doc["members"][0][0] = 1
    with pytest.raises(ValueError, match="member 0 must be binary-valued"):
        z4.family_from_json(doc)


def test_family_json_rejects_a_misaligned_member(family4):
    # member 3 rotated by one symbol is still a full cyclic class, but no
    # longer correlates to -1 with the other members at shift zero
    doc = z4.family_to_json(family4)
    doc["members"][3] = _rotate(doc["members"][3], 1)
    with pytest.raises(ValueError, match="member 3 does not share member 1's mod-2 reduction"):
        z4.family_from_json(doc)


def _swap_2_3(members):
    members[2], members[3] = members[3], members[2]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.__setitem__(0, _rotate(m[0], 3)), "member 0 does not start at its least rotation"),
        (_swap_2_3, "not ordered by their least window code"),
        # rotating all of L by one shift keeps its alignment
        (lambda m: m.__setitem__(slice(1, None), [_rotate(x, 2) for x in m[1:]]),
         "member 1 does not start at its least rotation"),
    ],
    ids=["member-0-rotated", "members-2-3-swapped", "members-1-on-rotated"],
)
def test_non_canonical_family_document_is_rejected(edit, message, family4):
    # each edit leaves valid, aligned classes that build_family_a never writes
    doc = z4.family_to_json(family4)
    edit(doc["members"])
    with pytest.raises(ValueError, match=message):
        z4.family_from_json(doc)


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


def window_decision(A, f, n):
    """The general certificate: the window check, then the alignment of rows
    1..; the refusal's message and witness, or the first and least codes."""
    codes, failure = z4._window_codes(A, f, n)
    try:
        if failure is not None:
            raise ConstructionError(f"members are not the cyclic classes: {failure[0]}", witness=failure[1])
        z4._certify_alignment(A)
    except ConstructionError as exc:
        return "refused", str(exc), exc.witness
    return "certified", codes[:, 0], codes.min(axis=1)


# the lifts of both primitive polynomials of degree 4: the family is built
# with the first, and no member satisfies the second
POLYS_4 = [coeffs for n, coeffs in PRIMITIVE_2_TO_8 if n == 4]
LIFTS_4 = [z4.graeffe_lift(coeffs) for coeffs in POLYS_4]


@settings(max_examples=100, deadline=None)
@given(MEMBER_EDITS, st.sampled_from(LIFTS_4))
def test_family_certificate_decides_as_the_window_check(edit, polynomial):
    doc = z4.family_to_json(z4.build_family_a(4, coeffs=POLYS_4[0]))
    if callable(edit[0]):
        edit[0](doc["members"], *edit[1:])
    else:
        corrupt(doc, edit)
    edited = z4.FamilyA(n=4, polynomial=polynomial, array=doc["members"])
    decision, *want = window_decision(edited.array, edited.polynomial, 4)
    try:
        z4.subset_l(edited, verify=True)
    except ConstructionError as exc:
        assert decision == "refused" and [str(exc), exc.witness] == want
    else:
        assert decision == "certified"
        np.testing.assert_array_equal(edited._certificate.first, want[0])
        np.testing.assert_array_equal(edited._certificate.least, want[1])


PRIMITIVE_2_TO_7 = [case for case in PRIMITIVE_2_TO_8 if case[0] <= 7]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRIMITIVE_2_TO_7))
def test_family_text_roundtrip(case):
    n, coeffs = case
    family = z4.build_family_a(n, coeffs=coeffs)
    rebuilt = z4.family_from_json(json.loads(z4.family_json_text(family)))
    assert rebuilt == family
    # a family built from its members as tuples, as the tampered-family
    # tests build them, gets the same array and gives the same results
    plain = z4.FamilyA(n=n, polynomial=family.polynomial, array=family.members)
    assert plain == family
    for fam in (family, rebuilt, plain):
        assert fam.array.dtype == np.int8 and not fam.array.flags.writeable
        np.testing.assert_array_equal(fam.array, np.array(family.members, dtype=np.int8))
        assert fam.members == family.members and fam.l0 == family.members[0]
        assert fam.size == len(family.members)
        with pytest.raises(ValueError):
            fam.array[0, 0] = 1
        assert np.array_equal(z4.subset_l(fam), family.members[1:])
        assert np.shares_memory(z4.subset_l(fam), fam.array)  # a view, not a copy
        assert z4.family_alpha_max(fam) == z4.family_alpha_max(family)
        assert z4.family_json_text(fam) == json.dumps(z4.family_to_json(family), indent=2) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2, 2], [1, 3]],  # ragged
        [0, 2, 2, 0, 2, 0, 0],  # one row, 1-D
        np.zeros((2, 3, 7), dtype=np.int8),
        np.zeros((9, 7)),  # float symbols
        [[0, "2"], [1, 3]],
    ],
    ids=["ragged", "1-D", "3-D", "float", "string"],
)
def test_family_array_must_be_a_2d_integer_array(rows):
    with pytest.raises(ValueError, match="family members must be"):
        z4.FamilyA(n=3, polynomial=(3, 1, 2, 1), array=rows)


def test_family_owns_its_array(family3):
    rows = family3.array.copy()
    family = z4.FamilyA(n=3, polynomial=family3.polynomial, array=rows)
    rows[0, 0] = 1  # the caller's array is not the family's store
    assert family == family3
    assert family != z4.FamilyA(n=3, polynomial=family3.polynomial, array=rows)
    assert family != z4.FamilyA(n=3, polynomial=(1, 2, 1, 3), array=family3.array)


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
