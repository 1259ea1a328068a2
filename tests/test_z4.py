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


def first_edit(A, B):
    """The first (member, t), in row-major order, at which A and B differ."""
    return tuple(np.argwhere(np.asarray(A) != np.asarray(B))[0].tolist())


def test_alpha_max_rejects_a_non_family(family4):
    # each family is refused with its first difference from the build
    members = list(family4.members)
    copied = members[:3] + [members[2]] + members[4:]
    t = first_edit(members[2], members[3])[0]
    with pytest.raises(ConstructionError, match=rf"^member 3 differs from the build at t = {t}$") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=copied))
    assert err.value.witness == (3, t)
    broken = members[5][:7] + ((members[5][7] + 1) % 4,) + members[5][8:]
    tampered = members[:5] + [broken] + members[6:]
    with pytest.raises(ConstructionError, match="^member 5 differs from the build at t = 7$") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=tampered))
    assert err.value.witness == (5, 7)
    with pytest.raises(ConstructionError, match=r"^shape \(16, 15\) is not the build's \(17, 15\)$") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, array=members[:-1]))
    assert err.value.witness == (16, 15)


@pytest.mark.parametrize("largest_first", [False, True])
@pytest.mark.parametrize("fixture_name", ["family3", "family4", "family5", "family6"])
def test_alpha_max_witness_reproduces_value(fixture_name, largest_first, request, monkeypatch):
    # an oracle that disagrees makes the certificate fail and expose its
    # witness, which the real oracle must reproduce; with the largest symbol
    # sum moved to member 0 the members leave the build's layout, and the
    # family is refused with the first symbol the reordering moved
    family = request.getfixturevalue(fixture_name)
    alpha = z4.family_alpha_max(family)
    if largest_first:
        members = sorted(family.members, key=lambda m: -abs(sum(1j**v for v in m)))
        with pytest.raises(ConstructionError, match="differs from the build") as err:
            z4.family_alpha_max(z4.FamilyA(n=family.n, polynomial=family.polynomial, array=members))
        assert err.value.witness == first_edit(members, family.members)
        return
    oracle = z4.z4_correlation
    monkeypatch.setattr(z4, "z4_correlation", lambda a, b, tau: oracle(a, b, tau) + 1)
    with pytest.raises(ConstructionError) as err:
        z4.family_alpha_max(family)
    i, j, tau, value = err.value.witness
    assert (i != j or tau) and 0 <= tau < family.period  # not in phase
    assert oracle(family.members[i], family.members[j], tau) == value
    assert abs(value) == alpha and i == 0 and tau == 0


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
    # rotating one representative breaks the zero-shift pairwise property,
    # and a repeated member is no family at all: each is refused at its
    # first symbol that differs from the build
    members = list(family3.members)
    broken = members[2][1:] + members[2][:1]
    tampered = z4.FamilyA(n=family3.n, polynomial=family3.polynomial, array=members[:2] + [broken] + members[3:])
    with pytest.raises(ConstructionError, match="^member 2 differs from the build") as err:
        qcss.subset_l(tampered)
    assert err.value.witness == (2, first_edit(broken, members[2])[0])
    copied = z4.FamilyA(n=family3.n, polynomial=family3.polynomial, array=members[:3] + [members[2]] + members[4:])
    with pytest.raises(ConstructionError, match="^member 3 differs from the build") as err:
        qcss.subset_l(copied)
    assert err.value.witness == (3, first_edit(members[2], members[3])[0])


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
    tampered = z4.FamilyA(n=n, polynomial=family.polynomial, array=A)
    G = gram_oracle(A[1:])
    assert np.any(G[~np.eye(K - 1, dtype=bool)] != -1)
    with pytest.raises(ConstructionError, match=f"^member {j} differs from the build") as err:
        z4.subset_l(tampered, verify=True)
    assert err.value.witness == first_edit(A, family.array)
    assert err.value.witness[0] == j


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


def test_aligned_check_refuses_row_0_off_2m(family4):
    rows = family4.array.copy()
    rows[0, 6] ^= 2
    with pytest.raises(ConstructionError, match="^row 0 is not 2m, m = row 1 mod 2: it differs at t = 6$") as err:
        z4._aligned_check(rows, family4.polynomial, 4)
    assert err.value.witness == (0, 6)


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
    # the build's aligned check is the one certificate: a built family runs
    # it once, and so does a family read back, since the reader compares the
    # document with the build and returns that build
    inner = z4._aligned_check
    calls = []
    monkeypatch.setattr(z4, "_aligned_check", lambda *args: calls.append(args) or inner(*args))
    family = z4.build_family_a(n)
    z4.family_alpha_max(family)
    z4.subset_l(family, verify=True)
    assert len(calls) == 1
    assert not family.array.flags.writeable
    for verify in (True, False):
        calls.clear()
        rebuilt = z4.family_from_json(z4.family_to_json(family), verify=verify)
        z4.subset_l(rebuilt, verify=True)
        z4.family_alpha_max(rebuilt)
        z4.subset_l(rebuilt, verify=True)
        assert len(calls) == 1
        assert rebuilt == family and not rebuilt.array.flags.writeable


def window_codes(A, n: int) -> np.ndarray:
    """codes[k, t]: the big-endian base-4 code of A[k, t .. t + n - 1], indices
    mod N, from rotated copies of the rows."""
    A = np.asarray(A, dtype=np.int64) % 4
    codes = np.zeros_like(A)
    for j in range(n):
        codes = 4 * codes + np.roll(A, -j, axis=1)
    return codes


@pytest.mark.parametrize("n,coeffs", PRIMITIVE_2_TO_8 + [(n, None) for n in range(9, 13)])
def test_aligned_certificate_gives_the_window_codes(n, coeffs):
    # the build's rows in member order are still in the aligned layout, so
    # the check gives the least window codes of members 2.., in order
    family = z4.build_family_a(n, coeffs=coeffs)
    least = z4._aligned_check(family.array, family.polynomial, n)
    np.testing.assert_array_equal(least, window_codes(family.array, n).min(axis=1)[2:])
    assert np.all(np.diff(least) > 0)


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
    with pytest.raises(ConstructionError) as err:  # the same family handed over is refused alike
        z4.subset_l(z4.FamilyA(n=4, polynomial=family4.polynomial, array=doc["members"]))
    assert err.value.witness == (k, t)


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
    with pytest.raises(ValueError, match="^(the polynomial mod 2|polynomial )"):
        z4.family_from_json(doc, verify=True)
    polynomial = tuple(doc["polynomial"])
    with pytest.raises(ConstructionError) as err:
        z4.subset_l(z4.FamilyA(n=4, polynomial=polynomial, array=family4.array))
    # an even leading coefficient reduces to a polynomial of lower degree,
    # which builds no family; leading 3 reduces to h, whose lift ends in 1
    assert err.value.witness == (tuple(c % 2 for c in polynomial) if leading % 2 == 0 else polynomial)
    with pytest.raises(ConstructionError):
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=polynomial, array=family4.array))


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
    """Family A in build_family_a's canonical form, from its definition: f
    is the monic lift of a primitive h, the one that divides x^N - 1; every
    symbol is a residue 0-3; every row satisfies the recurrence with f; the
    window codes are every nonzero state once; rows 1.. share one reduction
    mod 2; and members 0 and 1 start at their least window code, by which
    members 1.. are ordered."""
    N = (1 << n) - 1
    if len(f) != n + 1 or f[-1] != 1 or not binpoly.is_primitive_binary(tuple(c % 2 for c in f)):
        return False
    if not z4.z4_poly_divides(f, N):
        return False
    A = np.asarray(A, dtype=np.int64)
    if A.shape != (N + 2, N) or A.min() < 0 or A.max() > 3:
        return False
    if np.any(sum(c * np.roll(A, -j, axis=1) for j, c in enumerate(f)) % 4):
        return False
    codes = window_codes(A, n)
    if not np.array_equal(np.sort(codes.ravel()), np.arange(1, 4**n)):
        return False
    if np.any((A[2:] - A[1]) % 2):
        return False
    least = codes.min(axis=1)
    return codes[0, 0] == least[0] and codes[1, 0] == least[1] and bool(np.all(np.diff(least[1:]) > 0))


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
    polynomial = tuple(polynomial)
    edited = z4.FamilyA(n=4, polynomial=polynomial, array=members)
    A = edited.array
    accepted = oracle_accepts(A, polynomial, 4)
    try:
        z4.subset_l(edited, verify=True)
    except ConstructionError as exc:
        assert not accepted
        h = tuple(c % 2 for c in polynomial)
        if h not in POLYS_4:  # a lower degree or not primitive
            assert exc.witness == h
        elif polynomial not in LIFTS_4:
            assert exc.witness == polynomial
        else:
            assert exc.witness == first_edit(A, z4.build_family_a(4, coeffs=h).array)
            assert str(exc) == "member {} differs from the build at t = {}".format(*exc.witness)
    else:
        assert accepted


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
