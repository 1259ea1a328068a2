import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import qcss
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
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, members=tuple(copied)))
    code, where = err.value.witness
    assert [row for row, _ in where] == [2, 3] and where[0][1] == where[1][1]
    broken = members[5][:7] + ((members[5][7] + 1) % 4,) + members[5][8:]
    tampered = members[:5] + [broken] + members[6:]
    with pytest.raises(ConstructionError, match="does not satisfy the recurrence") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, members=tuple(tampered)))
    assert err.value.witness == (5, broken)
    # a missing member leaves the other windows distinct, but not every state
    with pytest.raises(ConstructionError, match=r"is not 2\^n \+ 1 rows") as err:
        z4.family_alpha_max(z4.FamilyA(n=4, polynomial=family4.polynomial, members=tuple(members[:-1])))
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
        family = z4.FamilyA(n=family.n, polynomial=family.polynomial, members=tuple(members))
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
    if z4.z4_correlation(broken, members[1], 0) == complex(-1, 0):
        pytest.skip("rotation accidentally preserves alignment")
    tampered = z4.FamilyA(
        n=family3.n, polynomial=family3.polynomial, members=tuple(members[:2] + [broken] + members[3:])
    )
    with pytest.raises(ConstructionError) as err:
        qcss.subset_l(tampered)
    assert err.value.witness == (members[1], broken)  # the first failing pair


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
# with the earlier 4^n state-walk construction: the seeded build must give
# the same members in the same order, byte for byte
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
    text = json.dumps(z4.family_to_json(family))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[n, coeffs]


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
