import itertools
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
    measured = z4.family_alpha_max(family, method="exact")
    assert abs(measured - math.sqrt(ALPHA_MAX_SQUARED[n])) <= 1e-6
    # even degrees meet 1 + 2^(n/2) exactly; odd degrees stay below it
    bound = 1 + 2 ** (n / 2)
    if n % 2 == 0:
        assert abs(measured - bound) <= 1e-6
    else:
        assert measured <= bound + 1e-6


def test_alpha_max_fft_path_agrees(family4):
    exact = z4.family_alpha_max(family4, method="exact")
    fft = z4.family_alpha_max(family4, method="fft")
    assert abs(exact - fft) <= 1e-9


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


def test_least_rotation_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        seq = tuple(int(v) for v in rng.integers(0, 4, size=size))
        k = z4._least_rotation_index(seq)
        assert seq[k:] + seq[:k] == min(all_rotations(seq))
