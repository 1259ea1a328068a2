import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import difference_function
from qcss import binpoly, diffsets
from qcss.correlation import roots_table
from qcss.diffsets import (
    ALMOST_DIFFERENCE_SET,
    CANONICAL_PATTERN,
    DIFFERENCE_SET,
    NEITHER,
    CosetPattern,
    CyclicSubset,
    classify_set,
    coset_union,
    exp_sum_bound,
    exp_sum_profile,
    expected_ads_classification,
    find_canonical_pattern,
    legendre_ds,
    lift_ads_to_z4f,
    singer_ds,
)
from qcss.errors import ConstructionError


def random_subset(rng, max_modulus=60):
    q = int(rng.integers(4, max_modulus))
    size = int(rng.integers(1, q))
    elems = rng.choice(q, size=size, replace=False)
    return CyclicSubset(modulus=q, elements=tuple(int(e) for e in elems))


# ------------------------------------------------------- difference function


def test_difference_function_examples():
    D = CyclicSubset(7, (3, 5, 6))
    assert difference_function(D, 0) == 3
    assert difference_function(D, 1) == 1  # (D+1) = {4,6,0} meets D in {6}


def test_difference_function_double_counting():
    rng = np.random.default_rng(101)
    for _ in range(50):
        D = random_subset(rng)
        total = sum(difference_function(D, x) for x in range(1, D.modulus))
        assert total == D.size * (D.size - 1)


def test_difference_function_range_guard():
    with pytest.raises(ValueError):
        difference_function(CyclicSubset(7, (1,)), 7)


# ------------------------------------------------------- classification


def test_classify_quadratic_residues_mod7():
    c = classify_set(CyclicSubset(7, (1, 2, 4)))
    assert c.as_tuple() == (DIFFERENCE_SET, 7, 3, 1, 6)


def test_classify_singleton():
    c = classify_set(CyclicSubset(5, (0,)))
    assert c.as_tuple() == (DIFFERENCE_SET, 5, 1, 0, 4)


def test_classify_neither():
    c = classify_set(CyclicSubset(7, (0, 1, 2)))
    assert c.kind == NEITHER


def test_classification_counting_identity():
    rng = np.random.default_rng(202)
    seen_ads = 0
    for _ in range(200):
        D = random_subset(rng)
        c = classify_set(D)
        if c.kind == ALMOST_DIFFERENCE_SET:
            seen_ads += 1
            assert c.m * (c.m - 1) == c.t * c.lam + (c.p - 1 - c.t) * (c.lam + 1)
        elif c.kind == DIFFERENCE_SET:
            assert c.t == c.p - 1
            assert c.m * (c.m - 1) == (c.p - 1) * c.lam
    assert seen_ads > 0  # draws actually exercised the two-level branch


# ------------------------------------------------------- base difference sets


@pytest.mark.parametrize("k", [3, 4, 5])
def test_singer_classification(k):
    W = singer_ds(k)
    f = (1 << k) - 1
    assert W.modulus == f
    c = classify_set(W)
    assert c.as_tuple() == (DIFFERENCE_SET, f, (f - 1) // 2, (f - 3) // 4, f - 1)
    assert c.m == (1 << (k - 1)) - 1 and c.lam == (1 << (k - 2)) - 1


def test_singer_frozen_sets():
    assert singer_ds(3).elements == (1, 2, 4)
    assert singer_ds(4).elements == (1, 2, 3, 5, 6, 9, 11)


@pytest.mark.parametrize("f", [7, 11, 19])
def test_legendre_classification(f):
    W = legendre_ds(f)
    c = classify_set(W)
    assert c.as_tuple() == (DIFFERENCE_SET, f, (f - 1) // 2, (f - 3) // 4, f - 1)


def test_legendre_values():
    assert legendre_ds(7).elements == (1, 2, 4)
    assert legendre_ds(11).elements == (1, 3, 4, 5, 9)


def test_legendre_guards():
    with pytest.raises(ValueError):
        legendre_ds(13)  # 1 mod 4
    for f in (1, 15, 27):  # a unit, composite, a prime power
        with pytest.raises(ValueError, match="not prime"):
            legendre_ds(f)


def test_legendre_size_bound():
    # f is bounded by the largest Singer modulus, 2^MAX_FAMILY_DEGREE - 1 = 4095
    with pytest.raises(ValueError, match="exceeds 4095"):
        legendre_ds(4099)  # a prime, 3 mod 4
    W = legendre_ds(4091)
    assert (W.modulus, W.size) == (4091, 2045)
    U = lift_ads_to_z4f(W)
    assert (U.modulus, U.size) == (4 * 4091, 3 * 2045 + 2046)


# ------------------------------------------------------- the Z_{4f} lift


EXPECTED_ADS = {
    7: (ALMOST_DIFFERENCE_SET, 28, 13, 5, 6),
    11: (ALMOST_DIFFERENCE_SET, 44, 21, 9, 10),
    15: (ALMOST_DIFFERENCE_SET, 60, 29, 13, 14),
}


def base_set(f):
    return {7: singer_ds(3), 11: legendre_ds(11), 15: singer_ds(4)}[f]


@pytest.mark.parametrize("f", [7, 11, 15])
def test_lift_classifications(f):
    U = lift_ads_to_z4f(base_set(f))
    assert U.modulus == 4 * f
    assert U.size == 2 * f - 1
    assert classify_set(U).as_tuple() == EXPECTED_ADS[f]


def test_lift_frozen_elements_f7():
    U = lift_ads_to_z4f(singer_ds(3))
    assert U.elements == (2, 4, 5, 8, 11, 13, 15, 16, 17, 18, 21, 22, 23)


def test_lift_accepts_tiny_base():
    # f = 3: W = {1} is the (3, 1, 0) zero-position set
    U = lift_ads_to_z4f(singer_ds(2))
    assert classify_set(U).as_tuple() == (ALMOST_DIFFERENCE_SET, 12, 5, 1, 2)


def test_lift_guards():
    with pytest.raises(ValueError):
        lift_ads_to_z4f(CyclicSubset(13, (1, 3, 4, 9, 10, 12)))  # f = 1 mod 4
    with pytest.raises(ValueError):
        lift_ads_to_z4f(CyclicSubset(7, (0, 1, 2)))  # not the right DS
    # two complement pieces give the wrong union size
    with pytest.raises(ValueError):
        lift_ads_to_z4f(singer_ds(3), CosetPattern(types=(0, 1, 0, 1), delta=0))


def test_lift_reports_failed_census():
    # (W, W, W, (W-1)*) has the right union size but fails the two-level census
    with pytest.raises(ConstructionError) as err:
        lift_ads_to_z4f(singer_ds(3), CosetPattern(types=(0, 0, 0, 3), delta=1))
    assert err.value.witness.kind == NEITHER


def test_pattern_size_algebra():
    f = 7
    assert 3 * (f - 1) // 2 + (f + 1) // 2 == 2 * f - 1


@pytest.mark.parametrize("f", [7, 11, 15])
def test_canonical_pattern_is_lexicographically_least(f):
    assert find_canonical_pattern(base_set(f)) == CANONICAL_PATTERN


@pytest.mark.parametrize("f", [19, 23, 31])
def test_canonical_pattern_extends_beyond_frozen_moduli(f):
    U = lift_ads_to_z4f(legendre_ds(f))
    assert classify_set(U).as_tuple() == (ALMOST_DIFFERENCE_SET, 4 * f, 2 * f - 1, f - 2, f - 1)


def test_pattern_search_cap():
    with pytest.raises(ValueError):
        find_canonical_pattern(legendre_ds(43))


def test_coset_union_piece_structure():
    # pieces land in distinct mod-4 cosets, so the union size is the sum
    W = singer_ds(3)
    U = coset_union(W, CANONICAL_PATTERN)
    residues = sorted({e % 4 for e in U.elements})
    assert residues == [0, 1, 2, 3]


# ------------------------------------------------------- exponential sums


@pytest.mark.parametrize("f", [7, 11, 15])
def test_profile_of_lifted_ads(f):
    U = lift_ads_to_z4f(base_set(f))
    values = np.abs(exp_sum_profile(U))
    bound = exp_sum_bound(classify_set(U))
    assert abs(values[0] - U.size) <= 1e-9
    assert bound == pytest.approx(math.sqrt(4 * f + 1), abs=1e-12)
    # strict inequality at every nontrivial shift
    assert values[1:].max() < bound


def test_bound_values():
    assert exp_sum_bound(classify_set(lift_ads_to_z4f(singer_ds(3)))) == pytest.approx(
        math.sqrt(29)
    )
    assert exp_sum_bound(classify_set(lift_ads_to_z4f(singer_ds(4)))) == pytest.approx(
        math.sqrt(61)
    )
    with pytest.raises(ValueError):
        exp_sum_bound(classify_set(singer_ds(3)))  # DS, not ADS


def test_profile_symmetry_and_identity_on_random_subsets():
    rng = np.random.default_rng(303)
    for _ in range(40):
        D = random_subset(rng, max_modulus=40)
        q = D.modulus
        values = np.abs(exp_sum_profile(D))
        assert values[0] == pytest.approx(D.size, abs=1e-9)
        for tau in range(1, q):
            assert values[tau] == pytest.approx(values[q - tau], abs=1e-9)
        # |sum|^2 expands into the difference-function census
        for tau in range(q):
            rhs = D.size + sum(
                difference_function(D, x) * math.cos(2 * math.pi * tau * x / q)
                for x in range(1, q)
            )
            assert values[tau] ** 2 == pytest.approx(rhs, abs=1e-9)


def test_json_roundtrip():
    U = lift_ads_to_z4f(singer_ds(3))
    doc = diffsets.ads_to_json(U, CANONICAL_PATTERN)
    assert doc["classification"] == {"kind": ALMOST_DIFFERENCE_SET, "P": 28, "M": 13, "lambda": 5, "t": 6}
    assert doc["pattern"] == diffsets.pattern_to_json(CANONICAL_PATTERN, 7)
    assert doc["pattern"]["pieces"][3] == {"set": "W*", "offset": 21}
    assert CyclicSubset(modulus=doc["q"], elements=doc["elements"]) == U
    assert "pattern" not in diffsets.ads_to_json(U)


# ------------------------------------------------------- one FFT of the set


@st.composite
def small_subsets(draw):
    q = draw(st.integers(1, 200))
    return CyclicSubset(q, tuple(draw(st.sets(st.integers(0, q - 1), min_size=1))))


def gathered_sums(D):
    """E(tau) summed from the root table, one q x M gather."""
    return roots_table(D.modulus)[np.outer(np.arange(D.modulus), D.elements) % D.modulus].sum(axis=1)


@settings(max_examples=100, deadline=None)
@given(small_subsets())
def test_spectrum_gives_the_definitions_on_random_subsets(D):
    counts = diffsets._difference_counts(D)
    assert counts.tolist() == [difference_function(D, x) for x in range(D.modulus)]
    assert np.abs(exp_sum_profile(D) - gathered_sums(D)).max() <= 1e-12 * D.size


@pytest.mark.parametrize(
    "kind, arg", [("singer", k) for k in range(2, 13)] + [("legendre", f) for f in (7, 11, 19, 23, 31, 43)]
)
def test_difference_counts_of_the_base_sets_and_their_lifts(kind, arg):
    W = singer_ds(arg) if kind == "singer" else legendre_ds(arg)
    f = W.modulus
    base = [W.size] + [(f - 3) // 4] * (f - 1)
    # f + 1 = 0 mod 4 puts the canonical lift's four pieces in distinct classes
    # mod 4, so at a nonzero x = 0 mod 4 only pairs within a piece differ by x:
    # three copies of W give (f - 3)/4 each and W* gives (f + 1)/4, f - 2 in
    # all; t = f - 1 then leaves f - 1 at every other x
    lifted = np.where(np.arange(4 * f) % 4 == 0, f - 2, f - 1)
    lifted[0] = 2 * f - 1
    for S, closed in ((W, base), (lift_ads_to_z4f(W), lifted.tolist())):
        q, counts = S.modulus, diffsets._difference_counts(S)
        assert counts.tolist() == closed
        # the scalar definition at every shift, or at the 128 around 0 above q = 4095
        xs = range(q) if q <= 4095 else [*range(64), *range(q - 64, q)]
        assert [counts[x] for x in xs] == [difference_function(S, x) for x in xs]
        if q <= 1023:
            assert np.abs(exp_sum_profile(S) - gathered_sums(S)).max() <= 1e-12 * S.size


def test_a_non_integral_difference_count_is_refused(monkeypatch):
    # raising |F(1)|^2 by skew * q adds skew * cos(2 pi x / q) to d_D(x): at
    # odd q only x = 0 moves by the whole skew
    real, skew = diffsets._spectrum, 0.2

    def skewed(subset):
        F = real(subset)
        F[1] *= math.sqrt(1 + skew * subset.modulus / abs(F[1]) ** 2)
        return F

    monkeypatch.setattr(diffsets, "_spectrum", skewed)
    W = singer_ds(4)
    assert classify_set(W).as_tuple() == (DIFFERENCE_SET, 15, 7, 3, 14)  # a residual of 0.2 rounds
    skew = 0.3
    with pytest.raises(ConstructionError) as err:
        classify_set(W)
    x, value = err.value.witness
    assert x == 0 and value == pytest.approx(7.3, abs=1e-9)


def test_degree_13_lift_is_classified_and_summed_in_little_memory():
    # q = 32764, M = 16381: an M x M difference matrix would take 2 GiB
    h = (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)  # 1 + x^9 + x^10 + x^12 + x^13
    assert binpoly.is_primitive_binary(h)
    W = singer_ds(13, h)
    tracemalloc.start()
    try:
        U = lift_ads_to_z4f(W)
        c = classify_set(U)
        values = np.abs(exp_sum_profile(U))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peaked at {peak / 2**20:.1f} MB"
    assert c == expected_ads_classification(8191)
    assert values[1:].max() < exp_sum_bound(c)
