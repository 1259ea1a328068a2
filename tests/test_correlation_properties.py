"""Property tests: the coset census against the scalar reference
(``periodic_correlation``, over rows and matrices) and the direct sums on
subset L of the primitive polynomials of degree 2..6 under arbitrary shift
sets, the assembly on those families, and the wrap split on random
sequences."""

import cmath
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_PRIMITIVE_POLYS, direct_tensor, family_a, oracle_tensor
from qcss import binpoly, correlation, z4
from qcss.correlation import (
    PhaseSequence,
    build_qcss,
    periodic_correlation,
    phase_transform,
    tolerances,
)
from qcss.diffsets import CyclicSubset, lift_ads_to_z4f, singer_ds

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def shift_sets(draw):
    q = draw(st.integers(1, 12))
    shifts = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=min(q, 5)))
    return CyclicSubset(modulus=q, elements=tuple(shifts))


def subset_l_sets(max_degree=6):
    """Subset L of a primitive polynomial of degree 2..max_degree under an
    arbitrary shift set: q may exceed N or not divide it, and D need not be
    a difference set."""
    polys = [h for h in ALL_PRIMITIVE_POLYS if len(h) - 1 <= max_degree]
    return st.builds(build_qcss, st.sampled_from(polys).map(family_a), shift_sets())


# block sizes from one shift per block up to every shift of degree 3 at
# once, so that blocks straddle at every degree
BLOCK_ENTRIES = st.integers(0, 64)


def aperiodic(a, b, u):
    """C(u) = sum_t i^(a_t - b_(t+u)) over the t where both indices exist."""
    n = len(a)
    return sum(1j ** ((a[t] - b[t + u]) % 4) for t in range(n) if 0 <= t + u < n)


@SETTINGS
@given(subset_l_sets(max_degree=3), BLOCK_ENTRIES)
def test_engine_matches_scalar_oracle(qset, block_entries):
    K, N = qset.num_sets, qset.period
    mags = np.abs(oracle_tensor(qset))  # [tau, k, l]
    with mock.patch.object(correlation, "_BLOCK_ENTRIES", block_entries):
        blocks = list(correlation.correlation_tensor(qset))
        [report] = tolerances(qset)
    half = (N + 1) // 2  # the census streams one shift of each mirror pair
    base = z4.subset_l(qset.family)
    assert [start for start, _, _ in blocks] == list(range(0, half, max(1, block_entries // K)))
    w, wr = (np.concatenate([block[i] for block in blocks]) for i in (1, 2))
    assert len(w) == len(wr) == half
    for tau in range(half):
        # the K^2 pairs' in-range and wrapped sums are the 2^n codes' values, each
        # K times, as exact Gaussian integers
        pairs = Counter((aperiodic(a, b, tau), aperiodic(a, b, tau - N)) for a in base for b in base)
        codes = Counter(zip(w[tau].tolist(), wr[tau].tolist()))
        assert pairs == {value: K * count for value, count in codes.items()}
    diag = np.arange(K), np.arange(K)
    assert abs(report.delta_a - mags[1:, diag[0], diag[1]].max()) <= 1e-9
    mags[0][diag] = 0.0  # in-phase autocorrelation
    assert np.abs(report.per_shift_max - mags.max(axis=(1, 2))).max() <= 1e-9
    mags[:, diag[0], diag[1]] = 0.0
    assert abs(report.delta_c - mags.max()) <= 1e-9


@SETTINGS
@given(st.integers(2, 9).flatmap(lambda N: st.lists(st.lists(st.integers(0, 3), min_size=N, max_size=N),
                                                    min_size=2, max_size=2)),
       shift_sets(), st.data())
def test_wrap_split_identity(pair, shift_set, data):
    # the split holds for any two Z4 sequences a, b and any shift set
    a, b = pair
    N, q = len(a), shift_set.modulus
    tau = data.draw(st.integers(0, N - 1))

    def E(x):
        return sum(cmath.exp(2j * cmath.pi * d * x / q) for d in shift_set.elements)

    split = E(-tau) * aperiodic(a, b, tau) + E(N - tau) * aperiodic(a, b, tau - N)
    rows = [(phase_transform(a, d, q), phase_transform(b, d, q)) for d in shift_set.elements]
    assert abs(split - sum(periodic_correlation(x, y, tau) for x, y in rows)) <= 1e-9


@SETTINGS
@given(subset_l_sets(), BLOCK_ENTRIES)
def test_reported_maxima_reproduced_at_argmax(qset, block_entries):
    K, N = qset.num_sets, qset.period
    with mock.patch.object(correlation, "_BLOCK_ENTRIES", block_entries):
        [report] = tolerances(qset)
    mags = np.abs(direct_tensor(qset)).transpose(1, 2, 0)  # [k, l, tau]

    def oracle_at(index):
        k, l, tau = (int(v) for v in index)
        return abs(periodic_correlation(qset.matrix(k), qset.matrix(l), tau))

    auto = mags[np.arange(K), np.arange(K), 1:]  # [k, tau - 1]
    k, tau = np.unravel_index(np.argmax(auto), auto.shape)
    assert abs(oracle_at((k, k, tau + 1)) - report.delta_a) <= 1e-9
    cross = mags.copy()
    cross[np.arange(K), np.arange(K)] = -1.0
    assert abs(oracle_at(np.unravel_index(np.argmax(cross), cross.shape)) - report.delta_c) <= 1e-9
    assert report.delta_max == max(report.delta_a, report.delta_c)
    mags[np.arange(K), np.arange(K), 0] = -1.0  # in-phase autocorrelation
    for tau in range(N):
        k, l = np.unravel_index(np.argmax(mags[:, :, tau]), (K, K))
        assert abs(oracle_at((k, l, tau)) - report.per_shift_max[tau]) <= 1e-9


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 9), st.integers(1, 30), st.data())
def test_matrix_correlation_is_the_sum_of_row_correlations(M, N, L, data):
    rows = st.lists(st.lists(st.integers(0, L - 1), min_size=N, max_size=N), min_size=M, max_size=M)
    a, b = np.array(data.draw(rows)), np.array(data.draw(rows))
    tau = data.draw(st.integers(0, N - 1))
    value = periodic_correlation(PhaseSequence(L, a), PhaseSequence(L, b), tau)
    per_row = [periodic_correlation(PhaseSequence(L, x), PhaseSequence(L, y), tau) for x, y in zip(a, b)]
    assert abs(value - sum(per_row)) <= 1e-9
    if M == 1:
        assert value == per_row[0]  # one accumulator, the same terms in the same order


@SETTINGS
@given(st.sampled_from(ALL_PRIMITIVE_POLYS), shift_sets(), st.data())
def test_matrix_matches_per_row_assembly(coeffs, shift_set, data):
    family = family_a(coeffs)
    qset = build_qcss(family, shift_set)
    base = z4.subset_l(qset.family)
    assert (qset.num_sets, qset.num_rows, qset.period) == (len(base), shift_set.size, family.period)
    k = data.draw(st.integers(0, len(base) - 1))
    # the assembly build_qcss used to run: one phase_transform per (k, d)
    tensor = np.stack([[phase_transform(v, d, shift_set.modulus).phases for d in shift_set.elements] for v in base])
    matrix = qset.matrix(k)
    assert matrix.root_order == qset.root_order
    np.testing.assert_array_equal(matrix.phases, tensor[k])
    phases = qset.phases
    assert phases.dtype == np.int64 and not phases.flags.writeable
    np.testing.assert_array_equal(phases, tensor)


@SETTINGS
@given(st.sampled_from(ALL_PRIMITIVE_POLYS), st.lists(shift_sets(), min_size=1, max_size=4), BLOCK_ENTRIES)
def test_one_census_serves_every_shift_set(coeffs, shift_set_list, block_entries):
    family = family_a(coeffs)
    qsets = [build_qcss(family, shift_set) for shift_set in shift_set_list]
    with mock.patch.object(correlation, "_BLOCK_ENTRIES", block_entries):
        together = tolerances(*qsets)
        alone = [tolerances(qset)[0] for qset in qsets]
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        for name in ("delta_a", "delta_c", "delta_max", "lower_bound", "rho", "r1_observed",
                     "r2_observed", "factorization_gap_max", "q",
                     "num_sets", "num_rows", "period", "provenance"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.per_shift_max, b.per_shift_max)


def test_one_census_needs_one_base():
    shifts = CyclicSubset(modulus=7, elements=(1, 2, 4))
    family = family_a((1, 1, 0, 1))  # n = 3: eight rows of period 7
    first = build_qcss(family, shifts)
    with_another = [
        family_a((1, 0, 1, 1)),  # the other polynomial of degree 3
        family_a((1, 1, 1)),  # degree 2
        family_a((1, 1, 0, 0, 1)),  # degree 4
    ]
    for other in with_another:
        with pytest.raises(ValueError, match="share one family"):
            tolerances(first, build_qcss(other, shifts))
    with pytest.raises(ValueError, match="at least one set"):
        tolerances()
    # an equal family made apart from the first passes
    same = z4.FamilyA(3, family.h)
    assert same is not family
    other_shifts = CyclicSubset(modulus=5, elements=(0, 1))
    assert len(tolerances(first, build_qcss(same, other_shifts))) == 2


def pairs_with_row_0(qset):
    """For every tau, the products i^(v_k(t) - v_0(t')), t' = (t + tau) mod
    N, of the K pairs (k, 0), row k for the pair of census code k, and the
    lag t - t' (-tau, or N - tau where t' wrapped): columns t < N - tau are
    the in-range terms, the rest the wrapped ones."""
    N, t = qset.period, np.arange(qset.period)
    Z = np.array([1, 1j, -1, -1j])[z4.subset_l(qset.family)]
    for tau in range(N):
        yield tau, Z * np.conj(np.roll(Z[0], -tau)), t - (t + tau) % N


BASE_8 = binpoly.primitive_polynomial(8)


def test_census_planes_match_direct_sums_at_degree_8():
    # n = 8 is the least degree whose Walsh planes are int16; in int8 the in-phase
    # autocorrelation N = 255 would wrap
    qset = build_qcss(family_a(BASE_8), CyclicSubset(modulus=1, elements=(0,)))
    N = qset.period
    w, wr = (np.concatenate([block[i] for block in correlation.correlation_tensor(qset)]) for i in (1, 2))
    assert len(w) == len(wr) == (N + 1) // 2  # one shift of each mirror pair
    for tau, products, _ in pairs_with_row_0(qset):
        if tau >= len(w):
            break
        np.testing.assert_array_equal(w[tau], products[:, : N - tau].sum(axis=1), err_msg=f"tau = {tau}")
        np.testing.assert_array_equal(wr[tau], products[:, N - tau :].sum(axis=1), err_msg=f"tau = {tau}")


@settings(max_examples=6, deadline=None)
@given(shift_sets())
@example(lift_ads_to_z4f(singer_ds(6)))  # the n = 8 set of the construction
def test_census_matches_direct_sums_at_degree_8(shift_set):
    # row d of matrix k is i^(v_k(t)) exp(2 pi i d t / q), so the M rows' terms
    # at t sum to i^(v_k(t) - v_0(t')) E(t - t'), E(x) = sum_d exp(2 pi i d x / q):
    # K N^2 terms over the pairs (k, 0)
    qset = build_qcss(family_a(BASE_8), shift_set)
    N = qset.period
    E = np.exp(2j * np.pi * np.outer(np.arange(-N, N), shift_set.elements) / shift_set.modulus).sum(axis=1)  # E[x + N]
    want = np.empty(N)
    for tau, products, lag in pairs_with_row_0(qset):
        G = np.abs(products @ E[lag + N])
        if tau == 0:
            G[0] = 0.0  # the in-phase autocorrelation
        want[tau] = G.max()
    [report] = tolerances(qset)
    np.testing.assert_allclose(report.per_shift_max, want, rtol=1e-9, atol=1e-9)
    assert report.delta_max == pytest.approx(want.max(), rel=1e-9)


@pytest.mark.parametrize("n", range(3, 11))
def test_full_period_sums_are_alphas_spectrum(n):
    # u = c_tau + 2 beta_a is a rotation of member 1 + b for a code b affine
    # in a, so at tau != 0 the 2^n sums W + Wr are the spectrum S_b =
    # sum_t i^(s_1(t)) (-1)^(b . code[t]) that family_alpha_max maximises;
    # W and Wr read no shift set
    family = z4.build_family_a(n)
    N, codes = family.period, family.codes
    masked = np.arange(1 << n)[:, None] & codes
    parity = np.zeros_like(masked)
    for k in range(n):
        parity ^= (masked >> k) & 1
    signs = 1 - 2 * parity
    spectrum = signs @ np.array([1, 1j, -1, -1j])[family.s1]
    assert max(map(abs, spectrum.tolist())) == z4.family_alpha_max(family)
    qset = build_qcss(family, CyclicSubset(modulus=1, elements=(0,)))
    for start, w, wr in correlation.correlation_tensor(qset):
        for b, sums in enumerate(w + wr):
            if start + b == 0:
                np.testing.assert_array_equal(sums, [N] + [-1] * (len(sums) - 1))
            else:
                np.testing.assert_array_equal(np.sort(sums), np.sort(spectrum), err_msg=f"tau = {start + b}")
