"""Property tests: the coset census against the scalar reference
(``periodic_correlation`` / ``matrix_correlation``) and the direct sums on
subset L of the primitive polynomials of degree 2..6 under arbitrary shift
sets, and the assembly and the wrap split on random small sets."""

import cmath
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_PRIMITIVE_POLYS, direct_tensor, oracle_tensor, subset_l_base
from qcss import correlation
from qcss.correlation import (
    build_qcss,
    matrix_correlation,
    periodic_correlation,
    phase_transform,
    tolerances,
)
from qcss.diffsets import CyclicSubset

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def shift_sets(draw):
    q = draw(st.integers(1, 12))
    shifts = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=min(q, 5)))
    return CyclicSubset(modulus=q, elements=tuple(shifts))


@st.composite
def set_inputs(draw, symbols=st.integers(0, 3)):
    """Random base sequences and any shift set build_qcss accepts: q may
    exceed N or not divide it, and D need not be a difference set."""
    K = draw(st.integers(2, 4))
    N = draw(st.integers(2, 9))
    base = draw(st.lists(st.lists(symbols, min_size=N, max_size=N), min_size=K, max_size=K))
    return base, draw(shift_sets())


def small_sets():
    return set_inputs().map(lambda inputs: build_qcss(*inputs))


def subset_l_sets(max_degree=6):
    """Subset L of a primitive polynomial of degree 2..max_degree under an
    arbitrary shift set."""
    polys = [h for h in ALL_PRIMITIVE_POLYS if len(h) - 1 <= max_degree]
    return st.builds(build_qcss, st.sampled_from(polys).map(subset_l_base), shift_sets())


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
        report = tolerances(qset)
    assert [start for start, _, _ in blocks] == list(range(0, N, max(1, block_entries // K)))
    w, wr = (np.concatenate([block[i] for block in blocks]) for i in (1, 2))
    for tau in range(N):
        # the K^2 pairs' in-range and wrapped sums are the 2^n codes' values, each
        # K times, as exact Gaussian integers
        pairs = Counter((aperiodic(a, b, tau), aperiodic(a, b, tau - N)) for a in qset.base for b in qset.base)
        codes = Counter(zip(w[tau].tolist(), wr[tau].tolist()))
        assert pairs == {value: K * count for value, count in codes.items()}
    diag = np.arange(K), np.arange(K)
    assert abs(report.delta_a - mags[1:, diag[0], diag[1]].max()) <= 1e-9
    mags[0][diag] = 0.0  # in-phase autocorrelation
    assert np.abs(report.per_shift_max - mags.max(axis=(1, 2))).max() <= 1e-9
    mags[:, diag[0], diag[1]] = 0.0
    assert abs(report.delta_c - mags.max()) <= 1e-9


@SETTINGS
@given(small_sets(), st.data())
def test_wrap_split_identity(qset, data):
    K, N = qset.num_sets, qset.period
    k, l = data.draw(st.integers(0, K - 1)), data.draw(st.integers(0, K - 1))
    tau = data.draw(st.integers(0, N - 1))
    q = qset.q

    def E(x):
        return sum(cmath.exp(2j * cmath.pi * d * x / q) for d in qset.shifts)

    a, b = qset.base[k], qset.base[l]
    split = E(-tau) * aperiodic(a, b, tau) + E(N - tau) * aperiodic(a, b, tau - N)
    rows = [(phase_transform(a, d, q), phase_transform(b, d, q)) for d in qset.shifts]
    assert abs(split - sum(periodic_correlation(x, y, tau) for x, y in rows)) <= 1e-9


@SETTINGS
@given(subset_l_sets(), BLOCK_ENTRIES)
def test_reported_maxima_reproduced_at_argmax(qset, block_entries):
    K, N = qset.num_sets, qset.period
    with mock.patch.object(correlation, "_BLOCK_ENTRIES", block_entries):
        report = tolerances(qset)
    mags = np.abs(direct_tensor(qset)).transpose(1, 2, 0)  # [k, l, tau]

    def oracle_at(index):
        k, l, tau = (int(v) for v in index)
        return abs(matrix_correlation(qset.matrix(k), qset.matrix(l), tau))

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
@given(set_inputs(symbols=st.integers(-9, 9)), st.booleans(), st.data())
def test_matrix_matches_per_row_assembly(inputs, as_array, data):
    base, shift_set = inputs
    qset = build_qcss(np.array(base) if as_array else base, shift_set)
    assert qset.base.dtype == np.int8 and not qset.base.flags.writeable
    np.testing.assert_array_equal(qset.base, np.array(base) % 4)
    assert qset.num_rows == shift_set.size
    k = data.draw(st.integers(0, len(base) - 1))
    # the assembly build_qcss used to run: one phase_transform per (k, d)
    rows = np.stack([phase_transform(base[k], d, qset.q).phases for d in shift_set.elements])
    matrix = qset.matrix(k)
    assert (matrix.root_order, matrix.user_index) == (qset.root_order, k)
    np.testing.assert_array_equal(matrix.phases, rows)
    np.testing.assert_array_equal(qset.phases[k], rows)


@SETTINGS
@given(st.sampled_from(ALL_PRIMITIVE_POLYS), st.lists(shift_sets(), min_size=1, max_size=4), BLOCK_ENTRIES)
def test_one_census_serves_every_shift_set(coeffs, shift_set_list, block_entries):
    base = subset_l_base(coeffs)
    qsets = [build_qcss(base, shift_set) for shift_set in shift_set_list]
    with mock.patch.object(correlation, "_BLOCK_ENTRIES", block_entries):
        together = correlation.tolerances_many(qsets)
        alone = [tolerances(qset) for qset in qsets]
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        for name in ("delta_a", "delta_c", "delta_max", "lower_bound", "rho", "r1_observed",
                     "r2_observed", "factorization_gap_max", "q",
                     "num_sets", "num_rows", "period", "provenance"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.per_shift_max, b.per_shift_max)


def test_one_census_needs_one_base():
    shifts = CyclicSubset(modulus=7, elements=(1, 2, 4))
    base = subset_l_base((1, 1, 1))  # n = 2: four rows of period 3
    first = build_qcss(base, shifts)
    flipped = base.copy()
    flipped[3, 2] ^= 2
    with_another = [
        build_qcss(flipped, shifts),  # one symbol differs
        build_qcss(np.vstack([base, base[:1]]), shifts),  # one more sequence
        build_qcss(np.hstack([base, base[:, :1]]), shifts),  # longer sequences
    ]
    for other in with_another:
        with pytest.raises(ValueError, match="share one base"):
            correlation.tolerances_many([first, other])
    with pytest.raises(ValueError, match="at least one set"):
        correlation.tolerances_many([])
    same = build_qcss(base + 4, CyclicSubset(modulus=5, elements=(0, 1)))
    assert len(correlation.tolerances_many([first, same])) == 2  # symbols are read mod 4
