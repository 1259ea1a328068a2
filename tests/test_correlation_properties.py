"""Property tests: the streamed census against the scalar reference
(``periodic_correlation`` / ``matrix_correlation``) on random small sets."""

import cmath
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import correlation, z4
from qcss.correlation import (
    build_qcss,
    correlation_tensor,
    matrix_correlation,
    periodic_correlation,
    phase_transform,
    tolerances,
)
from qcss.diffsets import CyclicSubset

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def set_inputs(draw, symbols=st.integers(0, 3)):
    """Random base sequences and any shift set build_qcss accepts: q may
    exceed N or not divide it, and D need not be a difference set."""
    K = draw(st.integers(2, 4))
    N = draw(st.integers(2, 9))
    q = draw(st.integers(1, 12))
    shifts = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=min(q, 5)))
    base = draw(st.lists(st.lists(symbols, min_size=N, max_size=N), min_size=K, max_size=K))
    return base, CyclicSubset(modulus=q, elements=tuple(shifts))


def small_sets():
    return set_inputs().map(lambda inputs: build_qcss(*inputs))


def oracle_tensor(qset):
    K, N = qset.num_sets, qset.period
    return np.array([[[matrix_correlation(qset.matrix(k), qset.matrix(l), tau)
                       for l in range(K)] for k in range(K)] for tau in range(N)])


def aperiodic(a, b, u):
    """C(u) = sum_t i^(a_t - b_(t+u)) over the t where both indices exist."""
    n = len(a)
    return sum(1j ** ((a[t] - b[t + u]) % 4) for t in range(n) if 0 <= t + u < n)


@SETTINGS
@given(small_sets(), st.integers(0, 4096))
def test_engine_matches_scalar_oracle(qset, block_bytes):
    # budgets up to 4096 bytes give every block size from one row to all K
    K, N = qset.num_sets, qset.period
    oracle = oracle_tensor(qset)
    with mock.patch.object(correlation, "BLOCK_BYTES", block_bytes):
        blocks = list(correlation_tensor(qset))
    values = np.concatenate([v for _, v, _, _ in blocks]).transpose(2, 0, 1)
    assert values.shape == (N, K, K)
    assert np.abs(values - oracle).max() <= 1e-9
    base = np.concatenate([b for _, _, b, _ in blocks])
    for k in range(K):
        for l in range(K):
            for tau in range(N):
                assert base[k, l, tau] == z4.z4_correlation(qset.base[k], qset.base[l], tau)


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
@given(small_sets(), st.integers(0, 4096))
def test_reported_maxima_reproduced_at_argmax(qset, block_bytes):
    K, N = qset.num_sets, qset.period
    with mock.patch.object(correlation, "BLOCK_BYTES", block_bytes):
        report = tolerances(qset)
    mags = np.abs(np.concatenate([v for _, v, _, _ in correlation_tensor(qset)]))  # [k, l, tau]

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
    assert 0.0 <= report.rounding_residual < 1e-9


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
