import math

import numpy as np
import pytest

import qcss
from conftest import ALL_PRIMITIVE_POLYS, direct_report_fields, direct_tensor, subset_l_base
from qcss import correlation, diffsets, z4
from qcss.correlation import (
    PhaseSequence,
    build_qcss,
    classify_tightness,
    matrix_correlation,
    periodic_correlation,
    phase_transform,
    roots_table,
    tightness,
    tolerances,
    welch_lower_bound,
)
from qcss.errors import ConstructionError

WELCH_32_13_31 = 15.476521067056753  # sqrt(169 * 961 * (19/13) / 991)


@pytest.fixture(scope="module")
def qcss5(family5):
    return build_qcss(qcss.subset_l(family5), diffsets.lift_ads_to_z4f(diffsets.singer_ds(3)))


@pytest.fixture(scope="module")
def report5(qcss5):
    return tolerances(qcss5)


def random_phase_sequence(rng, root_order, length):
    return PhaseSequence(
        root_order=root_order, phases=rng.integers(0, root_order, size=length)
    )


# ------------------------------------------------------- primitives


def test_roots_table_quadrants_exact():
    table = roots_table(28)
    assert table[0] == 1 and table[7] == 1j and table[14] == -1 and table[21] == -1j


def test_phase_transform_zero_ramp_embeds_symbols():
    symbols = (0, 1, 2, 3, 2)
    seq = phase_transform(symbols, 0, 28)
    assert seq.root_order == 28
    values = seq.complex_values()
    assert np.array_equal(values, np.array([1, 1j, -1, -1j, -1]))


def test_phase_transform_ramp_phases():
    # L = lcm(4, 6) = 12; phases[t] = 3 a_t + 2 t d
    seq = phase_transform((1, 0, 2), d=2, q=6)
    assert seq.root_order == 12
    assert seq.phases.tolist() == [3, 4, (3 * 2 + 4 * 2) % 12]


def test_periodic_correlation_in_phase_energy():
    rng = np.random.default_rng(11)
    a = random_phase_sequence(rng, 12, 17)
    assert periodic_correlation(a, a, 0) == pytest.approx(17, abs=1e-9)


def test_periodic_correlation_embedded_binary_member(family4):
    seq = phase_transform(family4.l0, 0, 1)
    for tau in range(1, family4.period):
        assert periodic_correlation(seq, seq, tau) == pytest.approx(-1 + 0j, abs=1e-9)


def test_periodic_correlation_family_maximum(family4):
    # the transform with zero ramp reproduces the raw family correlations
    seqs = [phase_transform(m, 0, 1) for m in family4.members]
    best = 0.0
    for i, a in enumerate(seqs):
        for j in range(i, len(seqs)):
            for tau in range(family4.period):
                if i == j and tau == 0:
                    continue
                best = max(best, abs(periodic_correlation(a, seqs[j], tau)))
    assert best == pytest.approx(5.0, abs=1e-6)


def test_periodic_correlation_guards():
    a = PhaseSequence(root_order=12, phases=[0, 1, 2])
    with pytest.raises(ValueError):
        periodic_correlation(a, PhaseSequence(root_order=8, phases=[0, 1, 2]), 0)
    with pytest.raises(ValueError):
        periodic_correlation(a, PhaseSequence(root_order=12, phases=[0, 1]), 0)
    with pytest.raises(ValueError):
        periodic_correlation(a, a, 3)


def test_conjugate_symmetry_random_sequences():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        L = int(rng.integers(2, 30)) * 2
        a = random_phase_sequence(rng, L, n)
        b = random_phase_sequence(rng, L, n)
        for tau in range(n):
            lhs = periodic_correlation(a, b, tau)
            rhs = periodic_correlation(b, a, (n - tau) % n)
            assert lhs == pytest.approx(rhs.conjugate(), abs=1e-9)


# ------------------------------------------------------- exactness regime


def test_phase_factor_identity_when_q_divides_period_ramp(family4):
    # q = N = 15 makes the ramp commute with wrapping for every d
    a, b = family4.members[1], family4.members[2]
    for d in (0, 1, 3, 7):
        ta, tb = phase_transform(a, d, 15), phase_transform(b, d, 15)
        ra, rb = phase_transform(a, 0, 15), phase_transform(b, 0, 15)
        for tau in range(15):
            lhs = periodic_correlation(ta, tb, tau)
            rhs = np.exp(-2j * np.pi * tau * d / 15) * periodic_correlation(ra, rb, tau)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_magnitude_equality_sample_case(family4):
    a, b = family4.members[1], family4.members[2]
    lhs = abs(periodic_correlation(phase_transform(a, 3, 15), phase_transform(b, 3, 15), 5))
    rhs = abs(periodic_correlation(phase_transform(a, 0, 15), phase_transform(b, 0, 15), 5))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_synthetic_factorization_gap_is_zero(family4):
    # base period equals the shift modulus, so the separable form is exact
    base = qcss.subset_l(family4)
    shifts = diffsets.singer_ds(4)  # subset of Z_15, q = N = 15
    qset = build_qcss(base, shifts)
    report = tolerances(qset)
    assert report.factorization_gap_max <= 1e-9
    assert report.r2_observed == 0.0  # no nontrivial multiple of q below N


# ------------------------------------------------------- assembled sets


def test_build_shapes_n5(qcss5):
    assert (qcss5.num_sets, qcss5.num_rows, qcss5.period) == (32, 13, 31)
    assert qcss5.q == 28 and qcss5.root_order == 28
    entries = roots_table(qcss5.root_order)[qcss5.phases]
    assert np.allclose(np.abs(entries), 1.0, atol=1e-12)


def test_build_guards(family4):
    shifts = diffsets.singer_ds(3)
    for empty in ([], np.empty((0, 15), dtype=np.int8)):
        with pytest.raises(ValueError, match="at least one base sequence"):
            build_qcss(empty, shifts)
    ragged = [(0, 1), (0, 1, 2)]
    rows = [np.array(r, dtype=np.int8) for r in ragged]
    for base in (ragged, rows, np.array(rows, dtype=object)):
        with pytest.raises(ValueError, match="share one length"):
            build_qcss(base, shifts)
    with pytest.raises(ValueError, match="must be integers"):
        build_qcss(np.zeros((2, 3)), shifts)


def test_matrix_correlation_in_phase(qcss5):
    c0 = qcss5.matrix(0)
    assert matrix_correlation(c0, c0, 0) == pytest.approx(13 * 31, abs=1e-9)


def test_matrix_correlation_cross_at_zero_shift(qcss5):
    # each row pair contributes exactly -1, so the sum has magnitude M
    value = matrix_correlation(qcss5.matrix(0), qcss5.matrix(1), 0)
    assert abs(value) == pytest.approx(13.0, abs=1e-9)


def test_tensor_matches_scalar_path(qcss5):
    # the direct-sum tensor the census is tested against, against the scalar loop
    tensor = direct_tensor(qcss5)
    rng = np.random.default_rng(5)
    for _ in range(12):
        k1, k2 = rng.integers(0, 32, size=2)
        tau = int(rng.integers(0, 31))
        scalar = matrix_correlation(qcss5.matrix(int(k1)), qcss5.matrix(int(k2)), tau)
        assert tensor[tau, k1, k2] == pytest.approx(scalar, abs=1e-9)


def test_report_matches_direct_sums_n5(qcss5, report5):
    delta_a, delta_c, per_shift, gap = direct_report_fields(qcss5)
    assert report5.delta_a == pytest.approx(delta_a, abs=1e-9)
    assert report5.delta_c == pytest.approx(delta_c, abs=1e-9)
    assert np.abs(per_shift - report5.per_shift_max).max() <= 1e-9
    assert report5.factorization_gap_max == pytest.approx(gap, abs=1e-9)


# 0 puts one shift in each block; 1500 entries hold 23 shifts at n = 6 (K = 64),
# so its 63 shifts take blocks of 23, 23 and 17; 2^20 holds every shift at once
@pytest.mark.parametrize("block_entries", [0, 1500, 1 << 20])
def test_report_matches_direct_sums_on_random_sets(block_entries, monkeypatch):
    # subset L of every primitive polynomial of degree 2..6, under random
    # shift sets with no symmetry (q need not divide N or exceed it)
    monkeypatch.setattr(correlation, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(8)
    for coeffs in ALL_PRIMITIVE_POLYS:
        q = int(rng.integers(1, 13))
        shifts = diffsets.CyclicSubset(q, tuple(sorted(set(rng.integers(0, q, size=3).tolist()))))
        qset = build_qcss(subset_l_base(coeffs), shifts)
        report = tolerances(qset)
        delta_a, delta_c, per_shift, gap = direct_report_fields(qset)
        assert report.delta_a == pytest.approx(delta_a, abs=1e-9)
        assert report.delta_c == pytest.approx(delta_c, abs=1e-9)
        assert np.abs(report.per_shift_max - per_shift).max() <= 1e-9
        assert report.factorization_gap_max == pytest.approx(gap, abs=1e-9)


def test_report_matches_direct_sums_n7(monkeypatch):
    # degree 7 is the last in int8 planes: the in-phase code's in-range sum at
    # tau = 0 is N = 127, the int8 maximum; blocks of 40 shifts do not divide 127
    monkeypatch.setattr(correlation, "_BLOCK_ENTRIES", 128 * 40)
    rng = np.random.default_rng(15)
    q = int(rng.integers(5, 13))
    shifts = diffsets.CyclicSubset(q, tuple(sorted(set(rng.integers(0, q, size=3).tolist()))))
    qset = build_qcss(qcss.subset_l(qcss.build_family_a(7)), shifts)
    blocks = list(correlation.correlation_tensor(qset))
    assert [start for start, _, _ in blocks] == [0, 40, 80, 120]
    assert blocks[0][1][0, 0] == 127
    report = tolerances(qset)
    delta_a, delta_c, per_shift, gap = direct_report_fields(qset)
    assert report.delta_a == pytest.approx(delta_a, abs=1e-9)
    assert report.delta_c == pytest.approx(delta_c, abs=1e-9)
    assert np.abs(report.per_shift_max - per_shift).max() <= 1e-9
    assert report.factorization_gap_max == pytest.approx(gap, abs=1e-9)


def test_plane_dtype_holds_every_census_value():
    # every Walsh plane entry is a sum of at most N terms +-1
    for n in range(2, 17):
        N = (1 << n) - 1
        dtype = correlation._plane_dtype(N)
        assert dtype == (np.int8 if N <= 127 else np.int16 if n <= 15 else np.int32), n
        assert np.iinfo(dtype).min <= -N and N <= np.iinfo(dtype).max


@pytest.mark.parametrize("n", [7, 15])
def test_walsh_hadamard_is_exact_at_the_dtype_edge(n):
    # code 0 empty, the lower half +1 and the upper half -1: the last pass
    # doubles y = -2^(n-1), out of range, and the outputs reach +-N
    K, N = 1 << n, (1 << n) - 1
    rng = np.random.default_rng(n)
    edge = np.r_[0, np.ones(K // 2 - 1), -np.ones(K // 2)]
    cols = np.stack([edge, -edge, np.r_[0, rng.choice([-1, 0, 1], size=N)]], axis=1)
    planes = cols.astype(correlation._plane_dtype(N))
    correlation._walsh_hadamard(planes)
    want = cols.astype(np.int64)
    for j in range(n):  # reference butterflies out of place, in int64
        x, y = np.moveaxis(want.reshape(-1, 2, 3 << j), 1, 0)
        x[:], y[:] = x + y, x - y
    np.testing.assert_array_equal(planes, want)
    assert want[K // 2, 0] == N and want[K // 2, 1] == -N


def test_per_shift_maxima_are_mirror_symmetric(qcss5, report5):
    # R(C_k, C_l; tau) = conj R(C_l, C_k; N - tau), so the maxima at tau and
    # N - tau agree, though the census sums them from other Walsh planes
    tensor = direct_tensor(qcss5)
    n = qcss5.period
    for tau in (1, 5, 28):
        assert np.allclose(tensor[tau], np.conj(tensor[(n - tau) % n]).T, atol=1e-9)
    per_shift = report5.per_shift_max
    assert np.allclose(per_shift[1:], per_shift[:0:-1], rtol=0, atol=1e-9)


def test_census_reads_its_ramp_sums_from_one_table(qcss5, report5, monkeypatch):
    # the ramp factors E(x) and their magnitudes |E(x)| come from one sum over
    # the root table; the shift set's classification, which bounds |E| for an
    # ADS, is never made
    def refuse(subset):
        raise AssertionError("the census classified its shift set")

    monkeypatch.setattr(diffsets, "classify_set", refuse)
    again = tolerances(qcss5)
    np.testing.assert_array_equal(again.per_shift_max, report5.per_shift_max)
    assert again.factorization_gap_max == report5.factorization_gap_max


def test_per_shift_maxima_excludes_inphase_energy(report5):
    assert report5.per_shift_max[0] == pytest.approx(13.0, abs=1e-9)  # cross only at tau = 0
    assert report5.per_shift_max[0] < 13 * 31


# ------------------------------------------------------- tolerance report


def test_report_values_n5(report5):
    assert report5.delta_max == pytest.approx(49.128734, abs=1e-6)
    assert report5.delta_max == max(report5.delta_a, report5.delta_c)
    assert report5.lower_bound == pytest.approx(WELCH_32_13_31, abs=1e-9)
    assert report5.rho == pytest.approx(report5.delta_max / WELCH_32_13_31, abs=1e-9)
    assert report5.factorization_gap_max == pytest.approx(76.469953, abs=1e-6)


def test_report_shift_class_partition(report5):
    n, q = report5.period, report5.q
    r1 = [tau for tau in range(1, n) if report5.shift_class(tau) == "R1"]
    r2 = [tau for tau in range(1, n) if report5.shift_class(tau) == "R2"]
    assert sorted(r1 + r2) == list(range(1, n))
    assert r2 == [q]
    assert report5.delta_max == pytest.approx(
        max(report5.r1_observed, report5.r2_observed, float(report5.per_shift_max[0])),
        abs=1e-9,
    )


def test_report_bound_validity(report5):
    assert report5.delta_max >= report5.lower_bound - 1e-6


def test_report_recomputed_maxima_scalar_loop(qcss5, report5):
    # exact-phase integrity: the reported maximum is reproduced by the
    # definitional scalar sum at its argmax location
    mags = np.abs(direct_tensor(qcss5))
    for tau in range(qcss5.period):
        if tau == 0:
            m = mags[0].copy()
            np.fill_diagonal(m, 0.0)
        else:
            m = mags[tau]
        k1, k2 = np.unravel_index(np.argmax(m), m.shape)
        if m[k1, k2] == pytest.approx(report5.delta_max, abs=1e-9):
            scalar = matrix_correlation(qcss5.matrix(int(k1)), qcss5.matrix(int(k2)), tau)
            assert abs(scalar) == pytest.approx(report5.delta_max, abs=1e-9)
            return
    pytest.fail("argmax of the sweep never matched the reported maximum")


def test_tolerances_needs_two_matrices(family4):
    base = [family4.members[1]]
    qset = build_qcss(base, diffsets.singer_ds(4))
    with pytest.raises(ValueError):
        tolerances(qset)


def test_single_row_toy_excludes_inphase_autocorrelation(family4):
    # M = 1 toy: delta_a ranges over nonzero shifts only
    base = qcss.subset_l(family4)
    qset = build_qcss(base, diffsets.CyclicSubset(15, (0,)))
    report = tolerances(qset)
    expected_auto = max(
        abs(z4.z4_correlation(row, row, tau)) for row in base for tau in range(1, 15)
    )
    assert report.delta_a == pytest.approx(expected_auto, abs=1e-9)
    assert report.delta_a < 15


# ------------------------------------------------------- bound and tightness


def test_welch_bound_frozen_value():
    assert welch_lower_bound(32, 13, 31) == pytest.approx(WELCH_32_13_31, abs=1e-9)
    # independent arithmetic route
    assert welch_lower_bound(32, 13, 31) == pytest.approx(
        math.sqrt(169 * 961 * 19 / 13 / 991), abs=1e-9
    )


def test_welch_bound_single_row_reduction():
    K, N = 17, 15
    assert welch_lower_bound(K, 1, N) == pytest.approx(
        N * math.sqrt((K - 1) / (K * N - 1)), abs=1e-12
    )


def test_welch_bound_vacuous_and_guards():
    assert welch_lower_bound(13, 13, 31) == 0.0
    assert welch_lower_bound(4, 13, 31) == 0.0
    with pytest.raises(ValueError):
        welch_lower_bound(13, 0, 31)
    with pytest.raises(ValueError):
        welch_lower_bound(13, 1, 1)


def test_tightness_values():
    bound = welch_lower_bound(32, 13, 31)
    assert tightness(bound, 32, 13, 31) == pytest.approx(1.0, abs=1e-12)
    assert classify_tightness(tightness(bound, 32, 13, 31)) == "optimal"
    assert classify_tightness(1.5) == "near-optimal"
    assert classify_tightness(2.316) == "loose"
    with pytest.raises(ValueError):
        tightness(10.0, 13, 13, 31)


# ------------------------------------------------------- export forms


def test_report_json_field_names(report5):
    doc = correlation.report_to_json(report5)
    assert set(doc) == {
        "deltaA",
        "deltaC",
        "deltaMax",
        "lowerBound",
        "rho",
        "perShiftMax",
        "r1Observed",
        "r2Observed",
        "factorizationGapMax",
        "provenance",
    }
    assert len(doc["perShiftMax"]) == 31
    assert doc["provenance"]["K"] == 32


def test_report_csv_layout(report5):
    text = correlation.report_per_shift_csv(report5)
    lines = text.strip().split("\n")
    assert lines[0] == "tau,class,maxMagnitude"
    assert len(lines) == 32
    assert lines[1].startswith("0,zero,")
    assert lines[2].startswith("1,R1,")
    assert lines[29].startswith("28,R2,")


# ------------------------------------------------------- subset-L certificate


@pytest.mark.parametrize("shape", [(1, 15), (3, 3), (2, 1), (8, 3), (16, 16), (16, 14)])
def test_census_refuses_a_base_of_another_shape(shape):
    qset = build_qcss(np.zeros(shape, dtype=np.int8), diffsets.CyclicSubset(3, (0, 1)))
    with pytest.raises(ValueError, match="2\\^n rows of period 2\\^n - 1"):
        tolerances(qset)


def census_failure(base) -> ConstructionError:
    with pytest.raises(ConstructionError) as info:
        tolerances(build_qcss(base, diffsets.CyclicSubset(3, (0, 1))))
    return info.value


@pytest.mark.parametrize("row0, witness", [
    (np.ones(15, dtype=np.int8), (15, (0, 1))),  # every window is 1111
    (np.zeros(15, dtype=np.int8), (0, tuple(range(15)))),  # the zero window
])
def test_certificate_needs_row0_mod_2_to_be_an_m_sequence(family4, row0, witness):
    base = qcss.subset_l(family4).copy()
    base[0] = row0
    error = census_failure(base)
    assert "not an m-sequence" in str(error)
    assert error.witness[0] == witness[0] and error.witness[1] == witness[1][:2]


def test_certificate_needs_one_parity(family4):
    base = qcss.subset_l(family4).copy()
    base[5, 9] ^= 1
    error = census_failure(base)
    assert error.witness == (5, 9)
    assert "odd symbol" in str(error)


def test_certificate_needs_each_row_in_the_coset(family4):
    # one symbol moved by 2: beta_7 gains one bit, and no sum of windows has weight 1 more
    base = qcss.subset_l(family4).copy()
    base[7, 4] ^= 2
    error = census_failure(base)
    assert error.witness[0] == 7
    assert "(row 7 - row 0) / 2 is not a sum of the windows" in str(error)


def test_certificate_needs_a_linear_m_sequence():
    # window-complete but nonlinear: every nonzero 4-bit state once, yet
    # m(. + 4) is no sum of m(. + j), j < 4; each row is m + 2 (a sum of its windows)
    m = np.array([int(c) for c in "000100111101011"], dtype=np.int8)
    windows = np.stack([np.roll(m, -j) for j in range(4)])
    coeffs = (np.arange(16)[:, None] >> np.arange(4)) & 1
    base = m + 2 * ((coeffs @ windows) % 2)
    error = census_failure(base)
    assert error.witness[0] == 16  # the row after the K rows: m(. + n)
    assert "m(. + n) is not a sum of the windows" in str(error)


def test_certificate_needs_distinct_rows(family4):
    base = qcss.subset_l(family4).copy()
    base[11] = base[3]
    error = census_failure(base)
    assert error.witness == (3, 11)
    assert "one element of the coset" in str(error)


# ------------------------------------------------------- reduction shortcuts


@pytest.mark.parametrize("coeffs", ALL_PRIMITIVE_POLYS)
def test_pairs_cover_the_coset(coeffs):
    # the census reduces over beta alone: at tau != 0 the pairs (k, k) and
    # the pairs k != l each give every beta_k - beta_l(. + tau), and at
    # tau = 0 the pairs k != l give every nonzero one
    base = subset_l_base(coeffs)
    K, N = base.shape
    beta = ((base - base[0]) % 4) // 2
    space = {row.tobytes() for row in beta}
    assert len(space) == K
    off = ~np.eye(K, dtype=bool)
    for tau in range(N):
        gamma = beta[:, None, :] ^ np.roll(beta, -tau, axis=1)[None, :, :]  # [k, l, t]
        cross = {row.tobytes() for row in gamma[off]}
        if tau:
            assert {row.tobytes() for row in gamma[np.arange(K), np.arange(K)]} == space
            assert cross == space
        else:
            assert cross == space - {bytes(N)}


def test_delta_a_equals_delta_c_and_zero_shift_is_m():
    # observed for every construction cell with n = 4..8 and x = 2..4
    for n in range(4, 9):
        base = qcss.subset_l(qcss.build_family_a(n))
        xs = [x for x in (2, 3, 4) if n - x >= 2]
        qsets = [build_qcss(base, diffsets.lift_ads_to_z4f(diffsets.singer_ds(n - x))) for x in xs]
        for x, report in zip(xs, correlation.tolerances_many(qsets)):
            assert report.per_shift_max[0] == report.num_rows, (n, x)
            assert report.delta_a == report.delta_c, (n, x)
