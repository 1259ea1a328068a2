"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import qcss
from conftest import difference_function
from qcss import analysis, cli, correlation, diffsets, z4


def report_line(cid, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid} {status}: {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_c01_difference_set_oracles():
    t0 = time.perf_counter()
    results = []
    for k in (3, 4, 5):
        W = diffsets.singer_ds(k)
        f = (1 << k) - 1
        c = diffsets.classify_set(W)
        results.append(c.as_tuple() == ("DifferenceSet", f, (f - 1) // 2, (f - 3) // 4, f - 1))
    for f in (7, 11, 19):
        c = diffsets.classify_set(diffsets.legendre_ds(f))
        results.append(c.as_tuple() == ("DifferenceSet", f, (f - 1) // 2, (f - 3) // 4, f - 1))
    elapsed = time.perf_counter() - t0
    report_line(
        "C1",
        all(results) and elapsed < 1.0,
        f"6/6 base sets classify as (f,(f-1)/2,(f-3)/4) in {elapsed:.3f}s (< 1s)",
    )


def test_c02_ads_reproduction():
    t0 = time.perf_counter()
    expected = {
        7: (28, 13, 5, 6),
        11: (44, 21, 9, 10),
        15: (60, 29, 13, 14),
    }
    bases = {7: diffsets.singer_ds(3), 11: diffsets.legendre_ds(11), 15: diffsets.singer_ds(4)}
    ok = True
    measured = {}
    for f, base in bases.items():
        U = diffsets.lift_ads_to_z4f(base)  # canonical pattern
        c = diffsets.classify_set(U)  # brute-force census
        measured[f] = (c.p, c.m, c.lam, c.t)
        ok &= c.kind == "AlmostDifferenceSet" and measured[f] == expected[f]
    elapsed = time.perf_counter() - t0
    report_line(
        "C2", ok and elapsed < 1.0, f"lifted ADS classify as {measured} in {elapsed:.3f}s (< 1s)"
    )


def test_c03_family_counting():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (3, 4, 5, 6):
        family = z4.build_family_a(n)
        period = (1 << n) - 1
        sizes = {len({m[i:] + m[:i] for i in range(period)}) for m in family.members}
        ok &= family.size == (1 << n) + 1 and sizes == {period}
        detail.append(f"n={n}:{family.size}x{period}")
    elapsed = time.perf_counter() - t0
    report_line(
        "C3",
        ok and elapsed < 30.0,
        f"classes {'; '.join(detail)} in {elapsed:.2f}s (< 30s)",
    )


def test_c04_family_alpha_max():
    ok = True
    details = []
    for n, expected_sq in ((4, 25), (6, 81)):
        measured = z4.family_alpha_max(z4.build_family_a(n))
        ok &= abs(measured - math.sqrt(expected_sq)) <= 1e-6
        details.append(f"n={n}: {measured:.6f}")
    for n in (3, 5):
        measured = z4.family_alpha_max(z4.build_family_a(n))
        bound = 1 + 2 ** (n / 2)
        ok &= measured <= bound + 1e-6
        details.append(f"n={n}: {measured:.6f} <= {bound:.6f} (recorded)")
    report_line("C4", ok, "; ".join(details))


def test_c05_subset_l_zero_shift():
    ok = True
    for n in (3, 4, 5, 6):
        family = z4.build_family_a(n)
        L = qcss.subset_l(family, verify=False)
        A = np.array(L, dtype=np.int64)
        for i, j in itertools.combinations(range(len(L)), 2):
            value = z4.z4_correlation(A[i], A[j], 0)
            # Gaussian-integer arithmetic; 1e-9 bounds any representation slack
            ok &= abs(value - (-1 + 0j)) <= 1e-9
        if not ok:
            break
    report_line("C5", ok, "all pairs in L correlate to -1+0i at shift 0 for n=3..6")


def test_c06_exp_sum_bound_and_identity():
    ok = True
    details = []
    for f, base in ((7, diffsets.singer_ds(3)), (11, diffsets.legendre_ds(11)), (15, diffsets.singer_ds(4))):
        U = diffsets.lift_ads_to_z4f(base)
        peak = float(np.abs(diffsets.exp_sum_profile(U))[1:].max())
        bound = math.sqrt(4 * f + 1)
        ok &= peak < bound and diffsets.exp_sum_bound(diffsets.classify_set(U)) == bound
        details.append(f"f={f}: {peak:.4f} < sqrt({4 * f + 1})")
        ok &= _identity_holds(U)
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 100:
        q = int(rng.integers(5, 48))
        size = int(rng.integers(1, q))
        D = diffsets.CyclicSubset(q, tuple(int(v) for v in rng.choice(q, size=size, replace=False)))
        if diffsets.classify_set(D).kind == "AlmostDifferenceSet":
            continue  # the criterion targets non-ADS subsets
        ok &= _identity_holds(D)
        checked += 1
    report_line("C6", ok, "; ".join(details) + f"; identity held on {checked} random non-ADS subsets")


def _identity_holds(D):
    q = D.modulus
    values = np.abs(diffsets.exp_sum_profile(D))
    counts = [difference_function(D, x) for x in range(q)]
    for tau in range(q):
        rhs = D.size + sum(
            counts[x] * math.cos(2 * math.pi * tau * x / q) for x in range(1, q)
        )
        if abs(values[tau] ** 2 - rhs) > 1e-9:
            return False
    return True


def test_c07_factorization_regimes():
    family4 = z4.build_family_a(4)
    synthetic = correlation.build_qcss(family4, diffsets.singer_ds(4))
    [synthetic_report] = correlation.tolerances(synthetic)
    exact_ok = synthetic_report.factorization_gap_max <= 1e-9

    family5 = z4.build_family_a(5)
    built = correlation.build_qcss(family5, diffsets.lift_ads_to_z4f(diffsets.singer_ds(3)))
    [report] = correlation.tolerances(built)
    measured_gap = report.factorization_gap_max
    report_line(
        "C7",
        exact_ok and np.isfinite(measured_gap),
        f"synthetic q=N gap {synthetic_report.factorization_gap_max:.2e} <= 1e-9; "
        f"n=5 wrap-defect gap measured {measured_gap:.6f} (nonzero allowed)",
    )


def test_c08_lower_bound_validity():
    oracle = math.sqrt(169 * 961 * (19 / 13) / 991)  # independent arithmetic route
    bound = correlation.welch_lower_bound(32, 13, 31)
    ok = abs(bound - 15.477) <= 0.001 and abs(bound - oracle) <= 1e-9
    details = [f"welch(32,13,31)={bound:.6f} (oracle {oracle:.6f})"]
    for n in (5, 6):
        family = z4.build_family_a(n)
        ads = diffsets.lift_ads_to_z4f(diffsets.singer_ds(n - 2))
        [report] = correlation.tolerances(correlation.build_qcss(family, ads))
        ok &= report.delta_max >= report.lower_bound - 1e-6
        details.append(f"n={n}: delta_max {report.delta_max:.4f} >= bound {report.lower_bound:.4f}")
    report_line("C8", ok, "; ".join(details))


def test_c09_construction_comparison_informational():
    details = []
    ok = True
    for n, limit in ((5, 10.0), (6, 120.0)):
        t0 = time.perf_counter()
        family = z4.build_family_a(n)
        ads = diffsets.lift_ads_to_z4f(diffsets.singer_ds(n - 2))
        [report] = correlation.tolerances(correlation.build_qcss(family, ads))
        elapsed = time.perf_counter() - t0
        claimed = (1 + 2 ** (n / 2)) * math.sqrt((1 << n) - 3)
        # informational: measured values are reported next to the claimed ones,
        # never asserted equal (the separable form does not hold under wrapping)
        details.append(
            f"n={n}: measured delta_max {report.delta_max:.4f} vs claimed {claimed:.4f}, "
            f"measured rho {report.rho:.4f} vs claimed range (1,2), sweep {elapsed:.2f}s"
        )
        ok &= (report.num_sets, report.num_rows, report.period) == (
            1 << n,
            (1 << (n - 1)) - 3,
            (1 << n) - 1,
        )
        ok &= np.isfinite(report.delta_max) and report.rho is not None and elapsed < limit
    report_line("C9", ok, "; ".join(details))


def test_c10_table_reproduction(tmp_path):
    t0 = time.perf_counter()
    printed = {
        1: {1: 1.000, 2: 1.155, 3: 1.512, 4: 2.066, 5: 2.874},
        2: {2: 2.000, 3: 1.633, 4: 1.512, 5: 1.461, 6: 1.437, 7: 1.425, 10: 1.416, 20: 1.414, 40: 1.414},
        3: {2: 1.414, 3: 1.155, 4: 1.069, 5: 1.033, 6: 1.016, 7: 1.008, 10: 1.001, 20: 1.000, 40: 1.000},
    }
    ok = True
    checked = 0
    for table_id, column in printed.items():
        out = tmp_path / f"table{table_id}.csv"
        assert cli.main(["tables", "--table", str(table_id), "--x-max", "40", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        x_min = 1 if table_id == 1 else 2
        for x, expected in column.items():
            got = float(rows[x - x_min].split(",")[-1])
            ok &= abs(got - expected) <= 5e-4  # all three printed decimals
            checked += 1
    elapsed = time.perf_counter() - t0
    report_line("C10", ok and elapsed < 1.0, f"{checked} printed values matched in {elapsed:.3f}s (< 1s)")


def test_c11_determinism(tmp_path):
    commands = [
        ["family", "--n", "4"],
        ["ads", "--f", "7"],
        ["qcss", "--n", "5"],
        ["tables", "--table", "2", "--x-max", "10"],
        ["sweep", "--n-range", "4:6", "--x-range", "2:3"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        out1 = tmp_path / f"{idx}-a.out"
        out2 = tmp_path / f"{idx}-b.out"
        ok &= cli.main(argv + ["--out", str(out1)]) == 0
        ok &= cli.main(argv + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
    report_line("C11", ok, "two consecutive runs of every command are byte-identical")


def test_c12_census_free_floor_refutes_the_claim_for_x_at_least_3():
    # at tau = q, E(-q) = E(0) = M for any shift set of size M, and the
    # in-range and wrapped sums are orthogonal over the 2^n codes (Parseval
    # for the Walsh-Hadamard transform), so the mean of |G|^2 over the codes
    # is at least M^2 (N - q): some pair reaches M sqrt(N - q), whatever h,
    # base set or lift pattern was chosen.  tests/test_correlation.py checks
    # the floor against the census.
    cells = [(n, 3) for n in range(6, 61)] + [(n, x) for x in range(4, 8) for n in range(x + 2, 61)]
    short = []
    for n, x in cells:
        p = analysis.construction_params(n, x)
        floor = p.M * math.sqrt(p.N - p.q)
        if not floor > p.claimed_delta_max:
            short.append((n, x, floor, p.claimed_delta_max))
    report_line("C12", not short, f"M sqrt(N - q) > claimed delta_max at {len(cells) - len(short)} of "
                                  f"{len(cells)} cells, x = 3 at n = 6..60 and x = 4..7 at n = x + 2..60; not at {short}")
