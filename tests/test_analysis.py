import math

import pytest

from qcss import analysis
from qcss.analysis import (
    REFERENCE_RHO,
    asymptotic_rho,
    bound_rho,
    construction_params,
    sweep,
    table_rows,
    tables_to_csv,
)


def test_params_n5():
    p = construction_params(5)
    assert (p.f, p.q, p.K, p.M, p.N) == (7, 28, 32, 13, 31)
    assert p.claimed_delta_max == pytest.approx((1 + 2**2.5) * math.sqrt(29), abs=1e-9)
    assert p.claimed_delta_max == pytest.approx(35.848257, abs=1e-6)


def test_params_n6():
    p = construction_params(6)
    assert (p.f, p.q, p.K, p.M, p.N) == (15, 60, 64, 29, 63)
    assert p.claimed_delta_max == pytest.approx(70.292247, abs=1e-6)


@pytest.mark.parametrize("n", range(4, 13))
def test_params_modulus_identity(n):
    p = construction_params(n)
    assert 4 * p.f + 1 == (1 << n) - 3
    assert p.q == (1 << n) - 4
    assert p.M == 2 * p.f - 1
    assert p.f % 4 == 3  # the lift precondition that forces n >= 4


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_params_reject_degenerate_degrees(n):
    with pytest.raises(ValueError):
        construction_params(n)


@pytest.mark.parametrize("n", range(4, 13))
def test_claimed_delta_max_is_bit_identical_at_x2(n):
    # 4f + 1 = 2^n - 3 as integers, so the sqrt sees the same value
    assert construction_params(n).claimed_delta_max == (1 + 2 ** (n / 2)) * math.sqrt((1 << n) - 3)


@pytest.mark.parametrize("n,x", [(5, 1), (5, 0), (5, 4), (6, 5), (3, 2)])
def test_params_guards(n, x):
    with pytest.raises(ValueError):
        construction_params(n, x)


def test_sweep_cells_read_construction_params():
    records = sweep(range(4, 11), range(2, 7))
    assert len(records) == 25
    for r in records:
        p = construction_params(r["n"], r["x"])
        assert (r["f"], r["q"], r["K"], r["M"], r["N"]) == (p.f, p.q, p.K, p.M, p.N)


def test_reference_table_values_reproduced():
    for (table_id, x), printed in REFERENCE_RHO.items():
        assert round(asymptotic_rho(table_id, x), 3) == pytest.approx(printed, abs=5e-4)


def test_table_monotonicity_and_limits():
    t1 = [asymptotic_rho(1, x) for x in range(2, 12)]
    assert all(a < b for a, b in zip(t1, t1[1:]))
    for table_id, limit in ((2, math.sqrt(2)), (3, 1.0)):
        values = [asymptotic_rho(table_id, x) for x in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert asymptotic_rho(table_id, 200) == pytest.approx(limit, abs=1e-12)


def test_asymptotic_rho_guards():
    with pytest.raises(ValueError):
        asymptotic_rho(1, 0)
    with pytest.raises(ValueError):
        asymptotic_rho(2, 1)
    with pytest.raises(ValueError):
        asymptotic_rho(4, 2)


def test_bound_rho_values():
    assert bound_rho(5, 2) == pytest.approx(2.3162994496803653, abs=1e-9)
    # the finite-n ratio approaches the table-2 form as n grows
    assert abs(bound_rho(40, 2) - asymptotic_rho(2, 2)) < 0.01
    assert abs(bound_rho(41, 3) - asymptotic_rho(2, 3)) < 0.01


def test_bound_rho_guards():
    with pytest.raises(ValueError):
        bound_rho(5, 1)
    with pytest.raises(ValueError):
        bound_rho(3, 2)


def test_table_rows_layout():
    rows1 = table_rows(1, 3)
    assert [r.x for r in rows1] == [1, 2, 3]
    assert rows1[0].f_or_q == "2^n-1" and rows1[1].f_or_q == "2^(n-1)-1"
    assert rows1[0].M == "2^(n-1)-1"
    assert rows1[0].k_over_m_guarantee == 2 and rows1[2].k_over_m_guarantee == 8

    rows2 = table_rows(2, 4)
    assert [r.x for r in rows2] == [2, 3, 4]
    assert rows2[0].f_or_q == "2^(n-2)-1"
    assert rows2[0].M == "2^(n-1)-3"
    assert rows2[0].k_over_m_guarantee == 2
    assert rows2[1].k_over_m_guarantee == 4


def test_tables_csv_format():
    text = tables_to_csv(table_rows(2, 4), digits=3)
    lines = text.strip().split("\n")
    assert lines[0] == "f_or_q,K,M,K_over_M,rho"
    assert lines[1] == "2^(n-2)-1,2^n,2^(n-1)-3,2,2.000"
    assert lines[3] == "2^(n-4)-1,2^n,2^(n-3)-3,8,1.512"


def test_sweep_grid_and_ordering():
    records = sweep(range(4, 8), range(2, 4))
    # degenerate cells (n - x < 2) are dropped: (4,3) is out
    assert all(r["n"] - r["x"] >= 2 for r in records)
    keys = [(r["tableId"], r["x"], r["n"]) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r["tableId"] == (2 if r["n"] % 2 == 0 else 3)
        assert r["K"] == 1 << r["n"]
        assert r["K"] > (1 << (r["x"] - 1)) * r["M"]  # supported-user margin


def test_sweep_empirical_n5():
    records = sweep([5], [2], empirical=True)
    assert len(records) == 1
    r = records[0]
    assert r["measuredDeltaMax"] == pytest.approx(49.128734, abs=1e-6)
    assert r["measuredRho"] == pytest.approx(3.174404, abs=1e-6)
    assert r["measuredDeltaMax"] >= r["lowerBound"] - 1e-6
    assert r["boundRho"] == pytest.approx(2.3162994496803653, abs=1e-9)


def count_lifts(monkeypatch):
    """Patch the sweep's ADS lift to record each call's base degree k, read
    off the base set's modulus 2^k - 1; return the list it appends to."""
    lifts, lift = [], analysis.diffsets.lift_ads_to_z4f

    def counting(base, *args):
        lifts.append(base.modulus.bit_length())
        return lift(base, *args)

    monkeypatch.setattr(analysis.diffsets, "lift_ads_to_z4f", counting)
    return lifts


def test_sweep_lifts_each_base_degree_once(monkeypatch):
    lifts = count_lifts(monkeypatch)
    shift_sets, build = {}, analysis.correlation.build_qcss

    def recording(family, shift_set, provenance):
        shift_sets[provenance["n"], provenance["x"]] = shift_set
        return build(family, shift_set, provenance)

    monkeypatch.setattr(analysis.correlation, "build_qcss", recording)
    records = sweep([4, 5, 6], [2, 3, 4], empirical=True)
    assert len(records) == 6 and lifts == [2, 3, 4]
    for k in (2, 3, 4):
        assert len({id(d) for (n, x), d in shift_sets.items() if n - x == k}) == 1
    # each cell measures as its own one-cell sweep, which lifts for itself
    for r in records:
        assert sweep([r["n"]], [r["x"]], empirical=True) == [r]


def test_sweep_keeps_no_lift_between_calls(monkeypatch):
    lifts = count_lifts(monkeypatch)
    first = sweep([4, 5, 6], [2, 3, 4], empirical=True)
    assert lifts == [2, 3, 4]
    assert sweep([4, 5, 6], [2, 3, 4], empirical=True) == first
    assert lifts == [2, 3, 4] * 2


@pytest.mark.parametrize("n_values,x_values,message", [
    ([5, 5], [2, 2], "sweep n value 5 repeats"),
    ([4, 5], [3, 2, 3], "sweep x value 3 repeats"),
], ids=["n", "x"])
def test_sweep_refuses_a_repeated_value_before_any_build(n_values, x_values, message, monkeypatch):
    builds = []
    monkeypatch.setattr(analysis.z4, "build_family_a", lambda *args: builds.append(args))
    for empirical in (False, True):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(n_values, x_values, empirical=empirical)
    assert builds == []


def test_sweep_empirical_cap():
    with pytest.raises(ValueError, match=r"degree must be in \[2, 12\], got 13"):
        sweep([13], [2], empirical=True)
    # analytic-only mode has no degree bound
    assert sweep([13], [2])[0]["boundRho"] > 0
