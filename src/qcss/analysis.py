"""Parameter sets for the full construction, closed-form asymptotic
tightness tables, and finite-size sweeps comparing bound-based tightness to
its asymptotic value.

Three tables are reproduced.  Table 1 covers the plain difference-set
construction; tables 2 and 3 cover the almost-difference-set construction
for even and odd degree n.  Each closed form below is the large-n limit of
the tightness ratio for the corresponding column, and is pinned against the
published three-decimal reference values embedded here as golden data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import correlation, diffsets, z4
from .errors import ResourceCapError

CENSUS_DEGREE_CAP = 8

# Golden three-decimal reference values, keyed by (table_id, x).  A formula
# regression that still looks plausible will trip these.
REFERENCE_RHO = {
    (1, 1): 1.000, (1, 2): 1.155, (1, 3): 1.512, (1, 4): 2.066, (1, 5): 2.874,
    (2, 2): 2.000, (2, 3): 1.633, (2, 4): 1.512, (2, 5): 1.461, (2, 6): 1.437,
    (2, 7): 1.425, (2, 10): 1.416, (2, 20): 1.414, (2, 40): 1.414,
    (3, 2): 1.414, (3, 3): 1.155, (3, 4): 1.069, (3, 5): 1.033, (3, 6): 1.016,
    (3, 7): 1.008, (3, 10): 1.001, (3, 20): 1.000, (3, 40): 1.000,
}


@dataclass(frozen=True)
class ConstructionParams:
    """Derived sizes for the assembled set at degree n and row x: base
    modulus f = 2^(n-x) - 1, shift-set modulus q = 4f, K = 2^n matrices of
    M = 2f - 1 rows and period N = 2^n - 1, and the claimed tolerance
    (1 + 2^(n/2)) sqrt(4f + 1)."""

    n: int
    f: int
    q: int
    K: int
    M: int
    N: int
    claimed_delta_max: float


def construction_params(n: int, x: int = 2) -> ConstructionParams:
    """Parameter set at degree n and row x, the only place these sizes are
    derived.

    Rows start at x = 2, and n - x >= 2 keeps f = 2^(n-x) - 1 nondegenerate
    and 3 mod 4, as the lift needs (at x = 2 that forces n >= 4).
    """
    if x < 2:
        raise ValueError(f"rows start at x = 2, got x = {x}")
    if n - x < 2:
        raise ValueError(f"need n - x >= 2 for a nondegenerate f = 2^(n-x) - 1, got n={n}, x={x}")
    f = (1 << (n - x)) - 1
    return ConstructionParams(
        n=n,
        f=f,
        q=4 * f,
        K=1 << n,
        M=2 * f - 1,
        N=(1 << n) - 1,
        claimed_delta_max=(1 + 2 ** (n / 2)) * math.sqrt(4 * f + 1),
    )


def check_census_cap(n: int, cap: int = CENSUS_DEGREE_CAP) -> None:
    """Refuse a correlation census above degree ``cap``: it costs
    K^2 P log P operations (K = 2^n, P = 2^(n+1)), about 8x per degree."""
    if n > cap:
        raise ResourceCapError(
            f"correlation census capped at n <= {cap} (raise --cap to exceed), got n = {n}"
        )


def asymptotic_rho(table_id: int, x: int) -> float:
    """Closed-form large-n tightness for row x of a table.

    Table 1: rho -> 2^(x-1) / sqrt(2^x - 1)            (x >= 1)
    Table 2: rho -> sqrt(2^x / (2^(x-1) - 1))          (x >= 2, even n)
    Table 3: rho -> sqrt(2^(x-1) / (2^(x-1) - 1))      (x >= 2, odd n)

    Table 3 equals table 2 divided by sqrt(2); it matches the published
    odd-degree column as data, via the substitution 2^((n-1)/2) for the
    family tolerance, without claiming a derivation.
    """
    if table_id == 1:
        if x < 1:
            raise ValueError("table 1 rows start at x = 1")
        return 2 ** (x - 1) / math.sqrt(2**x - 1)
    if table_id == 2:
        if x < 2:
            raise ValueError("table 2 rows start at x = 2")
        return math.sqrt(2**x / (2 ** (x - 1) - 1))
    if table_id == 3:
        if x < 2:
            raise ValueError("table 3 rows start at x = 2")
        return math.sqrt(2 ** (x - 1) / (2 ** (x - 1) - 1))
    raise ValueError(f"table_id must be 1, 2 or 3, got {table_id}")


@dataclass(frozen=True)
class TableRecord:
    """One table row: symbolic column entries plus the asymptotic rho."""

    table_id: int
    x: int
    f_or_q: str
    K: str
    M: str
    k_over_m_guarantee: int
    rho: float


def _power_expr(shift: int) -> str:
    return "2^n" if shift == 0 else f"2^(n-{shift})"


def table_rows(table_id: int, x_max: int) -> list[TableRecord]:
    """Rows x = x_min..x_max of one table, mirroring the published layout."""
    x_min = 1 if table_id == 1 else 2
    if x_max < x_min:
        raise ValueError(f"table {table_id} needs x_max >= {x_min}")
    rows = []
    for x in range(x_min, x_max + 1):
        if table_id == 1:
            f_or_q = f"{_power_expr(x - 1)}-1"
            m_expr = f"{_power_expr(x)}-1"
            guarantee = 1 << x
        else:
            f_or_q = f"{_power_expr(x)}-1"
            m_expr = f"{_power_expr(x - 1)}-3"
            guarantee = 1 << (x - 1)
        rows.append(
            TableRecord(
                table_id=table_id,
                x=x,
                f_or_q=f_or_q,
                K="2^n",
                M=m_expr,
                k_over_m_guarantee=guarantee,
                rho=asymptotic_rho(table_id, x),
            )
        )
    return rows


def tables_to_csv(rows, digits: int = 3) -> str:
    lines = ["f_or_q,K,M,K_over_M,rho"]
    for r in rows:
        lines.append(f"{r.f_or_q},{r.K},{r.M},{r.k_over_m_guarantee},{r.rho:.{digits}f}")
    return "\n".join(lines) + "\n"


def bound_rho(n: int, x: int) -> float:
    """Finite-n tightness with the exponential-sum bound as numerator: the
    claimed tolerance of ``construction_params(n, x)`` over the correlation
    floor.  Defined for x >= 2 and n - x >= 2."""
    p = construction_params(n, x)
    return p.claimed_delta_max / correlation.welch_lower_bound(p.K, p.M, p.N)


def sweep(n_values, x_values, empirical: bool = False, degree_cap: int = CENSUS_DEGREE_CAP):
    """Records comparing finite-n bound-based tightness to its asymptotic
    value over a (n, x) grid; with ``empirical`` each cell also builds the
    full set and measures delta_max.

    Cells with n - x < 2 are degenerate and skipped.  Empirical mode refuses
    degrees above ``degree_cap``.  It builds the family once per n (2^n + 1
    rows of period 2^n - 1, a fraction of the cost) and measures all of that
    n's cells in one ``tolerances_many`` pass: the census of K^2 P log P
    operations (K = 2^n, P = 2^(n+1)) depends on the base, not on x, so its
    cost grows like 8^n per degree, plus a K^2 N reduction per cell.
    """
    if empirical:
        check_census_cap(max(n_values, default=0), degree_cap)
    records = []
    for n in n_values:
        cells = []
        for x in x_values:
            if n - x < 2:
                continue
            p = construction_params(n, x)
            table_id = 2 if n % 2 == 0 else 3
            cells.append({
                "n": n,
                "x": x,
                "tableId": table_id,
                "f": p.f,
                "q": p.q,
                "K": p.K,
                "M": p.M,
                "N": p.N,
                "boundRho": bound_rho(n, x),
                "asymptoticRho": asymptotic_rho(table_id, x),
            })
        if empirical and cells:
            family = z4.build_family_a(n)
            base = z4.subset_l(family, verify=False)  # build_family_a checked it
            qsets = [
                correlation.build_qcss(
                    base,
                    diffsets.lift_ads_to_z4f(diffsets.singer_ds(n - rec["x"])),
                    provenance={"n": n, "x": rec["x"]},
                )
                for rec in cells
            ]
            for rec, report in zip(cells, correlation.tolerances_many(qsets)):
                rec["measuredDeltaMax"] = report.delta_max
                rec["measuredRho"] = report.rho
                rec["lowerBound"] = report.lower_bound
        records.extend(cells)
    records.sort(key=lambda r: (r["tableId"], r["x"], r["n"]))
    return records
