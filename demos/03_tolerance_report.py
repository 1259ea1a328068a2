#!/usr/bin/env python3
"""Walkthrough: assembling the full set at degree n = 5 and reading its
periodic tolerance report.

The 32 matrices have 13 rows each: row m of matrix k is the k-th subset-L
sequence multiplied by the phase ramp of the m-th ADS element.  The report
sweeps every pair of matrices over every shift, from the exact correlations
of the base sequences split at the wrap point, and cross-checks the
separable approximation.  ``tolerances(*qsets)`` returns one report per set:
sets over one family share one census pass, since the base correlations do
not depend on the shift set.
"""

from qcss import (
    build_family_a,
    build_qcss,
    construction_params,
    legendre_ds,
    lift_ads_to_z4f,
    singer_ds,
    tolerances,
    welch_lower_bound,
)

n = 5
params = construction_params(n)
print(f"parameters at n = {n}: f={params.f} q={params.q} K={params.K} M={params.M} N={params.N}")

family = build_family_a(n)
ads = lift_ads_to_z4f(singer_ds(n - 2))
qset = build_qcss(family, ads, provenance={"n": n})
# a Legendre base set over the same family rides on the same census pass; at
# f = 7 the quadratic residues are the Singer set {1, 2, 4}, so both agree
legendre = build_qcss(family, lift_ads_to_z4f(legendre_ds(params.f)), provenance={"n": n})
report, legendre_report = tolerances(qset, legendre)

print(f"root order of all entries: {qset.root_order} (phases stay integers)")
print()
print("tolerance report")
print("----------------")
print(f"  delta_a (auto, shifts != 0)      = {report.delta_a:.6f}")
print(f"  delta_c (cross, all shifts)      = {report.delta_c:.6f}")
print(f"  delta_max                        = {report.delta_max:.6f}")
print(f"  lower bound (Welch-type floor)   = {report.lower_bound:.6f}")
print(f"  tightness rho                    = {report.rho:.6f}")
print(f"  r1 (shifts not divisible by q)   = {report.r1_observed:.6f}")
print(f"  r2 (nontrivial multiples of q)   = {report.r2_observed:.6f}")
print(f"  cross-correlation at shift 0     = {report.per_shift_max[0]:.6f}  (= M)")
print(f"  factorization gap (max)          = {report.factorization_gap_max:.6f}")
print(f"  delta_max, Legendre base set     = {legendre_report.delta_max:.6f}")
print()

claimed = params.claimed_delta_max
print(f"claimed ceiling (1 + 2^(n/2)) sqrt(2^n - 3) = {claimed:.6f}")
print()
print("The measured delta_max exceeds the claimed ceiling.  The ceiling")
print("assumes the correlation of transformed rows factors into the base")
print("correlation times the ramp sum, which only holds when q divides N*d;")
print("here q = 2^n - 4 and N = 2^n - 1 are coprime to that requirement, so")
print("wrapping breaks the separable form.  The report measures that gap")
print(f"explicitly ({report.factorization_gap_max:.2f}) instead of assuming zero, and the")
print("comparison with the claimed value is reported, not asserted.")
print()
# the one check `qcss qcss --verify` makes: delta_max stays at or above the floor
print(f"sanity: delta_max >= lower bound: {report.delta_max >= welch_lower_bound(params.K, params.M, params.N)}")
