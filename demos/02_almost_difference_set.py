#!/usr/bin/env python3
"""Walkthrough: from a classical difference set to the almost difference set
in Z_{4f}, with the exponential-sum profile that drives correlation bounds.

The lift places three copies of the base set W and one copy of its
complement into the four residue classes of Z_{4f} (canonical pattern,
found by exhaustive search and cross-validated at f = 7, 11, 15).
"""

import numpy as np

from qcss import (
    CANONICAL_PATTERN,
    classify_set,
    exp_sum_bound,
    exp_sum_profile,
    find_canonical_pattern,
    legendre_ds,
    lift_ads_to_z4f,
    singer_ds,
)

print("base difference sets")
print("--------------------")
for name, W in (("singer k=3", singer_ds(3)), ("legendre f=11", legendre_ds(11))):
    c = classify_set(W)
    print(f"  {name}: elements {W.elements}")
    print(f"    census: ({c.p}, {c.m}, {c.lam}) difference set")
print()

W = singer_ds(3)
print(f"canonical coset pattern: pieces {CANONICAL_PATTERN.labels()}, delta = {CANONICAL_PATTERN.delta}")
print(f"search agrees: {find_canonical_pattern(W) == CANONICAL_PATTERN}")
print()

U = lift_ads_to_z4f(W)
c = classify_set(U)
print(f"lifted set in Z_{U.modulus}: {U.elements}")
print(f"census: ({c.p}, {c.m}, {c.lam}, {c.t}) almost difference set")
print(f"  difference function takes {c.lam} exactly {c.t} times and {c.lam + 1} the other {c.p - 1 - c.t} times")
print()

profile = np.abs(exp_sum_profile(U))
print("exponential-sum profile Delta(tau) = |sum_d exp(2 pi i tau d / q)|:")
with np.printoptions(precision=3, suppress=True):
    print(" ", profile)
print(f"max over nontrivial shifts: {profile[1:].max():.6f}")
print(f"two-level census bound sqrt(q + M - lambda - t - 1) = {exp_sum_bound(c):.6f}")
print()
print("The strict gap between the profile and its bound is what keeps the")
print("assembled matrices below the advertised correlation ceiling in the")
print("shift class where the ramp phases do not resonate.")
