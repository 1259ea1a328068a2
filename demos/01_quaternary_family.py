#!/usr/bin/env python3
"""Walkthrough: building the quaternary family and checking its correlation
structure.

The family at degree n collects one representative from each of the 2^n + 1
cyclic classes of nonzero solutions of a Z4 linear recurrence.  Member 0 is
special: its symbols all sit in {0, 2}, so it is a relabeled binary
m-sequence with the ideal -1 off-phase autocorrelation.
"""

from qcss import build_family_a, family_alpha_max, subset_l, z4_correlation

n = 4
family = build_family_a(n)

print(f"degree n = {n}")
print(f"characteristic polynomial over Z4 (constant term first): {family.polynomial}")
print(f"members: {family.size} sequences of period {family.period}")
print()
print("member 0 (binary-valued):", tuple(family.array[0].tolist()))
print("member 1:", tuple(family.array[1].tolist()))
print("member 2:", tuple(family.array[2].tolist()))
print()

print("autocorrelation of member 0 (exact Gaussian integers):")
pacf = [z4_correlation(family.array[0], family.array[0], tau) for tau in range(family.period)]
print("  ", [int(v.real) for v in pacf])
print()

alpha = family_alpha_max(family)
print(f"maximum correlation magnitude over all pairs and shifts: {alpha}")
print(f"even-degree closed form 1 + 2^(n/2) = {1 + 2 ** (n / 2)}")
print()

L = subset_l(family)  # verifies the pairwise property while slicing
values = {z4_correlation(a, b, 0) for a, b in zip(L, L[1:])}
print(f"subset L = members 1..{family.size - 1}; zero-shift correlations of")
print(f"adjacent pairs (all pairs are checked internally): {values}")
print()
print("Every pair in L hits exactly -1 + 0i at shift zero, which is what")
print("makes the assembled matrices mutually quiet at the zero shift.")
