#!/usr/bin/env python3
"""Walkthrough: building the quaternary family and checking its correlation
structure.

The family at degree n collects one representative from each of the 2^n + 1
cyclic classes of nonzero solutions of a Z4 linear recurrence.  Member 0 is
special: its symbols all sit in {0, 2}, so it is a relabeled binary
m-sequence with the ideal -1 off-phase autocorrelation.  The others are in
code order: member 1 + a is s_1 XOR 2 beta_a, where s_1 is member 1 and
beta_a(t) = a . code[t] mod 2 reads the window code of m = s_1 mod 2 at t.
"""

import itertools

import numpy as np

from qcss import build_family_a, family_alpha_max, subset_l, z4_correlation

n = 4
family = build_family_a(n)

print(f"degree n = {n}")
print(f"characteristic polynomial over Z4 (constant term first): {family.polynomial}")
print(f"members: {family.size} sequences of period {family.period}")
print()
print("member 0 (binary-valued):", tuple(family.array[0].tolist()))
print("member 1 (s_1):", tuple(family.array[1].tolist()))
print("member 2:", tuple(family.array[2].tolist()))
print()

a = 5
beta = np.array([bin(a & code).count("1") % 2 for code in family.codes.tolist()])
print(f"member 1 + a for a = {a}:", tuple(family.array[1 + a].tolist()))
print(f"s_1 XOR 2 beta_{a}:    ", tuple((family.s1 ^ 2 * beta).tolist()))
print()

print("autocorrelation of member 0 (exact Gaussian integers):")
pacf = [z4_correlation(family.array[0], family.array[0], tau) for tau in range(family.period)]
print("  ", [int(v.real) for v in pacf])
print()

alpha = family_alpha_max(family)
print(f"maximum correlation magnitude over all pairs and shifts: {alpha}")
print(f"even-degree closed form 1 + 2^(n/2) = {1 + 2 ** (n / 2)}")
print()

# subset_l is a view of members 1..; it checks nothing, since the family was
# certified when it was built, so the demo sums every pair itself
L = subset_l(family)
values = {z4_correlation(u, v, 0) for u, v in itertools.combinations(L, 2)}
print(f"subset L = members 1..{family.size - 1}; zero-shift correlations of")
print(f"all {len(L) * (len(L) - 1) // 2} pairs, summed here one by one: {values}")
print()
print("Every pair in L hits exactly -1 + 0i at shift zero, which is what")
print("makes the assembled matrices mutually quiet at the zero shift.")
