"""Polynomial arithmetic over GF(2), primitivity testing, and a table of
primitive polynomials.

A binary polynomial is a coefficient tuple, constant term first, with a
leading 1 (monic).  Internally coefficients are packed into a Python int,
bit i holding the coefficient of x^i, so ring operations are bit fiddling.
"""

from __future__ import annotations

# Verified primitive polynomials, one per degree.  Each entry was checked by
# is_primitive_binary itself (x of multiplicative order 2^n - 1 modulo h);
# the table exists so builds are reproducible without a search.
PRIMITIVE_POLYS: dict[int, tuple[int, ...]] = {
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
}


def poly_degree(coeffs) -> int:
    coeffs = tuple(coeffs)
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("polynomial must be monic (nonzero leading coefficient)")
    return len(coeffs) - 1


def _to_mask(coeffs) -> int:
    mask = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ValueError("binary polynomial coefficients must be 0 or 1")
        mask |= c << i
    return mask


def _deg(mask: int) -> int:
    return mask.bit_length() - 1


def _pmod(a: int, m: int) -> int:
    dm = _deg(m)
    while a and _deg(a) >= dm:
        a ^= m << (_deg(a) - dm)
    return a


def _pmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def _ppow_mod(x: int, e: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _pmod(_pmul(r, x), m)
        x = _pmod(_pmul(x, x), m)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_binary(coeffs) -> bool:
    """True iff x has multiplicative order 2^n - 1 modulo h, n = deg h:
    h(0) = 1, x^(2^n) = x mod h by n squarings, and x^((2^n - 1)/p) != 1
    for each prime p dividing 2^n - 1.

    That order makes h irreducible too: modulo a reducible h, a proper
    factor is a nonzero non-unit, so fewer than 2^n - 1 residues are units
    and no unit has order 2^n - 1.  Degree must be at least 2; degree-1
    inputs are rejected as invalid.
    """
    n = poly_degree(coeffs)
    if n < 2:
        raise ValueError("primitivity test requires degree >= 2")
    h = _to_mask(coeffs)
    if not h & 1:
        return False  # x divides h, so x is no unit
    y = 0b10
    for _ in range(n):
        y = _pmod(_pmul(y, y), h)
    if y != 0b10:
        return False
    order = (1 << n) - 1
    return all(_ppow_mod(0b10, order // p, h) != 1 for p in _prime_factors(order))


def primitive_polynomial(n: int) -> tuple[int, ...]:
    """Built-in primitive polynomial of degree n (n = 2..12)."""
    if n not in PRIMITIVE_POLYS:
        raise ValueError(
            f"no built-in primitive polynomial of degree {n}; supply coefficients explicitly"
        )
    return PRIMITIVE_POLYS[n]

