"""Polynomial arithmetic over GF(2), primitivity testing, and a table of
primitive polynomials.

A binary polynomial is a coefficient tuple, constant term first, with a
leading 1 (monic).  Internally coefficients are packed into a Python int,
bit i holding the coefficient of x^i, so ring operations are bit fiddling.
"""

from __future__ import annotations

# Verified primitive polynomials, one per degree.  Each entry was checked by
# is_primitive_binary itself (irreducible and root of full multiplicative
# order); the table exists so builds are reproducible without a search.
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


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


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


def is_irreducible_binary(coeffs) -> bool:
    """Rabin irreducibility test over GF(2)."""
    n = poly_degree(coeffs)
    h = _to_mask(coeffs)
    if n < 1:
        return False
    x = 0b10
    if _ppow_mod(x, 1 << n, h) != _pmod(x, h):
        return False
    for p in _prime_factors(n):
        y = _ppow_mod(x, 1 << (n // p), h)
        if _pgcd(y ^ x, h) != 1:
            return False
    return True


def is_primitive_binary(coeffs) -> bool:
    """True iff the polynomial is irreducible over GF(2) and its root has
    multiplicative order 2^n - 1.

    Degree must be at least 2; degree-1 inputs are rejected as invalid.
    """
    n = poly_degree(coeffs)
    if n < 2:
        raise ValueError("primitivity test requires degree >= 2")
    if not is_irreducible_binary(coeffs):
        return False
    h = _to_mask(coeffs)
    order = (1 << n) - 1
    for p in set(_prime_factors(order)):
        if _ppow_mod(0b10, order // p, h) == 1:
            return False
    return True


def primitive_polynomial(n: int) -> tuple[int, ...]:
    """Built-in primitive polynomial of degree n (n = 2..12)."""
    if n not in PRIMITIVE_POLYS:
        raise ValueError(
            f"no built-in primitive polynomial of degree {n}; supply coefficients explicitly"
        )
    return PRIMITIVE_POLYS[n]

