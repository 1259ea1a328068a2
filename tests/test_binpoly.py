import itertools

import numpy as np
import pytest

from qcss import binpoly, diffsets, z4

X3_X_1 = (1, 1, 0, 1)  # x^3 + x + 1


def test_primitive_accepts_known_polynomial():
    # order of x modulo h is 7, verified by repeated squaring inside the test
    assert binpoly.is_primitive_binary(X3_X_1)


def test_reducible_is_not_primitive():
    # x^2 + 1 = (x + 1)^2
    assert not binpoly.is_primitive_binary((1, 0, 1))


def test_irreducible_with_short_order_is_not_primitive():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5, not 15
    h = (1, 1, 1, 1, 1)
    assert not binpoly.is_primitive_binary(h)


def order_of_x(coeffs):
    """The multiplicative order of x modulo h by stepping x^k, or None if
    no power of x is 1 (h(0) = 0)."""
    n, h = len(coeffs) - 1, sum(c << i for i, c in enumerate(coeffs))
    y = 1
    for k in range(1, 1 << n):
        y <<= 1
        if y >> n:
            y ^= h
        if y == 1:
            return k
    return None


def test_primitivity_is_the_order_of_x():
    # every monic h of degree 2..8, h(0) = 0 included, against the order of
    # x stepped one power at a time; then the count of primitive h at each
    # degree n = 2..12 is phi(2^n - 1)/n
    for n in range(2, 9):
        for middle in itertools.product((0, 1), repeat=n):
            h = middle + (1,)
            assert binpoly.is_primitive_binary(h) == (order_of_x(h) == (1 << n) - 1), h
    counts = [sum(binpoly.is_primitive_binary(middle + (1,)) for middle in itertools.product((0, 1), repeat=n))
              for n in range(2, 13)]
    assert counts == [1, 2, 2, 6, 6, 18, 16, 48, 60, 176, 144]


def test_primitivity_rejects_degree_below_two():
    with pytest.raises(ValueError):
        binpoly.is_primitive_binary((1, 1))


def test_builtin_table_is_primitive():
    for n, coeffs in binpoly.PRIMITIVE_POLYS.items():
        assert binpoly.poly_degree(coeffs) == n
        assert binpoly.is_primitive_binary(coeffs)


def test_primitive_polynomial_lookup_guard():
    with pytest.raises(ValueError):
        binpoly.primitive_polynomial(13)


# The m-sequence of a primitive h is the Z4 recurrence with h's coefficients
# read mod 2, the run singer_ds takes the zeros of.


def test_m_sequence_known_run():
    seq = np.array(z4.run_z4_recurrence(X3_X_1, [1, 0, 0])) & 1
    assert seq.tolist() == [1, 0, 0, 1, 0, 1, 1]
    assert int(seq.sum()) == 4  # balanced: 2^(n-1) ones, one fewer zero
    assert diffsets.singer_ds(3, X3_X_1).elements == (1, 2, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_m_sequence_balance_and_pacf(n):
    seq = np.array(z4.run_z4_recurrence(binpoly.primitive_polynomial(n), [1] + [0] * (n - 1))) & 1
    period = (1 << n) - 1
    assert len(seq) == period
    assert int(seq.sum()) == 1 << (n - 1)
    bipolar = 1 - 2 * seq.astype(np.int64)
    assert int(np.dot(bipolar, bipolar)) == period
    for tau in range(1, period):
        assert int(np.dot(bipolar, np.roll(bipolar, -tau))) == -1


def test_m_sequence_guards():
    with pytest.raises(ValueError):
        z4.run_z4_recurrence(X3_X_1, [0, 0, 0])
    with pytest.raises(ValueError):
        z4.run_z4_recurrence(X3_X_1, [1, 0])  # wrong state width
    with pytest.raises(ValueError, match="primitive"):
        diffsets.singer_ds(2, (1, 0, 1))  # reducible
    with pytest.raises(ValueError, match="primitive"):
        diffsets.singer_ds(4, (1, 1, 1, 1, 1))  # irreducible, root of order 5
    with pytest.raises(ValueError, match="degree"):
        diffsets.singer_ds(4, X3_X_1)  # wrong degree
