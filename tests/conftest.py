import itertools
from functools import cache

import numpy as np
import pytest

import qcss
from qcss import binpoly, z4
from qcss.correlation import periodic_correlation, roots_table


@pytest.fixture(scope="session")
def family3():
    return qcss.build_family_a(3)


@pytest.fixture(scope="session")
def family4():
    return qcss.build_family_a(4)


@pytest.fixture(scope="session")
def family5():
    return qcss.build_family_a(5)


@pytest.fixture(scope="session")
def family6():
    return qcss.build_family_a(6)


# every binary primitive polynomial of degree 2..6, low degree first
ALL_PRIMITIVE_POLYS = [
    (1, *middle, 1)
    for n in range(2, 7)
    for middle in itertools.product((0, 1), repeat=n - 1)
    if binpoly.is_primitive_binary((1, *middle, 1))
]


def seeded_family_members(coeffs) -> list[tuple[int, ...]]:
    """Family A's members in code order, from one recurrence run per cyclic
    class: member 0 from the state (0, ..., 0, 2), and member 1 + a, for
    a < 2^n, from the state (0, ..., 0, 1) + 2 beta_a(0..n-1), where
    beta_a = sum_j a_j m(. + j) mod 2 and m is the run from (0, ..., 0, 1)
    read mod 2."""
    n = len(coeffs) - 1
    f = z4.graeffe_lift(coeffs)
    e = (0,) * (n - 1) + (1,)
    m = [v % 2 for v in z4.run_z4_recurrence(f, e)]

    def beta(a, t):
        return sum(m[(t + j) % len(m)] for j in range(n) if a >> j & 1) % 2

    binary = z4.run_z4_recurrence(f, (0,) * (n - 1) + (2,))
    units = [z4.run_z4_recurrence(f, [e[t] + 2 * beta(a, t) for t in range(n)]) for a in range(1 << n)]
    return [binary] + units


@cache
def family_a(coeffs) -> z4.FamilyA:
    """Family A built from one binary primitive polynomial, once."""
    return qcss.build_family_a(len(coeffs) - 1, coeffs)


def document_refusal(family, members) -> str:
    """The message with which ``family_from_json`` refuses the document of
    ``family`` with ``members`` in place of its own: a document is the one
    way to offer a family that is not the build."""
    doc = dict(z4.family_to_json(family), members=np.asarray(members).tolist())
    with pytest.raises(ValueError) as info:
        z4.family_from_json(doc)
    return str(info.value)


def first_edit(A, B):
    """The first (member, t), in row-major order, at which A and B differ."""
    return tuple(np.argwhere(np.asarray(A) != np.asarray(B))[0].tolist())


def z4_poly_divides(f, order: int) -> bool:
    """True iff monic f divides x^order - 1 in Z4[x] (checked by long division)."""
    f = [int(c) % 4 for c in f]
    n = len(f) - 1
    if f[n] != 1:
        raise ValueError("divisor must be monic")
    r = np.zeros(order + 1, dtype=np.int64)
    r[order] = 1
    r[0] = 3
    fa = np.array(f, dtype=np.int64)
    for top in range(order, n - 1, -1):
        c = r[top] % 4
        if c:
            r[top - n : top + 1] = (r[top - n : top + 1] - c * fa) % 4
    return not np.any(r[:n] % 4)


def difference_function(subset, x: int) -> int:
    """d_D(x) = |(D + x) ∩ D|, from the definition."""
    q = subset.modulus
    if not 0 <= x < q:
        raise ValueError("shift out of range")
    elems = set(subset.elements)
    return sum(1 for e in elems if (e + x) % q in elems)


def direct_tensor(qset) -> np.ndarray:
    """G[tau, k, l] = R(C_k, C_l; tau) from the defining sums over all
    ordered pairs, vectorized over entries."""
    K, N = qset.num_sets, qset.period
    Z = roots_table(qset.root_order)[qset.phases]
    flat = Z.reshape(K, -1)
    return np.stack([flat @ np.conj(np.roll(Z, -tau, axis=2).reshape(K, -1)).T for tau in range(N)])


def direct_report_fields(qset):
    """delta_a, delta_c, per-shift maxima and factorization gap from the
    defining sums over all ordered pairs, vectorized over entries."""
    K, N = qset.num_sets, qset.period
    mags = np.abs(direct_tensor(qset))  # [tau, k, l]
    a = roots_table(4)[z4.subset_l(qset.family)]
    base = np.abs(np.stack([a @ np.conj(np.roll(a, -tau, axis=1)).T for tau in range(N)]))
    D = qset.shift_set
    ramp = np.abs(np.exp(2j * np.pi * np.outer(np.arange(N), D.elements) / D.modulus).sum(axis=1))
    gap = np.abs(mags - base * ramp[:, None, None]).max()
    diag = np.arange(K), np.arange(K)
    auto = mags[:, diag[0], diag[1]]
    delta_a = auto[1:].max()
    mags[0][diag] = 0.0
    per_shift = mags.max(axis=(1, 2))
    mags[:, diag[0], diag[1]] = 0.0
    return delta_a, mags.max(), per_shift, gap


def oracle_tensor(qset) -> np.ndarray:
    """G[tau, k, l] from the scalar loop ``periodic_correlation``."""
    K, N = qset.num_sets, qset.period
    return np.array([[[periodic_correlation(qset.matrix(k), qset.matrix(l), tau)
                       for l in range(K)] for k in range(K)] for tau in range(N)])
