"""Quaternary sequence machinery: the even/odd-split lift of a binary
primitive polynomial into Z4, linear recurrences over Z4, and the optimal
family of 2^n + 1 cyclically inequivalent sequences it generates (Family A
of Boztas, Hammons and Kumar), run from one seed per cyclic class.

Sequences are tuples of residues mod 4.  Correlations of raw Z4 sequences
are Gaussian integers, counted exactly (no FFT, no rounding), so equality
checks like "this value is -1" carry no floating-point slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binpoly
from .errors import ConstructionError

# The seeded build with its checks takes ~0.3 s at n = 10 and ~6 s with a
# ~0.8 GB peak at n = 12 (2-core VM); family_alpha_max adds ~0.1 s and ~1.5 s.
MAX_FAMILY_DEGREE = 12


def graeffe_lift(coeffs) -> tuple[int, ...]:
    """Lift a binary primitive polynomial h to its monic divisor f of
    x^(2^n - 1) - 1 over Z4, via f(x^2) = (-1)^n h(x) h(-x) mod 4.

    The result reduces to h mod 2.  Degree 1 admits only x + 1 -> x + 3.
    """
    n = binpoly.poly_degree(coeffs)
    if n >= 2:
        if not binpoly.is_primitive_binary(coeffs):
            raise ValueError("lift requires a primitive polynomial")
    elif tuple(coeffs) != (1, 1):
        raise ValueError("the only monic primitive polynomial of degree 1 is x + 1")
    h = [int(c) for c in coeffs]
    h_neg = [c if i % 2 == 0 else -c for i, c in enumerate(h)]  # h(-x)
    prod = np.convolve(h, h_neg)  # h(x) h(-x) is even in x; its even coefficients give f
    sign = -1 if n % 2 else 1
    f = tuple(int(sign * prod[2 * j]) % 4 for j in range(n + 1))
    assert f[n] == 1
    return f


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


def run_z4_recurrence(coeffs, init, length: int | None = None) -> tuple[int, ...]:
    """Run the order-n linear recurrence over Z4 with characteristic
    polynomial f(x) = x^n + c_{n-1} x^{n-1} + ... + c_0:

        s(t+n) = -(c_{n-1} s(t+n-1) + ... + c_0 s(t)) mod 4

    and return the first 2^n - 1 symbols (or ``length`` symbols).
    """
    f = [int(c) % 4 for c in coeffs]
    n = len(f) - 1
    if f[n] != 1:
        raise ValueError("characteristic polynomial must be monic")
    init = [int(v) % 4 for v in init]
    if len(init) != n:
        raise ValueError(f"initial state must have {n} symbols")
    if not any(init):
        raise ValueError("initial state must be nonzero (zero solution excluded)")
    if length is None:
        length = (1 << n) - 1
    s = list(init)
    for t in range(length - n):
        s.append(-sum(c * v for c, v in zip(f, s[t : t + n])) % 4)
    return tuple(s[:length])


def z4_correlation(a, b, tau: int = 0) -> complex:
    """Periodic correlation of two Z4 sequences at a given shift, as the
    exact Gaussian integer sum_t i^(a_t - b_(t+tau))."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("sequences must share one period length")
    d = (a - np.roll(b, -tau)) % 4
    c = np.bincount(d, minlength=4)
    return complex(int(c[0]) - int(c[2]), int(c[1]) - int(c[3]))


@dataclass(frozen=True)
class FamilyA:
    """The set of 2^n + 1 canonical representatives of the cyclic classes of
    nonzero solutions of the Z4 recurrence.

    ``members[0]`` is the binary-valued class (symbols in {0, 2}); all later
    members are rotation-aligned so every pair correlates to exactly -1 at
    shift zero.
    """

    n: int
    polynomial: tuple[int, ...]  # Z4 coefficients, constant term first
    members: tuple[tuple[int, ...], ...]

    @property
    def period(self) -> int:
        return (1 << self.n) - 1

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def l0(self) -> tuple[int, ...]:
        return self.members[0]


def _window_codes(rows: np.ndarray, f, n: int):
    """Big-endian base-4 codes of the cyclic n-windows of 2^n + 1 rows of
    period N ([k, t] encodes rows[k, t .. t + n - 1], indices mod N), and
    None if the rows are one full cyclic class each of the recurrence with
    polynomial f, else (message, witness).

    Each row must satisfy the recurrence cyclically and the 4^n - 1 codes
    must hit every nonzero state once: they do iff none is zero and all are
    distinct (pigeonhole), so one boolean mask decides it.
    """
    if rows.shape != ((1 << n) + 1, (1 << n) - 1):
        return None, (f"shape {rows.shape} is not 2^n + 1 rows of period 2^n - 1", rows.shape)
    acc = np.roll(rows, -n, axis=1)
    codes = np.zeros(rows.shape, dtype=np.int32)  # 4^n < 2^31 up to MAX_FAMILY_DEGREE
    for j in range(n):
        window = np.roll(rows, -j, axis=1)
        acc += f[j] * window
        codes = 4 * codes + window
    broken = np.flatnonzero(np.any(acc % 4, axis=1))
    if broken.size:
        k = int(broken[0])
        return codes, (f"row {k} does not satisfy the recurrence", (k, tuple(rows[k].tolist())))
    seen = np.zeros(1 << (2 * n), dtype=bool)
    seen[codes] = True
    if not seen[0] and np.count_nonzero(seen) == codes.size:
        return codes, None
    # a zero window makes its whole row zero, so some code always repeats
    code = int(np.flatnonzero(np.bincount(codes.ravel()) > 1)[0])
    where = [divmod(int(i), codes.shape[1]) for i in np.flatnonzero(codes.ravel() == code)[:2]]
    return codes, (f"state code {code} is the window at (row, shift) {where}", (code, where))


def build_family_a(n: int, coeffs=None) -> FamilyA:
    """Run the Z4 recurrence from one seed per cyclic class and return one
    canonical, aligned representative per class.

    The binary-valued class starts from 2*e0 and the 2^n unit classes from
    e0 + 2y, y in GF(2)^n, e0 = (1, 0, ..., 0).  All unit rows reduce mod 2
    to the one m-sequence started from e0, so they are already aligned with
    each other.  Once all windows are distinct, a row's least rotation is
    the one starting at its least window code.  So member 0 is the binary
    row at its least rotation, and the unit rows follow, ordered by least
    window code and all rotated by the one shift that puts the first of them
    at its least rotation.

    Parameters
    ----------
    n : recurrence degree, 2 <= n <= MAX_FAMILY_DEGREE.
    coeffs : optional binary primitive polynomial overriding the built-in
        table entry for degree n.

    Raises
    ------
    ConstructionError
        if the rows are not the cyclic classes or are misaligned at shift
        zero (the falsification path, never silently patched).
    """
    if not 2 <= n <= MAX_FAMILY_DEGREE:
        raise ValueError(f"degree must be in [2, {MAX_FAMILY_DEGREE}], got {n}")
    h = tuple(coeffs) if coeffs is not None else binpoly.primitive_polynomial(n)
    if binpoly.poly_degree(h) != n:
        raise ValueError("polynomial degree does not match n")
    f = graeffe_lift(h)
    K = (1 << n) + 1
    # s[t] is symbol t of every row: one numpy step per time index; int8
    # arithmetic wraps mod 256, which keeps every residue mod 4
    s = np.zeros(((1 << n) - 1, K), dtype=np.int8)
    s[0] = [2] + [1] * (K - 1)
    s[:n, 1:] += 2 * ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1)
    taps = -np.array(f[:n], dtype=np.int8)
    for t in range(len(s) - n):
        s[t + n] = (taps @ s[t : t + n]) % 4
    rows = np.ascontiguousarray(s.T)
    codes, failure = _window_codes(rows, f, n)
    if failure is not None:
        message, witness = failure
        raise ConstructionError(f"seeded rows are not the cyclic classes: {message}", witness=witness)
    least, start = codes.min(axis=1), codes.argmin(axis=1)
    units = 1 + np.argsort(least[1:])
    rotated = np.roll(rows[units], -start[units[0]], axis=1)
    members = np.vstack([np.roll(rows[0], -start[0]), rotated])
    family = FamilyA(n=n, polynomial=f, members=tuple(map(tuple, members.tolist())))
    subset_l(family, verify=True)
    return family


def subset_l(family: FamilyA, verify: bool = True) -> tuple[tuple[int, ...], ...]:
    """The 2^n aligned members excluding the binary-valued one.

    With ``verify`` (default) every unordered pair is checked to correlate to
    exactly -1 + 0i at shift zero; a violation raises ConstructionError with
    the first failing pair (i < j) as witness.
    """
    L = family.members[1:]
    if verify:
        # the zero-shift correlation sum_t i^(v_t - v'_t) is entry (v, v') of
        # Z Z^H for Z = i^A: one complex64 matmul, exact because every part
        # of every product and partial sum is an integer of magnitude at most
        # N < 2^24.  Any entry that is not exactly -1 + 0i, integral or not,
        # fails its pair.
        Z = np.array([1, 1j, -1, -1j], dtype=np.complex64)[np.array(L)]
        gram = Z @ Z.conj().T
        bad = np.argwhere(np.triu(gram != -1, k=1))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise ConstructionError(
                f"zero-shift correlation of members {i + 1} and {j + 1} is "
                f"{complex(gram[i, j])}, not -1",
                witness=(L[i], L[j]),
            )
    return L


def family_alpha_max(family: FamilyA) -> float:
    """Maximum correlation magnitude over all member pairs and shifts,
    excluding only the in-phase autocorrelation, without summing one.

    The members' n-windows must be every nonzero state once (checked).  The
    recurrence is linear, so u = s_i - s_j(. + tau) is a solution: zero only
    in phase, else a rotation of the member m_k whose window it shares, so
    C_ij(tau) = S_k = sum_t i^(m_k(t)).  And for i != k, s_i - m_k is a
    rotation s_j(. + tau) of a member, so every S_k occurs: the result is
    max_k |S_k|, with S_k = (c0 - c2) + (c1 - c3)i from row k's symbol
    counts c_v.  The witness takes i = 0 (1 if k = 0) and (j, tau) from the
    window code of s_i - m_k, and is certified by ``z4_correlation``.

    Raises ConstructionError with the window witness if the members are not
    the cyclic classes, or with (i, j, tau, S_k) if the certificate fails.
    """
    A, n = np.array(family.members, dtype=np.int8), family.n
    codes, failure = _window_codes(A, family.polynomial, n)
    if failure is not None:
        raise ConstructionError(f"members are not the cyclic classes: {failure[0]}", witness=failure[1])
    c = np.stack([np.count_nonzero(A == v, axis=1) for v in range(4)])
    re, im = c[0] - c[2], c[1] - c[3]
    k = int(np.argmax(re * re + im * im))
    value, i = complex(int(re[k]), int(im[k])), int(k == 0)
    code = int("".join(map(str, (A[i, :n] - A[k, :n]) % 4)), 4)  # big-endian base 4
    j, tau = divmod(int(np.flatnonzero(codes.ravel() == code)[0]), family.period)
    if z4_correlation(family.members[i], family.members[j], tau) != value:
        raise ConstructionError(
            f"correlation of members {i}, {j} at shift {tau} is not member {k}'s symbol sum {value}",
            witness=(i, j, tau, value),
        )
    return abs(value)  # the square root of the exact norm re^2 + im^2


def family_to_json(family: FamilyA) -> dict:
    """Cache/export form: symbols as plain integers 0-3."""
    return {
        "n": family.n,
        "polynomial": list(family.polynomial),
        "members": [list(m) for m in family.members],
        "l0_index": 0,
    }


def family_from_json(doc: dict, verify: bool = True) -> FamilyA:
    """Rebuild a family from its export form, re-checking the cheap
    invariants: binary-valued member 0, distinct full cyclic classes of the
    recurrence (the members' n-windows partition the nonzero states, so no
    member repeats another or a rotation of it), and alignment at shift 0."""
    n = int(doc["n"])
    f = tuple(int(c) % 4 for c in doc["polynomial"])
    members = tuple(tuple(int(v) % 4 for v in m) for m in doc["members"])
    fam = FamilyA(n=n, polynomial=f, members=members)
    if verify:
        A = np.array(members, dtype=np.int8)  # ragged members raise ValueError
        if np.any(A[:1] % 2):
            raise ValueError("member 0 must be binary-valued (symbols in {0, 2})")
        failure = _window_codes(A, f, n)[1]
        if failure is not None:
            raise ValueError(f"members are not distinct cyclic classes: {failure[0]}")
        # one mod-2 reduction under members 1.. makes each difference of two 2x a
        # binary m-sequence (2^(n-1) twos, 2^(n-1) - 1 zeros): correlation -1 at 0
        off = np.flatnonzero(np.any((A[2:] - A[1]) % 2, axis=1))
        if off.size:
            raise ValueError(f"member {2 + int(off[0])} does not share member 1's mod-2 reduction")
    return fam
