"""Quaternary sequence machinery: the even/odd-split lift of a binary
primitive polynomial into Z4, linear recurrences over Z4, and the optimal
family of 2^n + 1 cyclically inequivalent sequences it generates (Family A
of Boztas, Hammons and Kumar), built from one recurrence run and stored as
one int8 (K, N) array.

Sequences are tuples or int8 arrays of residues mod 4.  Correlations of raw
Z4 sequences are Gaussian integers, counted exactly (no FFT, no rounding),
so equality checks like "this value is -1" carry no floating-point slack.
No check of the family sums a correlation census: once the members are
shown to be the cyclic classes, alpha_max follows from their symbol sums
and subset L's -1 at shift zero from one shared reduction mod 2, both in
O(K N).  The members ``build_family_a`` writes are shown so by the same
subset-L coset check the correlation census runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import binpoly
from .errors import ConstructionError

# The build with its checks takes ~2.5 ms at n = 10 and ~34 ms at n = 12 (2-core
# VM, in process, best of 5), 1.3 ms and 22 ms of it the aligned certificate;
# family_alpha_max adds ~1.5 ms and ~25 ms, family_json_bytes ~1 ms and ~26 ms.
# Its 151 MB buffer sets most of the ~0.21 GB peak of `qcss family --n 12`.
MAX_FAMILY_DEGREE = 12
_BLOCK_CODES = 1 << 18  # window codes the aligned certificate forms at once (1 MB)


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


@dataclass(frozen=True, eq=False)
class FamilyA:
    """The set of 2^n + 1 canonical representatives of the cyclic classes of
    nonzero solutions of the Z4 recurrence, stored once as the read-only int8
    (K, N) array ``array`` of residues mod 4, one member per row.

    Row 0 is the binary-valued class (symbols in {0, 2}); rows 1.. are
    rotation-aligned so every pair of them correlates to exactly -1 at shift
    zero.  The constructor takes any 2-D integer array-like and copies it;
    ragged rows, another number of dimensions or non-integer symbols raise
    ValueError.  Two families are equal when n, the polynomial and every
    symbol agree.  Neither changes, so the certificate is computed once: the
    aligned check for the layout ``build_family_a`` writes, else the window
    check.  It keeps each row's first and least window code, not all K N.
    """

    n: int
    polynomial: tuple[int, ...]  # Z4 coefficients, constant term first
    array: np.ndarray

    def __post_init__(self):
        try:
            A = np.asarray(self.array)
        except ValueError as exc:  # nested sequences of unequal length
            raise ValueError("family members must be rows of equal length") from exc
        if A.ndim != 2 or A.dtype.kind not in "iu":
            raise ValueError(f"family members must be a 2-D integer array, got shape {A.shape} of {A.dtype}")
        A = A.astype(np.int8)  # always a copy, so no caller keeps a writable alias
        A.setflags(write=False)
        object.__setattr__(self, "array", A)
        object.__setattr__(self, "polynomial", tuple(self.polynomial))

    def __eq__(self, other):
        if not isinstance(other, FamilyA):
            return NotImplemented
        return (self.n, self.polynomial) == (other.n, other.polynomial) and np.array_equal(self.array, other.array)

    @cached_property
    def _certificate(self) -> _Certificate:
        return _family_certificate(self.array, self.polynomial, self.n)

    @property
    def period(self) -> int:
        return (1 << self.n) - 1

    @property
    def size(self) -> int:
        return len(self.array)

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The members as a tuple of symbol tuples, built on each access."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def l0(self) -> tuple[int, ...]:
        return tuple(self.array[0].tolist())


def _windows(rows: np.ndarray, f, n: int):
    """Big-endian base-4 codes of the cyclic n-windows of rows of period N
    ([k, t] encodes rows[k, t .. t + n - 1], indices mod N), and each row's
    recurrence residue, nonzero mod 4 wherever the row breaks the recurrence
    with polynomial f."""
    # column t + j of the rows extended by their first n columns is symbol
    # t + j mod N, so every window is a slice; int8 sums wrap mod 256, which
    # keeps every residue mod 4, and & 3 takes the residue
    N = rows.shape[1]
    ext = np.concatenate([rows, rows[:, :n]], axis=1, dtype=np.int8)
    ext &= 3
    acc = ext[:, n:].copy()
    term = np.empty_like(acc)
    codes = np.zeros(rows.shape, dtype=np.int32)  # 4^n < 2^31 up to MAX_FAMILY_DEGREE
    for j in range(n):
        window = ext[:, j : j + N]
        codes <<= 2
        codes |= window
        if f[j] % 4:
            np.multiply(window, f[j] % 4, out=term)
            acc += term
    return codes, acc


def _window_codes(rows: np.ndarray, f, n: int):
    """The codes of ``_windows`` for 2^n + 1 rows of period 2^n - 1, and None
    if the rows are one full cyclic class each of the recurrence with
    polynomial f, else (message, witness).

    Each row must satisfy the recurrence cyclically and the 4^n - 1 codes
    must hit every nonzero state once: they do iff none is zero and all are
    distinct (pigeonhole), so one boolean mask decides it.  This is the
    general certificate, for rows in any order and rotation.
    """
    if rows.shape != ((1 << n) + 1, (1 << n) - 1):
        return None, (f"shape {rows.shape} is not 2^n + 1 rows of period 2^n - 1", rows.shape)
    codes, acc = _windows(rows, f, n)
    broken = np.flatnonzero(np.any(acc & 3, axis=1))
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


def coset_codes(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certify in O(n N + K N) that the (K, N) base is subset L, the rows v_0
    + 2 beta for all 2^n beta in the binary recurrence space B of m = row 0
    mod 2.  Return m's window codes (bit j of code[t] is m(t + j)) and each
    row's shift: beta_k = m(. + shift[k]), or shift[k] = -1 where beta_k = 0.

    The codes must be every nonzero state once, and m(. + n) a sum of the
    windows m(. + j), j < n, so that B is 0 and the rotations of m.  Each
    beta_k = (v_k - v_0) / 2 (so rows share row 0's parity) is read off its
    first window a_k: it must be m(. + pos[a_k]), with code[pos[a]] = a, or
    0 when a_k = 0, and the K first windows must be distinct.  A shape other
    than 2^n x (2^n - 1), n >= 2, raises ValueError, and a failed check
    ConstructionError with a witness.
    """
    K, N = base.shape
    n = K.bit_length() - 1
    if n < 2 or K != 1 << n or N != K - 1:
        raise ValueError(f"the census needs a base of 2^n rows of period 2^n - 1, n >= 2, got shape {base.shape}")
    bits = 1 << np.arange(n)
    m = base[0] & 1
    rotations = np.lib.stride_tricks.sliding_window_view(np.concatenate([m, m[:-1]]), N)  # row s: m(. + s)
    code = bits @ rotations[:n]
    seen = np.bincount(code, minlength=K)
    if seen[0] or seen.max() > 1:  # N codes: with no zero and no repeat, each nonzero state once
        bad = 0 if seen[0] else int(np.argmax(seen > 1))
        where = tuple(np.flatnonzero(code == bad)[:2].tolist())
        raise ConstructionError(f"row 0 mod 2 is not an m-sequence: window code {bad} sits at shifts {where}",
                                witness=(bad, where))
    diff = base - base[0]
    diff &= 3
    odd = diff & 1
    if odd.any():
        k, t = np.argwhere(odd)[0].tolist()
        raise ConstructionError(f"row {k} and row 0 differ by an odd symbol at t = {t}", witness=(k, t))
    pos = np.zeros(K, dtype=np.intp)
    pos[code] = np.arange(N)
    # m(. + n) at the shifts of the unit windows gives the taps of m's recurrence
    # x(t + n) = XOR_j taps_j x(t + j); a cyclic solution is fixed by its first
    # n symbols, so once m passes, B is 0 and the rotations of m
    taps = np.flatnonzero(rotations[n, pos[bits]])
    broken = np.flatnonzero(np.bitwise_xor.reduce(rotations[[*taps, n]], axis=0))
    if broken.size:
        t = int(broken[0])
        raise ConstructionError(f"m(. + n) is not a sum of the windows m(. + j), j < n: it differs at t = {t}",
                                witness=(K, t))
    a = (diff[:, :n] >> 1) @ bits  # each beta_k's first window
    expected = rotations[pos[a]]
    expected[a == 0] = 0
    expected <<= 1  # 2 beta_k, if beta_k is in B
    wrong = expected != diff
    if wrong.any():
        # beta_k agrees with expected on its first window, so the recurrence
        # first breaks at t = p - n, p the first symbol where they differ
        k, p = np.argwhere(wrong)[0].tolist()
        raise ConstructionError(f"(row {k} - row 0) / 2 is not a sum of the windows m(. + j), j < n: "
                                f"it differs at t = {p - n}", witness=(k, p - n))
    counts = np.bincount(a)
    if counts.max() > 1:
        k, l = np.flatnonzero(a == np.argmax(counts))[:2].tolist()
        raise ConstructionError(f"rows {k} and {l} are one element of the coset", witness=(k, l))
    return code, np.where(a > 0, pos[a], -1)


class _Certificate(NamedTuple):
    """What the family check found: the ``_window_codes`` failure, or each
    row's first and least n-window code, and whether the rows are in the
    aligned layout, which also proves subset L's alignment."""

    failure: tuple | None
    first: np.ndarray | None = None
    least: np.ndarray | None = None
    aligned: bool = False


def _aligned_certificate(A: np.ndarray, f, n: int) -> _Certificate | None:
    """The certificate of rows in ``build_family_a``'s aligned layout, or
    None if they are not in it; O(n N + K N).

    Row 1 must satisfy the recurrence, rows 1.. must pass ``coset_codes``,
    and row 0 must be 2m(. + shift[0]).  Row 1 mod 2 is then an m-sequence,
    so row 1's states span Z4^n and every solution has period N; rows 1..
    are 2^n distinct unit classes (rotating one changes its reduction mod 2)
    and row 0 is the even class, so the windows are every nonzero state
    once.  (s + 2b) mod 4 is s XOR 2b, so row k's codes are row 1's XOR those
    of 2 beta_k.
    """
    K, N = (1 << n) + 1, (1 << n) - 1
    if A.shape != (K, N):
        return None
    m = A[1] & 1
    (c1, high), acc = _windows(np.stack([A[1], 2 * m]), f, n)
    if np.any(acc & 3):  # 2m satisfies the recurrence whenever row 1 does
        return None
    try:
        code, shift = coset_codes(A[1:])
    except ConstructionError:
        return None
    # the one rotation of m whose first window is half row 0's
    where = np.flatnonzero(code == ((A[0, :n] & 3) >> 1) @ (1 << np.arange(n)))
    if not where.size or np.any((A[0] & 3) != 2 * np.roll(m, -where[0])):
        return None
    shift = np.concatenate([where[:1], shift])
    first, least = np.empty(K, dtype=np.int32), np.empty(K, dtype=np.int32)
    first[0], least[0] = high[shift[0]], high.min()  # row 0's codes are high(. + shift[0])
    rotations = np.lib.stride_tricks.sliding_window_view(np.concatenate([high, high[:-1]]), N)
    step = max(1, _BLOCK_CODES // N)
    for start in range(1, K, step):  # the codes c1 ^ high(. + shift[k]) of a cache-sized block of rows
        rows = shift[start : start + step]
        codes = rotations[rows]
        codes[rows < 0] = 0
        codes ^= c1
        first[start : start + step], least[start : start + step] = codes[:, 0], codes.min(axis=1)
    return _Certificate(None, first, least, aligned=True)


def _family_certificate(A: np.ndarray, f, n: int) -> _Certificate:
    """The aligned certificate, or ``_window_codes``'s for rows outside that
    layout and to name the witness of rows that are no family."""
    cert = _aligned_certificate(A, f, n)
    if cert is not None:
        return cert
    codes, failure = _window_codes(A, f, n)
    if failure is not None:
        return _Certificate(failure)
    return _Certificate(None, codes[:, 0], codes.min(axis=1))


def check_family_degree(n: int) -> None:
    """Refuse a degree outside [2, MAX_FAMILY_DEGREE]: the one degree bound
    of the family and of every census run on it."""
    if not 2 <= n <= MAX_FAMILY_DEGREE:
        raise ValueError(f"degree must be in [2, {MAX_FAMILY_DEGREE}], got {n}")


def build_family_a(n: int, coeffs=None) -> FamilyA:
    """Build one canonical, aligned representative per cyclic class from
    s_1, the recurrence run from the state (0, ..., 0, 1).

    Code 1 is the least unit state, so s_1 is member 1 at its least
    rotation.  Two Z4 solutions with one reduction mod 2 differ by twice a
    binary solution, so the 2^n unit classes aligned with s_1 are s_1 + 2b,
    b = 0 or m(. + j), j < N, with m = s_1 mod 2.  Member 0 is 2m, which
    starts at the least binary-valued state (0, ..., 0, 2).  The aligned
    certificate proves these are the cyclic classes; members 2.. go by least
    window code.

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
    check_family_degree(n)
    h = tuple(coeffs) if coeffs is not None else binpoly.primitive_polynomial(n)
    if binpoly.poly_degree(h) != n:
        raise ValueError("polynomial degree does not match n")
    f = graeffe_lift(h)
    N = (1 << n) - 1
    s1 = np.array(run_z4_recurrence(f, (0,) * (n - 1) + (1,)), dtype=np.int8)
    shifts = np.lib.stride_tricks.sliding_window_view(np.tile(2 * (s1 & 1), 2)[:-1], N)  # row j: 2m(. + j)
    rows = np.vstack([shifts[0], s1, (s1 + shifts) & 3])
    cert = _family_certificate(rows, f, n)
    if cert.failure is not None:
        message, witness = cert.failure
        raise ConstructionError(f"constructed rows are not the cyclic classes: {message}", witness=witness)
    order = np.concatenate([[0, 1], 2 + np.argsort(cert.least[2:])])
    family = FamilyA(n=n, polynomial=f, array=rows[order])
    # rows built this way pass the window check only in the aligned layout,
    # whose certificate also proves their alignment; the family keeps it in
    # member order
    vars(family)["_certificate"] = cert._replace(first=cert.first[order], least=cert.least[order])
    return family


def _first_unaligned(A: np.ndarray) -> int | None:
    """The first row j >= 2 of A whose reduction mod 2 differs from row 1's,
    or None if rows 1.. share one reduction."""
    off = np.flatnonzero(np.any((A[2:] ^ A[1]) & 1, axis=1))
    return 2 + int(off[0]) if off.size else None


def _certify_alignment(A: np.ndarray) -> None:
    """Raise ConstructionError, with witness (row 1, row j) as symbol tuples
    and their exact zero-shift correlation in the message, unless rows 1.. of
    the window-checked members A share one reduction mod 2."""
    j = _first_unaligned(A)
    if j is not None:
        raise ConstructionError(
            f"member {j} does not share member 1's reduction mod 2: their "
            f"zero-shift correlation is {z4_correlation(A[1], A[j])}, not certified -1",
            witness=(tuple(A[1].tolist()), tuple(A[j].tolist())),
        )


def subset_l(family: FamilyA, verify: bool = True) -> np.ndarray:
    """The 2^n aligned members excluding the binary-valued one, as the
    read-only int8 (2^n, N) view ``family.array[1:]``.

    With ``verify`` (default) the O(K N) certificate proves that every pair
    correlates to exactly -1 + 0i at shift zero.  The members must be
    distinct full cyclic classes of the recurrence, and members 1.. must
    share one reduction mod 2.  For the layout ``build_family_a`` writes,
    the aligned certificate (members 1.. pass the census's coset check)
    proves both; otherwise the n-windows must be every nonzero state once,
    and the reductions are compared.  For two of members 1.., u = s_i - s_j
    is a solution of the linear recurrence with even symbols, and nonzero
    because the classes are distinct: u = 2v with v a nonzero solution of
    the binary recurrence.  All 2^n - 1 nonzero even states lie on one
    class, so the binary recurrence runs through every nonzero state in one
    cycle, its polynomial is primitive and v is a binary m-sequence.  So u
    has 2^(n-1) twos and 2^(n-1) - 1 zeros, and sum_t i^(u_t) = -1.

    Raises ConstructionError with the window witness if the members are not
    the cyclic classes, or with the pair (member 1, member j), as symbol
    tuples, for the first member j that does not share member 1's reduction;
    the message gives that pair's exact ``z4_correlation``.
    """
    A = family.array
    if verify:
        cert = family._certificate
        if cert.failure is not None:
            raise ConstructionError(f"members are not the cyclic classes: {cert.failure[0]}", witness=cert.failure[1])
        if not cert.aligned:
            _certify_alignment(A)
    return A[1:]


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
    window code of s_i - m_k, found among the rows' first codes (always, in
    the aligned layout), and is certified by ``z4_correlation``.

    Raises ConstructionError with the window witness if the members are not
    the cyclic classes, or with (i, j, tau, S_k) if the certificate fails.
    """
    A, n = family.array, family.n
    cert = family._certificate
    if cert.failure is not None:
        raise ConstructionError(f"members are not the cyclic classes: {cert.failure[0]}", witness=cert.failure[1])
    c = np.stack([np.count_nonzero(A == v, axis=1) for v in range(4)])
    re, im = c[0] - c[2], c[1] - c[3]
    k = int(np.argmax(re * re + im * im))
    value, i = complex(int(re[k]), int(im[k])), int(k == 0)
    code = int("".join(map(str, (A[i, :n] - A[k, :n]) % 4)), 4)  # big-endian base 4
    # in the aligned layout s_i - m_k is a unit member in phase: -s_1 = s_1 + 2m
    # makes it s_1 + 2 gamma with gamma in B, so its window is one row's first
    hit = np.flatnonzero(cert.first == code)
    if hit.size:
        j, tau = int(hit[0]), 0
    else:  # members outside that layout: scan their windows
        codes, _ = _window_codes(A, family.polynomial, n)
        j, tau = divmod(int(np.flatnonzero(codes.ravel() == code)[0]), family.period)
    if z4_correlation(A[i], A[j], tau) != value:
        raise ConstructionError(
            f"correlation of members {i}, {j} at shift {tau} is not member {k}'s symbol sum {value}",
            witness=(i, j, tau, value),
        )
    return abs(value)  # the square root of the exact norm re^2 + im^2


def _family_doc(family: FamilyA, members: list) -> dict:
    return {"n": family.n, "polynomial": list(family.polynomial), "members": members, "l0_index": 0}


def family_to_json(family: FamilyA) -> dict:
    """Cache/export form: symbols as plain integers 0-3."""
    return _family_doc(family, family.array.tolist())


def family_json_bytes(family: FamilyA) -> memoryview:
    """The ASCII bytes of ``json.dumps(family_to_json(family), indent=2) +
    "\\n"``, byte for byte, built from the member array instead of one Python
    object per symbol, as a read-only view of one uint8 buffer.

    Each member is a fixed-width block of 9N + 12 bytes: its opening line,
    N - 1 symbol lines "      d,", the last symbol line without the comma and
    the closing line "    ],".  All K blocks are filled at once in the buffer
    that also holds the text before and after them; the text after them
    overwrites the last block's ",\n".
    """
    K, N = family.array.shape
    row = b"    [\n" + b"      0,\n" * (N - 1) + b"      0\n    ],\n"
    head, tail = json.dumps(_family_doc(family, []), indent=2).split("[]")
    head, tail = f"{head}[\n".encode(), f"\n  ]{tail}\n".encode()
    buf = np.empty(len(head) + K * len(row) - 2 + len(tail), dtype=np.uint8)
    blocks = buf[len(head) : len(head) + K * len(row)].reshape(K, len(row))
    blocks[:] = np.frombuffer(row, dtype=np.uint8)
    blocks[:, 12::9] += family.array.view(np.uint8)  # symbol t sits at byte 12 + 9t
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    buf[len(buf) - len(tail) :] = np.frombuffer(tail, dtype=np.uint8)
    buf.setflags(write=False)
    return memoryview(buf)


def family_json_text(family: FamilyA) -> str:
    """``family_json_bytes`` decoded: the indented JSON dump as a str."""
    return str(family_json_bytes(family), "ascii")


def family_from_json(doc: dict, verify: bool = True) -> FamilyA:
    """Rebuild a family from its export form, re-checking the cheap
    invariants: binary-valued member 0, distinct full cyclic classes of the
    recurrence (the members' n-windows partition the nonzero states, so no
    member repeats another or a rotation of it), alignment at shift 0, and
    the canonical form ``build_family_a`` writes: members 0 and 1 start at
    their least window code, and members 1.. are ordered by it.

    A document that lacks a key, holds a value of the wrong type, or has a
    symbol other than the integers 0-3 or members of unequal length raises
    ValueError."""
    if not isinstance(doc, dict) or not {"n", "polynomial", "members"} <= doc.keys():
        raise ValueError("a family document is an object with the keys n, polynomial and members")
    n, poly, members = doc["n"], doc["polynomial"], doc["members"]
    if type(n) is not int:
        raise ValueError(f"family degree must be an integer, got {n!r}")
    check_family_degree(n)
    if not isinstance(poly, list) or len(poly) != n + 1 or any(type(c) is not int for c in poly):
        raise ValueError(f"family polynomial must be {n + 1} integers, got {poly!r}")
    lists = isinstance(members, list) and all(type(m) is list for m in members)
    if not lists or len({len(m) for m in members}) != 1 or not members[0]:
        raise ValueError("family members must be a non-empty list of non-empty lists of equal length")
    try:  # bytes() takes only integers in [0, 256)
        A = np.frombuffer(b"".join(map(bytes, members)), np.uint8).reshape(len(members), -1)
    except (TypeError, ValueError):
        A = None
    if A is None or np.any(A > 3):
        raise ValueError("family symbols must be the integers 0-3")
    fam = FamilyA(n=n, polynomial=tuple(c % 4 for c in poly), array=A)
    if verify:
        if np.any(A[:1] % 2):
            raise ValueError("member 0 must be binary-valued (symbols in {0, 2})")
        cert = fam._certificate
        if cert.failure is not None:
            raise ValueError(f"members are not distinct cyclic classes: {cert.failure[0]}")
        # subset_l's certificate: one reduction mod 2 under members 1.. makes
        # every pair of them correlate to -1 at shift zero
        j = None if cert.aligned else _first_unaligned(A)
        if j is not None:
            raise ValueError(f"member {j} does not share member 1's mod-2 reduction")
        # build_family_a's canonical form; with the shared reduction it fixes
        # the rotation of members 2.. too
        for k in (0, 1):
            if cert.first[k] != cert.least[k]:
                raise ValueError(f"member {k} does not start at its least rotation")
        if np.any(np.diff(cert.least[1:]) <= 0):
            raise ValueError("members 1.. are not ordered by their least window code")
    return fam
