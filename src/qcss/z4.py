"""Quaternary sequence machinery: the even/odd-split lift of a binary
primitive polynomial into Z4, linear recurrences over Z4, and the optimal
family of 2^n + 1 cyclically inequivalent sequences it generates.

Sequences are tuples of residues mod 4.  Correlations of raw Z4 sequences
are Gaussian integers and are computed here by exact integer counting, so
equality checks like "this value is -1" carry no floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binpoly
from .errors import ConstructionError

MAX_FAMILY_DEGREE = 12  # 4^n state enumeration; n = 12 takes minutes


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
    prod = [0] * (2 * n + 1)
    for i, a in enumerate(h):
        if a:
            for j, b in enumerate(h_neg):
                prod[i + j] += a * b
    # h(x) h(-x) is even in x; its even coefficients give f
    sign = -1 if n % 2 else 1
    f = tuple((sign * prod[2 * j]) % 4 for j in range(n + 1))
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
        acc = 0
        for j in range(n):
            acc += f[j] * s[t + j]
        s.append((-acc) % 4)
    return tuple(s[:length])


def _least_rotation_index(s) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    d = tuple(s) + tuple(s)
    n2 = len(d)
    fail = [-1] * n2
    k = 0
    for j in range(1, n2):
        sj = d[j]
        i = fail[j - k - 1]
        while i != -1 and sj != d[k + i + 1]:
            if sj < d[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != d[k + i + 1]:
            if sj < d[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


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


def _cyclic_orbits(f, n: int) -> list[list[int]]:
    """Partition the 4^n - 1 nonzero states into orbits of the shift map,
    returning each orbit as its symbol sequence (one full period)."""
    total = 1 << (2 * n)
    codes = np.arange(total, dtype=np.int64)
    acc = np.zeros(total, dtype=np.int64)
    for j in range(n):
        acc += f[j] * ((codes >> (2 * j)) & 3)
    nxt = ((codes >> 2) | (((-acc) % 4) << (2 * (n - 1)))).astype(np.int64)
    del codes, acc
    visited = np.zeros(total, dtype=bool)
    visited[0] = True
    orbits = []
    for start in range(1, total):
        if visited[start]:
            continue
        orbit = []
        c = start
        while True:
            orbit.append(c)
            visited[c] = True
            c = int(nxt[c])
            if c == start:
                break
        orbits.append([code & 3 for code in orbit])
    return orbits


def _aligned_rotation(symbols, ref) -> tuple[int, ...] | None:
    """Rotation of ``symbols`` whose zero-shift correlation with ``ref`` is
    exactly -1 + 0i, or None if no rotation qualifies.

    Candidate shifts are pre-filtered by matching the mod-2 reduction of the
    sequence against the reduction of ``ref`` (the aligned rotation must agree
    there); the exact integer correlation has the final word, with a full
    scan as fallback.
    """
    s = np.asarray(symbols, dtype=np.int64)
    r = np.asarray(ref, dtype=np.int64)
    period = len(r)
    bits = np.concatenate([s % 2, (s % 2)[: period - 1]])
    probe = (r % 2)[: min(period, 24)]
    w = len(probe)
    cands = [sh for sh in range(period) if np.array_equal(bits[sh : sh + w], probe)]
    for candidates in (cands, range(period)):
        for sh in candidates:
            rot = np.concatenate([s[sh:], s[:sh]])
            c = np.bincount((rot - r) % 4, minlength=4)
            if c[0] - c[2] == -1 and c[1] == c[3]:
                return tuple(int(v) for v in rot)
    return None


def build_family_a(n: int, coeffs=None) -> FamilyA:
    """Enumerate all nonzero solutions of the Z4 recurrence for degree n,
    partition them into cyclic classes, and return one aligned representative
    per class.

    Parameters
    ----------
    n : recurrence degree, 2 <= n <= MAX_FAMILY_DEGREE.
    coeffs : optional binary primitive polynomial overriding the built-in
        table entry for degree n.

    Raises
    ------
    ConstructionError
        if the class structure or the zero-shift alignment expected of the
        family fails empirically (this is the falsification path, never
        silently patched).
    """
    if not 2 <= n <= MAX_FAMILY_DEGREE:
        raise ValueError(f"degree must be in [2, {MAX_FAMILY_DEGREE}], got {n}")
    h = tuple(coeffs) if coeffs is not None else binpoly.primitive_polynomial(n)
    if binpoly.poly_degree(h) != n:
        raise ValueError("polynomial degree does not match n")
    f = graeffe_lift(h)
    period = (1 << n) - 1
    orbits = _cyclic_orbits(f, n)
    short = [o for o in orbits if len(o) != period]
    if short or len(orbits) != (1 << n) + 1:
        raise ConstructionError(
            f"expected {(1 << n) + 1} cyclic classes of size {period}, found "
            f"{len(orbits)} classes ({len(short)} with the wrong size)",
            witness=short[:1],
        )
    canon = []
    for sym in orbits:
        k = _least_rotation_index(sym)
        canon.append(tuple(sym[k:] + sym[:k]))
    even = [c for c in canon if all(v % 2 == 0 for v in c)]
    if len(even) != 1:
        raise ConstructionError(
            f"expected exactly one binary-valued class, found {len(even)}",
            witness=even,
        )
    rest = sorted(c for c in canon if c != even[0])
    members = [even[0], rest[0]]
    ref = rest[0]
    for c in rest[1:]:
        rot = _aligned_rotation(c, ref)
        if rot is None:
            raise ConstructionError(
                "no rotation of a class correlates to -1 with the reference member",
                witness=(ref, c),
            )
        members.append(rot)
    return FamilyA(n=n, polynomial=f, members=tuple(members))


def subset_l(family: FamilyA, verify: bool = True) -> tuple[tuple[int, ...], ...]:
    """The 2^n aligned members excluding the binary-valued one.

    With ``verify`` (default) every unordered pair is checked to correlate to
    exactly -1 + 0i at shift zero; a violation raises ConstructionError with
    the first failing pair (i < j) as witness.
    """
    L = family.members[1:]
    if verify:
        # i^v = x + iy with x, y in {-1, 0, 1}, and the zero-shift correlation
        # sum_t (x + iy)(x' - iy') is (x.x' + y.y') + i(y.x' - x.y'): one
        # matmul gives both parts as integer sums of at most 2N < 2^53 terms,
        # exact in float64.  Any entry that is not exactly -1 + 0i, integral
        # or not, fails its pair.
        A = np.array(L, dtype=np.int64)
        x = np.array([1.0, 0.0, -1.0, 0.0])[A]
        y = np.array([0.0, 1.0, 0.0, -1.0])[A]
        parts = np.block([[x, y], [y, -x]])
        re, im = np.split(parts @ parts[: len(L)].T, 2)
        bad = np.argwhere(np.triu((re != -1) | (im != 0), k=1))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise ConstructionError(
                f"zero-shift correlation of members {i + 1} and {j + 1} is "
                f"{complex(re[i, j], im[i, j])}, not -1",
                witness=(L[i], L[j]),
            )
    return L


def family_alpha_max(family: FamilyA, method: str = "auto") -> float:
    """Maximum correlation magnitude over all member pairs and shifts,
    excluding only the in-phase autocorrelation.

    ``method``: "exact" counts residues (integer arithmetic, the reference
    path), "fft" uses spectral cross-correlation, "auto" picks exact up to a
    memory budget.
    """
    A = np.array(family.members, dtype=np.int64)
    K, N = A.shape
    if method == "auto":
        method = "exact" if K * K * N <= 3 * 10**8 else "fft"
    if method == "exact":
        best = 0
        for tau in range(N):
            d = (A[:, None, :] - np.roll(A, -tau, axis=1)[None, :, :]) % 4
            re = (np.count_nonzero(d == 0, axis=2) - np.count_nonzero(d == 2, axis=2)).astype(np.int64)
            im = (np.count_nonzero(d == 1, axis=2) - np.count_nonzero(d == 3, axis=2)).astype(np.int64)
            sq = re * re + im * im
            if tau == 0:
                np.fill_diagonal(sq, 0)
            best = max(best, int(sq.max()))
        return math.sqrt(best)
    if method == "fft":
        Z = np.array([1, 1j, -1, -1j])[A]
        X = np.fft.fft(Z, axis=1)
        best = 0.0
        for i in range(K):
            spec = X[i] * np.conj(X[i:])
            c = np.fft.ifft(spec, axis=1)
            mags = np.abs(c)
            mags[0, 0] = 0.0  # in-phase autocorrelation of member i
            best = max(best, float(mags.max()))
        return best
    raise ValueError(f"unknown method {method!r}")


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
    invariants (count, recurrence membership, binary-valued member 0)."""
    n = int(doc["n"])
    f = tuple(int(c) % 4 for c in doc["polynomial"])
    members = tuple(tuple(int(v) % 4 for v in m) for m in doc["members"])
    fam = FamilyA(n=n, polynomial=f, members=members)
    if verify:
        period = fam.period
        if len(members) != (1 << n) + 1:
            raise ValueError("member count does not match 2^n + 1")
        if any(len(m) != period for m in members):
            raise ValueError("member period mismatch")
        if any(v % 2 for v in members[0]):
            raise ValueError("member 0 must be binary-valued (symbols in {0, 2})")
        fa = np.array(f[:n], dtype=np.int64)
        for m in members:
            s = np.array(m, dtype=np.int64)
            acc = np.zeros(period, dtype=np.int64)
            for j in range(n):
                acc += fa[j] * np.roll(s, -j)
            if np.any((np.roll(s, -n) + acc) % 4):
                raise ValueError("a member does not satisfy the recurrence")
    return fam
