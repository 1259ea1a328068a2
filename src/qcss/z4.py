"""Quaternary sequence machinery: the even/odd-split lift of a binary
primitive polynomial into Z4, linear recurrences over Z4, the optimal
family of 2^n + 1 cyclically inequivalent sequences it generates (Family A
of Boztas, Hammons and Kumar), built from one recurrence run, and the
integer Walsh-Hadamard transform that reads its sums off m's window codes.

Sequences are tuples or int8 arrays of residues mod 4.  Correlations of raw
Z4 sequences are Gaussian integers, counted exactly (no FFT, no rounding),
so equality checks like "this value is -1" carry no floating-point slack.
A ``FamilyA`` is made from (n, h) alone and certified once, in O(n N), from
s_1 alone: s_1 closes its period and m = s_1 mod 2 is an m-sequence.  Its
int8 (K, N) member array is formed on first access, and only subset L and
the exports read it: subset L's -1 at shift zero follows from the members'
shared reduction mod 2, and alpha_max from one transform of i^(s_1) placed
at m's window codes, in O(n 2^n).  Member 1 + a is s_1 + 2 beta_a for code
a, the one such family for a primitive h, so only a family document, read
from outside the program, is compared with the build for its polynomial mod 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import binpoly
from .errors import ConstructionError

# Making the family, its two checks included, takes ~0.3-0.5 ms at n = 10
# and ~1.0 ms at n = 12, and forming its array ~0.2-0.3 ms and ~1.6 ms more
# (2-core VM, in process, best of 30 and 15); family_alpha_max, which never
# forms it, adds ~0.2-0.4 ms and ~0.5 ms, family_json_bytes ~0.9 ms and
# ~12 ms.  Its 34 MB buffer is part of the ~78 MB peak of `qcss family --n 12`.
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


def run_z4_recurrence(coeffs, init) -> tuple[int, ...]:
    """Run the order-n linear recurrence over Z4 with characteristic
    polynomial f(x) = x^n + c_{n-1} x^{n-1} + ... + c_0:

        s(t+n) = -(c_{n-1} s(t+n-1) + ... + c_0 s(t)) mod 4

    and return the first 2^n - 1 symbols.

    The states (s(t), ..., s(t+n-1)) grow by doubling: with C the companion
    matrix of f, state t + L is state t times C^L, so the first L states
    give the next L, and C^L is squared each round.
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
    length = (1 << n) - 1
    step = np.eye(n, k=-1, dtype=np.int64)  # C: state @ C is the next state
    step[:, -1] = [-c % 4 for c in f[:n]]
    states = np.empty((length, n), dtype=np.int64)
    states[0] = init
    filled = 1
    while filled < length:
        grow = min(filled, length - filled)
        states[filled : filled + grow] = states[:grow] @ step % 4
        filled += grow
        if filled < length:  # another round follows
            step = step @ step % 4
    return tuple(states[:, 0].tolist())


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


def _rotations(row: np.ndarray) -> np.ndarray:
    """The read-only (N, N) view whose row s is row(. + s), indices mod N:
    row s starts s items into row doubled."""
    d = np.concatenate([row, row[:-1]])
    return np.lib.stride_tricks.as_strided(d, (len(row), len(row)), d.strides * 2, writeable=False)


def _walsh_hadamard(planes: np.ndarray) -> None:
    """Walsh-Hadamard transform of integer planes over their first axis,
    whose length is a power of two, in place.

    A butterfly is x += y, y *= -2, y += x, with no temporary.  Integer
    arrays add and multiply modulo 2^bits, so every result is right modulo
    2^bits, even where -2y leaves the dtype's range (y = -64 in int8), and
    exact wherever the true output fits the dtype.
    """
    inner = planes[0].size
    for j in range(len(planes).bit_length() - 1):
        pairs = planes.reshape(-1, 2, inner << j)
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2
        y += x


def _m_sequence_codes(windows: np.ndarray) -> np.ndarray:
    """The codes of m's n-bit windows, given as the (n, N) rows m(. + j), j <
    n (bit j of code[t] is m(t + j)), certified to be every nonzero state
    once when N = 2^n - 1: so m is an m-sequence.  Else ConstructionError
    with the least code that is 0 or repeats, and its first two shifts."""
    n = len(windows)
    code = (1 << np.arange(n)) @ windows
    seen = np.bincount(code, minlength=1 << n)
    if seen[0] or seen.max() > 1:  # N codes: with no zero and no repeat, each nonzero state once
        bad = 0 if seen[0] else int(np.argmax(seen > 1))
        where = tuple(np.flatnonzero(code == bad)[:2].tolist())
        raise ConstructionError(f"row 0 mod 2 is not an m-sequence: window code {bad} sits at shifts {where}",
                                witness=(bad, where))
    return code


def check_family_degree(n: int) -> None:
    """Refuse a degree outside [2, MAX_FAMILY_DEGREE]: the one degree bound
    of the family and of every census run on it."""
    if not 2 <= n <= MAX_FAMILY_DEGREE:
        raise ValueError(f"degree must be in [2, {MAX_FAMILY_DEGREE}], got {n}")


@dataclass(frozen=True)
class FamilyA:
    """Family A of the binary primitive polynomial h of degree n: one
    representative of each of the 2^n + 1 cyclic classes of nonzero
    solutions of the Z4 recurrence with f = ``polynomial``, the lift of h,
    in code order.  Two families are equal when n and h are.

    It is made from (n, h) alone and certified once, when it is made, in
    O(n N), from s_1, the recurrence run from the state (0, ..., 0, 1): s_1
    closes its period (f acting on it is zero at every t mod N), and m's
    n-bit windows are every nonzero state once.  Then m = s_1 mod 2, a
    solution of f mod 2, is an m-sequence, so B, the 2^n binary solutions,
    is 0 and the N distinct rotations of m; 2 beta solves the Z4 recurrence
    for every beta in B, so the rows s_1 + 2 beta are the 2^n unit classes,
    apart since their first windows differ and a rotation moves their
    reduction mod 2, and 2m is the even class.  Only a wrong lift f can make
    these rows other than the cyclic classes.

    It holds, read-only, the int8 ``s1`` and ``codes``, the int64 window
    codes of m (bit j of codes[t] is m(t + j)).  The read-only int8 (K, N)
    member array ``array`` is formed on first access, in code order: row 0
    is 2m, and row 1 + a is s_1 + 2 beta_a for the code a, as in
    ``family_alpha_max`` and the census; the 2^n beta_a are B, so every
    pair of rows 1.. correlates to exactly -1 at shift zero.

    Raises ValueError for a degree outside [2, MAX_FAMILY_DEGREE], an h of
    another degree or one that is not primitive, and ConstructionError with
    witness (1, t) for the first t at which s_1 breaks the recurrence, or
    (code, shifts) from the m-sequence check (the falsification path, never
    silently patched).
    """

    n: int
    h: tuple[int, ...]  # binary coefficients, constant term first
    polynomial: tuple[int, ...] = field(init=False, repr=False, compare=False)  # the lift f, over Z4
    s1: np.ndarray = field(init=False, repr=False, compare=False)
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, h = self.n, tuple(self.h)
        check_family_degree(n)
        if binpoly.poly_degree(h) != n:
            raise ValueError("polynomial degree does not match n")
        f = graeffe_lift(h)
        s1 = np.array(run_z4_recurrence(f, (0,) * (n - 1) + (1,)), dtype=np.int8)
        rotations = _rotations(s1)  # row j: s_1(. + j)
        broken = np.flatnonzero(np.array(f) @ rotations[: n + 1] & 3)
        if broken.size:
            t = int(broken[0])
            raise ConstructionError(f"row 1 does not satisfy the recurrence: it breaks at t = {t}", witness=(1, t))
        codes = _m_sequence_codes(rotations[:n] & 1)
        s1.setflags(write=False)
        codes.setflags(write=False)
        for name, value in (("h", h), ("polynomial", f), ("s1", s1), ("codes", codes)):
            object.__setattr__(self, name, value)

    @cached_property
    def array(self) -> np.ndarray:
        """The members in code order: row 0 is 2m, and row 1 + a is s_1 XOR
        2 beta_a, beta_a(t) = a . code[t] mod 2, for a = 0..2^n - 1, so row
        1 is s_1.  As beta_(a + 2^j) = beta_a XOR m(. + j) for a < 2^j, the
        rows 1 + 2^j.. are the rows 1.. XOR 2m(. + j): n doubling XORs."""
        shifts = _rotations(2 * (self.s1 & 1))  # row j: 2m(. + j)
        rows = np.empty((self.size, self.period), dtype=np.int8)
        rows[0], rows[1] = shifts[0], self.s1
        for j in range(self.n):
            np.bitwise_xor(rows[1 : 1 + (1 << j)], shifts[j], out=rows[1 + (1 << j) : 1 + (2 << j)])
        rows.setflags(write=False)
        return rows

    @property
    def period(self) -> int:
        return (1 << self.n) - 1

    @property
    def size(self) -> int:
        return (1 << self.n) + 1

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The members as a tuple of symbol tuples, built on each access."""
        return tuple(map(tuple, self.array.tolist()))


def build_family_a(n: int, coeffs=None) -> FamilyA:
    """The family of degree n, 2 <= n <= MAX_FAMILY_DEGREE, for the binary
    primitive polynomial ``coeffs``, or else for the built-in table entry
    for degree n; raises as ``FamilyA`` does."""
    check_family_degree(n)
    return FamilyA(n, tuple(coeffs) if coeffs is not None else binpoly.primitive_polynomial(n))


def subset_l(family: FamilyA, verify: bool = True) -> np.ndarray:
    """The 2^n aligned members excluding the binary-valued one, as the
    read-only int8 (2^n, N) view ``family.array[1:]``.

    Every pair correlates to exactly -1 + 0i at shift zero, as the checks
    made with the family prove: members 1.. are s_1 + 2 beta for distinct
    beta in B, the binary recurrence space of m = s_1 mod 2, an m-sequence.
    For two of them u = s_i - s_j is twice the nonzero beta_i - beta_j in B,
    a rotation of m, so u has 2^(n-1) twos and 2^(n-1) - 1 zeros, and
    sum_t i^(u_t) = -1.  ``verify`` selects nothing, since every FamilyA is
    certified when it is made; it is kept for callers that still pass it.
    """
    return family.array[1:]


def family_alpha_max(family: FamilyA) -> float:
    """Maximum correlation magnitude over all member pairs and shifts,
    excluding only the in-phase autocorrelation, without summing one.

    The recurrence is linear, so u = s_i - s_j(. + tau) is a solution: zero
    only in phase, else a rotation of the member m_k whose window it shares,
    so C_ij(tau) = S_k = sum_t i^(m_k(t)).  And for i != k, s_i - m_k is a
    rotation s_j(. + tau) of a member, so every S_k occurs: the result is
    max_k |S_k|.  The unit member 1 + a is s_1 + 2 beta_a, beta_a(t) =
    a . code[t] mod 2, for each of the 2^n codes a, so one Walsh-Hadamard
    transform of i^(s_1(t)) placed at code[t] gives every S_a.  Member 0,
    2m, sums to -1, while by Parseval the |S_a|^2 average N >= 3, so alpha
    is |S_a| at the first argmax a.  As s_1 + 2 beta_a reduces to m mod 2,
    2m minus it is itself mod 4: ``z4_correlation`` of 2m and s_1 XOR
    2 beta_a at shift zero certifies the witness (a, S_a), else
    ConstructionError with it.
    """
    s1, n = family.s1, family.n
    planes = np.zeros((1 << n, 2), dtype=np.int64)  # real, imaginary
    planes[family.codes, s1 & 1] = 1 - (s1 & 2)  # i^(s_1(t)) at code[t]
    _walsh_hadamard(planes)
    re, im = planes.T
    a = int(np.argmax(re * re + im * im))
    value = complex(int(re[a]), int(im[a]))
    beta = (a >> np.arange(n) & 1) @ _rotations(s1 & 1)[:n] & 1  # a . code[t] mod 2
    if z4_correlation(2 * (s1 & 1), s1 ^ 2 * beta, 0) != value:
        raise ConstructionError(f"correlation of 2m and s_1 + 2 beta_{a} at shift 0 is not its symbol sum {value}",
                                witness=(a, value))
    return abs(value)  # the square root of the exact norm re^2 + im^2


def _family_doc(family: FamilyA, members: list) -> dict:
    return {"n": family.n, "polynomial": list(family.polynomial), "members": members, "l0_index": 0}


def family_to_json(family: FamilyA) -> dict:
    """Cache/export form: symbols as plain integers 0-3."""
    return _family_doc(family, family.array.tolist())


def family_json_bytes(family: FamilyA) -> memoryview:
    """The export text of ``family_to_json(family)`` as ASCII bytes: laid
    out as ``json.dumps(..., indent=2) + "\\n"``, except that each member is
    one compact line "    [d,d,...,d],".  It is built from the member array,
    without one Python object per symbol, as a read-only view of one uint8
    buffer.

    Each member is a fixed-width block of 2N + 7 bytes, symbol t at byte
    5 + 2t.  All K blocks are filled at once in the buffer that also holds
    the text before and after them; the text after them overwrites the last
    block's ",\\n".
    """
    K, N = family.array.shape
    row = b"    [" + b"0," * (N - 1) + b"0],\n"
    head, tail = json.dumps(_family_doc(family, []), indent=2).split("[]")
    head, tail = f"{head}[\n".encode(), f"\n  ]{tail}\n".encode()
    buf = np.empty(len(head) + K * len(row) - 2 + len(tail), dtype=np.uint8)
    blocks = buf[len(head) : len(head) + K * len(row)].reshape(K, len(row))
    blocks[:] = np.frombuffer(row, dtype=np.uint8)
    blocks[:, 5 : 2 * N + 5 : 2] += family.array.view(np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    buf[len(buf) - len(tail) :] = np.frombuffer(tail, dtype=np.uint8)
    buf.setflags(write=False)
    return memoryview(buf)


def family_from_json(doc: dict, verify: bool = True) -> FamilyA:
    """Rebuild a family from its export form: the document must hold
    exactly what ``family_to_json`` writes for the build of its polynomial
    mod 2, and that build is returned.  For a primitive h the build is the
    one family in code order, so a document that differs raises ValueError
    with the first difference: h builds no family, the polynomial is not
    the lift of h (which refuses a non-monic one), the shape differs, or the
    first (member, t) whose symbol differs.
    ``verify`` selects nothing: a document is always compared with the
    build; it is kept for callers that still pass it.

    A document that lacks a key, holds a value of the wrong type, or has a
    symbol outside 0-3 (the byte join reads JSON true and false as 1 and 0)
    or members of unequal length raises ValueError."""
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
    polynomial = tuple(c % 4 for c in poly)
    h = tuple(c % 2 for c in polynomial)
    try:
        built = FamilyA(n, h)
    except ValueError as exc:
        raise ValueError(f"the polynomial mod 2 {h} builds no family: {exc}") from None
    if polynomial != built.polynomial:
        raise ValueError(f"polynomial {polynomial} is not {built.polynomial}, the lift of its reduction mod 2")
    shape = (built.size, built.period)
    if A.shape != shape:
        raise ValueError(f"shape {A.shape} is not the build's {shape}")
    A = A.view(np.int8)  # the build's dtype, same bytes
    if not np.array_equal(A, built.array):
        k, t = np.argwhere(A != built.array)[0].tolist()
        raise ValueError(f"member {k} differs from the build at t = {t}")
    return built
