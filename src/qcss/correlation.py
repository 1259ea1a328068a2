"""Exact-phase correlation engine: linear phase transforms, set assembly
from a base sequence family and a shift set, and the full periodic tolerance
report.

Entries of every sequence here are roots of unity stored as integer phases
modulo a common root order L, so building blocks stay exact; complex values
only appear when a correlation sum is evaluated.  One ``PhaseSequence``
holds a row, an (M, N) matrix or a whole (K, M, N) set, and one
``phase_transform`` ramps by one shift or by all of D.  An assembled set
stores its family and shift set, not its K*M*N entries.  The census of subset L
reads only the family's s_1 and the window codes of m = s_1 mod 2, never
its K*N member array, and takes one Walsh-Hadamard transform per mirror pair
of shifts {tau, N - tau}, O(n 4^n) additions in the least integer dtype
that holds +-N, so nothing is rounded, and each shift set's exponential
sums at the wrap point; since R(C_k, C_l; tau) = conj R(C_l, C_k; N - tau),
the shifts tau <= (N - 1)/2 give every maximum.  ``tolerances(*qsets)`` is
its one entry: the sets over one family share one pass.
``periodic_correlation``, a scalar loop summing every row, is the reference
it is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diffsets import CyclicSubset, exp_sum_profile
from .z4 import FamilyA, _rotations, _walsh_hadamard, subset_l

MAGNITUDE_TOL = 1e-6  # distinct algebraic magnitudes at desk scale differ by far more
_BLOCK_ENTRIES = 1 << 18  # Walsh plane entries (shifts x 2^n) the census transforms at once


@lru_cache(maxsize=64)
def roots_table(root_order: int) -> np.ndarray:
    """All root_order-th roots of unity; quadrant values are patched to be
    exact so embedded Z4 symbols stay Gaussian integers."""
    table = np.exp(2j * np.pi * np.arange(root_order) / root_order)
    if root_order % 4 == 0:
        table[0] = 1
        table[root_order // 4] = 1j
        table[root_order // 2] = -1
        table[3 * root_order // 4] = -1j
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class PhaseSequence:
    """Unimodular sequences of period N, phases of shape (..., N): entry
    [..., t] is the root_order-th root of unity with integer phase
    phases[..., t].  One sequence is (N,), one matrix of M rows (M, N), a
    whole set (K, M, N)."""

    root_order: int
    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=np.int64) % self.root_order
        p.setflags(write=False)
        object.__setattr__(self, "phases", p)

    def complex_values(self) -> np.ndarray:
        return roots_table(self.root_order)[self.phases]


def _root_order(q: int) -> int:
    """lcm(4, q): the least root order that holds both Z4 symbols and the
    ramps exp(2 pi i t d / q) with integer phases."""
    return math.lcm(4, q)


def phase_transform(symbols, d, q: int) -> PhaseSequence:
    """Multiply Z4 sequences (..., N) entrywise by the phase ramp
    exp(2 pi i t d / q): an int d gives (..., N), a sequence of M shifts
    gives (..., M, N), one row per shift.

    The common root order is L = lcm(4, q), so both the quaternary symbols
    and the ramp embed with integer phases a (L/4) + t d (L/q); d = 0
    reproduces the sequence itself.
    """
    if q < 1:
        raise ValueError("ramp modulus must be positive")
    a = np.asarray(symbols, dtype=np.int64) % 4
    L = _root_order(q)
    if np.ndim(d):
        a = a[..., None, :]
    ramp = np.multiply.outer(np.asarray(d, dtype=np.int64), np.arange(a.shape[-1]))
    return PhaseSequence(root_order=L, phases=a * (L // 4) + ramp * (L // q))


def periodic_correlation(a: PhaseSequence, b: PhaseSequence, tau: int) -> complex:
    """R(a, b; tau) = sum over every row m and every t of
    a[m, t] * conj(b[m, (t + tau) mod N]): a sequence's periodic
    correlation, or a matrix's, the sum of its rows' correlations.

    Deliberately a scalar loop over the definition; the census is checked
    against this.
    """
    if a.root_order != b.root_order:
        raise ValueError("root orders differ")
    if a.phases.shape != b.phases.shape:
        raise ValueError(f"shapes differ: {a.phases.shape} and {b.phases.shape}")
    n = a.phases.shape[-1]
    if not 0 <= tau < n:
        raise ValueError("shift out of range")
    table, L = roots_table(a.root_order), a.root_order
    acc = 0j
    for x, y in zip(a.phases.reshape(-1, n).tolist(), b.phases.reshape(-1, n).tolist()):
        for t in range(n):
            acc += table[(x[t] - y[(t + tau) % n]) % L]
    return acc


@dataclass(frozen=True, eq=False)
class QcssSet:
    """K matrices assembled from subset L of a family, v_k =
    ``subset_l(family)[k]``, and a shift set D of Z_q: matrix k has rows
    phase_transform(v_k, d, q) for d in D, sorted.

    Only the family and the shift set are stored.  ``matrix(k)`` builds one
    (M, N) matrix on demand for the scalar oracle; ``phases`` builds the
    whole (K, M, N) tensor on each access, and the census never reads it.
    """

    family: FamilyA
    shift_set: CyclicSubset
    provenance: dict = field(default_factory=dict)

    @property
    def root_order(self) -> int:
        return _root_order(self.shift_set.modulus)

    @property
    def num_sets(self) -> int:
        return self.family.size - 1

    @property
    def num_rows(self) -> int:
        return self.shift_set.size

    @property
    def period(self) -> int:
        return self.family.period

    def matrix(self, k: int) -> PhaseSequence:
        """Matrix k, rows phase_transform(v_k, d, q) for d in D: (M, N)."""
        D = self.shift_set
        return phase_transform(subset_l(self.family)[k], D.elements, D.modulus)

    @property
    def phases(self) -> np.ndarray:
        """The full (K, M, N) phase tensor, K*M*N int64 values, for tests."""
        D = self.shift_set
        return phase_transform(subset_l(self.family), D.elements, D.modulus).phases


def build_qcss(family: FamilyA, shift_set: CyclicSubset, provenance: dict | None = None) -> QcssSet:
    """Assemble the 2^n matrices over subset L of ``family`` and the shift
    set.  Nothing is copied or checked here: the family was certified when
    it was made.  Raises TypeError unless ``family`` is a
    FamilyA, and ValueError for an empty shift set.
    """
    if not isinstance(family, FamilyA):
        raise TypeError(f"build_qcss takes a FamilyA, got {type(family).__name__}")
    if shift_set.size == 0:
        raise ValueError("need a nonempty shift set")
    return QcssSet(family=family, shift_set=shift_set, provenance=dict(provenance or {}))


def _plane_dtype(N: int) -> np.dtype:
    """The least signed integer dtype that holds -N..N, the range of every
    census plane entry at period N: int8 up to N = 127, int16 up to 32767."""
    return np.min_scalar_type(-N)


def correlation_tensor(qcss: QcssSet) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream the coset census of the family's subset L in blocks of the
    shifts tau = 0..(N - 1)/2, one of each mirror pair {tau, N - tau}.

    For rows v_k = v_0 + 2 beta_k (v_0 = s_1, certified with the family), a
    pair (k, l) at shift tau has u = v_k - v_l(. + tau) = c_tau + 2 gamma
    with c_tau = v_0 - v_0(. + tau) and gamma(t) = popcount(a & code[t])
    mod 2 for one code a, code[t] the window code of m = v_0 mod 2 at t.
    For all a at once, the Walsh-Hadamard transforms of i^(c_tau(t)) placed
    at code[t] in four integer planes (in-range real and imaginary, wrapped
    real and imaginary) give the in-range part W = sum_{t < N - tau} i^(u_t)
    and the wrapped part Wr of the correlation as exact Gaussian integers.

    The planes are a (K, 4, T) block, shifts innermost, so every butterfly
    runs over contiguous runs of 4 T entries.  Symbol t puts 1 - (c & 2) =
    +-1 into plane 2 wrapped + (c & 1) at code[t]; for one tau the N codes
    are distinct, so each entry is written once.  Each butterfly output is a
    sum of +-1 over disjoint sets of those entries, so its magnitude is at
    most N and ``_plane_dtype(N)`` holds it (``_walsh_hadamard``).

    Yields (start, w, wr), complex (T, K) arrays with w[b, a] = W and
    wr[b, a] = Wr of the pair (a, 0) at tau = start + b (beta_a is the gamma
    of code a), in blocks of about _BLOCK_ENTRIES // K shifts, at least one,
    that cover [0, (N + 1)/2).  N = 2^n - 1 is odd, so for tau >= 1 the
    shifts tau and N - tau never coincide; ``tolerances`` reads the shift
    N - tau off the block at tau.
    """
    family = qcss.family
    K, N = family.size - 1, family.period
    v0, code, t = family.s1, family.codes, np.arange(N)  # bit j of code[t] is m(t + j)
    rotations = _rotations(v0)  # row s: v0(. + s)
    dtype = _plane_dtype(N)
    step, half = max(1, _BLOCK_ENTRIES // K), (N + 1) // 2
    for start in range(0, half, step):
        T = min(half - start, step)
        b = np.arange(T)[:, None]
        c = v0 - rotations[start:start + T]  # c_tau as a (T, N) int8 block, read mod 4 by its low bits
        wrapped = t >= N - start - b
        plane = c & 1
        plane += wrapped  # twice, for 2 wrapped without an int64 temporary
        plane += wrapped
        index = np.multiply(plane, T, dtype=np.intp)
        index += code * (4 * T)
        index += b
        c &= 2
        np.subtract(1, c, out=c)
        planes = np.zeros((K, 4, T), dtype=dtype)
        planes.reshape(-1)[index] = c
        del c, wrapped, plane, index
        _walsh_hadamard(planes)
        out = np.empty((T, 2, K), dtype=complex)
        out.real = planes[:, 0::2].transpose(2, 1, 0)
        out.imag = planes[:, 1::2].transpose(2, 1, 0)
        del planes
        yield start, out[:, 0], out[:, 1]


def welch_lower_bound(K: int, M: int, N: int) -> float:
    """Correlation floor M*N*sqrt((K/M - 1)/(K*N - 1)) for K matrices of M
    rows and period N; 0.0 when K <= M (vacuous, flagged by callers)."""
    if M < 1 or N < 2 or K < 1:
        raise ValueError("need K >= 1, M >= 1, N >= 2")
    if K <= M:
        return 0.0
    return M * N * math.sqrt((K - M) / (M * (K * N - 1)))  # int / int rounds correctly


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Periodic tolerance census of one assembled set.

    delta_a ranges over autocorrelations at nonzero shifts, delta_c over
    cross-correlations at all shifts; r1/r2 split the nonzero shifts by
    tau mod q (r2 collects the nontrivial multiples of q, which the zero-shift
    cross value need not match).  factorization_gap_max measures how far the
    exact magnitudes sit from |R(v, v'; tau)| * Delta(tau), the separable form
    that would hold if the phase ramp commuted with cyclic wrapping.
    """

    delta_a: float
    delta_c: float
    delta_max: float
    lower_bound: float
    rho: float | None
    per_shift_max: np.ndarray
    r1_observed: float
    r2_observed: float
    factorization_gap_max: float
    q: int
    num_sets: int
    num_rows: int
    period: int
    provenance: dict = field(default_factory=dict)

    def shift_class(self, tau: int) -> str:
        if tau == 0:
            return "zero"
        return "R2" if tau % self.q == 0 else "R1"


def _report(qcss: QcssSet, per_shift: np.ndarray, gap: float) -> CorrelationReport:
    N, K, M, q = qcss.period, qcss.num_sets, qcss.num_rows, qcss.shift_set.modulus
    # the pairs (k, k) at tau != 0, and the pairs k != l at every tau, give
    # every code a (but a = 0 at tau = 0), so both maxima read off per_shift
    delta_a, delta_c = float(per_shift[1:].max()), float(per_shift.max())
    delta_max = max(delta_a, delta_c)
    in_r2 = np.arange(1, N) % q == 0
    bound = welch_lower_bound(K, M, N)
    return CorrelationReport(
        delta_a=delta_a,
        delta_c=delta_c,
        delta_max=delta_max,
        lower_bound=bound,
        rho=delta_max / bound if bound > 0 else None,
        per_shift_max=per_shift,
        r1_observed=float(per_shift[1:][~in_r2].max(initial=0.0)),
        r2_observed=float(per_shift[1:][in_r2].max(initial=0.0)),
        factorization_gap_max=gap,
        q=q,
        num_sets=K,
        num_rows=M,
        period=N,
        provenance=dict(qcss.provenance),
    )


def tolerances(*qsets: QcssSet) -> list[CorrelationReport]:
    """The tolerance reports of one or more sets over one family, in order,
    from one ``correlation_tensor`` pass over subset L of the first set's
    family: every ordered pair of matrices at every shift, reduced block by
    block.  Raises ValueError for no set, or for sets that do not share an
    equal family.

    Row d of matrix k is a_k = i^(v_k) ramped by exp(2 pi i d t / q), t in
    0..N-1, so splitting each periodic row sum at the wrap point gives

        G[tau, k, l] = R(C_k, C_l; tau) = E(-tau) W + E(N - tau) Wr

    with E(x) = sum_{d in D} exp(2 pi i d x / q) and W, Wr the in-range and
    wrapped parts of R(a_k, a_l; tau), whose K^2 pairs take only the 2^n
    values of the code a; the cost does not depend on M, and W and Wr do
    not depend on the shift set, so one pass serves every set: each block
    is folded into each set in turn, through that set's ramp columns
    E(-tau), E(N - tau), |E(tau)| and |E(N - tau)|.

    The stream covers tau <= (N - 1)/2.  For tau >= 1, (k, l) -> (l, k)
    maps the pairs at tau onto those at N - tau, and R(C_k, C_l; tau) =
    conj R(C_l, C_k; N - tau) holds for the sets and for their base rows
    alike, so both shifts have the same |G| and base magnitudes: one row
    maximum serves both, and the gap at N - tau differs only by its ramp.
    """
    if not qsets:
        raise ValueError("need at least one set")
    first = qsets[0]
    if any(qcss.family != first.family for qcss in qsets[1:]):
        raise ValueError("the sets of one census must share one family")
    N = first.period
    tau = np.arange((N + 1) // 2)
    mirror = -tau % N  # N - tau, and 0 at tau = 0
    columns = []  # per set: E(-tau), E(N - tau), |E(tau)|, |E(N - tau)|
    for qcss in qsets:
        q, E = qcss.shift_set.modulus, exp_sum_profile(qcss.shift_set)  # E(x) depends on x mod q
        ramps = E[-tau % q], E[(N - tau) % q], np.abs(E[tau % q]), np.abs(E[mirror % q])
        columns.append([x[:, None] for x in ramps])
    per_shift, gap = np.zeros((len(qsets), N)), [0.0] * len(qsets)
    for start, w, wr in correlation_tensor(first):
        taus = slice(start, start + len(w))
        base_mags = np.abs(w + wr)  # |R(a_k, a_l; tau)|
        for i, (e_in, e_wrap, *ramp_sums) in enumerate(columns):
            g = e_in[taus] * w
            g += e_wrap[taus] * wr
            mags = np.abs(g)
            d = np.empty_like(mags)
            for ramp_sum in ramp_sums:
                np.multiply(base_mags, ramp_sum[taus], out=d)
                d -= mags
                gap[i] = max(gap[i], float(np.abs(d, out=d).max()))
            if start == 0:
                mags[0, 0] = 0.0  # beta = 0 at tau = 0: the in-phase autocorrelation, trivially M*N
            row_max = mags.max(axis=1)
            per_shift[i, taus] = row_max
            per_shift[i, mirror[taus]] = row_max
    return [_report(qcss, p, g) for qcss, p, g in zip(qsets, per_shift, gap)]


def report_to_json(report: CorrelationReport) -> dict:
    """Export form; field names are part of the file contract."""
    provenance = dict(report.provenance)
    provenance.update(
        {"K": report.num_sets, "M": report.num_rows, "N": report.period, "q": report.q}
    )
    return {
        "deltaA": report.delta_a,
        "deltaC": report.delta_c,
        "deltaMax": report.delta_max,
        "lowerBound": report.lower_bound,
        "rho": report.rho,
        "perShiftMax": [float(v) for v in report.per_shift_max],
        "r1Observed": report.r1_observed,
        "r2Observed": report.r2_observed,
        "factorizationGapMax": report.factorization_gap_max,
        "provenance": provenance,
    }


def report_per_shift_csv(report: CorrelationReport) -> str:
    """Per-shift profile: tau, shift class (zero / R1 / R2), max magnitude."""
    lines = ["tau,class,maxMagnitude"]
    for tau, value in enumerate(report.per_shift_max):
        lines.append(f"{tau},{report.shift_class(tau)},{float(value)!r}")
    return "\n".join(lines) + "\n"
