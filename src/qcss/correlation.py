"""Exact-phase correlation engine: linear phase transforms, set assembly
from a base sequence family and a shift set, and the full periodic tolerance
report.

Entries of every sequence here are roots of unity stored as integer phases
modulo a common root order L, so building blocks stay exact; complex values
only appear when a correlation sum is evaluated.  An assembled set stores
its base sequences and shift set, not its K*M*N entries.  The census of a
certified subset-L base takes one Walsh-Hadamard transform per shift,
O(n 4^n) additions in the least integer dtype that holds +-N, so nothing
is rounded, and each shift set's exponential sums at the wrap point; sets
over one base share one census pass.  ``periodic_correlation`` is the
scalar reference it is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .diffsets import CyclicSubset, exp_sum_profile, roots_table
from .z4 import coset_codes

MAGNITUDE_TOL = 1e-6  # distinct algebraic magnitudes at desk scale differ by far more
EXACT_TOL = 1e-9
_BLOCK_ENTRIES = 1 << 18  # Walsh plane entries (shifts x 2^n) the census transforms at once


@dataclass(frozen=True, eq=False)
class PhaseSequence:
    """A unimodular sequence: entry t is the root_order-th root of unity with
    integer phase phases[t]."""

    root_order: int
    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=np.int64) % self.root_order
        p.setflags(write=False)
        object.__setattr__(self, "phases", p)

    def __len__(self) -> int:
        return len(self.phases)

    def complex_values(self) -> np.ndarray:
        return roots_table(self.root_order)[self.phases]


def _root_order(q: int) -> int:
    """lcm(4, q): the least root order that holds both Z4 symbols and the
    ramps exp(2 pi i t d / q) with integer phases."""
    return math.lcm(4, q)


def phase_transform(symbols, d: int, q: int) -> PhaseSequence:
    """Multiply a Z4 sequence entrywise by the phase ramp exp(2 pi i t d / q).

    The common root order is lcm(4, q), so both the quaternary symbols and
    the ramp embed with integer phases; d = 0 reproduces the sequence itself.
    """
    if q < 1:
        raise ValueError("ramp modulus must be positive")
    a = np.asarray(symbols, dtype=np.int64) % 4
    L = _root_order(q)
    t = np.arange(len(a), dtype=np.int64)
    return PhaseSequence(root_order=L, phases=(a * (L // 4) + t * d * (L // q)) % L)


def periodic_correlation(a: PhaseSequence, b: PhaseSequence, tau: int) -> complex:
    """R(a, b; tau) = sum_t a_t * conj(b_(t+tau)), index wrapped mod N.

    Deliberately a scalar loop over the definition; the sweep paths are
    checked against this.
    """
    if a.root_order != b.root_order:
        raise ValueError("root orders differ")
    n = len(a)
    if n != len(b):
        raise ValueError("lengths differ")
    if not 0 <= tau < n:
        raise ValueError("shift out of range")
    table = roots_table(a.root_order)
    L = a.root_order
    acc = 0j
    for t in range(n):
        acc += table[(int(a.phases[t]) - int(b.phases[(t + tau) % n])) % L]
    return acc


@dataclass(frozen=True, eq=False)
class QcssMatrix:
    """One element of the set: M rows of common length and root order."""

    root_order: int
    phases: np.ndarray  # shape (M, N)
    user_index: int = 0

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=np.int64) % self.root_order
        if p.ndim != 2:
            raise ValueError("matrix phases must be 2-D")
        p.setflags(write=False)
        object.__setattr__(self, "phases", p)

    def row(self, m: int) -> PhaseSequence:
        return PhaseSequence(root_order=self.root_order, phases=self.phases[m])


def matrix_correlation(c1: QcssMatrix, c2: QcssMatrix, tau: int) -> complex:
    """Sum of row correlations at one shift (scalar reference path)."""
    if c1.root_order != c2.root_order or c1.phases.shape != c2.phases.shape:
        raise ValueError("matrices must share shape and root order")
    return sum(
        periodic_correlation(c1.row(m), c2.row(m), tau) for m in range(c1.phases.shape[0])
    )


@dataclass(frozen=True, eq=False)
class QcssSet:
    """K matrices assembled from base sequences v_k and a shift set D: matrix
    k has rows phase_transform(v_k, d, q) for d in D, sorted.

    Only the read-only int8 (K, N) ``base`` of Z4 symbols and the shifts are
    stored.  ``matrix(k)`` builds one (M, N) matrix on demand for the scalar
    oracle; ``phases`` builds the whole (K, M, N) tensor on each access, and
    the census never reads it.
    """

    base: np.ndarray  # shape (K, N), symbols 0..3
    q: int
    shifts: tuple[int, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def root_order(self) -> int:
        return _root_order(self.q)

    @property
    def num_sets(self) -> int:
        return self.base.shape[0]

    @property
    def num_rows(self) -> int:
        return len(self.shifts)

    @property
    def period(self) -> int:
        return self.base.shape[1]

    def _phases(self, base: np.ndarray) -> np.ndarray:
        """Phases of base symbols (..., N) under every ramp: (..., M, N),
        unreduced; ``phase_transform``'s formula for all d in D at once."""
        L = self.root_order
        ramp = np.outer(self.shifts, np.arange(self.period, dtype=np.int64)) * (L // self.q)
        return base[..., None, :].astype(np.int64) * (L // 4) + ramp

    def matrix(self, k: int) -> QcssMatrix:
        return QcssMatrix(root_order=self.root_order, phases=self._phases(self.base[k]), user_index=k)

    @property
    def phases(self) -> np.ndarray:
        """The full (K, M, N) phase tensor, K*M*N int64 values, for tests."""
        p = self._phases(self.base) % self.root_order
        p.setflags(write=False)
        return p


def build_qcss(base_sequences, shift_set: CyclicSubset, provenance: dict | None = None) -> QcssSet:
    """Assemble K matrices from a (K, N) array-like of Z4 base sequences,
    such as ``subset_l(family)``, over the shift set.

    The symbols are stored once, reduced mod 4, as a read-only int8 array;
    no row of any matrix is built here.
    """
    try:
        base = np.asarray(base_sequences)
    except ValueError as exc:  # nested sequences of unequal length
        raise ValueError("base sequences must share one length") from exc
    if base.dtype == object:
        raise ValueError("base sequences must share one length")
    if base.ndim != 2 or len(base) == 0 or shift_set.size == 0:
        raise ValueError("need at least one base sequence and a nonempty shift set")
    if base.dtype.kind not in "iu":
        raise ValueError(f"base symbols must be integers, got dtype {base.dtype}")
    base = (base % 4).astype(np.int8)
    base.setflags(write=False)
    return QcssSet(
        base=base,
        q=shift_set.modulus,
        shifts=shift_set.elements,
        provenance=dict(provenance or {}),
    )


def _plane_dtype(N: int) -> np.dtype:
    """The least signed integer dtype that holds -N..N, the range of every
    census plane entry at period N: int8 up to N = 127, int16 up to 32767."""
    return np.min_scalar_type(-N)


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
        x, y = np.moveaxis(planes.reshape(-1, 2, inner << j), 1, 0)
        x += y
        y *= -2
        y += x


def correlation_tensor(qcss: QcssSet) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream the coset census of a subset-L base in blocks of shifts.

    For rows v_k = v_0 + 2 beta_k (certified first), a pair (k, l) at shift
    tau has u = v_k - v_l(. + tau) = c_tau + 2 gamma with c_tau = v_0 -
    v_0(. + tau) and gamma(t) = popcount(a & code[t]) mod 2 for one code a.
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
    wr[b, a] = Wr at tau = start + b, in blocks of about _BLOCK_ENTRIES // K
    shifts, at least one.
    """
    code, _ = coset_codes(qcss.base)
    K, N = qcss.base.shape
    v0, t = qcss.base[0], np.arange(N)
    rotations = np.lib.stride_tricks.sliding_window_view(np.concatenate([v0, v0]), N)  # row s: v0(. + s)
    dtype = _plane_dtype(N)
    step = max(1, _BLOCK_ENTRIES // K)
    for start in range(0, N, step):
        T = min(N - start, step)
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
    ratio = Fraction(K - M, M * (K * N - 1))
    return M * N * math.sqrt(ratio)


def tightness(delta_max: float, K: int, M: int, N: int) -> float:
    """Ratio of an achieved tolerance to the correlation floor."""
    bound = welch_lower_bound(K, M, N)
    if bound <= 0.0:
        raise ValueError("tightness undefined: lower bound is vacuous for K <= M")
    return delta_max / bound


def classify_tightness(rho: float) -> str:
    if abs(rho - 1.0) <= EXACT_TOL:
        return "optimal"
    if 1.0 < rho <= 2.0:
        return "near-optimal"
    return "loose"


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


class _Tally:
    """The running maxima of one set's report while blocks of shifts stream in."""

    def __init__(self, qcss: QcssSet):
        N, q = qcss.period, qcss.q
        profile = exp_sum_profile(CyclicSubset(modulus=q, elements=qcss.shifts))
        E, tau = profile.sums, np.arange(N)  # E(x) depends on x mod q
        self.e_in = E[-tau % q][:, None]  # E(-tau)
        self.e_wrap = E[(N - tau) % q][:, None]  # E(N - tau)
        self.ramp_sum = profile.values[tau % q][:, None]  # |E(tau)|
        self.qcss = qcss
        self.per_shift = np.zeros(N)
        self.gap = 0.0

    def fold(self, taus: slice, w, wr, base_mags) -> None:
        g = self.e_in[taus] * w
        g += self.e_wrap[taus] * wr
        mags = np.abs(g)
        d = base_mags * self.ramp_sum[taus]
        d -= mags
        self.gap = max(self.gap, float(np.abs(d, out=d).max()))
        if taus.start == 0:
            mags[0, 0] = 0.0  # beta = 0 at tau = 0: the in-phase autocorrelation, trivially M*N
        self.per_shift[taus] = mags.max(axis=1)

    def report(self) -> CorrelationReport:
        qcss, N, per_shift = self.qcss, self.qcss.period, self.per_shift
        K, M = qcss.num_sets, qcss.num_rows
        # the pairs (k, k) at tau != 0, and the pairs k != l at every tau, give
        # every code a (but a = 0 at tau = 0), so both maxima read off per_shift
        delta_a, delta_c = float(per_shift[1:].max()), float(per_shift.max())
        delta_max = max(delta_a, delta_c)
        in_r2 = np.arange(1, N) % qcss.q == 0
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
            factorization_gap_max=self.gap,
            q=qcss.q,
            num_sets=K,
            num_rows=M,
            period=N,
            provenance=dict(qcss.provenance),
        )


def _census(qsets: list[QcssSet]) -> list[CorrelationReport]:
    """Reduce one ``correlation_tensor`` pass over the first set's base
    into the report of every set; the sets must share that base.

    Row d of matrix k is a_k = i^(v_k) ramped by exp(2 pi i d t / q), t in
    0..N-1, so splitting each periodic row sum at the wrap point gives

        G[tau, k, l] = R(C_k, C_l; tau) = E(-tau) W + E(N - tau) Wr

    with E(x) = sum_{d in D} exp(2 pi i d x / q) and W, Wr the in-range and
    wrapped parts of R(a_k, a_l; tau), whose K^2 pairs take only the 2^n
    values of the code a; the cost does not depend on M.
    """
    first = qsets[0]
    if any(not np.array_equal(qcss.base, first.base) for qcss in qsets[1:]):
        raise ValueError("the sets of one census must share one base")
    tallies = [_Tally(qcss) for qcss in qsets]
    for start, w, wr in correlation_tensor(first):
        taus = slice(start, start + len(w))
        base_mags = np.abs(w + wr)  # |R(a_k, a_l; tau)|
        for tally in tallies:
            tally.fold(taus, w, wr, base_mags)
    return [tally.report() for tally in tallies]


def tolerances(qcss: QcssSet) -> CorrelationReport:
    """The tolerance report of one set: every ordered pair of matrices at
    every shift, reduced block by block as ``correlation_tensor`` streams
    its base, which must be subset L (else ValueError or ConstructionError)."""
    return _census([qcss])[0]


def tolerances_many(qsets) -> list[CorrelationReport]:
    """The reports of several sets over one base, from one census pass:
    the base correlations do not depend on the shift set.  Raises
    ValueError if the sets do not share one base."""
    qsets = list(qsets)
    if not qsets:
        raise ValueError("need at least one set")
    return _census(qsets)


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
