"""Exact-phase correlation engine: linear phase transforms, set assembly
from a base sequence family and a shift set, and the full periodic tolerance
report.

Entries of every sequence here are roots of unity stored as integer phases
modulo a common root order L, so building blocks stay exact; complex values
only appear when a correlation sum is evaluated.  An assembled set stores
its base sequences and shift set, not its K*M*N entries.  The census streams
the exact aperiodic correlations of the base sequences, each unordered pair
once, and combines them with each shift set's exponential sums at the wrap
point; sets over one base share one census pass.  ``periodic_correlation``
is the scalar reference it is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .diffsets import CyclicSubset, exp_sum_profile
from .errors import ConstructionError

MAGNITUDE_TOL = 1e-6  # distinct algebraic magnitudes at desk scale differ by far more
EXACT_TOL = 1e-9
BLOCK_BYTES = 1 << 20  # spectral products held at once by the census


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


def correlation_tensor(qcss: QcssSet) -> Iterator[tuple[int, np.ndarray, float]]:
    """Stream the exact aperiodic correlations of the base sequences, each
    unordered pair once, in strips of rows.

    With a_k = i^(v_k), C_kl(u) = sum_t a_k(t) conj(a_l(t+u)) over the t
    where both indices lie in 0..N-1.  Since C_lk(u) = conj C_kl(-u), the
    strip of rows k in [start, stop) and columns l in [start, K) covers
    every pair (k, l) with k <= l, and the strips cover them all.  Each strip
    is one zero-padded inverse FFT (P >= 2N, so lag -N reads as 0, not an
    alias) rounded to Gaussian integers; its rows are as many as keep one
    (rows, K - start, P) complex array within BLOCK_BYTES, at least one.
    Nothing here depends on the shift set.

    Yields (start, exact, residual): exact[b, j, u] = C_kl(u mod P) for
    k = start + b and l = start + j, and residual is the largest distance of
    the strip's spectral values from the Gaussian integers.  Raises
    ConstructionError if it reaches 0.5.
    """
    K, N = qcss.base.shape
    P = 1 << (2 * N - 1).bit_length()
    # spectra of conj(a_k): entry u of ifft(conj(F_k) F_l) is then C_kl(u)
    spectra = np.fft.fft(roots_table(4)[-qcss.base % 4], n=P, axis=1)
    start = 0
    while start < K:
        stop = min(K, start + max(1, BLOCK_BYTES // (16 * (K - start) * P)))
        c = np.fft.ifft(np.conj(spectra[start:stop, None]) * spectra[None, start:], axis=2)
        parts = c.view(np.float64)  # real and imaginary parts, interleaved
        exact = np.rint(parts)
        parts -= exact
        np.square(parts, out=parts)
        parts[..., ::2] += parts[..., 1::2]  # squared distances, each >= the im^2 after it
        residual = math.sqrt(float(parts.max()))
        if residual >= 0.5:
            raise ConstructionError(
                f"spectral correlations miss the Gaussian integers by {residual}",
                witness=(start, residual),
            )
        yield start, exact.view(np.complex128), residual
        start = stop


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
    rounding_residual is the largest rounding residual of the census.
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
    rounding_residual: float
    q: int
    num_sets: int
    num_rows: int
    period: int
    provenance: dict = field(default_factory=dict)

    def shift_class(self, tau: int) -> str:
        if tau == 0:
            return "zero"
        return "R2" if tau % self.q == 0 else "R1"


def _magnitudes(e_in, e_wrap, c_in, c_wrap) -> np.ndarray:
    """|e_in c_in + e_wrap c_wrap|, elementwise over the last axis."""
    g = e_in * c_in
    g += e_wrap * c_wrap
    return np.abs(g)


def _gap(mags, base_mags, ramp_sum) -> float:
    """Largest distance of mags from the separable form |R| |E(tau)|."""
    d = base_mags * ramp_sum
    d -= mags
    return float(np.abs(d, out=d).max())


class _Tally:
    """The running maxima of one set's report while strips stream in."""

    def __init__(self, qcss: QcssSet):
        N, q = qcss.period, qcss.q
        dtau = np.outer(np.arange(N), qcss.shifts)
        ramp = roots_table(q)
        self.e_in = ramp[-dtau % q].sum(axis=1)  # E(-tau)
        self.e_wrap = ramp[(N * np.array(qcss.shifts) - dtau) % q].sum(axis=1)  # E(N - tau)
        # the mirror reads conj C_lk: |E c| = |conj(E) conj(c)|, bit for bit
        self.e_mirror = np.conj(self.e_in[1:]), np.conj(self.e_wrap[1:])
        profile = exp_sum_profile(CyclicSubset(modulus=q, elements=qcss.shifts))
        self.ramp_sum = profile.values[np.arange(N) % q]  # |E(tau)|
        self.qcss = qcss
        self.per_shift = np.zeros(N)
        self.delta_a = self.delta_c = self.gap = 0.0

    def fold(self, strip, mirror, base_mags, diag) -> None:
        mags = _magnitudes(self.e_in, self.e_wrap, *strip)
        self.gap = max(self.gap, _gap(mags, base_mags[0], self.ramp_sum))
        self.delta_a = max(self.delta_a, float(mags[diag][:, 1:].max()))
        mags[diag + (0,)] = 0.0  # in-phase autocorrelation, trivially M*N
        np.maximum(self.per_shift, mags.max(axis=(0, 1)), out=self.per_shift)
        mags[diag] = 0.0
        self.delta_c = max(self.delta_c, float(mags.max()))
        mags = _magnitudes(*self.e_mirror, *mirror)
        self.gap = max(self.gap, _gap(mags, base_mags[1], self.ramp_sum[1:]))
        mags[diag] = 0.0  # the mirror of (k, k) is (k, k), folded above
        np.maximum(self.per_shift[1:], mags.max(axis=(0, 1)), out=self.per_shift[1:])
        self.delta_c = max(self.delta_c, float(mags.max()))

    def report(self, residual: float) -> CorrelationReport:
        qcss, N, per_shift = self.qcss, self.qcss.period, self.per_shift
        K, M = qcss.num_sets, qcss.num_rows
        delta_max = max(self.delta_a, self.delta_c)
        in_r2 = np.arange(1, N) % qcss.q == 0
        bound = welch_lower_bound(K, M, N)
        return CorrelationReport(
            delta_a=self.delta_a,
            delta_c=self.delta_c,
            delta_max=delta_max,
            lower_bound=bound,
            rho=delta_max / bound if bound > 0 else None,
            per_shift_max=per_shift,
            r1_observed=float(per_shift[1:][~in_r2].max(initial=0.0)),
            r2_observed=float(per_shift[1:][in_r2].max(initial=0.0)),
            factorization_gap_max=self.gap,
            rounding_residual=residual,
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

        G[tau, k, l] = R(C_k, C_l; tau) = E(-tau) C_kl(tau) + E(N - tau) C_kl(tau - N)

    with E(x) = sum_{d in D} exp(2 pi i d x / q); the cost does not depend
    on M.  A strip gives G at its pairs (k, l), l >= k; its mirror gives the
    pairs (l, k) at tau in 1..N-1 from reversed views of the same strip,
    since C_lk(tau) = conj C_kl(-tau) and C_lk(tau - N) = conj C_kl(N - tau).
    At tau = 0 it would be |E(0) conj C_kl(0)|, as C_kl(N) = 0: the strip's
    own magnitude, since E(0) = M is real.  The rounded correlations are
    exact, so every magnitude is the one a census of all K^2 ordered pairs
    computes, bit for bit.
    """
    first = qsets[0]
    K, N = first.base.shape
    if K < 2:
        raise ValueError("tolerance census needs at least two matrices")
    if any(not np.array_equal(qcss.base, first.base) for qcss in qsets[1:]):
        raise ValueError("the sets of one census must share one base")
    tallies = [_Tally(qcss) for qcss in qsets]
    residual = 0.0
    for start, exact, block_residual in correlation_tensor(first):
        residual = max(residual, block_residual)
        P = exact.shape[2]
        strip = exact[..., :N], exact[..., P - N :]  # C_kl(tau), C_kl(tau - N)
        # conj C_lk(tau) = C_kl(-tau) and conj C_lk(tau - N) = C_kl(N - tau), tau in 1..N-1
        mirror = exact[..., : P - N : -1], exact[..., N - 1 : 0 : -1]
        base_mags = np.abs(strip[0] + strip[1])  # |R(a_k, a_l; tau)|
        # |R(a_l, a_k; tau)| = |R(a_k, a_l; N - tau)|: the same exact sums, reversed
        base_mags = base_mags, base_mags[..., :0:-1]
        b = np.arange(len(exact))
        for tally in tallies:
            tally.fold(strip, mirror, base_mags, (b, b))  # (k, k) sits at column b
    return [tally.report(residual) for tally in tallies]


def tolerances(qcss: QcssSet) -> CorrelationReport:
    """The tolerance report of one set: every ordered pair of matrices at
    every shift, reduced strip by strip and mirror by mirror as
    ``correlation_tensor`` streams the unordered pairs of its base."""
    return _census([qcss])[0]


def tolerances_many(qsets) -> list[CorrelationReport]:
    """The reports of several sets over one base, from one census pass:
    the aperiodic base correlations do not depend on the shift set.  Raises
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
