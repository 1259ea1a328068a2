"""Difference sets and almost difference sets in cyclic groups (Singer sets
from the Z4 recurrence, Legendre sets), the four-coset lift into Z_{4f},
and exponential sums with the classification-based upper bound.  A set's
exponential sums and difference counts both come from one FFT of its
indicator, ``_spectrum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import binpoly, z4
from .errors import ConstructionError

DIFFERENCE_SET = "DifferenceSet"
ALMOST_DIFFERENCE_SET = "AlmostDifferenceSet"
NEITHER = "Neither"

# Piece types for the coset pattern: the base set W, its complement, the
# shifted set W - delta, and the complement of the shifted set.
PIECE_LABELS = ("W", "W*", "W-d", "(W-d)*")

MAX_PATTERN_SEARCH_F = 31


@dataclass(frozen=True)
class CyclicSubset:
    """A subset of Z_q, elements sorted and distinct."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        elems = tuple(sorted(int(e) for e in self.elements))
        if any(not 0 <= e < self.modulus for e in elems):
            raise ValueError("elements must lie in [0, modulus)")
        if len(set(elems)) != len(elems):
            raise ValueError("elements must be distinct")
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SetClassification:
    """Difference-function census of a cyclic subset.

    kind is DifferenceSet when d_D is constant on nonzero shifts,
    AlmostDifferenceSet when it takes exactly the two adjacent levels
    {lam, lam+1} (lam hit t times), Neither otherwise.
    """

    kind: str
    p: int
    m: int
    lam: int | None
    t: int | None

    def as_tuple(self) -> tuple:
        return (self.kind, self.p, self.m, self.lam, self.t)


def _spectrum(subset: CyclicSubset) -> np.ndarray:
    """F(x) = sum_{d in D} exp(-2 pi i d x / q), x in [0, q): one length-q FFT."""
    return np.fft.fft(np.bincount(subset.elements, minlength=subset.modulus))


def _difference_counts(subset: CyclicSubset) -> np.ndarray:
    """d_D(x) for every x in [0, q): the inverse FFT of |F|^2, rounded;
    ConstructionError with witness (x, value) if a residual reaches 0.25."""
    exact = np.fft.ifft(np.abs(_spectrum(subset)) ** 2).real
    counts = np.rint(exact)
    x = int(np.abs(exact - counts).argmax())
    if abs(exact[x] - counts[x]) >= 0.25:
        raise ConstructionError(f"difference count d_D({x}) = {exact[x]} is 0.25 or more from an integer",
                                witness=(x, float(exact[x])))
    return counts.astype(np.int64)


def classify_set(subset: CyclicSubset) -> SetClassification:
    """Classify by the level structure of the difference function on
    nonzero shifts."""
    if subset.size < 1:
        raise ValueError("subset must be nonempty")
    q, m = subset.modulus, subset.size
    counts = _difference_counts(subset)[1:]
    levels = np.flatnonzero(np.bincount(counts))  # np.unique would import numpy.ma
    if len(levels) == 1:
        return SetClassification(DIFFERENCE_SET, q, m, int(levels[0]), q - 1)
    if len(levels) == 2 and levels[1] == levels[0] + 1:
        t = int(np.count_nonzero(counts == levels[0]))
        return SetClassification(ALMOST_DIFFERENCE_SET, q, m, int(levels[0]), t)
    return SetClassification(NEITHER, q, m, None, None)


def singer_ds(k: int, coeffs=None) -> CyclicSubset:
    """Zero positions of a full-period m-sequence of degree k: a
    (2^k - 1, 2^(k-1) - 1, 2^(k-2) - 1) difference set.

    The m-sequence of the primitive h is the Z4 recurrence with h's
    coefficients, run from (1, 0, ..., 0) and read mod 2: reduction mod 2 is
    a ring homomorphism Z4 -> GF(2), so it solves h over GF(2).  A
    polynomial of another degree, or one that is not primitive, raises
    ValueError.
    """
    if k < 2:
        raise ValueError("degree must be at least 2")
    h = tuple(coeffs) if coeffs is not None else binpoly.primitive_polynomial(k)
    if binpoly.poly_degree(h) != k or not binpoly.is_primitive_binary(h):
        raise ValueError(f"a Singer set of degree {k} needs a primitive polynomial of degree {k}, got {h}")
    run = z4.run_z4_recurrence(h, (1,) + (0,) * (k - 1))
    return CyclicSubset(modulus=(1 << k) - 1, elements=tuple(t for t, s in enumerate(run) if s % 2 == 0))


def legendre_ds(f: int) -> CyclicSubset:
    """Quadratic residues mod a prime f with f = 3 mod 4: an
    (f, (f-1)/2, (f-3)/4) difference set.  f may not exceed
    2^MAX_FAMILY_DEGREE - 1, the largest Singer modulus."""
    if f > (1 << z4.MAX_FAMILY_DEGREE) - 1:
        raise ValueError(f"f = {f} exceeds {(1 << z4.MAX_FAMILY_DEGREE) - 1}, the largest Singer modulus")
    if binpoly._prime_factors(f) != [f]:
        raise ValueError(f"{f} is not prime")
    if f % 4 != 3:
        raise ValueError(f"{f} = {f % 4} mod 4; need 3 mod 4")
    residues = sorted({(x * x) % f for x in range(1, f)})
    return CyclicSubset(modulus=f, elements=tuple(residues))


@dataclass(frozen=True)
class CosetPattern:
    """Recipe for the four-piece union in Z_{4f}: ``types[c]`` names the
    piece mapped through s -> (f+1)s + c*f, for offsets c = 0..3."""

    types: tuple[int, int, int, int]
    delta: int = 0

    def __post_init__(self):
        if len(self.types) != 4 or any(t not in range(4) for t in self.types):
            raise ValueError("types must be four indices into PIECE_LABELS")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def labels(self) -> tuple[str, ...]:
        return tuple(PIECE_LABELS[t] for t in self.types)


# Frozen default: three copies of W at offsets 0, f, 2f and the complement at
# 3f, no shift.  Found by find_canonical_pattern as the lexicographically
# least pattern valid for every f in {7, 11, 15} (cross-validated by the
# brute-force classifier).
CANONICAL_PATTERN = CosetPattern(types=(0, 0, 0, 1), delta=0)


def _piece_sets(W: CyclicSubset, delta: int) -> list[tuple[int, ...]]:
    f = W.modulus
    base = set(W.elements)
    comp = set(range(f)) - base
    shifted = {(w - delta) % f for w in base}
    shifted_comp = set(range(f)) - shifted
    return [tuple(sorted(s)) for s in (base, comp, shifted, shifted_comp)]


def coset_union(W: CyclicSubset, pattern: CosetPattern) -> CyclicSubset:
    """The raw four-piece union in Z_{4f} (no classification check)."""
    f = W.modulus
    q = 4 * f
    pieces = _piece_sets(W, pattern.delta % f)
    out = set()
    for c, t in enumerate(pattern.types):
        for s in pieces[t]:
            out.add(((f + 1) * s + c * f) % q)
    return CyclicSubset(modulus=q, elements=tuple(sorted(out)))


def expected_ads_classification(f: int) -> SetClassification:
    return SetClassification(ALMOST_DIFFERENCE_SET, 4 * f, 2 * f - 1, f - 2, f - 1)


def _check_lift_preconditions(W: CyclicSubset) -> int:
    f = W.modulus
    if f % 4 != 3:
        raise ValueError(f"modulus {f} = {f % 4} mod 4; need 3 mod 4")
    c = classify_set(W)
    want = (DIFFERENCE_SET, f, (f - 1) // 2, (f - 3) // 4, f - 1)
    if c.as_tuple() != want:
        raise ValueError(
            f"base set must be an (f, (f-1)/2, (f-3)/4) difference set; got {c.as_tuple()}"
        )
    return f


def lift_ads_to_z4f(W: CyclicSubset, pattern: CosetPattern = CANONICAL_PATTERN) -> CyclicSubset:
    """Lift an (f, (f-1)/2, (f-3)/4) difference set of Z_f into the
    (4f, 2f-1, f-2, f-1) almost difference set of Z_{4f}.

    Raises ValueError if the pattern produces the wrong union size and
    ConstructionError (with the measured classification attached) if the
    union fails the ADS census.
    """
    f = _check_lift_preconditions(W)
    U = coset_union(W, pattern)
    if U.size != 2 * f - 1:
        raise ValueError(
            f"pattern yields |U| = {U.size}, expected {2 * f - 1}; "
            "exactly one piece must be a complement"
        )
    got = classify_set(U)
    want = expected_ads_classification(f)
    if got != want:
        raise ConstructionError(
            f"lifted union classifies as {got.as_tuple()}, expected {want.as_tuple()}",
            witness=got,
        )
    return U


def find_canonical_pattern(W: CyclicSubset) -> CosetPattern:
    """Exhaustively search piece-type assignments and shifts, returning the
    lexicographically least pattern whose union passes the ADS census.

    The search order is (types, delta) ascending, so the result is the
    canonical pattern for this base set.  Exhaustion without a hit raises
    ConstructionError: it would falsify the lift construction itself and must
    be reported, never patched over.
    """
    f = _check_lift_preconditions(W)
    if f > MAX_PATTERN_SEARCH_F:
        raise ValueError(f"exhaustive search capped at f <= {MAX_PATTERN_SEARCH_F}")
    want = expected_ads_classification(f)
    for types in itertools.product(range(4), repeat=4):
        # union size is forced: three set-sized pieces and one complement
        if sum(1 for t in types if t in (1, 3)) != 1:
            continue
        for delta in range(f):
            pattern = CosetPattern(types=types, delta=delta)
            U = coset_union(W, pattern)
            if U.size == 2 * f - 1 and classify_set(U) == want:
                return pattern
    raise ConstructionError(
        f"no coset pattern over f = {f} produces the expected almost difference set",
        witness=W,
    )


def exp_sum_bound(c: SetClassification) -> float:
    """Upper bound sqrt(P + M - lam - t - 1) on the nontrivial exponential
    sum of an almost difference set."""
    if c.kind != ALMOST_DIFFERENCE_SET:
        raise ValueError("bound applies to almost difference sets only")
    return math.sqrt(c.p + c.m - c.lam - c.t - 1)


def exp_sum_profile(subset: CyclicSubset) -> np.ndarray:
    """The complex length-q array E(tau) = sum_{d in D} exp(2 pi i tau d / q)
    of a subset D of Z_q, the conjugate of ``_spectrum``: one length-q FFT
    in double precision, within 1e-13 of a long-double sum at q = 4092 (far
    below the 1e-9 comparisons used downstream).  E(0) = M is set exactly,
    as ``roots_table`` patches its quadrant values."""
    if subset.size < 1:
        raise ValueError("subset must be nonempty")
    sums = _spectrum(subset).conj()
    sums[0] = subset.size
    return sums


def ads_to_json(U: CyclicSubset, pattern: CosetPattern | None = None) -> dict:
    """Export form; classification is recomputed so the document always
    reflects the set it carries."""
    c = classify_set(U)
    doc = {
        "q": U.modulus,
        "elements": list(U.elements),
        "classification": {
            "kind": c.kind,
            "P": c.p,
            "M": c.m,
            "lambda": c.lam,
            "t": c.t,
        },
    }
    if pattern is not None:
        doc["pattern"] = pattern_to_json(pattern, U.modulus // 4)
    return doc


def pattern_to_json(pattern: CosetPattern, f: int) -> dict:
    """Export form of a coset pattern over Z_{4f}: each piece with its
    offset c*f, and the shift delta."""
    return {
        "pieces": [{"set": PIECE_LABELS[t], "offset": c * f} for c, t in enumerate(pattern.types)],
        "delta": pattern.delta,
    }
