"""Exhaustive and sampled verification of energy exponent bounds on cubes.

The boundary E <= |A|^exponent is decided exactly: when exponent = log2(M)
and |A| = 2^j the right side is the integer M^j; otherwise a certified
interval floor is used, escalating precision until the enclosure excludes
every integer.  No verdict ever comes from bare floating point.

Both energies are invariant under the symmetries of the cube {0..n}^d, so
an exhaustive sweep with d >= 2 computes one energy per orbit of its
symmetry group (energy.orbit_energies; 401 orbits for the 65 535 nonempty
subsets of {0,1}^4) and counts it for every member.  A sweep with d <= 1
and a sampled sweep take their masks one at a time.

The witness search over the level sets of {0..n}^d takes its exact energies
from energy.level_set_energies and its level sizes from a binomial sum, so
it builds no cube; its max_points only caps the size of the cube searched.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .energy import (EnergyKind, EnergyValue, key_multiplier,
                     level_set_energies, orbit_energies, subset_energies)
from .errors import BudgetExceeded, PrecisionExhausted
from .intervals import (Interval, certified_floor, decide_le,
                        floor_power_log2, log2_interval)
from .lattice import PointSet, pack_points

MAX_EXHAUSTIVE_POINTS = 24
# a sampled sweep's sets hold about half the cube's points each
MAX_SAMPLED_POINTS = 64


def _is_power_of_two(c: int) -> bool:
    return c > 0 and (c & (c - 1)) == 0


def _nth_root_floor(t: int, n: int) -> int:
    """floor(t ** (1/n)) for integers t >= 0, n >= 1 (Newton on integers)."""
    if t < 0 or n < 1:
        raise ValueError
    if t == 0:
        return 0
    r = 1 << ((t.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + t // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > t:
        r -= 1
    return r


@dataclass(frozen=True)
class ExponentTarget:
    """An energy bound of the form E_kind,k(A) <= |A|^exponent.

    When the exponent is log2 of an integer M (the sharp cases), M is kept so
    boundary comparisons can be done in exact integer arithmetic.
    """

    kind: EnergyKind
    k: int
    exponent: float
    log2_arg: Optional[int] = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0 < self.exponent <= 2 * self.k - 1:
            raise ValueError("exponent must lie in (0, 2k - 1], the trivial bound")
        if self.log2_arg is not None and abs(self.exponent - math.log2(self.log2_arg)) > 1e-12:
            raise ValueError("exponent does not match log2 of its integer form")

    @classmethod
    def sharp(cls, kind: EnergyKind, k: int) -> "ExponentTarget":
        """The proven sharp exponent: log2 C(2k,k) (additive, 2 <= k <= 10)
        or log2(2^k + 2) (higher, any k >= 2)."""
        if kind is EnergyKind.ADDITIVE:
            if not 2 <= k <= 10:
                raise ValueError("additive sharp exponent is proven for 2 <= k <= 10")
            m = math.comb(2 * k, k)
            if not m < 2 ** (2 * k - 1):
                raise AssertionError("central binomial must sit below 2^(2k-1)")
        else:
            if k < 2:
                raise ValueError("k must be >= 2")
            m = 2 ** k + 2
            if not 2 ** k < m < 2 ** (k + 1):
                raise AssertionError("higher exponent must sit in (k, k+1)")
        return cls(kind, k, math.log2(m), m)

    @classmethod
    def custom(cls, kind: EnergyKind, k: int, exponent: float) -> "ExponentTarget":
        return cls(kind, k, exponent)


def energy_threshold(target: ExponentTarget, c: int) -> Tuple[int, bool]:
    """(floor(c^exponent), equality_possible) for a set of size c.

    equality_possible marks the exact-power branch, where the threshold is an
    exact integer value of c^exponent and E == threshold is a true equality
    case; on the certified-floor branch the power is irrational so equality
    with it cannot occur.
    """
    if c < 0:
        raise ValueError
    if c == 0:
        return 0, False
    if c == 1:
        return 1, True
    m = target.log2_arg
    if m is not None:
        if _is_power_of_two(c):
            return m ** (c.bit_length() - 1), True
        return floor_power_log2(c, m), False
    # custom float exponent: exact when it is an integer or c^x is a perfect
    # power along the dyadic representation of x, else certified floor
    fr = Fraction(target.exponent)
    if fr.denominator == 1:
        return c ** fr.numerator, True
    if fr.numerator * c.bit_length() <= 1 << 14:
        t = c ** fr.numerator
        r = _nth_root_floor(t, fr.denominator)
        if r ** fr.denominator == t:
            return r, True
    return certified_floor(
        lambda: Interval(c) ** Interval(target.exponent)), False


@dataclass(frozen=True)
class Violation:
    subset: PointSet
    size: int
    energy: int
    bound: int

    def to_dict(self) -> dict:
        return {
            "subset": [list(p) for p in self.subset.sorted_points()],
            "size": self.size,
            "energy": str(self.energy),
            "bound": str(self.bound),
        }


@dataclass
class VerificationReport:
    target: ExponentTarget
    n: int
    d: int
    mode: str                       # "exhaustive" or "sample"
    seed: Optional[int]
    subsets_checked: int
    max_ratio: Optional[float]      # over |A| >= 2 only
    max_ratio_witness: Optional[PointSet]
    equality_count: int
    violations: List[Violation] = field(default_factory=list)
    rows: Optional[List[Tuple[int, int, int, Optional[float]]]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "target": {
                "kind": self.target.kind.value,
                "k": self.target.k,
                "exponent": self.target.exponent,
                "log2_arg": None if self.target.log2_arg is None else str(self.target.log2_arg),
            },
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "seed": self.seed,
            "subsets_checked": self.subsets_checked,
            "max_ratio": self.max_ratio,
            "max_ratio_witness": None if self.max_ratio_witness is None else
                [list(p) for p in self.max_ratio_witness.sorted_points()],
            "equality_count": self.equality_count,
            "violations": [v.to_dict() for v in self.violations],
        }


def sweep_cube(n: int, d: int, target: ExponentTarget, *,
               sample: Optional[int] = None, seed: Optional[int] = None,
               collect_rows: bool = False,
               max_points: int = MAX_EXHAUSTIVE_POINTS) -> VerificationReport:
    """Check E(A) <= |A|^exponent over subsets of {0..n}^d.

    Exhaustive over all nonempty subsets when sample is None (requires at
    most max_points cube points); otherwise `sample` masks drawn uniformly
    with the given seed (requires at most MAX_SAMPLED_POINTS cube points:
    each mask holds about half of them).  Both budgets are checked before
    the cube is built.  An exhaustive sweep with d >= 2 computes one
    energy per orbit of the cube's symmetry group; the report is the same
    as from a scan in mask order: violations and rows in mask order, a tie
    for the best ratio going to the smallest mask.
    """
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    npts = (n + 1) ** d
    if sample is None:
        if npts > max_points:
            raise BudgetExceeded(
                "exhaustive sweep over %d points (> %d) refused" % (npts, max_points))
        masks = None
        mode = "exhaustive"
    else:
        if sample < 1:
            raise ValueError("sample must be >= 1")
        if npts > MAX_SAMPLED_POINTS:
            raise BudgetExceeded("sampled sweep over %d points (> %d) refused"
                                 % (npts, MAX_SAMPLED_POINTS))
        rng = random.Random(seed)
        masks = []
        while len(masks) < sample:
            m = rng.getrandbits(npts)
            if m:
                masks.append(m)
        mode = "sample"
    pts = PointSet.cube(n, d).sorted_points()
    packed = pack_points(pts, key_multiplier(target.k, target.kind))
    thresholds = [energy_threshold(target, c) for c in range(npts + 1)]

    violations: List[Tuple[int, int, int, int]] = []
    rows: Optional[List[Tuple[int, int, int, Optional[float]]]] = [] if collect_rows else None
    max_ratio = None
    best_mask = None
    equality_count = 0
    checked = 0

    for mask, c, e, members in _walk(pts, n, packed, target.k, target.kind, masks):
        checked += len(members)
        bound, exact_power = thresholds[c]
        if e > bound:
            violations.extend((m, c, e, bound) for m in members)
        elif exact_power and e == bound:
            equality_count += len(members)
        ratio = math.log(e) / math.log(c) if c >= 2 else None
        # an exhaustive walk may visit masks in any order; a tie goes to the
        # smallest mask, as in a scan in mask order.  mask is the smallest of
        # its members, which share its ratio.  A sample keeps its first
        # maximiser.
        if ratio is not None and (max_ratio is None or ratio > max_ratio or (
                ratio == max_ratio and masks is None and mask < best_mask)):
            max_ratio = ratio
            best_mask = mask
        if rows is not None:
            rows.extend((m, c, e, ratio) for m in members)
    if masks is None:
        violations.sort()
        if rows is not None:
            rows.sort()

    witness = _mask_to_set(best_mask, pts) if best_mask is not None else None
    return VerificationReport(target, n, d, mode, seed if mode == "sample" else None,
                              checked, max_ratio, witness, equality_count,
                              [Violation(_mask_to_set(mask, pts), c, e, bound)
                               for mask, c, e, bound in violations], rows)


def _cube_symmetries(pts: List[tuple], n: int) -> List[List[int]]:
    """Generators of the symmetry group of the cube {0..n}^d whose sorted
    points are pts, each as the permutation of point indices it induces:
    reflect coordinate 0 (x_0 -> n - x_0), swap coordinates 0 and 1, and
    rotate the coordinates (d >= 3).  With the swap, the rotation generates
    every coordinate permutation, and with those the reflection generates
    every reflection: the whole group of order 2^d d!."""
    d = len(pts[0])
    moves = [lambda p: (n - p[0],) + p[1:], lambda p: (p[1], p[0]) + p[2:]]
    if d >= 3:
        moves.append(lambda p: p[1:] + p[:1])
    index = {p: i for i, p in enumerate(pts)}
    return [[index[move(p)] for p in pts] for move in moves]


def _walk(pts: List[tuple], n: int, packed: List[int], k: int,
          kind: EnergyKind, masks: Optional[List[int]] = None
          ) -> Iterator[Tuple[int, int, int, Sequence[int]]]:
    """(mask, |B|, E(B), members) over the subsets of {0..n}^d: every mask
    in members has energy E(B), and mask is the smallest of them.

    An exhaustive walk with d >= 2 yields one entry per symmetry orbit.
    With d <= 1 the group has order at most 2, too small to repay computing
    each energy from scratch, so the Gray-code walk updates it in place, one
    mask an entry; given masks are likewise taken one at a time.  Measured
    on both energies, k = 2 and 3: the orbit walk takes 0.55-0.95x the Gray
    walk's time on {0..3}^2 and {0,1,2}^2 (group order 8), and ties on
    {0,1}^2 (15 masks); on {0..15}^1, with the reflection alone, it takes
    0.95-1.45x.  Every cube with d >= 2 within MAX_EXHAUSTIVE_POINTS is one
    of {0,1}^2, {0,1}^3, {0,1}^4, {0,1,2}^2 and {0..3}^2.
    """
    if masks is None and len(pts[0]) >= 2:
        return orbit_energies(packed, k, kind, _cube_symmetries(pts, n))
    return ((mask, c, e, (mask,))
            for mask, c, e in subset_energies(packed, k, kind, masks))


def _mask_to_set(mask: int, pts: List[tuple]) -> PointSet:
    chosen = [pts[i] for i in range(len(pts)) if (mask >> i) & 1]
    return PointSet(len(pts[0]) if pts else 0, frozenset(chosen))


def equality_witnesses(d: int, k: int, kind: EnergyKind, n: int = 1) -> List[PointSet]:
    """All nonempty subsets of {0..n}^d attaining E = |A|^exponent exactly.

    Equality requires |A| to be a power of two (the exponent is log2 of an
    integer that is not a power of two), so only the exact-power branch can
    report it.
    """
    target = ExponentTarget.sharp(kind, k)
    pts = PointSet.cube(n, d).sorted_points()
    npts = len(pts)
    if npts > 16:
        raise BudgetExceeded("equality sweep over %d points refused" % npts)
    packed = pack_points(pts, key_multiplier(k, kind))
    thresholds = [energy_threshold(target, c) for c in range(npts + 1)]
    # equality: an exact-power threshold (bound, True) with E == bound
    masks = [m for _, c, e, members in _walk(pts, n, packed, k, kind)
             if thresholds[c] == (e, True) for m in members]
    return [_mask_to_set(mask, pts) for mask in sorted(masks)]


# ---------------------------------------------------------------------------
# witness search on larger alphabets


@dataclass(frozen=True)
class LevelRecord:
    level: int
    size: int
    energy: int
    ratio: Optional[float]

    def to_dict(self) -> dict:
        return {"level": self.level, "size": self.size,
                "energy": str(self.energy), "ratio": self.ratio}


@dataclass
class WitnessSearchReport:
    n: int
    d: int
    k: int
    threshold: float
    levels: List[LevelRecord]
    best_ratio: Optional[float]
    best_level: Optional[int]
    crossed: bool
    undecided_levels: List[int]

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d, "k": self.k,
            "threshold": self.threshold,
            "levels": [r.to_dict() for r in self.levels],
            "best_ratio": self.best_ratio,
            "best_level": self.best_level,
            "crossed": self.crossed,
            "undecided_levels": self.undecided_levels,
        }


def _is_perfect_power_pair(energy_val: int, size: int,
                           base_num: int, base_den: int) -> bool:
    """True when (energy, size) = (a^t, b^t) for one integer t >= 1, which
    makes log(energy)/log(size) equal to log(a)/log(b) exactly."""
    if base_den < 2 or size < 2:
        return False
    t = 0
    s = 1
    while s < size:
        s *= base_den
        t += 1
    return s == size and base_num ** t == energy_val


def _is_rational_ratio(energy_val: int, size: int, num: int, den: int) -> bool:
    """True when log(energy)/log(size) = num/den exactly, for size >= 2 and
    num/den in lowest terms with den >= 1: then size^num = energy^den, so
    size = r^den and energy = r^num for one integer r >= 2."""
    if den > size.bit_length() or num < 0:
        return False
    r = _nth_root_floor(size, den)
    if r ** den != size:
        return False
    # r^num has at least (r.bit_length() - 1) * num + 1 bits
    return ((r.bit_length() - 1) * num < energy_val.bit_length()
            and r ** num == energy_val)


def _crosses(energy_val: int, size: int, threshold: float,
             threshold_log: Optional[Tuple[int, int]]) -> Optional[bool]:
    """Does log(energy)/log(size) strictly exceed the threshold?

    With threshold_log = (a, b) the bar is the exact number log(a)/log(b);
    without it, the bar is the float threshold's exact value num/den.  Both
    comparisons are certified by interval arithmetic, with the equal case
    detected exactly first.  Returns None when the interval comparison hits
    its precision cap (reported, never guessed).
    """
    if size < 2:
        return False
    if threshold_log is None:
        bar = Fraction(threshold)
        num, den = bar.numerator, bar.denominator
        if _is_rational_ratio(energy_val, size, num, den):
            return False
        sides = (lambda: num * log2_interval(size),
                 lambda: den * log2_interval(energy_val))
    else:
        a, b = threshold_log
        if _is_perfect_power_pair(energy_val, size, a, b):
            return False
        sides = (lambda: log2_interval(a) * log2_interval(size),
                 lambda: log2_interval(energy_val) * log2_interval(b))
    try:
        less, _ = decide_le(*sides)
    except PrecisionExhausted:
        return None
    return less


def witness_search_general_cube(n: int, d: int, threshold: float,
                                k: int = 2, max_points: int = 100_000,
                                threshold_log: Optional[Tuple[int, int]] = None
                                ) -> WitnessSearchReport:
    """Search the superlevel sets of the tensor-power weight w^(x d) on
    {0..n}^d, where w puts weight 1 on the middle letter(s) and 1/2 on the
    rest; level t collects points with at most t non-middle coordinates.
    Reports exact energies, from the generating-function engine
    level_set_energies, and the best log-ratio against the threshold.

    max_points is only a cube-size limit: a cube {0..n}^d with more points
    is refused, although no cube is built.  threshold_log = (a, b) declares
    the threshold to be log(a)/log(b) exactly; crossings are then certified
    instead of compared in floats, so a level whose ratio equals the bar
    exactly (the full cube) never counts.  A NaN or infinite threshold is
    rejected: it could never cross, or would always cross.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite, got %r" % (threshold,))
    if (n + 1) ** d > max_points:
        raise BudgetExceeded("cube with %d points refused" % ((n + 1) ** d))
    n_mid = len({n // 2, (n + 1) // 2})     # two middle letters for odd n
    energies = level_set_energies(n, d, k)

    records: List[LevelRecord] = []
    best_ratio = None
    best_level = None
    crossed = False
    undecided: List[int] = []
    size = 0
    for t, e in enumerate(energies):
        size += math.comb(d, t) * (n + 1 - n_mid) ** t * n_mid ** (d - t)
        EnergyValue(EnergyKind.ADDITIVE, k, size, e)    # the trivial bounds
        ratio = math.log(e) / math.log(size) if size >= 2 else None
        records.append(LevelRecord(t, size, e, ratio))
        if ratio is not None and (best_ratio is None or ratio > best_ratio):
            best_ratio = ratio
            best_level = t
        verdict = _crosses(e, size, threshold, threshold_log)
        if verdict is None:
            undecided.append(t)
        elif verdict:
            crossed = True
    return WitnessSearchReport(n, d, k, threshold, records, best_ratio,
                               best_level, crossed, undecided)
