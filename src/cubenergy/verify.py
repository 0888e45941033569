"""Exhaustive and sampled verification of energy exponent bounds on cubes.

Every comparison of an exact energy E with |A|^x, a sweep's threshold or a
witness search's crossing, first asks one exactness rule (_exact_power)
whether |A|^x is an integer; there it is exact integer arithmetic, equality
included.  The rest is certified against one enclosure of the exact bar x
(_bar_interval): a threshold by an interval floor that escalates precision
until it excludes every integer, a crossing by comparing logarithms.  No
verdict ever comes from bare floating point.

Both energies are invariant under the symmetries of the cube {0..n}^d, so
every exhaustive sweep computes one energy per orbit of its symmetry group
(energy.orbit_energies; 401 orbits for the 65 535 nonempty subsets of
{0,1}^4, 135 for the 255 of {0..7}) and counts it for every member.  The
walk closes each orbit under the cube's generators (the swap of
coordinates 0 and 1 and the signed rotation p -> p[1:] + (n - p[0],), at
d = 1 the reflection alone, at d = 0 none) in one breadth-first function
compiled per sweep, where each generator is one line of 256-entry
byte-table lookups on the mask's bytes.  A sampled sweep recounts each of
its masks from scratch (energy.subset_energies), by one energy kernel built
once per sweep (energy._mask_energy), its energies fanned out over forked
workers and merged in mask order.  equality_witnesses filters the entries
of the same walk as sweep_cube.

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

from mpmath import iv

from .energy import (MAX_ORBIT_POINTS, EnergyKind, EnergyValue,
                     key_multiplier, level_set_energies, orbit_energies,
                     subset_energies)
from .errors import BudgetExceeded, PrecisionExhausted
from .intervals import Interval, certified_floor, decide_le
from .lattice import PointSet, pack_points

# a sampled sweep's sets hold about half the cube's points each
MAX_SAMPLED_POINTS = 64


def _nth_root_floor(t: int, n: int) -> int:
    """floor(t ** (1/n)) for integers t >= 0, n >= 1 (Newton on integers)."""
    if t < 0 or n < 1:
        raise ValueError
    if t == 0:
        return 0
    # 1 <= t < 2^n: the root is 1, and Newton's first r ** (n - 1) would
    # have about n bits
    if n >= t.bit_length():
        return 1
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


def _exact_power(c: int, bar, bits: Optional[int] = None) -> Optional[int]:
    """c^x for an integer c >= 1 where this rule finds it an integer, else None.

    bar is a log pair (a, b), x = log(a)/log(b), or the exact Fraction num/den
    of a float exponent.  A pair of powers g^u and g^v (u, v >= 1) of one
    integer is the Fraction u/v; for any other pair c^x is the integer a^t
    when c = b^t, and the rule looks no further.  For num/den in lowest
    terms with num >= 0, c^x is an integer exactly when c = r^den: r^num.
    With bits given, a power that must have more than bits bits is None.
    """
    if not isinstance(bar, Fraction) and math.gcd(*bar) > 1:
        a, b = bar
        # g | gcd(a, b) and v < b.bit_length(); ints check the float's u/v
        x = Fraction(math.log(a) / math.log(b)).limit_denominator(
            b.bit_length())
        if a ** x.denominator == b ** x.numerator:
            bar = x
    if isinstance(bar, Fraction):
        base, t = _nth_root_floor(c, bar.denominator), bar.numerator
        if t < 0 or base ** bar.denominator != c:
            return None
    else:
        base, b = bar
        t, s = 0, 1
        while s < c:
            s *= b
            t += 1
        if s != c:
            return None
    # base^t has at least (base.bit_length() - 1) * t + 1 bits
    if bits is not None and (base.bit_length() - 1) * t >= bits:
        return None
    return base ** t


def _bar_interval(bar):
    """The enclosure of a bar: a Fraction, or log(a)/log(b) for a pair."""
    if isinstance(bar, Fraction):
        return Interval(bar)
    a, b = bar
    return iv.log(Interval(a)) / iv.log(Interval(b))


def energy_threshold(target: ExponentTarget, c: int) -> Tuple[int, bool]:
    """(floor(c^exponent), equality_possible) for a set of size c.

    equality_possible marks an exact power (_exact_power), where the
    threshold is c^exponent itself and E == threshold is a true equality
    case.  Otherwise the power is not an integer, and its floor is one
    certified interval floor.
    """
    if c < 0:
        raise ValueError
    if c == 0:
        return 0, False
    m = target.log2_arg
    bar = Fraction(target.exponent) if m is None else (m, 2)
    exact = _exact_power(c, bar)
    if exact is not None:
        return exact, True
    return certified_floor(lambda: iv.exp(
        iv.log(Interval(c)) * _bar_interval(bar))), False


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
               sample: Optional[int] = None, seed: Optional[int] = None
               ) -> VerificationReport:
    """Check E(A) <= |A|^exponent over subsets of {0..n}^d.

    Exhaustive over all nonempty subsets when sample is None (requires at
    most MAX_ORBIT_POINTS cube points); otherwise `sample` masks drawn
    uniformly with the given seed (requires at most MAX_SAMPLED_POINTS cube
    points: each mask holds about half of them).  Both budgets are checked
    before the cube is built.  An exhaustive sweep computes one energy per
    orbit of the cube's symmetry group; the report is the same as from a
    scan in mask order: violations in mask order, a tie for the best ratio
    going to the smallest mask.
    """
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    npts = (n + 1) ** d
    if sample is None:
        if npts > MAX_ORBIT_POINTS:
            raise BudgetExceeded("exhaustive sweep over %d points (> %d) refused"
                                 % (npts, MAX_ORBIT_POINTS))
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
    pts, thresholds, entries = _walk(n, d, target, masks)

    violations: List[Tuple[int, int, int, int]] = []
    max_ratio = None
    best_mask = None
    equality_count = 0
    checked = 0

    for mask, c, e, members in entries:
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
    if masks is None:
        violations.sort()

    witness = _mask_to_set(best_mask, pts) if best_mask is not None else None
    return VerificationReport(target, n, d, mode, seed if mode == "sample" else None,
                              checked, max_ratio, witness, equality_count,
                              [Violation(_mask_to_set(mask, pts), c, e, bound)
                               for mask, c, e, bound in violations])


def _cube_symmetries(pts: List[tuple], n: int) -> List[List[int]]:
    """Generators of the symmetry group of the cube {0..n}^d whose sorted
    points are pts, each as the permutation of point indices it induces:
    the signed rotation p -> p[1:] + (n - p[0],), a d-cycle of the
    coordinates that reflects one of them, and for d >= 2 the swap of
    coordinates 0 and 1 before it.  A transposition and a signed d-cycle
    generate the whole group of coordinate permutations and reflections, of
    order 2^d d!; at d = 1 the rotation is the reflection, and the group
    has order 2 (closed and counted in the tests for every cube the sweeps
    take).  At d = 0 the group is trivial: no generator."""
    d = len(pts[0])
    moves = [lambda p: (p[1], p[0]) + p[2:]] if d >= 2 else []
    if d:
        moves.append(lambda p: p[1:] + (n - p[0],))
    index = {p: i for i, p in enumerate(pts)}
    return [[index[move(p)] for p in pts] for move in moves]


def _walk(n: int, d: int, target: ExponentTarget,
          masks: Optional[List[int]] = None
          ) -> Tuple[List[tuple], List[Tuple[int, bool]],
                     Iterator[Tuple[int, int, int, Sequence[int]]]]:
    """(pts, thresholds, entries) of a sweep of {0..n}^d: the cube's sorted
    points, energy_threshold(target, c) for c = 0 .. len(pts), and entries
    (mask, |B|, E(B), members), every mask in members of energy E(B) and
    mask the smallest of them: one per orbit of the cube's symmetry group
    when masks is None (orbit_energies), else one a mask in their order."""
    k, kind = target.k, target.kind
    pts = PointSet.cube(n, d).sorted_points()
    packed = pack_points(pts, key_multiplier(k, kind))
    thresholds = [energy_threshold(target, c) for c in range(len(pts) + 1)]
    if masks is None:
        entries = orbit_energies(packed, k, kind, _cube_symmetries(pts, n))
    else:
        entries = ((mask, c, e, (mask,))
                   for mask, c, e in subset_energies(packed, k, kind, masks))
    return pts, thresholds, entries


def _mask_to_set(mask: int, pts: List[tuple]) -> PointSet:
    """The set of the points pts[i] whose bit i is set in mask.  The points
    of pts are already valid, so PointSet's check of every point is
    skipped: the fields are set as the frozen dataclass sets them."""
    chosen = []
    while mask:
        low = mask & -mask
        chosen.append(pts[low.bit_length() - 1])
        mask ^= low
    s = object.__new__(PointSet)
    object.__setattr__(s, "dim", len(pts[0]) if pts else 0)
    object.__setattr__(s, "points", frozenset(chosen))
    return s


def equality_witnesses(d: int, k: int, kind: EnergyKind, n: int = 1) -> List[PointSet]:
    """All nonempty subsets of {0..n}^d attaining E = |A|^exponent exactly.

    Equality requires |A| to be a power of two (the exponent is log2 of an
    integer that is not a power of two), so only the exact-power branch can
    report it.
    """
    target = ExponentTarget.sharp(kind, k)
    if (n + 1) ** d > 16:
        raise BudgetExceeded("equality sweep over %d points refused"
                             % ((n + 1) ** d))
    pts, thresholds, entries = _walk(n, d, target)
    # equality: an exact-power threshold (bound, True) with E == bound
    masks = [m for _, c, e, members in entries
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


def _crosses(energy_val: int, size: int, bar) -> Optional[bool]:
    """Does log(energy)/log(size) strictly exceed the bar, a log pair (a, b)
    meaning log(a)/log(b) or the exact Fraction of a float threshold?

    Where size^bar is an integer (_exact_power), the verdict is the integer
    comparison energy > size^bar, a tie included.  Only the rest is decided
    by interval arithmetic, bar * log(size) < log(energy), which returns None
    at its precision cap (reported, never guessed).
    """
    if size < 2:
        return False
    exact = _exact_power(size, bar, energy_val.bit_length() + 1)
    if exact is not None:
        return energy_val > exact
    try:
        less, _ = decide_le(
            lambda: _bar_interval(bar) * iv.log(Interval(size)),
            lambda: iv.log(Interval(energy_val)))
    except PrecisionExhausted:
        return None
    return less


def witness_search_general_cube(n: int, d: int, bar, k: int = 2,
                                max_points: int = 100_000
                                ) -> WitnessSearchReport:
    """Search the superlevel sets of the tensor-power weight w^(x d) on
    {0..n}^d, where w puts weight 1 on the middle letter(s) and 1/2 on the
    rest; level t collects points with at most t non-middle coordinates.
    Reports exact energies, from the generating-function engine
    level_set_energies, and the best log-ratio against the bar.

    max_points is only a cube-size limit: a cube {0..n}^d with more points
    is refused, although no cube is built.  The bar is a float threshold at
    its exact value, or a log pair (a, b) of ints, a >= 1 and b >= 2, the
    threshold log(a)/log(b) exactly, reported as math.log(a) / math.log(b).
    Crossings are certified, so a level whose ratio equals the bar (the full
    cube against (E({0..n}), n + 1)) never counts.  A NaN or infinite
    threshold is rejected: it could never cross, or would always cross.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if isinstance(bar, tuple):
        a, b = bar
        if a < 1 or b < 2:
            raise ValueError("a log pair bar needs a >= 1 and b >= 2")
        threshold = math.log(a) / math.log(b)
    elif not math.isfinite(bar):
        raise ValueError("threshold must be finite, got %r" % (bar,))
    else:
        threshold, bar = bar, Fraction(bar)
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
        verdict = _crosses(e, size, bar)
        if verdict is None:
            undecided.append(t)
        elif verdict:
            crossed = True
    return WitnessSearchReport(n, d, k, threshold, records, best_ratio,
                               best_level, crossed, undecided)
