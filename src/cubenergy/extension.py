"""Lower-bound machinery for the discrete extension constant on finite
lattice alphabets: weighted energies, ratio optimization, 0/1 restriction,
tensorization, dyadic comparison, and interval exponent bounds.

Everything here produces lower bounds witnessed by explicit weight
functions; upper bounds are never claimed beyond "no improvement found".
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ._fanout import _fan_out
from .energy import (EnergyKind, _chain, interval_energy_closed_form,
                     packed_power_energy, power_energy_plan, subset_energies)
from .errors import DimensionMismatch
from .intervals import decide_le, log2_interval
from .lattice import PointSet, WeightFn, pack_points

# the most points whose 2^m - 1 masks restricted_enumeration recounts in
# full, and so reports as exhaustive: for k = 2, and for every other k,
# where each energy costs more.  Both caps bound the same recount
# (subset_energies); at 20 points it holds 2^20 - 1 energies at once
RESTRICTED_EXHAUSTIVE_MAX = 20
RESTRICTED_SCRATCH_MAX = 14

# a forked worker pays for its fork (2.5 to 5 ms) only with enough starts.
# A start's work is estimated as the multiply-adds of one call of each of
# its weights' line-search slices, about 0.02 to 0.03 ms a unit: 11 units
# for {0,1} at k = 2 (0.2 ms a start), 30 for {0,1,2} (0.5 to 1.2 ms), 305
# for {0..4} at k = 3 (5 to 8 ms), 380 for {0,1}^3 (2 to 10 ms).  A worker
# gets a chunk of starts only with at least this many units.
START_FORK_WORK = 250

# the most coordinate-ascent sweeps of one start, converged or not
MAX_SWEEPS = 80


@dataclass(frozen=True)
class DEProblem:
    """Alphabet, moment index k (the energy uses 2k-tuples), and input norm
    exponent q.  The target energy exponent is p = 2k/q, so q <= 2k keeps
    p >= 1."""

    alphabet: PointSet
    k: int
    q: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.q <= 2 * self.k:
            raise ValueError("q must lie in (0, 2k]")
        if not self.alphabet.points:
            raise ValueError("alphabet must be nonempty")

    @property
    def p(self) -> float:
        return 2 * self.k / self.q

    @classmethod
    def from_p(cls, alphabet: PointSet, k: int, p: float) -> "DEProblem":
        if p < 1:
            raise ValueError("p must be >= 1")
        return cls(alphabet, k, 2 * k / p)

    def to_dict(self) -> dict:
        return {
            "alphabet": [list(pt) for pt in self.alphabet.sorted_points()],
            "k": self.k,
            "q": self.q,
            "p": self.p,
        }


def weighted_energy(f: WeightFn, k: int):
    """Sum over s of (sum_{x_1+...+x_k = s} f(x_1)...f(x_k))^2.

    Exact (Fraction) when f is exact; k-fold convolution then sum of squares.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.entries:
        return Fraction(0) if f.exact else 0.0
    base = dict(zip(pack_points(list(f.entries), k), f.entries.values()))
    return packed_power_energy(base, k)


def _power_sum(ws: Iterable[float], q: float) -> float:
    """sum of w^q added one by one in order: sum() compensates float
    rounding from Python 3.12 on, which would change report bytes."""
    total = 0.0
    for w in ws:
        total += w ** q
    return total


def lq_norm(f: WeightFn, q: float) -> float:
    if q <= 0:
        raise ValueError("q must be positive")
    return _power_sum(map(float, f.entries.values()), q) ** (1.0 / q)


def de_ratio(f: WeightFn, problem: DEProblem) -> float:
    """weighted_energy(f,k)^(1/2k) / ||f||_q, the extension lower bound
    witnessed by f."""
    if not f.entries:
        raise ValueError("f must not be identically zero")
    if f.dim != problem.alphabet.dim:
        raise DimensionMismatch(
            "weight dim %d vs alphabet dim %d" % (f.dim, problem.alphabet.dim))
    if not set(f.entries) <= problem.alphabet.points:
        raise ValueError("f must be supported inside the alphabet")
    energy = float(weighted_energy(f, problem.k))
    return energy ** (1.0 / (2 * problem.k)) / lq_norm(f, problem.q)


# ---------------------------------------------------------------------------
# 0/1 restriction


def _mask_ratio(energy: int, size: int, k: int, q: float) -> float:
    return float(energy) ** (1.0 / (2 * k)) / size ** (1.0 / q)


def restricted_enumeration(problem: DEProblem, *, sample_count: int = 4096,
                           seed: int = 0) -> Tuple[float, Tuple, bool]:
    """Best indicator-weight ratio: (ratio, witness points, exhaustive).

    Exhaustive whenever the alphabet is small enough or sample_count
    reaches the 2^m - 1 nonempty masks; otherwise a seeded mask sample that
    always includes the singletons and the full set, so the result is still
    a true lower bound and still >= 1.  Either way each mask's energy is
    recounted by subset_energies, fanned out over forked workers.
    """
    pts = problem.alphabet.sorted_points()
    m = len(pts)
    k, q = problem.k, problem.q
    packed = pack_points(pts, multiplier=k)

    exhaustive = m <= (RESTRICTED_EXHAUSTIVE_MAX if k == 2
                       else RESTRICTED_SCRATCH_MAX) \
        or sample_count >= (1 << m) - 1
    masks = None
    if not exhaustive:
        rng = random.Random(seed)
        sample = {1, (1 << m) - 1}
        sample.update(1 << i for i in range(m))
        while len(sample) < sample_count:
            v = rng.getrandbits(m)
            if v:
                sample.add(v)
        masks = sorted(sample)
    # ties go to the smallest mask, whatever order the masks come in
    best = (-1.0, 0)
    for mask, size, e in subset_energies(packed, k, EnergyKind.ADDITIVE, masks):
        r = _mask_ratio(e, size, k, q)
        if r > best[0] or (r == best[0] and mask < best[1]):
            best = (r, mask)
    return best[0], tuple(p for i, p in enumerate(pts) if best[1] >> i & 1), \
        exhaustive


# ---------------------------------------------------------------------------
# continuous optimization


@dataclass(frozen=True)
class DEEstimate:
    problem: DEProblem
    lower_bound: float
    witness: WeightFn
    restricted_lower_bound: float
    restricted_witness: WeightFn
    restricted_exhaustive: bool
    starts: int
    iterations: int
    converged: bool
    seed: int

    def __post_init__(self):
        if not self.lower_bound >= self.restricted_lower_bound:
            raise AssertionError("continuous bound lost to its own witness pool")
        if not self.restricted_lower_bound >= 1.0 - 1e-12:
            raise AssertionError("singleton witness forces a bound >= 1")

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "lower_bound": self.lower_bound,
            "witness": [[list(p), float(v)] for p, v in self.witness.items()],
            "restricted_lower_bound": self.restricted_lower_bound,
            "restricted_witness": [list(p) for p, _ in self.restricted_witness.items()],
            "restricted_exhaustive": self.restricted_exhaustive,
            "starts": self.starts,
            "iterations": self.iterations,
            "converged": self.converged,
            "seed": self.seed,
            "nonnegative_weights_assumed": True,
        }


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Abscissa of the golden-section search for a maximum of fn on
    [lo, hi]; fn is not evaluated at the point returned."""
    invphi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
    return (a + b) / 2


def _ratio_function(keys: List[int], k: int,
                    q: float) -> Callable[[List[float]], float]:
    """ws -> the ratio of the nonnegative float weights ws on the packed
    keys, as de_ratio computes it.  The keys never change, so the float
    convolution is compiled once, by power_energy_plan, into straight-line
    multiply-adds that give de_ratio's energy bit for bit.  The function's
    ``energy_of`` attribute is the plan."""
    inv2k = 1.0 / (2 * k)
    energy_of = power_energy_plan(keys, k)

    def ratio_of(ws: List[float]) -> float:
        return energy_of(ws) ** inv2k / _power_sum(ws, q) ** (1.0 / q)
    ratio_of.energy_of = energy_of
    return ratio_of


def _ratio_slices(energy_of, k: int, q: float) -> List["_Slice"]:
    """One compiled _Slice per weight of the ratio plan energy_of, for the
    line searches.  The plan is read once for all of them: which weights
    each value and each term read."""
    m = len(energy_of.names) - len(energy_of.sums)
    reads = [1 << b for b in range(m)]  # bit b: the value reads weight b
    masks = []                          # the same for each term, per sum
    for terms in energy_of.sums:
        masks.append([reads[a] | reads[b] for a, b in terms])
        reads.append(reduce(operator.or_, masks[-1], 0))
    return [_Slice(energy_of, reads, masks, i, k, q) for i in range(m)]


class _Slice:
    """The ratio as a function of weight i alone: ``self(ws)`` returns f
    with ``f(t) == ratio_of(ws with ws[i] = t)`` bit for bit.

    f is weight i's slice of the plan, compiled once, a partial evaluation
    (N. D. Jones, C. K. Gomard and P. Sestoft, Partial Evaluation and
    Automatic Program Generation, 1993).  A value of the plan is dirty when
    one of its terms reads weight i or a dirty value.  f keeps only the
    dirty values, t included: each starts from its partial sum before its
    first dirty term and adds every later term in the plan's order, a clean
    one as a constant; the sum of the q-th powers starts from the weights
    before i.  Each call runs the plan once, recording every value, and
    sets f's constants from them: clean values under their plan names,
    clean products c0, c1, ..., partial sums f0, f1, ... and powers p0, p1,
    ....  ``multiply_adds`` counts the terms f adds, dirty and clean."""

    def __init__(self, energy_of, reads: List[int], masks: List[List[int]],
                 i: int, k: int, q: float):
        names, m, bit = energy_of.names, len(reads) - len(masks), 1 << i
        self.energy_of, self.i, self.q = energy_of, i, q
        dirty: List[Tuple[int, int]] = []       # the factors of dirty terms
        self.singles: List[Tuple[int, int]] = []    # of c0, c1, ...
        self.partials: List[List[Tuple[int, int]]] = []  # terms of f0, ...
        lines = ["def f(%s):" % names[i]]
        for v, terms, deps in zip(range(m, len(names)), energy_of.sums, masks):
            first = next((n for n, d in enumerate(deps) if d & bit), None)
            if first is None:
                continue
            items = []
            for term, d in zip(terms[first:], deps[first:]):
                if d & bit:
                    items.append("%s * %s" % (names[term[0]], names[term[1]]))
                    dirty.append(term)
                else:
                    items.append("c%d" % len(self.singles))
                    self.singles.append(term)
            start = "0.0"
            if first:
                start = "f%d" % len(self.partials)
                self.partials.append(terms[:first])
            lines += _chain(names[v], start, items)
        powers = ["p%d" % n for n in range(m - i)]
        lines += _chain("u", powers[0] if i else "0.0",
                        ["%s ** q0" % names[i]] + powers[1:])
        lines.append("    return t ** q1 / u ** q2")
        self.namespace = {"q0": q, "q1": 1.0 / (2 * k), "q2": 1.0 / q}
        exec(compile("\n".join(lines), "<ratio slice %d>" % i, "exec"),
             self.namespace)
        self.f = self.namespace.pop("f")
        self.multiply_adds = len(dirty) + len(self.singles)
        self.named = [u for u in dict.fromkeys(u for pair in dirty
                                               for u in pair)
                      if not reads[u] & bit]
        self.constants = ([names[u] for u in self.named] +
                          ["c%d" % n for n in range(len(self.singles))] +
                          ["f%d" % n for n in range(len(self.partials))] +
                          (powers if i else powers[1:]))

    def __call__(self, ws: List[float]) -> Callable[[float], float]:
        values: List[float] = []
        self.energy_of(ws, values)
        add, i, q = operator.add, self.i, self.q
        found = [values[u] for u in self.named]
        found += [values[a] * values[b] for a, b in self.singles]
        found += [reduce(add, [values[a] * values[b] for a, b in terms], 0.0)
                  for terms in self.partials]
        if i:
            found.append(reduce(add, [w ** q for w in ws[:i]], 0.0))
        found += [w ** q for w in ws[i + 1:]]
        self.namespace.update(zip(self.constants, found))
        return self.f


def optimize_de(problem: DEProblem, *, seed: int = 0, starts: int = 24,
                restricted_sample: int = 4096) -> DEEstimate:
    """Best extension-ratio lower bound found by seeded multi-start
    coordinate ascent, merged with exhaustive (or sampled) 0/1 enumeration.

    Start 0 is all ones; the other starts' weights are all drawn up front,
    in start order, from one random.Random(seed).  Each sweep of a start
    line-searches every weight in turn by golden section on the weight's
    _Slice; the ratio plan gives the ratio at the start and end of each
    sweep.  The starts fan out over forked workers (_fanout._fan_out), which
    inherit the compiled plan and slices, in contiguous chunks of at least
    START_FORK_WORK units of work (per start, the multiply-adds of one call
    of every slice), and merge in start order, the first of equal bests
    winning, so the report is byte-identical for any worker count.

    The reported bound is always realized by the stored witness; convergence
    is advisory only.  Only nonnegative weights are searched: for even
    moments the energy is coordinate-wise monotone in |f|, so a sign flip
    cannot help, but witnesses are valid lower bounds either way.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    pts = problem.alphabet.sorted_points()
    m = len(pts)
    k, q = problem.k, problem.q

    r_best, r_points, exhaustive = restricted_enumeration(
        problem, sample_count=restricted_sample, seed=seed)
    restricted_witness = WeightFn(problem.alphabet.dim,
                                  {p: 1 for p in r_points}, True)

    ratio_of = _ratio_function(pack_points(pts, k), k, q)
    slices = _ratio_slices(ratio_of.energy_of, k, q)
    rng = random.Random(seed)
    inits = [[1.0] * m] + [[rng.uniform(0.05, 1.0) for _ in range(m)]
                           for _ in range(starts - 1)]

    def ascend(ws: List[float]) -> Tuple[float, List[float], int, bool]:
        prev = ratio_of(ws)
        converged = False
        sweeps = 0
        for _ in range(MAX_SWEEPS):
            sweeps += 1
            for i, line in enumerate(slices):
                ws[i] = _golden_max(line(ws), 0.0, 1.5)
            top = max(ws)
            if top > 0:
                ws = [w / top for w in ws]
            cur = ratio_of(ws)
            if cur - prev < 1e-12:
                prev = max(prev, cur)
                converged = True
                break
            prev = cur
        return prev, ws, sweeps, converged

    per_start = sum(line.multiply_adds for line in slices)
    best_val = -1.0
    best_ws: Optional[List[float]] = None
    total_sweeps = 0
    all_converged = True
    for val, ws, sweeps, converged in _fan_out(
            ascend, inits, math.ceil(START_FORK_WORK / per_start)):
        total_sweeps += sweeps
        all_converged = all_converged and converged
        if val > best_val:
            best_val, best_ws = val, ws

    witness = WeightFn(problem.alphabet.dim,
                       {p: w for p, w in zip(pts, best_ws) if w > 0}, False)
    cont_val = de_ratio(witness, problem) if witness.entries else 0.0
    if cont_val >= r_best:
        lower, best_witness = cont_val, witness
    else:
        lower, best_witness = r_best, restricted_witness
    return DEEstimate(problem, lower, best_witness, r_best,
                      restricted_witness, exhaustive, starts, total_sweeps,
                      all_converged, seed)


# ---------------------------------------------------------------------------
# exponent bounds


def three_point_condition_root(tol: float = 1e-8) -> float:
    """Root of w^4 - w^2 - 12w - 6 in [2, 2*sqrt(2)], by bisection.

    The bracket endpoints have opposite signs and every sign is decided
    exactly on the float's rational value, so the bracket certifies the
    root to the requested width.
    """
    def g(w: float) -> Fraction:
        x = Fraction(w)
        return x ** 4 - x ** 2 - 12 * x - 6

    lo, hi = 2.0, 2 * math.sqrt(2.0)
    if not (g(lo) < 0 < g(hi)):
        raise AssertionError("bracket endpoints must straddle the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def three_point_separation() -> dict:
    """The {0,1,2}, k=2 exponent bound 2 log2(w*) and its margin over the
    full-alphabet baseline log_3(19)."""
    root = three_point_condition_root()
    bound = 2 * math.log2(root)
    baseline = math.log(19) / math.log(3)
    return {
        "root": root,
        "bound": bound,
        "baseline": baseline,
        "margin": bound - baseline,
    }


_THREE_POINT_LINE = frozenset(((0,), (1,), (2,)))


def critical_exponent_lower_bound(alphabet: PointSet, k: int, *,
                                  tol: float = 1e-6, seed: int = 11,
                                  starts: int = 6) -> float:
    """Advisory estimate of the largest p that sits below the critical
    energy exponent of the alphabet, shown by a witness with ratio > 1.

    {0,1,2} with k=2 uses the exact univariate reduction: the quartic root
    w* gives the bound 2 log2 w*.  Everything else brackets the feasibility
    boundary by bisection over p in [k, 2k-1], where p is infeasible when
    the optimizer exhibits a witness beating ratio 1.  That test compares
    the float ratio with 1 + 1e-9, so the bound is not certified.
    """
    pts = alphabet.sorted_points()
    if len(pts) == 1:
        return 1.0
    if alphabet.dim == 1 and alphabet.points == _THREE_POINT_LINE and k == 2:
        return 2 * math.log2(three_point_condition_root())

    def infeasible(p: float) -> bool:
        est = optimize_de(DEProblem.from_p(alphabet, k, p),
                          seed=seed, starts=starts)
        return est.lower_bound > 1 + 1e-9

    lo, hi = float(k), float(2 * k - 1)
    if not infeasible(lo):
        return lo
    if infeasible(hi):
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if infeasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def tn_interval(n: int) -> Tuple[float, float]:
    """(log_{n+1} E_2({0..n}), 3): certified bracket for the interval
    exponent, asserted to beat 3 - log(3/2)/log(2m) with m = ceil(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e2 = interval_energy_closed_form(n)
    m = (n + 1) // 2
    above_floor, _ = decide_le(
        lambda: 3 - log2_interval(Fraction(3, 2)) / log2_interval(2 * m),
        lambda: log2_interval(e2) / log2_interval(n + 1))
    if not above_floor:
        raise AssertionError("interval bound fell below its floor at n=%d" % n)
    if not e2 <= (n + 1) ** 3:
        raise AssertionError("interval bound exceeded 3 at n=%d" % n)
    return math.log(e2) / math.log(n + 1), 3.0


# ---------------------------------------------------------------------------
# tensorization


@dataclass(frozen=True)
class TensorizationReport:
    k: int
    q: float
    tolerance: float
    a_best: float
    b_best: float
    product_best: float
    tensor_ratio: float
    defect: float
    multiplicative: bool
    tensor_direction_certified: bool
    converged: bool
    seed: int

    @property
    def ok(self) -> bool:
        return self.multiplicative and self.tensor_direction_certified

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "q": self.q,
            "tolerance": self.tolerance,
            "a_best": self.a_best,
            "b_best": self.b_best,
            "product_best": self.product_best,
            "tensor_ratio": self.tensor_ratio,
            "defect": self.defect,
            "multiplicative": self.multiplicative,
            "tensor_direction_certified": self.tensor_direction_certified,
            "converged": self.converged,
            "seed": self.seed,
            "ok": self.ok,
        }


def tensorization_check(a: PointSet, b: PointSet, k: int, q: float,
                        tolerance: float = 1e-3, *, seed: int = 0,
                        starts: int = 16) -> TensorizationReport:
    """Multiplicativity of the extension bound under alphabet products.

    The >= direction is witness-based and certain: the tensor product of the
    factor witnesses is itself a witness for the product alphabet.  The
    equality direction is numerical and only checked within tolerance.
    """
    pa = DEProblem(a, k, q)
    pb = DEProblem(b, k, q)
    pab = DEProblem(a.product(b), k, q)
    ea = optimize_de(pa, seed=seed, starts=starts)
    eb = optimize_de(pb, seed=seed + 1, starts=starts)
    eab = optimize_de(pab, seed=seed + 2, starts=starts)
    tensor = ea.witness.tensor(eb.witness)
    tensor_ratio = de_ratio(tensor, pab)
    product_best = max(eab.lower_bound, tensor_ratio)
    defect = abs(product_best - ea.lower_bound * eb.lower_bound)
    return TensorizationReport(
        k, q, tolerance, ea.lower_bound, eb.lower_bound, product_best,
        tensor_ratio, defect, defect <= tolerance,
        product_best + 1e-12 >= tensor_ratio,
        ea.converged and eb.converged and eab.converged, seed)


# ---------------------------------------------------------------------------
# dyadic decomposition and the 0/1 comparison


@dataclass(frozen=True)
class DyadicDecomposition:
    """f = sum_i 2^-i eps_i + f0 with 0/1 levels and a small remainder.

    Levels run up to ceil(log2 |A|): that depth is what forces the remainder
    below 1/|A| even when f takes the value 1.
    """

    base: WeightFn
    alphabet: PointSet
    levels: Tuple[Tuple[int, WeightFn], ...]
    remainder: WeightFn

    def reconstruct(self) -> Dict[Tuple[int, ...], Fraction]:
        out: Dict[Tuple[int, ...], Fraction] = {}
        for pt in self.alphabet.sorted_points():
            v = Fraction(self.remainder[pt])
            for i, eps in self.levels:
                if eps[pt]:
                    v += Fraction(1, 2 ** i)
            out[pt] = v
        return out

    def check(self) -> Dict[str, bool]:
        n = len(self.alphabet.points)
        rec = self.reconstruct()
        exact = all(rec[pt] == Fraction(self.base[pt])
                    for pt in self.alphabet.sorted_points())
        bound = Fraction(1, n)
        small = all(Fraction(v) <= bound for v in self.remainder.entries.values())
        count_ok = len(self.levels) <= math.log2(n) + 1 + 1e-12
        zero_one = all(set(eps.entries.values()) <= {Fraction(1)}
                       for _, eps in self.levels)
        return {
            "exact_reconstruction": exact,
            "remainder_bounded": small,
            "level_count_ok": count_ok,
            "levels_zero_one": zero_one,
        }

    @property
    def ok(self) -> bool:
        return all(self.check().values())

    def to_dict(self) -> dict:
        return {
            "alphabet_size": len(self.alphabet.points),
            "levels": [[i, [list(p) for p, _ in eps.items()]]
                       for i, eps in self.levels],
            "remainder": [[list(p), float(v)] for p, v in self.remainder.items()],
            "checks": self.check(),
        }


def dyadic_decompose(f: WeightFn, alphabet: Optional[PointSet] = None) -> DyadicDecomposition:
    """Binary-digit decomposition of a [0,1]-valued weight.

    Exact arithmetic throughout: float inputs are taken at their exact
    binary value, so the reconstruction identity is an equality of rationals
    rather than a tolerance check.
    """
    if alphabet is None:
        alphabet = f.support()
    if f.dim != alphabet.dim:
        raise DimensionMismatch("weight dim %d vs alphabet dim %d"
                                % (f.dim, alphabet.dim))
    if not set(f.entries) <= alphabet.points:
        raise ValueError("f must be supported inside the alphabet")
    n = len(alphabet.points)
    if n < 1:
        raise ValueError("alphabet must be nonempty")
    residual = {p: Fraction(v) for p, v in f.entries.items()}
    if any(v > 1 for v in residual.values()):
        raise ValueError("f must take values in [0,1]")
    depth = (n - 1).bit_length()
    levels = []
    for i in range(1, depth + 1):
        step = Fraction(1, 2 ** i)
        eps = {}
        for p, v in residual.items():
            if v >= step:
                eps[p] = 1
                residual[p] = v - step
        levels.append((i, WeightFn(f.dim, eps, True)))
    remainder = WeightFn(f.dim, residual, True)
    return DyadicDecomposition(f, alphabet, tuple(levels), remainder)


@dataclass(frozen=True)
class ComparisonReport:
    problem: DEProblem
    restricted_bound: float
    continuous_bound: float
    constant: float
    holds_lower: bool
    holds_upper: bool
    restricted_exhaustive: bool
    sample_count: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.holds_lower and self.holds_upper

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "restricted_bound": self.restricted_bound,
            "continuous_bound": self.continuous_bound,
            "constant": self.constant,
            "holds_lower": self.holds_lower,
            "holds_upper": self.holds_upper,
            "restricted_exhaustive": self.restricted_exhaustive,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "ok": self.ok,
        }


def comparison_check(alphabet: PointSet, k: int, q: float,
                     sample_count: int = 4096, seed: int = 0, *,
                     starts: int = 16) -> ComparisonReport:
    """Sandwich between the 0/1-restricted bound and the full bound:
    restricted <= full <= (2 + ln|A|) * restricted.

    The constant uses the natural log; the level count of the underlying
    binary decomposition is a log2 quantity, so this is the aggressive
    (smaller) reading of the factor and failures would be reported, not
    hidden.
    """
    problem = DEProblem(alphabet, k, q)
    est = optimize_de(problem, seed=seed, starts=starts,
                      restricted_sample=sample_count)
    tilde = est.restricted_lower_bound
    full = est.lower_bound
    constant = 2 + math.log(len(alphabet.points))
    return ComparisonReport(
        problem, tilde, full, constant,
        tilde <= full + 1e-12,
        full <= constant * tilde + 1e-9,
        est.restricted_exhaustive, sample_count, seed)
