"""Exact additive and higher energies of finite subsets of Z^d.

The additive energy of order k counts 2k-tuples (a_1..a_k, b_1..b_k) in A
with a_1+...+a_k = b_1+...+b_k.  The higher energy of order k counts
2k-tuples (a_1, b_1, ..., a_k, b_k) with a_1-b_1 = a_2-b_2 = ... = a_k-b_k.
Every energy runs on pack_points keys, by one of two routes.  A 0/1 set
(energy(), the CLI, orbit representatives, sampled masks) goes through
packed_subset_energy; a weighted map (the slice identities, the bullet
product, the extension ratios) through convolve_packed: packed_power_energy
for E_k, _correlation_moment for the k-th moment of a correlation.  Both
exact big-integer products use lattice's slot format (see
lattice._slot_bytes).  brute_force_energy stays the independent oracle.
subset_energies walks the subsets of a small point list, one point a step;
orbit_energies walks them one orbit of a given symmetry group at a time,
computing one energy per orbit.
level_set_energies gives E_k of the level sets of {0..n}^d (points with at
most t coordinates off the middle letters) from a generating function over
sum types, in time polynomial in d, without building the cube.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, product as iter_product, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import BudgetExceeded, DimensionMismatch
from .lattice import (DENSE_MAX_CELLS, CountsMap, PointSet, _int_slots,
                      _slot_bytes, _slots_int, convolve_packed, pack_points)


class EnergyKind(str, Enum):
    ADDITIVE = "additive"
    HIGHER = "higher"


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError("energy order k must be an integer >= 2")


@dataclass(frozen=True)
class EnergyValue:
    """An exact energy together with the data identifying what it measures.

    Construction enforces the trivial bounds |A|^k <= E <= |A|^(2k-1) for a
    nonempty set (and E = 0 for the empty set), so an out-of-range value can
    never circulate.
    """

    kind: EnergyKind
    k: int
    set_size: int
    value: int

    def __post_init__(self):
        _check_k(self.k)
        m, k, v = self.set_size, self.k, self.value
        if m < 0:
            raise ValueError("set_size must be >= 0")
        lo = m ** k
        hi = m ** (2 * k - 1)
        if not lo <= v <= hi:
            raise ValueError(
                "energy %d outside trivial bounds [%d, %d] for |A|=%d, k=%d"
                % (v, lo, hi, m, k))

    def log_ratio(self) -> Optional[float]:
        """log E / log |A|, or None when |A| < 2."""
        if self.set_size < 2:
            return None
        return math.log(self.value) / math.log(self.set_size)

    def to_report(self, witness_path: Optional[str] = None) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "set_size": self.set_size,
            "energy": str(self.value),
            "log_ratio": self.log_ratio(),
            "witness_path": witness_path,
        }


def packed_power_energy(base: dict, k: int):
    """sum_s (k-fold convolution power of base)(s)^2 for a map keyed by
    integers from pack_points(..., k).  Exact for int and Fraction values;
    float values are added one by one in a fixed order (not with sum(),
    which compensates float rounding from Python 3.12 on)."""
    conv = base
    for _ in range(k - 1):
        conv = convolve_packed(conv, base)
    total = 0
    for v in conv.values():
        total += v * v
    return total


def _correlation_moment(f: dict, g: dict, k: int) -> int:
    """sum_c (sum_{x - y = c} f(x) g(y))^k for maps keyed by pack_points
    integers: the k-th moment of the joint difference counts, f convolved
    with the reflection of g."""
    cross = convolve_packed(f, {-y: v for y, v in g.items()})
    return sum(v ** k for v in cross.values())


def _convolution_powers(base: dict, k: int) -> List[dict]:
    """[base^0, base^1, ..., base^k] under convolve_packed, base^0 = {0: 1}."""
    pows = [{0: 1}]
    for _ in range(k):
        pows.append(convolve_packed(pows[-1], base))
    return pows


def power_energy_plan(keys: List[int], k: int) -> Callable[[List[float]], float]:
    """packed_power_energy of dict(zip(keys, ws)) as a function of ws, for
    distinct keys and positive float weights, bit for bit.

    The float dict loop does the same multiply-adds for every set of
    weights on the same keys, so they are recorded once: each convolution
    stage is a list of (out_slot, in_slot, weight_index) steps, slots
    numbered in the order the loop first meets each sum (the dict's
    insertion order).  The returned function replays the steps on lists and
    then sums the squares of the last stage in slot order."""
    stages = []
    cur = list(keys)
    for _ in range(k - 1):
        slot: Dict[int, int] = {}
        steps = [(slot.setdefault(x + y, len(slot)), a, b)
                 for a, x in enumerate(cur) for b, y in enumerate(keys)]
        stages.append((len(slot), steps))
        cur = list(slot)

    def energy_of(ws: List[float]) -> float:
        cur = ws
        for size, steps in stages:
            out = [0.0] * size
            for o, a, b in steps:
                out[o] += cur[a] * ws[b]
            cur = out
        total = 0.0
        for v in cur:
            total += v * v
        return total
    return energy_of


def energy(a: PointSet, k: int, kind: EnergyKind) -> EnergyValue:
    """E_k(A) (additive) or E~_k(A) (higher) of a finite set A, exactly.

    The one route for 0/1 sets: the points are packed with
    pack_points(..., key_multiplier(k, kind)) and counted by
    packed_subset_energy, the kernel the sweeps call on each subset."""
    _check_k(k)
    if not isinstance(kind, EnergyKind):
        raise ValueError("unknown energy kind %r" % (kind,))
    sel = pack_points(a.sorted_points(), key_multiplier(k, kind))
    return EnergyValue(kind, k, len(a), packed_subset_energy(sel, k, kind))


def additive_energy(a: PointSet, k: int) -> EnergyValue:
    """E_k(A) = sum_x (k-fold convolution of the indicator)(x)^2."""
    return energy(a, k, EnergyKind.ADDITIVE)


def higher_energy(a: PointSet, k: int) -> EnergyValue:
    """E~_k(A) = sum_x (autocorrelation of the indicator)(x)^k."""
    return energy(a, k, EnergyKind.HIGHER)


def brute_force_energy(a: PointSet, k: int, kind: EnergyKind,
                       budget: int = 10 ** 9) -> EnergyValue:
    """Independent oracle: count the defining 2k-tuples directly.

    Points are packed into carry-free integers so tuple comparisons are exact
    single int comparisons; the count itself is a literal enumeration over
    k-tuples (additive) or difference pairs (higher), |A|^(2k) comparisons in
    the worst case.  Raises BudgetExceeded when |A|^(2k) > budget.
    """
    _check_k(k)
    m = len(a)
    if m == 0:
        return EnergyValue(kind, k, 0, 0)
    if m ** (2 * k) > budget:
        raise BudgetExceeded("|A|^(2k) = %d exceeds budget %d" % (m ** (2 * k), budget))
    packed = pack_points(a.sorted_points(), k)
    if kind is EnergyKind.ADDITIVE:
        sums = [sum(t) for t in iter_product(packed, repeat=k)]
        value = sum(sums.count(s) for s in sums)
    else:
        diffs = [x - y for x in packed for y in packed]
        value = sum(diffs.count(d) ** (k - 1) for d in diffs)
    return EnergyValue(kind, k, m, value)


def key_multiplier(k: int, kind: EnergyKind) -> int:
    """The pack_points multiplier for the sweep kernels: sums of k keys
    (additive) or differences of two (higher) must decode uniquely."""
    return k if kind is EnergyKind.ADDITIVE else 2


def packed_subset_energy(sel: List[int], k: int, kind: EnergyKind) -> int:
    """Energy of a set given as distinct carry-free packed integers (keys
    from pack_points(..., key_multiplier(k, kind)); the sweeps' inner loop):
    one product of the indicator (_product_energy) where _slot_width finds
    that it pays, else the weighted-map route, packed_power_energy or, for
    the higher energy, _correlation_moment on the indicator."""
    if not sel:
        return 0
    higher = kind is EnergyKind.HIGHER
    lo, hi = min(sel), max(sel)
    width = _slot_width(len(sel), k, higher, hi - lo)
    if width:
        return _product_energy(sel, k, higher, lo, hi, width)
    ind = dict.fromkeys(sel, 1)
    if higher:
        return _correlation_moment(ind, ind, k)
    return packed_power_energy(ind, k)


def _slot_width(size: int, k: int, higher: bool, gap: int) -> int:
    """lattice._slot_bytes of the slot bound, |A|^(k-1) (additive) or |A|
    (higher), for the product path of packed_subset_energy, or 0 for its
    weighted-map route, for a set of `size` keys spread over gap + 1.

    The choice compares the two paths' costs, counted in updates of
    convolve_packed's dict loop.  The loop makes size**2 updates (higher)
    or size * sum_{j<k} n_j, where n_j = min(C(size+j-1, j), j*gap + 1)
    bounds the distinct j-fold sums (additive).  The product path costs
    0.3 updates per slot of its product Q, plus 10 updates for the higher
    product or (bytes of Q)**1.585 / 530 for the additive power
    (Karatsuba).  The constants were fitted to timings of both paths on
    random subsets of {0,1}^d (d <= 5), {0,1,2}^d, {0..3}^2 and {0..n},
    k = 2..11, against a loop that counted without multiplying by weights.
    """
    width = _slot_bytes(size if higher else size ** (k - 1))
    cells = (2 if higher else k) * gap + 1
    if width > 8 or cells > DENSE_MAX_CELLS:
        return 0
    if higher:
        return width if 0.3 * cells + 10 < size * size else 0
    updates = 0
    for j in range(1, k):
        updates += min(math.comb(size + j - 1, j), j * gap + 1)
    cost = 0.3 * cells + (cells * width) ** 1.585 / 530
    return width if cost < size * updates else 0


def _product_energy(sel: List[int], k: int, higher: bool, lo: int, hi: int,
                    width: int) -> int:
    """packed_subset_energy by one product of indicators in lattice's slot
    format, `width`-byte slots that the caller checked cannot carry: slot s
    of P**k counts the ordered k-tuples with sum k*lo + s (additive), slot s
    of P * R, R the reflected indicator, the pairs with difference
    s - (hi - lo) (higher)."""
    cells = hi - lo + 1
    p = _slots_int(sel, repeat(1), lo, cells, width)
    if higher:
        r = _slots_int(map(operator.neg, sel), repeat(1), -hi, cells, width)
        slots = _int_slots(p * r, 2 * cells - 1, width)
        table = [c ** k for c in range(len(sel) + 1)]
        return sum(map(table.__getitem__, slots))
    slots = _int_slots(p ** k, k * (cells - 1) + 1, width)
    return sum(map(operator.mul, slots, slots))


def subset_energies(packed: List[int], k: int, kind: EnergyKind,
                    masks: Optional[Iterable[int]] = None
                    ) -> Iterator[Tuple[int, int, int]]:
    """Yield (mask, |B|, E(B)), bit i of mask selecting packed[i] (keys
    from pack_points(..., key_multiplier(k, kind))).

    masks=None walks every nonempty subset in reflected Gray-code order
    (Knuth, TAOCP 4A, 7.2.1.1): step g moves the point of the lowest set bit
    of g in or out and updates the energy in place.  Additive: reps[j]
    counts ordered j-tuples by sum; adding p adds C(j,i) reps[j-i] shifted
    by i*p, top-down, and removing p subtracts it bottom-up, so no update
    reads a table that contains p.  Higher: the pair-difference counts.
    Given masks are recounted from scratch, in the order given.
    """
    n = len(packed)
    if masks is not None:
        for mask in masks:
            sel = [packed[i] for i in range(n) if mask >> i & 1]
            yield mask, len(sel), packed_subset_energy(sel, k, kind)
        return
    higher = kind is EnergyKind.HIGHER
    power = [c ** k for c in range(n + 1)]
    diffs: Dict[int, int] = {}
    members: set = set()
    reps: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    # one update per (j, i): reps[j] gains coef * reps[j-i] shifted by i*p;
    # E, the sum of squares of the top table reps[k], follows its updates
    adds = [(reps[j], reps[j - i], math.comb(j, i), i, j == k)
            for j in range(k, 0, -1) for i in range(1, j + 1)]
    plans = {1: adds, -1: [(tab, src, -coef, i, top)
                           for tab, src, coef, i, top in reversed(adds)]}
    mask = size = energy = 0
    for g in range(1, 1 << n):
        bit = g & -g
        p = packed[bit.bit_length() - 1]
        mask ^= bit
        sign = 1 if mask & bit else -1
        size += sign
        if higher:
            members.discard(p)          # members without p; its pairs follow
            get = diffs.get
            for t in [0] + [p - x for x in members] + [x - p for x in members]:
                c = get(t, 0)
                diffs[t] = c + sign
                energy += power[c + sign] - power[c]
            if sign > 0:
                members.add(p)
        else:
            for tab, src, coef, i, top in plans[sign]:
                get = tab.get
                off = i * p
                for s, v in src.items():
                    t = s + off
                    c = get(t, 0)
                    dv = coef * v
                    if top:
                        energy += dv * (2 * c + dv)
                    if c + dv:
                        tab[t] = c + dv
                    else:
                        del tab[t]
        yield mask, size, energy


def _byte_tables(perm: List[int]) -> List[Tuple[int, List[int]]]:
    """(shift, table) per chunk of at most 8 bits of a mask: table[b] is
    the image under perm of the bits b at that shift, so OR-ing the tables'
    entries applies perm to a whole mask."""
    out = []
    for shift in range(0, len(perm), 8):
        table = [0] * (1 << min(8, len(perm) - shift))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | 1 << perm[shift + low.bit_length() - 1]
        out.append((shift, table))
    return out


def orbit_energies(packed: List[int], k: int, kind: EnergyKind,
                   symmetries: List[List[int]]
                   ) -> Iterator[Tuple[int, int, int, List[int]]]:
    """Yield (rep, |B|, E(B), members) once per orbit of the nonempty masks
    under the group generated by `symmetries`, bit i of a mask selecting
    packed[i] (keys from pack_points(..., key_multiplier(k, kind))).

    Each symmetry is a permutation of the point indices that preserves both
    energies (for a cube {0..n}^d: coordinate permutations and reflections
    x_i -> n - x_i).  Masks are scanned in increasing order and each unseen
    one has its orbit closed by breadth-first search over the generators,
    so rep is the orbit's smallest mask and reps arrive in increasing order.
    E is computed once per orbit, from scratch.
    """
    n = len(packed)
    tables = [_byte_tables(perm) for perm in symmetries]
    seen = bytearray(1 << n)
    for rep in range(1, 1 << n):
        if seen[rep]:
            continue
        seen[rep] = 1
        members = [rep]
        for mask in members:            # grows while it is walked
            for chunks in tables:
                img = 0
                for shift, table in chunks:
                    img |= table[mask >> shift & 255]
                if not seen[img]:
                    seen[img] = 1
                    members.append(img)
        sel = [packed[i] for i in range(n) if rep >> i & 1]
        yield rep, len(sel), packed_subset_energy(sel, k, kind), members


def interval_energy_closed_form(n: int) -> int:
    """E_2({0,...,n}) in closed form, split by parity of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        m = (n + 1) // 2
        num = 16 * m ** 3 + 2 * m
    else:
        m = n // 2
        num = 16 * m ** 3 + 24 * m ** 2 + 14 * m + 3
    if num % 3:
        raise ArithmeticError("closed form must be divisible by 3")
    return num // 3


def full_cube_energy(n: int, d: int, k: int, kind: EnergyKind) -> EnergyValue:
    """Energy of {0..n}^d computed as the d-th power of the 1-d value."""
    _check_k(k)
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    base = energy(PointSet.cube(n, 1), k, kind)
    return EnergyValue(kind, k, (n + 1) ** d, base.value ** d)


def _exponent_moves(key: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """(sorted(key + f), |f|, number of such f) over the 0/1 vectors f, for
    a sorted key; f raises a of the b equal entries of each run of key."""
    runs = [(v, len(list(run))) for v, run in groupby(key)]
    for picks in iter_product(*(range(b + 1) for _, b in runs)):
        out: List[int] = []
        ways = 1
        for (v, b), a in zip(runs, picks):
            out += [v] * (b - a) + [v + 1] * a
            ways *= math.comb(b, a)
        yield tuple(out), sum(picks), ways


def level_set_energies(n: int, d: int, k: int) -> List[int]:
    """[E_k(A_0), ..., E_k(A_d)] for the level sets A_t of {0..n}^d, the
    points with at most t coordinates off the middle letter(s) n//2, (n+1)//2.

    E_k(A_t) = sum_s r_t(s)^2 over the k-fold sums s in {0..kn}^d, and r_t(s)
    depends on s only through its type (how many coordinates take each
    value), so the energy is a sum over types of multinomial * r_t^2.  Per
    coordinate sum s, R_s = sum_j coef[s][j] e_j(u_1..u_k) marks with u_i the
    tuple members off the middle (e_j elementary symmetric); r_t(s) sums the
    coefficients of prod_i R_(s_i) with every exponent <= t.  The walk
    multiplies in one R_s per step over non-decreasing type sequences, with
    s and kn - s folded together (R_s = R_(kn-s)), and keeps each symmetric
    product as its coefficient sums over sorted exponent vectors.  The work
    is polynomial in d; it never builds the cube.
    """
    _check_k(k)
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    mids = {n // 2, (n + 1) // 2}
    on = dict.fromkeys(mids, 1)
    off = dict.fromkeys((c for c in range(n + 1) if c not in mids), 1)
    half = k * n // 2
    pow_off, pow_on = _convolution_powers(off, k), _convolution_powers(on, k)
    # coef[s][j]: letter k-tuples summing to s, the first j off the middle
    coef = [[0] * (k + 1) for _ in range(half + 1)]
    for j in range(k + 1):
        poly = convolve_packed(pow_off[j], pow_on[k - j])
        for s in range(half + 1):
            coef[s][j] = poly.get(s, 0)
    fold = [1 if 2 * s == k * n else 2 for s in range(half + 1)]
    moves: Dict[Tuple[int, ...], list] = {}

    def times(poly: dict, s: int) -> dict:
        c = coef[s]
        out: dict = {}
        get = out.get
        for key, q in poly.items():
            steps = moves.get(key)
            if steps is None:
                steps = moves[key] = list(_exponent_moves(key))
            for g, j, ways in steps:
                if c[j]:
                    out[g] = get(g, 0) + q * ways * c[j]
        return out

    totals = [0] * (d + 1)
    counts = [0] * (half + 1)

    def walk(poly: dict, depth: int, lo: int, weight: int) -> None:
        if depth == d:
            by_max = [0] * (d + 1)
            for key, q in poly.items():
                by_max[key[-1]] += q
            r = 0
            for t in range(d + 1):
                r += by_max[t]
                totals[t] += weight * r * r
            return
        for s in range(lo, half + 1):
            counts[s] += 1
            walk(times(poly, s), depth + 1, s,
                 weight * (depth + 1) // counts[s] * fold[s])
            counts[s] -= 1

    walk({(0,) * k: 1}, 0, 0, 1)
    return totals


# ---------------------------------------------------------------------------
# last-coordinate decomposition


@dataclass(frozen=True)
class SplitDecomposition:
    """Slices of A by its last coordinate, projected one dimension down.

    a0 = {x : (x, 0) in A}, a1 = {x : (x, 1) in A}.  cross_terms / c1 / c2
    are filled by decomposition_identity_check.
    """

    a0: PointSet
    a1: PointSet
    cross_terms: Tuple[int, ...] = ()
    c1: Optional[int] = None
    c2: Optional[int] = None

    def reconstruct(self) -> PointSet:
        pts = {p + (0,) for p in self.a0.points} | \
              {p + (1,) for p in self.a1.points}
        return PointSet(self.a0.dim + 1, frozenset(pts))


def split_last_coordinate(a: PointSet) -> SplitDecomposition:
    """Split A by a binary last coordinate.  Requires dim >= 1 and last
    coordinates contained in {0, 1}."""
    if a.dim < 1:
        raise ValueError("need dim >= 1 to split")
    p0, p1 = set(), set()
    for p in a.points:
        if p[-1] == 0:
            p0.add(p[:-1])
        elif p[-1] == 1:
            p1.add(p[:-1])
        else:
            raise ValueError("last coordinate must be 0 or 1, got %d" % p[-1])
    d = a.dim - 1
    return SplitDecomposition(PointSet(d, frozenset(p0)), PointSet(d, frozenset(p1)))


def bullet_product(f: CountsMap, g: CountsMap, k: int) -> int:
    """sum_c (g correlated with f)(c)^k, i.e. the k-th moment of the joint
    difference counts; for f = g = indicator(A) this equals the higher energy."""
    _check_k(k)
    if f.dim != g.dim:
        raise DimensionMismatch("dims %d and %d" % (f.dim, g.dim))
    packed = pack_points(list(f.entries) + list(g.entries), 2)
    return _correlation_moment(dict(zip(packed, f.entries.values())),
                               dict(zip(packed[len(f):], g.entries.values())),
                               k)


@dataclass(frozen=True)
class DecompositionReport:
    kind: EnergyKind
    k: int
    set_size: int
    lhs: int
    e0: int
    e1: int
    split: SplitDecomposition
    rhs: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "set_size": self.set_size,
            "lhs": str(self.lhs),
            "e0": str(self.e0),
            "e1": str(self.e1),
            "cross_terms": [str(c) for c in self.split.cross_terms],
            "c1": None if self.split.c1 is None else str(self.split.c1),
            "c2": None if self.split.c2 is None else str(self.split.c2),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


def decomposition_identity_check(a: PointSet, k: int, kind: EnergyKind) -> DecompositionReport:
    """Verify the exact split identity for a set with binary last coordinate.

    additive:  E_k(A) = sum_{i=0}^{k} binom(k,i)^2 * S_i,
               S_i = sum_x (chi0^{*i} * chi1^{*(k-i)})(x)^2,
               S_0 = E_k(A1), S_k = E_k(A0), S_1..S_{k-1} the cross terms.
    higher:    E~_k(A) = C1 + C2 + E~_k(A0) + E~_k(A1)
                        + sum_{i=1}^{k-1} binom(k,i) * T_i,
               T_i = sum_x (chi0 o chi0)^i (chi1 o chi1)^{k-i} (x),
               C1 = C2 the two mixed bullet products (equal by reflection).
    """
    _check_k(k)
    split = split_last_coordinate(a)
    pts0 = split.a0.sorted_points()
    packed = pack_points(pts0 + split.a1.sorted_points(), k)
    ind0 = dict.fromkeys(packed[:len(pts0)], 1)
    ind1 = dict.fromkeys(packed[len(pts0):], 1)
    lhs = energy(a, k, kind).value
    c1 = None
    if kind is EnergyKind.ADDITIVE:
        pow0, pow1 = _convolution_powers(ind0, k), _convolution_powers(ind1, k)
        s = [sum(v * v for v in convolve_packed(pow0[i], pow1[k - i]).values())
             for i in range(k + 1)]
        rhs = sum(math.comb(k, i) ** 2 * s_i for i, s_i in enumerate(s))
        e0, e1, cross = s[k], s[0], s[1:k]
    else:
        auto0, auto1 = (convolve_packed(ind, {-x: 1 for x in ind})
                        for ind in (ind0, ind1))
        e0 = sum(v ** k for v in auto0.values())
        e1 = sum(v ** k for v in auto1.values())
        common = [(u, auto1[x]) for x, u in auto0.items() if x in auto1]
        cross = [sum(u ** i * v ** (k - i) for u, v in common)
                 for i in range(1, k)]
        c1 = _correlation_moment(ind0, ind1, k)
        rhs = 2 * c1 + e0 + e1 + sum(math.comb(k, i) * t_i
                                     for i, t_i in enumerate(cross, 1))
    split = SplitDecomposition(split.a0, split.a1, tuple(cross), c1, c1)
    return DecompositionReport(kind, k, len(a), lhs, e0, e1, split, rhs, lhs == rhs)
