"""Exact additive and higher energies of finite subsets of Z^d.

The additive energy of order k counts 2k-tuples (a_1..a_k, b_1..b_k) in A
with a_1+...+a_k = b_1+...+b_k.  The higher energy of order k counts
2k-tuples (a_1, b_1, ..., a_k, b_k) with a_1-b_1 = a_2-b_2 = ... = a_k-b_k.
Every energy runs on pack_points keys, by one of two routes.  A 0/1 set
(energy(), the CLI) goes through packed_subset_energy; a weighted map (the
slice identities, the bullet product, the extension ratios) through
convolve_packed: packed_power_energy for E_k, _correlation_moment for the
k-th moment of a correlation.  Both exact big-integer products use
lattice's slot format (see lattice._slot_bytes).  The masks of a sweep
(orbit representatives, every or sampled masks) take the same product
through _mask_energy, a kernel built once per sweep when the product
pays, in 1-byte slots, for the whole point list: a mask's indicator is an
OR of per-byte table lookups, its slots' powers summed by bytes.translate
and zlib.adler32 over chunks of at most 256 bytes (exact: their byte sums
stay below 65521); otherwise each mask goes through packed_subset_energy.
power_energy_plan compiles packed_power_energy's float dict loop, for
fixed keys, into one straight-line function of the weights (the extension
optimizer's ratios), bit for bit the same, which can also record every
value it computes (the state its line searches start from).
brute_force_energy stays the independent oracle.
Every exhaustive energy comes from one of two walks, both on _mask_energy.
subset_energies recounts every mask of a point list, or given masks, with
their energies fanned out over forked workers (_fanout) and merged in mask
order; orbit_energies walks the subsets of a cube one orbit of its
symmetry group at a time, by halves along coordinate 1 and a merge over
the cosets of that coordinate's stabilizer, with one energy and the size
of each orbit and no bitmap of masks; orbit_members lists an orbit on
demand, each image by 256-entry byte tables (_byte_tables).
level_set_energies gives E_k of the level sets of {0..n}^d (points with at
most t coordinates off the middle letters) from a generating function over
sum types, in time polynomial in d, without building the cube.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, permutations, product as iter_product, repeat
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)
from zlib import adler32

from ._fanout import _fan_out
from .errors import BudgetExceeded, DimensionMismatch
from .lattice import (DENSE_MAX_CELLS, CountsMap, PointSet, _int_slots,
                      _slot_bytes, _slots_int, _slots_int_reflected,
                      convolve_packed, pack_points)


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

    def to_report(self) -> dict:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "set_size": self.set_size,
            "energy": str(self.value),
            "log_ratio": self.log_ratio(),
            "witness_path": None,
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


# terms per statement of generated source: a chain of additions nests one
# level a term in the compiler, so long sums are cut into statements
CHAIN_TERMS = 64


def _chain(target: str, start: str, terms: List[str]) -> List[str]:
    """Source lines that set ``target`` to ``start + terms[0] + terms[1] +
    ...``, added left to right as the loop ``target = start; target +=
    term`` adds them, CHAIN_TERMS terms a statement."""
    return ["    %s = %s + %s" % (target, target if q else start,
                                  " + ".join(terms[q:q + CHAIN_TERMS]))
            for q in range(0, len(terms), CHAIN_TERMS)]


def _plan_sums(keys: List[int], k: int) -> Tuple[List[str],
                                                 List[List[Tuple[int, int]]]]:
    """The multiply-adds of packed_power_energy's float dict loop on
    distinct keys, recorded for any weights: (names, sums).

    names[v] names value v: the weights w0, w1, ... first, then the slots
    sj_o of each stage j = 1..k-1, numbered in the order the loop first
    meets each sum (the dict's insertion order), and last the energy t.
    Value m + n, m the number of weights, is 0.0 plus the products
    values[a] * values[b] of the terms (a, b) of sums[n], added in the
    loop's order: a slot of stage j gets slots of stage j - 1 (weights at
    j = 1) times weights, and t the squares of the last stage in slot
    order."""
    names = ["w%d" % b for b in range(len(keys))]
    sums: List[List[Tuple[int, int]]] = []
    stage = list(range(len(keys)))      # the values of the last stage
    at = list(keys)                     # and their key sums
    for j in range(1, k):
        slot: Dict[int, int] = {}
        terms: List[List[Tuple[int, int]]] = []
        for c, x in zip(stage, at):
            for b, y in enumerate(keys):
                o = slot.setdefault(x + y, len(terms))
                if o == len(terms):
                    terms.append([])
                terms[o].append((c, b))
        stage = list(range(len(names), len(names) + len(terms)))
        names += ["s%d_%d" % (j, o) for o in range(len(terms))]
        sums += terms
        at = list(slot)
    names.append("t")
    sums.append([(v, v) for v in stage])
    return names, sums


def power_energy_plan(keys: List[int], k: int) -> Callable[..., float]:
    """packed_power_energy of dict(zip(keys, ws)) as a function of ws, for
    distinct keys and nonnegative float weights, bit for bit.

    The float dict loop does the same multiply-adds for every set of
    weights on the same keys, so they are recorded once (_plan_sums) and
    written as the source of one straight-line function (the way
    dataclasses writes __init__) that is compiled once.  It unpacks ws into
    locals w0, w1, ...; stage j of the convolution has a local sj_o per
    slot o, set to `0.0 + c * wb + ...` over the slot's terms in the loop's
    order, c a slot of stage j - 1 (or a weight); then t is `0.0 + v * v +
    ...` over the last stage in slot order.  Additions run left to right,
    so every slot sees the dict loop's multiplications and additions in the
    same order.  The source holds only names built from integer indices.

    ``energy_of(ws, values)`` also appends every value of the call to the
    list ``values``, in the order of ``energy_of.names``: the recorded state
    that the extension optimizer's line searches start from.  The
    function's ``names`` and ``sums`` attributes are the recording."""
    names, sums = _plan_sums(keys, k)
    lines = ["def energy_of(ws, values=None):",
             "    [%s] = ws" % ", ".join(names[:len(keys)])]
    for name, terms in zip(names[len(keys):], sums):
        lines += _chain(name, "0.0", ["%s * %s" % (names[a], names[b])
                                      for a, b in terms])
    lines += ["    if values is not None:",
              "        values.extend((%s,))" % ", ".join(names),
              "    return t"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<power_energy_plan>", "exec"), namespace)
    energy_of = namespace["energy_of"]
    energy_of.names, energy_of.sums = names, sums
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
    format (_product_slots), `width`-byte slots that the caller checked
    cannot carry."""
    cells = hi - lo + 1
    if higher:
        p, r = _slots_int_reflected(sel, repeat(1), lo, cells, width)
        table = [c ** k for c in range(len(sel) + 1)]
        return sum(map(table.__getitem__,
                       _product_slots(p, r, k, hi - lo, width)))
    p = _slots_int(sel, repeat(1), lo, cells, width)
    slots = _product_slots(p, None, k, hi - lo, width)
    return sum(map(operator.mul, slots, slots))


def _product_slots(p: int, r: Optional[int], k: int, gap: int, width: int
                   ) -> Sequence[int]:
    """The slots of P**k (additive, r None) or of P * R (higher), P the
    indicator of a set of keys in lo .. lo + gap in `width`-byte slots and
    R its reflection (slot lo + gap - key): slot s counts the ordered
    k-tuples with sum k*lo + s, or the pairs with difference s - gap."""
    if r is None:
        return _int_slots(p ** k, k * gap + 1, width)
    return _int_slots(p * r, 2 * gap + 1, width)


# a forked worker pays for its fork, pipe and reaping (1.4 to 2.5 ms) only
# with enough masks: a sampled energy on {0,1}^5 takes 2.8 to 3.2 us on the
# byte tables (additive k = 2, Python 3.11), so a fork costs 450 to 900 of
# them and 1024 masks earn it back where two processes run in parallel.  On
# 2 vCPUs that ran two forked loops no faster than one, two workers took 1.3
# to 1.4 times the serial time of 2048 masks, 0.8 to 1.2 of 8000 (best of 15)
SAMPLE_MIN_CHUNK = 1024


def subset_energies(packed: List[int], k: int, kind: EnergyKind,
                    masks: Optional[Sequence[int]] = None
                    ) -> Iterator[Tuple[int, int, int]]:
    """Yield (mask, |B|, E(B)), bit i of mask selecting packed[i] (keys
    from pack_points(..., key_multiplier(k, kind))), for the given masks in
    the order given, or for every nonempty mask in increasing order when
    masks is None.

    Each energy is recounted from scratch by one _mask_energy kernel, the
    energies fanned out over forked workers (_fanout._fan_out) in
    contiguous chunks of at least SAMPLE_MIN_CHUNK masks and merged in mask
    order.  All of them are held in one list before the first is yielded:
    every mask of 20 points, the restricted enumeration's cap, takes a
    process's peak RSS from 21.5 to 53 MB on one CPU, and to 57 MB on two.
    """
    if masks is None:
        masks = range(1, 1 << len(packed))
    yield from zip(masks, map(int.bit_count, masks),
                   _fan_out(_mask_energy(packed, k, kind), masks,
                            SAMPLE_MIN_CHUNK))


def _byte_power_sum(e: int, top: int) -> Callable[[bytes], int]:
    """raw -> the sum of c**e over the bytes c of raw, each at most top.

    Byte j of every c**e is looked up at once, t = raw.translate(T_j) with
    T_j mapping c to byte j of c**e, and t's bytes are summed in C: the low
    16 bits of zlib.adler32(chunk, 0) are its byte sum mod 65521 (RFC 1950),
    exact for at most 256 bytes (255 * 256 = 65280).  The sum adds those of
    t's 256-byte slices (copies, cheaper than memoryview slices) << 8*j over
    the bytes j of top**e."""
    tables = [(8 * j, bytes(c ** e >> 8 * j & 255 for c in range(256)))
              for j in range(-(-(top ** e).bit_length() // 8))]

    def power_sum(raw: bytes) -> int:
        total = 0
        chunks = range(0, len(raw), 256)
        for shift, table in tables:
            t = raw.translate(table)
            for i in chunks:
                total += (adler32(t[i:i + 256], 0) & 0xFFFF) << shift
        return total
    return power_sum


def _mask_energy(packed: List[int], k: int, kind: EnergyKind
                 ) -> Callable[[int], int]:
    """mask -> packed_subset_energy of the keys it selects, bit i of mask
    selecting packed[i]; built once per sweep, for its masks
    (subset_energies) or its orbit representatives (orbit_energies).

    When _slot_width picks the product path with 1-byte slots for the whole
    of packed, 1-byte slots hold every subset's slots too (the slot bound,
    |B|^(k-1) or |B|, only shrinks with B), so each mask takes one product
    over packed's whole key range, lo .. hi (_table_mask_energy): its
    indicator P (and, for the higher energy, the reflected indicator R) is
    the OR of one 256-entry table lookup per byte of the mask, table[b]
    holding the slots of b's bits, and the squares of the slots of P**k
    (additive) or their k-th powers in P * R (higher) are summed in C by
    _byte_power_sum, as Adler-32 sums of chunks of at most 256 bytes,
    exact there.  The tables live for the call and hold ceil(len(packed)/8)
    * 256 ints of up to hi - lo + 1 bytes, doubled for the higher energy:
    under 1.5 MB on every cube a sweep samples (at most 64 points, so
    hi - lo <= 364, reached by {0,1}^6), but 35 MB (Python 3.11,
    tracemalloc) for 200 keys spread over 0 .. 10 000, a sparse alphabet
    whose sampled restricted enumeration they speed up 6.5x.
    Otherwise each mask's keys are selected one set bit at a time and
    counted by packed_subset_energy."""
    higher = kind is EnergyKind.HIGHER
    if packed:
        lo, hi = min(packed), max(packed)
        if _slot_width(len(packed), k, higher, hi - lo) == 1:
            return _table_mask_energy(packed, k, higher, lo, hi)

    def mask_energy(mask: int) -> int:
        sel = []
        while mask:
            low = mask & -mask
            sel.append(packed[low.bit_length() - 1])
            mask ^= low
        return packed_subset_energy(sel, k, kind)
    return mask_energy


def _slot_table(offsets: List[int]) -> List[int]:
    """table[b] = the OR of 1 << offsets[i] over the bits i of b, for b
    below 2**len(offsets): doubled once per offset."""
    table = [0]
    for offset in offsets:
        bit = 1 << offset
        table += [t | bit for t in table]
    return table


def _table_mask_energy(packed: List[int], k: int, higher: bool, lo: int,
                       hi: int) -> Callable[[int], int]:
    """_mask_energy's product path, 1-byte slots over lo .. hi."""
    gap = hi - lo
    shifts = range(0, len(packed), 8)
    inds = _byte_tables([8 * (key - lo) for key in packed])
    if higher:
        tables = list(zip(shifts, inds,
                          _byte_tables([8 * (hi - key) for key in packed])))
        power_sum = _byte_power_sum(k, len(packed))

        def mask_energy(mask: int) -> int:
            p = r = 0
            for shift, ind, rev in tables:
                byte = mask >> shift & 255
                p |= ind[byte]
                r |= rev[byte]
            return power_sum(_product_slots(p, r, k, gap, 1))
    else:
        tables = list(zip(shifts, inds))
        power_sum = _byte_power_sum(2, len(packed) ** (k - 1))

        def mask_energy(mask: int) -> int:
            p = 0
            for shift, ind in tables:
                p |= ind[mask >> shift & 255]
            return power_sum(_product_slots(p, None, k, gap, 1))
    return mask_energy


# the largest cube an exhaustive walk takes: its work is one energy per
# orbit, about 2^points / |G| of them (8 390 655 on {0..23}), beside tables
# of at most 2^(points/2) entries
MAX_ORBIT_POINTS = 24


def _byte_tables(offsets: List[int]) -> List[List[int]]:
    """One _slot_table per 8 offsets, for any number of them: tables[j][b]
    is the OR of 1 << offsets[8*j + i] over the bits i of b.  For offsets
    a permutation perm, the OR over j of tables[j][byte j of m] is the
    image under perm of a mask m of len(perm) bits."""
    return [_slot_table(offsets[shift:shift + 8])
            for shift in range(0, len(offsets), 8)]


def _cube_perm(n: int, perm: Sequence[int], flips: Sequence[int]
               ) -> List[int]:
    """result[i] = the index of q among the sorted points of {0..n}^d, d =
    len(perm), for p the i-th: q[i] = p[perm[i]], or n - p[perm[i]] where
    flips[i]."""
    pts = list(iter_product(range(n + 1), repeat=len(perm)))
    index = {p: i for i, p in enumerate(pts)}
    return [index[tuple(n - p[j] if f else p[j] for j, f in zip(perm, flips))]
            for p in pts]


def _cube_symmetries(n: int, d: int) -> List[List[int]]:
    """Generators of the symmetry group of {0..n}^d (order 2^d d!) as
    _cube_perm lists: the signed rotation p -> p[1:] + (n - p[0],), the
    reflection at d = 1, and for d >= 2 the swap of coordinates 0 and 1."""
    moves = [([1, 0] + list(range(2, d)), [0] * d)] if d >= 2 else []
    if d:
        moves.append((list(range(1, d)) + [0], [0] * (d - 1) + [1]))
    return [_cube_perm(n, perm, flips) for perm, flips in moves]


def orbit_members(symmetries: List[List[int]]) -> Callable[[int], List[int]]:
    """mask -> the sorted masks of its orbit under the group generated by
    `symmetries` (point permutations), closed breadth first in a set, each
    image one _byte_tables lookup per mask byte, for masks of any width."""
    gens = [list(zip(range(0, len(perm), 8), _byte_tables(perm)))
            for perm in symmetries]

    def members(mask: int) -> List[int]:
        orbit, todo = {mask}, [mask]
        for m in todo:
            for tables in gens:
                image = 0
                for shift, table in tables:
                    image |= table[m >> shift & 255]
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        return sorted(orbit)
    return members


def orbit_energies(packed: List[int], k: int, kind: EnergyKind, n: int,
                   d: int) -> Iterator[Tuple[int, int, int, int]]:
    """Yield (rep, |B|, E(B), size) once per orbit of the nonempty subsets
    B of {0..n}^d under its symmetry group G, bit i of a mask selecting
    packed[i], the key of the i-th point in sorted order: rep is a member,
    size the number of members (orbit_members lists them).  E is computed
    once per orbit, by one _mask_energy kernel.

    The walk goes by halves along coordinate 1 (x1): a mask is the middle
    slice M (x1 = n/2, empty for odd n), the low half L (x1 < n/2) and the
    high half U (x1 > n/2, slices from x1 = n down), so the reflection R:
    x1 -> n - x1 swaps L and U.  H0 = B_{d-1}, the symmetries that fix
    coordinate 1, acts alike on every slice, by a table per element.  A
    stabilizer chain (A. Seress, Permutation Group Algorithms, 2003, ch. 4)
    takes each least M of its H0-orbit, each least L of its Stab(M)-orbit
    and each least U of its Stab(M, L)-orbit, the least triple of its
    H0-orbit in the order of the key (M, L, U); of a triple and its
    reflection (M, U, L) the lesser key is kept, one per orbit of K = H0 x
    <R>.  The transpositions t_i of coordinates 1 and i (t_1 = 1) represent
    the d right cosets of K in G, so the G-orbit of B is the union of the
    K-orbits of the t_i B: B is kept when its key is the least of theirs
    (B. D. McKay, J. Algorithms 26, 1998), and the orbit has d |KB| / c
    members, c the number of t_i B in KB.  No table holds more than
    2^(points/2) entries."""
    if len(packed) > MAX_ORBIT_POINTS:
        raise ValueError("orbit walk over %d points (> %d) refused"
                         % (len(packed), MAX_ORBIT_POINTS))
    mask_energy = _mask_energy(packed, k, kind)
    if d == 0:
        n, d = 0, 1                     # one point, as {0}^1
    slice_pts, h = (n + 1) ** (d - 1), (n + 1) // 2
    hb = h * slice_pts                  # bits of a half
    hs = hb + (0 if n % 2 else slice_pts)   # offset of the high half
    group = [_cube_perm(n, perm, flips)
             for perm in permutations(range(d - 1))
             for flips in iter_product((0, 1), repeat=d - 1)]
    where = {tuple(g): i for i, g in enumerate(group)}
    inverse = [where[tuple(sorted(range(slice_pts), key=g.__getitem__))]
               for g in group]
    half = [_slot_table([s * slice_pts + q for s in range(h) for q in g])
            for g in group]
    mid = [_slot_table(g if hs > hb else []) for g in group]
    flip = _slot_table([(h - 1 - s) * slice_pts + p
                        for s in range(h) for p in range(slice_pts)])
    cosets = [list(zip(range(0, len(packed), 8), _byte_tables(_cube_perm(
        n, [i] + list(range(1, i)) + [0] + list(range(i + 1, d)), [0] * d))))
        for i in range(1, d)]           # the transpositions t_i, i >= 2
    low_bits, mid_bits = (1 << hb) - 1, (1 << hs - hb) - 1
    stabilizers: dict = {}
    least0, go0, m_sizes = _orbits(mid, tuple(range(len(group))), inverse)
    for m, m_size in m_sizes.items():
        stab_m = tuple(g for g in range(len(group)) if mid[g][m] == m)
        least1, go1, low_sizes = _orbits(half, stab_m, inverse)
        for low, low_size in low_sizes.items():
            sub = tuple(g for g in stab_m if half[g][low] == low)
            if sub not in stabilizers:
                stabilizers[sub] = _orbits(half, sub, inverse)
            least2, _, high_sizes = stabilizers[sub]
            for high, high_size in high_sizes.items():
                if least1[high] < low or not m | low | high:
                    continue    # the reflection's key is less; the empty set
                mask = low | m << hb | flip[high] << hs
                size = 2 * m_size * low_size * high_size
                if least1[high] == low:
                    # the reflection (m, high, low) is (m, low, u) in H0
                    u = least2[half[go1[high]][low]]
                    if u < high:
                        continue
                    size >>= u == high
                same = 1
                for tables in cosets:
                    image = 0
                    for shift, table in tables:
                        image |= table[mask >> shift & 255]
                    # the least key of image's K-orbit against (m, low, high)
                    im = image >> hb & mid_bits
                    if least0[im] != m:
                        if least0[im] < m:
                            break
                        continue
                    g = half[go0[im]]
                    a, b = g[image & low_bits], g[flip[image >> hs]]
                    if least1[a] < low or least1[b] < low:
                        break
                    u = min(least2[half[go1[a]][b]] if least1[a] == low
                            else high + 1,
                            least2[half[go1[b]][a]] if least1[b] == low
                            else high + 1)
                    if u < high:
                        break
                    same += u == high
                else:
                    yield mask, mask.bit_count(), mask_energy(mask), \
                        d * size // same


def _orbits(tables: List[List[int]], sub: Tuple[int, ...],
            inverse: List[int]) -> Tuple[List[int], List[int], dict]:
    """(least, go, sizes) of the orbits of the masks x < len(tables[0])
    under the group of the elements sub (inverse[g] is g's inverse):
    least[x] is the least of x's orbit, go[x] an element mapping x to it,
    and sizes the orbit sizes by least mask, in increasing order."""
    least, go, sizes = [-1] * len(tables[0]), [0] * len(tables[0]), {}
    for x, seen in enumerate(least):
        if seen < 0:
            sizes[x] = 0
            for g in sub:
                y = tables[g][x]
                if least[y] < 0:
                    least[y], go[y] = x, inverse[g]
                    sizes[x] += 1
    return least, go, sizes


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
