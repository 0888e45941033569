"""Exact energy computation, closed forms, and decomposition identities."""

import math
import random
from collections import Counter
from itertools import permutations, product

import pytest

from cubenergy.energy import (
    EnergyKind,
    EnergyValue,
    additive_energy,
    brute_force_energy,
    bullet_product,
    decomposition_identity_check,
    energy,
    full_cube_energy,
    higher_energy,
    interval_energy_closed_form,
    key_multiplier,
    level_set_energies,
    orbit_energies,
    packed_power_energy,
    packed_subset_energy,
    power_energy_plan,
    split_last_coordinate,
    subset_energies,
)
from cubenergy.energy import _correlation_moment, _product_energy, _slot_width
from cubenergy import lattice
from cubenergy.errors import BudgetExceeded
from cubenergy.lattice import (CountsMap, PointSet, indicator,
                               iterate_convolve, pack_points)
from cubenergy.verify import _cube_symmetries


def _random_set(rng, dim, lo=0, hi=3, max_size=8):
    pts = {tuple(rng.randint(lo, hi) for _ in range(dim))
           for _ in range(rng.randint(1, max_size))}
    return PointSet.from_points(pts)


def _tuple_brute_additive(a, k):
    pts = a.sorted_points()
    sums = {}
    for combo in product(pts, repeat=k):
        s = tuple(map(sum, zip(*combo)))
        sums[s] = sums.get(s, 0) + 1
    return sum(v * v for v in sums.values())


def _tuple_brute_higher(a, k):
    pts = a.sorted_points()
    diffs = {}
    for p in pts:
        for q in pts:
            d = tuple(x - y for x, y in zip(p, q))
            diffs[d] = diffs.get(d, 0) + 1
    return sum(v ** k for v in diffs.values())


# ---------------------------------------------------------------------------
# closed forms on full cubes


def test_full_cube_additive_closed_form():
    for d in (1, 2, 3):
        for k in (2, 3, 4):
            want = math.comb(2 * k, k) ** d
            assert full_cube_energy(1, d, k, EnergyKind.ADDITIVE).value == want


def test_full_cube_higher_closed_form():
    for d in (1, 2, 3):
        for k in (2, 3, 4):
            want = (2 ** k + 2) ** d
            assert full_cube_energy(1, d, k, EnergyKind.HIGHER).value == want


def test_full_cube_against_brute_force_small():
    for n, d, k, kind in [(1, 2, 2, EnergyKind.ADDITIVE),
                          (2, 1, 3, EnergyKind.HIGHER),
                          (2, 2, 2, EnergyKind.ADDITIVE),
                          (1, 3, 2, EnergyKind.HIGHER)]:
        cube = PointSet.cube(n, d)
        assert full_cube_energy(n, d, k, kind).value == \
            brute_force_energy(cube, k, kind).value


def test_interval_closed_form_values():
    assert [interval_energy_closed_form(n) for n in (1, 2, 3, 4)] == [6, 19, 44, 85]


def test_interval_closed_form_matches_brute_force():
    for n in range(1, 12):
        seg = PointSet.cube(n, 1)
        assert interval_energy_closed_form(n) == \
            brute_force_energy(seg, 2, EnergyKind.ADDITIVE).value


# ---------------------------------------------------------------------------
# convolution backend vs tuple-level oracle


def test_energy_matches_tuple_oracle():
    rng = random.Random(23)
    for _ in range(15):
        dim = rng.randint(1, 3)
        a = _random_set(rng, dim)
        for k in (2, 3):
            assert additive_energy(a, k).value == _tuple_brute_additive(a, k)
            assert higher_energy(a, k).value == _tuple_brute_higher(a, k)


def test_second_energies_coincide():
    # the k = 2 additive energy and the k = 2 correlation energy count the
    # same additive quadruples
    rng = random.Random(29)
    for _ in range(20):
        a = _random_set(rng, rng.randint(1, 3))
        assert additive_energy(a, 2).value == higher_energy(a, 2).value


def test_energy_dispatch_and_k_validation():
    a = PointSet.cube(1, 1)
    assert energy(a, 2, EnergyKind.ADDITIVE).value == 6
    assert energy(a, 3, EnergyKind.HIGHER).value == 10
    with pytest.raises(ValueError):
        additive_energy(a, 1)
    with pytest.raises(ValueError):
        higher_energy(a, 0)


# ---------------------------------------------------------------------------
# invariance properties


def test_translation_invariance():
    rng = random.Random(31)
    for _ in range(10):
        dim = rng.randint(1, 3)
        a = _random_set(rng, dim)
        v = [rng.randint(-10, 10) for _ in range(dim)]
        b = a.translate(v)
        for k in (2, 3):
            assert additive_energy(a, k).value == additive_energy(b, k).value
            assert higher_energy(a, k).value == higher_energy(b, k).value


def test_reflection_and_permutation_invariance():
    rng = random.Random(37)
    for _ in range(10):
        a = _random_set(rng, 2)
        flipped = PointSet.from_points([(-x, y) for x, y in a])
        swapped = PointSet.from_points([(y, x) for x, y in a])
        for k in (2, 3):
            for kind in EnergyKind:
                e = energy(a, k, kind).value
                assert energy(flipped, k, kind).value == e
                assert energy(swapped, k, kind).value == e


def test_trivial_bounds_enforced():
    rng = random.Random(41)
    for _ in range(10):
        a = _random_set(rng, 2)
        m = len(a)
        for k in (2, 3):
            e = additive_energy(a, k)
            assert m ** k <= e.value <= m ** (2 * k - 1)
            h = higher_energy(a, k)
            assert m ** 2 <= h.value


def test_energy_value_validates_range():
    with pytest.raises(ValueError):
        EnergyValue(kind=EnergyKind.ADDITIVE, k=2, set_size=3, value=2)


def test_to_report_round_numbers():
    v = additive_energy(PointSet.cube(1, 1), 2)
    rep = v.to_report()
    assert rep["energy"] == "6"
    assert rep["set_size"] == 2
    assert abs(rep["log_ratio"] - math.log2(6)) < 1e-12
    assert additive_energy(PointSet.from_points([(7,)]), 2).log_ratio() is None


# ---------------------------------------------------------------------------
# budget and packed enumeration


def test_brute_force_budget():
    a = PointSet.cube(1, 4)
    with pytest.raises(BudgetExceeded):
        brute_force_energy(a, 3, EnergyKind.ADDITIVE, budget=10 ** 3)


PLAN_ALPHABETS = {
    "point": [(3,)],
    "segment2": [(0,), (1,)],
    "segment5": [(c,) for c in range(5)],
    "sidon": [(0,), (1,), (3,), (7,)],
    "square": sorted(product(range(2), repeat=2)),
    "cube3": sorted(product(range(2), repeat=3)),
}


@pytest.mark.parametrize("name", sorted(PLAN_ALPHABETS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_energy_plan_is_bit_identical_to_dict_loop(name, k):
    # k = 1 has no convolution stage: the plan only sums the squares
    keys = pack_points(PLAN_ALPHABETS[name], k)
    energy_of = power_energy_plan(keys, k)
    rng = random.Random("plan-%s-%d" % (name, k))
    for _ in range(25):
        scale = rng.choice([1e-3, 1.0, 1.5, 1e6])
        ws = [rng.uniform(1e-9, 1.0) * scale for _ in keys]
        assert energy_of(ws) == packed_power_energy(dict(zip(keys, ws)), k)


def test_packed_subset_energy_agrees():
    # dense keys (the sweeps' packing) reach the product path, keys spread
    # by a large multiplier the weighted-map route
    rng = random.Random(43)
    paths = Counter()
    for _ in range(40):
        a = _random_set(rng, 2, max_size=16)
        k = rng.choice([2, 3])
        for kind in EnergyKind:
            for mult in (key_multiplier(k, kind), 2 * k * 3 + 1):
                packed = pack_points(a.sorted_points(), mult)
                width = _slot_width(len(packed), k, kind is EnergyKind.HIGHER,
                                    max(packed) - min(packed))
                paths[kind, bool(width)] += 1
                assert packed_subset_energy(packed, k, kind) == \
                    _counts_map_energy(a, k, kind)
    assert all(paths[kind, True] and paths[kind, False] for kind in EnergyKind)


def _counts_map_energy(a, k, kind):
    """The energy from the tuple-keyed CountsMap API, which packs the points
    its own way and never calls packed_subset_energy."""
    ind = indicator(a)
    if kind is EnergyKind.HIGHER:
        return bullet_product(ind, ind, k)
    return sum(v * v for v in iterate_convolve(ind, k).entries.values())


def _bound_bytes(size, k, kind):
    """The narrowest word, in bytes, that holds the kernel's slot bound."""
    bound = size if kind is EnergyKind.HIGHER else size ** (k - 1)
    return next(w for w in (1, 2, 4, 8, 16) if bound < 1 << 8 * w)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", list(EnergyKind))
def test_product_path_matches_brute_force(kind, k):
    # every slot width that holds the bound gives the same exact energy;
    # the sets stay small enough for the |A|^(2k) oracle
    rng = random.Random("product-%s-%d" % (kind.value, k))
    higher = kind is EnergyKind.HIGHER
    max_size = {2: 12, 3: 7, 4: 5, 5: 4, 6: 3}[k]
    for _ in range(6):
        a = _random_set(rng, rng.choice([1, 2, 3]), max_size=max_size)
        packed = pack_points(a.sorted_points(), key_multiplier(k, kind))
        want = brute_force_energy(a, k, kind).value
        for offset in (0, 1000, -77):
            sel = [x + offset for x in packed]
            lo, hi = min(sel), max(sel)
            for width in (1, 2, 4, 8):
                if width >= _bound_bytes(len(sel), k, kind):
                    assert _product_energy(sel, k, higher, lo, hi, width) == want
            ind = dict.fromkeys(sel, 1)
            if higher:
                assert _correlation_moment(ind, ind, k) == want
            else:
                assert packed_power_energy(ind, k) == want
            assert packed_subset_energy(sel, k, kind) == want


@pytest.mark.parametrize("kind", list(EnergyKind))
@pytest.mark.parametrize("k", [2, 3, 6])
def test_single_point_sets(kind, k):
    for width in (1, 2, 4, 8):
        assert _product_energy([41], k, kind is EnergyKind.HIGHER,
                               41, 41, width) == 1
    assert packed_subset_energy([41], k, kind) == 1


@pytest.mark.parametrize("size, k, width", [
    (16, 2, 1), (255, 2, 1), (256, 2, 2),      # additive bound |A|^(k-1)
    (16, 3, 2), (20, 5, 4), (5, 8, 4), (16, 9, 8), (7, 13, 8), (16, 16, 8),
    (16, 17, 0), (90, 11, 0)])                 # 16^16, 90^10 >= 2^64
def test_slot_width_holds_the_bound(size, k, width):
    # an interval, where the product pays whenever its slots fit (width 0
    # is the weighted-map route); the oracle is the generating function of
    # level_set_energies, whose top level set of {0..size-1}^1 is the
    # interval itself
    pts = [(c,) for c in range(3, 3 + size)]
    packed = pack_points(pts, k)
    assert _slot_width(size, k, False, max(packed) - min(packed)) == width
    assert packed_subset_energy(packed, k, EnergyKind.ADDITIVE) == \
        level_set_energies(size - 1, 1, k)[-1]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dilated_cube_takes_the_weighted_map_route(d, k):
    # {0, 10^7}^d is {0,1}^d stretched: E_k({0,1}) = sum_j C(k,j)^2 =
    # C(2k,k), E~_k({0,1}) = 2^k + 1 + 1, and both energies multiply over
    # products; the keys are too far apart for the product path
    a = PointSet.from_points(product((0, 10 ** 7), repeat=d))
    for kind in EnergyKind:
        packed = pack_points(a.sorted_points(), key_multiplier(k, kind))
        assert _slot_width(len(a), k, kind is EnergyKind.HIGHER,
                           max(packed) - min(packed)) == 0
    assert additive_energy(a, k).value == math.comb(2 * k, k) ** d
    assert higher_energy(a, k).value == (2 ** k + 2) ** d


def test_wide_slot_energy_matches_generating_function():
    # 100 points at k = 11: the slot bound 100^10 needs more than 64 bits,
    # so the weighted-map route runs convolve_packed's big-integer branch
    assert additive_energy(PointSet.cube(9, 2), 11).value == \
        level_set_energies(9, 2, 11)[-1]


def test_wide_slot_energy_reads_words_and_wide_slots(slot_widths):
    # the energy --set cube:9x2 --k 11 golden passes both branches of the
    # shared slot reader: machine words and one int per slot past 8 bytes
    additive_energy(PointSet.cube(9, 2), 11)
    assert any(w <= 8 for w in slot_widths) and any(w > 8 for w in slot_widths)


def _cube_keys(d, mult, size, seed):
    pts = PointSet.cube(1, d).sorted_points()
    sel = sorted(random.Random(seed).sample(pack_points(pts, mult), size))
    return sel, sel[-1] - sel[0]


@pytest.mark.parametrize("kind, k, mult, size, product", [
    # random subsets of {0,1}^5: the product pays on the sampled sweeps'
    # typical half-size sets ...
    (EnergyKind.ADDITIVE, 2, 2, 16, True),
    (EnergyKind.ADDITIVE, 3, 3, 16, True),
    (EnergyKind.ADDITIVE, 4, 4, 16, True),
    (EnergyKind.HIGHER, 2, 2, 16, True),
    (EnergyKind.HIGHER, 6, 2, 16, True),
    # ... and not on tiny sets, on differences of keys packed for k = 6,
    # or on the additive k = 11 power
    (EnergyKind.ADDITIVE, 2, 2, 3, False),
    (EnergyKind.ADDITIVE, 3, 3, 5, False),
    (EnergyKind.HIGHER, 2, 2, 4, False),
    (EnergyKind.HIGHER, 6, 6, 16, False),
    (EnergyKind.ADDITIVE, 11, 11, 16, False),
])
def test_path_crossover_on_cube_subsets(kind, k, mult, size, product):
    for seed in range(5):
        sel, gap = _cube_keys(5, mult, size, seed)
        assert bool(_slot_width(size, k, kind is EnergyKind.HIGHER, gap)) \
            == product


def _mask_set(pts, mask):
    return PointSet.from_points(p for i, p in enumerate(pts) if mask >> i & 1)


def _cube_symmetry_class(sub, n):
    """Smallest sorted image of sub under the symmetries of {0..n}^d
    (coordinate permutations and reflections x -> n - x); both energies are
    invariant under them, so one oracle call serves a whole class."""
    d = sub.dim
    images = []
    for perm in permutations(range(d)):
        for flips in product((False, True), repeat=d):
            images.append(tuple(sorted(
                tuple(n - p[j] if f else p[j] for j, f in zip(perm, flips))
                for p in sub.points)))
    return min(images)


@pytest.mark.parametrize("kind, k", [(EnergyKind.ADDITIVE, 2),
                                     (EnergyKind.ADDITIVE, 3),
                                     (EnergyKind.ADDITIVE, 4),
                                     (EnergyKind.HIGHER, 2),
                                     (EnergyKind.HIGHER, 3)])
@pytest.mark.parametrize("n, d", [(1, 3), (2, 2)])
def test_subset_walk_matches_brute_force(n, d, kind, k):
    pts = PointSet.cube(n, d).sorted_points()
    packed = pack_points(pts, k)
    oracle = {}
    seen = []
    for mask, size, e in subset_energies(packed, k, kind):
        sub = _mask_set(pts, mask)
        assert size == len(sub)
        key = _cube_symmetry_class(sub, n)
        if key not in oracle:
            oracle[key] = brute_force_energy(sub, k, kind).value
        assert e == oracle[key], (mask, kind, k)
        seen.append(mask)
    assert sorted(seen) == list(range(1, 1 << len(pts)))
    # consecutive Gray-code masks differ in exactly one point
    assert all(bin(a ^ b).count("1") == 1 for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("n, d, orbits", [(1, 2, 5), (1, 3, 21), (2, 2, 101)])
def test_orbit_walk_partitions_by_cube_symmetry(n, d, orbits):
    pts = PointSet.cube(n, d).sorted_points()
    k, kind = 2, EnergyKind.ADDITIVE
    packed = pack_points(pts, k)
    got = list(orbit_energies(packed, k, kind, _cube_symmetries(pts, n)))
    assert len(got) == orbits
    assert [rep for rep, _, _, _ in got] == sorted(rep for rep, _, _, _ in got)
    assert sorted(m for _, _, _, members in got for m in members) == \
        list(range(1, 1 << len(pts)))
    for rep, size, e, members in got:
        key = _cube_symmetry_class(_mask_set(pts, rep), n)
        assert rep == min(members) and size == bin(rep).count("1")
        assert e == energy(_mask_set(pts, rep), k, kind).value
        assert all(_cube_symmetry_class(_mask_set(pts, m), n) == key
                   for m in members)
    # one orbit per class: two different orbits never share a class
    classes = {_cube_symmetry_class(_mask_set(pts, rep), n) for rep, *_ in got}
    assert len(classes) == orbits


def test_subset_energies_given_masks_in_given_order():
    rng = random.Random(47)
    pts = PointSet.cube(2, 2).sorted_points()
    masks = [rng.randrange(1, 1 << len(pts)) for _ in range(40)]
    masks += masks[:7]
    rng.shuffle(masks)
    for kind, k in [(EnergyKind.ADDITIVE, 3), (EnergyKind.HIGHER, 2)]:
        packed = pack_points(pts, k)
        got = list(subset_energies(packed, k, kind, masks))
        assert [m for m, _, _ in got] == masks
        for mask, size, e in got:
            sub = _mask_set(pts, mask)
            assert size == len(sub)
            assert e == brute_force_energy(sub, k, kind).value


# ---------------------------------------------------------------------------
# slicing and the bullet product


def test_split_last_coordinate_partitions():
    a = PointSet.from_points([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    dec = split_last_coordinate(a)
    assert dec.a0.sorted_points() == [(0,), (1,)]
    assert dec.a1.sorted_points() == [(0,), (1,), (2,)]
    assert dec.reconstruct().sorted_points() == a.sorted_points()
    with pytest.raises(ValueError):
        split_last_coordinate(PointSet.from_points([(0, 2)]))


def test_bullet_product_is_higher_energy_on_diagonal():
    rng = random.Random(47)
    for _ in range(10):
        a = _random_set(rng, 2)
        f = indicator(a)
        for k in (2, 3):
            assert bullet_product(f, f, k) == higher_energy(a, k).value


def test_bullet_product_symmetry():
    # correlate(g, f) and correlate(f, g) are reflections of each other, so
    # the k-th moments agree
    rng = random.Random(53)
    f = CountsMap(1, {(rng.randint(0, 5),): rng.randint(1, 3) for _ in range(4)})
    g = CountsMap(1, {(rng.randint(0, 5),): rng.randint(1, 3) for _ in range(4)})
    for k in (2, 3):
        assert bullet_product(f, g, k) == bullet_product(g, f, k)


# ---------------------------------------------------------------------------
# decomposition identities


def test_decomposition_identity_random_subsets():
    rng = random.Random(59)
    cube_pts = PointSet.cube(1, 3).sorted_points()
    for _ in range(20):
        size = rng.randint(1, len(cube_pts))
        a = PointSet.from_points(rng.sample(cube_pts, size))
        for k in (2, 3):
            for kind in EnergyKind:
                rep = decomposition_identity_check(a, k, kind)
                assert rep.holds, (a.sorted_points(), k, kind)
                assert rep.lhs == rep.rhs == energy(a, k, kind).value


def test_decomposition_identity_degenerate_slice():
    # every point in one hyperplane: one side of the split is empty
    a = PointSet.from_points([(0, 0), (1, 0), (3, 0)])
    for kind in EnergyKind:
        rep = decomposition_identity_check(a, 2, kind)
        assert rep.holds


def _slice_report_oracle(pts, k, kind):
    """Every field of DecompositionReport.to_dict(), counted by direct
    enumeration of coordinate tuples (no lattice or energy kernel)."""
    a0 = [p[:-1] for p in pts if p[-1] == 0]
    a1 = [p[:-1] for p in pts if p[-1] == 1]

    def sums(*factors):
        return Counter(tuple(map(sum, zip(*t))) for t in product(*factors))

    def diffs(xs, ys):
        return Counter(tuple(u - v for u, v in zip(x, y))
                       for x in xs for y in ys)

    if kind is EnergyKind.ADDITIVE:
        total = sum(c * c for c in sums(*[pts] * k).values())
        s = [sum(c * c for c in sums(*[a0] * i + [a1] * (k - i)).values())
             for i in range(k + 1)]
        e0, e1, cross, c1 = s[k], s[0], s[1:k], None
    else:
        total = sum(c ** k for c in diffs(pts, pts).values())
        r0, r1 = diffs(a0, a0), diffs(a1, a1)
        e0 = sum(c ** k for c in r0.values())
        e1 = sum(c ** k for c in r1.values())
        cross = [sum(c ** i * r1[x] ** (k - i) for x, c in r0.items())
                 for i in range(1, k)]
        c1 = str(sum(c ** k for c in diffs(a0, a1).values()))
    return {"kind": kind.value, "k": k, "set_size": len(pts),
            "lhs": str(total), "e0": str(e0), "e1": str(e1),
            "cross_terms": [str(c) for c in cross], "c1": c1, "c2": c1,
            "rhs": str(total), "holds": True}


@pytest.mark.parametrize("pts", [
    # slices of different sizes, so a swap of e0/e1 or a reversed
    # cross_terms list changes the report
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
    [(0, 0), (1, 0), (3, 0)],           # empty upper slice
    [(0, 1), (2, 1)],                   # empty lower slice
    [(0,), (1,)],                       # both slices the 0-dimensional {()}
    [(1,)],
])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("kind", list(EnergyKind))
def test_decomposition_report_matches_tuple_oracle(pts, k, kind):
    rep = decomposition_identity_check(PointSet.from_points(pts), k, kind)
    assert rep.to_dict() == _slice_report_oracle(sorted(pts), k, kind)


def test_slice_identities_build_no_counts_map(monkeypatch):
    a = PointSet.cube(1, 4)
    f = indicator(a)
    builds = []
    post_init = lattice.CountsMap.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(lattice.CountsMap, "__post_init__", counted)
    for kind in EnergyKind:
        assert decomposition_identity_check(a, 3, kind).holds
    assert bullet_product(f, f, 3) == higher_energy(a, 3).value
    assert builds == []


# ---------------------------------------------------------------------------
# level-set energies from the generating function


def _level(n, d, t):
    """The points of {0..n}^d with at most t coordinates off the middle."""
    mids = {n // 2, (n + 1) // 2}
    return [p for p in product(range(n + 1), repeat=d)
            if sum(c not in mids for c in p) <= t]


_LEVEL_CASES = ([(n, d, k) for n in (2, 3, 4) for k in (2, 3)
                 for d in range(1, 7) if (n + 1) ** d <= 729]
                + [(2, d, 4) for d in range(1, 5)])


@pytest.mark.parametrize("n, d, k", _LEVEL_CASES)
def test_level_set_energies_match_convolution(n, d, k):
    want = [energy(PointSet(d, frozenset(_level(n, d, t))), k,
                   EnergyKind.ADDITIVE).value for t in range(d + 1)]
    assert level_set_energies(n, d, k) == want


@pytest.mark.parametrize("n, d, k", [(0, 2, 2), (1, 2, 3), (2, 2, 2),
                                     (2, 3, 2), (3, 2, 2), (3, 2, 3),
                                     (4, 2, 2), (5, 1, 3), (5, 2, 2)])
def test_level_set_energies_match_tuple_count(n, d, k):
    # literal count of k-tuple pairs with equal sums; no kernel involved
    want = []
    for t in range(d + 1):
        sums = Counter(tuple(map(sum, zip(*combo)))
                       for combo in product(_level(n, d, t), repeat=k))
        want.append(sum(c * c for c in sums.values()))
    assert level_set_energies(n, d, k) == want


def test_level_set_energies_zero_dimensions():
    for n in range(5):
        for k in (2, 3, 4):
            assert level_set_energies(n, 0, k) == [1]


def test_level_set_energies_top_level_is_full_cube():
    for n, d, k in [(2, 10, 2), (3, 7, 2), (4, 5, 3), (2, 4, 6)]:
        assert level_set_energies(n, d, k)[-1] == \
            full_cube_energy(n, d, k, EnergyKind.ADDITIVE).value


def test_level_set_energies_validate_arguments():
    with pytest.raises(ValueError):
        level_set_energies(2, 3, 1)
    with pytest.raises(ValueError):
        level_set_energies(-1, 3, 2)
    with pytest.raises(ValueError):
        level_set_energies(2, -1, 2)
