"""Point sets, counting measures, the convolution kernel, and parsers."""

import random
from fractions import Fraction

import pytest

from cubenergy import lattice
from cubenergy.energy import additive_energy
from cubenergy.errors import DimensionMismatch, ParseError
from cubenergy.extension import weighted_energy
from cubenergy.lattice import (
    CountsMap,
    PointSet,
    WeightFn,
    convolve,
    convolve_packed,
    convolve_weights,
    correlate,
    indicator,
    iterate_convolve,
    multiply_pointwise,
    pack_points,
    parse_points_auto,
    parse_points_json,
    parse_points_text,
    points_to_json,
    points_to_text,
    power_pointwise,
    reflect,
    sum_values,
)


def _random_set(rng, dim, lo=-4, hi=4, max_size=10):
    size = rng.randint(1, max_size)
    pts = {tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(size)}
    return PointSet.from_points(pts)


def _brute_convolve(e1, e2):
    out = {}
    for p, a in e1.items():
        for q, b in e2.items():
            s = tuple(x + y for x, y in zip(p, q))
            out[s] = out.get(s, 0) + a * b
    return {p: v for p, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# point sets


def test_cube_counts_and_membership():
    c = PointSet.cube(2, 2)
    assert len(c) == 9
    assert (0, 0) in c and (2, 2) in c
    assert (3, 0) not in c
    assert PointSet.cube(0, 3).sorted_points() == [(0, 0, 0)]


def test_cube_rejects_bad_args():
    with pytest.raises(ValueError):
        PointSet.cube(-1, 2)
    # dimension zero degenerates to the single empty point
    assert len(PointSet.cube(1, 0)) == 1


def test_from_points_dedupes_and_checks_dim():
    a = PointSet.from_points([(0, 1), (0, 1), (1, 0)])
    assert len(a) == 2
    with pytest.raises((ValueError, TypeError)):
        PointSet.from_points([(0, 1), (1,)])
    with pytest.raises((ValueError, TypeError)):
        PointSet.from_points([(0.5, 1), (1, 0)])


def test_translate_and_product():
    a = PointSet.from_points([(0,), (2,)])
    assert a.translate([5]).sorted_points() == [(5,), (7,)]
    b = PointSet.from_points([(1,), (3,)])
    prod = a.product(b)
    assert len(prod) == 4
    assert (2, 3) in prod and prod.dim == 2


def test_sorted_points_is_lexicographic():
    a = PointSet.from_points([(1, 0), (0, 2), (0, 1)])
    assert a.sorted_points() == [(0, 1), (0, 2), (1, 0)]


# ---------------------------------------------------------------------------
# counting measures


def test_counts_map_drops_zeros_and_defaults():
    f = CountsMap(1, {(0,): 3, (1,): 0})
    assert len(f) == 1
    assert f[(1,)] == 0 and f[(5,)] == 0
    assert f[(0,)] == 3


def test_indicator_and_sum():
    a = PointSet.cube(1, 2)
    f = indicator(a)
    assert sum_values(f) == 4
    assert all(v == 1 for _, v in f.items())
    assert f.support().sorted_points() == a.sorted_points()


def test_pointwise_ops():
    f = CountsMap(1, {(0,): 2, (3,): -1})
    assert power_pointwise(f, 2).entries == {(0,): 4, (3,): 1}
    g = CountsMap(1, {(0,): 5, (1,): 7})
    assert multiply_pointwise(f, g).entries == {(0,): 10}
    assert reflect(f).entries == {(0,): 2, (-3,): -1}


def test_pointwise_dim_mismatch():
    f = CountsMap(1, {(0,): 1})
    g = CountsMap(2, {(0, 0): 1})
    with pytest.raises(DimensionMismatch):
        multiply_pointwise(f, g)
    with pytest.raises(DimensionMismatch):
        convolve(f, g)


# ---------------------------------------------------------------------------
# convolution


def test_convolve_matches_brute_force_compact():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 3)
        f = CountsMap(dim, {tuple(rng.randint(0, 3) for _ in range(dim)): rng.randint(1, 5)
                            for _ in range(rng.randint(1, 8))})
        g = CountsMap(dim, {tuple(rng.randint(-2, 2) for _ in range(dim)): rng.randint(1, 5)
                            for _ in range(rng.randint(1, 8))})
        assert convolve(f, g).entries == _brute_convolve(f.entries, g.entries)


def test_convolve_matches_brute_force_spread():
    # Coordinates spread over a huge box, so the dense grid path is never
    # economical and the sparse path must produce identical results.
    rng = random.Random(11)
    for _ in range(10):
        f = CountsMap(2, {(rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)): 1
                          for _ in range(6)})
        g = CountsMap(2, {(rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)): 2
                          for _ in range(6)})
        assert convolve(f, g).entries == _brute_convolve(f.entries, g.entries)


def test_convolve_commutative_and_associative():
    rng = random.Random(3)
    dim = 2
    maps = []
    for _ in range(3):
        maps.append(CountsMap(dim, {tuple(rng.randint(0, 4) for _ in range(dim)): rng.randint(1, 3)
                                    for _ in range(5)}))
    f, g, h = maps
    assert convolve(f, g).entries == convolve(g, f).entries
    assert convolve(convolve(f, g), h).entries == convolve(f, convolve(g, h)).entries


def test_correlate_is_convolution_with_reflection():
    # documented convention: correlate(f, g)(p) counts pairs with g-point
    # minus f-point equal to p, i.e. reflect(f) * g
    rng = random.Random(5)
    f = CountsMap(1, {(rng.randint(0, 6),): rng.randint(1, 4) for _ in range(5)})
    g = CountsMap(1, {(rng.randint(0, 6),): rng.randint(1, 4) for _ in range(5)})
    assert correlate(f, g).entries == convolve(reflect(f), g).entries
    auto = correlate(f, f)
    assert auto.entries == reflect(auto).entries


def test_iterate_convolve_mass_and_degenerate_k():
    a = PointSet.from_points([(0,), (1,), (3,)])
    f = indicator(a)
    for k in (1, 2, 3, 4):
        assert sum_values(iterate_convolve(f, k)) == len(a) ** k
    assert iterate_convolve(f, 1).entries == f.entries


def _dict_convolve(a, b):
    out = {}
    for x, u in a.items():
        for y, v in b.items():
            out[x + y] = out.get(x + y, 0) + u * v
    return out


def test_convolve_packed_big_integer_branch():
    # dense nonnegative ints: len(a) * len(b) >= 4 * (key range of a * b)
    rng = random.Random(19)
    a = {x: rng.randint(0, 10 ** 12) for x in range(-20, 20)}
    b = {y: rng.randint(1, 9) for y in range(5, 40)}
    b[7] = 0
    want = {s: v for s, v in _dict_convolve(a, b).items() if v}
    assert convolve_packed(a, b) == want


@pytest.mark.parametrize("a_max, b_max, bound_bytes", [
    (1, 1, 1), (30, 9, 2), (3000, 9, 3), (10 ** 9, 9, 5),
    (10 ** 18, 100, 9), (10 ** 6, 0, 0)])
def test_convolve_packed_big_integer_branch_widths(a_max, b_max, bound_bytes,
                                                   slot_widths):
    # negative keys, zero values, and a gap between a's two runs that leaves
    # the product's slots 24..44 zero; every slot width the rule picks, and
    # an all-zero b, which takes no product at all
    rng = random.Random(a_max)
    a = {x: rng.randint(0, a_max) for x in [*range(-20, 0), *range(40, 60)]}
    b = {y: rng.randint(0, b_max) for y in range(5, 25)}
    bound = min(sum(a.values()) * max(b.values()),
                sum(b.values()) * max(a.values()))
    assert -(-bound.bit_length() // 8) == bound_bytes
    got = convolve_packed(a, b)
    assert got == {s: v for s, v in _dict_convolve(a, b).items() if v}
    assert list(got) == sorted(got)
    assert slot_widths == ([lattice._slot_bytes(bound)] if bound else [])


@pytest.mark.parametrize("bound, width", [
    (0, 1), (255, 1), (256, 2), (2 ** 16, 4), (2 ** 32 - 1, 4), (2 ** 32, 8),
    (2 ** 64 - 1, 8), (2 ** 64, 9)])
def test_slot_width_rule(bound, width):
    assert lattice._slot_bytes(bound) == width


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_reflected_encoding_reverses_the_slots(width):
    # the reflection read from one buffer equals a second encoding at the
    # negated keys; values fill their slot, and slot 0 and the last are used
    rng = random.Random(width)
    lo, cells = -7, 40
    keys = [lo, *rng.sample(range(lo + 1, lo + cells - 1), 15), lo + cells - 1]
    values = [rng.randint(1, 256 ** width - 1) for _ in keys]
    p, r = lattice._slots_int_reflected(keys, values, lo, cells, width)
    assert p == lattice._slots_int(keys, values, lo, cells, width)
    assert r == lattice._slots_int([-x for x in keys], values,
                                   -(lo + cells - 1), cells, width)
    slots = lattice._int_slots(r, cells, width)
    assert [slots[lo + cells - 1 - x] for x in keys] == values


@pytest.mark.parametrize("values", [
    lambda rng: rng.randint(-5, 5),
    lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
    lambda rng: rng.random(),
], ids=["negative-int", "fraction", "float"])
def test_convolve_packed_dict_branch(values):
    # same dense key range, but values the big integer cannot hold
    rng = random.Random(23)
    a = {x: values(rng) for x in range(-20, 20)}
    b = {y: values(rng) for y in range(5, 40)}
    got = convolve_packed(a, b)
    want = _dict_convolve(a, b)
    assert got == want
    assert list(got) == list(want)


def test_cube_energy_through_big_integer_branch():
    # E_2({0,1,2}) = 19, and energy is multiplicative over products
    for d in range(1, 7):
        assert additive_energy(PointSet.cube(2, d), 2).value == 19 ** d


def test_weighted_energy_float_summation_order():
    # enough terms per sum that a reordered loop rounds apart at k = 3
    rng = random.Random(29)
    pts = sorted({(rng.randint(0, 6), rng.randint(-3, 3)) for _ in range(40)})
    f = WeightFn(2, {p: rng.random() for p in pts}, False)
    for k in (1, 2, 3):
        conv = f.entries
        for _ in range(k - 1):
            conv = _brute_convolve(conv, f.entries)
        want = 0.0
        for v in conv.values():
            want += v * v
        assert weighted_energy(f, k) == want


# ---------------------------------------------------------------------------
# carry-free packing


def test_pack_points_preserves_sum_structure():
    # k-fold sums of packed integers must collide exactly when the vector
    # sums collide, which is the property every enumeration backend leans on.
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.randint(1, 3)
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(dim))
                      for _ in range(rng.randint(2, 8))})
        k = rng.randint(2, 3)
        mult = 4 * k + 1
        packed = pack_points(pts, mult)
        from itertools import product
        vec = {}
        pk = {}
        for combo in product(range(len(pts)), repeat=k):
            vs = tuple(sum(pts[i][j] for i in combo) for j in range(dim))
            ps = sum(packed[i] for i in combo)
            vec[vs] = vec.get(vs, 0) + 1
            pk[ps] = pk.get(ps, 0) + 1
        assert sorted(vec.values()) == sorted(pk.values())
        assert len(vec) == len(pk)


# ---------------------------------------------------------------------------
# weight functions


def test_weightfn_validation_and_exactness():
    w = WeightFn.from_pairs([((0,), Fraction(1, 2)), ((1,), Fraction(1, 3))])
    assert w.exact
    assert w.sup_norm() == Fraction(1, 2)
    wf = WeightFn.from_pairs([((0,), 0.5), ((1,), 1.0)])
    assert not wf.exact
    with pytest.raises(ValueError):
        WeightFn.from_pairs([((0,), -1)])


def test_weightfn_drops_zeros_scale_tensor():
    w = WeightFn.from_pairs([((0,), Fraction(1)), ((2,), Fraction(0))])
    assert len(w) == 1
    doubled = w.scale(Fraction(2))
    assert doubled[(0,)] == Fraction(2)
    v = WeightFn.from_pairs([((5,), Fraction(1, 4))])
    t = w.tensor(v)
    assert t.dim == 2
    assert t[(0, 5)] == Fraction(1, 4)


def test_convolve_weights_matches_brute_force():
    rng = random.Random(17)
    for _ in range(10):
        f = WeightFn.from_pairs(
            [((rng.randint(0, 4),), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
             for _ in range(4)])
        g = WeightFn.from_pairs(
            [((rng.randint(0, 4),), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
             for _ in range(4)])
        got = convolve_weights(f, g)
        want = _brute_convolve(dict(f.items()), dict(g.items()))
        assert dict(got.items()) == want


# ---------------------------------------------------------------------------
# parsers


def test_json_roundtrip():
    a = PointSet.from_points([(0, -1), (3, 2), (1, 1)])
    assert parse_points_json(points_to_json(a)).sorted_points() == a.sorted_points()


def test_text_roundtrip_with_comments():
    a = PointSet.from_points([(-2, 0), (1, 5)])
    text = points_to_text(a) + "\n# trailing comment\n\n"
    assert parse_points_text(text).sorted_points() == a.sorted_points()


def test_auto_dispatch():
    assert parse_points_auto("[[1, 2]]").sorted_points() == [(1, 2)]
    assert parse_points_auto("1 2\n3 4\n").sorted_points() == [(1, 2), (3, 4)]


def test_parser_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_points_json("[[1, 2], [3]]")          # ragged
    with pytest.raises(ParseError):
        parse_points_json("[[1.5, 2]]")             # non-integer
    with pytest.raises(ParseError):
        parse_points_json("[[true, 2]]")            # bool is not a coordinate
    with pytest.raises(ParseError):
        parse_points_json("{\"a\": 1}")             # not an array of rows
    with pytest.raises(ParseError):
        parse_points_json("[[1, 2]")                # invalid JSON
    with pytest.raises(ParseError):
        parse_points_text("1 x\n")                  # letters
    with pytest.raises(ParseError):
        parse_points_text("1 2\n3\n")               # ragged
    with pytest.raises(ParseError):
        parse_points_json("[[1, 2]]", dim=3)        # declared dim mismatch
