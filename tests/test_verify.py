"""Certified thresholds, cube sweeps, equality witnesses, witness search."""

import importlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp, workdps

from cubenergy import intervals, verify
from cubenergy.energy import (EnergyKind, _cube_symmetries,
                              brute_force_energy, energy, orbit_members,
                              packed_subset_energy)
from cubenergy.errors import BudgetExceeded
from cubenergy.lattice import PointSet, pack_points
from cubenergy.verify import (
    ExponentTarget,
    energy_threshold,
    equality_witnesses,
    sweep_cube,
    witness_search_general_cube,
)


# ---------------------------------------------------------------------------
# exponent targets


def test_sharp_exponents():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    assert abs(t.exponent - math.log2(6)) < 1e-15
    t3 = ExponentTarget.sharp(EnergyKind.HIGHER, 3)
    assert abs(t3.exponent - math.log2(10)) < 1e-15
    c = ExponentTarget(EnergyKind.ADDITIVE, 2, 1.5)
    assert c.exponent == 1.5


@pytest.mark.parametrize("k", [2, 3])
def test_custom_exponent_range(k):
    # every set meets |A|^(2k-1), so 2k - 1 is the largest informative target
    top = ExponentTarget(EnergyKind.ADDITIVE, k, 2 * k - 1)
    assert sweep_cube(1, 2, top).ok
    for bad in (math.inf, math.nan, 2 * k - 1 + 0.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            ExponentTarget(EnergyKind.ADDITIVE, k, bad)


def test_sharp_rejects_bad_k():
    with pytest.raises(ValueError):
        ExponentTarget.sharp(EnergyKind.ADDITIVE, 1)


# ---------------------------------------------------------------------------
# certified floor of c^p


def test_energy_threshold_frozen_values():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    # powers of two resolve exactly; the rest need a certified floor
    assert energy_threshold(t, 0) == (0, False)
    assert energy_threshold(t, 1) == (1, True)
    assert energy_threshold(t, 2) == (6, True)
    assert energy_threshold(t, 3) == (17, False)
    assert energy_threshold(t, 5) == (64, False)
    assert energy_threshold(t, 8) == (216, True)
    assert energy_threshold(t, 16) == (1296, True)


def _log2_target(m):
    # the exponent log2 m in its integer form, as the sharp targets keep it
    return ExponentTarget(EnergyKind.ADDITIVE, 3, math.log2(m), m)


def test_energy_threshold_frozen_log2_floors():
    # floor(c^log2 m) at m not a power of two
    assert energy_threshold(_log2_target(6), 3) == (17, False)
    assert energy_threshold(_log2_target(6), 5) == (64, False)
    assert energy_threshold(_log2_target(19), 3) == (106, False)


def test_energy_threshold_custom_exponent():
    t = ExponentTarget(EnergyKind.ADDITIVE, 2, 1.5)
    assert energy_threshold(t, 4) == (8, True)
    assert energy_threshold(t, 5) == (11, False)


def test_energy_threshold_at_a_tiny_exponent_is_one():
    # x is 1/2^60 or 1/2^1074: c^x is just above 1, so its certified floor
    # is 1 and not exact
    for x in (2.0 ** -60, 5e-324):
        t = ExponentTarget(EnergyKind.ADDITIVE, 2, x)
        for c in range(2, 17):
            assert energy_threshold(t, c) == (1, False), (x, c)


@pytest.mark.parametrize("x", [2.5, 1.5, 0.75])
def test_energy_threshold_of_a_dyadic_exponent_is_its_integer_root(x):
    # x = num/den: floor(c^x) is the integer den-th root of c^num, exact
    # just where that root is
    num, den = Fraction(x).numerator, Fraction(x).denominator
    t = ExponentTarget(EnergyKind.ADDITIVE, 2, x)
    for c in range(2, 65):
        r, exact = energy_threshold(t, c)
        assert r ** den <= c ** num < (r + 1) ** den, (x, c)
        assert exact == (r ** den == c ** num), (x, c)


def _assert_tracks_float_power(t):
    for c in range(1, 40):
        bound, eq = energy_threshold(t, c)
        approx = c ** t.exponent
        assert bound <= approx + 1e-6
        assert bound >= approx - 1.0 - 1e-6
        if eq:
            # exact equality only happens on powers of two
            assert c & (c - 1) == 0


def test_energy_threshold_tracks_float_power():
    _assert_tracks_float_power(ExponentTarget.sharp(EnergyKind.HIGHER, 3))


def test_energy_threshold_tracks_floats_at_log2_exponents():
    # c^log2 m for m not a power of two
    for m in (3, 5, 6, 10, 19):
        _assert_tracks_float_power(_log2_target(m))


def test_energy_threshold_validates():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    with pytest.raises(ValueError):
        energy_threshold(t, -1)
    # log2 of 1 is no exponent: the integer form must exceed 1
    with pytest.raises(ValueError):
        ExponentTarget(EnergyKind.ADDITIVE, 2, math.log2(1), 1)


def test_log2_arg_takes_only_the_float_log2_of_itself():
    # a float a few ulps off log2 6 would be reported while every threshold
    # was decided against log2 6 itself
    exact = math.log2(6)
    for near in (exact + 5e-13, exact - 5e-13, math.nextafter(exact, 0),
                 math.nextafter(exact, 3)):
        with pytest.raises(ValueError):
            ExponentTarget(EnergyKind.ADDITIVE, 2, near, 6)
    assert ExponentTarget(EnergyKind.ADDITIVE, 2, exact, 6).exponent == exact


@pytest.mark.parametrize("kind, ks", [(EnergyKind.ADDITIVE, range(2, 11)),
                                      (EnergyKind.HIGHER,
                                       [*range(2, 65), 100, 1000])])
def test_sharp_builds_for_every_k_it_allows(kind, ks):
    for k in ks:
        t = ExponentTarget.sharp(kind, k)
        assert t.exponent == math.log2(t.log2_arg)


def test_energy_threshold_exact_power_has_no_bit_cap():
    # 16 = 2^4, so the bound is (2^5000 + 2)^4 exactly, with 20 001 bits: a
    # certified floor of it could never settle
    t = ExponentTarget.sharp(EnergyKind.HIGHER, 5000)
    assert energy_threshold(t, 16) == ((2 ** 5000 + 2) ** 4, True)


def test_exact_power_cases():
    # log pairs: c = b^t gives a^t
    assert verify._exact_power(1, (19, 3)) == 1
    assert verify._exact_power(27, (19, 3)) == 19 ** 3
    assert verify._exact_power(16, (6, 2)) == 6 ** 4
    assert verify._exact_power(6, (19, 3)) is None
    # Fractions num/den: c = r^den gives r^num
    assert verify._exact_power(8, Fraction(5, 3)) == 32
    assert verify._exact_power(5, Fraction(3)) == 125
    assert verify._exact_power(5, Fraction(0)) == 1
    assert verify._exact_power(9, Fraction(5, 3)) is None
    assert verify._exact_power(4, Fraction(-1)) is None
    assert verify._exact_power(7, Fraction(5e-324)) is None
    # bits: a power that must have more bits is not computed; 4^5 has 11
    assert verify._exact_power(4, Fraction(10 ** 300), 10) is None
    assert verify._exact_power(4, Fraction(5), 10) is None
    assert verify._exact_power(4, Fraction(5), 11) == 4 ** 5


def test_energy_threshold_monotone():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 3)
    bounds = [energy_threshold(t, c)[0] for c in range(0, 30)]
    assert bounds == sorted(bounds)


# ---------------------------------------------------------------------------
# exhaustive sweeps


def _recount(n, d, target):
    """Independent recount of violations and equalities over all subsets."""
    pts = PointSet.cube(n, d).sorted_points()
    eq = 0
    viol = 0
    for size in range(1, len(pts) + 1):
        for combo in combinations(pts, size):
            a = PointSet.from_points(combo)
            e = brute_force_energy(a, target.k, target.kind).value
            bound, exact = energy_threshold(target, size)
            if e > bound:
                viol += 1
            elif exact and e == bound:
                eq += 1
    return viol, eq


@pytest.mark.parametrize("kind", list(EnergyKind))
@pytest.mark.parametrize("k", [2, 3])
def test_sweep_square_matches_recount(kind, k):
    target = ExponentTarget.sharp(kind, k)
    rep = sweep_cube(1, 2, target)
    viol, eq = _recount(1, 2, target)
    assert rep.subsets_checked == 15
    assert len(rep.violations) == viol == 0
    assert rep.equality_count == eq == 11


def test_sweep_cube_d3_frozen():
    rep = sweep_cube(1, 3, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2))
    assert rep.subsets_checked == 255
    assert not rep.violations
    assert rep.equality_count == 49
    assert abs(rep.max_ratio - math.log2(6)) < 1e-12


def _recorded_walks(monkeypatch):
    """A list that collects, for each verify._walk call, the entries
    (mask, |B|, E(B), size) its caller consumed."""
    walk, walks = verify._walk, []

    def recording(*args):
        pts, thresholds, entries, members = walk(*args)
        walks.append(list(entries))
        return pts, thresholds, walks[-1], members
    monkeypatch.setattr(verify, "_walk", recording)
    return walks


def test_sweep_rows_and_mode(monkeypatch):
    # {0,1}^2 takes the orbit walk too: 5 orbits of its 15 nonempty masks
    target = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    walks = _recorded_walks(monkeypatch)
    rep = sweep_cube(1, 2, target)
    assert rep.mode == "exhaustive"
    [entries] = walks
    assert len(entries) == 5
    listing = orbit_members(_cube_symmetries(1, 2))
    orbits = [listing(entry[0]) for entry in entries]
    assert sorted(orbit[0] for orbit in orbits) == [1, 3, 6, 7, 15]
    assert sorted(m for orbit in orbits for m in orbit) == \
        list(range(1, 16)) and rep.subsets_checked == 15
    pts = PointSet.cube(1, 2).sorted_points()
    ratios = {}
    for (rep_mask, size, e, count), members in zip(entries, orbits):
        assert rep_mask in members and count == len(members)
        for mask in members:
            assert bin(mask).count("1") == size
            sub = PointSet.from_points([p for i, p in enumerate(pts)
                                        if mask >> i & 1])
            assert e == brute_force_energy(sub, 2, EnergyKind.ADDITIVE).value
            assert e <= energy_threshold(target, size)[0]
            if size >= 2:
                ratios[mask] = math.log(e) / math.log(size)
    best = max(ratios.values())
    assert rep.max_ratio == best
    witness = min(m for m, r in ratios.items() if r == best)
    assert rep.max_ratio_witness.points == \
        {p for i, p in enumerate(pts) if witness >> i & 1}


def test_sweep_reports_do_not_depend_on_walk_order(monkeypatch):
    # replay the exhaustive walks backwards, the orbit walk with each
    # orbit's largest member as its rep and its members listed in reverse:
    # violations, the witness of the best ratio and the equality witnesses
    # must all come out the same
    walk = verify.subset_energies
    orbits, listing = verify.orbit_energies, verify.orbit_members

    def backwards(packed, k, kind, masks=None):
        steps = list(walk(packed, k, kind, masks))
        return reversed(steps) if masks is None else steps

    def orbits_backwards(packed, k, kind, n, d):
        members = listing(_cube_symmetries(n, d))
        steps = [(members(rep)[-1], c, e, size)
                 for rep, c, e, size in orbits(packed, k, kind, n, d)]
        return reversed(steps)

    def members_backwards(symmetries):
        members = listing(symmetries)
        return lambda mask: members(mask)[::-1]

    jobs = [(1, 3, ExponentTarget(EnergyKind.ADDITIVE, 2, 2.3)),
            (1, 3, ExponentTarget.sharp(EnergyKind.HIGHER, 2)),
            (2, 2, ExponentTarget(EnergyKind.ADDITIVE, 3, 3.9)),
            (7, 1, ExponentTarget(EnergyKind.ADDITIVE, 2, 2.2))]
    want = [sweep_cube(n, d, t) for n, d, t in jobs]
    eq = [equality_witnesses(d, 2, kind, n)
          for d, n in [(3, 1), (1, 3)] for kind in EnergyKind]
    monkeypatch.setattr(verify, "subset_energies", backwards)
    monkeypatch.setattr(verify, "orbit_energies", orbits_backwards)
    monkeypatch.setattr(verify, "orbit_members", members_backwards)
    for (n, d, t), rep in zip(jobs, want):
        assert sweep_cube(n, d, t).to_dict() == rep.to_dict()
    assert [equality_witnesses(d, 2, kind, n)
            for d, n in [(3, 1), (1, 3)] for kind in EnergyKind] == eq


def _mask_by_mask(pts, k, kind):
    """(mask, |B|, E(B)) for every nonempty mask of pts, in increasing
    order, each energy from packed_subset_energy on the keys it selects,
    not from the sweeps' kernel."""
    packed = pack_points(pts, max(k, 2))
    for mask in range(1, 1 << len(pts)):
        sel = [key for i, key in enumerate(packed) if mask >> i & 1]
        yield mask, len(sel), packed_subset_energy(sel, k, kind)


def _sweep_mask_by_mask(n, d, target):
    """Oracle: the report fields of an exhaustive sweep, built one mask at
    a time."""
    pts = PointSet.cube(n, d).sorted_points()
    thresholds = [energy_threshold(target, c) for c in range(len(pts) + 1)]
    rows, violations, eq, best = [], [], 0, None
    for mask, c, e in _mask_by_mask(pts, target.k, target.kind):
        bound, exact = thresholds[c]
        if e > bound:
            violations.append(mask)
        elif exact and e == bound:
            eq += 1
        ratio = math.log(e) / math.log(c) if c >= 2 else None
        rows.append((mask, c, e))
        if ratio is not None and (best is None or (-ratio, mask) < best):
            best = (-ratio, mask)
    witness = [list(p) for i, p in enumerate(pts) if best[1] >> i & 1]
    return rows, sorted(violations), eq, -best[0], witness


@pytest.mark.parametrize("n, d, target", [
    (1, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)),
    (1, 3, ExponentTarget.sharp(EnergyKind.HIGHER, 3)),
    (1, 3, ExponentTarget(EnergyKind.ADDITIVE, 2, 2.3)),
    (2, 2, ExponentTarget(EnergyKind.ADDITIVE, 3, 3.9)),
    (2, 2, ExponentTarget(EnergyKind.HIGHER, 2, 2.5)),
    (3, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)),
    (3, 2, ExponentTarget.sharp(EnergyKind.HIGHER, 2)),
])
def test_orbit_sweep_matches_mask_by_mask(n, d, target, monkeypatch):
    rows, violations, eq, max_ratio, witness = _sweep_mask_by_mask(n, d, target)
    walks = _recorded_walks(monkeypatch)
    rep = sweep_cube(n, d, target)
    [entries] = walks
    members = orbit_members(_cube_symmetries(n, d))
    assert sorted((m, c, e) for mask, c, e, _ in entries
                  for m in members(mask)) == rows
    assert all(size == len(members(mask)) for mask, _, _, size in entries)
    assert rep.subsets_checked == len(rows) == (1 << (n + 1) ** d) - 1
    pts = PointSet.cube(n, d).sorted_points()
    assert [sorted(map(list, v.subset.points)) for v in rep.violations] == \
        [[list(p) for i, p in enumerate(pts) if m >> i & 1] for m in violations]
    assert rep.equality_count == eq
    assert rep.max_ratio == max_ratio
    assert [list(p) for p in rep.max_ratio_witness.sorted_points()] == witness


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", list(EnergyKind))
def test_orbit_equality_witnesses_match_mask_by_mask(d, kind):
    # d = 2 sweeps the wider alphabet {0,1,2}^2, and d = 1 the segment
    # {0..16}: 17 points, within the exhaustive sweeps' budget of 24
    k, n = 2, {1: 16, 2: 2}.get(d, 1)
    pts = PointSet.cube(n, d).sorted_points()
    target = ExponentTarget.sharp(kind, k)
    thresholds = [energy_threshold(target, c) for c in range(len(pts) + 1)]
    masks = [mask for mask, c, e in _mask_by_mask(pts, k, kind)
             if thresholds[c] == (e, True)]
    assert equality_witnesses(d, k, kind, n) == [
        PointSet.from_points(p for i, p in enumerate(pts) if mask >> i & 1)
        for mask in masks]


def test_exhaustive_sweep_computes_one_energy_per_orbit(monkeypatch):
    # {0,1}^4 has 65535 nonempty subsets in 401 orbits of its symmetry
    # group, {0..7} 255 in 135 orbits of the reflection, {0..3}^2 65535 in
    # 8547 and {0,1,2}^2, with a middle slice, 511 in 101; every energy
    # from scratch is a call of the function that _mask_energy builds for
    # the sweep.  A walk that stopped at the orbits of the stabilizer of
    # coordinate 1 would make 1055 calls on {0,1}^4
    calls = []
    energy_module = importlib.import_module("cubenergy.energy")
    inner = energy_module._mask_energy

    def counted(packed, k, kind):
        mask_energy = inner(packed, k, kind)

        def counted_energy(mask):
            calls.append(mask)
            return mask_energy(mask)
        return counted_energy

    monkeypatch.setattr(energy_module, "_mask_energy", counted)
    rep = sweep_cube(1, 4, ExponentTarget.sharp(EnergyKind.HIGHER, 2))
    assert rep.subsets_checked == 65535 and len(calls) == 401
    rep = sweep_cube(7, 1, ExponentTarget.sharp(EnergyKind.HIGHER, 2))
    assert rep.subsets_checked == 255 and len(calls) == 401 + 135
    for n, orbits in [(3, 8547), (2, 101)]:
        del calls[:]
        rep = sweep_cube(n, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2))
        assert rep.subsets_checked == (1 << (n + 1) ** 2) - 1
        assert len(calls) == orbits


@pytest.mark.parametrize("n, d", [(1, 0), (1, 1), (2, 1), (3, 1), (6, 1),
                                  (1, 2), (1, 3), (2, 2), (7, 1)])
def test_exhaustive_walk_by_point_count(monkeypatch, n, d):
    # every exhaustive sweep takes the orbit walk, the one point of d = 0
    # (no generator) and every segment too; a sampled one recounts its masks
    walks = []
    for name in ("orbit_energies", "subset_energies"):
        inner = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, name=name,
                            inner=inner: walks.append(name) or inner(*args))
    target = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    rep = sweep_cube(n, d, target)
    assert walks == ["orbit_energies"]
    assert rep.subsets_checked == (1 << (n + 1) ** d) - 1
    assert sweep_cube(n, d, target, sample=3, seed=0).subsets_checked == 3
    assert walks == ["orbit_energies", "subset_energies"]


def test_sweeps_of_the_one_point_cube():
    # {0..n}^0 is one point: one subset, an equality case of every target
    for kind in EnergyKind:
        rep = sweep_cube(2, 0, ExponentTarget.sharp(kind, 2))
        assert (rep.subsets_checked, rep.equality_count, rep.violations,
                rep.max_ratio) == (1, 1, [], None)
        assert [w.points for w in equality_witnesses(0, 3, kind)] == \
            [frozenset({()})]


@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("kind", list(EnergyKind))
def test_sharp_exponent_holds_on_the_4_cube(kind, k):
    rep = sweep_cube(1, 4, ExponentTarget.sharp(kind, k))
    assert rep.subsets_checked == 65535
    assert not rep.violations
    assert rep.equality_count == 257


def test_sweep_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        sweep_cube(2, 5, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2))
    # one point past the orbit walk's 24 is refused as a budget, not by
    # the walk's own check
    with pytest.raises(BudgetExceeded, match="25 points"):
        sweep_cube(4, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2))
    # the equality witnesses filter the same walk, on the same budget
    with pytest.raises(BudgetExceeded, match=r"^exhaustive sweep over 25 "
                                             r"points \(> 24\) refused$"):
        equality_witnesses(2, 2, EnergyKind.ADDITIVE, 4)


def test_sweep_sampled_budget():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    # {0,1}^6 and {0..3}^3 hold MAX_SAMPLED_POINTS = 64 points; one more
    # axis or letter is refused
    for n, d in [(1, 6), (3, 3)]:
        assert sweep_cube(n, d, t, sample=2, seed=0).subsets_checked == 2
    for n, d in [(1, 7), (4, 3)]:
        with pytest.raises(BudgetExceeded, match="sampled sweep"):
            sweep_cube(n, d, t, sample=2, seed=0)


def test_sweep_sampled_deterministic(monkeypatch):
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    walks = _recorded_walks(monkeypatch)
    a = sweep_cube(1, 4, t, sample=200, seed=5)
    b = sweep_cube(1, 4, t, sample=200, seed=5)
    assert walks[0] == walks[1] and a.to_dict() == b.to_dict()
    assert a.mode == "sample" and a.subsets_checked == 200
    assert not a.violations
    sweep_cube(1, 4, t, sample=200, seed=6)
    assert walks[2] != walks[0]


# ---------------------------------------------------------------------------
# equality witnesses


def test_equality_witnesses_segment():
    w = equality_witnesses(1, 2, EnergyKind.ADDITIVE)
    assert sorted(tuple(sorted(s)) for s in w) == \
        [((0,),), ((0,), (1,)), ((1,),)]


def test_equality_witnesses_square_frozen():
    w = equality_witnesses(2, 2, EnergyKind.ADDITIVE)
    got = sorted(tuple(sorted(s)) for s in w)
    assert len(got) == 11
    # all four singletons, all six pairs (both diagonals included), full square
    assert ((0, 0), (1, 1)) in got
    assert ((0, 1), (1, 0)) in got
    assert ((0, 0), (0, 1), (1, 0), (1, 1)) in got
    assert all(len(s) & (len(s) - 1) == 0 for s in got)


def test_equality_witnesses_wider_alphabet():
    w = equality_witnesses(1, 2, EnergyKind.ADDITIVE, n=2)
    got = sorted(tuple(sorted(s)) for s in w)
    # three singletons plus the three dilated pairs; the full set exceeds
    # its bound and is not an equality witness
    assert got == [((0,),), ((0,), (1,)), ((0,), (2,)),
                   ((1,),), ((1,), (2,)), ((2,),)]


def test_equality_witnesses_in_mask_order():
    pts = PointSet.cube(1, 3).sorted_points()
    for kind in EnergyKind:
        w = equality_witnesses(3, 2, kind)
        masks = [sum(1 << pts.index(p) for p in s.points) for s in w]
        assert len(masks) > 1 and masks == sorted(masks)


def test_equality_witnesses_are_exact():
    for kind in EnergyKind:
        for w in equality_witnesses(2, 3, kind):
            target = ExponentTarget.sharp(kind, 3)
            bound, exact = energy_threshold(target, len(w))
            assert exact
            assert energy(w, 3, kind).value == bound


# ---------------------------------------------------------------------------
# witness search over tensor-power level sets


def test_witness_search_validates_n():
    with pytest.raises(ValueError):
        witness_search_general_cube(1, 3, 2.0)


def test_witness_search_single_axis():
    bar = math.log(19) / math.log(3)
    rep = witness_search_general_cube(2, 1, (19, 3))
    assert [l.size for l in rep.levels] == [1, 3]
    assert rep.levels[1].energy == 19
    assert rep.best_ratio == pytest.approx(bar, abs=1e-15)
    # the full segment sits exactly on the bar, so nothing crosses
    assert not rep.crossed
    assert rep.undecided_levels == []


def test_witness_search_low_dimensions_do_not_cross():
    bar = math.log(19) / math.log(3)
    for d in (2, 3, 4):
        rep = witness_search_general_cube(2, d, (19, 3))
        assert not rep.crossed, d
        assert rep.undecided_levels == []
        assert rep.best_ratio <= bar + 1e-12


def test_witness_search_level_records_are_exact():
    rep = witness_search_general_cube(2, 3, (19, 3))
    for rec in rep.levels:
        assert rec.size >= 1 and rec.energy >= rec.size ** 2
        if rec.size >= 2:
            assert rec.ratio == pytest.approx(
                math.log(rec.energy) / math.log(rec.size), rel=1e-12)


def test_witness_search_levels_match_convolution():
    # the engine's records against levels built and convolved point by point;
    # odd n has two middle letters
    for n, d in [(2, 4), (3, 3), (4, 2)]:
        mids = {n // 2, (n + 1) // 2}
        pts = PointSet.cube(n, d).sorted_points()
        rep = witness_search_general_cube(n, d, 2.5)
        for rec in rep.levels:
            level = PointSet(d, frozenset(
                p for p in pts if sum(c not in mids for c in p) <= rec.level))
            assert rec.size == len(level)
            assert rec.energy == energy(level, 2, EnergyKind.ADDITIVE).value


def test_witness_search_builds_no_cube(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("witness search must not convolve the cube")
    energy_module = importlib.import_module("cubenergy.energy")
    monkeypatch.setattr(PointSet, "cube", refuse)
    for name in ("energy", "additive_energy", "packed_power_energy",
                 "packed_subset_energy"):
        monkeypatch.setattr(energy_module, name, refuse)
    assert not hasattr(verify, "energy")
    rep = witness_search_general_cube(2, 6, (19, 3))
    assert rep.levels[-1].size == 3 ** 6 and rep.levels[-1].energy == 19 ** 6


def test_witness_search_reaches_dimension_12():
    rep = witness_search_general_cube(2, 12, (19, 3), max_points=3 ** 12)
    assert rep.best_level == 9
    assert rep.best_ratio == 2.6831306869738154
    assert rep.crossed
    assert rep.undecided_levels == []


def test_witness_search_budget_is_a_cube_size_limit():
    with pytest.raises(BudgetExceeded, match="cube with 243 points refused"):
        witness_search_general_cube(2, 5, 2.5, max_points=242)
    assert len(witness_search_general_cube(2, 5, 2.5, max_points=243).levels) == 6


@pytest.mark.parametrize("threshold_log", [(19, 1), (19, 0), (0, 3), (-19, 3)])
def test_witness_search_refuses_a_degenerate_threshold_log(threshold_log):
    with pytest.raises(ValueError, match="a >= 1 and b >= 2"):
        witness_search_general_cube(2, 2, threshold_log)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_witness_search_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="finite"):
        witness_search_general_cube(2, 2, threshold)


# the float just below log_3 19 and the next float up, which lies above it
BELOW_LOG3_19 = 2.6801438592463751
ABOVE_LOG3_19 = 2.6801438592463755


def test_float_thresholds_straddle_log3_19():
    assert math.nextafter(BELOW_LOG3_19, math.inf) == ABOVE_LOG3_19
    with workdps(40):
        bar = mp.log(19) / mp.log(3)
        assert mp.mpf(BELOW_LOG3_19) < bar < mp.mpf(ABOVE_LOG3_19)


@pytest.mark.parametrize("d", range(1, 7))
def test_explicit_float_threshold_is_decided_exactly(d):
    # the full cube has the exact ratio log_3 19 at every d, above the
    # first float and below the second; float logarithms round it to one
    # side or the other depending on d
    rep = witness_search_general_cube(2, d, BELOW_LOG3_19)
    assert rep.crossed and rep.undecided_levels == []
    rep = witness_search_general_cube(2, d, ABOVE_LOG3_19)
    assert not rep.crossed and rep.undecided_levels == []


@pytest.mark.parametrize("bar, threshold", [
    ((19, 3), math.log(19) / math.log(3)), ((9, 3), math.log(9) / math.log(3)),
    (2.5, 2.5), (BELOW_LOG3_19, BELOW_LOG3_19)])
def test_witness_search_reports_its_bar_as_a_float(bar, threshold):
    # a log pair (a, b) is reported as math.log(a) / math.log(b), the float
    # the CLI's report has always held, and a float bar as itself
    rep = witness_search_general_cube(2, 2, bar)
    assert type(rep.threshold) is float and rep.threshold == threshold
    assert rep.to_dict()["threshold"] == threshold


def test_float_threshold_ties_do_not_cross():
    # log(2^5)/log(2^2) is 2.5 exactly, and log(19^3)/log(3^3) is the bar
    assert verify._crosses(2 ** 5, 2 ** 2, Fraction(2.5)) is False
    assert verify._crosses(2 ** 5 + 1, 2 ** 2, Fraction(2.5)) is True
    assert verify._crosses(2 ** 5 - 1, 2 ** 2, Fraction(2.5)) is False
    assert verify._crosses(3 ** 6, 3 ** 3, Fraction(2.0)) is False
    assert verify._crosses(1000, 10, Fraction(3.0)) is False
    assert verify._crosses(1000, 10, Fraction(0.0)) is True
    assert verify._crosses(1000, 10, Fraction(-1.0)) is True


def test_log_pairs_of_powers_of_one_integer_are_exact():
    # log 4 / log 2 is 2 and log 8 / log 4 is 3/2: such a pair is its
    # rational exponent, so these powers are integers and these ties exact
    t = ExponentTarget(EnergyKind.ADDITIVE, 2, 2.0, 4)
    assert energy_threshold(t, 3) == (9, True)
    assert energy_threshold(t, 5) == (25, True)
    for e, size, pair in ((4, 2, (9, 3)), (27, 9, (8, 4))):
        assert verify._crosses(e, size, pair) is False
        assert verify._crosses(e + 1, size, pair) is True


def test_exact_non_ties_need_no_interval(monkeypatch):
    # where size^bar is an integer the verdict is one integer comparison
    def refused(*args):
        raise AssertionError("decide_le called")
    monkeypatch.setattr(verify, "decide_le", refused)
    for e, crossed in ((19 ** 3 - 1, False), (19 ** 3, False),
                       (19 ** 3 + 1, True)):
        assert verify._crosses(e, 27, (19, 3)) is crossed
    for e, crossed in ((2 ** 5 - 1, False), (2 ** 5, False),
                       (2 ** 5 + 1, True)):
        assert verify._crosses(e, 4, Fraction(2.5)) is crossed


def test_float_threshold_far_from_the_ratio_is_cheap():
    # a huge numerator or denominator rules a tie out without powering
    assert verify._crosses(4, 2, Fraction(1e300)) is False
    assert verify._crosses(4, 2, Fraction(5e-324)) is True


def test_float_threshold_left_undecided_at_the_cap(monkeypatch):
    monkeypatch.setattr(intervals, "PREC_START", 24)
    monkeypatch.setattr(intervals, "PREC_CAP", 24)
    assert verify._crosses(19, 3, Fraction(BELOW_LOG3_19)) is None
