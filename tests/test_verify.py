"""Certified thresholds, cube sweeps, equality witnesses, witness search."""

import importlib
import math
import random
from itertools import combinations

import pytest
from mpmath import mp, workdps

from cubenergy import intervals, verify
from cubenergy.energy import (EnergyKind, brute_force_energy, energy,
                              subset_energies)
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
    c = ExponentTarget.custom(EnergyKind.ADDITIVE, 2, 1.5)
    assert c.exponent == 1.5


@pytest.mark.parametrize("k", [2, 3])
def test_custom_exponent_range(k):
    # every set meets |A|^(2k-1), so 2k - 1 is the largest informative target
    top = ExponentTarget.custom(EnergyKind.ADDITIVE, k, 2 * k - 1)
    assert sweep_cube(1, 2, top).ok
    for bad in (math.inf, math.nan, 2 * k - 1 + 0.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            ExponentTarget.custom(EnergyKind.ADDITIVE, k, bad)


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


def test_energy_threshold_custom_exponent():
    t = ExponentTarget.custom(EnergyKind.ADDITIVE, 2, 1.5)
    assert energy_threshold(t, 4) == (8, True)
    assert energy_threshold(t, 5) == (11, False)


def test_energy_threshold_tracks_float_power():
    t = ExponentTarget.sharp(EnergyKind.HIGHER, 3)
    for c in range(1, 40):
        bound, eq = energy_threshold(t, c)
        approx = c ** t.exponent
        assert bound <= approx + 1e-6
        assert bound >= approx - 1.0 - 1e-6
        if eq:
            # exact equality only happens on powers of two
            assert c & (c - 1) == 0


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


def test_sweep_rows_and_mode():
    target = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    rep = sweep_cube(1, 2, target, collect_rows=True)
    assert rep.mode == "exhaustive"
    assert len(rep.rows) == rep.subsets_checked
    assert [row[0] for row in rep.rows] == list(range(1, 16))
    for mask, size, e, ratio in rep.rows:
        assert 1 <= mask < 16 and bin(mask).count("1") == size
        assert e <= energy_threshold(target, size)[0]
        if size >= 2:
            assert abs(ratio - math.log(e) / math.log(size)) < 1e-12
        else:
            assert ratio is None


def test_sweep_reports_do_not_depend_on_walk_order(monkeypatch):
    # replay the exhaustive walks backwards, the orbit walk with each
    # orbit's members reversed too: violations, rows, the witness of the
    # best ratio and the equality witnesses must all come out the same
    walk = verify.subset_energies
    orbits = verify.orbit_energies

    def backwards(packed, k, kind, masks=None):
        steps = list(walk(packed, k, kind, masks))
        return reversed(steps) if masks is None else steps

    def orbits_backwards(packed, k, kind, symmetries):
        steps = [(rep, c, e, members[::-1])
                 for rep, c, e, members in orbits(packed, k, kind, symmetries)]
        return reversed(steps)

    jobs = [(1, 3, ExponentTarget.custom(EnergyKind.ADDITIVE, 2, 2.3)),
            (1, 3, ExponentTarget.sharp(EnergyKind.HIGHER, 2)),
            (2, 2, ExponentTarget.custom(EnergyKind.ADDITIVE, 3, 3.9)),
            (7, 1, ExponentTarget.custom(EnergyKind.ADDITIVE, 2, 2.2))]
    want = [sweep_cube(n, d, t, collect_rows=True) for n, d, t in jobs]
    eq = [equality_witnesses(d, 2, kind, n)
          for d, n in [(3, 1), (1, 3)] for kind in EnergyKind]
    monkeypatch.setattr(verify, "subset_energies", backwards)
    monkeypatch.setattr(verify, "orbit_energies", orbits_backwards)
    for (n, d, t), rep in zip(jobs, want):
        got = sweep_cube(n, d, t, collect_rows=True)
        assert got.to_dict() == rep.to_dict() and got.rows == rep.rows
    assert [equality_witnesses(d, 2, kind, n)
            for d, n in [(3, 1), (1, 3)] for kind in EnergyKind] == eq


def _sweep_mask_by_mask(n, d, target):
    """Oracle: the report fields of an exhaustive sweep, built from the
    Gray-code walk one mask at a time."""
    pts = PointSet.cube(n, d).sorted_points()
    packed = pack_points(pts, max(target.k, 2))
    thresholds = [energy_threshold(target, c) for c in range(len(pts) + 1)]
    rows, violations, eq, best = [], [], 0, None
    for mask, c, e in subset_energies(packed, target.k, target.kind):
        bound, exact = thresholds[c]
        if e > bound:
            violations.append(mask)
        elif exact and e == bound:
            eq += 1
        ratio = math.log(e) / math.log(c) if c >= 2 else None
        rows.append((mask, c, e, ratio))
        if ratio is not None and (best is None or (-ratio, mask) < best):
            best = (-ratio, mask)
    rows.sort()
    witness = [list(p) for i, p in enumerate(pts) if best[1] >> i & 1]
    return rows, sorted(violations), eq, -best[0], witness


@pytest.mark.parametrize("n, d, target", [
    (1, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)),
    (1, 3, ExponentTarget.sharp(EnergyKind.HIGHER, 3)),
    (1, 3, ExponentTarget.custom(EnergyKind.ADDITIVE, 2, 2.3)),
    (2, 2, ExponentTarget.custom(EnergyKind.ADDITIVE, 3, 3.9)),
    (2, 2, ExponentTarget.custom(EnergyKind.HIGHER, 2, 2.5)),
    (3, 2, ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)),
    (3, 2, ExponentTarget.sharp(EnergyKind.HIGHER, 2)),
])
def test_orbit_sweep_matches_mask_by_mask(n, d, target):
    rows, violations, eq, max_ratio, witness = _sweep_mask_by_mask(n, d, target)
    rep = sweep_cube(n, d, target, collect_rows=True)
    assert rep.rows == rows
    assert rep.subsets_checked == len(rows) == (1 << (n + 1) ** d) - 1
    pts = PointSet.cube(n, d).sorted_points()
    assert [sorted(map(list, v.subset.points)) for v in rep.violations] == \
        [[list(p) for i, p in enumerate(pts) if m >> i & 1] for m in violations]
    assert rep.equality_count == eq
    assert rep.max_ratio == max_ratio
    assert [list(p) for p in rep.max_ratio_witness.sorted_points()] == witness


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", list(EnergyKind))
def test_orbit_equality_witnesses_match_gray_walk(d, kind):
    k = 2
    pts = PointSet.cube(1, d).sorted_points()
    target = ExponentTarget.sharp(kind, k)
    thresholds = [energy_threshold(target, c) for c in range(len(pts) + 1)]
    masks = sorted(mask for mask, c, e in
                   subset_energies(pack_points(pts, k), k, kind)
                   if thresholds[c] == (e, True))
    assert equality_witnesses(d, k, kind) == [
        PointSet.from_points(p for i, p in enumerate(pts) if mask >> i & 1)
        for mask in masks]


def test_exhaustive_sweep_computes_one_energy_per_orbit(monkeypatch):
    # {0,1}^4 has 65535 nonempty subsets in 401 orbits of its symmetry group
    calls = []
    energy_module = importlib.import_module("cubenergy.energy")
    inner = energy_module.packed_subset_energy

    def counted(sel, k, kind):
        calls.append(len(sel))
        return inner(sel, k, kind)

    monkeypatch.setattr(energy_module, "packed_subset_energy", counted)
    rep = sweep_cube(1, 4, ExponentTarget.sharp(EnergyKind.HIGHER, 2))
    assert rep.subsets_checked == 65535 and len(calls) == 401
    # a segment keeps the Gray-code walk, which computes no energy from scratch
    rep = sweep_cube(7, 1, ExponentTarget.sharp(EnergyKind.HIGHER, 2))
    assert rep.subsets_checked == 255 and len(calls) == 401


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


def test_sweep_sampled_budget():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    # {0,1}^6 and {0..3}^3 hold MAX_SAMPLED_POINTS = 64 points; one more
    # axis or letter is refused
    for n, d in [(1, 6), (3, 3)]:
        assert sweep_cube(n, d, t, sample=2, seed=0).subsets_checked == 2
    for n, d in [(1, 7), (4, 3)]:
        with pytest.raises(BudgetExceeded, match="sampled sweep"):
            sweep_cube(n, d, t, sample=2, seed=0)


def test_sweep_sampled_deterministic():
    t = ExponentTarget.sharp(EnergyKind.ADDITIVE, 2)
    a = sweep_cube(1, 4, t, sample=200, seed=5, collect_rows=True)
    b = sweep_cube(1, 4, t, sample=200, seed=5, collect_rows=True)
    assert a.rows == b.rows
    assert a.mode == "sample" and a.subsets_checked == 200
    assert not a.violations
    c = sweep_cube(1, 4, t, sample=200, seed=6, collect_rows=True)
    assert c.rows != a.rows


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
    rep = witness_search_general_cube(2, 1, bar, threshold_log=(19, 3))
    assert [l.size for l in rep.levels] == [1, 3]
    assert rep.levels[1].energy == 19
    assert rep.best_ratio == pytest.approx(bar, abs=1e-15)
    # the full segment sits exactly on the bar, so nothing crosses
    assert not rep.crossed
    assert rep.undecided_levels == []


def test_witness_search_low_dimensions_do_not_cross():
    bar = math.log(19) / math.log(3)
    for d in (2, 3, 4):
        rep = witness_search_general_cube(2, d, bar, threshold_log=(19, 3))
        assert not rep.crossed, d
        assert rep.undecided_levels == []
        assert rep.best_ratio <= bar + 1e-12


def test_witness_search_level_records_are_exact():
    rep = witness_search_general_cube(2, 3, math.log(19) / math.log(3),
                                      threshold_log=(19, 3))
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
    rep = witness_search_general_cube(2, 6, math.log(19) / math.log(3),
                                      threshold_log=(19, 3))
    assert rep.levels[-1].size == 3 ** 6 and rep.levels[-1].energy == 19 ** 6


def test_witness_search_reaches_dimension_12():
    rep = witness_search_general_cube(2, 12, math.log(19) / math.log(3),
                                      max_points=3 ** 12, threshold_log=(19, 3))
    assert rep.best_level == 9
    assert rep.best_ratio == 2.6831306869738154
    assert rep.crossed
    assert rep.undecided_levels == []


def test_witness_search_budget_is_a_cube_size_limit():
    with pytest.raises(BudgetExceeded, match="cube with 243 points refused"):
        witness_search_general_cube(2, 5, 2.5, max_points=242)
    assert len(witness_search_general_cube(2, 5, 2.5, max_points=243).levels) == 6


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


def test_float_threshold_ties_do_not_cross():
    # log(2^5)/log(2^2) is 2.5 exactly, and log(19^3)/log(3^3) is the bar
    assert verify._crosses(2 ** 5, 2 ** 2, 2.5, None) is False
    assert verify._crosses(2 ** 5 + 1, 2 ** 2, 2.5, None) is True
    assert verify._crosses(2 ** 5 - 1, 2 ** 2, 2.5, None) is False
    assert verify._crosses(3 ** 6, 3 ** 3, 2.0, None) is False
    assert verify._crosses(1000, 10, 3.0, None) is False
    assert verify._crosses(1000, 10, 0.0, None) is True
    assert verify._crosses(1000, 10, -1.0, None) is True


def test_float_threshold_far_from_the_ratio_is_cheap():
    # a huge numerator or denominator rules a tie out without powering
    assert verify._crosses(4, 2, 1e300, None) is False
    assert verify._crosses(4, 2, 5e-324, None) is True


def test_float_threshold_left_undecided_at_the_cap(monkeypatch):
    monkeypatch.setattr(intervals, "PREC_START", 24)
    monkeypatch.setattr(intervals, "PREC_CAP", 24)
    assert verify._crosses(19, 3, BELOW_LOG3_19, None) is None
