"""Weighted energies, discrete extension bounds, and decompositions."""

import builtins
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from cubenergy import _fanout, extension
from cubenergy.extension import (
    DEProblem,
    comparison_check,
    critical_exponent_lower_bound,
    de_ratio,
    dyadic_decompose,
    lq_norm,
    optimize_de,
    restricted_enumeration,
    tensorization_check,
    three_point_condition_root,
    three_point_separation,
    tn_interval,
    weighted_energy,
)
from cubenergy.energy import (EnergyKind, additive_energy, brute_force_energy,
                              packed_power_energy)
from cubenergy.lattice import PointSet, WeightFn, pack_points

SEGMENT = PointSet.from_points([(0,), (1,)])
THREE = PointSet.from_points([(0,), (1,), (2,)])
CRITICAL_Q2 = 4 / math.log2(6)
Q_THREE = 4 / (math.log(19) / math.log(3))


def _exact_weight(rng, alphabet, allow_zero=True):
    pairs = []
    for p in alphabet.sorted_points():
        if allow_zero and rng.random() < 0.25:
            continue
        pairs.append((p, Fraction(rng.randint(1, 16), 16)))
    if not pairs:
        p = alphabet.sorted_points()[0]
        pairs.append((p, Fraction(1)))
    return WeightFn.from_pairs(pairs, dim=alphabet.dim)


def _brute_weighted_energy(f, k):
    pts = list(f.items())
    sums = {}
    for combo in product(pts, repeat=k):
        s = tuple(map(sum, zip(*(p for p, _ in combo))))
        w = 1
        for _, v in combo:
            w *= v
        sums[s] = sums.get(s, 0) + w
    return sum(v * v for v in sums.values())


# ---------------------------------------------------------------------------
# problem container


def test_problem_validation():
    with pytest.raises(ValueError):
        DEProblem(SEGMENT, 0, 1.0)
    with pytest.raises(ValueError):
        DEProblem(SEGMENT, 2, 0.0)
    with pytest.raises(ValueError):
        DEProblem(SEGMENT, 2, 4.5)          # q > 2k
    with pytest.raises(ValueError):
        DEProblem(PointSet(1, frozenset()), 2, 1.0)


def test_problem_p_and_from_p():
    prob = DEProblem(SEGMENT, 2, CRITICAL_Q2)
    assert prob.p == pytest.approx(math.log2(6), abs=1e-12)
    again = DEProblem.from_p(SEGMENT, 2, math.log2(6))
    assert again.q == pytest.approx(CRITICAL_Q2, abs=1e-12)


# ---------------------------------------------------------------------------
# weighted energy


def test_weighted_energy_indicator_matches_additive():
    rng = random.Random(73)
    for _ in range(12):
        dim = rng.randint(1, 2)
        pts = {tuple(rng.randint(0, 3) for _ in range(dim))
               for _ in range(rng.randint(1, 6))}
        a = PointSet.from_points(pts)
        f = WeightFn.from_pairs([(p, Fraction(1)) for p in a], dim=dim)
        for k in (2, 3):
            assert weighted_energy(f, k) == additive_energy(a, k).value


def test_weighted_energy_matches_tuple_oracle():
    rng = random.Random(79)
    for _ in range(8):
        alphabet = PointSet.cube(rng.randint(1, 2), 1)
        f = _exact_weight(rng, alphabet)
        for k in (2, 3):
            assert weighted_energy(f, k) == _brute_weighted_energy(f, k)


def test_weighted_energy_singleton_and_tensor():
    w = WeightFn.from_pairs([((3,), Fraction(2, 3))])
    assert weighted_energy(w, 2) == Fraction(2, 3) ** 4
    rng = random.Random(83)
    f = _exact_weight(rng, PointSet.cube(2, 1), allow_zero=False)
    g = _exact_weight(rng, PointSet.cube(1, 1), allow_zero=False)
    for k in (2, 3):
        assert weighted_energy(f.tensor(g), k) == \
            weighted_energy(f, k) * weighted_energy(g, k)


def test_weighted_energy_frozen_example():
    f = WeightFn.from_pairs([((0,), Fraction(1, 2)), ((1,), Fraction(1)),
                             ((2,), Fraction(1, 2))])
    assert weighted_energy(f, 2) == Fraction(35, 8)


def test_lq_norm_values():
    f = WeightFn.from_pairs([((0,), Fraction(1)), ((1,), Fraction(1))])
    assert lq_norm(f, 2.0) == pytest.approx(math.sqrt(2), abs=1e-14)
    assert lq_norm(f, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_lq_norm_adds_in_order_without_compensation():
    # compensated summation (sum() from Python 3.12 on) gives 1 + 2^-52;
    # adding left to right rounds each tiny term away
    f = WeightFn(1, {(0,): 1.0, (1,): 2.0 ** -53, (2,): 2.0 ** -53}, False)
    assert lq_norm(f, 1.0) == 1.0


# ---------------------------------------------------------------------------
# ratio functional


def test_de_ratio_singleton_is_one():
    prob = DEProblem(PointSet.from_points([(5,)]), 3, 2.0)
    f = WeightFn.from_pairs([((5,), 0.37)])
    assert de_ratio(f, prob) == pytest.approx(1.0, abs=1e-12)


def test_de_ratio_scale_invariant():
    rng = random.Random(89)
    prob = DEProblem(THREE, 2, Q_THREE)
    for _ in range(10):
        f = _exact_weight(rng, THREE, allow_zero=False)
        base = de_ratio(f, prob)
        c = rng.uniform(0.1, 10.0)
        assert de_ratio(f.scale(Fraction(c).limit_denominator(997)), prob) == \
            pytest.approx(base, rel=1e-11)


def test_de_ratio_frozen_peak_weight():
    f = WeightFn.from_pairs([((0,), Fraction(1, 2)), ((1,), Fraction(1)),
                             ((2,), Fraction(1, 2))])
    prob = DEProblem(THREE, 2, Q_THREE)
    assert de_ratio(f, prob) == pytest.approx(1.009230472282623, abs=1e-12)


def test_de_ratio_input_validation():
    prob = DEProblem(SEGMENT, 2, 2.0)
    with pytest.raises(ValueError):
        de_ratio(WeightFn.from_pairs([((7,), Fraction(1))]), prob)
    with pytest.raises(ValueError):
        de_ratio(WeightFn.from_pairs([((0, 0), Fraction(1))]), prob)


# ---------------------------------------------------------------------------
# restricted enumeration


def test_restricted_enumeration_recount():
    # independent recount over all nonempty subsets of a 6-letter alphabet
    alphabet = PointSet.cube(5, 1)
    prob = DEProblem(alphabet, 2, 2.0)
    ratio, witness, exhaustive = restricted_enumeration(prob)
    assert exhaustive
    pts = alphabet.sorted_points()
    best = 0.0
    for mask in range(1, 1 << len(pts)):
        sub = PointSet.from_points(p for i, p in enumerate(pts) if mask >> i & 1)
        e = additive_energy(sub, 2).value
        val = e ** 0.25 / len(sub) ** (1 / 2.0)
        best = max(best, val)
    assert ratio == pytest.approx(best, rel=1e-12)
    sub = PointSet.from_points(witness)
    e = additive_energy(sub, 2).value
    assert e ** 0.25 / len(sub) ** 0.5 == pytest.approx(ratio, rel=1e-12)


def test_restricted_enumeration_k3_scratch_path():
    alphabet = PointSet.cube(1, 2)
    prob = DEProblem(alphabet, 3, 1.5)
    ratio, witness, exhaustive = restricted_enumeration(prob)
    assert exhaustive and ratio >= 1.0
    sub = PointSet.from_points(witness)
    e = additive_energy(sub, 3).value
    assert e ** (1 / 6) / len(sub) ** (1 / 1.5) == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("alphabet, k, q", [
    (PointSet.cube(5, 1), 2, 2.0),
    (PointSet.cube(5, 1), 2, 1.5),
    (PointSet.cube(1, 2), 3, 1.5),
    (PointSet.cube(1, 2), 3, 3.0),
])
def test_restricted_witness_is_smallest_mask_maximiser(alphabet, k, q):
    # brute-force scan in mask order; a strict > keeps the smallest mask
    pts = alphabet.sorted_points()
    best = (-1.0, 0)
    for mask in range(1, 1 << len(pts)):
        sub = PointSet.from_points(p for i, p in enumerate(pts) if mask >> i & 1)
        e = brute_force_energy(sub, k, EnergyKind.ADDITIVE).value
        r = float(e) ** (1.0 / (2 * k)) / len(sub) ** (1.0 / q)
        if r > best[0]:
            best = (r, mask)
    ratio, witness, exhaustive = restricted_enumeration(DEProblem(alphabet, k, q))
    assert exhaustive
    assert ratio == best[0]
    assert witness == tuple(p for i, p in enumerate(pts) if best[1] >> i & 1)


def test_restricted_witness_does_not_depend_on_walk_order(monkeypatch):
    # replay the walk backwards; the smallest-mask maximiser must not move
    walk = extension.subset_energies
    # at q = 1 every singleton ties for the best ratio, 1
    probs = [DEProblem(PointSet.cube(5, 1), 2, 1.0),
             DEProblem(PointSet.cube(5, 1), 2, 2.0),
             DEProblem(PointSet.from_points([(0,), (1,), (3,), (7,), (8,)]), 3, 3.0),
             DEProblem(PointSet.cube(1, 3), 2, 4.0)]
    want = [restricted_enumeration(prob) for prob in probs]
    monkeypatch.setattr(extension, "subset_energies",
                        lambda *args: reversed(list(walk(*args))))
    assert [restricted_enumeration(prob) for prob in probs] == want


def test_restricted_enumeration_takes_every_mask_when_the_sample_covers_them(
        monkeypatch):
    # a sample of 2^m - 1 masks or more can only be every nonempty mask: it
    # is the exhaustive walk, not a draw that never finds a new mask
    alphabet = PointSet.cube(5, 1)
    want = restricted_enumeration(DEProblem(alphabet, 3, 1.5))
    assert want[2]
    monkeypatch.setattr(extension, "RESTRICTED_SCRATCH_MAX", 4)
    for count in (63, 100):
        assert restricted_enumeration(DEProblem(alphabet, 3, 1.5),
                                      sample_count=count) == want
    ratio, _, exhaustive = restricted_enumeration(DEProblem(alphabet, 3, 1.5),
                                                  sample_count=20)
    assert not exhaustive and 1.0 <= ratio <= want[0]
    rep = comparison_check(alphabet, 3, 1.5, sample_count=100, starts=1)
    assert rep.restricted_exhaustive
    assert rep.restricted_bound == want[0]


# ---------------------------------------------------------------------------
# optimizer


def test_optimize_segment_at_critical_exponent():
    prob = DEProblem(SEGMENT, 2, CRITICAL_Q2)
    est = optimize_de(prob, seed=0, starts=24)
    assert abs(est.lower_bound - 1.0) <= 1e-6
    assert est.lower_bound <= 1.0 + 1e-9
    assert est.restricted_exhaustive


def test_optimize_three_letters_beats_flat():
    prob = DEProblem(THREE, 2, Q_THREE)
    est = optimize_de(prob, seed=0, starts=24)
    assert est.lower_bound >= 1.0 + 1e-3
    w = dict(est.witness.items())
    peak = max(w.values())
    norm = {p: v / peak for p, v in w.items()}
    assert abs(norm[(0,)] - 0.5) < 0.15
    assert abs(norm[(2,)] - 0.5) < 0.15
    assert norm[(1,)] == pytest.approx(1.0, abs=1e-12)


def test_optimize_witness_is_sound():
    rng = random.Random(97)
    for seed in (1, 2):
        q = rng.uniform(1.0, 3.9)
        prob = DEProblem(THREE, 2, q)
        est = optimize_de(prob, seed=seed, starts=8)
        assert de_ratio(est.witness, prob) == pytest.approx(est.lower_bound, rel=1e-9)
        assert est.lower_bound >= est.restricted_lower_bound - 1e-12
        assert est.restricted_lower_bound >= 1.0 - 1e-12


def test_optimize_deterministic_per_seed():
    prob = DEProblem(THREE, 2, 2.0)
    a = optimize_de(prob, seed=3, starts=6)
    b = optimize_de(prob, seed=3, starts=6)
    assert a.lower_bound == b.lower_bound
    assert list(a.witness.items()) == list(b.witness.items())


def _dict_loop_ratio(keys, ws, k, q):
    # the optimizer's ratio as it was before the plan: the dict loop on the
    # positive support, its q-th powers added in order
    base = {key: w for key, w in zip(keys, ws) if w > 0}
    norm = 0.0
    for w in base.values():
        norm += w ** q
    return packed_power_energy(base, k) ** (1.0 / (2 * k)) / norm ** (1.0 / q)


@pytest.mark.parametrize("alphabet, k, q", [
    (SEGMENT, 2, CRITICAL_Q2),
    (THREE, 2, Q_THREE),
    (PointSet.cube(4, 1), 3, 1.7),
    (PointSet.cube(1, 3), 2, 2.0),
    (PointSet.from_points([(0,), (1,), (3,), (7,)]), 1, 0.9),
])
def test_ratio_function_matches_dict_loop(alphabet, k, q):
    pts = alphabet.sorted_points()
    keys = pack_points(pts, k)
    ratio_of = extension._ratio_function(keys, k, q)
    rng = random.Random(len(pts) * 10 + k)
    for _ in range(10):
        ws = [rng.uniform(0.05, 1.5) for _ in pts]
        value = ratio_of(ws)
        assert value == _dict_loop_ratio(keys, ws, k, q)
        assert value == de_ratio(
            WeightFn(alphabet.dim, dict(zip(pts, ws)), False),
            DEProblem(alphabet, k, q))


SLICE_ALPHABETS = {
    "segment5": PointSet.cube(4, 1),
    "cube3": PointSet.cube(1, 3),
    "square4": PointSet.cube(3, 2),
    "cube4": PointSet.cube(1, 4),
}


def _slice_weights(rng, m, i):
    # random weights, every other weight zero, and every weight but one
    # other than i zero
    other = (i + 1) % m
    yield [rng.uniform(0.05, 1.5) for _ in range(m)]
    yield [0.0 if b % 2 else rng.uniform(0.05, 1.5) for b in range(m)]
    yield [rng.uniform(0.05, 1.5) if b == other else 0.0 for b in range(m)]


@pytest.mark.parametrize("name", sorted(SLICE_ALPHABETS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_slices_match_the_ratio_bit_for_bit(name, k):
    # every weight's slice, on every line search, equals ratio_of with
    # ws[i] = t in every bit
    pts = SLICE_ALPHABETS[name].sorted_points()
    keys = pack_points(pts, k)
    ratio_of = extension._ratio_function(keys, k, 0.8 * k)
    rng = random.Random("slices-%s-%d" % (name, k))
    slices = extension._ratio_slices(ratio_of.energy_of, k, 0.8 * k)
    for i, line in enumerate(slices):
        for ws in _slice_weights(rng, len(keys), i):
            f = line(ws)
            ts = [0.0, 1.5, rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)]
            if not any(ws[:i] + ws[i + 1:]):
                ts.remove(0.0)      # the zero weight has no ratio
            for t in ts:
                trial = ws[:i] + [t] + ws[i + 1:]
                assert f(t).hex() == ratio_of(trial).hex(), (i, ws, t)
            assert f is line.f      # the one function compiled for weight i


def test_slice_multiply_adds_stay_within_the_plan():
    # each slice runs at most the plan's multiply-adds, and on these
    # alphabets the slices of all weights average at most 3/4 of them
    for alphabet in SLICE_ALPHABETS.values():
        for k in (1, 2, 3):
            energy_of = extension._ratio_function(
                pack_points(alphabet.sorted_points(), k), k, 1.5).energy_of
            plan = sum(map(len, energy_of.sums))
            work = [line.multiply_adds
                    for line in extension._ratio_slices(energy_of, k, 1.5)]
            assert 0 < min(work) and max(work) <= plan
            assert sum(work) <= 0.75 * len(work) * plan


def test_slices_arrive_compiled(monkeypatch):
    # _ratio_slices compiles every slice, so no line search compiles
    # anything, the first included; each slice's source holds only names
    # built from indices
    ratio_of = extension._ratio_function(
        pack_points(PointSet.cube(1, 3).sorted_points(), 2), 2, 2.0)
    slices = extension._ratio_slices(ratio_of.energy_of, 2, 2.0)

    def no_compile(*args, **kwargs):
        raise AssertionError("a line search compiled")
    monkeypatch.setattr(builtins, "compile", no_compile)
    rng = random.Random("arrive-compiled")
    for i, line in enumerate(slices):
        for _ in range(2):
            ws = [rng.uniform(0.05, 1.5) for _ in range(8)]
            t = rng.uniform(0.0, 1.5)
            assert line(ws)(t).hex() == \
                ratio_of(ws[:i] + [t] + ws[i + 1:]).hex(), (i, ws, t)
        code = line.f.__code__
        assert {name.rstrip("0123456789_") for name in
                code.co_names + code.co_varnames} <= {"w", "s", "c", "f", "p",
                                                      "q", "t", "u"}


def _estimates(monkeypatch, call):
    """call() and the to_dict() of each optimize_de estimate it made."""
    made = []
    run = extension.optimize_de

    def recording(*args, **kwargs):
        est = run(*args, **kwargs)
        made.append(est.to_dict())
        return est

    with monkeypatch.context() as patch:
        patch.setattr(extension, "optimize_de", recording)
        return call(), made


@pytest.mark.parametrize("call", [
    lambda: critical_exponent_lower_bound(
        PointSet.from_points([(0,), (1,), (3,)]), 2, tol=1e-3, starts=4),
    lambda: tensorization_check(SEGMENT, SEGMENT, 2, 2.0, starts=4).to_dict(),
], ids=["critical-exponent", "tensorization"])
def test_optimizer_callers_on_any_worker_count(monkeypatch, workers, call):
    # every bound, witness, sweep count and convergence flag is the serial
    # one; each estimate forks for its starts and for its restricted
    # enumeration's masks
    got, made = _estimates(monkeypatch, call)
    assert len(workers.forks) == 2 * (workers.count - 1) * len(made)
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 1)
    assert _estimates(monkeypatch, call) == (got, made)


def test_optimizer_forks_by_its_work_estimate(monkeypatch, forks):
    # two starts of {0,1}, or 24, are too little work to fork for; four
    # starts of {0,1}^3 are enough
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    optimize_de(DEProblem(SEGMENT, 2, 2.0), starts=2)
    optimize_de(DEProblem(SEGMENT, 2, CRITICAL_Q2), starts=24)
    assert forks == []
    optimize_de(DEProblem(PointSet.cube(1, 3), 2, 2.0), starts=4)
    assert len(forks) == 1


# ---------------------------------------------------------------------------
# three-letter separation bound


def test_three_point_root_and_margin():
    root = three_point_condition_root()
    assert abs(root - 2.566448) < 1e-5
    # root of w^4 - w^2 - 12 w - 6 inside [2, 2 sqrt 2]
    assert abs(root ** 4 - root ** 2 - 12 * root - 6) < 1e-5
    sep = three_point_separation()
    assert sep["bound"] == pytest.approx(2 * math.log2(root), abs=1e-9)
    assert sep["baseline"] == pytest.approx(math.log(19) / math.log(3), abs=1e-12)
    assert sep["margin"] > 0.035


def test_three_point_root_bracket_holds_exactly():
    # the root lies within tol/2 of the returned bisection midpoint
    tol = 1e-15
    root = Fraction(three_point_condition_root(tol))

    def g(w):
        return w ** 4 - w ** 2 - 12 * w - 6

    assert g(root - Fraction(tol) / 2) < 0 < g(root + Fraction(tol) / 2)


def test_critical_exponent_lower_bounds():
    assert critical_exponent_lower_bound(
        PointSet.from_points([(9,)]), 2) == pytest.approx(1.0)
    b2 = critical_exponent_lower_bound(SEGMENT, 2, tol=1e-6, starts=6)
    assert abs(b2 - math.log2(6)) < 1e-5
    b3 = critical_exponent_lower_bound(THREE, 2)
    assert b3 == pytest.approx(2.719546, abs=1e-4)
    sidon = PointSet.from_points([(0,), (1,), (3,)])
    b_sidon = critical_exponent_lower_bound(sidon, 2, tol=1e-4, starts=4)
    assert abs(b_sidon - math.log2(6)) < 1e-3


# ---------------------------------------------------------------------------
# segment growth exponents


def test_tn_interval_values():
    lo1, hi1 = tn_interval(1)
    assert lo1 == pytest.approx(math.log2(6), abs=1e-12) and hi1 == 3.0
    lo2, hi2 = tn_interval(2)
    assert lo2 == pytest.approx(math.log(19) / math.log(3), abs=1e-12)
    lo3, _ = tn_interval(3)
    assert lo3 == pytest.approx(math.log(44) / math.log(4), abs=1e-12)


def test_tn_interval_monotone_and_bounded():
    prev = 0.0
    for n in range(1, 25):
        lo, hi = tn_interval(n)
        assert hi == 3.0 and lo <= 3.0
        assert lo >= prev - 1e-12
        m = (n + 1) // 2
        if m >= 1 and 2 * m >= 2:
            assert lo > 3 - math.log(1.5) / math.log(2 * m) - 1e-12
        prev = lo


# ---------------------------------------------------------------------------
# tensorization


def test_tensorization_segment_pair():
    rep = tensorization_check(SEGMENT, SEGMENT, 2, CRITICAL_Q2, 1e-3,
                              seed=0, starts=8)
    assert rep.ok
    assert rep.a_best == pytest.approx(1.0, abs=1e-6)
    assert rep.tensor_ratio == pytest.approx(rep.a_best * rep.b_best, rel=1e-9)
    assert rep.tensor_direction_certified


def test_tensorization_three_by_three():
    rep = tensorization_check(THREE, THREE, 2, Q_THREE, 1e-3, seed=4, starts=6)
    assert rep.ok
    assert rep.product_best >= rep.tensor_ratio - 1e-12
    assert rep.defect <= 1e-3


# ---------------------------------------------------------------------------
# dyadic decomposition


def test_dyadic_two_point_example():
    f = WeightFn.from_pairs([((0,), Fraction(1)), ((1,), Fraction(3, 4))])
    dec = dyadic_decompose(f)
    assert dec.ok
    assert len(dec.levels) == 1
    scale, g = dec.levels[0]
    assert scale == 1 and set(v for _, v in g.items()) == {Fraction(1)}
    assert dict(dec.remainder.items() if hasattr(dec.remainder, "items")
                else dec.remainder) or True
    assert dec.reconstruct() == {(0,): Fraction(1), (1,): Fraction(3, 4)}


def test_dyadic_random_rational_weights():
    rng = random.Random(101)
    for _ in range(25):
        size = rng.randint(1, 16)
        pts = [(i,) for i in range(size)]
        f = WeightFn.from_pairs(
            [(p, Fraction(rng.randint(1, 64), 64)) for p in pts])
        dec = dyadic_decompose(f)
        rep = dec.check()
        assert all(rep.values()), rep
        assert len(dec.levels) <= max(0, (size - 1)).bit_length() or size == 1


def test_dyadic_float_input_is_exact():
    rng = random.Random(103)
    f = WeightFn.from_pairs([((i,), rng.random()) for i in range(8)])
    dec = dyadic_decompose(f)
    assert dec.check()["exact_reconstruction"]


def test_dyadic_rejects_values_above_one():
    f = WeightFn.from_pairs([((0,), Fraction(3, 2))])
    with pytest.raises(ValueError):
        dyadic_decompose(f)


# ---------------------------------------------------------------------------
# restricted-vs-continuous comparison


def test_comparison_segment_critical():
    prob = DEProblem(SEGMENT, 2, CRITICAL_Q2)
    rep = comparison_check(SEGMENT, 2, CRITICAL_Q2, sample_count=256, seed=0,
                           starts=8)
    assert rep.holds_lower and rep.holds_upper
    assert rep.restricted_bound == pytest.approx(1.0, abs=1e-9)
    assert rep.constant == pytest.approx(2 + math.log(2), abs=1e-12)
    assert prob.p == pytest.approx(math.log2(6), abs=1e-12)


def test_comparison_small_alphabet():
    alphabet = PointSet.cube(3, 1)
    rep = comparison_check(alphabet, 2, 2.0, sample_count=512, seed=1, starts=8)
    assert rep.holds_lower and rep.holds_upper
    assert rep.restricted_bound <= rep.continuous_bound + 1e-9
    assert rep.continuous_bound <= rep.constant * rep.restricted_bound + 1e-9


# ---------------------------------------------------------------------------
# restricted bounds encode the subset-energy inequality


def test_restricted_bound_tracks_energy_inequality():
    # for the three-letter segment: a subset witness beats the bar at
    # exponent p exactly when its restricted ratio exceeds one at q = 4/p
    pts = THREE.sorted_points()
    for p in (2.5, 2.72):
        prob = DEProblem.from_p(THREE, 2, p)
        ratio, _, exhaustive = restricted_enumeration(prob)
        assert exhaustive
        any_violation = False
        for mask in range(1, 8):
            sub = PointSet.from_points(q for i, q in enumerate(pts)
                                       if mask >> i & 1)
            if additive_energy(sub, 2).value > len(sub) ** p * (1 + 1e-12):
                any_violation = True
        assert any_violation == (ratio > 1 + 1e-9), p
