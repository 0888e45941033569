"""Sign certification, Legendre-type polynomials, and certified grid checks."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import iv
from mpmath.libmp import fzero, libmpi

from cubenergy import _fanout, intervals, legendre
from cubenergy.cli import dumps_canonical
from cubenergy.errors import PrecisionExhausted
from cubenergy.intervals import Interval
from cubenergy.legendre import (
    ExactAlpha,
    GridCheckReport,
    _classify_second_differences,
    _grid_checks,
    certify_psi_shape,
    certify_sign_pattern,
    check_cfil_instance,
    check_convex_concave,
    check_goal_inequality,
    check_higher_energy_inequalities,
    check_key_inequality,
    check_legendre_inequality,
    check_pk_bound,
    check_two_point_inequality,
    coefficient_forms,
    compare_alpha,
    curve_data,
    legendre_q,
    log_grid,
    numerator_positive_at_one,
    psi_at_one_exact,
    sign_of_coefficient,
    sign_table,
    unit_grid,
    weight_balance_identity,
)


@pytest.fixture
def one_rung_ladder(monkeypatch):
    """Cut the precision ladder down to a single 24-bit level."""
    monkeypatch.setattr(intervals, "PREC_START", 24)
    monkeypatch.setattr(intervals, "PREC_CAP", 24)


# ---------------------------------------------------------------------------
# exact comparisons against alpha = k / log2 C(2k, k)


def test_exact_alpha_values():
    a = ExactAlpha.for_k(2)
    assert a.k == 2 and a.central == 6
    assert abs(a.float_value() - 2 / math.log2(6)) < 1e-15


def test_compare_alpha_frozen():
    a = ExactAlpha.for_k(2)
    assert compare_alpha(a, 1, 1) == "<"
    assert compare_alpha(a, 3, 4) == ">"
    assert compare_alpha(a, 7, 9) == "<"
    assert compare_alpha(a, 0, 5) == ">"
    assert compare_alpha(a, -1, 2) == ">"
    # negative denominators are normalized
    assert compare_alpha(a, -3, -4) == ">"


def test_compare_alpha_agrees_with_floats_when_far():
    rng = random.Random(61)
    for k in (2, 3, 5, 8):
        a = ExactAlpha.for_k(k)
        af = a.float_value()
        for _ in range(60):
            num = rng.randint(-50, 200)
            den = rng.randint(1, 120)
            frac = num / den
            if abs(frac - af) < 1e-6:
                continue
            want = "<" if af < frac else ">"
            assert compare_alpha(a, num, den) == want, (k, num, den)


def test_compare_alpha_is_monotone_consistent():
    a = ExactAlpha.for_k(3)
    rng = random.Random(67)
    pairs = sorted({(rng.randint(1, 300), rng.randint(1, 300)) for _ in range(40)},
                   key=lambda nd: Fraction(nd[0], nd[1]))
    results = [compare_alpha(a, n, d) for n, d in pairs]
    # once alpha drops below the fraction it stays below all larger ones
    seen_less = False
    for r in results:
        if r == "<":
            seen_less = True
        else:
            assert not seen_less


def test_compare_alpha_decides_tight_convergents(one_rung_ladder):
    # convergents with denominators near 10^6 sit about 1e-13 from alpha:
    # the one 24-bit rung cannot separate them, so the exact integer
    # comparison 2^(k*den) vs M^num decides while it fits EXACT_BITS_CAP
    def convergent(k):
        a = ExactAlpha.for_k(k)
        af = Fraction(a.float_value()).limit_denominator(10 ** 6)
        return a, af.numerator, af.denominator

    for k in (2, 3):
        a, num, den = convergent(k)
        with pytest.raises(PrecisionExhausted):
            intervals.decide_le(a.interval, lambda: iv.mpf(num) / iv.mpf(den))
        want = "<" if 2 ** (k * den) < a.central ** num else ">"
        assert compare_alpha(a, num, den) == want
    # at k = 4, 2^(4*970621) is past the budget: neither path decides
    a, num, den = convergent(4)
    assert 4 * den > legendre.EXACT_BITS_CAP
    with pytest.raises(PrecisionExhausted):
        compare_alpha(a, num, den)


def test_compare_alpha_beyond_the_exact_budget():
    # 2^(60 * 3*10^6) is past EXACT_BITS_CAP, so only the ladder can decide;
    # alpha is about 0.55 against 3.33
    assert compare_alpha(ExactAlpha.for_k(60), 10 ** 7 + 1, 3 * 10 ** 6) == "<"


# ---------------------------------------------------------------------------
# coefficient linear forms


def test_coefficient_forms_k2_frozen():
    forms = coefficient_forms(2)
    assert [(f.alpha_coeff, f.const_coeff) for f in forms] == \
        [(0, 0), (8, -8), (20, -8), (8, -8), (0, 0)]


def test_forms_palindromic_and_endpoints_vanish():
    for k in range(2, 26):
        forms = coefficient_forms(k)
        assert len(forms) == 2 * k + 1
        assert forms[0].alpha_coeff == forms[0].const_coeff == 0
        assert forms[-1].alpha_coeff == forms[-1].const_coeff == 0
        for i in range(2 * k + 1):
            mate = forms[2 * k - i]
            assert (forms[i].alpha_coeff, forms[i].const_coeff) == \
                (mate.alpha_coeff, mate.const_coeff)


def test_weight_balance_identity():
    for k in range(2, 41):
        assert weight_balance_identity(k)
        w = [math.comb(k, i) ** 2 for i in range(k + 1)]
        assert sum(v * (k - i) for i, v in enumerate(w)) == \
            sum(v * i for i, v in enumerate(w))


def test_numerator_positive_at_one():
    for k in range(2, 21):
        assert numerator_positive_at_one(k)


def test_sign_of_coefficient_matches_float_evaluation():
    for k in range(2, 13):
        a = ExactAlpha.for_k(k).float_value()
        for i in range(1, 2 * k):
            form = coefficient_forms(k)[i]
            val = form.alpha_coeff * a + form.const_coeff
            assert abs(val) > 1e-6, "grid too close to a sign change"
            assert sign_of_coefficient(k, i) == (1 if val > 0 else -1)


def test_sign_pattern_frozen_table():
    # interior signs of the first half, certified exactly
    want_neg_prefix = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 3, 10: 3}
    for cert in sign_table(2, 10):
        prefix = 0
        for s in cert.signs:
            if s < 0:
                prefix += 1
            else:
                break
        assert prefix == want_neg_prefix[cert.k]
        assert all(s > 0 for s in cert.signs[prefix:])
        assert cert.sign_changes == 1
        assert cert.certified


def test_sign_pattern_certified_through_k30():
    for k in range(2, 31):
        cert = certify_sign_pattern(k)
        assert cert.at_most_one_change
        assert cert.palindromic and cert.endpoints_vanish
        assert cert.balance_identity and cert.value_at_one_positive
        assert cert.certified


def test_binomial_midpoint_bound():
    rep = check_pk_bound(200)
    assert rep["ok"] and rep["failures"] == []
    with pytest.raises(ValueError):
        check_pk_bound(1)


# ---------------------------------------------------------------------------
# Legendre-type polynomial values


def test_legendre_q_classical_values():
    assert legendre_q(2, 1) == 1
    assert legendre_q(4, 1) == 1
    assert legendre_q(2, Fraction(1, 2)) == Fraction(-1, 8)
    assert legendre_q(3, 2) == 17
    for k in range(2, 15):
        assert legendre_q(k, 1) == 1
        assert legendre_q(k, -1) == (-1) ** k


def test_legendre_q_three_term_recurrence():
    # (j+1) Q_{j+1}(t) = (2j+1) t Q_j(t) - j Q_{j-1}(t), exact in rationals
    rng = random.Random(71)
    for _ in range(10):
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        for j in range(1, 6):
            lhs = (j + 1) * legendre_q(j + 1, t)
            rhs = (2 * j + 1) * t * legendre_q(j, t) - j * legendre_q(j - 1, t)
            assert lhs == rhs


def test_psi_normalization_is_exactly_one():
    for k in range(2, 31):
        assert psi_at_one_exact(k) == 1


# ---------------------------------------------------------------------------
# certified grid checks


def test_legendre_grid_check():
    for k in (2, 3):
        rep = check_legendre_inequality(k, points=80)
        assert rep.ok and not rep.failures and not rep.undecided
        assert 1.0 in rep.equalities
        assert rep.min_margin > 0


def test_key_grid_check():
    rep = check_key_inequality(2, points=80)
    assert rep.ok
    assert 0.0 in rep.equalities and 1.0 in rep.equalities


def test_goal_grid_check():
    rep = check_goal_inequality(3, grid=None, points=80)
    assert rep.ok
    for x in (0.0, 0.5, 1.0):
        assert x in rep.equalities


def test_two_point_grid_check():
    rep = check_two_point_inequality(3, points=80)
    assert rep.ok
    assert 0.0 in rep.equalities and 1.0 in rep.equalities


def test_convex_concave_grid_check():
    rep = check_convex_concave(3, points=60)
    assert rep.ok
    assert 0.0 in rep.equalities and 1.0 in rep.equalities
    assert rep.shape_flags.get("lhs_convex") and rep.shape_flags.get("rhs_concave")


@pytest.mark.parametrize("points", [1, 2])
def test_convex_concave_needs_an_interior_point(points):
    # the shape flags are closed forms, not second differences on the grid
    # of `points` points, so a given zs takes any count
    rep = check_convex_concave(3, zs=[0.25], points=points)
    assert dumps_canonical(rep.to_dict()) == \
        dumps_canonical(check_convex_concave(3, zs=[0.25]).to_dict())
    assert rep.ok and rep.points == 1
    assert rep.shape_flags == {"lhs_convex": True, "rhs_concave": True}


def _refuses_k_before_any_work(check, k, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("grid, ladder or kernel work ran")

    for name in ("_grid_checks", "_settle", "_classify_second_differences"):
        monkeypatch.setattr(legendre, name, no_work)
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        check(k)


@pytest.mark.parametrize("check", [
    check_goal_inequality,
    check_two_point_inequality,
    check_cfil_instance,
    check_convex_concave,
    check_higher_energy_inequalities,
])
@pytest.mark.parametrize("k", [0, -1])
def test_higher_energy_checks_refuse_k_below_one(check, k, monkeypatch):
    _refuses_k_before_any_work(check, k, monkeypatch)


@pytest.mark.parametrize("check, k", [
    (check, 1) for check in (
        check_legendre_inequality, check_key_inequality,
        check_goal_inequality, check_two_point_inequality,
        check_cfil_instance, check_convex_concave,
        check_higher_energy_inequalities, certify_psi_shape)
] + [
    # the higher-energy checks below k = 1 are the test above's
    (check, k) for check in (check_legendre_inequality, check_key_inequality,
                             certify_psi_shape) for k in (0, -1)
])
def test_grid_checks_refuse_k_below_two(check, k, monkeypatch):
    # the bounds are proven for k >= 2, the domain of every energy, target
    # and sign certificate; at k = 1 each inequality is an identity, where a
    # grid could report nothing but undecided points
    _refuses_k_before_any_work(check, k, monkeypatch)


def test_higher_energy_inequality_bundle():
    for k in (2, 4):
        reports = check_higher_energy_inequalities(k, points=60)
        assert set(reports) == {"two_point", "goal", "cfil", "convex_concave"}
        for name, rep in reports.items():
            assert rep.ok, (k, name)


def test_near_equality_point_needs_the_ladder(one_rung_ladder, monkeypatch):
    near = 0.5 + 2 ** -40        # the gap to the equality is about 2^-80
    rep = check_goal_inequality(3, grid=[0.25, 0.5, near])
    assert rep.undecided == [near] and rep.equalities == [0.5]
    assert not rep.failures and rep.min_margin > 0 and not rep.ok
    monkeypatch.undo()
    rep = check_goal_inequality(3, grid=[near])
    assert rep.ok and 0 < rep.min_margin < 1e-20


def test_second_differences_reject_a_certified_wrong_sign():
    xs = [j / 8 for j in range(9)]
    interior = list(range(1, 8))

    def square(x):
        return iv.mpf(x) ** 2

    def negated(x):
        return -square(x)

    assert _classify_second_differences(xs, lambda: square) == \
        ([], interior, [])
    assert _classify_second_differences(xs, lambda: negated) == \
        (interior, [], [])


@pytest.fixture
def rungs(monkeypatch):
    """The precision of every entry into the interval ladder, in order."""
    seen = []

    class Counting(intervals.workprec):
        def __enter__(self):
            seen.append(self.prec)
            return super().__enter__()

    monkeypatch.setattr(intervals, "workprec", Counting)
    return seen


@pytest.fixture
def one_worker(monkeypatch):
    """Run every fan-out in this process, where a monkeypatched counter sees
    the calls it makes; calls made in a forked worker are not seen."""
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 1)


def test_only_large_grids_fork(monkeypatch, forks):
    # a 200-point key grid is too little work to fork for on two CPUs; a
    # 1000-point one, the size the certified-grids benchmark checks, forks
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    assert check_key_inequality(2, points=200).ok
    assert forks == []
    assert check_key_inequality(2, points=1000).ok
    assert len(forks) == 1


def test_grid_and_shape_checks_climb_one_ladder(rungs):
    assert check_key_inequality(2, points=80).ok
    assert rungs == [64]
    rungs.clear()
    assert certify_psi_shape(3, samples=64).concave_certified
    assert rungs == [64]


def test_key_grid_takes_two_logarithms_per_point(rungs, one_worker,
                                                  monkeypatch):
    # one log of x for all k powers x^(ip/k), one of 1 + x for (1 + x)^p;
    # a power per ** would take k + 1 = 11 per point
    logs = []
    mpi_log = libmpi.mpi_log

    def counting(s, prec):
        logs.append(prec)
        return mpi_log(s, prec)

    monkeypatch.setattr(libmpi, "mpi_log", counting)
    rep = check_key_inequality(10, points=50)
    assert rep.ok and rep.points == 50 and len(rep.equalities) == 2
    assert rungs == [64]
    assert len(logs) == 2 * (rep.points - len(rep.equalities)) * len(rungs)


def test_grid_check_matches_a_per_point_ladder(rungs):
    # lhs = x against rhs = x + (x - 6)^31: at x = 6 +- 2^-j the gap is
    # +-2^-31j, and the enclosures separate once the precision holds it, so
    # the points settle on the rungs 64 ... 2048; at x = 6 the two sides
    # are equal and stay undecided to the cap.  A failure from a later rung
    # comes first in the grid, and the smallest margin comes last.
    xs = [0.0, 6 - 2 ** -20, 6 - 2 ** -1, 7.0, 6 + 2 ** -2, 6 + 2 ** -6,
          6.0, 6 + 2 ** -10, 9.0, 6 + 2 ** -33]
    exact = {0.0: True, 7.0: False}

    def sides():
        return (lambda x: x), (lambda x: x + (x - 6) ** 31)

    [rep] = _grid_checks(xs, 0.0, 9.0, [("synthetic", 2, exact, sides)])
    assert rungs == _ladder()
    want = _per_point_report("synthetic", 2, xs, exact, sides)
    assert [f["x"] for f in rep.failures] == [6 - 2 ** -20, 5.5, 7.0]
    assert rep.undecided == [6.0] and rep.equalities == [0.0]
    assert 0 < rep.min_margin < 1e-300
    assert dumps_canonical(rep.to_dict()) == dumps_canonical(want.to_dict())


def _per_point_report(name, k, xs, exact, sides):
    """The report of one ladder per point: decide_le on the Interval path,
    with sides() built again at each rung."""
    want = GridCheckReport(name, k, len(xs))
    for x in xs:
        if x in exact:
            if exact[x]:
                want.equalities.append(x)
            else:
                want.failures.append({"x": x, "excess": float("nan")})
            continue
        try:
            holds, gap = intervals.decide_le(
                lambda: sides()[0](Interval(x)),
                lambda: sides()[1](Interval(x)))
        except PrecisionExhausted:
            want.undecided.append(x)
            continue
        if not holds:
            want.failures.append({"x": x, "excess": gap})
        elif want.min_margin is None or gap < want.min_margin:
            want.min_margin = gap
    return want


def _ladder():
    """The rungs of the precision ladder, in order."""
    return [intervals.PREC_START << n for n in
            range((intervals.PREC_CAP // intervals.PREC_START).bit_length())]


def test_key_grid_builds_no_mpmath_interval_per_point(one_worker, monkeypatch):
    # every per-point interval is an intervals.Interval, made without
    # mpmath's make_mpf; only per-level constants may go through it
    made = []
    make_mpf = type(iv).make_mpf

    def counting(ctx, v):
        made.append(v)
        return make_mpf(ctx, v)

    monkeypatch.setattr(type(iv), "make_mpf", counting)
    counts = []
    for points in (50, 100):
        made.clear()
        assert check_key_inequality(10, points=points).ok
        counts.append(len(made))
    assert counts[0] == counts[1]


@pytest.fixture
def point_logs(monkeypatch):
    """The precision of every per-point interval logarithm, in order."""
    logs = []
    mpi_log = libmpi.mpi_log

    def counting(s, prec):
        logs.append(prec)
        return mpi_log(s, prec)

    monkeypatch.setattr(libmpi, "mpi_log", counting)
    return logs


def test_convex_concave_encloses_each_side_once_per_point(rungs, one_worker,
                                                          point_logs):
    # one log per side and point, on the grid's one ladder: the shape flags
    # enclose nothing
    rep = check_convex_concave(3, points=100)
    assert rep.ok and rep.points == 107 and len(rep.equalities) == 2
    assert rungs == [64]
    assert len(point_logs) == 2 * (rep.points - 2) == 210


def _oracle_sides(k):
    q = intervals.log2_interval(2 ** k + 2)
    q2, qk = q / 2, q - k
    scale, one = Interval(2 ** (k - 1)), Interval(1)
    return (lambda z: one + intervals.ipow(z, q2) / scale,
            lambda z: intervals.ipow(one + z, qk))


def _shape_flags_by_second_differences(k, points):
    """The shape flags certified from the interval second differences of
    each side on the uniform grid of `points` points over [0, 1]."""
    uniform = [j / (points - 1) for j in range(points)]

    def certified(side, expect_positive):
        negative, positive, undecided = _classify_second_differences(
            uniform, lambda: _oracle_sides(k)[side])
        return not (negative if expect_positive else positive) \
            and not undecided

    return {"lhs_convex": certified(0, expect_positive=True),
            "rhs_concave": certified(1, expect_positive=False)}


def _convex_concave_unshared(k, zs, points):
    """check_convex_concave built from parts: its own grid check, and the
    shape flags from second differences on the uniform grid."""
    half = Fraction(2 ** k + 2, 2 ** k)
    report = _grid_checks(zs, 0.0, 1.0, [
        ("convex_concave", k,
         {0.0: True, 1.0: 1 + Fraction(1, 2 ** (k - 1)) == half},
         lambda: _oracle_sides(k))])[0]
    report.shape_flags.update(_shape_flags_by_second_differences(k, points))
    return report


def test_shared_enclosures_match_an_unshared_oracle(rungs, monkeypatch):
    # on a 12 -> 24 bit ladder the grid climbs two rungs and the shape flags
    # none; the 1/32 grid is exact at 12 bits, so a point's interval is the
    # same on both rungs, and the report matches the oracle's, whose flags
    # come from second differences
    monkeypatch.setattr(intervals, "PREC_START", 12)
    monkeypatch.setattr(intervals, "PREC_CAP", 24)
    got = check_convex_concave(3, points=33)
    assert rungs == [12, 24]
    want = _convex_concave_unshared(3, unit_grid(33), 33)
    assert dumps_canonical(got.to_dict()) == dumps_canonical(want.to_dict())
    assert got.undecided and got.min_margin > 0
    assert got.shape_flags == {"lhs_convex": True, "rhs_concave": True}


@pytest.mark.parametrize("points", [3, 33, 200])
def test_shape_flags_match_second_differences(points, monkeypatch):
    # the closed-form signs of f'' against the interval second differences
    # on the uniform grid, whose first rung must already settle every sign
    monkeypatch.setattr(intervals, "PREC_CAP", intervals.PREC_START)
    for k in range(2, 13):
        got = check_convex_concave(k, zs=[0.5], points=points).shape_flags
        assert got == _shape_flags_by_second_differences(k, points), k
        assert got == {"lhs_convex": True, "rhs_concave": True}, k


# frozen while the shape flags came from second differences on a uniform
# grid of their own, which has no interior point in common with these zs
CONVEX_CONCAVE_ZS = [0.25, 0.3]
CONVEX_CONCAVE_ZS_DIGEST = \
    "c6af5c38d1aeefd33ee822b285ef3f7663762884ae6b13b26cbdcd62fa7fcf3a"


def _digest(report):
    return hashlib.sha256(dumps_canonical(report).encode()).hexdigest()


def test_convex_concave_on_given_zs_keeps_its_report():
    rep = check_convex_concave(3, zs=CONVEX_CONCAVE_ZS)
    assert _digest(rep.to_dict()) == CONVEX_CONCAVE_ZS_DIGEST


# frozen output: SHA-256 of the canonical JSON of each report, with failures,
# undecided points and equalities in grid order and every point decided on
# the first precision level whose enclosures separate
GRID_REPORT_DIGESTS = {
    ("legendre", 2): "9cffb8f50906acea1d8fab7a702e1ad88572d9e8be8afb13172f985ecafa6c47",
    ("key", 2): "8a15d64b655bf0577a0204fc58ebb69e3007b3522bef18c9e7467d127a1ecda8",
    ("goal", 2): "064a2a5ba274d2101f62488318280f46ee2e5f252d1dc291371b435df9534471",
    ("two_point", 2): "01c91b57410a4d2e6908685f3a921ef23af13894e11d2d5908f44dfa16ea36ba",
    ("cfil", 2): "80215b85e209905a491512702ba56a682c4f4e2f010fd1bc0fec34f3c83c2e4f",
    ("convex_concave", 2): "938fb867117b3c1bdffa193bc805d0e2a1852c306095dc9d976a05ab656c7484",
    ("legendre", 6): "74864981b687740e8f93bab1af4f3e559c5382d29cdc981ab34b315f549c021d",
    ("key", 6): "34ea77e622e0ee557176832cae6ab2ec2416e63855a83a7a9ad6603724f44cda",
    ("goal", 6): "d21e10967e500b19d73f0bfa63a4b479d1e35e6287403745114b5362bd0dc368",
    ("two_point", 6): "8954ed588ea2217710fd771db2857ef1fb75b76c0f98b19f37dc8c4d806a34d1",
    ("cfil", 6): "17eeb66cab4ac4d55a97324e00c5026abcd10ab773ebe74b069884bc97a287de",
    ("convex_concave", 6): "2de9304a285061b7b638c3eb3bbd2973a1681cb0a976bcf7cf8e5f788f33c546",
    ("legendre", 10): "97ba432c1f4b0fc5fdb5fa0754e30453141fe9a51f9a78da9ac45a6e83ccc435",
    ("key", 10): "65eefd53caaf7407f4cb4b2057ae3ef5b09ae3e9c4fc8b15d71eca656f4a4016",
    ("goal", 10): "c566a289e00698b3792d525def2ede65d9557fbe7f6f3839ab4007b4b1b66dc0",
    ("two_point", 10): "aeac1f70d300e8856761a8b5d764e859747ef7b087093717cfa02c827ea88e34",
    ("cfil", 10): "c01f91f60e2142a454e88ea0f479481faa0a18f4cde06d8e4356710155f4db6f",
    ("convex_concave", 10): "b167dcdad1e9390f4d2e023dbf75cf19027e52a9fba7170658850f50bc701635",
    ("psi", 3): "08ba0aaf1a494218dfc3ef0aeba5fc33dc5088a4e1fb870a074012ddc66352ce",
    ("psi", 7): "6ce9a4280aa7aad687e4faa00aa88553bacb0928086524b6028502eb96087c11",
}
GRID_CHECKS = {
    "legendre": check_legendre_inequality,
    "key": check_key_inequality,
    "goal": check_goal_inequality,
    "two_point": check_two_point_inequality,
    "cfil": check_cfil_instance,
    "convex_concave": check_convex_concave,
}


def _grid_report_digests():
    got = {}
    for k in (2, 6, 10):
        for name, check in GRID_CHECKS.items():
            got[name, k] = check(k, points=200).to_dict()
    for k in (3, 7):
        got["psi", k] = certify_psi_shape(k, samples=128).to_dict()
    return {key: _digest(rep) for key, rep in got.items()}


def test_grid_reports_golden_bytes():
    assert _grid_report_digests() == GRID_REPORT_DIGESTS


def test_grid_reports_golden_bytes_on_any_worker_count(workers):
    # the reports are merged in grid order, and a point's verdict depends
    # only on the point and the rung, so forking changes no byte
    assert _grid_report_digests() == GRID_REPORT_DIGESTS
    rep = check_convex_concave(3, zs=CONVEX_CONCAVE_ZS)
    assert _digest(rep.to_dict()) == CONVEX_CONCAVE_ZS_DIGEST
    assert bool(workers.forks) == (workers.count > 1)


def test_shape_flags_classify_no_second_differences(workers, monkeypatch):
    # the flags come from the closed form, on the default zs and off them
    def no_work(*args, **kwargs):
        raise AssertionError("second differences classified")

    monkeypatch.setattr(legendre, "_classify_second_differences", no_work)
    for zs in (None, [(j + 0.5) / 199 for j in range(199)]):
        rep = check_convex_concave(3, zs=zs, points=200)
        assert rep.ok
        assert rep.shape_flags == {"lhs_convex": True, "rhs_concave": True}


@pytest.mark.parametrize("check, points, count", [
    (check_goal_inequality, 1, 1),
    (check_cfil_instance, 1, 1),
    (check_legendre_inequality, 2, 1),
    (check_key_inequality, 3, 1),
    (check_two_point_inequality, 3, 1),
    (check_convex_concave, 1, 1),
])
def test_grid_builders_name_a_bad_count(check, points, count):
    with pytest.raises(ValueError, match="count >= 2, got %d" % count):
        check(3, points=points)


def test_log_grid_validation():
    with pytest.raises(ValueError, match="0 < lo < hi"):
        log_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        log_grid(1.0, 2.0, 1)
    assert unit_grid(2)[0] == 0.0 and unit_grid(2)[-1] == 1.0
    g = log_grid(1e-3, 1e3, 7)
    assert len(g) == 7 and g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e3)


def test_legendre_grid_rejects_bad_domain():
    with pytest.raises(ValueError):
        check_legendre_inequality(2, ts=[0.5])


# ---------------------------------------------------------------------------
# curve extraction and shape certification


def test_curve_data_endpoints():
    phi = dict(curve_data("phi", 3, 65))
    assert phi[0.0] == pytest.approx(1.0, abs=1e-12)
    assert phi[1.0] == pytest.approx(1.0, abs=1e-12)
    psi = dict(curve_data("psi", 3, 65))
    assert psi[0.0] == pytest.approx(0.0, abs=1e-12)
    assert psi[1.0] == pytest.approx(1.0, abs=1e-9)


def test_curve_data_goal_stays_below_one():
    for k in (2, 4, 8):
        rows = curve_data("goal", k, 129)
        assert max(y for _, y in rows) <= 1.0 + 1e-12


def test_curve_data_rejects_unknown():
    with pytest.raises(ValueError):
        curve_data("nope", 3, 16)


@pytest.mark.parametrize("which", ["phi", "psi", "goal"])
def test_curve_data_refuses_k_below_one(which):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            curve_data(which, k, 16)
    # at k = 1 each curve is the constant 1, sampled without rounding
    rows = curve_data(which, 1, 65)
    assert rows == [(j / 64, 1.0) for j in range(65)]


def test_psi_shape_certification():
    rep3 = certify_psi_shape(3, samples=128)
    assert rep3.concave_certified
    assert rep3.negative == 126 and not rep3.undecided_indices

    rep7 = certify_psi_shape(7, samples=128)
    assert not rep7.concave_certified
    assert rep7.positive_indices and not rep7.undecided_indices
    first_x = rep7.positive_indices[0][1]
    assert 0.05 < first_x < 0.2


@pytest.mark.parametrize("samples", [1, 2])
def test_psi_shape_needs_an_interior_sample(samples, monkeypatch):
    # with fewer than three samples there is no second difference, so
    # concavity may not be reported as certified; the check refuses at once
    def no_work(*args, **kwargs):
        raise AssertionError("second differences classified")

    monkeypatch.setattr(legendre, "_classify_second_differences", no_work)
    with pytest.raises(ValueError, match="samples"):
        certify_psi_shape(7, samples=samples)


def test_psi_shape_reports_undecided_at_the_cap(one_rung_ladder, monkeypatch):
    rep = certify_psi_shape(7, samples=64)
    assert rep.undecided_indices and not rep.concave_certified
    assert rep.undecided_indices == sorted(rep.undecided_indices)
    assert rep.negative + len(rep.positive_indices) + \
        len(rep.undecided_indices) == 62
    monkeypatch.undo()
    assert not certify_psi_shape(7, samples=64).undecided_indices


# ---------------------------------------------------------------------------
# the compiled kernels against the Interval path


def _traced_functions(monkeypatch, k):
    """(name, build) for each grid check and psi: what each hands to the
    ladder, build() giving one level's sides (lhs, rhs), or psi's curve."""
    captured = []

    def capture(xs, lo, hi, inequalities):
        captured.extend((name, sides) for name, _, _, sides in inequalities)
        return [GridCheckReport(name, k, len(xs))
                for name, k, _, _ in inequalities]

    def capture_curve(xs, curve):
        captured.append(("psi", curve))
        return [], [], []

    monkeypatch.setattr(legendre, "_grid_checks", capture)
    monkeypatch.setattr(legendre, "_classify_second_differences",
                        capture_curve)
    for check in GRID_CHECKS.values():
        check(k, points=20)
    certify_psi_shape(k, samples=8)
    return captured


def _seeded_points(name, rng):
    """Points of the check's domain, its boundary points among them."""
    if name == "legendre":
        return [1.0] + [1.0 + 10 ** rng.uniform(-9, 6) for _ in range(6)]
    if name in ("key", "two_point"):
        return [0.0, 1.0] + [10 ** rng.uniform(-6, 6) for _ in range(6)]
    return [0.0, 0.5, 1.0, 1e-9, 1 - 1e-9] + [rng.random() for _ in range(6)]


def _interval_path(fn, x):
    """fn at the point's Interval: its endpoints, or ValueError."""
    try:
        return fn(Interval(x))._mpi_
    except ValueError:
        return ValueError


@pytest.mark.parametrize("k", [2, 3, 6])
def test_kernels_match_the_interval_path_bit_for_bit(k, monkeypatch):
    # every call of a kernel is the call the Interval path makes, at the
    # same precision, so the endpoint pairs and the verdicts are the same
    # bit for bit: at 64 bits, and at 12 and 24 bits, where enclosures are
    # wide enough for the verdicts to differ between the rungs
    rng = random.Random(k)
    traced = _traced_functions(monkeypatch, k)
    assert [name for name, _ in traced] == list(GRID_CHECKS) + ["psi"]
    verdicts = set()
    for name, build in traced:
        points = _seeded_points(name, rng)
        for prec in (64, 12, 24):
            with intervals.workprec(prec):
                fns = build() if name != "psi" else (build(),)
                tape = intervals._Tape()
                traces = [tape.record(fn) for fn in fns]
                if name != "psi":
                    lhs, rhs = fns
                    traces.append(tape.record(lambda x: (lhs(x), rhs(x))))
                kernel = tape.compile(traces)
                for x in points:
                    want = [_interval_path(fn, x) for fn in fns]
                    assert ValueError not in want, (name, prec, x)
                    if name != "psi":
                        want.append(intervals._separation(*want))
                        verdicts.add(want[-1] and want[-1][0])
                    assert kernel(x) == tuple(want), (name, prec, x)
    assert verdicts == {True, None}


@pytest.mark.parametrize("name", list(GRID_CHECKS))
def test_grid_checks_climb_like_a_per_point_interval_ladder(name, rungs,
                                                           monkeypatch):
    # on a 12 -> 24 bit ladder the kernels' report is the one a per-point
    # decide_le on the Interval path gives, point by point and rung by rung
    monkeypatch.setattr(intervals, "PREC_START", 12)
    monkeypatch.setattr(intervals, "PREC_CAP", 24)
    seen = []
    grid_checks = legendre._grid_checks

    def capture(xs, lo, hi, inequalities):
        seen.append((xs, inequalities))
        return grid_checks(xs, lo, hi, inequalities)

    monkeypatch.setattr(legendre, "_grid_checks", capture)
    got = GRID_CHECKS[name](3, points=33)
    assert rungs == [12, 24]
    (xs, [(_, k, exact, sides)]), = seen
    want = _per_point_report(name, k, xs, exact, sides)
    want.shape_flags = got.shape_flags
    assert dumps_canonical(got.to_dict()) == dumps_canonical(want.to_dict())


def test_kernel_raises_at_a_zero_base_exactly_where_ipows_does():
    with intervals.workprec(64):
        one = Interval(1)
        good = [Interval(0.5), Interval(2)]
        fns = [
            lambda x: intervals.ipows(x, good)[1],
            lambda x: intervals.ipows(x, good + [Interval(0)])[0],
            lambda x: intervals.ipow(x, Interval(-0.5)),
            lambda x: intervals.ipow(x, Interval([-1, 1])),
            # a zero base that is not the point: 1 - x at x = 1, x - x
            lambda x: intervals.ipow(one - x, Interval(0)),
            lambda x: intervals.ipow(x - x, Interval(0)) + x,
        ]
        raised = []
        for fn in fns:
            tape = intervals._Tape()
            kernel = tape.compile([tape.record(fn)])
            for x in (0.0, 0.25, 1.0):
                want = _interval_path(fn, x)
                if want is ValueError:
                    raised.append((fns.index(fn), x))
                    with pytest.raises(ValueError, match="needs e > 0"):
                        kernel(x)
                else:
                    assert kernel(x) == (want,)
        assert raised == [(1, 0.0), (2, 0.0), (3, 0.0), (4, 1.0), (5, 0.0),
                          (5, 0.25), (5, 1.0)]
        # the guard belongs to the trace whose ipows call has the exponent
        # that needs it: a kernel of the other trace alone shares the log
        # and the power of x, and does not raise
        tape = intervals._Tape()
        guarded = tape.record(fns[1])
        unguarded = tape.record(fns[0])
        assert unguarded[1] < guarded[1]
        assert tape.compile([unguarded])(0.0) == ((fzero, fzero),)
        with pytest.raises(ValueError):
            tape.compile([unguarded, guarded])(0.0)


def test_a_traced_point_refuses_what_has_no_kernel():
    with intervals.workprec(64):
        tape = intervals._Tape()
        for fn in (float, hash, lambda x: x < 1, lambda x: x ** 0.5,
                   lambda x: x ** Fraction(1, 2)):
            with pytest.raises(TypeError):
                tape.record(fn)


@pytest.mark.parametrize("ladder", [(64, 8192), (12, 24)],
                         ids=["full-ladder", "12-24-bits"])
def test_unit_grid_checks_share_one_fan_out_per_level(ladder, workers, rungs,
                                                      monkeypatch):
    # goal, cfil and convex_concave run as one kernel over their shared
    # unit grid, each with its own exact points and pending points; the
    # reports are the ones the checks give one by one, byte for byte
    monkeypatch.setattr(intervals, "PREC_START", ladder[0])
    monkeypatch.setattr(intervals, "PREC_CAP", ladder[1])
    fan_outs = []
    fan_out = intervals._fan_out

    def counting(fn, items, *args):
        fan_outs.append(len(items))
        return fan_out(fn, items, *args)

    monkeypatch.setattr(intervals, "_fan_out", counting)
    points = 200 if ladder[0] == 64 else 33
    for k in (2, 3, 6):
        del fan_outs[:], rungs[:]
        check_two_point_inequality(k, points=points)
        two_point_levels = len(rungs)
        del fan_outs[:], rungs[:]
        fused = check_higher_energy_inequalities(k, points=points)
        assert len(fan_outs) == len(rungs) > two_point_levels
        trio_levels = len(rungs) - two_point_levels
        assert trio_levels == (1 if ladder[0] == 64 else 2)
        del rungs[:]
        alone = {
            "two_point": check_two_point_inequality(k, points=points),
            "goal": check_goal_inequality(k, points=points),
            "cfil": check_cfil_instance(k, points=points),
            "convex_concave": check_convex_concave(k, points=points),
        }
        assert list(fused) == list(alone)
        for name in alone:
            assert dumps_canonical(fused[name].to_dict()) == \
                dumps_canonical(alone[name].to_dict()), (k, name)
            if points == 200 and (name, k) in GRID_REPORT_DIGESTS:
                assert _digest(fused[name].to_dict()) == \
                    GRID_REPORT_DIGESTS[name, k]
    assert bool(workers.forks) == (workers.count > 1)
