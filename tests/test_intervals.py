"""Adaptive-precision certified comparisons."""

import math
import operator
from fractions import Fraction

import pytest
from mpmath import iv, mp

from cubenergy.errors import PrecisionExhausted
from cubenergy.intervals import (
    PREC_CAP,
    PREC_START,
    Interval,
    _escalate,
    decide_le,
    floor_power_log2,
    ipow,
    ipows,
    log2_interval,
    to_interval,
    workprec,
)


def test_workprec_restores():
    before = iv.prec
    with workprec(777):
        assert iv.prec == 777
    assert iv.prec == before


def test_to_interval_encloses_fraction():
    x = to_interval(Fraction(1, 3))
    assert float(x.a) <= 1 / 3 <= float(x.b)
    assert float(x.b - x.a) < 1e-15


def test_log2_interval_contains_exact_value():
    x = log2_interval(8)
    assert float(x.a) <= 3.0 <= float(x.b)


def test_ipow_zero_base():
    z = ipow(iv.mpf(0), iv.mpf(2.5))
    assert float(z.a) == float(z.b) == 0.0


def test_ipow_contains_true_power():
    v = ipow(iv.mpf(2), iv.mpf(0.5))
    assert float(v.a) <= math.sqrt(2) <= float(v.b)


@pytest.mark.parametrize("expo", [0, -0.5])
def test_ipow_refuses_zero_base_without_positive_exponent(expo):
    # 0 ** 0 is 1 and 0 ** -0.5 is infinite: neither is the zero interval
    with pytest.raises(ValueError):
        ipow(iv.mpf(0), iv.mpf(expo))
    with pytest.raises(ValueError):
        ipows(iv.mpf(0), [iv.mpf(2.5), iv.mpf(expo)])


def test_ipow_refuses_a_negative_base():
    # a real power of a base below 0 has no real enclosure
    with pytest.raises(ValueError):
        ipow(iv.mpf([-1, 1]), iv.mpf(0.5))


def _grid_exponents(k):
    """The interval exponents the grid checks raise a point to."""
    p = log2_interval(math.comb(2 * k, k))
    q = log2_interval(2 ** k + 2)
    expos = [p * i / k for i in range(1, k + 1)]
    expos += [e - 1 for e in expos]
    expos += [p, iv.mpf(k) / p, q / 2, q / k, q / k / 2, 2 * k / q,
              q / k - 1, q - k]
    return expos


@pytest.mark.parametrize("prec", [64, 128, 1024])
def test_ipows_matches_ipow_and_mpmath_endpoint_for_endpoint(prec):
    with workprec(prec):
        expos = _grid_exponents(6)
        zero = iv.mpf(0)
        assert [v._mpi_ for v in ipows(zero, expos)] == \
            [ipow(zero, e)._mpi_ for e in expos] == [zero._mpi_] * len(expos)
        expos.append(iv.mpf(-0.7))
        for x in (1e-300, 1e-9, 0.5, 1, 1e6, [0.25, 0.75]):
            base = iv.mpf(x)
            got = [v._mpi_ for v in ipows(base, expos)]
            assert got == [ipow(base, e)._mpi_ for e in expos]
            assert got == [(base ** e)._mpi_ for e in expos]


def test_escalate_climbs_the_whole_ladder_then_raises():
    seen = []

    def step():
        seen.append(iv.prec)

    with pytest.raises(PrecisionExhausted):
        _escalate(step)
    assert seen == [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
    assert (seen[0], seen[-1]) == (PREC_START, PREC_CAP)


def test_escalate_returns_the_first_result():
    seen = []

    def step():
        seen.append(iv.prec)
        return iv.prec if iv.prec >= 256 else None

    assert _escalate(step) == 256
    assert seen == [64, 128, 256]


def test_decide_le_directions():
    less, margin = decide_le(lambda: iv.mpf(2), lambda: iv.mpf(3))
    assert less and margin == pytest.approx(1.0, abs=1e-12)
    more, excess = decide_le(lambda: iv.mpf(3), lambda: iv.mpf(2))
    assert not more and excess == pytest.approx(1.0, abs=1e-12)


def test_decide_le_escalates_through_tiny_gaps():
    # e vs a rational 1e-38 above it: undecidable at 64 bits, decidable later
    from mpmath import mp
    old = mp.dps
    try:
        mp.dps = 50
        close = Fraction(mp.nstr(mp.e, 45))
    finally:
        mp.dps = old
    target = close + Fraction(1, 10 ** 38)
    less, margin = decide_le(lambda: iv.exp(iv.mpf(1)),
                             lambda: to_interval(target))
    assert less
    assert 0 < margin < 1e-30


def test_decide_le_reports_the_lower_end_of_an_inexact_gap():
    # 31 - 1/3 is not exact at the working precision, so the gap is an
    # interval; the reported bound is its lower end
    third, big = (lambda: iv.mpf(1) / 3), (lambda: iv.mpf(31))
    less, margin = decide_le(third, big)
    assert less and margin == pytest.approx(31 - 1 / 3, rel=1e-15)
    more, excess = decide_le(big, third)
    assert not more and excess == pytest.approx(31 - 1 / 3, rel=1e-15)


def test_decide_le_exact_tie_raises():
    with pytest.raises(PrecisionExhausted):
        decide_le(lambda: iv.log(iv.mpf(3)), lambda: iv.log(iv.mpf(3)))


def test_floor_power_log2_frozen():
    assert floor_power_log2(3, 6) == 17
    assert floor_power_log2(5, 6) == 64
    assert floor_power_log2(3, 19) == 106


def test_floor_power_log2_validates():
    with pytest.raises(ValueError):
        floor_power_log2(1, 6)
    with pytest.raises(ValueError):
        floor_power_log2(6, 1)


def test_floor_power_log2_tracks_floats():
    for c in (3, 5, 6, 7, 9, 11):
        for m in (3, 5, 6, 10, 19):
            got = floor_power_log2(c, m)
            approx = c ** math.log2(m)
            assert abs(got - math.floor(approx)) <= 1


# ---------------------------------------------------------------------------
# Interval against mpmath's own interval class, operation by operation

PRECS = [53, 64, 128, 1024]
# point, positive, negative, mixed-sign and zero-containing intervals, with
# ends that are not all exact in binary
SHAPES = [0.1, [0.25, 3], [0.1, 2.7], [-3, -0.1], [-1, 2], [0, 2], [-2, 0],
          0]
SCALARS = [3, -7, 0, 2 ** 200 + 1, -(2 ** 200 + 1), 0.1, -2.5, 1e-300]
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _as_plain(x):
    """The operand mpmath's interval class would see."""
    return iv.make_mpf(x._mpi_) if isinstance(x, iv.mpf) else x


def _operands():
    """Every (left, right) pair with at least one Interval."""
    for s in SHAPES:
        x = Interval(s)
        for t in SHAPES:
            yield x, Interval(t)
            yield x, iv.mpf(t)
            yield iv.mpf(t), x
        for c in SCALARS:
            yield x, c
            yield c, x


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_interval_arithmetic_matches_mpmath(prec, op):
    with workprec(prec):
        for left, right in _operands():
            got = op(left, right)
            want = op(_as_plain(left), _as_plain(right))
            assert type(got) is Interval, (left, right)
            assert got._mpi_ == want._mpi_, (op, left, right)


@pytest.mark.parametrize("prec", PRECS)
def test_interval_int_powers_match_mpmath(prec):
    with workprec(prec):
        for s in SHAPES:
            x = Interval(s)
            for n in range(13):
                got = x ** n
                assert type(got) is Interval
                assert got._mpi_ == (iv.mpf(s) ** n)._mpi_, (s, n)
                assert got._mpi_ == (iv.mpf(s) ** iv.mpf(n))._mpi_, (s, n)


@pytest.mark.parametrize("prec", PRECS)
def test_interval_constructor_matches_mpmath(prec):
    with workprec(prec):
        for x in SHAPES + SCALARS + ["0.1", [0.1, "0.3"], iv.mpf(0.7), iv.pi]:
            got = Interval(x)
            assert type(got) is Interval and got._mpi_ == iv.mpf(x)._mpi_
        third = Interval(Fraction(1, 3))
        assert third._mpi_ == (iv.mpf(1) / iv.mpf(3))._mpi_
        assert Interval(third) is third
        assert to_interval(Fraction(-5, 7))._mpi_ == \
            (iv.mpf(-5) / iv.mpf(7))._mpi_
        nan = Interval(math.nan)
        assert nan._mpi_ == iv.mpf(math.nan)._mpi_


def test_interval_reads_the_precision_mpmath_reads():
    x = Interval(1)
    with workprec(64):
        at64 = (x / 3)._mpi_
        with workprec(1024):
            assert (x / 3)._mpi_ == (iv.mpf(1) / 3)._mpi_ != at64
        assert (x / 3)._mpi_ == at64


def test_interval_leaves_other_operands_to_mpmath():
    with workprec(64):
        x = Interval([0.25, 3])
        plain = iv.make_mpf(x._mpi_)
        for other in (True, "0.5", [0.5, 1], mp.mpf("0.1")):
            assert (x + other)._mpi_ == (plain + other)._mpi_
            if not isinstance(other, mp.mpf):     # mp.mpf * x is mp's own
                assert (other * x)._mpi_ == (other * plain)._mpi_
        # real and interval exponents, and an int too long to be a point
        for expo in (0.5, 2.5, iv.mpf(1.5), Interval(-0.7), 2 ** 70 + 1):
            assert (x ** expo)._mpi_ == (iv.make_mpf(x._mpi_) ** expo)._mpi_
        with workprec(53):
            assert (Interval(1.0) ** (2 ** 60 + 1))._mpi_ == \
                (iv.mpf(1.0) ** (2 ** 60 + 1))._mpi_


def test_interval_is_an_mpmath_interval():
    with workprec(64):
        x = Interval([0.25, 3])
        assert isinstance(x, type(iv.mpf(0)))
        assert float(x.a) == 0.25 and float(x.b) == 3.0
        assert iv.log(x)._mpi_ == iv.log(iv.mpf([0.25, 3]))._mpi_
        assert x == iv.mpf([0.25, 3]) and 1 in x
