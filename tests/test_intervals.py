"""Adaptive-precision certified comparisons."""

import math
import operator
import os
import threading
import time
from fractions import Fraction

import pytest
from mpmath import iv, mp
from mpmath.libmp import libmpi

from cubenergy import _fanout, intervals
from cubenergy._fanout import _fan_out
from cubenergy.errors import PrecisionExhausted
from cubenergy.intervals import (
    PREC_CAP,
    PREC_START,
    Interval,
    _escalate,
    decide_le,
    ipow,
    ipows,
    log2_interval,
    workprec,
)


def test_workprec_restores():
    before = iv.prec
    with workprec(777):
        assert iv.prec == 777
    assert iv.prec == before


def test_interval_encloses_fraction():
    x = Interval(Fraction(1, 3))
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
    assert seen == [64, 128, 256, 512, 1024, 2048, 4096, 8192]
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
                             lambda: Interval(target))
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


# ---------------------------------------------------------------------------
# Interval against mpmath's own interval class

PRECS = [53, 64, 128, 1024]
# point, positive, negative, mixed-sign and zero-containing intervals, with
# ends that are not all exact in binary
SHAPES = [0.1, [0.25, 3], [0.1, 2.7], [-3, -0.1], [-1, 2], [0, 2], [-2, 0],
          0]
SCALARS = [3, -7, 0, 2 ** 200 + 1, -(2 ** 200 + 1), 0.1, -2.5, 1e-300]


@pytest.mark.parametrize("prec", PRECS)
def test_interval_constructor_matches_mpmath(prec):
    with workprec(prec):
        for x in SHAPES + SCALARS + ["0.1", [0.1, "0.3"], iv.mpf(0.7), iv.pi]:
            assert Interval(x)._mpi_ == iv.mpf(x)._mpi_
        third = Interval(Fraction(1, 3))
        assert third._mpi_ == (iv.mpf(1) / iv.mpf(3))._mpi_
        assert Interval(Fraction(-5, 7))._mpi_ == \
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


def test_interval_refuses_a_fraction_operand_exponent_or_comparand():
    # mpmath cannot convert a Fraction, so mixing one with an interval
    # raises instead of giving an enclosure of some rounding of it; == and
    # != raise too, where they would fall back to identity
    ops = [operator.add, operator.sub, operator.mul, operator.truediv]
    orders = [operator.lt, operator.le, operator.gt, operator.ge,
              operator.eq, operator.ne]
    with workprec(64):
        for s in ([0.25, 3], 2, Fraction(1, 3)):
            x = Interval(s)
            for c in (Fraction(1, 3), Fraction(4), Fraction(0)):
                for op in ops:
                    with pytest.raises((NotImplementedError, TypeError)):
                        op(x, c)
                    with pytest.raises((NotImplementedError, TypeError)):
                        op(c, x)
                with pytest.raises((NotImplementedError, TypeError)):
                    x ** c
                for op in orders:
                    with pytest.raises(TypeError):
                        op(x, c)
                    with pytest.raises(TypeError):
                        op(c, x)


def test_interval_equality_with_a_fraction_raises():
    # Interval(4) == Fraction(4) read False and != True, both ways round;
    # now both raise TypeError as the orderings do, while an int compares
    # as before and an interval stays hashable
    with workprec(64):
        x = Interval(4)
        for c in (Fraction(4), Fraction(1, 3)):
            for op in (operator.eq, operator.ne):
                with pytest.raises(TypeError, match=r"Interval\(f\)"):
                    op(x, c)
                with pytest.raises(TypeError, match=r"Interval\(f\)"):
                    op(c, x)
        assert x == 4 and not x != 4 and x != 5
        assert x == Interval(Fraction(4)) and type(Interval(Fraction(4))) \
            is Interval
        assert hash(x) == hash(Interval(4)) and {x: 1}[Interval(4)] == 1


def test_interval_is_an_mpmath_interval():
    with workprec(64):
        x = Interval([0.25, 3])
        assert isinstance(x, type(iv.mpf(0)))
        assert float(x.a) == 0.25 and float(x.b) == 3.0
        assert iv.log(x)._mpi_ == iv.log(iv.mpf([0.25, 3]))._mpi_
        assert x == iv.mpf([0.25, 3]) and 1 in x


# ---------------------------------------------------------------------------
# the fan-out over forked workers


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the fan-out sees."""
    def set_count(count):
        monkeypatch.setattr(_fanout, "_cpu_count", lambda: count)
    return set_count


def _with_pid(x):
    return x, os.getpid()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_keeps_item_order(cpus):
    cpus(2)
    got = _fan_out(_with_pid, range(10), 1)
    assert [x for x, _ in got] == list(range(10))
    pids = [pid for _, pid in got]
    # the caller takes the first chunk, one worker the second
    assert pids[:5] == [os.getpid()] * 5
    assert len(set(pids[5:])) == 1 and pids[5] != os.getpid()
    assert_no_child_left()


def test_fan_out_with_fewer_items_than_workers(cpus):
    cpus(4)
    got = _fan_out(_with_pid, [7, 8, 9], 1)
    assert [x for x, _ in got] == [7, 8, 9]
    assert len({pid for _, pid in got}) == 3
    assert _fan_out(_with_pid, [], 1) == []
    assert_no_child_left()


def test_fan_out_forks_only_for_full_chunks(monkeypatch):
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    chunk = intervals.FAN_OUT_MIN_CHUNK
    n = 2 * chunk
    assert {pid for _, pid in _fan_out(_with_pid, range(n - 1), chunk)} == \
        {os.getpid()}
    assert len({pid for _, pid in _fan_out(_with_pid, range(n), chunk)}) == 2
    assert_no_child_left()


def test_fan_out_raises_a_workers_exception(cpus):
    cpus(2)

    def seven_fails(x):
        if x == 7:
            raise ValueError("no seven at pid %d" % os.getpid())
        return x

    with pytest.raises(ValueError, match=r"^no seven at pid (\d+)$") as info:
        _fan_out(seven_fails, range(10), 1)
    assert info.value.args[0] != "no seven at pid %d" % os.getpid()
    assert_no_child_left()


def test_fan_out_reaps_busy_workers_when_the_caller_fails(cpus):
    cpus(2)
    parent = os.getpid()

    def caller_fails(x):
        if os.getpid() == parent:
            raise KeyError(x)
        time.sleep(60)          # the worker is killed, not waited for

    start = time.monotonic()
    with pytest.raises(KeyError):
        _fan_out(caller_fails, range(4), 1)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_fan_out_names_a_worker_that_died(cpus):
    cpus(2)
    parent = os.getpid()

    def worker_dies(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exited without its results"):
        _fan_out(worker_dies, range(4), 1)
    assert_no_child_left()


def test_fan_out_nested_call_runs_serially(cpus):
    cpus(2)

    def inner(x):
        return os.getpid(), [pid for _, pid in
                             _fan_out(_with_pid, range(4), 1)]

    got = _fan_out(inner, range(4), 1)
    assert len({outer for outer, _ in got}) == 2
    for outer, pids in got:
        assert pids == [outer] * 4
    assert_no_child_left()


def test_fan_out_without_fork_runs_serially(cpus, monkeypatch):
    cpus(2)
    monkeypatch.delattr(os, "fork")
    assert _fan_out(_with_pid, range(6), 1) == \
        [(x, os.getpid()) for x in range(6)]


def test_fan_out_beside_another_thread_runs_serially(cpus):
    cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        got = _fan_out(_with_pid, range(6), 1)
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert got == [(x, os.getpid()) for x in range(6)]


# ---------------------------------------------------------------------------
# every rung of the ladder against exact series


def _rungs():
    """The precisions of the ladder, PREC_START to PREC_CAP."""
    prec, rungs = PREC_START, []
    while prec <= PREC_CAP:
        rungs.append(prec)
        prec *= 2
    return rungs


def _value(v):
    """The exact value of an mpf endpoint."""
    sign, man, exp, _ = v
    x = man * Fraction(2) ** exp
    return -x if sign else x


def _exp_enclosure(x, bits):
    """Rational bounds on exp(x) for a rational |x| <= 1/2: the Taylor
    series with each |x|^n/n! rounded down and up at 2^-bits from the
    bounds on the term before; once a term is at most 2^-bits, the tail
    after it is below a third of it."""
    p, q = abs(x.numerator), x.denominator
    lo = hi = t_lo = t_hi = 1 << bits
    n = 0
    while t_hi > 1:
        n += 1
        t_lo = t_lo * p // (q * n)
        t_hi = -(-t_hi * p // (q * n))
        if x < 0 and n % 2:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
    return Fraction(lo - t_hi, 1 << bits), Fraction(hi + t_hi, 1 << bits)


def _log_enclosure(a, bits):
    """Rational bounds on log(a) for a rational 1/2 <= a <= 2: 2 atanh(y)
    with y = (a - 1)/(a + 1), |y| <= 1/3, from the series sum of
    y^(2n+1)/(2n+1), each power rounded down and up at 2^-bits from the
    bounds on the one before; once a term is at most 2^-bits, the tail
    after it is below an eighth of it."""
    y = (a - 1) / (a + 1)
    u, v = abs(y.numerator), y.denominator
    y_lo = (2 * u << bits) // v            # 2 |y|^(2n+1), scaled
    y_hi = -(-(2 * u << bits) // v)
    lo = hi = 0
    n = t_hi = 2
    while t_hi > 1:
        t_lo, t_hi = y_lo // (2 * n - 3), -(-y_hi // (2 * n - 3))
        lo, hi = lo + t_lo, hi + t_hi
        y_lo, y_hi = y_lo * u * u // (v * v), -(-y_hi * u * u // (v * v))
        n += 1
    lo, hi = Fraction(lo, 1 << bits), Fraction(hi + t_hi, 1 << bits)
    return (lo, hi) if y >= 0 else (-hi, -lo)


def _contains(mpi, bounds):
    lo, hi = map(_value, mpi)
    return lo <= bounds[0] and bounds[1] <= hi


def test_exact_series_enclose_known_values():
    for bits in (64, 300):
        lo, hi = _exp_enclosure(Fraction(0), bits)
        assert lo <= 1 <= hi
        lo, hi = _exp_enclosure(Fraction(-1, 2), bits)
        assert lo < hi and hi - lo < Fraction(1, 1 << (bits - 8))
        assert math.exp(-0.5) == pytest.approx(float(lo), rel=1e-15)
        lo, hi = _log_enclosure(Fraction(1), bits)
        assert lo <= 0 <= hi
        for a in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
            lo, hi = _log_enclosure(a, bits)
            assert lo < hi and hi - lo < Fraction(1, 1 << (bits - 8))
            assert math.log(a) == pytest.approx(float(lo), rel=1e-15)
    # log 2 + log(1/2) = 0 and exp(log 2) = 2, within the bounds
    lo, hi = _log_enclosure(Fraction(2), 200)
    assert _exp_enclosure(lo, 200)[0] <= 2 <= _exp_enclosure(hi, 200)[1]


# where mpmath 1.3.0's exp failed to round outward at 12 000 and 16 384
# bits, and points near 1 where ipows takes the log of a grid point
EXP_ARGUMENTS = [-2.000000002e-9, 1e-9]
LOG_ARGUMENTS = [1 - 1e-9, 1 + 1e-9, 1 - 2 ** -40]
# bases and exponents whose ipows enclosure takes exp near those arguments;
# each power is irrational, so no enclosure can end exactly on it
POWERS = [(1 - 1e-9, 2.000000002), (1 - 1e-9, 1.999999999),
          (1 + 1e-9, 0.999999999)]


def test_every_rung_encloses_exp_and_log_by_exact_series():
    # ipows takes its logs at prec + 20 bits and its exps at prec
    for prec in _rungs():
        bits = prec + 64
        for x in EXP_ARGUMENTS:
            point = Interval(x)._mpi_
            assert _contains(libmpi.mpi_exp(point, prec),
                             _exp_enclosure(Fraction(x), bits)), (prec, x)
        for a in LOG_ARGUMENTS:
            point = Interval(a)._mpi_
            assert _contains(libmpi.mpi_log(point, prec + 20),
                             _log_enclosure(Fraction(a), bits + 20)), (prec, a)


def test_every_rung_of_ipows_encloses_exact_powers():
    # b^e = exp(e log b), from the series bounds on log b and exp's
    # monotonicity, for an exponent e > 0
    for prec in _rungs():
        bits = prec + 64
        with workprec(prec):
            for b, e in POWERS:
                log_lo, log_hi = _log_enclosure(Fraction(b), bits + 20)
                exact = (_exp_enclosure(log_lo * Fraction(e), bits)[0],
                         _exp_enclosure(log_hi * Fraction(e), bits)[1])
                power, = ipows(Interval(b), [Interval(e)])
                assert _contains(power._mpi_, exact), (prec, b, e)
