"""Certified real comparisons via adaptive-precision interval arithmetic.

Every decision produced here is backed by interval enclosures: an
inequality is reported only once the enclosures of the two sides separate,
a floor once the enclosure excludes every integer.  All of them climb one precision ladder,
PREC_START, 2*PREC_START, ..., PREC_CAP bits, in ``_escalate``; if the cap
is passed first, PrecisionExhausted is raised and nothing is ever decided
by rounding luck.  Exact (rational) equality cases must be handled by
callers before asking for a strict decision, otherwise the ladder cannot
settle.

Intervals are ``Interval``s, built by ``Interval``/``to_interval``,
``log2_interval`` and ``ipows``/``ipow``: mpmath intervals whose arithmetic
calls libmpi directly, at the one precision ``iv.prec`` that ``workprec``
sets, and gives mpmath's enclosures bit for bit.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Tuple

from mpmath import iv
from mpmath.libmp import (fnan, finf, fninf, from_float, from_int, fzero,
                          libmpi, mpf_gt, mpf_lt, mpf_sub, round_ceiling,
                          round_floor, to_float, to_int)
from mpmath.libmp.libmpi import (mpi_add, mpi_div, mpi_mul, mpi_pow_int,
                                 mpi_sub)

from .errors import PrecisionExhausted

PREC_START = 64
PREC_CAP = 1 << 14

_IVMPF = iv.mpf            # mpmath's interval class in the ``iv`` context
_PREC = iv._prec           # the one-cell list behind ``iv.prec``


def _endpoints(t, prec: int):
    """The endpoints ``iv.convert`` gives an int or float at ``prec`` bits;
    None for any other operand."""
    kind = type(t)
    if kind is int:
        return from_int(t, prec, round_floor), from_int(t, prec, round_ceiling)
    if kind is float:
        lo = from_float(t, prec, round_floor)
        if lo == fnan:
            return fninf, finf
        return lo, from_float(t, prec, round_ceiling)
    return None


def _lift(mpi) -> "Interval":
    """An ``Interval`` holding the endpoint pair ``mpi``."""
    x = object.__new__(Interval)
    x._mpi_ = mpi
    return x


def _operators(f, parent, parent_reflected):
    """``s op t`` and ``t op s`` as ``f`` on endpoints, for an interval, int
    or float operand t; any other t goes to mpmath's operators."""
    def op(s, t):
        prec = _PREC[0]
        v = t._mpi_ if isinstance(t, _IVMPF) else _endpoints(t, prec)
        if v is None:
            return parent(s, t)
        return _lift(f(s._mpi_, v, prec))

    def rop(s, t):
        prec = _PREC[0]
        v = t._mpi_ if isinstance(t, _IVMPF) else _endpoints(t, prec)
        if v is None:
            return parent_reflected(s, t)
        return _lift(f(v, s._mpi_, prec))
    return op, rop


class Interval(_IVMPF):
    """An mpmath interval whose arithmetic skips mpmath's object layer.

    ``+ - * /`` with an interval, int or float operand, in either order,
    and ``**`` with an int exponent call the libmpi routine mpmath's own
    operator reaches (``mpi_add``, ``mpi_sub``, ``mpi_mul``, ``mpi_div``,
    ``mpi_pow_int``), at ``iv.prec``, with int and float operands rounded
    out as ``iv.convert`` rounds them: the same enclosures, without the
    conversion and dispatch.  Any other operand goes to mpmath's operator.
    ``Interval(x)`` encloses an int, float or Fraction at the current
    precision, and anything else ``iv.mpf`` takes.
    """

    __slots__ = ("_mpi_",)

    def __new__(cls, x=0):
        if isinstance(x, Interval):
            return x
        if isinstance(x, Fraction):
            return cls(x.numerator) / x.denominator
        v = _endpoints(x, _PREC[0])
        return _lift(v if v is not None else iv.convert(x)._mpi_)

    __add__, __radd__ = _operators(mpi_add, _IVMPF.__add__, _IVMPF.__radd__)
    __sub__, __rsub__ = _operators(mpi_sub, _IVMPF.__sub__, _IVMPF.__rsub__)
    __mul__, __rmul__ = _operators(mpi_mul, _IVMPF.__mul__, _IVMPF.__rmul__)
    __truediv__, __rtruediv__ = _operators(mpi_div, _IVMPF.__truediv__,
                                           _IVMPF.__rtruediv__)

    def __pow__(self, n):
        prec = _PREC[0]
        # an int that fits the precision converts to a point, and mpmath's
        # ** sends a point integer exponent to mpi_pow_int
        if type(n) is int and n.bit_length() <= prec:
            return _lift(mpi_pow_int(self._mpi_, n, prec))
        return _IVMPF.__pow__(self, n)


class workprec:
    """Temporarily set the interval working precision."""

    def __init__(self, prec: int):
        self.prec = prec
        self._saved = None

    def __enter__(self):
        self._saved = iv.prec
        iv.prec = self.prec
        return iv

    def __exit__(self, *exc):
        iv.prec = self._saved
        return False


def _escalate(step: Callable[[], object]):
    """Run ``step()`` at PREC_START, 2*PREC_START, ..., PREC_CAP bits and
    return its first result that is not None.

    ``step`` must build every interval it uses inside the call.  Raises
    PrecisionExhausted once the cap is passed without a result.
    """
    prec = PREC_START
    while prec <= PREC_CAP:
        with workprec(prec):
            result = step()
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted("undecided at %d bits" % PREC_CAP)


def to_interval(x):
    """Enclose an int, float or Fraction in an ``Interval`` at current
    precision."""
    return Interval(x)


def log2_interval(m):
    return Interval(iv.log(Interval(m))) / iv.log(Interval(2))


def ipows(base, expos):
    """[base ** e for e in expos] for an interval base >= 0, from one log.

    Per exponent these are the steps of mpmath's interval ``**`` (log and
    product at prec+20 bits, exp at prec), so the enclosure is the one
    ``base ** e`` gives unless e is a point integer or 1/2, where ``**``
    takes a tighter path.  A zero base needs every exponent's lower end > 0.
    """
    if base._mpi_ == (fzero, fzero):
        if not all(mpf_gt(e._mpi_[0], fzero) for e in expos):
            raise ValueError("0 ** e needs e > 0")
        return [_lift(base._mpi_) for _ in expos]
    prec = _PREC[0]
    log = libmpi.mpi_log(base._mpi_, prec + 20)
    return [_lift(libmpi.mpi_exp(mpi_mul(log, e._mpi_, prec + 20), prec))
            for e in expos]


def ipow(base, expo):
    """base ** expo, the one-exponent case of ``ipows``."""
    return ipows(base, (expo,))[0]


def decide_le(lhs_fn: Callable[[], object],
              rhs_fn: Callable[[], object]) -> Tuple[bool, float]:
    """Certified decision of ``lhs < rhs`` vs ``lhs > rhs``.

    The callables are re-evaluated at each precision level and must build all
    interval quantities inside the call.  Returns ``(True, margin)`` when
    ``lhs < rhs`` is proven and ``(False, excess)`` when ``lhs > rhs`` is
    proven; both reported bounds are themselves certified lower bounds on the
    gap.  Exact ties must be peeled off by the caller first.
    """
    return _escalate(lambda: _separation(lhs_fn(), rhs_fn()))


def _separation(a, b) -> Optional[Tuple[bool, float]]:
    """``(True, margin)`` once the enclosures prove ``a < b``, ``(False,
    excess)`` once they prove ``a > b``, None while they overlap."""
    a_lo, a_hi = a._mpi_
    b_lo, b_hi = b._mpi_
    if mpf_lt(a_hi, b_lo):
        return True, to_float(mpf_sub(b_lo, a_hi, _PREC[0], round_floor))
    if mpf_lt(b_hi, a_lo):
        return False, to_float(mpf_sub(a_lo, b_hi, _PREC[0], round_floor))
    return None


def certified_floor(fn: Callable[[], object]) -> int:
    """Floor of a positive quantity that is provably not an integer.

    ``fn`` builds the enclosure at the current precision; the floor is
    trusted once the enclosure's ends share it.
    """
    def step():
        lo, hi = fn()._mpi_
        lo = to_int(lo)
        return lo if lo == to_int(hi) else None
    return _escalate(step)


def floor_power_log2(c: int, m: int) -> int:
    """Certified floor(c ** log2(m)) for integers c >= 2, m >= 2.

    The enclosure must exclude integers before the floor is trusted, so the
    true value must be irrational: callers handle the case where both c and
    m are powers of two (there the power is an exact integer).
    """
    if c < 2 or m < 2:
        raise ValueError("need c >= 2 and m >= 2")
    return certified_floor(lambda: iv.exp(
        iv.log(Interval(c)) * iv.log(Interval(m)) / iv.log(Interval(2))))
