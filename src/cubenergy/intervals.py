"""Certified real comparisons via adaptive-precision interval arithmetic.

Every decision produced here is backed by interval enclosures: an
inequality is reported only once the enclosures of the two sides separate,
a floor once the enclosure excludes every integer.  All of them climb one precision ladder,
PREC_START, 2*PREC_START, ..., PREC_CAP bits, in ``_escalate``; if the cap
is passed first, PrecisionExhausted is raised and nothing is ever decided
by rounding luck.  Exact (rational) equality cases must be handled by
callers before asking for a strict decision, otherwise the ladder cannot
settle.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Tuple

from mpmath import iv
from mpmath.libmp import fzero, libmpi, mpf_gt

from .errors import PrecisionExhausted

PREC_START = 64
PREC_CAP = 1 << 14


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
    """Enclose an int, float or Fraction in an interval at current precision."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def log2_interval(m):
    return iv.log(to_interval(m)) / iv.log(iv.mpf(2))


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
        return [iv.mpf(0) for _ in expos]
    prec = iv.prec
    log = libmpi.mpi_log(base._mpi_, prec + 20)
    return [iv.make_mpf(libmpi.mpi_exp(libmpi.mpi_mul(log, e._mpi_, prec + 20),
                                       prec)) for e in expos]


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
    if a.b < b.a:
        return True, float((b.a - a.b).a)
    if a.a > b.b:
        return False, float((a.a - b.b).a)
    return None


def certified_floor(fn: Callable[[], object]) -> int:
    """Floor of a positive quantity that is provably not an integer.

    ``fn`` builds the enclosure at the current precision; the floor is
    trusted once the enclosure's ends share it.
    """
    def step():
        e = fn()
        lo = int(e.a)
        return lo if lo == int(e.b) else None
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
        iv.log(iv.mpf(c)) * iv.log(iv.mpf(m)) / iv.log(iv.mpf(2))))
