"""Certified real comparisons via adaptive-precision interval arithmetic.

Every decision produced here is backed by interval enclosures: an
inequality is reported only once the enclosures of the two sides separate,
a floor once the enclosure excludes every integer.  All of them climb one precision ladder,
PREC_START, 2*PREC_START, ..., PREC_CAP bits, in ``_escalate``; if the cap
is passed first, PrecisionExhausted is raised and nothing is ever decided
by rounding luck.  Exact (rational) equality cases must be handled by
callers before asking for a strict decision, otherwise the ladder cannot
settle.

Intervals are mpmath's, built by ``Interval``, ``log2_interval`` and
``ipows``/``ipow``, and there is one interval arithmetic: mpmath's own, at
the one precision ``iv.prec`` that ``workprec`` sets.

The functions evaluated at many points on one rung are compiled once for
that rung, into one kernel: ``_Tape.compile`` traces them on a symbolic
point (a ``_Traced``), records each libmpi call mpmath's arithmetic would
make once, however often they ask for it, and writes the calls as one
straight-line kernel over endpoint pairs, which gives mpmath's enclosures
bit for bit.
``_settle`` climbs the ladder once for many points, each kept at the first
rung that decides it: the grids' kernels (``_grid_level``) and psi's second
differences (``_classify_second_differences``) run on it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from mpmath import iv
from mpmath.libmp import (fnan, finf, fninf, from_float, from_int, fzero,
                          libmpi, mpf_gt, mpf_lt, mpf_sub, round_ceiling,
                          round_floor, to_float, to_int)
from mpmath.libmp.libmpi import (mpi_add, mpi_div, mpi_mul, mpi_neg,
                                 mpi_pow_int, mpi_sub)

from ._fanout import _fan_out
from .errors import PrecisionExhausted

PREC_START = 64
# mpmath 1.3.0's exp does not round outward at 12 000 or 16 384 bits for
# arguments near 0 (an exact series oracle in the tests finds it); every rung
# up to 8 192 bits passes that oracle
PREC_CAP = 1 << 13

# a forked worker pays for its fork only with enough points.  On their
# compiled kernels a grid point takes 0.05 to 0.25 ms and a psi sample 0.2
# to 0.35 ms (2 vCPUs, Python 3.11).  A 1000-point key grid at k = 2 took
# 0.55 to 1.0 of its serial time when it forked, and a 200-point one 1.3
# times (17.6 against 13.4 ms, best of 15).  A certified-grids pass fans
# out 511 to 1005 points at a time and a 200-point grid at most 205 (every
# check, k = 2, 3, 6, 10), so any chunk in 103..255 forks the first and
# keeps the second serial
FAN_OUT_MIN_CHUNK = 128

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


def _point(x):
    """The endpoints of ``Interval(x)`` at the current precision."""
    v = _endpoints(x, _PREC[0])
    return v if v is not None else Interval(x)._mpi_


def _lift(mpi) -> "Interval":
    """An ``Interval`` holding the endpoint pair ``mpi``."""
    x = object.__new__(Interval)
    x._mpi_ = mpi
    return x


class Interval(_IVMPF):
    """The enclosure of an int, float or Fraction at the current precision,
    or of what ``iv.mpf`` makes of anything else (a traced node: itself).

    Its arithmetic is mpmath's, giving mpmath's intervals: an operand mpmath
    cannot convert raises, and a Fraction does in ``==`` and ``!=`` too.
    It stays a class: ``_Traced`` subclasses it, which lets a node take the
    reflected operators of interval constants first, and bench/tracing.py
    wraps the package's public functions but not its classes."""

    __slots__ = ("_mpi_",)

    def __new__(cls, x=0):
        if isinstance(x, Fraction):
            x = cls(x.numerator) / x.denominator
        v = _endpoints(x, _PREC[0])
        y = iv.convert(x) if v is None else None    # a traced node is itself
        return y if isinstance(y, Interval) else _lift(v or y._mpi_)

    # == and != refuse a Fraction, as the orderings do; the hash is mpmath's
    def __eq__(self, other):
        return _IVMPF.__eq__(self, _comparand(other))

    def __ne__(self, other):
        return _IVMPF.__ne__(self, _comparand(other))

    __hash__ = _IVMPF.__hash__


def _comparand(x):
    if isinstance(x, Fraction):
        raise TypeError("compare an Interval with Interval(f), not f")
    return x


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


def log2_interval(m):
    return iv.log(Interval(m)) / iv.log(Interval(2))


def ipows(base, expos):
    """[base ** e for e in expos] for an interval base >= 0, from one log.

    Per exponent these are the steps of mpmath's interval ``**`` (log and
    product at prec+20 bits, exp at prec), so the enclosure is the one
    ``base ** e`` gives unless e is a point integer or 1/2, where ``**``
    takes a tighter path.  A zero base needs every exponent's lower end > 0.
    A traced base records the same calls on its tape.
    """
    if isinstance(base, _Traced):
        return base._tape.pows(base, expos)
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
    return _escalate(lambda: _separation(lhs_fn()._mpi_, rhs_fn()._mpi_))


def _separation(a, b) -> Optional[Tuple[bool, float]]:
    """``(True, margin)`` once the endpoint pairs ``a`` and ``b`` prove
    ``a < b``, ``(False, excess)`` once they prove ``a > b``, None while
    they overlap."""
    a_lo, a_hi = a
    b_lo, b_hi = b
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


# ---------------------------------------------------------------------------
# one rung's kernel: a function of the point traced once, compiled once


def _recording(name):
    """``s op t`` and ``t op s`` for a traced s, recorded as ``name``."""
    def op(s, t):
        return s._tape.call(name, s, t)

    def rop(s, t):
        return s._tape.call(name, t, s)
    return op, rop


def _zero_guard(base):
    """What ``ipows`` does at a zero base with an exponent whose lower end
    is not > 0."""
    if base == (fzero, fzero):
        raise ValueError("0 ** e needs e > 0")


class _Traced(Interval):
    """A symbolic interval: one node of a ``_Tape``.

    ``+ - * /`` with any operand ``Interval`` takes, in either order, ``**``
    with an int exponent that fits the precision, unary ``-`` and ``ipows``
    record the libmpi call mpmath's arithmetic makes and give the node of
    its result; as a subclass of every interval constant's class, a node
    takes the reflected operators before the constant's own.
    ``Interval(t)`` and ``iv.mpf(t)`` give t itself.  A node has no
    endpoints: reading them (to compare, hash or convert it) raises
    TypeError, so a traced function must not branch on its point.
    """

    __slots__ = ("_tape", "_node")

    __add__, __radd__ = _recording("mpi_add")
    __sub__, __rsub__ = _recording("mpi_sub")
    __mul__, __rmul__ = _recording("mpi_mul")
    __truediv__, __rtruediv__ = _recording("mpi_div")

    def __pow__(self, n):
        tape = self._tape
        if type(n) is int and n.bit_length() <= tape.prec:
            return tape.node("mpi_pow_int(%s, %d, %d)"
                             % (tape.name(self), n, tape.prec))
        raise TypeError("a traced interval takes int powers; ipows the rest")

    def __neg__(self):
        return self._tape.node("mpi_neg(%s, %d)"
                               % (self._tape.name(self), self._tape.prec))

    @property
    def _mpi_(self):
        raise TypeError("a traced interval has no endpoints")

    def __repr__(self):
        return "<traced v%d>" % self._node


class _Tape:
    """The libmpi calls of functions traced on one symbolic point at the
    current precision, each recorded once (hash-consed by its source:
    operation, operands and precision), and the kernel compiled from them.

    A constant operand is named by its endpoint pair, so equal constants
    are one name.  ``compile(fns)`` traces each function on the point and
    writes every call the tape recorded as one straight-line function of
    the point, over endpoint pairs, in the order they were first recorded.
    """

    def __init__(self):
        self.prec = _PREC[0]
        self.calls = {}             # source of a call -> its node
        self.consts = {}            # endpoint pair -> its name
        # the libmpi routines read now, so that the kernel calls what
        # mpmath's arithmetic would call at this moment
        self.namespace = {
            "point": _point, "sep": _separation, "ZERO": (fzero, fzero),
            "zero_guard": _zero_guard, "mpi_add": mpi_add,
            "mpi_sub": mpi_sub, "mpi_mul": mpi_mul, "mpi_div": mpi_div,
            "mpi_neg": mpi_neg, "mpi_pow_int": mpi_pow_int,
            "mpi_log": libmpi.mpi_log, "mpi_exp": libmpi.mpi_exp}
        self.point = self.node("point(x)")

    def name(self, v) -> str:
        """The name of a node, or of the constant ``Interval(v)``."""
        if isinstance(v, _Traced):
            if v._tape is not self:
                raise ValueError("a node of another tape")
            return "v%d" % v._node
        mpi = Interval(v)._mpi_
        name = self.consts.get(mpi)
        if name is None:
            name = self.consts[mpi] = "c%d" % len(self.consts)
            self.namespace[name] = mpi
        return name

    def node(self, source: str) -> _Traced:
        """The node of the call ``source``, recorded once."""
        node = self.calls.setdefault(source, len(self.calls))
        x = object.__new__(_Traced)
        x._tape, x._node = self, node
        return x

    def call(self, name: str, s, t) -> _Traced:
        return self.node("%s(%s, %s, %d)"
                         % (name, self.name(s), self.name(t), self.prec))

    def pows(self, base: _Traced, expos):
        """``ipows(base, expos)``'s calls: the zero-base guard, one log at
        prec+20 bits and per exponent a product at prec+20 and an exp at
        prec, none of them at a zero base, where each power is the base."""
        b = self.name(base)
        if not all(mpf_gt(e._mpi_[0], fzero) for e in expos):
            self.node("zero_guard(%s)" % b)
        log = self.name(self.node("None if %s == ZERO else mpi_log(%s, %d)"
                                  % (b, b, self.prec + 20)))
        return [self.node("%s if %s is None else mpi_exp(mpi_mul(%s, %s, %d),"
                          " %d)" % (b, log, log, self.name(e), self.prec + 20,
                                    self.prec))
                for e in expos]

    def compile(self, fns) -> Callable:
        """``kernel(x)``: the results of ``fns``, traced on the point, at
        the point ``x``, as a tuple; each call the tape recorded is made
        once.  A function that returns a pair of intervals results in
        ``_separation``'s verdict on their endpoints, one that returns an
        interval in its endpoints."""
        results = []
        for fn in fns:
            out = fn(self.point)
            results.append("sep(%s, %s)" % tuple(map(self.name, out))
                           if isinstance(out, tuple) else self.name(out))
        lines = ["def kernel(x):"]
        lines += ["    v%d = %s" % (node, source)
                  for source, node in self.calls.items()]
        lines.append("    return (%s,)" % ", ".join(results))
        exec(compile("\n".join(lines), "<interval kernel>", "exec"),
             self.namespace)
        return self.namespace.pop("kernel")


# ---------------------------------------------------------------------------
# one ladder for many points


def _settle(indices: Iterable[Hashable], level: Callable
            ) -> Dict[Hashable, object]:
    """Climb the precision ladder once for a whole set of indices.

    At each level ``level(pending)`` builds that level's constants and
    returns the verdicts of the pending indices, in their order: None for an
    index still undecided.  Each index keeps the verdict of the first level
    that decides it; an index still undecided at the cap has no verdict.
    """
    verdicts: Dict[Hashable, object] = {}
    pending = list(indices)

    def step():
        for i, verdict in zip(pending, level(pending)):
            if verdict is not None:
                verdicts[i] = verdict
        pending[:] = [i for i in pending if i not in verdicts]
        return None if pending else True

    try:
        _escalate(step)
    except PrecisionExhausted:
        pass
    return verdicts


def _grid_level(xs: Sequence, sides: Sequence[Callable]) -> Callable:
    """``level(pending)`` for ``_settle`` over pairs (c, j): ``_separation``'s
    verdict on lhs(xs[j]) against rhs(xs[j]), ``(lhs, rhs) = sides[c]()``
    built once per level, None while they overlap.  A level compiles one
    kernel for the sides with pending points, which makes each libmpi call
    they share once per point, and runs every pending point through it in
    one fan-out."""
    def level(pending):
        cs = sorted({c for c, _ in pending})
        pairs = [sides[c]() for c in cs]
        kernel = _Tape().compile([lambda x, lhs=lhs, rhs=rhs: (lhs(x), rhs(x))
                                  for lhs, rhs in pairs])
        points = sorted({j for _, j in pending})
        verdicts = dict(zip(points, _fan_out(lambda j: kernel(xs[j]), points,
                                             FAN_OUT_MIN_CHUNK)))
        return [verdicts[j][cs.index(c)] for c, j in pending]

    return level


def _classify_second_differences(xs: List[float], curve: Callable
                                 ) -> Tuple[List[int], List[int], List[int]]:
    """Indices i in 1..len(xs)-2 whose second difference
    f(xs[i+1]) - 2 f(xs[i]) + f(xs[i-1]) is certified negative, certified
    positive, or still undecided at the precision cap, each in index order.
    ``curve()`` builds f, a function of the point's interval, for one
    precision level.  A level compiles f once (``_Tape``) and encloses
    through the fan-out the points its pending second differences need.
    ``legendre.certify_psi_shape`` is its caller.
    """
    def level(pending):
        f = _Tape().compile([curve()])
        needed = sorted({j for i in pending for j in (i - 1, i, i + 1)})
        vals = dict(zip(needed, (_lift(v) for v, in _fan_out(
            lambda j: f(xs[j]), needed, FAN_OUT_MIN_CHUNK))))

        def judge(i):
            lo, hi = (vals[i + 1] - 2 * vals[i] + vals[i - 1])._mpi_
            return -1 if mpf_lt(hi, fzero) else 1 if mpf_lt(fzero, lo) else None
        return list(map(judge, pending))

    interior = range(1, len(xs) - 1)
    signs = _settle(interior, level)
    return ([i for i in interior if signs.get(i) == -1],
            [i for i in interior if signs.get(i) == 1],
            [i for i in interior if i not in signs])
