"""Exact sign certification for the sharp-exponent coefficient polynomial and
certified grid checks for every scalar inequality the energy bounds rest on.

The central objects are the coefficients C_i = aCoeff*alpha + bConst with
alpha = k/log2 C(2k,k): integer linear forms in one fixed irrational.  Signs
are decided on the adaptive-precision interval ladder first, and the exact
integer comparison 2^(k*q) vs M^p decides what the ladder cannot separate;
floating point never decides a sign.

Each grid check, and the psi shape check, climbs one precision ladder for
all its points (``intervals._settle``).  At each level its functions of
the point are traced once on a symbolic point and compiled into one
straight-line kernel (``intervals._Tape``), which gives the enclosures of
mpmath's interval arithmetic bit for bit; checks on one grid share a
kernel, and with it every libmpi call they have in common.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from mpmath import iv

from .errors import PrecisionExhausted
from .intervals import (Interval, _classify_second_differences, _grid_level,
                        _settle, decide_le, ipow, ipows, log2_interval)

# exact-power comparison budget for compare_alpha, in bits
EXACT_BITS_CAP = 1 << 21


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")


@dataclass(frozen=True)
class ExactAlpha:
    """alpha = k / log2(M) with M = C(2k,k), kept symbolically.

    Each object encloses alpha once per precision, so every comparison made
    with one object shares its enclosures."""

    k: int
    central: int
    _enclosures: Dict[int, object] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        _check_k(self.k)
        if self.central != math.comb(2 * self.k, self.k):
            raise ValueError("central must equal C(2k,k)")
        if self.central.bit_count() == 1:
            raise AssertionError("C(2k,k) is never a power of two for k >= 2")
        # alpha in (1/2, 1) <=> 2^k < M < 4^k
        if not 2 ** self.k < self.central < 4 ** self.k:
            raise AssertionError("alpha must lie in (1/2, 1)")

    @classmethod
    def for_k(cls, k: int) -> "ExactAlpha":
        return cls(k, math.comb(2 * k, k))

    def interval(self):
        """Enclosure at the current interval precision."""
        prec = iv.prec
        x = self._enclosures.get(prec)
        if x is None:
            x = self._enclosures[prec] = \
                Interval(self.k) / log2_interval(self.central)
        return x

    def float_value(self) -> float:
        return self.k / math.log2(self.central)


def compare_alpha(alpha: ExactAlpha, num: int, den: int) -> str:
    """Certified order of alpha vs num/den: returns '<' or '>'.

    Decided by interval escalation; a gap the ladder cannot separate falls
    back to alpha > num/den  <=>  2^(k*den) > M^num for positive num/den,
    in exact integer powers when they fit the bit budget.  Equality is
    impossible (alpha is irrational), so the answer is always one of the
    two strict orders.
    """
    if den == 0:
        raise ZeroDivisionError("den must be nonzero")
    if den < 0:
        num, den = -num, -den
    if num <= 0:
        return ">"
    g = math.gcd(num, den)
    num //= g
    den //= g
    try:
        less, _ = decide_le(alpha.interval, lambda: Interval(num) / den)
    except PrecisionExhausted:
        k, m = alpha.k, alpha.central
        if max(k * den, num * m.bit_length()) > EXACT_BITS_CAP:
            raise
        lhs = 1 << (k * den)
        rhs = m ** num
        if lhs == rhs:
            raise AssertionError("alpha compared equal to a rational")
        less = lhs < rhs
    return "<" if less else ">"


@dataclass(frozen=True)
class CoeffLinearForm:
    """C_i = alpha_coeff * alpha + const_coeff, both integers."""

    k: int
    i: int
    alpha_coeff: int
    const_coeff: int


@lru_cache(maxsize=None)
def coefficient_forms(k: int) -> Tuple[CoeffLinearForm, ...]:
    """All forms C_0..C_2k for one k (cached; the table is reused heavily)."""
    _check_k(k)
    w = [math.comb(k, j) ** 2 for j in range(k + 1)]
    forms = []
    for i in range(2 * k + 1):
        a = 0
        b = 0
        for j in range(max(0, i - k), min(k, i) + 1):
            l = i - j
            t = w[j] * w[l] * j * (k - l)
            a += t
            b += t * (l - j)
        forms.append(CoeffLinearForm(k, i, a, b))
    return tuple(forms)


def coefficient_form(k: int, i: int) -> CoeffLinearForm:
    if not 0 <= i <= 2 * k:
        raise IndexError("i must lie in [0, 2k]")
    return coefficient_forms(k)[i]


def sign_of_coefficient(k: int, i: int,
                        alpha: Optional[ExactAlpha] = None) -> int:
    """Exact sign of C_i; 0 iff both integer coefficients vanish.

    ``alpha`` is ExactAlpha.for_k(k), or a shared object of it."""
    form = coefficient_form(k, i)
    a, b = form.alpha_coeff, form.const_coeff
    if a < 0:
        raise AssertionError("alpha coefficient must be nonnegative")
    if a == 0:
        return 0 if b == 0 else (1 if b > 0 else -1)
    if b >= 0:
        return 1
    # C_i > 0 <=> alpha > -b/a
    alpha = alpha or ExactAlpha.for_k(k)
    return 1 if compare_alpha(alpha, -b, a) == ">" else -1


@dataclass(frozen=True)
class SignCertificate:
    """Signs of C_1..C_k plus the structural facts the Descartes argument
    needs: palindromicity (checked on the exact integer forms over the full
    index range) and the sign-change count over nonzero entries."""

    k: int
    signs: Tuple[int, ...]
    sign_changes: int
    at_most_one_change: bool
    palindromic: bool
    endpoints_vanish: bool
    balance_identity: bool
    value_at_one_positive: bool

    @property
    def certified(self) -> bool:
        return (self.at_most_one_change and self.palindromic
                and self.endpoints_vanish and self.balance_identity
                and self.value_at_one_positive)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "signs": list(self.signs),
            "sign_changes": self.sign_changes,
            "at_most_one_change": self.at_most_one_change,
            "palindromic": self.palindromic,
            "endpoints_vanish": self.endpoints_vanish,
            "balance_identity": self.balance_identity,
            "value_at_one_positive": self.value_at_one_positive,
            "certified": self.certified,
        }


def weight_balance_identity(k: int) -> bool:
    """Exact identity sum_i C(k,i)^2 (k-i) = sum_i C(k,i)^2 i: the two log
    arguments in the derivative split agree at y = 1."""
    w = [math.comb(k, i) ** 2 for i in range(k + 1)]
    return sum(v * (k - i) for i, v in enumerate(w)) == \
        sum(v * i for i, v in enumerate(w))


def numerator_positive_at_one(k: int,
                              alpha: Optional[ExactAlpha] = None) -> bool:
    """Certified sign of P(1) = sum_i C_i(alpha): positive exactly when
    alpha > k/(2k-1), i.e. the sharp exponent sits below 2k-1.

    ``alpha`` is ExactAlpha.for_k(k), or a shared object of it."""
    forms = coefficient_forms(k)
    a_sum = sum(f.alpha_coeff for f in forms)
    b_sum = sum(f.const_coeff for f in forms)
    if a_sum <= 0:
        raise AssertionError("total alpha coefficient must be positive")
    if b_sum >= 0:
        return True
    return compare_alpha(alpha or ExactAlpha.for_k(k), -b_sum, a_sum) == ">"


def certify_sign_pattern(k: int) -> SignCertificate:
    forms = coefficient_forms(k)
    # one object for every comparison: alpha is enclosed once per precision
    alpha = ExactAlpha.for_k(k)
    palindromic = all(
        forms[i].alpha_coeff == forms[2 * k - i].alpha_coeff
        and forms[i].const_coeff == forms[2 * k - i].const_coeff
        for i in range(k + 1))
    endpoints = (forms[0].alpha_coeff == forms[0].const_coeff == 0
                 and forms[2 * k].alpha_coeff == forms[2 * k].const_coeff == 0)
    signs = tuple(sign_of_coefficient(k, i, alpha) for i in range(1, k + 1))
    nonzero = [s for s in signs if s != 0]
    changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    return SignCertificate(
        k, signs, changes, changes <= 1, palindromic, endpoints,
        weight_balance_identity(k), numerator_positive_at_one(k, alpha))


def sign_table(k_lo: int, k_hi: int) -> List[SignCertificate]:
    return [certify_sign_pattern(k) for k in range(k_lo, k_hi + 1)]


# ---------------------------------------------------------------------------
# scalar inequalities


def legendre_q(k: int, t):
    """Q_k(t) = 2^-k sum_j C(k,j)^2 (t-1)^(k-j) (t+1)^j.

    Exact Fraction for int/Fraction input, float otherwise.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    exact = isinstance(t, (int, Fraction)) and not isinstance(t, bool)
    tv = Fraction(t) if exact else float(t)
    total = 0
    for j in range(k + 1):
        total += math.comb(k, j) ** 2 * (tv - 1) ** (k - j) * (tv + 1) ** j
    if exact:
        return Fraction(total, 2 ** k)
    return total / 2.0 ** k


def _pk_iv(k: int):
    return log2_interval(math.comb(2 * k, k))


def _qk_iv(k: int):
    return log2_interval(2 ** k + 2)


@dataclass
class GridCheckReport:
    name: str
    k: int
    points: int
    equalities: List[float] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    undecided: List[float] = field(default_factory=list)
    min_margin: Optional[float] = None
    shape_flags: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.undecided

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "points": self.points,
            "equalities": self.equalities,
            "failures": self.failures,
            "undecided": self.undecided,
            "min_margin": self.min_margin,
            "shape_flags": self.shape_flags,
            "ok": self.ok,
        }


def _grid_checks(xs: List[float], lo: float, hi: float,
                 inequalities: List[tuple]) -> List[GridCheckReport]:
    """Check inequalities lhs(x) <= rhs(x) at every x of one grid inside
    [lo, hi], each given as ``(name, k, exact, sides)``.

    ``exact`` maps each boundary equality point to whether its identity
    holds in exact arithmetic; such a point is recorded as an equality, or
    as a failure when the identity does not hold.  Every other point gets
    one certified decision of lhs(x) < rhs(x) on interval enclosures, the
    points of all the inequalities on one precision ladder: ``sides()``
    builds one level's constants and returns ``(lhs, rhs)``, functions of
    the point's interval.  Each level compiles the inequalities with
    undecided points into one kernel (``intervals._grid_level``), and a
    point takes the verdicts of the inequalities still undecided there.
    """
    if not all(lo <= x <= hi for x in xs):
        raise ValueError("grid must lie in [%r, %r]" % (lo, hi))

    pending = [(c, j) for c, (_, _, exact, _) in enumerate(inequalities)
               for j, x in enumerate(xs) if x not in exact]
    level = _grid_level(xs, [sides for _, _, _, sides in inequalities])
    verdicts = _settle(pending, level) if pending else {}
    reports = []
    for c, (name, k, exact, _) in enumerate(inequalities):
        report = GridCheckReport(name, k, len(xs))
        for j, x in enumerate(xs):
            holds, gap = verdicts.get((c, j), (None, None))
            if x in exact:
                if exact[x]:
                    report.equalities.append(x)
                else:
                    report.failures.append({"x": x, "excess": float("nan")})
            elif holds is None:
                report.undecided.append(x)
            elif not holds:
                report.failures.append({"x": x, "excess": gap})
            elif report.min_margin is None or gap < report.min_margin:
                report.min_margin = gap
        reports.append(report)
    return reports


def log_grid(lo: float, hi: float, count: int) -> List[float]:
    if count < 2:
        raise ValueError("a log grid needs count >= 2, got %d" % count)
    if not 0 < lo < hi:
        raise ValueError("a log grid needs 0 < lo < hi")
    ratio = hi / lo
    return [lo * ratio ** (j / (count - 1)) for j in range(count)]


def unit_grid(count: int) -> List[float]:
    """[0,1] grid with refinement points near the boundary equalities."""
    if count < 2:
        raise ValueError("a unit grid needs count >= 2, got %d" % count)
    base = {j / (count - 1) for j in range(count)}
    base.update((1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9))
    return sorted(base)


def check_legendre_inequality(k: int, ts: Optional[List[float]] = None,
                              points: int = 1000) -> GridCheckReport:
    """Q_k(t) <= (((t-1)/2)^(k/p) + ((t+1)/2)^(k/p))^p on a t >= 1 grid."""
    _check_k(k)
    if ts is None:
        offsets = log_grid(1e-9, 1e6 - 1.0, points - 1)
        ts = [1.0] + [1.0 + u for u in offsets]

    def sides():
        p = _pk_iv(k)
        al = Interval(k) / p
        w = [Interval(math.comb(k, j) ** 2) for j in range(k + 1)]
        zero, one, two, scale = (Interval(0), Interval(1), Interval(2),
                                 Interval(2 ** k))

        def lhs(t):
            below, above = t - one, t + one
            return sum((wj * below ** (k - j) * above ** j
                        for j, wj in enumerate(w)), zero) / scale
        return lhs, lambda t: ipow(ipow((t - one) / two, al)
                                   + ipow((t + one) / two, al), p)

    return _grid_checks(ts, 1.0, math.inf, [
        ("legendre", k, {1.0: legendre_q(k, 1) == 1}, sides)])[0]


def check_key_inequality(k: int, xs: Optional[List[float]] = None,
                         points: int = 1000) -> GridCheckReport:
    """sum_i C(k,i)^2 x^(i p/k) <= (1+x)^p on an x >= 0 grid."""
    _check_k(k)
    if xs is None:
        xs = [0.0] + log_grid(1e-6, 1e6, points - 2) + [1.0]
        xs = sorted(set(xs))
    w = [math.comb(k, i) ** 2 for i in range(k + 1)]

    def sides():
        p = _pk_iv(k)
        wiv = [Interval(wi) for wi in w]
        expos = [p * i / k for i in range(1, k + 1)]
        one = Interval(1)
        # the i = 0 term is w_0 x^0 = 1 exactly
        return (lambda x: sum((wi * xe for wi, xe in
                               zip(wiv[1:], ipows(x, expos))), wiv[0]),
                lambda x: ipow(one + x, p))

    # at x = 0 both sides reduce to 1 exactly
    return _grid_checks(xs, 0.0, math.inf, [
        ("key", k, {0.0: True, 1.0: sum(w) == math.comb(2 * k, k)},
         sides)])[0]


def check_goal_inequality(k: int, grid: Optional[List[float]] = None,
                          points: int = 1000) -> GridCheckReport:
    """(a^(q/k) + (1-a)^(q/k))^k + 2 a^(q/2) (1-a)^(q/2) <= 1 on [0,1].

    Equality at a in {0, 1/2, 1}: at the midpoint both sides collapse to
    (2^k + 2)/2^q = 1 exactly since 2^q is 2^k + 2 by definition.
    """
    _check_k(k)
    goal = _goal_inequality(k)
    if grid is None:
        grid = unit_grid(points)
    return _grid_checks(grid, 0.0, 1.0, [goal])[0]


def _goal_inequality(k: int) -> tuple:
    def sides():
        q = _qk_iv(k)
        qk, q2, one, two = q / k, q / 2, Interval(1), Interval(2)
        return (lambda a: (ipow(a, qk) + ipow(one - a, qk)) ** k
                + two * ipow(a * (one - a), q2), lambda a: one)

    return "goal", k, {0.0: True, 0.5: True, 1.0: True}, sides


def check_two_point_inequality(k: int, xs: Optional[List[float]] = None,
                               points: int = 1000) -> GridCheckReport:
    """2 x^(q/2) y^(q/2) + (x^(q/k) + y^(q/k))^k <= (x+y)^q at y = 1.

    The form is homogeneous of degree q, so fixing y = 1 loses nothing;
    equality happens at x = 0 and x = y = 1 (where both sides are the exact
    integer 2^k + 2).
    """
    _check_k(k)
    if xs is None:
        xs = [0.0] + log_grid(1e-3, 1e3, points - 2) + [1.0]
        xs = sorted(set(xs))

    def sides():
        q = _qk_iv(k)
        qk, q2, one, two = q / k, q / 2, Interval(1), Interval(2)

        def lhs(x):
            xq2, xqk = ipows(x, (q2, qk))
            return two * xq2 + (xqk + one) ** k
        return lhs, lambda x: ipow(x + one, q)

    # at x = 0 both sides reduce to 1 exactly
    return _grid_checks(xs, 0.0, math.inf, [
        ("two_point", k, {0.0: True, 1.0: 2 + 2 ** k == 2 ** k + 2},
         sides)])[0]


def check_cfil_instance(k: int, grid: Optional[List[float]] = None,
                        points: int = 1000) -> GridCheckReport:
    """The imported two-point inequality at the single exponent p = q_k/k:

    (a^p + (1-a)^p) (1 + mu^(2/p))^(p-1) <= 1,
    mu = 2 a^(p/2) (1-a)^(p/2) / (a^p + (1-a)^p),

    with equality at a in {0, 1/2, 1}.
    """
    _check_k(k)
    cfil = _cfil_inequality(k)
    if grid is None:
        grid = unit_grid(points)
    return _grid_checks(grid, 0.0, 1.0, [cfil])[0]


def _cfil_inequality(k: int) -> tuple:
    def sides():
        p = _qk_iv(k) / k
        half, inv, less = p / 2, 2 / p, p - 1
        one, two = Interval(1), Interval(2)

        def lhs(a):
            ap, ah = ipows(a, (p, half))
            bp, bh = ipows(one - a, (p, half))
            s = ap + bp
            mu = two * ah * bh / s
            return s * ipow(one + ipow(mu, inv), less)
        return lhs, lambda a: one

    return "cfil", k, {0.0: True, 0.5: True, 1.0: True}, sides


def check_convex_concave(k: int, zs: Optional[List[float]] = None,
                         points: int = 1000) -> GridCheckReport:
    """1 + z^(q/2)/2^(k-1) <= (1+z)^(q-k) on [0,1], plus the structural
    facts the proof uses: equality at both endpoints (checked as exact
    rationals), strict convexity of the left side and strict concavity of
    the right side.  The inequality is checked on zs, by default the unit
    grid of `points` points.  The shape flags are exact for all of [0, 1]:
    each side is one power, and the sign of its second derivative is
    decided by integer comparisons."""
    _check_k(k)
    convex_concave = _convex_concave_inequality(k)
    if zs is None:
        zs = unit_grid(points)
    report = _grid_checks(zs, 0.0, 1.0, [convex_concave])[0]
    report.shape_flags.update(_convex_concave_shape(k))
    return report


def _convex_concave_inequality(k: int) -> tuple:
    def sides():
        q = _qk_iv(k)
        q2, qk, scale, one = q / 2, q - k, Interval(2 ** (k - 1)), Interval(1)
        return (lambda z: one + ipow(z, q2) / scale,
                lambda z: ipow(one + z, qk))

    at_one = 1 + Fraction(1, 2 ** (k - 1)) == Fraction(2 ** k + 2, 2 ** k)
    # at z = 0 both sides are 1
    return "convex_concave", k, {0.0: True, 1.0: at_one}, sides


def _convex_concave_shape(k: int) -> Dict[str, bool]:
    """check_convex_concave's shape flags.  Each side is one power; with
    q = log2 m, m = 2^k + 2, on (0, 1]
      lhs'' = (q/2)(q/2 - 1) z^(q/2-2) / 2^(k-1) > 0  iff  q > 2,
      rhs'' = (q-k)(q-k-1) (1+z)^(q-k-2) < 0  iff  k < q < k+1,
    and 2^q = m turns both into integer comparisons."""
    m = 2 ** k + 2
    return {"lhs_convex": m > 4, "rhs_concave": 2 ** k < m < 2 ** (k + 1)}


def check_higher_energy_inequalities(k: int, points: int = 1000) -> Dict[str, GridCheckReport]:
    """All four scalar inequalities behind the higher-energy bound.

    goal, cfil and convex_concave share the unit grid of ``points`` points,
    so they climb one ladder together: a level compiles the three into one
    kernel, which computes 1 - a, log a, log(1 - a) and the powers they
    share once per point.  Each report is the one its own check gives."""
    two_point = check_two_point_inequality(k, points=points)
    # two_point has refused k < 2 and points < 4 already
    goal, cfil, convex_concave = _grid_checks(unit_grid(points), 0.0, 1.0, [
        _goal_inequality(k), _cfil_inequality(k),
        _convex_concave_inequality(k)])
    convex_concave.shape_flags.update(_convex_concave_shape(k))
    return {"two_point": two_point, "goal": goal, "cfil": cfil,
            "convex_concave": convex_concave}


# ---------------------------------------------------------------------------
# curves


def _float_pk(k: int) -> float:
    return math.log2(math.comb(2 * k, k))


def _float_qk(k: int) -> float:
    return math.log2(2 ** k + 2)


def curve_data(which: str, k: int, samples: int) -> List[Tuple[float, float]]:
    """Sampled (x, value) rows on [0,1], k >= 1, for the ratio curve (phi),
    its critical-point curve (psi), or the goal-inequality left side (goal)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if which not in ("phi", "psi", "goal"):
        raise ValueError("unknown curve %r" % (which,))
    xs = [j / (samples - 1) for j in range(samples)]
    w = [math.comb(k, i) ** 2 for i in range(k + 1)]
    out = []
    # terms are added one by one in order: sum() compensates float rounding
    # from Python 3.12 on, which would change the rows' bytes
    if which == "phi":
        p = _float_pk(k)
        for x in xs:
            num = 0.0
            for i in range(k + 1):
                num += w[i] * x ** (p * (k - i) / k)
            out.append((x, num / (1 + x) ** p))
    elif which == "psi":
        p = _float_pk(k)
        for x in xs:
            val = 0.0
            for i in range(k):
                val += w[i] * ((k - i) / k * x ** (p * (k - i) / k - 1)
                               - i / k * x ** (p * (k - i) / k))
            out.append((x, val))
    else:
        q = _float_qk(k)
        for x in xs:
            val = (x ** (q / k) + (1 - x) ** (q / k)) ** k + \
                2 * (x * (1 - x)) ** (q / 2)
            out.append((x, val))
    return out


def psi_at_one_exact(k: int) -> Fraction:
    """psi_k(1) as an exact rational: sum_{i<k} C(k,i)^2 (k-2i)/k."""
    w = [math.comb(k, i) ** 2 for i in range(k)]
    return Fraction(sum(v * (k - 2 * i) for i, v in enumerate(w)), k)


@dataclass
class PsiShapeReport:
    k: int
    samples: int
    negative: int
    positive_indices: List[Tuple[int, float]]
    undecided_indices: List[int]

    @property
    def concave_certified(self) -> bool:
        return not self.positive_indices and not self.undecided_indices

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "samples": self.samples,
            "negative": self.negative,
            "positive_indices": [[i, x] for i, x in self.positive_indices],
            "undecided_indices": self.undecided_indices,
            "concave_certified": self.concave_certified,
        }


def certify_psi_shape(k: int, samples: int = 512) -> PsiShapeReport:
    """Certified signs of the second differences of psi_k on a uniform grid.

    Every interior index ends up certified negative, certified positive, or
    undecided at the precision cap; nothing is classified by rounding.
    """
    _check_k(k)
    if samples < 3:
        raise ValueError("samples must be >= 3 to certify second differences")
    xs = [j / (samples - 1) for j in range(samples)]

    def curve():
        p = _pk_iv(k)
        zero, one = Interval(0), Interval(1)
        terms = [(Interval(math.comb(k, i) ** 2), Interval(k - i) / k,
                  Interval(i) / k) for i in range(k)]
        expos = [p * (k - i) / k for i in range(k)]
        expos = [e - one for e in expos] + expos

        def psi_at(x):
            pw = ipows(x, expos)
            return sum((wi * (c1 * pw[i] - c0 * pw[k + i])
                        for i, (wi, c1, c0) in enumerate(terms)), zero)
        return psi_at

    negative, positive, undecided = _classify_second_differences(xs, curve)
    return PsiShapeReport(k, samples, len(negative),
                          [(i, xs[i]) for i in positive], undecided)


def check_pk_bound(k_max: int) -> dict:
    """C(2k,k) < 2^(2k-1) for k = 2..k_max, by exact integer comparison."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    failures = []
    m = 2     # C(2,1)
    for k in range(2, k_max + 1):
        m = m * 2 * (2 * k - 1) // k
        if not m < 1 << (2 * k - 1):
            failures.append(k)
    return {"k_max": k_max, "failures": failures, "ok": not failures}
