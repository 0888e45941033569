"""Independent oracles for the benchmark's output checks.

Nothing here imports cubenergy.  Energies are counted tuple by tuple, the
sharp equality sets are built geometrically, the scalar inequalities are
evaluated with plain (non-interval) high-precision mpmath, and extension
ratios are recomputed from exact ``Fraction`` weights.  The formulas are the
definitions stated in the library's docstrings and the paper, written out
again here so that a fault in the library cannot hide in a shared helper.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import mpmath

Point = Tuple[int, ...]

# working precision of every mpmath evaluation below, in bits
MP_BITS = 320


# ---------------------------------------------------------------------------
# tuple-counting energies


def _add(p: Sequence[int], q: Sequence[int]) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def additive_energy(points: Iterable[Sequence[int]], k: int) -> int:
    """Number of 2k-tuples with a_1+...+a_k = b_1+...+b_k.

    Counts every k-tuple by its vector sum, then sums the squared counts.
    """
    pts = [tuple(p) for p in points]
    sums: Counter = Counter()
    for tup in product(pts, repeat=k):
        s = tup[0]
        for p in tup[1:]:
            s = _add(s, p)
        sums[s] += 1
    return sum(c * c for c in sums.values())


def higher_energy(points: Iterable[Sequence[int]], k: int) -> int:
    """Number of 2k-tuples with a_1-b_1 = ... = a_k-b_k."""
    pts = [tuple(p) for p in points]
    diffs = Counter(tuple(a - b for a, b in zip(p, q)) for p in pts for q in pts)
    return sum(c ** k for c in diffs.values())


def energy(points, k: int, kind: str) -> int:
    if kind == "additive":
        return additive_energy(points, k)
    if kind == "higher":
        return higher_energy(points, k)
    raise ValueError("unknown energy kind %r" % (kind,))


def binary_cube(d: int) -> List[Point]:
    return [tuple(p) for p in product((0, 1), repeat=d)]


def affine_subcubes(d: int) -> Set[frozenset]:
    """Every affine subcube of {0,1}^d, singletons included.

    A subcube of size 2^(j+1) is C u (C+v) for a subcube C of size 2^j and a
    step v in {-1,0,1}^d that keeps C+v inside the cube and disjoint from C.
    """
    cube = set(binary_cube(d))
    steps = [v for v in product((-1, 0, 1), repeat=d) if any(v)]
    layer = {frozenset([p]) for p in cube}
    found = set(layer)
    while layer:
        nxt = set()
        for c in layer:
            for v in steps:
                moved = {_add(p, v) for p in c}
                if moved <= cube and not moved & c:
                    nxt.add(c | moved)
        found |= nxt
        layer = nxt
    return found


def level_size(d: int, t: int) -> int:
    """Points of {0,1,2}^d with at most t coordinates off the middle."""
    return sum(math.comb(d, j) * 2 ** j for j in range(t + 1))


def level_set(d: int, t: int) -> List[Point]:
    return [p for p in product((0, 1, 2), repeat=d)
            if sum(1 for c in p if c != 1) <= t]


# ---------------------------------------------------------------------------
# exact threshold comparisons


def exceeds_power(e: int, c: int, exponent) -> bool:
    """Is e > c ** exponent?  ``exponent`` is a float (taken exactly) or the
    pair ("log2", m) for log2(m).  Integer powers are compared exactly; the
    rest at MP_BITS bits, raising when the sides are too close to separate."""
    if c == 1:
        return e > 1
    if isinstance(exponent, tuple) and c & (c - 1) == 0:
        return e > exponent[1] ** (c.bit_length() - 1)
    with mpmath.workprec(MP_BITS):
        if isinstance(exponent, tuple):
            x = mpmath.log(exponent[1], 2)
        else:
            x = mpmath.mpf(exponent)
        gap = mpmath.log(e) - x * mpmath.log(c)
        if abs(gap) < mpmath.mpf(2) ** (-MP_BITS // 2):
            raise ArithmeticError("cannot separate %d from %d ** %s" % (e, c, exponent))
        return gap > 0


def log_ratio_exceeds(e: int, size: int, num: int, den: int) -> bool:
    """Is log(e)/log(size) > log(num)/log(den)?  High-precision mpmath."""
    with mpmath.workprec(MP_BITS):
        gap = mpmath.log(e) * mpmath.log(den) - mpmath.log(num) * mpmath.log(size)
        if abs(gap) < mpmath.mpf(2) ** (-MP_BITS // 2):
            return False        # equal: (e, size) = (num^t, den^t)
        return gap > 0


# ---------------------------------------------------------------------------
# scalar inequalities, both sides in plain mpmath


def _p(k):
    return mpmath.log(math.comb(2 * k, k), 2)


def _q(k):
    return mpmath.log(2 ** k + 2, 2)


def _legendre(k, t):
    t = mpmath.mpf(t)
    lhs = sum(math.comb(k, j) ** 2 * (t - 1) ** (k - j) * (t + 1) ** j
              for j in range(k + 1)) / mpmath.mpf(2) ** k
    p = _p(k)
    rhs = (((t - 1) / 2) ** (k / p) + ((t + 1) / 2) ** (k / p)) ** p
    return lhs, rhs


def _key(k, x):
    x = mpmath.mpf(x)
    p = _p(k)
    lhs = sum(math.comb(k, i) ** 2 * x ** (i * p / k) for i in range(k + 1))
    return lhs, (1 + x) ** p


def _two_point(k, x):
    x = mpmath.mpf(x)
    q = _q(k)
    lhs = 2 * x ** (q / 2) + (x ** (q / k) + 1) ** k
    return lhs, (x + 1) ** q


def _goal(k, a):
    a = mpmath.mpf(a)
    b = 1 - a
    q = _q(k)
    lhs = (a ** (q / k) + b ** (q / k)) ** k + 2 * (a * b) ** (q / 2)
    return lhs, mpmath.mpf(1)


def _cfil(k, a):
    a = mpmath.mpf(a)
    b = 1 - a
    p = _q(k) / k
    s = a ** p + b ** p
    mu = 2 * a ** (p / 2) * b ** (p / 2) / s
    return s * (1 + mu ** (2 / p)) ** (p - 1), mpmath.mpf(1)


def _convex_concave(k, z):
    z = mpmath.mpf(z)
    q = _q(k)
    return 1 + z ** (q / 2) / mpmath.mpf(2) ** (k - 1), (1 + z) ** (q - k)


INEQUALITIES = {
    "legendre": _legendre,
    "key": _key,
    "two_point": _two_point,
    "goal": _goal,
    "cfil": _cfil,
    "convex_concave": _convex_concave,
}

# points where each inequality is an equality (the paper's boundary cases)
EQUALITY_POINTS = {
    "legendre": [1.0],
    "key": [0.0, 1.0],
    "two_point": [0.0, 1.0],
    "goal": [0.0, 0.5, 1.0],
    "cfil": [0.0, 0.5, 1.0],
    "convex_concave": [0.0, 1.0],
}


def inequality_gap(name: str, k: int, x: float):
    """rhs - lhs of the named inequality at x, at MP_BITS bits."""
    with mpmath.workprec(MP_BITS):
        lhs, rhs = INEQUALITIES[name](k, x)
        return rhs - lhs


def _log_grid(lo: float, hi: float, count: int) -> List[float]:
    ratio = hi / lo
    return [lo * ratio ** (j / (count - 1)) for j in range(count)]


def _unit_grid(count: int) -> List[float]:
    base = {j / (count - 1) for j in range(count)}
    base.update((1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9))
    return sorted(base)


def default_grid(name: str, points: int) -> List[float]:
    """The default grid of each check, as the library documents it: log
    spaced on the half lines, uniform plus boundary refinement on [0,1]."""
    if name == "legendre":
        return [1.0] + [1.0 + u for u in _log_grid(1e-9, 1e6 - 1.0, points - 1)]
    if name == "key":
        return sorted(set([0.0] + _log_grid(1e-6, 1e6, points - 2) + [1.0]))
    if name == "two_point":
        return sorted(set([0.0] + _log_grid(1e-3, 1e3, points - 2) + [1.0]))
    return _unit_grid(points)


def psi(k: int, x):
    """psi_k(x) = sum_{i<k} C(k,i)^2 ((k-i)/k x^(e_i - 1) - i/k x^(e_i)),
    e_i = p (k-i)/k, p = log2 C(2k,k)."""
    x = mpmath.mpf(x)
    if x == 0:
        return mpmath.mpf(0)
    p = _p(k)
    total = mpmath.mpf(0)
    for i in range(k):
        e = p * (k - i) / k
        total += math.comb(k, i) ** 2 * (mpmath.mpf(k - i) / k * x ** (e - 1)
                                         - mpmath.mpf(i) / k * x ** e)
    return total


def psi_second_difference(k: int, samples: int, i: int):
    xs = [j / (samples - 1) for j in (i - 1, i, i + 1)]
    with mpmath.workprec(MP_BITS):
        a, b, c = (psi(k, x) for x in xs)
        return c - 2 * b + a


# ---------------------------------------------------------------------------
# coefficient signs


def coefficient_pairs(k: int) -> List[Tuple[int, int]]:
    """(a_i, b_i) with C_i = a_i alpha + b_i for i = 0..2k, from
    C_i = sum_{j+l=i} w_j w_l j (k-l) (alpha + l - j), w_j = C(k,j)^2."""
    w = [math.comb(k, j) ** 2 for j in range(k + 1)]
    out = []
    for i in range(2 * k + 1):
        a = b = 0
        for j in range(k + 1):
            l = i - j
            if 0 <= l <= k:
                t = w[j] * w[l] * j * (k - l)
                a += t
                b += t * (l - j)
        out.append((a, b))
    return out


def coefficient_signs(k: int) -> List[int]:
    """Signs of C_1..C_k at alpha = k / log2 C(2k,k), in mpmath."""
    out = []
    with mpmath.workprec(4 * MP_BITS):
        alpha = k / mpmath.log(math.comb(2 * k, k), 2)
        for a, b in coefficient_pairs(k)[1:k + 1]:
            v = a * alpha + b
            scale = max(abs(a), abs(b), 1)
            if abs(v) < scale * mpmath.mpf(2) ** (-2 * MP_BITS):
                out.append(0 if a == b == 0 else None)
            else:
                out.append(1 if v > 0 else -1)
    return out


# ---------------------------------------------------------------------------
# extension ratios


def weighted_energy(weights: Dict[Point, Fraction], k: int) -> Fraction:
    """sum_s (sum_{x_1+...+x_k=s} f(x_1)...f(x_k))^2, exactly."""
    conv: Dict[Point, Fraction] = dict(weights)
    for _ in range(k - 1):
        nxt: Dict[Point, Fraction] = {}
        for x, u in conv.items():
            for y, v in weights.items():
                s = _add(x, y)
                nxt[s] = nxt.get(s, Fraction(0)) + u * v
        conv = nxt
    return sum((v * v for v in conv.values()), Fraction(0))


def extension_ratio(weights: Dict[Point, Fraction], k: int, q) -> mpmath.mpf:
    """E(f)^(1/2k) / ||f||_q from the exact energy and exact weights."""
    e = weighted_energy(weights, k)
    with mpmath.workprec(MP_BITS):
        qm = mpmath.mpf(Fraction(q).numerator) / Fraction(q).denominator
        em = mpmath.mpf(e.numerator) / e.denominator
        norm = sum(mpmath.power(mpmath.mpf(w.numerator) / w.denominator, qm)
                   for w in weights.values() if w)
        return mpmath.power(em, mpmath.mpf(1) / (2 * k)) / mpmath.power(norm, 1 / qm)


def best_indicator_ratio(alphabet: List[Point], k: int, q) -> Tuple[mpmath.mpf, List[Point]]:
    """Brute-force maximum of the indicator ratio over all nonempty subsets."""
    best, best_pts = None, None
    m = len(alphabet)
    for mask in range(1, 1 << m):
        sel = [alphabet[i] for i in range(m) if mask >> i & 1]
        r = extension_ratio({p: Fraction(1) for p in sel}, k, q)
        if best is None or r > best:
            best, best_pts = r, sel
    return best, best_pts
