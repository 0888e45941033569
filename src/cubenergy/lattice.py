"""Exact lattice point sets and finitely supported maps on Z^d.

Every convolution of a weighted map runs through one kernel, convolve_packed,
on maps keyed by carry-free packed integers (pack_points): adding two keys adds
the points.  Dense nonnegative integer maps take one big-integer product, in
the slot format that energy's product for 0/1 sets shares (see _slot_bytes);
all other maps, float and Fraction weights included, take a dict loop in a
fixed order.  The CountsMap functions (indicator, convolve, correlate, ...) are
the public tuple-keyed API; nothing else in src/ calls them.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, ParseError

Point = Tuple[int, ...]

# big-integer branch ceiling: length of the kernel's result key range
DENSE_MAX_CELLS = 1 << 20


def _check_point(p, dim: int) -> Point:
    if not isinstance(p, tuple) or len(p) != dim:
        raise ValueError("expected coordinate tuple of length %d, got %r" % (dim, p))
    for c in p:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError("integer coordinates only, got %r" % (p,))
    return p


@dataclass(frozen=True)
class PointSet:
    """A finite subset of Z^d.  Iteration is in sorted order."""

    dim: int
    points: frozenset

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be >= 0")
        if not isinstance(self.points, frozenset):
            object.__setattr__(self, "points", frozenset(self.points))
        for p in self.points:
            _check_point(p, self.dim)

    @classmethod
    def from_points(cls, pts: Iterable[Sequence[int]], dim: Optional[int] = None) -> "PointSet":
        rows = [tuple(p) for p in pts]
        if dim is None:
            if not rows:
                raise ValueError("cannot infer dimension of an empty set")
            dim = len(rows[0])
        return cls(dim, frozenset(rows))

    @classmethod
    def cube(cls, n: int, d: int) -> "PointSet":
        """The full grid {0, ..., n}^d."""
        if n < 0 or d < 0:
            raise ValueError("need n >= 0 and d >= 0")
        pts = [()]
        for _ in range(d):
            pts = [p + (c,) for p in pts for c in range(n + 1)]
        return cls(d, frozenset(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(sorted(self.points))

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def sorted_points(self) -> List[Point]:
        return sorted(self.points)

    def translate(self, v: Sequence[int]) -> "PointSet":
        v = _check_point(tuple(v), self.dim)
        return PointSet(self.dim, frozenset(
            tuple(a + b for a, b in zip(p, v)) for p in self.points))

    def product(self, other: "PointSet") -> "PointSet":
        """Cartesian product with concatenated coordinates."""
        pts = frozenset(p + q for p in self.points for q in other.points)
        return PointSet(self.dim + other.dim, pts)


@dataclass(frozen=True)
class CountsMap:
    """Finitely supported map Z^d -> Z with zero values dropped."""

    dim: int
    entries: Dict[Point, int]

    def __post_init__(self):
        clean = {}
        for p, v in self.entries.items():
            _check_point(p, self.dim)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("integer values only, got %r" % (v,))
            if v != 0:
                clean[p] = v
        object.__setattr__(self, "entries", clean)

    def __getitem__(self, p) -> int:
        return self.entries.get(tuple(p), 0)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> List[Tuple[Point, int]]:
        return sorted(self.entries.items())

    def support(self) -> PointSet:
        return PointSet(self.dim, frozenset(self.entries))


def indicator(a: PointSet) -> CountsMap:
    return CountsMap(a.dim, {p: 1 for p in a.points})


def sum_values(f: CountsMap):
    return sum(f.entries.values())


def power_pointwise(f: CountsMap, k: int) -> CountsMap:
    if k < 1:
        raise ValueError("k must be >= 1")
    return CountsMap(f.dim, {p: v ** k for p, v in f.entries.items()})


def multiply_pointwise(f: CountsMap, g: CountsMap) -> CountsMap:
    if f.dim != g.dim:
        raise DimensionMismatch("dims %d and %d" % (f.dim, g.dim))
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    out = {}
    for p, v in small.entries.items():
        w = big.entries.get(p)
        if w is not None:
            out[p] = v * w
    return CountsMap(f.dim, out)


def reflect(f: CountsMap) -> CountsMap:
    return CountsMap(f.dim, {tuple(-c for c in p): v for p, v in f.entries.items()})


# ---------------------------------------------------------------------------
# carry-free integer packing and the convolution kernel


def _place_values(radices: Sequence[int]) -> List[int]:
    """Row-major place values of a mixed radix (the last axis is fastest)."""
    weights = [1] * len(radices)
    for i in range(len(radices) - 1, 0, -1):
        weights[i - 1] = weights[i] * radices[i]
    return weights


def _corner(pts: Iterable[Point]) -> Tuple[List[int], List[int]]:
    """Lower corner and per-axis spans of the bounding box of pts."""
    axes = list(zip(*pts))
    los = [min(axis) for axis in axes]
    return los, [max(axis) - lo for axis, lo in zip(axes, los)]


def _pack(p: Point, los: Sequence[int], weights: Sequence[int]) -> int:
    acc = 0
    for c, l, w in zip(p, los, weights):
        acc += (c - l) * w
    return acc


def pack_points(pts: Sequence[Point], multiplier: int) -> List[int]:
    """Injectively pack points into integers so that coordinatewise sums of up
    to `multiplier` packed values (and pairwise differences) decode uniquely.
    """
    if not pts:
        return []
    los, spans = _corner(pts)
    weights = _place_values([max(multiplier, 2) * s + 1 for s in spans])
    return [_pack(p, los, weights) for p in pts]


# The slot format of the exact big-integer products (Kronecker substitution;
# D. Harvey, J. Symbolic Comput. 44, 2009): a map from keys lo .. lo+cells-1
# to nonnegative ints is the integer whose slot key - lo, `width` bytes wide,
# holds the key's value, so slot i of a product (or power) sums the products
# of the values whose slots add to i while no slot passes 256**width - 1.
# Slots of 1, 2, 4 or 8 bytes are machine words (memoryview.cast; bytes are
# their own 1-byte view), wider ones an int each, all in sys.byteorder:
# big-endian operands and products are reversed alike, so slots keep key order.

_TYPECODE = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound: int) -> int:
    """The narrowest slot holding `bound`: 1, 2, 4, 8 or past 8 bytes."""
    size = -(-bound.bit_length() // 8)
    return size if size > 8 else 1 << max(size - 1, 0).bit_length()


def _slot_buffer(keys: Iterable[int], values: Iterable[int], lo: int,
                 cells: int, width: int) -> bytearray:
    """The bytes of _slots_int's integer."""
    buf = bytearray(cells * width)
    if width in _TYPECODE:
        words = buf if width == 1 else memoryview(buf).cast(_TYPECODE[width])
        for key, val in zip(keys, values):
            words[key - lo] = val
    else:
        for key, val in zip(keys, values):
            off = (key - lo) * width
            buf[off:off + width] = val.to_bytes(width, sys.byteorder)
    return buf


def _slots_int(keys: Iterable[int], values: Iterable[int], lo: int,
               cells: int, width: int) -> int:
    """The integer whose slot key - lo holds the key's value."""
    return int.from_bytes(_slot_buffer(keys, values, lo, cells, width),
                          sys.byteorder)


def _slots_int_reflected(keys: Iterable[int], values: Iterable[int], lo: int,
                         cells: int, width: int) -> Tuple[int, int]:
    """_slots_int and its reflection, the integer whose slot
    cells - 1 - (key - lo) holds the key's value, for slots of 1, 2, 4 or 8
    bytes: the reflection reverses the words of the one buffer instead of
    encoding again."""
    buf = _slot_buffer(keys, values, lo, cells, width)
    if width == 1:
        rev = buf[::-1]
    else:
        rev = memoryview(buf).cast(_TYPECODE[width])[::-1].tobytes()
    return (int.from_bytes(buf, sys.byteorder),
            int.from_bytes(rev, sys.byteorder))


def _int_slots(q: int, cells: int, width: int) -> Sequence[int]:
    """The `cells` slots of q, lowest first."""
    raw = q.to_bytes(cells * width, sys.byteorder)
    if width in _TYPECODE:
        return raw if width == 1 else memoryview(raw).cast(_TYPECODE[width])
    return [int.from_bytes(raw[off:off + width], sys.byteorder)
            for off in range(0, len(raw), width)]


def convolve_packed(a: dict, b: dict) -> dict:
    """(a * b)[x + y] = sum of a[x] b[y] over maps keyed by pack_points
    integers.  Nonnegative int maps on a dense key range take one product
    in the slot format above and return the nonzero slots in key order;
    everything else runs a dict loop in a fixed order (a outer, b inner), so
    float sums are reproducible bit for bit."""
    if not a or not b:
        return {}
    lo_a, lo_b = min(a), min(b)
    span_a, span_b = max(a) - lo_a, max(b) - lo_b
    cells = span_a + span_b + 1
    if (cells > DENSE_MAX_CELLS or len(a) * len(b) < 4 * cells or not all(
            type(v) is int and v >= 0 for m in (a, b) for v in m.values())):
        out: dict = {}
        get = out.get
        for x, u in a.items():
            for y, v in b.items():
                s = x + y
                out[s] = get(s, 0) + u * v
        return out
    bound = min(sum(a.values()) * max(b.values()),
                sum(b.values()) * max(a.values()))
    if not bound:               # a or b is all zeros
        return {}
    width = _slot_bytes(bound)
    slots = _int_slots(_slots_int(a, a.values(), lo_a, span_a + 1, width)
                       * _slots_int(b, b.values(), lo_b, span_b + 1, width),
                       cells, width)
    return {lo_a + lo_b + i: v for i, v in enumerate(slots) if v}


def _convolve_points(e1: dict, e2: dict) -> dict:
    """convolve_packed on tuple-keyed maps.  The radix of each axis is the
    span of the result on that axis, so the kernel's key range is at most
    the cell count of the result's bounding box."""
    if not e1 or not e2:
        return {}
    lo1, span1 = _corner(e1)
    lo2, span2 = _corner(e2)
    weights = _place_values([s + t + 1 for s, t in zip(span1, span2)])
    out = convolve_packed({_pack(p, lo1, weights): v for p, v in e1.items()},
                          {_pack(q, lo2, weights): v for q, v in e2.items()})
    lo = [l1 + l2 for l1, l2 in zip(lo1, lo2)]
    decoded = {}
    for key, v in out.items():
        coords = []
        for l, w in zip(lo, weights):
            c, key = divmod(key, w)
            coords.append(c + l)
        decoded[tuple(coords)] = v
    return decoded


def convolve(f: CountsMap, g: CountsMap) -> CountsMap:
    """(f * g)(x) = sum_y f(y) g(x - y), exactly."""
    if f.dim != g.dim:
        raise DimensionMismatch("dims %d and %d" % (f.dim, g.dim))
    return CountsMap(f.dim, _convolve_points(f.entries, g.entries))


def correlate(f: CountsMap, g: CountsMap) -> CountsMap:
    """(f o g)(x) = sum_y f(y) g(x + y), via convolution with the reflection."""
    return convolve(reflect(f), g)


def iterate_convolve(f: CountsMap, k: int) -> CountsMap:
    """k-fold convolution power of f (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightFn:
    """Finitely supported nonnegative weight on Z^d.

    exact=True keeps Fraction values, exact=False keeps floats.  Zeros are
    dropped so the stored support is exactly the positive support.
    """

    dim: int
    entries: dict
    exact: bool

    def __post_init__(self):
        clean = {}
        for p, v in self.entries.items():
            _check_point(p, self.dim)
            # Fraction() raises its own errors on NaN and the infinities
            v = Fraction(v) if self.exact and not isinstance(v, float) else float(v)
            if not 0 <= v < math.inf:
                raise ValueError("weights must be finite and nonnegative, got %r" % (v,))
            if v != 0:
                clean[p] = Fraction(v) if self.exact else v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_pairs(cls, pairs, dim: Optional[int] = None,
                   exact: Optional[bool] = None) -> "WeightFn":
        pairs = [(tuple(p), v) for p, v in pairs]
        if dim is None:
            if not pairs:
                raise ValueError("cannot infer dimension of an empty weight")
            dim = len(pairs[0][0])
        if exact is None:
            exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                        for _, v in pairs)
        return cls(dim, dict(pairs), exact)

    def __getitem__(self, p):
        zero = Fraction(0) if self.exact else 0.0
        return self.entries.get(tuple(p), zero)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return sorted(self.entries.items())

    def support(self) -> PointSet:
        return PointSet(self.dim, frozenset(self.entries))

    def sup_norm(self):
        return max(self.entries.values()) if self.entries else (
            Fraction(0) if self.exact else 0.0)

    def scale(self, c) -> "WeightFn":
        c = Fraction(c) if self.exact else float(c)
        return WeightFn(self.dim, {p: v * c for p, v in self.entries.items()}, self.exact)

    def tensor(self, other: "WeightFn") -> "WeightFn":
        exact = self.exact and other.exact
        ent = {}
        for p, u in self.entries.items():
            for q, v in other.entries.items():
                w = u * v
                ent[p + q] = Fraction(w) if exact else float(w)
        return WeightFn(self.dim + other.dim, ent, exact)


def convolve_weights(f: WeightFn, g: WeightFn) -> WeightFn:
    if f.dim != g.dim:
        raise DimensionMismatch("dims %d and %d" % (f.dim, g.dim))
    return WeightFn(f.dim, _convolve_points(f.entries, g.entries),
                    f.exact and g.exact)


# ---------------------------------------------------------------------------
# serialization

def points_to_json(a: PointSet) -> str:
    return json.dumps([list(p) for p in a.sorted_points()], separators=(",", ":"))


def points_to_text(a: PointSet) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in a.sorted_points())


def _rows_to_set(rows: List[Point], dim: Optional[int]) -> PointSet:
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ParseError("ragged rows: %d vs %d coordinates" % (len(r), width))
        if dim is not None and dim != width:
            raise ParseError("expected dimension %d, rows have %d" % (dim, width))
        dim = width
    elif dim is None:
        dim = 0
    return PointSet(dim, frozenset(rows))


def parse_points_json(text: str, dim: Optional[int] = None) -> PointSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e) from None
    if not isinstance(data, list):
        raise ParseError("expected a JSON array of coordinate rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ParseError("expected a coordinate row, got %r" % (row,))
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError("integer coordinates only, got %r" % (v,))
        rows.append(tuple(row))
    return _rows_to_set(rows, dim)


def parse_points_text(text: str, dim: Optional[int] = None) -> PointSet:
    """One point per line, whitespace-separated integers.  # starts a comment."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ParseError("line %d: integer coordinates only" % lineno) from None
    return _rows_to_set(rows, dim)


def parse_points_auto(text: str, dim: Optional[int] = None) -> PointSet:
    if text.lstrip().startswith("["):
        return parse_points_json(text, dim)
    return parse_points_text(text, dim)
