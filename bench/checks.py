"""Output checks of the four workloads.

Each checker takes the outputs of one pass, keyed by operation name, as
plain JSON data (the CLI envelope for CLI jobs, ``to_dict()`` for library
calls), and returns a list of error strings; an empty list means every
output agreed with the oracles.  Operations that failed, and so have no
output, are skipped.  Seeded choices (which masks, grid points or levels to
recount) come from the benchmark seed.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List

import oracles
import workloads

REL_TOL = 1e-9          # exact re-derivation of float ratios
FLOAT_TOL = 1e-12       # float log-ratios recomputed from exact counts
RECOUNT_MAX = 400       # witness levels recounted in full by tuple counting
SAMPLED_MASKS = 40
SAMPLED_SUBCUBES = 12
GRID_SAMPLES = 4
PSI_SAMPLES = 6


class _Errors(list):
    def expect(self, cond: bool, msg: str, *fmt) -> bool:
        if not cond:
            self.append(msg % fmt if fmt else msg)
        return cond


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("check-%s-%d" % (workload, seed))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# subset-sweep


SHARP_SWEEPS = {
    "additive-k2": ("additive", 2, 6),
    "higher-k2": ("higher", 2, 6),
    "higher-k3": ("higher", 3, 10),
}


def _check_witness(err: _Errors, name: str, r: dict, kind: str, k: int,
                   exponent, max_expected: float):
    """The max-ratio witness, recounted, gives the reported ratio, meets the
    bound, and the ratio is the largest the method admits."""
    wit = r.get("max_ratio_witness")
    if not err.expect(wit is not None and len(wit) >= 2,
                      "%s: no max-ratio witness", name):
        return
    e = oracles.energy(wit, k, kind)
    c = len(wit)
    err.expect(_close(math.log(e) / math.log(c), r["max_ratio"], FLOAT_TOL),
               "%s: witness energy %d on %d points gives ratio %r, report says %r",
               name, e, c, math.log(e) / math.log(c), r["max_ratio"])
    err.expect(not oracles.exceeds_power(e, c, exponent),
               "%s: max-ratio witness violates the bound", name)
    err.expect(r["max_ratio"] <= max_expected + FLOAT_TOL,
               "%s: max_ratio %r above the exponent %r", name, r["max_ratio"],
               max_expected)


def check_subset_sweep(outputs: Dict[str, dict], seed: int) -> List[str]:
    err = _Errors()
    rng = _rng("subset-sweep", seed)
    cube4 = oracles.binary_cube(4)
    subcubes = oracles.affine_subcubes(4)
    subcube_list = sorted(sorted(s) for s in subcubes)

    for name, (kind, k, m) in SHARP_SWEEPS.items():
        if name not in outputs:
            continue
        r = outputs[name]["result"]
        err.expect(r["mode"] == "exhaustive" and r["subsets_checked"] == 2 ** 16 - 1,
                   "%s: %s sweep checked %s subsets, expected 65535",
                   name, r["mode"], r["subsets_checked"])
        err.expect(r["violations"] == [], "%s: %d violations reported",
                   name, len(r["violations"]))
        err.expect(r["equality_count"] == len(subcubes),
                   "%s: equality_count %s, affine subcubes %d",
                   name, r["equality_count"], len(subcubes))
        err.expect(r["target"]["log2_arg"] == str(m),
                   "%s: target log2_arg %r, expected %d", name,
                   r["target"]["log2_arg"], m)
        _check_witness(err, name, r, kind, k, ("log2", m), math.log2(m))
        err.expect(_close(r["max_ratio"], math.log2(m), FLOAT_TOL),
                   "%s: max_ratio %r, the sharp exponent log2 %d is attained",
                   name, r["max_ratio"], m)
        # a seeded sample of masks: the bound holds, and equality happens
        # exactly on affine subcubes; sampled subcubes attain it
        for _ in range(SAMPLED_MASKS):
            mask = rng.randrange(1, 1 << 16)
            pts = [p for i, p in enumerate(cube4) if mask >> i & 1]
            _check_mask(err, name, pts, kind, k, m, frozenset(pts) in subcubes)
        for pts in rng.sample(subcube_list, SAMPLED_SUBCUBES):
            _check_mask(err, name, pts, kind, k, m, True)

    if "custom-exponent" in outputs:
        r = outputs["custom-exponent"]["result"]
        err.expect(r["subsets_checked"] == 2 ** 16 - 1 and r["violations"] == [],
                   "custom-exponent: %s subsets, %d violations",
                   r["subsets_checked"], len(r["violations"]))
        # c ** 2.6 is irrational for 2 <= c <= 16: only singletons are equal
        err.expect(r["equality_count"] == 16,
                   "custom-exponent: equality_count %s, expected 16 singletons",
                   r["equality_count"])
        _check_witness(err, "custom-exponent", r, "additive", 2, 2.6, 2.6)
        err.expect(_close(r["max_ratio"], math.log2(6), FLOAT_TOL),
                   "custom-exponent: max_ratio %r, expected log2 6", r["max_ratio"])

    if "sample-1x5" in outputs:
        r = outputs["sample-1x5"]["result"]
        err.expect(r["mode"] == "sample" and r["seed"] == workloads.sample_seed(seed),
                   "sample-1x5: mode %r seed %r", r["mode"], r["seed"])
        err.expect(r["subsets_checked"] == workloads.SAMPLE_MASKS,
                   "sample-1x5: %s subsets checked, expected %d",
                   r["subsets_checked"], workloads.SAMPLE_MASKS)
        err.expect(r["violations"] == [], "sample-1x5: %d violations",
                   len(r["violations"]))
        _check_witness(err, "sample-1x5", r, "additive", 2, ("log2", 6), math.log2(6))
        cube5 = oracles.binary_cube(5)
        for _ in range(SAMPLED_MASKS // 4):
            mask = rng.randrange(1, 1 << 32)
            pts = [p for i, p in enumerate(cube5) if mask >> i & 1]
            err.expect(not oracles.exceeds_power(
                oracles.additive_energy(pts, 2), len(pts), ("log2", 6)),
                "sample-1x5: a sampled subset of {0,1}^5 violates the bound")
    return err


def _check_mask(err: _Errors, name: str, pts, kind: str, k: int, m: int,
                is_subcube: bool):
    e = oracles.energy(pts, k, kind)
    c = len(pts)
    if c & (c - 1) == 0:
        bound = m ** (c.bit_length() - 1)
        err.expect(e <= bound, "%s: subset of size %d has energy %d > %d",
                   name, c, e, bound)
        err.expect((e == bound) == is_subcube,
                   "%s: subset of size %d: equality %s but affine subcube %s",
                   name, c, e == bound, is_subcube)
    else:
        err.expect(not is_subcube, "%s: subcube of size %d", name, c)
        err.expect(not oracles.exceeds_power(e, c, ("log2", m)),
                   "%s: subset of size %d violates the bound", name, c)


# ---------------------------------------------------------------------------
# witness-levels


def check_witness_levels(outputs: Dict[str, dict], seed: int) -> List[str]:
    err = _Errors()
    if "witness-d7" not in outputs:
        return err
    r = outputs["witness-d7"]["result"]
    rng = _rng("witness-levels", seed)
    err.expect(_close(r["threshold"], math.log(19) / math.log(3), FLOAT_TOL),
               "threshold %r is not log_3 19", r["threshold"])
    err.expect(r["crossed"] is True and r["smallest_crossing_d"] == 7,
               "first crossing at d = %r, expected 7", r["smallest_crossing_d"])
    per = r["per_dimension"]
    if not err.expect([rep["d"] for rep in per] == list(range(1, 8)),
                      "dimensions %r, expected 1..7", [rep["d"] for rep in per]):
        return err
    extra = [(rep["d"], lv["level"]) for rep in per for lv in rep["levels"]
             if RECOUNT_MAX < lv["size"] <= 2 * RECOUNT_MAX]
    recount_extra = rng.choice(extra) if extra else None
    best = None
    for rep in per:
        d = rep["d"]
        err.expect(rep["undecided_levels"] == [], "d=%d: undecided levels %r",
                   d, rep["undecided_levels"])
        levels = rep["levels"]
        if not err.expect([lv["level"] for lv in levels] == list(range(d + 1)),
                          "d=%d: levels %r", d, [lv["level"] for lv in levels]):
            continue
        crossed = False
        for lv in levels:
            t, size, e = lv["level"], lv["size"], int(lv["energy"])
            err.expect(size == oracles.level_size(d, t),
                       "d=%d level %d: size %d, expected %d",
                       d, t, size, oracles.level_size(d, t))
            if size <= RECOUNT_MAX or (d, t) == recount_extra:
                want = oracles.additive_energy(oracles.level_set(d, t), 2)
                err.expect(e == want, "d=%d level %d: energy %d, recount %d",
                           d, t, e, want)
            if size >= 2:
                err.expect(lv["ratio"] is not None and _close(
                    lv["ratio"], math.log(e) / math.log(size), FLOAT_TOL),
                    "d=%d level %d: ratio %r", d, t, lv["ratio"])
                crossed = crossed or oracles.log_ratio_exceeds(e, size, 19, 3)
                if best is None or lv["ratio"] > best:
                    best = lv["ratio"]
        top = levels[-1]
        err.expect(top["size"] == 3 ** d and int(top["energy"]) == 19 ** d,
                   "d=%d: top level has size %d energy %s, expected 3^d, 19^d",
                   d, top["size"], top["energy"])
        err.expect(rep["crossed"] == crossed,
                   "d=%d: report says crossed=%r, mpmath says %r",
                   d, rep["crossed"], crossed)
        err.expect(crossed == (d == 7),
                   "d=%d: a level beats log 19 / log 3 = %r", d, crossed)
    err.expect(best is not None and r["best_ratio"] == best,
               "best_ratio %r, levels give %r", r["best_ratio"], best)
    return err


# ---------------------------------------------------------------------------
# certified-grids


def check_certified_grids(outputs: Dict[str, dict], seed: int) -> List[str]:
    err = _Errors()
    rng = _rng("certified-grids", seed)
    for k in workloads.GRID_KS:
        reports = {}
        for name in ("legendre", "key"):
            if "%s-k%d" % (name, k) in outputs:
                reports[name] = outputs["%s-k%d" % (name, k)]
        if "higher-k%d" % k in outputs:
            bundle = outputs["higher-k%d" % k]
            err.expect(sorted(bundle) == ["cfil", "convex_concave", "goal", "two_point"],
                       "higher-k%d: reports %r", k, sorted(bundle))
            reports.update(bundle)
        for name, rep in reports.items():
            _check_grid_report(err, name, k, rep, rng)
    for k in workloads.PSI_KS:
        if "psi-k%d" % k in outputs:
            _check_psi(err, k, outputs["psi-k%d" % k], rng)
    if "signs" in outputs:
        _check_signs(err, outputs["signs"]["result"])
    return err


def _check_grid_report(err: _Errors, name: str, k: int, rep: dict,
                       rng: random.Random):
    tag = "%s k=%d" % (name, k)
    if not err.expect(rep["name"] == name and rep["k"] == k,
                      "%s: report is %s k=%s", tag, rep["name"], rep["k"]):
        return
    grid = oracles.default_grid(name, workloads.GRID_POINTS)
    err.expect(rep["points"] == len(grid), "%s: %d points, grid has %d",
               tag, rep["points"], len(grid))
    err.expect(rep["ok"] and not rep["failures"] and not rep["undecided"],
               "%s: ok=%r failures=%d undecided=%d", tag, rep["ok"],
               len(rep["failures"]), len(rep["undecided"]))
    want_eq = oracles.EQUALITY_POINTS[name]
    err.expect(sorted(rep["equalities"]) == want_eq,
               "%s: equalities %r, expected %r", tag, rep["equalities"], want_eq)
    if name == "convex_concave":
        err.expect(rep["shape_flags"] == {"lhs_convex": True, "rhs_concave": True},
                   "%s: shape flags %r", tag, rep["shape_flags"])
    margin = rep["min_margin"]
    err.expect(margin is not None and margin > 0, "%s: min_margin %r", tag, margin)
    failed = {f["x"] for f in rep["failures"]}
    undecided = set(rep["undecided"])
    inner = [x for x in grid if x not in want_eq]
    # the grid neighbours of the equality points carry the smallest margins
    near = {grid[j] for i, x in enumerate(grid) if x in want_eq
            for j in (i - 1, i + 1) if 0 <= j < len(grid)} - set(want_eq)
    sample = set(rng.sample(inner, GRID_SAMPLES)) | near | failed
    for x in sorted(sample):
        if x in undecided:
            continue
        gap = oracles.inequality_gap(name, k, x)
        if x in failed:
            err.expect(gap < 0, "%s: failure reported at x=%r but mpmath gap %s",
                       tag, x, gap)
        else:
            err.expect(gap > 0, "%s: holds at x=%r but mpmath gap %s", tag, x, gap)
            if margin is not None:
                err.expect(gap >= margin * (1 - 1e-9),
                           "%s: gap %s at x=%r below reported min_margin %r",
                           tag, gap, x, margin)


def _check_psi(err: _Errors, k: int, rep: dict, rng: random.Random):
    tag = "psi k=%d" % k
    n = rep["samples"]
    pos = {i for i, _ in rep["positive_indices"]}
    und = set(rep["undecided_indices"])
    err.expect(rep["negative"] + len(pos) + len(und) == n - 2,
               "%s: %d negative + %d positive + %d undecided != %d interior",
               tag, rep["negative"], len(pos), len(und), n - 2)
    err.expect(not und, "%s: undecided indices %r", tag, sorted(und))
    if k == 3:
        err.expect(rep["concave_certified"] and not pos,
                   "%s: not certified concave", tag)
    else:
        err.expect(not rep["concave_certified"] and pos,
                   "%s: certified concave, expected positive second differences", tag)
    for i, x in rep["positive_indices"]:
        err.expect(x == i / (n - 1), "%s: index %d has x=%r", tag, i, x)
    others = [i for i in range(1, n - 1) if i not in pos and i not in und]
    for i in sorted(pos) + rng.sample(others, min(PSI_SAMPLES, len(others))):
        d2 = oracles.psi_second_difference(k, n, i)
        err.expect((d2 > 0) == (i in pos),
                   "%s: second difference at %d is %s, report says %s",
                   tag, i, d2, "positive" if i in pos else "negative")


def _check_signs(err: _Errors, r: dict):
    table = r["table"]
    ks = [row["k"] for row in table]
    err.expect(ks == list(range(2, workloads.SIGNS_K_MAX + 1)),
               "signs: table covers k=%r..%r", ks[:1], ks[-1:])
    err.expect(r["all_certified"], "signs: not all certified")
    for row in table:
        k = row["k"]
        want = oracles.coefficient_signs(k)
        err.expect(None not in want, "signs k=%d: mpmath could not decide", k)
        err.expect(row["signs"] == want, "signs k=%d: %r, mpmath gives %r",
                   k, row["signs"], want)
        nonzero = [s for s in want if s]
        changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
        err.expect(changes == 1 and row["sign_changes"] == 1,
                   "signs k=%d: %d sign changes (report %r), expected 1",
                   k, changes, row["sign_changes"])
        err.expect(row["certified"], "signs k=%d: not certified", k)


# ---------------------------------------------------------------------------
# extension-search


def check_extension_search(outputs: Dict[str, dict], seed: int) -> List[str]:
    err = _Errors()
    for name, alphabet, k, flag, value, _ in workloads.EXTENSION_PROBLEMS:
        if name not in outputs:
            continue
        r = outputs[name]["result"]
        prob = r["problem"]
        if alphabet.startswith("cube:1x"):
            pts = oracles.binary_cube(int(alphabet[len("cube:1x"):]))
        else:
            pts = [(int(v),) for v in alphabet.split(",")]
        err.expect(sorted(tuple(p) for p in prob["alphabet"]) == sorted(pts)
                   and prob["k"] == k, "%s: problem %r", name, prob)
        q = prob["q"]
        want_q = value if flag == "--q" else 2 * k / value
        err.expect(_close(q, want_q, FLOAT_TOL), "%s: q=%r, expected %r",
                   name, q, want_q)
        lower, restricted = r["lower_bound"], r["restricted_lower_bound"]
        err.expect(restricted <= lower, "%s: restricted bound %r above bound %r",
                   name, restricted, lower)
        weights = {tuple(p): Fraction(w) for p, w in r["witness"]}
        if err.expect(weights and set(weights) <= set(pts)
                      and all(w > 0 for w in weights.values()),
                      "%s: witness %r outside the alphabet", name, r["witness"]):
            exact = oracles.extension_ratio(weights, k, q)
            err.expect(_close(float(exact), lower, REL_TOL),
                       "%s: witness realizes %s, reported bound %r", name, exact, lower)
        rw = [tuple(p) for p in r["restricted_witness"]]
        if err.expect(rw and set(rw) <= set(pts),
                      "%s: restricted witness %r", name, rw):
            exact = oracles.extension_ratio({p: Fraction(1) for p in rw}, k, q)
            err.expect(_close(float(exact), restricted, REL_TOL),
                       "%s: restricted witness realizes %s, reported %r",
                       name, exact, restricted)
        err.expect(r["restricted_exhaustive"], "%s: restricted search not exhaustive",
                   name)
        brute, _ = oracles.best_indicator_ratio(pts, k, q)
        err.expect(_close(float(brute), restricted, REL_TOL),
                   "%s: brute-force 0/1 maximum %s, restricted bound %r",
                   name, brute, restricted)
        if name == "pair":
            err.expect(abs(lower - 1) <= 1e-6, "pair: bound %r, expected 1", lower)
        if name == "three-letters":
            err.expect(lower > 1.001, "three-letters: bound %r not above 1.001", lower)
    return err


CHECKERS = {
    "subset-sweep": check_subset_sweep,
    "witness-levels": check_witness_levels,
    "certified-grids": check_certified_grids,
    "extension-search": check_extension_search,
}
