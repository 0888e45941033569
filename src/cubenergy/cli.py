"""Command-line front end: every check and experiment as a reproducible
batch job with deterministic JSON or CSV output.

Exit codes: 0 success, 1 property violation (report carries the witness),
2 usage error, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from typing import List, Optional, Tuple

from .energy import (EnergyKind, decomposition_identity_check, energy,
                     interval_energy_closed_form)
from .errors import BudgetExceeded, ParseError, PrecisionExhausted
from .extension import DEProblem, optimize_de, tn_interval
from .lattice import PointSet, parse_points_auto
from .legendre import curve_data, sign_table
from .verify import ExponentTarget, sweep_cube, witness_search_general_cube

SCHEMA_VERSION = 1

_CUBE_RE = re.compile(r"^cube:(\d+)x(\d+)$")
_LIST_RE = re.compile(r"^-?\d+(,-?\d+)*$")


# ---------------------------------------------------------------------------
# deterministic serialization


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    text = format(x, ".17g")
    # a whole-valued float stays a JSON float: "3.0", not "3"
    return text if "." in text or "e" in text else text + ".0"


def _emit(obj, out: List[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be strings, got %r" % (key,))
            if not first:
                out.append(",")
            first = False
            _emit(key, out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError("cannot serialize %r" % (type(obj),))


def dumps_canonical(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats; byte-stable."""
    out: List[str] = []
    _emit(obj, out)
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"%s"' % s.replace('"', '""')
    return s


def render_csv(header: List[str], rows: List[List[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument helpers


def _parse_cube_spec(spec: str) -> Optional[Tuple[int, int]]:
    """(N, D) for a spec cube:NxD, None for any other spec."""
    m = _CUBE_RE.match(spec)
    if not m:
        return None
    n, d = int(m.group(1)), int(m.group(2))
    if n < 0 or d < 1:
        raise ParseError("cube spec needs N >= 0 and D >= 1")
    return n, d


def parse_set_spec(spec: str) -> PointSet:
    """cube:NxD for {0..N}^D, a comma list of integers for a 1-d set, or a
    path to a points file (JSON array or whitespace rows)."""
    cube = _parse_cube_spec(spec)
    if cube is not None:
        return PointSet.cube(*cube)
    if _LIST_RE.match(spec):
        vals = [int(v) for v in spec.split(",")]
        return PointSet.from_points([(v,) for v in vals])
    if not os.path.exists(spec):
        raise ParseError("set spec %r is neither cube:NxD, a comma list, "
                         "nor an existing file" % (spec,))
    with open(spec) as fh:
        return parse_points_auto(fh.read())


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cubenergy",
        description="Exact energy counts, sign certificates, inequality "
                    "grids, and extension-constant experiments on discrete "
                    "cubes.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="exact energy of one set")
    p.add_argument("--set", required=True, help="cube:NxD, comma list, or file")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--kind", choices=["additive", "higher"], default="additive")
    _common_output(p)

    p = sub.add_parser("verify", help="sweep subsets of a cube against the sharp exponent")
    p.add_argument("--set", required=True, help="cube:NxD family to sweep")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--kind", choices=["additive", "higher"], default="additive")
    p.add_argument("--exponent", type=float, default=None,
                   help="override the sharp exponent with a custom one")
    p.add_argument("--sample", type=_positive_int, default=None,
                   help="random subset count (default: exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    _common_output(p)

    p = sub.add_parser("signs", help="certified coefficient sign table")
    p.add_argument("--k-min", type=_positive_int, default=2)
    p.add_argument("--k-max", type=_positive_int, default=10)
    _common_output(p)

    p = sub.add_parser("curves", help="sampled curve data for the figures")
    p.add_argument("--which", choices=["phi", "psi", "goal"],
                   required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=1000)
    _common_output(p)

    p = sub.add_parser("extension", help="extension-constant lower bound")
    p.add_argument("--alphabet", required=True,
                   help="cube:NxD, comma list, or file")
    p.add_argument("--k", type=_positive_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=float, help="input norm exponent")
    group.add_argument("--p", type=float, help="target energy exponent (q = 2k/p)")
    p.add_argument("--starts", type=_positive_int, default=24)
    p.add_argument("--seed", type=int, default=0)
    _common_output(p)

    p = sub.add_parser("witness", help="level-set witness search on {0..n}^d")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--d-max", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--threshold", type=float, default=None,
                   help="log-ratio to beat (default log_3 19)")
    p.add_argument("--max-points", type=_positive_int, default=100_000)
    _common_output(p)

    p = sub.add_parser("identity-check",
                       help="exact split identities on random subsets")
    p.add_argument("--set", required=True,
                   help="base set; subsets must have 0/1 last coordinate")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--kind", choices=["additive", "higher", "both"],
                   default="both")
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _common_output(p)

    p = sub.add_parser("tn-bounds", help="interval exponent bracket chain")
    p.add_argument("--n-max", type=_positive_int, default=40)
    _common_output(p)

    return top


def _common_output(p: argparse.ArgumentParser):
    p.add_argument("--output", default=None, help="write report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")


# ---------------------------------------------------------------------------
# handlers: each returns (result, exit_code, csv) where csv is
# (header, rows) or None when the command has no tabular form


def _run_energy(args) -> Tuple[dict, int, Optional[tuple]]:
    a = parse_set_spec(args.set)
    val = energy(a, args.k, EnergyKind(args.kind))
    result = val.to_report()
    csv = (["kind", "k", "set_size", "energy"],
           [[args.kind, args.k, val.set_size, str(val.value)]])
    return result, 0, csv


def _run_verify(args) -> Tuple[dict, int, Optional[tuple]]:
    cube = _parse_cube_spec(args.set)
    if cube is None:
        raise ParseError("verify needs a cube:NxD family")
    n, d = cube
    if args.exponent is None:
        target = ExponentTarget.sharp(EnergyKind(args.kind), args.k)
    else:
        target = ExponentTarget(EnergyKind(args.kind), args.k, args.exponent)
    report = sweep_cube(n, d, target, sample=args.sample, seed=args.seed)
    return report.to_dict(), 0 if report.ok else 1, None


def _run_signs(args) -> Tuple[dict, int, Optional[tuple]]:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ParseError("need 2 <= k-min <= k-max")
    certs = sign_table(args.k_min, args.k_max)
    result = {"table": [c.to_dict() for c in certs],
              "all_certified": all(c.certified for c in certs)}
    csv = (["k", "i", "sign"], [[c.k, i, s] for c in certs
                                for i, s in enumerate(c.signs, start=1)])
    return result, 0 if result["all_certified"] else 1, csv


def _run_curves(args) -> Tuple[dict, int, Optional[tuple]]:
    data = curve_data(args.which, args.k, args.samples)
    result = {"which": args.which, "k": args.k, "samples": args.samples,
              "rows": [[x, y] for x, y in data]}
    csv = (["x", "value"], [[x, y] for x, y in data])
    return result, 0, csv


def _run_extension(args) -> Tuple[dict, int, Optional[tuple]]:
    alphabet = parse_set_spec(args.alphabet)
    if args.q is not None:
        problem = DEProblem(alphabet, args.k, args.q)
    else:
        problem = DEProblem.from_p(alphabet, args.k, args.p)
    est = optimize_de(problem, seed=args.seed, starts=args.starts)
    csv = (["point", "weight"],
           [[" ".join(str(c) for c in p), float(v)] for p, v in est.witness.items()])
    return est.to_dict(), 0, csv


def _run_witness(args) -> Tuple[dict, int, Optional[tuple]]:
    # default bar: the full-alphabet exponent log_3 19, held exactly so the
    # trivial whole-cube level can never cross by rounding
    bar = (19, 3) if args.threshold is None else args.threshold
    # the cube is largest at d_max: refuse an over-budget run before any search
    points = (args.n + 1) ** args.d_max
    if points > args.max_points:
        raise BudgetExceeded("cube with %d points refused" % points)
    reports = []
    crossing_d = None
    for d in range(1, args.d_max + 1):
        rep = witness_search_general_cube(args.n, d, bar, k=args.k,
                                          max_points=args.max_points)
        reports.append(rep.to_dict())
        if rep.crossed and crossing_d is None:
            crossing_d = d
    ratios = [r["best_ratio"] for r in reports if r["best_ratio"] is not None]
    best = max(ratios) if ratios else None
    result = {
        "n": args.n,
        "k": args.k,
        "threshold": reports[0]["threshold"],
        "per_dimension": reports,
        "best_ratio": best,
        "crossed": crossing_d is not None,
        "smallest_crossing_d": crossing_d,
    }
    rows = [[r["d"], r["best_ratio"], r["crossed"]] for r in reports]
    return result, 0, (["d", "best_ratio", "crossed"], rows)


def _run_identity_check(args) -> Tuple[dict, int, Optional[tuple]]:
    base = parse_set_spec(args.set)
    pts = base.sorted_points()
    if not pts:
        raise ParseError("identity-check needs a nonempty base set")
    if len(pts) > 24:
        raise BudgetExceeded("base set too large for random subset trials")
    kinds = ([EnergyKind.ADDITIVE, EnergyKind.HIGHER]
             if args.kind == "both" else [EnergyKind(args.kind)])
    rng = random.Random(args.seed)
    failures = []
    trials = 0
    for _ in range(args.count):
        mask = 0
        while mask == 0:
            mask = rng.getrandbits(len(pts))
        sub = PointSet.from_points(
            [pts[i] for i in range(len(pts)) if mask >> i & 1])
        for kind in kinds:
            trials += 1
            rep = decomposition_identity_check(sub, args.k, kind)
            if not rep.holds:
                failures.append(rep.to_dict())
    result = {
        "base_size": len(pts),
        "k": args.k,
        "kinds": [k.value for k in kinds],
        "count": args.count,
        "trials": trials,
        "seed": args.seed,
        "failures": failures,
        "all_hold": not failures,
    }
    return result, 0 if not failures else 1, None


def _run_tn_bounds(args) -> Tuple[dict, int, Optional[tuple]]:
    rows = []
    violations = 0
    for n in range(1, args.n_max + 1):
        try:
            lower, upper = tn_interval(n)
            rows.append({"n": n, "lower": lower, "upper": upper,
                         "energy": str(interval_energy_closed_form(n)),
                         "ok": True})
        except AssertionError as exc:
            violations += 1
            rows.append({"n": n, "lower": None, "upper": None,
                         "energy": str(interval_energy_closed_form(n)),
                         "ok": False, "error": str(exc)})
    result = {"n_max": args.n_max, "rows": rows, "ok": violations == 0}
    csv_rows = [[r["n"], r["lower"], r["upper"], r["ok"]] for r in rows]
    return result, 0 if violations == 0 else 1, (["n", "lower", "upper", "ok"], csv_rows)


_HANDLERS = {
    "energy": _run_energy,
    "verify": _run_verify,
    "signs": _run_signs,
    "curves": _run_curves,
    "extension": _run_extension,
    "witness": _run_witness,
    "identity-check": _run_identity_check,
    "tn-bounds": _run_tn_bounds,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    # the echo of everything that shaped the run, in every JSON report
    config = {k.replace("_", "-"): v for k, v in vars(args).items()
              if k != "command"}
    config.setdefault("seed", None)
    handler = _HANDLERS[args.command]
    try:
        result, code, csv = handler(args)
    except (ParseError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return 3
    except PrecisionExhausted as exc:
        sys.stderr.write("precision budget exceeded: %s\n" % exc)
        return 3
    if args.format == "csv":
        if csv is None:
            sys.stderr.write("error: command %r has no CSV form\n" % args.command)
            return 2
        header, rows = csv
        _write_output(render_csv(header, rows), args.output)
        return code
    envelope = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "result": result,
    }
    _write_output(dumps_canonical(envelope) + "\n", args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
