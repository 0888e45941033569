#!/usr/bin/env python3
"""Benchmark of cubenergy: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 bench/run.py --workload subset-sweep --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28

One run repeats whole passes of the workload's operations for about
``--seconds`` seconds, checks the outputs of a pass against the oracles in
``oracles.py``, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` passes alternate between untraced and traced, and the metrics
are the per-layer figures of ``tracing.PER_LAYER``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")

SETUP_PROBES = 9
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170

# The machine's speed swings by tens of percent over tens of seconds, so
# every operation is timed together with a fixed piece of interpreter work
# run just before and just after it, and its time is scaled to the speed at
# which that reference takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.005
REF_LOOP = 20000
REF_REPEATS = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def reference_s() -> float:
    """Seconds the reference work takes now: the shortest of REF_REPEATS
    runs of a loop of dict updates on small ints and float arithmetic."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        counts = {}
        x = 0.5
        for i in range(REF_LOOP):
            key = (i * 7919) % 4099
            counts[key] = counts.get(key, 0) + 1
            x = x * 1.000001 + 1e-9
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """``elapsed`` at the speed where the reference takes REF_NOMINAL_S."""
    return elapsed * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def _plain(result):
    """JSON data of a library result: ``to_dict()``, or a dict of them."""
    if isinstance(result, dict):
        return {key: _plain(value) for key, value in result.items()}
    return result.to_dict()


def setup_probe(workload: str, seed: int) -> int:
    """Child process: time importing cubenergy and building the inputs."""
    ref_before = reference_s()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import cubenergy  # noqa: F401
    import cubenergy.cli  # noqa: F401
    workloads.build(workload, seed, WORK_DIR)
    elapsed = time.perf_counter() - t0
    print(repr(scaled(elapsed, ref_before, reference_s())))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES fresh processes of the set-up time."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs passes of one workload and keeps the outputs of the first."""

    def __init__(self, ops, tracer=None):
        import cubenergy.cli
        from cubenergy import legendre
        self.cli = cubenergy.cli
        # passes start with an empty coefficient_forms cache, as a fresh
        # CLI process would
        self.clear_cache = legendre.coefficient_forms.cache_clear
        self.ops = ops
        self.tracer = tracer
        self.outputs = {}           # op name -> JSON data of its first output
        self.canonical = {}         # op name -> bytes of its first output
        self.attempted = 0
        self.failed = 0
        self.pass_times = {False: [], True: []}     # unscaled
        # per traced flag: op name -> scaled seconds of each pass
        self.op_times = {False: {}, True: {}}

    def _execute(self, op):
        """Run one operation; returns (elapsed seconds, output bytes or None)."""
        if op.argv is not None:
            out_path = op.argv[-1]
            t0 = time.perf_counter()
            code = self.cli.main(op.argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                sys.stderr.write("%s: exit code %d\n" % (op.name, code))
                return elapsed, None
            with open(out_path, "rb") as fh:
                raw = fh.read()
            os.remove(out_path)
            return elapsed, raw
        t0 = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - t0
        return elapsed, json.dumps(_plain(result), sort_keys=True).encode()

    def run_pass(self, traced: bool):
        gc.collect()
        self.clear_cache()
        ref_before = reference_s()
        if traced:
            self.tracer.begin_pass()
            self.tracer.install()
        total = 0.0
        try:
            for op in self.ops:
                self.attempted += 1
                try:
                    elapsed, raw = self._execute(op)
                except Exception:
                    sys.stderr.write("%s raised:\n%s" % (op.name, traceback.format_exc()))
                    elapsed, raw = None, None
                ref_after = reference_s()
                if elapsed is not None:
                    total += elapsed
                    self.op_times[traced].setdefault(op.name, []).append(
                        scaled(elapsed, ref_before, ref_after))
                ref_before = ref_after
                if raw is None:
                    self.failed += 1
                elif op.name not in self.canonical:
                    self.canonical[op.name] = raw
                    self.outputs[op.name] = json.loads(raw)
                elif raw != self.canonical[op.name]:
                    # determinism contract: same configuration, same bytes
                    sys.stderr.write("%s: output differs between passes\n" % op.name)
                    self.failed += 1
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.end_pass()
        self.pass_times[traced].append(total)

    def wall_s(self, traced: bool) -> float:
        """Scaled time of one pass: the sum over operations of each one's
        median over the passes, so a burst of noise in one pass weighs like
        one sample of the operations it hit rather than of the whole pass."""
        return sum(statistics.median(times)
                   for times in self.op_times[traced].values())

    def run(self, seconds: float, trace: bool):
        """Whole passes until the next one would end after ``seconds``, and
        at least MIN_PASSES of them.  A traced run alternates untraced and
        traced passes."""
        start = time.perf_counter()
        traced = False
        while True:
            self.run_pass(traced)
            if trace:
                traced = not traced
            if sum(map(len, self.pass_times.values())) < MIN_PASSES:
                continue
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.pass_times[traced]) > seconds:
                break


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import cubenergy  # noqa: F401
    import checks
    import tracing

    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(ops, tracer)
        runner.run(args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass        # another run is still using it

    errors = checks.CHECKERS[args.workload](runner.outputs, args.seed)
    for e in errors:
        sys.stderr.write("CHECK FAILED %s: %s\n" % (args.workload, e))

    untraced = runner.wall_s(False)
    if args.trace:
        traced = runner.wall_s(True)
        values = tracer.per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(TRACE_DIR, args.workload + ".tsv"))
    else:
        values = {"wall_s": untraced, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)

    print("%s seed %d: %d untraced passes %s, %d traced passes %s" % (
        args.workload, args.seed, len(runner.pass_times[False]),
        ["%.3f" % t for t in runner.pass_times[False]],
        len(runner.pass_times[True]),
        ["%.3f" % t for t in runner.pass_times[True]]))
    for name, value in values.items():
        print("  %-40s %14.6g %s" % (name, value, units[name]))
    result = {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload, each in its own process."""
    results = {}
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            code = 2
            continue
        results[workload] = json.loads(lines[-1])
        if proc.returncode:
            code = 1
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cubenergy", "__init__.py")):
        sys.stderr.write("error: no cubenergy package under %s; run from the "
                         "root of a checkout\n" % SRC)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
