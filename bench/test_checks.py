"""Tests of the benchmark's own checks: every checker accepts the outputs of
a real pass and reports a failure for a deliberately wrong one.

    python3 -m pytest bench/test_checks.py -q

One pass of each workload runs once and is shared by all tests (about a
minute in all).
"""
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of one untraced pass of every workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(workload))
        runner = run.Runner(workloads.build(workload, SEED, workdir))
        runner.run_pass(False)
        assert runner.failed == 0
        out[workload] = runner.outputs
    return out


def _errors(outputs, workload, mutate):
    bad = copy.deepcopy(outputs[workload])
    mutate(bad)
    return checks.CHECKERS[workload](bad, SEED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_outputs_pass(outputs, workload):
    assert checks.CHECKERS[workload](outputs[workload], SEED) == []


# -- subset-sweep ------------------------------------------------------------


def _sweep(name, key, value):
    def mutate(o):
        o[name]["result"][key] = value(o[name]["result"][key])
    return mutate


@pytest.mark.parametrize("mutate", [
    _sweep("additive-k2", "equality_count", lambda v: v + 1),
    _sweep("higher-k3", "equality_count", lambda v: v - 1),
    _sweep("higher-k2", "subsets_checked", lambda v: v - 1),
    _sweep("custom-exponent", "equality_count", lambda v: v + 1),
    _sweep("sample-1x5", "seed", lambda v: v + 1),
    _sweep("additive-k2", "violations",
           lambda v: [{"subset": [[0, 0, 0, 0]], "size": 1, "energy": "2", "bound": "1"}]),
    # a witness that does not realize the reported ratio
    _sweep("additive-k2", "max_ratio_witness", lambda v: v[:-1]),
    _sweep("sample-1x5", "max_ratio", lambda v: v + 1e-6),
])
def test_subset_sweep_rejects(outputs, mutate):
    assert _errors(outputs, "subset-sweep", mutate)


# -- witness-levels ----------------------------------------------------------


def _crossing_at_6(o):
    r = o["witness-d7"]["result"]
    r["smallest_crossing_d"] = 6
    r["per_dimension"][5]["crossed"] = True


def _level_energy_plus_one(o):
    lv = o["witness-d7"]["result"]["per_dimension"][3]["levels"][2]
    lv["energy"] = str(int(lv["energy"]) + 1)


def _top_energy(o):
    lv = o["witness-d7"]["result"]["per_dimension"][6]["levels"][-1]
    lv["energy"] = str(int(lv["energy"]) - 1)


def _undecided(o):
    o["witness-d7"]["result"]["per_dimension"][6]["undecided_levels"] = [5]


def _level_size(o):
    o["witness-d7"]["result"]["per_dimension"][4]["levels"][1]["size"] += 1


def _no_crossing(o):
    r = o["witness-d7"]["result"]
    r["crossed"] = False
    r["smallest_crossing_d"] = None
    r["per_dimension"][6]["crossed"] = False


@pytest.mark.parametrize("mutate", [_crossing_at_6, _level_energy_plus_one,
                                    _top_energy, _undecided, _level_size,
                                    _no_crossing])
def test_witness_levels_rejects(outputs, mutate):
    assert _errors(outputs, "witness-levels", mutate)


# -- certified-grids ---------------------------------------------------------


def _flip_verdict(o):
    """A point that holds reported as a failure, with the ok flag kept."""
    rep = o["legendre-k6"]
    x = sorted(rep["equalities"])[0] + 1.0
    rep["failures"] = [{"x": x, "excess": 1e-3}]


def _flip_verdict_bundle(o):
    rep = o["higher-k10"]["cfil"]
    rep["failures"] = [{"x": 0.25, "excess": 1e-12}]
    rep["ok"] = False


def _missing_equality(o):
    o["higher-k2"]["goal"]["equalities"].remove(0.5)


def _margin_too_large(o):
    o["key-k10"]["min_margin"] *= 1e3


def _sign_flip(o):
    o["signs"]["result"]["table"][20]["signs"][0] *= -1


def _psi7_concave(o):
    rep = o["psi-k7"]
    rep["negative"] += len(rep["positive_indices"])
    rep["positive_indices"] = []
    rep["concave_certified"] = True


def _psi3_positive(o):
    rep = o["psi-k3"]
    rep["negative"] -= 1
    rep["positive_indices"] = [[100, 100 / 511]]
    rep["concave_certified"] = False


def _shape_flag(o):
    o["higher-k6"]["convex_concave"]["shape_flags"]["rhs_concave"] = False


@pytest.mark.parametrize("mutate", [_flip_verdict, _flip_verdict_bundle,
                                    _missing_equality, _margin_too_large,
                                    _sign_flip, _psi7_concave, _psi3_positive,
                                    _shape_flag])
def test_certified_grids_rejects(outputs, mutate):
    assert _errors(outputs, "certified-grids", mutate)


# -- extension-search --------------------------------------------------------


def _ext(name, key, value):
    def mutate(o):
        o[name]["result"][key] = value(o[name]["result"][key])
    return mutate


def _witness_weight(o):
    """A bound not realized by its witness."""
    wit = o["three-letters"]["result"]["witness"]
    wit[0][1] = wit[0][1] * 0.9


@pytest.mark.parametrize("mutate", [
    _ext("pair", "lower_bound", lambda v: v + 1e-3),
    _ext("three-letters", "lower_bound", lambda v: v * (1 + 1e-6)),
    _ext("segment-k3", "restricted_lower_bound", lambda v: v * (1 - 1e-6)),
    _ext("cube3-k2", "restricted_witness",
         lambda v: [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    _ext("cube3-k2", "restricted_exhaustive", lambda v: False),
    _witness_weight,
])
def test_extension_search_rejects(outputs, mutate):
    assert _errors(outputs, "extension-search", mutate)


# -- benchmark wiring ----------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER


def test_tracer_restores_every_binding():
    import cubenergy
    from cubenergy import intervals, legendre, verify
    original = intervals.decide_le
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert legendre.decide_le is not original
        assert verify.decide_le is legendre.decide_le
        tracer.begin_pass()
        legendre.check_key_inequality(3, points=20)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert intervals.decide_le is original and legendre.decide_le is original
    assert cubenergy.check_key_inequality is legendre.check_key_inequality
    figures = tracer.per_layer(1.0, 1.0)
    assert figures["legendre.grid_points"] == 20
    assert figures["intervals.decide_le_calls"] == 18     # less x = 0 and 1
    assert set(figures) == {name for name, _, _ in tracing.PER_LAYER}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witness-levels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
