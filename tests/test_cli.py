"""End-to-end CLI behavior: envelopes, CSV, exit codes, determinism."""

import hashlib
import json
import math
import time

import pytest

from cubenergy.cli import dumps_canonical, main, parse_set_spec
from cubenergy.errors import ParseError


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, (code, err)
    return json.loads(out)


# ---------------------------------------------------------------------------
# set specifications


def test_parse_set_spec_cube():
    a = parse_set_spec("cube:2x2")
    assert len(a) == 9 and a.dim == 2


def test_parse_set_spec_comma_list():
    a = parse_set_spec("0,1,3")
    assert a.sorted_points() == [(0,), (1,), (3,)]
    b = parse_set_spec("-2,5")
    assert b.sorted_points() == [(-2,), (5,)]


def test_parse_set_spec_files(tmp_path):
    j = tmp_path / "pts.json"
    j.write_text("[[0, 0], [1, 1]]")
    assert len(parse_set_spec(str(j))) == 2
    t = tmp_path / "pts.txt"
    t.write_text("0 0\n1 0\n# comment\n")
    assert len(parse_set_spec(str(t))) == 2


def test_parse_set_spec_rejects_garbage():
    with pytest.raises(ParseError):
        parse_set_spec("cube:x3")
    with pytest.raises(ParseError):
        parse_set_spec("no-such-file.json")


# ---------------------------------------------------------------------------
# energy


def test_energy_envelope(capsys):
    doc = _run_json(capsys, ["energy", "--set", "cube:1x3",
                             "--kind", "higher", "--k", "3"])
    assert doc["schema"] == 1
    assert doc["command"] == "energy"
    assert doc["config"]["set"] == "cube:1x3"
    assert doc["config"]["kind"] == "higher"
    assert doc["result"]["energy"] == "1000"
    assert doc["result"]["set_size"] == 8


def test_energy_comma_list(capsys):
    doc = _run_json(capsys, ["energy", "--set", "0,1,3", "--k", "2"])
    assert doc["result"]["energy"] == "15"


def test_energy_csv(capsys):
    code, out, _ = _run(capsys, ["energy", "--set", "cube:1x1", "--k", "2",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,k,set_size,energy"
    assert lines[1] == "additive,2,2,6"
    assert len(lines) == 2


@pytest.mark.parametrize("argv, digest", [
    # 100 points at k = 11: the slot bound 100^10 needs more than 64 bits
    (["energy", "--set", "cube:9x2", "--k", "11"],
     "6dbdbcd25cea0eef5e8936fb65aed84cb44cad6c99ff4e853240bf526db3f3a5"),
    (["energy", "--set", "cube:1x4", "--k", "4", "--kind", "higher",
      "--format", "csv"],
     "80d30efa15691d5f40515addd1ff911897b652f189e2ff97c8b951f009a392d7"),
])
def test_energy_golden_bytes(capsys, argv, digest):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# verify


def test_verify_cube_exhaustive(capsys):
    doc = _run_json(capsys, ["verify", "--set", "cube:1x3", "--k", "2"])
    res = doc["result"]
    assert res["violations"] == []
    assert res["equality_count"] == 49
    assert res["subsets_checked"] == 255
    assert res["mode"] == "exhaustive"
    assert abs(res["max_ratio"] - math.log2(6)) < 1e-12


def test_verify_sampled_deterministic(capsys):
    argv = ["verify", "--set", "cube:1x4", "--k", "2",
            "--sample", "100", "--seed", "3"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["result"]["mode"] == "sample"


@pytest.mark.parametrize("argv, violations, digest", [
    (["verify", "--set", "cube:1x3", "--k", "2", "--exponent", "2.3"], 247,
     "e0448370215eb701c1ba9278ffdfccb545721e9196838473822289b88ae5018d"),
    (["verify", "--set", "cube:2x2", "--k", "3", "--exponent", "3.9"], 502,
     "09876fba46f1a0b541acf03196464b1b9c4786010949892b3286375f551b9665"),
])
def test_verify_violation_report_golden_bytes(capsys, argv, violations, digest):
    # frozen output: violations in mask order, ties for the best ratio
    # broken toward the smallest mask
    code, out, _ = _run(capsys, argv)
    assert code == 1
    assert len(json.loads(out)["result"]["violations"]) == violations
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_rejects_infinite_exponent(capsys):
    code, out, err = _run(capsys, ["verify", "--set", "cube:1x2", "--k", "2",
                                   "--exponent", "inf"])
    assert code == 2 and out == ""
    assert "2k - 1" in err


@pytest.mark.parametrize("command", ["verify", "energy"])
def test_cube_spec_needs_a_dimension(capsys, command):
    # verify and the other commands read cube:NxD through one parser
    code, out, err = _run(capsys, [command, "--set", "cube:1x0", "--k", "2"])
    assert code == 2 and out == ""
    assert "D >= 1" in err


def test_verify_budget_exit_code(capsys):
    code, _, err = _run(capsys, ["verify", "--set", "cube:1x5", "--k", "2"])
    assert code == 3
    assert "budget" in err.lower()


def test_sampled_verify_budget_exits_fast(capsys):
    # 65 536 points: refused before the cube or any threshold is built
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "--set", "cube:1x16", "--k", "2",
                                   "--sample", "3"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "sampled sweep over 65536 points" in err


@pytest.mark.parametrize("extra, digest", [
    (["--k", "2"],
     "35fdd3eb559417eee34a5f1f5601415ed218c30c3ffe3a35a5b33036a27e79f5"),
    (["--kind", "higher", "--k", "3"],
     "c9c908049fb99bcfa70d9c83fcb1f11deb4d1e52dc4f0585bb3ad56cf32e36f7"),
    # 2-byte slots: the additive bound |A|^2 passes 255 from |A| = 16 on
    (["--k", "3"],
     "64a516e162125fa07d44353c09f1c1a8b658745ee3f374b705793f6561f95699"),
])
def test_verify_sampled_golden_bytes(capsys, extra, digest):
    # frozen output of sampled sweeps, whose energies take the product path
    code, out, _ = _run(capsys, ["verify", "--set", "cube:1x5", "--sample",
                                 "500", "--seed", "7"] + extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# signs


def test_signs_json_certified(capsys):
    doc = _run_json(capsys, ["signs", "--k-min", "2", "--k-max", "10"])
    res = doc["result"]
    assert res["all_certified"]
    rows = {entry["k"]: entry for entry in res["table"]}
    assert rows[2]["signs"] == [-1, 1]
    assert rows[7]["signs"] == [-1, -1, 1, 1, 1, 1, 1]
    assert rows[10]["signs"] == [-1, -1, -1, 1, 1, 1, 1, 1, 1, 1]


def test_signs_through_k60_golden_bytes(capsys):
    # frozen output: every sign of C_1..C_k for k = 2..60, each decided on
    # the interval ladder or by the exact integer comparison
    code, out, _ = _run(capsys, ["signs", "--k-min", "2", "--k-max", "60"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d67fb7083212db00966bebca2cf27ddedb38c1edcb89b2788db6be50cdb19bca"


def test_signs_csv(capsys):
    code, out, _ = _run(capsys, ["signs", "--k-min", "2", "--k-max", "3",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,i,sign"
    assert lines[1:] == ["2,1,-1", "2,2,1", "3,1,-1", "3,2,1", "3,3,1"]


# ---------------------------------------------------------------------------
# curves


def test_curves_psi_has_positive_second_difference(capsys):
    code, out, _ = _run(capsys, ["curves", "--which", "psi", "--k", "7",
                                 "--samples", "200", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(ys) == 200
    d2 = [ys[i + 1] - 2 * ys[i] + ys[i - 1] for i in range(1, len(ys) - 1)]
    assert max(d2) > 0


@pytest.mark.parametrize("which, k, digest", [
    ("phi", 2, "0d40bc3d648963be1a0bdf39c651f6a8a803ec3a9b2e9acab3f8d07a0a94ee28"),
    ("psi", 7, "9928c2bcd402481259561addfc4a995ba48392c44d27ed9e160a493434d2082c"),
])
def test_curves_golden_bytes(capsys, which, k, digest):
    # frozen output; the terms of each row are added in order, so it holds
    # on every Python version, not only those whose sum() does not compensate
    code, out, _ = _run(capsys, ["curves", "--which", which, "--k", str(k),
                                 "--samples", "1000"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_curves_goal_bounded(capsys):
    doc = _run_json(capsys, ["curves", "--which", "goal", "--k", "4",
                             "--samples", "100"])
    ys = [y for _, y in doc["result"]["rows"]]
    assert max(ys) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# extension


def test_extension_segment(capsys):
    q = repr(4 / math.log2(6))
    doc = _run_json(capsys, ["extension", "--alphabet", "0,1", "--k", "2",
                             "--q", q, "--starts", "12", "--seed", "0"])
    res = doc["result"]
    assert abs(res["lower_bound"] - 1.0) <= 1e-6
    assert res["nonnegative_weights_assumed"] is True


def test_extension_by_p_flag(capsys):
    doc = _run_json(capsys, ["extension", "--alphabet", "0,1,2", "--k", "2",
                             "--p", repr(math.log(19) / math.log(3)),
                             "--starts", "8", "--seed", "0"])
    assert doc["result"]["lower_bound"] >= 1.0 + 1e-3


def test_extension_deterministic_bytes(capsys):
    argv = ["extension", "--alphabet", "0,1,2", "--k", "2", "--q", "2.0",
            "--starts", "6", "--seed", "11"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


EXTENSION_PROBLEMS = [
    ("0,1", 2, "--q", 4 / math.log2(6), 24,
     "f1153036e843640b2479afd19ba1dd07af243ed6bb46cbe1e72392f4799ad5a6"),
    ("0,1,2", 2, "--p", math.log(19) / math.log(3), 24,
     "d7ee7657978c33e05a7f373e98848c6ff4947a084a9c0bd01958e72f438061b3"),
    ("0,1,2,3,4", 3, "--p", math.log(1751) / math.log(5), 6,
     "f439620268f11a4a44d1b30ddabed95c4b9ee5f1a786478a8186bf111bd5eb6a"),
    ("cube:1x3", 2, "--p", math.log2(6), 4,
     "19da0ef41c58fad82b3f1f3b212033d05ce8de5e8a5862e88880e7b296039fdf"),
]


def _extension_argv(alphabet, k, flag, value, starts):
    return ["extension", "--alphabet", alphabet, "--k", str(k), flag,
            repr(value), "--starts", str(starts), "--seed", "0"]


@pytest.mark.parametrize("alphabet, k, flag, value, starts, digest",
                         EXTENSION_PROBLEMS)
def test_extension_golden_bytes(capsys, alphabet, k, flag, value, starts,
                                digest):
    # frozen output of the optimizer, measured when every ratio ran the
    # float dict loop of packed_power_energy
    code, out, _ = _run(capsys, _extension_argv(alphabet, k, flag, value,
                                                starts))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_extension_csv_golden_bytes(capsys):
    argv = _extension_argv(*EXTENSION_PROBLEMS[1][:5]) + ["--format", "csv"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0650a463522040fcc8362398fe08b5689d128a8bb7a63cf0c363c17e75c6ee7a"


# ---------------------------------------------------------------------------
# witness


def test_witness_low_dimensions(capsys):
    doc = _run_json(capsys, ["witness", "--n", "2", "--d-max", "4"])
    res = doc["result"]
    assert res["crossed"] is False
    assert res["smallest_crossing_d"] is None
    assert len(res["per_dimension"]) == 4
    for rep in res["per_dimension"]:
        assert rep["undecided_levels"] == []


def test_witness_csv(capsys):
    code, out, _ = _run(capsys, ["witness", "--n", "2", "--d-max", "2",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,best_ratio,crossed"
    assert len(lines) == 3
    assert lines[1].endswith(",false")


@pytest.mark.parametrize("threshold, crossed", [
    ("2.6801438592463751", True), ("2.6801438592463755", False)])
def test_witness_explicit_threshold_is_decided_exactly(capsys, threshold,
                                                       crossed):
    # the two floats straddle log_3 19, the full cube's ratio at every d
    doc = _run_json(capsys, ["witness", "--n", "2", "--d-max", "6",
                             "--threshold", threshold])
    res = doc["result"]
    assert [rep["crossed"] for rep in res["per_dimension"]] == [crossed] * 6
    assert res["smallest_crossing_d"] == (1 if crossed else None)


@pytest.mark.parametrize("n, k, d_max, extra, digest", [
    (2, 2, 7, [], "59ae469b366705b682bfd078abc2b0cf7fe8c6a2b5b7af0ca1dd041a572f6073"),
    (3, 2, 5, [], "4475cad6b4c0e297d7c53cc5c7d434fdeb8eae8f58debbb2bb0a8c72517971d2"),
    (2, 3, 6, [], "df6c769de3b9371f33ea9e784eae42364125c5cb5a8244e183017b726472f363"),
    (4, 3, 4, [], "9c4fadfa3bdd910d97d4048405cffb3d204958393d5b95096198fa88a0a4e73c"),
    (2, 4, 5, [], "571395a59a29996f3ea44929d10d1df46b94c388d52c6dbca4f192d42de18d10"),
    (2, 2, 7, ["--format", "csv"],
     "90af806175f428ca6e50a6e9e53c00a52826e8d681224d0ca7deab23e2b2a29e"),
])
def test_witness_golden_bytes(capsys, n, k, d_max, extra, digest):
    # frozen output, measured when every level was convolved point by point
    code, out, _ = _run(capsys, ["witness", "--n", str(n), "--k", str(k),
                                 "--d-max", str(d_max)] + extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witness_over_budget_refused_before_any_search(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget run must not search any d")
    monkeypatch.setattr("cubenergy.verify.level_set_energies", refuse)
    code, out, err = _run(capsys, ["witness", "--n", "2", "--d-max", "11"])
    assert code == 3 and out == ""
    assert "cube with 177147 points refused" in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_witness_rejects_non_finite_threshold(capsys, threshold):
    code, out, err = _run(capsys, ["witness", "--d-max", "2",
                                   "--threshold=" + threshold])
    assert code == 2 and out == ""
    assert "finite" in err


# ---------------------------------------------------------------------------
# identity-check


def test_identity_check_holds(capsys):
    doc = _run_json(capsys, ["identity-check", "--set", "cube:1x3",
                             "--k", "2", "--kind", "both",
                             "--count", "20", "--seed", "7"])
    res = doc["result"]
    assert res["all_hold"] and res["failures"] == []
    assert res["trials"] == 40


def test_identity_check_golden_bytes(capsys):
    code, out, _ = _run(capsys, ["identity-check", "--set", "cube:1x3",
                                 "--k", "3", "--kind", "both",
                                 "--count", "50", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["result"]["trials"] == 100
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8e7f3fe705129b89935c2e78dcc90391e1db44c9459b1d40736a5a849eef4b6b"


def test_identity_check_has_no_csv_form(capsys):
    code, _, err = _run(capsys, ["identity-check", "--set", "cube:1x2",
                                 "--k", "2", "--format", "csv"])
    assert code == 2
    assert "CSV" in err or "csv" in err


def test_identity_check_rejects_wide_last_coordinate(capsys):
    code, _, _ = _run(capsys, ["identity-check", "--set", "0,1,2", "--k", "2",
                               "--count", "5", "--seed", "0"])
    assert code == 2


@pytest.mark.parametrize("text", ["[]\n", "# no points\n\n"])
def test_identity_check_rejects_empty_base_set(tmp_path, capsys, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out, err = _run(capsys, ["identity-check", "--set", str(path),
                                   "--k", "2"])
    assert code == 2 and out == ""
    assert "nonempty" in err


# ---------------------------------------------------------------------------
# tn-bounds


def test_tn_bounds_csv(capsys):
    code, out, _ = _run(capsys, ["tn-bounds", "--n-max", "10",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lower,upper,ok"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(math.log2(6), abs=1e-14)
    assert first[3] == "true"


def test_tn_bounds_json(capsys):
    doc = _run_json(capsys, ["tn-bounds", "--n-max", "5"])
    assert doc["result"]["ok"] is True
    assert len(doc["result"]["rows"]) == 5


# ---------------------------------------------------------------------------
# usage errors and output redirection


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_set_spec_exits_2(capsys):
    code, _, err = _run(capsys, ["energy", "--set", "cube:9", "--k", "2"])
    assert code == 2 and err


def test_bad_k_exits_2(capsys):
    assert main(["energy", "--set", "cube:1x2", "--k", "0"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["energy", "--set", "cube:1x2", "--k", "2",
                                 "--output", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["result"]["energy"] == "36"
    assert doc["config"]["output"] == str(path)


def test_config_echoes_seed(capsys):
    doc = _run_json(capsys, ["verify", "--set", "cube:1x2",
                             "--k", "2", "--sample", "10", "--seed", "42"])
    assert doc["config"]["seed"] == 42
    assert "threads" not in doc["config"]


def test_whole_floats_stay_floats():
    assert dumps_canonical(3.0) == "3.0"
    assert dumps_canonical(-0.0) == "-0.0"
    assert dumps_canonical(0.5) == "0.5"
    # exponent forms are already JSON floats
    assert dumps_canonical(1e17) == "1e+17"
    assert dumps_canonical(1e-7) == format(1e-7, ".17g")
    assert dumps_canonical(3) == "3"
