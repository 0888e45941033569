"""Acceptance gate: the fourteen headline checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; each check also enforces its wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from cubenergy.energy import (
    EnergyKind,
    brute_force_energy,
    decomposition_identity_check,
    energy,
    full_cube_energy,
    interval_energy_closed_form,
)
from cubenergy.extension import (
    DEProblem,
    dyadic_decompose,
    optimize_de,
    three_point_condition_root,
    three_point_separation,
    tn_interval,
)
from cubenergy.lattice import PointSet, WeightFn
from cubenergy.legendre import (
    certify_psi_shape,
    certify_sign_pattern,
    check_higher_energy_inequalities,
    check_key_inequality,
    check_legendre_inequality,
    coefficient_forms,
    curve_data,
    sign_table,
)
from cubenergy.verify import ExponentTarget, sweep_cube, witness_search_general_cube


def _gate(n: int, desc: str, budget_s: float, body) -> None:
    t0 = time.time()
    ok = False
    try:
        body()
        elapsed = time.time() - t0
        assert elapsed < budget_s, \
            "budget exceeded: %.1fs >= %.0fs" % (elapsed, budget_s)
        ok = True
    finally:
        line = "ACCEPTANCE %02d %s (%.2fs): %s" % (
            n, "PASS" if ok else "FAIL", time.time() - t0, desc)
        print(line)


# ---------------------------------------------------------------------------


def test_criterion_01_full_cube_closed_forms():
    def body():
        for d in (1, 2, 3):
            for k in (2, 3, 4):
                assert full_cube_energy(1, d, k, EnergyKind.ADDITIVE).value \
                    == math.comb(2 * k, k) ** d
                assert full_cube_energy(1, d, k, EnergyKind.HIGHER).value \
                    == (2 ** k + 2) ** d
    _gate(1, "binary cube closed forms for d <= 3, k in {2,3,4}", 1.0, body)


def test_criterion_02_interval_closed_form():
    def body():
        for n in range(1, 21):
            seg = PointSet.cube(n, 1)
            assert interval_energy_closed_form(n) == \
                brute_force_energy(seg, 2, EnergyKind.ADDITIVE).value
    _gate(2, "segment energy closed form vs brute force for n <= 20", 10.0, body)


def test_criterion_03_cube_sweeps():
    def body():
        expected_eq = {3: 49, 4: 257}
        runs = [(3, 2), (3, 3), (4, 2)]
        for d, k in runs:
            for kind in EnergyKind:
                rep = sweep_cube(1, d, ExponentTarget.sharp(kind, k))
                assert rep.subsets_checked == (1 << (1 << d)) - 1
                assert not rep.violations, (d, k, kind)
                assert rep.equality_count == expected_eq[d], (d, k, kind)
    _gate(3, "exhaustive sweeps of {0,1}^3 and {0,1}^4 find no violations",
          300.0, body)


def test_criterion_04_sign_table():
    def body():
        prefix = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 3, 10: 3}
        for cert in sign_table(2, 10):
            want = (-1,) * prefix[cert.k] + (1,) * (cert.k - prefix[cert.k])
            assert tuple(cert.signs) == want
            assert cert.certified
        for k in range(2, 101):
            cert = certify_sign_pattern(k)
            assert cert.certified and cert.sign_changes == 1
    _gate(4, "certified coefficient signs: exact table to k=10, "
             "single change to k=100", 120.0, body)


def test_criterion_05_palindromic_coefficients():
    def body():
        for k in range(2, 51):
            forms = coefficient_forms(k)
            assert forms[0].alpha_coeff == 0 and forms[0].const_coeff == 0
            assert forms[-1].alpha_coeff == 0 and forms[-1].const_coeff == 0
            for i in range(2 * k + 1):
                mate = forms[2 * k - i]
                assert (forms[i].alpha_coeff, forms[i].const_coeff) == \
                    (mate.alpha_coeff, mate.const_coeff)
    _gate(5, "coefficient forms palindromic with vanishing endpoints to k=50",
          30.0, body)


def test_criterion_06_three_letter_root():
    def body():
        root = three_point_condition_root()
        assert abs(root - 2.5664) < 1e-4
        sep = three_point_separation()
        assert sep["margin"] > 0.035
    _gate(6, "quartic root 2.5664 and separation margin above 0.035", 1.0, body)


def test_criterion_07_segment_exponent_chain():
    def body():
        for n in range(1, 41):
            lower, upper = tn_interval(n)
            assert upper == 3.0
            assert lower <= 3.0 + 1e-12
            m = (n + 1) // 2
            if 2 * m >= 2:
                assert lower > 3 - math.log(1.5) / math.log(2 * m) - 1e-12
    _gate(7, "segment growth exponents bracketed for n <= 40", 1.0, body)


def test_criterion_08_optimizer_calibration():
    def body():
        crit_q = 4 / math.log2(6)
        seg = DEProblem(PointSet.from_points([(0,), (1,)]), 2, crit_q)
        est = optimize_de(seg, seed=0, starts=100)
        assert abs(est.lower_bound - 1.0) <= 1e-6
        assert est.lower_bound <= 1.0 + 1e-9

        three = PointSet.from_points([(0,), (1,), (2,)])
        q3 = 4 / (math.log(19) / math.log(3))
        est3 = optimize_de(DEProblem(three, 2, q3), seed=0, starts=24)
        assert est3.lower_bound >= 1.0 + 1e-3
        w = dict(est3.witness.items())
        peak = max(w.values())
        assert abs(w[(0,)] / peak - 0.5) < 0.15
        assert abs(w[(2,)] / peak - 0.5) < 0.15
        assert w[(1,)] / peak == 1.0
    _gate(8, "optimizer finds 1.0 on the pair and beats 1.001 on three letters",
          60.0, body)


def test_criterion_09_decomposition_identities():
    def body():
        rng = random.Random(0)
        pts = PointSet.cube(1, 4).sorted_points()
        for _ in range(100):
            mask = 0
            while mask == 0:
                mask = rng.getrandbits(len(pts))
            sub = PointSet.from_points(
                [pts[i] for i in range(len(pts)) if mask >> i & 1])
            for k in (2, 3):
                for kind in EnergyKind:
                    rep = decomposition_identity_check(sub, k, kind)
                    assert rep.holds and rep.lhs == rep.rhs
    _gate(9, "slice decomposition identities on 100 random subsets of {0,1}^4",
          60.0, body)


def test_criterion_10_certified_grids():
    def body():
        for k in range(2, 11):
            leg = check_legendre_inequality(k, points=1000)
            assert leg.ok and 1.0 in leg.equalities, k
            key = check_key_inequality(k, points=1000)
            assert key.ok and 0.0 in key.equalities and 1.0 in key.equalities
            bundle = check_higher_energy_inequalities(k, points=1000)
            for name, rep in bundle.items():
                assert rep.ok, (k, name)
            for name in ("goal", "cfil"):
                for x in (0.0, 0.5, 1.0):
                    assert x in bundle[name].equalities, (k, name, x)
            for name in ("two_point", "convex_concave"):
                for x in (0.0, 1.0):
                    assert x in bundle[name].equalities, (k, name, x)
            assert bundle["convex_concave"].shape_flags == \
                {"lhs_convex": True, "rhs_concave": True}, k
    _gate(10, "certified 1000-point inequality grids for k = 2..10 with "
              "boundary equalities detected", 120.0, body)


def test_criterion_11_shape_certification():
    def body():
        rep3 = certify_psi_shape(3, samples=512)
        assert rep3.concave_certified
        rep7 = certify_psi_shape(7, samples=512)
        assert rep7.positive_indices and not rep7.undecided_indices
        for k in (2, 4, 8, 16):
            rows = curve_data("goal", k, 257)
            assert max(y for _, y in rows) <= 1.0 + 1e-12
    _gate(11, "psi_3 certified concave, psi_7 certified not, goal curve "
              "bounded by one", 30.0, body)


def test_criterion_12_oracle_equivalence():
    def body():
        rng = random.Random(1)
        for _ in range(50):
            dim = rng.randint(1, 3)
            pts = {tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(1, 10))}
            a = PointSet.from_points(pts)
            for k in (2, 3):
                for kind in EnergyKind:
                    assert energy(a, k, kind).value == \
                        brute_force_energy(a, k, kind).value
    _gate(12, "convolution pipeline matches tuple-counting oracle on 50 "
              "random sets", 120.0, body)


def test_criterion_13_dyadic_invariants():
    def body():
        rng = random.Random(2)
        for _ in range(100):
            size = rng.randint(1, 64)
            f = WeightFn.from_pairs(
                [((i,), Fraction(rng.randint(1, 256), 256))
                 for i in range(size)])
            dec = dyadic_decompose(f)
            flags = dec.check()
            assert all(flags.values()), flags
    _gate(13, "dyadic decompositions reconstruct exactly on 100 random "
              "weights", 10.0, body)


def test_criterion_14_witness_search():
    def body():
        crossing_d = None
        for d in range(1, 9):
            rep = witness_search_general_cube(2, d, (19, 3))
            assert rep.undecided_levels == [], d
            if rep.crossed and crossing_d is None:
                crossing_d = d
            if d < 7:
                assert not rep.crossed, d
        assert crossing_d == 7
    _gate(14, "level-set witness search crosses log_3 19 first in dimension 7",
          600.0, body)
