"""The four benchmark workloads: the operations of one pass.

An operation is one CLI job (``cubenergy.cli.main`` with ``--output`` into
the benchmark's work directory) or one call of a public function of
``cubenergy.legendre``.  Operations look their entry point up at call time,
so the traced run sees the wrappers it installs.  Every pass runs the same
operations in the same order.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

WORKLOADS = ("subset-sweep", "witness-levels", "certified-grids",
             "extension-search")

GRID_POINTS = 1000
GRID_KS = (2, 6, 10)
PSI_KS = (3, 7)
SIGNS_K_MAX = 60

SAMPLE_MASKS = 8000

# extension problems: (name, alphabet spec, k, flag, value, starts)
LOG3_19 = math.log(19) / math.log(3)
LOG2_6 = math.log2(6)
# p at which the full indicator of {0..4} has ratio exactly 1 for k = 3:
# E_3({0..4}) = 1751 = 5^p
LOG5_1751 = math.log(1751) / math.log(5)
# the optimizer's seed is fixed: its sweep count, and so the pass time,
# depends on the seed
OPTIMIZER_SEED = 0
EXTENSION_PROBLEMS = (
    ("pair", "0,1", 2, "--q", 4 / LOG2_6, 24),
    ("three-letters", "0,1,2", 2, "--p", LOG3_19, 24),
    ("segment-k3", "0,1,2,3,4", 3, "--p", LOG5_1751, 6),
    ("cube3-k2", "cube:1x3", 2, "--p", LOG2_6, 4),
)


@dataclass
class Op:
    """One operation: a CLI argv (``argv``) or a zero-argument library call
    (``call``) whose result has ``to_dict`` or is a dict of such results."""

    name: str
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None


def sample_seed(seed: int) -> int:
    """Seed handed to the sampled sweep, derived from the benchmark seed."""
    return random.Random("sample-%d" % seed).randrange(1 << 31)


def build(workload: str, seed: int, workdir: str) -> List[Op]:
    """The operations of one pass of ``workload``."""
    if workload == "subset-sweep":
        ops = [
            Op("additive-k2", ["verify", "--set", "cube:1x4", "--k", "2"]),
            Op("higher-k2", ["verify", "--set", "cube:1x4", "--k", "2",
                             "--kind", "higher"]),
            Op("higher-k3", ["verify", "--set", "cube:1x4", "--k", "3",
                             "--kind", "higher"]),
            # a float exponent above log2 6 takes the certified-floor path
            Op("custom-exponent", ["verify", "--set", "cube:1x4", "--k", "2",
                                   "--exponent", "2.6"]),
            Op("sample-1x5", ["verify", "--set", "cube:1x5", "--k", "2",
                              "--sample", str(SAMPLE_MASKS),
                              "--seed", str(sample_seed(seed))]),
        ]
    elif workload == "witness-levels":
        ops = [Op("witness-d7", ["witness", "--n", "2", "--d-max", "7"])]
    elif workload == "certified-grids":
        from cubenergy import legendre
        ops = []
        for k in GRID_KS:
            ops.append(Op("legendre-k%d" % k, call=lambda k=k:
                          legendre.check_legendre_inequality(k, points=GRID_POINTS)))
            ops.append(Op("key-k%d" % k, call=lambda k=k:
                          legendre.check_key_inequality(k, points=GRID_POINTS)))
            ops.append(Op("higher-k%d" % k, call=lambda k=k:
                          legendre.check_higher_energy_inequalities(k, points=GRID_POINTS)))
        for k in PSI_KS:
            ops.append(Op("psi-k%d" % k, call=lambda k=k: legendre.certify_psi_shape(k)))
        ops.append(Op("signs", ["signs", "--k-min", "2",
                                "--k-max", str(SIGNS_K_MAX)]))
    elif workload == "extension-search":
        ops = [Op(name, ["extension", "--alphabet", alphabet, "--k", str(k),
                         flag, repr(value), "--starts", str(starts),
                         "--seed", str(OPTIMIZER_SEED)])
               for name, alphabet, k, flag, value, starts in EXTENSION_PROBLEMS]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    for i, op in enumerate(ops):
        if op.argv is not None:
            op.argv = op.argv + ["--output", os.path.join(workdir, "op%d.json" % i)]
    return ops
