"""Checks that must not disappear quietly: invariant checks under
``python -O``, the benchmark tracer's bindings into condlab, and numpy
staying out of the per-point paths."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPTIMIZED_SCRIPT = """
import json

import condlab.conductance as conductance
import condlab.gf2n as gf2n
from condlab import Decomposition, PermutationSpec, PointSet, RangeError, decompose


def failure(fn, error=AssertionError):
    try:
        fn()
    except error as exc:
        return str(exc)
    return None


real_greedy = conductance.greedy_box


def over_reporting_greedy(points, q):
    box, count = real_greedy(points, q)
    return box, count + 1


conductance.greedy_box = over_reporting_greedy
heuristic = failure(
    lambda: conductance.heuristic_lower_bound(PermutationSpec.pi1(2), 2, budget=3)
)
conductance.greedy_box = real_greedy

empty = PointSet((), 2, 3)
shared = PointSet([1, 2], 2, 3)
dec = Decomposition(parts=(shared, empty, empty), r0=shared, r1=empty, n=2,
                    w=3, alpha_n=1.0, eps1=0.25, eps2=0.25)
validate = failure(dec.validate)
nonfinite = failure(lambda: decompose(shared, 1.0, float("inf"), 0.25), RangeError)

gf2n.default_poly(3)  # cache the modulus, found with the real product
real_mul = gf2n.mul_raw
gf2n.mul_raw = lambda a, b, p: real_mul(a, b, p) ^ 1
selfcheck = failure(lambda: gf2n.selfcheck(3))

print(json.dumps({"debug": __debug__, "heuristic": heuristic, "validate": validate,
                  "nonfinite": nonfinite, "selfcheck": selfcheck}))
"""


def test_invariant_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["debug"] is False  # assert statements really are stripped
    assert "replays to" in seen["heuristic"]
    assert "overlap" in seen["validate"]
    assert seen["nonfinite"] == "eps1 and eps2 must be nonnegative, got inf, 0.25"
    assert "field axiom" in seen["selfcheck"]


def test_benchmark_tracer_bindings_resolve(monkeypatch):
    # a traced benchmark run reports a boundary it cannot bind as
    # "unmeasured"; here an unbound name fails the suite instead
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    unbound = []
    for boundary in tracing.BOUNDARIES:
        for binding in boundary.bindings:
            try:
                tracing._resolve(binding)
            except (ImportError, AttributeError):
                unbound.append(binding)
    assert unbound == []


NUMPY_SCRIPT = """
import json, sys, tempfile, os

from condlab import (PermutationSpec, decompose, empirical_condenser_profile,
                     exact_conductance, heuristic_lower_bound, image_of_box,
                     random_table, verify_bijective, verify_converse_bounds)
from condlab.boxes import QBox
from condlab.perms import _NUMPY_TABLE_SIZE

loaded = {}
below = _NUMPY_TABLE_SIZE.bit_length() - 2  # one bit below the numpy tables
PermutationSpec.explicit(random_table(7, below, 1).table[::-1], below, 1)
spec = random_table(5, 3, 3)
small = random_table(6, 2, 3)
with tempfile.TemporaryDirectory() as tmp:
    exact_conductance(small, 2, checkpoint_path=os.path.join(tmp, "c.ckpt"))
heuristic_lower_bound(spec, 2, budget=5, seed=1)
heuristic_lower_bound(PermutationSpec.pi1(17), 4, budget=3, seed=1)
box = QBox.from_ranks([3, 1, 4], 3, 2)
dec = decompose(image_of_box(spec, box), 1.0, 0.25, 0.25)
verify_converse_bounds(dec, 0.1)
image_of_box(PermutationSpec.piw(5, 6), QBox.from_ranks([5, 9, 2, 6, 5, 3], 5, 4))
empirical_condenser_profile(PermutationSpec.pi1(5), 2.0, 0.25, 0.25, 1, 0)
loaded["per_point"] = "numpy" in sys.modules
verify_bijective(spec)
loaded["scan"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""

LARGE_TABLE_SCRIPT = """
import json, sys
from condlab import PermutationSpec, random_table
from condlab.perms import _NUMPY_TABLE_SIZE

bits = _NUMPY_TABLE_SIZE.bit_length() - 1
loaded = {}
PermutationSpec.explicit(range(_NUMPY_TABLE_SIZE), bits, 1)
loaded["check"] = "numpy" in sys.modules
random_table(7, bits, 1)  # its words come from random.Random, not numpy.random
loaded["numpy.random"] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""


def test_numpy_stays_out_of_the_per_point_paths():
    # importing numpy costs more than the whole set-up of an exact run;
    # only the whole-domain passes may pull it in
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"per_point": False, "scan": True}


def test_tables_from_the_threshold_up_load_numpy_but_not_numpy_random():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LARGE_TABLE_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"check": True, "numpy.random": False}
