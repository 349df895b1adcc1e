"""Self-test of the benchmark harness, at tiny shapes; under a minute.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

* every workload runs at n=2 with and without tracing, and prints
  exactly the metric names and units of BENCHMARK.json, plus its own
  metrics from plan.json by name;
* a traced job's layer self times plus its unattributed time add up to
  its wall time;
* a deliberately wrong expected value makes jobs fail, ``fail_frac``
  rise and the command exit nonzero;
* a boundary that no longer exists is reported as unmeasured by name
  while the run still completes;
* the pinned exact reference values match a fresh computation;
* plan.json, BENCHMARK.json and the code name the same jobs and metrics;
* in a directory holding only BENCHMARK.json and perfbench/, the
  command exits nonzero without printing a result.

Exits 0 when all pass and 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def command(workload, trace, seed=5):
    return [*BENCH["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]


def run(args, cwd=ROOT):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


def patched(workload, trace, patch):
    """The command run in-process after ``patch`` (Python source) runs."""
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            f"import run, workloads, tracing, reference; {patch}; "
            f"sys.exit(run.main({command(workload, trace)[2:]!r}))")
    return run([sys.executable, "-c", code])


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_smoke(workload, trace):
    proc = run(command(workload, trace))
    res = result_of(proc)
    label = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{label}: exit 0 (got {proc.returncode}) {proc.stderr[-300:]}")
    if res is None:
        expect(False, f"{label}: printed a result")
        return
    expect(set(res) == RESULT_KEYS, f"{label}: result keys {sorted(res)}")
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
           f"{label}: correct with no failures")
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
           f"{label}: every value is a number")
    # traced runs measure no set-up time or memory
    named = [k for k, v in PLAN["end_to_end"].items() if workload in v["workloads"]
             and (not trace or k == "run_s" or not v["in_benchmark_json"])]
    shown = [ln.split(" = ")[0].strip() for ln in proc.stdout.splitlines() if " = " in ln]
    expect(all(k in shown for k in named), f"{label}: prints {named} by name")
    if trace:
        record = json.loads((ROOT / ".perfbench" / f"{workload}-seed5-trace1.json").read_text())
        sums = [(a["wall_s"], sum(a["layers"].values()) + a["unattributed_s"])
                for accounts in record["accounts"] for a in accounts.values()]
        expect(all(abs(w - s) <= 1e-9 * max(1.0, w) for w, s in sums),
               f"{label}: layer self times plus unattributed add up to each job's wall time")


def main():
    for workload in ("exact", "scan", "large"):
        for trace in (0, 1):
            check_smoke(workload, trace)

    proc = patched("exact", 0, "reference.exact_max_count = lambda m, q: -1")
    res = result_of(proc)
    expect(proc.returncode != 0 and res is not None and res["failed"] > 0
           and not res["correct"] and "fail_frac = 0 " not in proc.stdout,
           f"wrong expected value: exit {proc.returncode}, failed "
           f"{res and res['failed']} of {res and res['attempted']}")

    patch = ("import dataclasses; tracing.BOUNDARIES = tuple("
             "dataclasses.replace(b, bindings=('condlab.conductance:_renamed_bnb',)) "
             "if b.name == '_best_box_bnb' else b for b in tracing.BOUNDARIES)")
    proc = patched("exact", 1, patch)
    expect(proc.returncode == 0 and result_of(proc) is not None
           and "conductance.inner_calls = unmeasured" in proc.stdout
           and "_renamed_bnb" in proc.stdout,
           "missing boundary: reported unmeasured by name and the run completes")

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import reference
    import tracing
    import workloads

    exact = workloads.Exact(workloads.DEFAULT_SEED, workloads.FULL["exact"], str(ROOT))
    computed = {k: reference.exact_max_count(m, exact.q) for k, m in exact.refmaps().items()}
    expect(computed == workloads.PINNED_EXACT, f"pinned exact values {computed}")

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, workloads.SMOKE[name], str(ROOT))
        jobs = [j.name for j in wl.jobs(wl.setup())]
        expect(jobs == list(PLAN["workloads"][name]["jobs"]), f"{name}: plan.json job list")
        metric_jobs = {j for m in cls.metrics for j in m.jobs}
        expect(metric_jobs <= set(jobs), f"{name}: metrics name existing jobs")
    expect([w["name"] for w in BENCH["workloads"]] == list(PLAN["workloads"]),
           "BENCHMARK.json and plan.json list the same workloads")
    expect([m["name"] for m in BENCH["per_layer"]] == list(tracing.LAYER_METRICS)
           == list(PLAN["per_layer"]), "per-layer metrics agree across files")
    gated = [k for k, v in PLAN["end_to_end"].items() if v["in_benchmark_json"]]
    expect([m["name"] for m in BENCH["end_to_end"]] == gated,
           "end-to-end metrics agree with plan.json")

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(command("exact", 0), cwd=bare)
        expect(proc.returncode != 0 and result_of(proc) is None,
               f"bare directory: exit {proc.returncode} and no result")

    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
