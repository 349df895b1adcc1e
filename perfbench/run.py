"""condlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; condlab is imported from ``src/``.
The workload's job list runs as a closed loop (one client, each job
starting when the previous returns) in passes, as many as fit in
``--seconds`` and at least one. Every job's output is checked
outside the timed region, and a job that raises or fails its check
counts as failed.

Times are reported in reference seconds (``speed.py``): each job's and
each set-up's wall time is scaled by the host's speed, measured with a
fixed calibration loop around and during it, which cancels the drift of
a shared host's core speed. Raw wall times are printed beside them
(``*_wall_s``) and kept in the record.

``--trace 0`` measures the end-to-end metrics in ``BENCHMARK.json``:

* ``setup_s``: script start to the first timed job: importing condlab,
  building every spec and table and generating the seeded inputs. The
  median of ``SETUP_SAMPLES``: this process and fresh interpreters that
  do only the set-up, started between passes (outside the time budget).
* ``run_s``: time to solution for the whole job list (checks excluded):
  the sum over jobs of each job's mean time over passes.
* ``peak_rss_mb``: ``ru_maxrss`` of this process after set-up and the
  first pass.

It also prints the workload's own metrics (``workloads.*.metrics``) and
``fail_frac``, all by name with units. ``--trace 1`` is a separate run
that alternates untraced passes with passes under the boundary tracer of
``tracing.py`` and reports the per-layer metrics, including the tracing
overhead. The last line of standard output is the JSON result, after a
line with the environment (Python, cores, cache sizes, git revision,
numpy, seed and, on ``scan``, computed working-set bytes). A fuller
record with every pass and, when traced, every span is written to
``.perfbench/`` in the checkout. The exit code is 0 when
every job passed, 1 when some failed and 2 when the checkout holds no
condlab to measure.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact", "scan", "large"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes (n=2) for the self-test; not a measurement")
    return p.parse_args(argv)


def import_condlab():
    """Import condlab from this checkout's src/, or return None."""
    if not (SRC / "condlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import condlab

    if not Path(condlab.__file__).resolve().is_relative_to(SRC):
        return None
    return condlab


_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import run
print(*run.setup_seconds(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", t0))
"""


def probe_setup(args) -> tuple:
    """Set-up seconds of a fresh interpreter (import plus one set-up),
    as wall and as reference seconds."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(Path(__file__).parent), args.workload,
         str(args.seed), "1" if args.smoke else "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    wall, ref = out.stdout.split()[-2:]
    return float(wall), float(ref)


def setup_seconds(workload, seed, smoke, t0) -> tuple:
    """Run one set-up in this process; returns ``measured_setup``'s times."""
    if import_condlab() is None:
        raise SystemExit(2)
    import workloads

    shapes = (workloads.SMOKE if smoke else workloads.FULL)[workload]
    return measured_setup(workloads.WORKLOADS[workload](seed, shapes, str(OUT_DIR)), t0)[1]


def measured_setup(wl, t0):
    """Run ``wl.setup()``; returns its context and the seconds from t0 to
    its end, as wall and as reference seconds."""
    with speed.Sampler() as sampler:
        ctx = wl.setup()
        wall = time.perf_counter() - t0
    return ctx, (wall, speed.ref_seconds(wall, sampler.samples + speed.edge_samples()))


def run_pass(jobs, tracer=None):
    """Run every job once, in order; returns one record per job. A job's
    ``prepare`` runs untimed and, in a traced pass, untraced."""
    records = []
    for job in jobs:
        if job.prepare is not None:
            if tracer:
                tracer.uninstall()
            try:
                job.prepare()
            finally:
                if tracer:
                    tracer.install()
        before = speed.edge_samples()
        with speed.Sampler() as sampler:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = tracer.run_job(job.name, job.run) if tracer else job.run()
                error = None
            except Exception as exc:  # a failing job is an outcome to count, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        cpu -= sampler.cpu_s
        samples = before + sampler.samples + speed.edge_samples()
        if error is None:
            try:
                problems = job.check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        work = job.work(result) if job.work is not None and error is None else 0
        records.append({"job": job.name, "wall_s": wall,
                        "ref_s": speed.ref_seconds(wall, samples),
                        "loop_s": statistics.median(samples), "samples": len(samples),
                        "cpu_s": cpu, "work": work, "problems": problems})
    return records


def _cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def named_values(metrics, passes) -> dict:
    """Each workload metric over all passes: total work over total
    reference seconds of its jobs, or the inverse for a time metric."""
    out = {}
    for m in metrics:
        chosen = [r for records in passes for r in records if r["job"] in m.jobs]
        secs = sum(r["ref_s"] for r in chosen)
        work = sum(r["work"] for r in chosen)
        if m.kind == "rate":
            out[m.name] = (work / secs if secs else 0.0, m.unit)
        else:
            out[m.name] = (secs / work if work else 0.0, m.unit)
    return out


def job_list_seconds(passes, key="ref_s") -> float:
    """Sum over jobs of each job's mean ``key`` over passes: the expected
    time of the job list. A mean, not a median, because on ``large`` a
    job's inputs change from pass to pass and its cost with them (the
    converse job's by up to threefold, in two clusters), and the expected
    cost over inputs is their mean."""
    return sum(statistics.fmean(p[i][key] for p in passes) for i in range(len(passes[0])))


def measure(jobs, seconds, tracer, between=None):
    """Passes while the next one is expected to end within ``seconds``,
    and at least one. With a tracer, passes alternate untraced and traced,
    starting untraced, and at least one of each runs. ``between`` runs
    after each untraced pass, outside the time budget. Also returns
    ``ru_maxrss`` after the first pass, in MiB: the peak of set-up plus
    one job list, which later passes would only raise by fragmenting the
    heap."""
    untraced, traced, traced_records = [], [], []
    start = time.perf_counter()
    paused = 0.0
    rss_mb = None
    last = {}  # traced or not -> seconds its latest pass took, checks included
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if untraced and (traced or tracer is None):
            expected = time.perf_counter() - start - paused + last[use_tracer]
            if expected > seconds:
                break
        t0 = time.perf_counter()
        if use_tracer:
            tracer.pass_index = len(traced)
            tracer.install()
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
            traced_records.append(tracer.take_records())
        else:
            untraced.append(run_pass(jobs))
        last[use_tracer] = time.perf_counter() - t0
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if between is not None and not use_tracer:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
    return untraced, traced, traced_records, rss_mb


def environment(seed, wl, ctx) -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "git_revision": _git_revision(),
        "seed": seed,
    }
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    env.update(wl.environment(ctx))
    return env


def _cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (read-only sysfs)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                text = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
                sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def _git_revision():
    """HEAD of the checkout's git metadata, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_condlab() is None:
        print(f"no condlab package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    import workloads

    shapes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, shapes, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
            try:
                ctx = tracer.run_job("setup", wl.setup)
            finally:
                tracer.uninstall()
            setup_samples, more_samples = [], None
        else:
            ctx, first = measured_setup(wl, T0)
            setup_samples = [first]

            def more_samples():
                # probes spread over the run sample the machine's changing speed
                if len(setup_samples) < SETUP_SAMPLES:
                    setup_samples.append(probe_setup(args))

        setup_records = tracer.take_records() if tracer else []
        jobs = wl.jobs(ctx)
        untraced, traced, traced_records, peak_rss_mb = measure(
            jobs, args.seconds, tracer, more_samples)
        while more_samples is not None and len(setup_samples) < SETUP_SAMPLES:
            more_samples()
        env = environment(args.seed, wl, ctx)

    all_passes = untraced + traced
    attempted = sum(len(p) for p in all_passes)
    failures = [(i, r["job"], r["problems"]) for i, p in enumerate(all_passes)
                for r in p if r["problems"]]
    run_s = job_list_seconds(untraced)
    run_wall_s = job_list_seconds(untraced, "wall_s")
    named = named_values(wl.metrics, untraced)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "env": env,
        "setup": {"import_s": import_s, "samples_wall_and_ref_s": setup_samples},
        "untraced_passes": untraced, "traced_passes": traced,
        "failures": failures,
    }

    if args.trace:
        metrics, extra = layer_metrics(tracer, setup_records, traced_records, untraced, traced)
        record.update(extra)
    else:
        metrics = {
            "setup_s": (statistics.median(r for _, r in setup_samples), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    walls = {"run_wall_s": (run_wall_s, "s")}
    if setup_samples:
        walls["setup_wall_s"] = (statistics.median(w for w, _ in setup_samples), "s")
    shown = {"run_s": (run_s, "s"), **metrics, **walls, **named,
             "fail_frac": (len(failures) / attempted, "ratio")}
    unmeasured = record.get("per_layer_unmeasured", {})

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced, {len(traced)} traced; jobs={attempted} "
          f"failed={len(failures)} record={out.relative_to(ROOT)}")
    for name, (value, unit) in shown.items():
        if name in unmeasured:
            print(f"  {name} = unmeasured (not found: {'; '.join(unmeasured[name])})")
        else:
            shown_value = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name} = {shown_value} {unit}")
    print("env", json.dumps(env))
    for i, job, problems in failures:
        print(f"FAILED pass {i} job {job}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def layer_metrics(tracer, setup_records, traced_records, untraced, traced):
    """Per-layer metrics: the traced set-up plus the median traced pass,
    and the two ratios measured around whole jobs and passes."""
    per_pass = [tracing.layer_values(r) for r in traced_records]
    setup = tracing.layer_values(setup_records)
    values = {k: setup[k] + statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.unattributed_s"] = statistics.median_low(p["trace.unattributed_s"] for p in per_pass)
    inner = [p["conductance.inner_win_ratio"] for p in per_pass]
    values["conductance.inner_win_ratio"] = statistics.median_low(inner)
    sharded = [r["cpu_s"] / r["wall_s"] for p in untraced for r in p if r["job"] == "pi1_t2"]
    values["conductance.cpu_per_wall"] = statistics.median(sharded) if sharded else 0.0
    values["trace.overhead_frac"] = job_list_seconds(traced) / job_list_seconds(untraced) - 1
    unmeasured = tracing.unmeasured_metrics(tracer.unmeasured)
    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
    extra = {
        "per_layer_unmeasured": unmeasured,
        "accounts": [tracing.job_accounts(r) for r in traced_records],
        "spans": tracer.spans,
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
