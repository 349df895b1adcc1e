"""The benchmark's own output checks, run at its tiny shapes.

``perfbench/workloads.py`` checks every job's output against
``perfbench/reference.py``, which does not import condlab. Running each
job of each workload here, for three seeds, makes a wrong result fail
the suite instead of surfacing only in a benchmark run. The files are
loaded as they are and nothing is written next to them.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["exact", "scan", "large"])
def test_every_job_passes_its_check_at_smoke_shapes(workloads, name, tmp_path):
    for seed in range(3):
        workload = workloads.WORKLOADS[name](seed, workloads.SMOKE[name], str(tmp_path))
        ctx = workload.setup()
        for job in workload.jobs(ctx):
            if job.prepare is not None:
                job.prepare()
            assert job.check(job.run()) == [], (name, seed, job.name)
