"""The benchmark's workloads: seeded set-up, job lists and output checks.

Every workload is a fixed list of jobs run in order by one client, each
job starting when the previous one returns (a closed loop). A job's
``run`` is the timed call into condlab; its ``check`` runs afterwards,
untimed, and compares the output with expectations computed by
``reference`` (which does not import condlab) or pinned below.

``FULL`` holds the measured shapes and ``SMOKE`` tiny ones (n=2) that
the self-test uses to exercise the same code paths in seconds.
"""

from __future__ import annotations

import functools
import os
import random
import sys
from dataclasses import dataclass
from math import comb

import condlab as cl
from condlab.boxes import QBox
from condlab.perms import WordVector

import reference as ref

DEFAULT_SEED = 0

FULL = {
    "exact": {"n": 3, "q": 2},
    "scan": {"pi1_n": 7, "piw": (2, 9), "bothmix_n": 7, "table": (5, 4), "samples": 2000},
    "large": {"heur_pi1": (17, 4, 8), "heur_piw": (5, 6, 4, 4),
              "profile": (11, 5, 3), "converse": (5, 4, 1)},
}
SMOKE = {
    "exact": {"n": 2, "q": 2},
    "scan": {"pi1_n": 2, "piw": (2, 4), "bothmix_n": 2, "table": (2, 4), "samples": 50},
    "large": {"heur_pi1": (3, 2, 3), "heur_piw": (2, 4, 2, 3),
              "profile": (3, 1, 2), "converse": (2, 2, 1)},
}

# max_count of every exact job at FULL shapes, from
# reference.exact_max_count. identity and pi1 do not depend on the seed;
# the table's value holds for DEFAULT_SEED, and any other seed recomputes
# it (about 4 s, once per run).
PINNED_EXACT = {"identity": 8, "pi1": 8, "table": 5}

EPS1, EPS2, EPS3 = 0.25, 0.25, 0.1

# the sharded exact job uses two threads, never more than the cores here
THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class Job:
    """One call into condlab. ``prepare`` runs untimed before ``run``;
    ``check`` returns a list of problems (empty when the output is right);
    ``work`` gives the units the job adds to its named metric."""

    name: str
    run: object
    check: object
    prepare: object = None
    work: object = None


@dataclass(frozen=True)
class NamedMetric:
    """A workload's own end-to-end metric over ``jobs``: ``rate`` is work
    units per second, ``time`` seconds per work unit."""

    name: str
    unit: str
    kind: str
    jobs: tuple


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _problems(*pairs):
    """Messages for every (ok, message) pair whose test failed."""
    return [msg for ok, msg in pairs if not ok]


def _sides(box):
    return tuple(tuple(s) for s in box.sides)


def _report_checks(report, refmap, q, expected_count):
    """Witnesses are q-boxes that replay, in the benchmark's own code, to
    the reported count, which must equal ``expected_count`` when given."""
    n, w = refmap.n, refmap.w
    u, v = _sides(report.witness_u), _sides(report.witness_v)
    valid = ref.is_qbox(u, n, w, q) and ref.is_qbox(v, n, w, q)
    out = _problems(
        (valid, f"witnesses are not q-boxes: {u} {v}"),
        (expected_count is None or report.max_count == expected_count,
         f"max_count {report.max_count}, reference {expected_count}"),
    )
    if valid:
        replay = ref.box_count(refmap, u, v)
        out += _problems((replay == report.max_count,
                          f"witnesses replay to {replay}, report says {report.max_count}"))
    return out


# --- exact ------------------------------------------------------------------


class Exact:
    """exact_conductance at w=3 over every outer box: identity, pi1
    serial, pi1 on two threads, and a seeded random table that writes
    checkpoints."""

    metrics = (NamedMetric("exact_boxes_per_s", "boxes/s", "rate",
                           ("identity", "pi1_t1", "pi1_t2", "table_ckpt")),)

    def __init__(self, seed, shapes, workdir):
        self.seed = seed
        self.n, self.q = shapes["n"], shapes["q"]
        self.pinned = shapes == FULL["exact"]
        self.table_seed = seeded_rng("exact", seed).randrange(1 << 31)
        self.ckpt = os.path.join(workdir, "exact.ckpt")
        self.total = comb(1 << self.n, self.q) ** 3

    def setup(self):
        n = self.n
        return {
            "identity": cl.PermutationSpec.identity(n, 3),
            "pi1": cl.PermutationSpec.pi1(n),
            "table": cl.random_table(self.table_seed, n, 3),
        }

    def refmaps(self):
        n = self.n
        return {
            "identity": ref.RefMap("identity", n, 3),
            "pi1": ref.RefMap("pi1", n, 3),
            "table": ref.RefMap("table", n, 3, ref.shuffled_table(self.table_seed, 3 * n)),
        }

    @functools.cached_property
    def expected(self):
        return {k: PINNED_EXACT[k] if self.pinned and (k != "table" or self.seed == DEFAULT_SEED)
                else ref.exact_max_count(m, self.q) for k, m in self.refmaps().items()}

    def jobs(self, ctx):
        q, total = self.q, self.total
        maps = self.refmaps()
        serial = {}

        def common(report, kind):
            return _report_checks(report, maps[kind], q, self.expected[kind]) + _problems(
                (report.boxes_examined == total and report.exhausted,
                 f"examined {report.boxes_examined} of {total} boxes"))

        def check_identity(report):
            first = (tuple(range(q)),) * 3
            return common(report, "identity") + _problems(
                (_sides(report.witness_u) == first and _sides(report.witness_v) == first,
                 f"identity witnesses {report.witness_u} {report.witness_v}, want {first}"))

        def check_serial(report):
            serial["pi1"] = _content(report)
            return common(report, "pi1")

        def check_sharded(report):
            return common(report, "pi1") + _problems(
                (_content(report) == serial.get("pi1"),
                 "threads=2 report differs from threads=1"))

        def check_table(report):
            return common(report, "table") + _problems(
                (list(ctx["table"].table) == maps["table"].table,
                 "random_table differs from the seeded shuffle"),
                (_checkpoint_examined(self.ckpt) == total,
                 "final checkpoint does not record the whole scan"))

        def drop_checkpoint():
            if os.path.exists(self.ckpt):
                os.remove(self.ckpt)

        boxes = lambda r: r.boxes_examined  # noqa: E731
        return [
            Job("identity", lambda: cl.exact_conductance(ctx["identity"], q),
                check_identity, work=boxes),
            Job("pi1_t1", lambda: cl.exact_conductance(ctx["pi1"], q, threads=1),
                check_serial, work=boxes),
            Job("pi1_t2", lambda: cl.exact_conductance(ctx["pi1"], q, threads=THREADS),
                check_sharded, work=boxes),
            Job("table_ckpt",
                lambda: cl.exact_conductance(ctx["table"], q, checkpoint_path=self.ckpt),
                check_table, prepare=drop_checkpoint, work=boxes),
        ]

    def environment(self, ctx):
        return {}


def _content(report) -> dict:
    d = report.to_json_dict()
    d.pop("wall_seconds")
    return d


def _checkpoint_examined(path):
    with open(path) as fh:
        if fh.readline().strip() != "condlab-ckpt v1":
            return None
        for line in fh:
            key, _, value = line.strip().partition("=")
            if key == "boxes_examined":
                return int(value)
    return None


# --- scan -------------------------------------------------------------------


class Scan:
    """Whole-domain permutation work: bijectivity scans of pi1, piw and
    bothmix, a seeded random table scanned, written and loaded back, and
    sampled eval/invert round trips."""

    metrics = (NamedMetric("scan_points_per_s", "points/s", "rate",
                           ("scan_pi1", "scan_piw", "scan_bothmix", "table_scan")),)

    def __init__(self, seed, shapes, workdir):
        self.seed = seed
        self.shapes = shapes
        self.table_seed = seeded_rng("scan", seed).randrange(1 << 31)
        self.samples = shapes["samples"]
        self.path = os.path.join(workdir, "scan.tbl")

    def setup(self):
        s = self.shapes
        rng = seeded_rng("scan-points", self.seed)
        ctx = {
            "pi1": cl.PermutationSpec.pi1(s["pi1_n"]),
            "piw": cl.PermutationSpec.piw(*s["piw"]),
            "bothmix": cl.PermutationSpec.bothmix(s["bothmix_n"]),
            "table": cl.random_table(self.table_seed, *s["table"]),
        }
        ctx["points"] = {
            k: [rng.randrange(1 << ctx[k].domain_bits) for _ in range(self.samples)]
            for k in ("pi1", "piw", "table")
        }
        return ctx

    def jobs(self, ctx):
        s = self.shapes
        nb = s["bothmix_n"]
        collision = ((1 << 2 * nb) + 1, (1 << 2 * nb) + (1 << nb))
        loaded = {}

        def bijective(kind):
            size = 1 << ctx[kind].domain_bits

            def check(r):
                return _problems((r.bijective and r.checked == size and r.collision is None,
                                  f"{kind}: bijective={r.bijective} checked={r.checked}"))
            return check

        def check_bothmix(r):
            return _problems(
                (not r.bijective and r.collision == collision and r.checked == collision[1] + 1,
                 f"bothmix collision {r.collision} after {r.checked}, want {collision}"),
                (self._first_collision(nb) == collision,
                 "own scan finds a different first bothmix collision"))

        def check_table_scan(r):
            return bijective("table")(r) + _problems(
                (self._own_table() == list(ctx["table"].table),
                 "random_table differs from the seeded shuffle"))

        def load():
            loaded["spec"] = cl.load_table_file(self.path)
            return loaded["spec"]

        def check_load(spec):
            return _problems((spec.table == ctx["table"].table
                              and (spec.n, spec.w) == (ctx["table"].n, ctx["table"].w),
                              "table file does not load back equal"))

        def round_trips():
            out = []
            for kind, spec in (("pi1", ctx["pi1"]), ("piw", ctx["piw"]),
                               ("table", loaded["spec"])):
                for x in ctx["points"][kind]:
                    y = spec.eval(WordVector.from_packed(x, spec.n, spec.w))
                    out.append((kind, x, y.packed(), spec.invert(y).packed()))
            return out

        def check_round_trips(rows):
            maps = self._refmaps()
            bad = [(k, x) for k, x, y, back in rows if back != x or y != maps[k](x)]
            return _problems((not bad, f"{len(bad)} round trips wrong, first {bad[:1]}"),
                             (len(rows) == 3 * self.samples, f"{len(rows)} round trips"))

        def drop_file():
            if os.path.exists(self.path):
                os.remove(self.path)

        checked = lambda r: r.checked  # noqa: E731
        return [
            Job("scan_pi1", lambda: cl.verify_bijective(ctx["pi1"]), bijective("pi1"),
                work=checked),
            Job("scan_piw", lambda: cl.verify_bijective(ctx["piw"]), bijective("piw"),
                work=checked),
            Job("scan_bothmix", lambda: cl.verify_bijective(ctx["bothmix"]), check_bothmix,
                work=checked),
            Job("table_scan", lambda: cl.verify_bijective(ctx["table"]), check_table_scan,
                work=checked),
            Job("table_write", lambda: cl.write_table_file(ctx["table"], self.path),
                lambda _: _problems((os.path.exists(self.path), "no table file written")),
                prepare=drop_file),
            Job("table_load", load, check_load),
            Job("round_trips", round_trips, check_round_trips),
        ]

    @functools.cache
    def _own_table(self):
        n, w = self.shapes["table"]
        return ref.shuffled_table(self.table_seed, n * w)

    @functools.cache
    def _first_collision(self, n):
        f = ref.RefMap("bothmix", n, 3)
        first = {}
        for x in range(1 << 3 * n):
            y = f(x)
            if y in first:
                return (first[y], x)
            first[y] = x
        return None

    def _refmaps(self):
        s = self.shapes
        return {
            "pi1": ref.RefMap("pi1", s["pi1_n"], 3),
            "piw": ref.RefMap("piw", *s["piw"]),
            "table": ref.RefMap("table", *s["table"], self._own_table()),
        }

    def environment(self, ctx):
        """Computed (not measured) working-set bytes of each scan job: the
        one-byte-per-output seen-array, plus the table for table kinds
        (tuple of pointers and one int object per entry)."""
        sets = {}
        for job, kind in (("scan_pi1", "pi1"), ("scan_piw", "piw"),
                          ("scan_bothmix", "bothmix"), ("table_scan", "table")):
            spec = ctx[kind]
            size = 1 << spec.domain_bits
            table = 0
            if spec.table is not None:
                table = sys.getsizeof(spec.table) + size * sys.getsizeof(size - 1)
            sets[job] = {"seen_array_bytes": size, "table_bytes": table, "label": "computed"}
        return {"working_set_bytes": sets}


# --- large ------------------------------------------------------------------


class Large:
    """Jobs whose cost grows with 2^n or q^w rather than with the box
    count: heuristic bounds on pi1 at large n and on piw with big images,
    a condenser profile with 32768-point images, and decompose plus
    converse-bound checks whose precondition runs the exact inner search.

    Every job draws fresh inputs for each pass, untimed, from its own
    stream seeded by the run's seed: the k-th pass of a seed always sees
    the same inputs. A job's cost varies with its inputs (the inner
    search severalfold from box to box), so a run summarises each job
    over several draws instead of resting on one."""

    metrics = (
        NamedMetric("heur_evals_per_s", "evals/s", "rate", ("heur_pi1", "heur_piw")),
        NamedMetric("cut_points_per_s", "points/s", "rate", ("profile_pi1",)),
        NamedMetric("converse_s", "s", "time", ("converse_pi1",)),
    )

    def __init__(self, seed, shapes, workdir):
        self.seed = seed
        self.shapes = shapes
        self.inputs = {}  # job -> this pass's inputs, set by its prepare

    def setup(self):
        s = self.shapes
        return {
            "heur_pi1": cl.PermutationSpec.pi1(s["heur_pi1"][0]),
            "heur_piw": cl.PermutationSpec.piw(*s["heur_piw"][:2]),
            "profile": cl.PermutationSpec.pi1(s["profile"][0]),
            "converse": cl.PermutationSpec.pi1(s["converse"][0]),
            "streams": {job: seeded_rng(f"large.{job}", self.seed)
                        for job in ("heur_pi1", "heur_piw", "profile_pi1", "converse_pi1")},
        }

    def jobs(self, ctx):
        s = self.shapes
        n1, q1, budget1 = s["heur_pi1"]
        nw, ww, qw, budgetw = s["heur_piw"]
        _, alpha_n, trials = s["profile"]
        nc, qc, boxes = s["converse"]
        converse_map = ref.RefMap("pi1", nc, 3)
        streams, inputs = ctx["streams"], self.inputs

        def draw_seed(job):
            def prepare():
                inputs[job] = streams[job].randrange(1 << 31)
            return prepare

        def draw_boxes():
            rng, radix = streams["converse_pi1"], comb(1 << nc, qc)
            drawn = [QBox.from_ranks(tuple(rng.randrange(radix) for _ in range(3)), nc, qc)
                     for _ in range(boxes)]
            inputs["converse_pi1"] = [(box, cl.image_of_box(ctx["converse"], box))
                                      for box in drawn]

        def heuristic(kind, spec_args, q, budget):
            refmap = ref.RefMap(*spec_args)

            def check(r):
                return _report_checks(r, refmap, q, None) + _problems(
                    (r.boxes_examined == budget, f"{kind}: {r.boxes_examined} evals"),
                    (1 <= r.max_count <= q ** refmap.w, f"{kind}: count {r.max_count}"))
            return check

        def check_profile(p):
            idx = [t.index for t in p.trials]
            return _problems(
                (idx == list(range(trials)), f"profile trial indices {idx}"),
                (all(0.0 <= t.gamma <= 1.0 for t in p.trials), "gamma outside [0, 1]"))

        def converse():
            out = []
            for _, image in inputs["converse_pi1"]:
                dec = cl.decompose(image, float(qc.bit_length() - 1), EPS1, EPS2)
                out.append((dec, cl.verify_converse_bounds(dec, EPS3)))
            return out

        def check_converse(results):
            problems = []
            for (box, _), (dec, rep) in zip(inputs["converse_pi1"], results, strict=True):
                try:
                    dec.validate()
                    valid = True
                except AssertionError:
                    valid = False
                image = converse_map.image(_sides(box))
                packed = sorted(converse_map.pack(t) for t in image)
                densest = ref.densest_count(image, qc)
                problems += _problems(
                    (valid, "Decomposition.validate() failed"),
                    (sorted(dec.source_points().points) == packed,
                     "parts do not union to the image"),
                    (rep.precondition_checked and rep.max_box_intersection == densest,
                     f"precondition max {rep.max_box_intersection}, reference {densest}"),
                    (rep.checks[0].holds is True, "unconditional R1 bound fails"))
            return problems

        evals = lambda r: r.boxes_examined  # noqa: E731
        q_profile = 1 << alpha_n
        return [
            Job("heur_pi1",
                lambda: cl.heuristic_lower_bound(ctx["heur_pi1"], q1, budget=budget1,
                                                 seed=inputs["heur_pi1"]),
                heuristic("heur_pi1", ("pi1", n1, 3), q1, budget1),
                prepare=draw_seed("heur_pi1"), work=evals),
            Job("heur_piw",
                lambda: cl.heuristic_lower_bound(ctx["heur_piw"], qw, budget=budgetw,
                                                 seed=inputs["heur_piw"]),
                heuristic("heur_piw", ("piw", nw, ww), qw, budgetw),
                prepare=draw_seed("heur_piw"), work=evals),
            Job("profile_pi1",
                lambda: cl.empirical_condenser_profile(ctx["profile"], float(alpha_n), EPS1,
                                                       EPS2, trials, inputs["profile_pi1"]),
                check_profile, prepare=draw_seed("profile_pi1"),
                work=lambda p: len(p.trials) * q_profile ** 3),
            Job("converse_pi1", converse, check_converse, prepare=draw_boxes, work=len),
        ]

    def environment(self, ctx):
        return {}


WORKLOADS = {"exact": Exact, "scan": Scan, "large": Large}
