"""Byte-identity sweep of the exact search.

    PYTHONPATH=src python tests/exact_sweep.py            # every shape
    PYTHONPATH=src python tests/exact_sweep.py --cheap    # the tier-1 subset
    PYTHONPATH=src python tests/exact_sweep.py --reports  # not the write rule
    PYTHONPATH=src python tests/exact_sweep.py --unpacked # COUNT_TABLE_BYTES = 0

Prints one line per shape: its name and the sha256 of everything the
exact search leaves there, run three ways:

* plain: the report without its wall time, or the refusal (its type,
  message, witness and refused count);
* with a checkpoint at every cursor move (``CHECKPOINT_SECONDS = 0``):
  the same, and the rank and bytes of every checkpoint it writes;
* interrupted at half of those writes, then resumed from that file with
  a checkpoint at every cursor move: the same for the resumed run.

Two revisions of the engine that print the same lines give the same
reports, refusals and checkpoint bytes on every shape. With
``--reports`` a line hashes only what does not depend on when the engine
writes checkpoints: the plain outcome, the outcome of a run with a
checkpoint file, and the file that run leaves when it finishes or a
budget refuses it. ``--unpacked`` first sets
``conductance.COUNT_TABLE_BYTES = 0``, so every column bound comes from
``slice_sizes``, as it does where packed counts do not fit, and compares
that path too; it combines with the other flags. The shapes are
identity and two random tables at n=1-3 and w=1-3, pi1, pi2, pi3 and
bothmix at n=1-3, and piw at n=2 w=4, at every q with at most 3,000 boxes,
plus those of 3,001-21,952 boxes with q <= 4: 155 shapes. The cheap subset
keeps the 126 of at most 3,000 boxes of at most 64 points each.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from math import comb

from condlab import conductance
from condlab.errors import CondlabError
from condlab.perms import PermutationSpec, random_table

SMALL_BOXES = 3000
FULL_BOXES = 21952
CHEAP_POINTS = 64


def specs():
    """(name, spec) of every swept map."""
    out = []
    for n in (1, 2, 3):
        for w in (1, 2, 3):
            out.append((f"identity n={n} w={w}", PermutationSpec.identity(n, w)))
            out += [(f"random seed={seed} n={n} w={w}", random_table(seed, n, w))
                    for seed in (0, 1)]
        out += [(f"{kind} n={n}", PermutationSpec(kind, n, 3))
                for kind in ("pi1", "pi2", "pi3", "bothmix")]
    out.append(("piw n=2 w=4", PermutationSpec.piw(2, 4)))
    return out


def shapes(cheap: bool):
    """(name, spec, q) of every swept shape, in a fixed order."""
    for name, spec in specs():
        for q in range(1, (1 << spec.n) + 1):
            boxes = comb(1 << spec.n, q) ** spec.w
            if cheap:
                keep = boxes <= SMALL_BOXES and q ** spec.w <= CHEAP_POINTS
            else:
                keep = boxes <= SMALL_BOXES or (boxes <= FULL_BOXES and q <= 4)
            if keep:
                yield f"{name} q={q}", spec, q


class _Stop(Exception):
    pass


def _outcome(run) -> tuple:
    """What one call leaves: its report without the wall time, or its refusal."""
    try:
        report = run().to_json_dict()
    except CondlabError as exc:
        return ("refused", type(exc).__name__, str(exc), getattr(exc, "witness", None),
                getattr(exc, "refused", None))
    del report["wall_seconds"]
    return ("report", sorted(report.items()))


def _checkpointed(spec, q, path, stop_at=None) -> tuple:
    """The outcome of a run writing at every cursor move and the (rank,
    bytes) of its writes; with ``stop_at``, the run stops after that many
    writes."""
    real_write, real_seconds = conductance.write_checkpoint, conductance.CHECKPOINT_SECONDS
    writes = []

    def write_and_keep(*args):
        real_write(*args)
        with open(path, "rb") as fh:
            writes.append((args[3], fh.read()))
        if len(writes) == stop_at:
            raise _Stop

    conductance.write_checkpoint, conductance.CHECKPOINT_SECONDS = write_and_keep, 0
    try:
        outcome = _outcome(lambda: conductance.exact_conductance(spec, q, checkpoint_path=path))
    except _Stop:
        outcome = ("stopped",)
    finally:
        conductance.write_checkpoint, conductance.CHECKPOINT_SECONDS = real_write, real_seconds
    return outcome, writes


def digest(spec, q) -> str:
    """sha256 of the three runs of one shape."""
    with tempfile.TemporaryDirectory() as tmp:
        plain = _outcome(lambda: conductance.exact_conductance(spec, q))
        whole = _checkpointed(spec, q, os.path.join(tmp, "whole.ckpt"))
        path = os.path.join(tmp, "resumed.ckpt")
        half = len(whole[1]) // 2
        if half:
            _checkpointed(spec, q, path, stop_at=half)
        resumed = _checkpointed(spec, q, path)
    return hashlib.sha256(repr((plain, whole, resumed)).encode()).hexdigest()


def report_digest(spec, q) -> str:
    """sha256 of a plain run, a run with a checkpoint file, and the file
    that run leaves when it finishes or a budget refuses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ckpt")
        plain = _outcome(lambda: conductance.exact_conductance(spec, q))
        checked = _outcome(lambda: conductance.exact_conductance(spec, q, checkpoint_path=path))
        left = None
        if checked[0] == "report" or checked[1] == "BudgetError":
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    left = fh.read()
    return hashlib.sha256(repr((plain, checked, left)).encode()).hexdigest()


def lines(cheap: bool, reports: bool = False):
    """One ``name<TAB>sha256`` line per shape."""
    for name, spec, q in shapes(cheap):
        yield f"{name}\t{(report_digest if reports else digest)(spec, q)}"


def main(argv) -> int:
    if "--unpacked" in argv:
        conductance.COUNT_TABLE_BYTES = 0
    for line in lines("--cheap" in argv, "--reports" in argv):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
