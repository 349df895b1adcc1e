"""Budget refusals and the seeded box draw.

Every refusal exits 2 with one ``budget refused:`` line, names a count
Python cannot print by its size, and comes back in seconds, since no
refused shape computes q^w points, or C(2^n, q) when its lower bound
(2^n/q)^q is already too long to print. The one seeded draw,
``boxes.random_box``, draws exactly ``rng.randrange(C(2^n, q))`` per side.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from condlab.boxes import QBox, enumerate_qboxes, image_of_box, random_box
from condlab.cli import main
from condlab.condenser import empirical_condenser_profile
from condlab.errors import BudgetError
from condlab.perms import PermutationSpec

ROOT = Path(__file__).resolve().parents[1]
PI1_HUGE_Q = ("--spec", "pi1", "--n", "61", "--q", "1000000")
EPS = ("--eps1", "0.25", "--eps2", "0.25")


def condlab(*argv):
    return subprocess.run(
        [sys.executable, "-m", "condlab", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=20,
    )


@pytest.mark.parametrize("argv, printable", [
    (("perm", "verify", "--spec", "piw", "--n", "2", "--w", "8000"), False),
    (("perm", "export-table", "--spec", "piw", "--n", "2", "--w", "8000",
      "--out", os.devnull), False),
    (("cond", "--spec", "random", "--n", "64", "--w", "300", "--q", "2",
      "--mode", "heuristic", "--budget", "1"), False),
    (("cond", "--spec", "piw", "--n", "2", "--w", "8000", "--q", "4"), False),
    (("cond", "--spec", "piw", "--n", "2", "--w", "8000", "--q", "4",
      "--mode", "heuristic"), False),
    (("cond", *PI1_HUGE_Q, "--mode", "heuristic", "--budget", "1"), True),
    (("condenser-profile", *PI1_HUGE_Q, *EPS, "--trials", "1"), True),
    (("decompose", *PI1_HUGE_Q, *EPS, "--eps3", "0.1"), True),
    (("cond", "--spec", "identity", "--n", "64", "--w", "1", "--q", "65536",
      "--mode", "heuristic", "--budget", "1"), False),
])
def test_refusal_exits_2_in_seconds_with_one_line(argv, printable):
    proc = condlab(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("budget refused: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert ("refused count" in proc.stderr) == printable
    assert proc.stdout == ""


def test_a_printable_dense_draw_finishes_in_seconds():
    # C(8192, 4096) has 2,464 digits, under the refusal limit: the draw and
    # the greedy box over its 4,096-point image both finish under the timeout
    proc = condlab("cond", "--spec", "identity", "--n", "13", "--w", "1", "--q", "4096",
                   "--mode", "heuristic", "--budget", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "condd=1 mode=heuristic witnesses=yes\n"


def test_a_profile_of_no_trials_draws_no_box():
    proc = condlab("condenser-profile", *PI1_HUGE_Q, *EPS, "--trials", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "trials=0\n", "")


def test_library_refusals_of_unprintable_counts_carry_no_count():
    with pytest.raises(BudgetError) as exc:
        list(enumerate_qboxes(61, 100, 3))
    assert exc.value.refused is None
    assert str(exc.value) == ("enumeration needs C(2^61,100)^3 >= 10^4908 boxes, "
                              "over the budget of 1000000")
    spec = PermutationSpec.piw(2, 8000)
    with pytest.raises(BudgetError) as exc:
        image_of_box(spec, QBox(((0, 1, 2, 3),) * 8000, 2))
    assert exc.value.refused is None
    assert str(exc.value) == "box holds >= 10^4816 points, over the budget of 4194304"


@pytest.mark.parametrize("n, q, message", [
    # the bound (2^n/q)^q already passes 4300 digits: C(2^n, q) is not computed
    (64, 65536, "a seeded draw needs C(2^64,65536) >= 10^946958 ranks per side, "
                "past the 4300 digits a count may print"),
    # the bound fits but C(2^n, q) itself does not
    (14, 8192, "a seeded draw needs C(2^14,8192) >= 10^4929 ranks per side, "
               "past the 4300 digits a count may print"),
])
def test_a_draw_whose_side_rank_is_unprintable_is_refused(n, q, message):
    with pytest.raises(BudgetError) as exc:
        random_box(random.Random(0), n, q, 1)
    assert (str(exc.value), exc.value.refused) == (message, None)


def _reference_ranks(seed, n, q, w, count):
    rng = random.Random(seed)
    return [tuple(rng.randrange(comb(2 ** n, q)) for _ in range(w)) for _ in range(count)]


def _reference_sides(ranks, n, q):
    sides = list(itertools.combinations(range(2 ** n), q))
    return [list(sides[r]) for r in ranks]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("n, q, w", [(2, 2, 3), (4, 4, 3), (3, 1, 5), (2, 4, 2)])
def test_the_draw_is_one_randrange_per_side(seed, n, q, w):
    rng = random.Random(seed)
    drawn = [random_box(rng, n, q, w) for _ in range(3)]
    for (ranks, box), want in zip(drawn, _reference_ranks(seed, n, q, w, 3)):
        assert ranks == want
        assert [list(s) for s in box.sides] == _reference_sides(want, n, q)


@pytest.mark.parametrize("seed", [0, 5])
def test_profile_and_decompose_draw_the_reference_boxes(seed, tmp_path):
    want = _reference_ranks(seed, 4, 4, 3, 3)
    profile = empirical_condenser_profile(PermutationSpec.pi1(4), 2.0, 0.25, 0.25, 3, seed)
    assert [t.box_ranks for t in profile.trials] == want
    out = tmp_path / "dump.json"
    assert main(["decompose", "--spec", "pi1", "--n", "4", "--q", "4", *EPS,
                 "--eps3", "0.1", "--box-seed", str(seed), "--trials", "3",
                 "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["box"] for r in runs] == [_reference_sides(r, 4, 4) for r in want]


def test_malformed_cli_input_is_one_error_line(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\xff\xfe not text\n")
    pi1 = ("--spec", "pi1", "--n", "2")
    for argv in (("perm", "eval", *pi1, "--point", "zz,1,2"),
                 ("perm", "invert", *pi1, "--point", ",1,2"),
                 ("experiment", "--n", "2", "--q", "2", "--w-list", "x"),
                 ("perm", "verify", "--spec", "table", "--table-file", str(raw)),
                 ("decompose", *pi1, "--q", "2", *EPS, "--eps3", "0.1",
                  "--box-file", str(raw)),
                 ("cond", *pi1, "--q", "2", "--checkpoint", str(raw)),
                 # not an option: one "unrecognized arguments" line
                 ("perm", "verify", *pi1, "--budget-bits", "-1"),
                 ("cond", *pi1, "--q", "2", "--budget", "-1")):
        assert main(list(argv)) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("error: ", "parse error: "))
        assert captured.err.count("\n") == 1, captured.err
    # a zero budget is still a budget: the search is refused, not misused
    assert main(["cond", *pi1, "--q", "2", "--budget", "0"]) == 2
    assert capsys.readouterr().err.startswith("budget refused: ")


@pytest.mark.parametrize("header, code, err", [
    ("n=64 w=1000", 2, "budget refused: a table file over a 64000-bit domain exceeds "
                       "the 24-bit budget\n"),
    ("n=5 w=5", 2, "budget refused: a table file over a 25-bit domain exceeds the 24-bit "
                   "budget (refused count: 33554432)\n"),
    ("n=-1 w=3", 1, "parse error: line 1: bad header fields in "
                    "'condlab-table v1 n=-1 w=3'\n"),
    ("n=2 w=0", 1, "parse error: line 1: bad header fields in "
                   "'condlab-table v1 n=2 w=0'\n"),
    ("n=0 w=3", 1, "parse error: line 1: bad header fields in "
                   "'condlab-table v1 n=0 w=3'\n"),
    ("n=65 w=1", 1, "parse error: line 1: bad header fields in "
                    "'condlab-table v1 n=65 w=1'\n"),
])
def test_table_file_headers_are_checked_before_the_body(header, code, err, tmp_path):
    # the body is garbage: a check that read it first would name line 2
    path = tmp_path / "h.tbl"
    path.write_text(f"condlab-table v1 {header}\nnot hex\n")
    proc = condlab("perm", "verify", "--spec", "table", "--table-file", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
