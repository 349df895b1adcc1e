"""Conductance engine tests: oracle agreement, witnesses, bounds, files."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from condlab.boxes import (
    QBox,
    PointSet,
    enumerate_qboxes,
    greedy_box,
    image_of_box,
    intersection_count,
    random_box,
)
from condlab.cli import main as cli_main
from condlab.conductance import (
    ConductanceReport,
    best_V_for_U,
    bound_sheet,
    cond_to_condd,
    condd_to_cond,
    degree_from_count,
    exact_conductance,
    heuristic_lower_bound,
    read_checkpoint,
)
from condlab.errors import (
    BudgetError,
    CondlabError,
    NotAPermutationError,
    RangeError,
    ShapeError,
)
from condlab.perms import PermutationSpec, pack_words, random_table, unpack_words

from naive_oracle import (
    identity_table,
    naive_max_count,
    naive_max_with_witness,
    pi1_table,
    pi2_table,
    pi3_table,
    piw4_table,
)


def _as_table_spec(table, n, w):
    return PermutationSpec.explicit(table, n, w)


def test_identity_small_shapes_match_oracle_and_formula():
    for w in (1, 2, 3):
        for q in (1, 2):
            spec = PermutationSpec.identity(2, w)
            report = exact_conductance(spec, q)
            assert report.max_count == q ** w
            assert report.max_count == naive_max_count(identity_table(w), q, w)
            assert report.condd == pytest.approx(w)


def test_identity_example_from_contract():
    report = exact_conductance(PermutationSpec.identity(2, 2), 2)
    assert report.max_count == 4
    assert report.condd == 2.0
    assert report.witness_u == report.witness_v == QBox(((0, 1), (0, 1)), 2)


@pytest.mark.parametrize("name,table", [("pi1", pi1_table()), ("pi3", pi3_table())])
@pytest.mark.parametrize("q", [1, 2])
def test_named_specs_match_oracle(name, table, q):
    spec = PermutationSpec(name, 2, 3)
    report = exact_conductance(spec, q)
    assert report.max_count == naive_max_count(table, q, 3)
    # the engine evaluates the formula spec; the oracle rebuilt the table
    assert [spec.apply_packed(x) for x in range(64)] == table


def test_random_tables_match_oracle_small_sample():
    for seed in range(6):
        for w, q in ((2, 2), (3, 2), (3, 1)):
            spec = random_table(seed, 2, w)
            report = exact_conductance(spec, q)
            assert report.max_count == naive_max_count(list(spec.table), q, w)
            assert 1.0 <= report.condd <= w


def test_witnesses_are_lexicographically_smallest():
    for seed in (0, 3, 9):
        spec = random_table(seed, 2, 2)
        report = exact_conductance(spec, 2)
        best, u_sides, v_sides = naive_max_with_witness(list(spec.table), 2, 2)
        assert report.max_count == best
        assert report.witness_u.sides == u_sides
        assert report.witness_v.sides == v_sides


def test_witness_replay_matches_reported_count():
    spec = PermutationSpec.pi3(2)
    for q in (1, 2):
        report = exact_conductance(spec, q)
        assert intersection_count(image_of_box(spec, report.witness_u),
                                  report.witness_v) == report.max_count


def test_parallel_equals_serial():
    spec = random_table(5, 2, 3)
    serial = exact_conductance(spec, 2, threads=1)
    for threads in (2, 4):
        parallel = exact_conductance(spec, 2, threads=threads)
        assert parallel.max_count == serial.max_count
        assert parallel.witness_u == serial.witness_u
        assert parallel.witness_v == serial.witness_v
        assert parallel.boxes_examined == serial.boxes_examined


def test_engine_agrees_with_package_reference_path():
    spec = random_table(2, 2, 2)
    assert exact_conductance(spec, 2).max_count == naive_max_count(list(spec.table), 2, 2)


def test_conjugation_smoke():
    # relabel outputs of one coordinate by a fixed alphabet permutation:
    # witnesses move, the value stays in [q, q^w]
    base = random_table(4, 2, 2)
    relabel = [2, 0, 3, 1]
    table = [(relabel[y >> 2] << 2) | (y & 3) for y in base.table]
    conj = _as_table_spec(table, 2, 2)
    r1 = exact_conductance(base, 2)
    r2 = exact_conductance(conj, 2)
    assert 2 <= r2.max_count <= 4
    assert intersection_count(image_of_box(conj, r2.witness_u), r2.witness_v) == r2.max_count
    assert abs(r1.condd - r2.condd) <= 1.0  # same scale, may differ


def test_outer_budget_refusal_names_count():
    spec = PermutationSpec.pi1(7)
    with pytest.raises(BudgetError) as exc:
        exact_conductance(spec, 16)
    assert exc.value.refused == math.comb(128, 16) ** 3


def test_outer_count_past_the_printable_size_is_named_by_its_size():
    spec = PermutationSpec.pi1(61)
    # the bound (2^61/100)^300 already has 4908 digits: nothing is computed
    with pytest.raises(BudgetError) as exc:
        exact_conductance(spec, 100)
    assert exc.value.refused is None
    assert str(exc.value) == ("exact search needs C(2^61,100)^3 >= 10^4908 outer "
                              "boxes, over the budget of 1000000")
    # the bound fits 4300 digits but the count, computed, has 4396
    with pytest.raises(BudgetError) as exc:
        exact_conductance(spec, 87)
    assert exc.value.refused is None
    assert ">= 10^4395 outer boxes" in str(exc.value)


@pytest.mark.parametrize("q", ["100", "1000000"])
def test_cli_refuses_an_unprintable_outer_count_quickly(q):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "condlab", "cond", "--spec", "pi1", "--n", "61",
         "--q", q, "--mode", "exact"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"budget refused: exact search needs C(2^61,{q})^3 >= 10^")
    assert "refused count" not in proc.stderr and proc.stdout == ""


def test_a_prefix_count_over_the_budget_is_refused_naming_the_boxes():
    # pi1 n=4 q=3 walks C(16,3)^2 = 313,600 prefixes: one less refuses it
    # up front, as the box count did, and names its 1.76e8 boxes
    with pytest.raises(BudgetError) as exc:
        exact_conductance(PermutationSpec.pi1(4), 3, outer_budget=313_599)
    assert exc.value.refused == 560 ** 3
    assert str(exc.value) == ("exact search needs C(2^4,3)^3 = 175616000 outer boxes, "
                              "over the budget of 313599; reducing n would fit")
    with pytest.raises(BudgetError, match=r"C\(2\^2,2\)\^3 = 216 outer boxes, over the budget "
                                          "of 35;"):
        exact_conductance(PermutationSpec.pi1(2), 2, outer_budget=35)
    # 36 prefixes fit a budget of 36; pi1 n=2 q=2 then searches box 0 alone
    assert exact_conductance(PermutationSpec.pi1(2), 2, outer_budget=36).max_count == 8


def test_a_zero_budget_is_refused_on_the_cli(capsys):
    assert cli_main(["cond", "--spec", "pi1", "--n", "2", "--q", "2", "--budget", "0"]) == 2
    assert capsys.readouterr().err == ("budget refused: exact search needs C(2^2,2)^3 = 216 "
                                       "outer boxes, over the budget of 0 (refused count: 216)\n")


def test_searched_boxes_past_the_budget_are_refused_at_a_checkpoint(tmp_path, monkeypatch):
    from condlab import conductance

    # random_table(3, 2, 3) at q=2 walks 36 prefixes and searches 59 boxes
    spec = random_table(3, 2, 3)
    ranks, searched, real_inner = [0], [], conductance._best_box_bnb
    with monkeypatch.context() as patch:  # a write at every cursor move, each searched box's
        patch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
        patch.setattr(conductance, "write_checkpoint", lambda *args: ranks.append(args[3]))
        patch.setattr(conductance, "_best_box_bnb",
                      lambda *args, **kw: searched.append(ranks[-1]) or real_inner(*args, **kw))
        full = exact_conductance(spec, 2, checkpoint_path=str(tmp_path / "each.ckpt"))
    assert len(searched) == 59
    path = str(tmp_path / "refused.ckpt")
    with pytest.raises(BudgetError) as exc:
        exact_conductance(spec, 2, outer_budget=40, checkpoint_path=path)
    # the checkpoint holds the 41st searched box, not yet searched
    assert read_checkpoint(path)["boxes_examined"] == searched[40]
    assert exc.value.refused == 41
    assert str(exc.value) == ("exact search would search more than 40 outer boxes, over the "
                              f"budget of 40; it stopped at box {searched[40]} of 216")
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert resumed.to_json_dict() | {"wall_seconds": 0} == full.to_json_dict() | {
        "wall_seconds": 0}


class _Interrupted(Exception):
    pass


def _checkpoint_after_first_write(monkeypatch, spec, q, path, at):
    """Run the exact search with a checkpoint at every cursor move until it
    writes one at rank ``at`` or past it, then stop it there, as an
    interrupted run would. Returns the checkpoint's rank."""
    from condlab import conductance

    real_write = conductance.write_checkpoint

    def write_then_stop(*args):
        real_write(*args)
        if args[3] >= at:
            raise _Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
        patch.setattr(conductance, "write_checkpoint", write_then_stop)
        with pytest.raises(_Interrupted):
            exact_conductance(spec, q, checkpoint_path=path)
    return read_checkpoint(path)["boxes_examined"]


def test_checkpoint_resume_equals_full_run(tmp_path, monkeypatch):
    spec = random_table(8, 2, 2)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "search.ckpt")
    assert 9 <= _checkpoint_after_first_write(monkeypatch, spec, 2, path, 9) < full.boxes_examined
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert resumed.max_count == full.max_count
    assert resumed.witness_u == full.witness_u
    assert resumed.witness_v == full.witness_v
    assert resumed.boxes_examined == full.boxes_examined


def test_inner_budget_refusal_keeps_a_resumable_checkpoint(tmp_path, monkeypatch):
    from condlab import conductance

    spec = random_table(3, 2, 3)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "refused.ckpt")
    # node budget 11 lets the first two boxes through, then refuses one
    with monkeypatch.context() as patch:
        patch.setattr(conductance, "INNER_NODE_BUDGET", 11)
        with pytest.raises(BudgetError, match="node budget of 11"):
            exact_conductance(spec, 2, checkpoint_path=path)
    assert read_checkpoint(path)["boxes_examined"] == 2
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert resumed.max_count == full.max_count
    assert resumed.witness_u == full.witness_u
    assert resumed.witness_v == full.witness_v
    assert resumed.boxes_examined == full.boxes_examined


def test_a_checkpoint_before_any_incumbent_resumes_to_the_full_run(tmp_path, monkeypatch):
    from condlab import conductance

    spec = PermutationSpec.pi1(2)
    full = exact_conductance(spec, 2)
    path = tmp_path / "empty.ckpt"
    # the inner search refuses box 0 at its second node, before any incumbent
    with monkeypatch.context() as patch:
        patch.setattr(conductance, "INNER_NODE_BUDGET", 1)
        with pytest.raises(BudgetError, match="node budget of 1$"):
            exact_conductance(spec, 2, checkpoint_path=str(path))
    assert path.read_text().splitlines()[3:] == [
        "cursor=(0,0,0)", "max_count=-1", "witness_u=-", "witness_v=-", "boxes_examined=0"]
    resumed = exact_conductance(spec, 2, checkpoint_path=str(path))
    assert resumed.to_json_dict() | {"wall_seconds": 0} == full.to_json_dict() | {
        "wall_seconds": 0}


@pytest.mark.parametrize("edits", [
    {"max_count": "9"},              # the witnesses replay to 8
    {"max_count": "0", "witness_v": "2,3;2,3;2,3"},  # a pair that meets in no point
    {"witness_u": "0,1;0,1;1,0"},    # a side out of order
    {"witness_u": "0,1;0,1;1,1"},    # a side with a repeat
    {"witness_v": "0,1;0,1"},        # two sides for a w = 3 search
    {"witness_v": "0,1,2;0,1,2;0,1,2"},  # sides of 3 for a q = 2 search
    {"witness_u": "0,1;0,1;0,0x1"},  # not hex digits only
    {"witness_v": "-"},              # no witness past box 0
    {"cursor": "(0,0,0)", "boxes_examined": "0"},  # an incumbent before box 0
], ids=["count", "empty-meet", "unsorted", "repeat", "w", "q", "hex", "none", "box-0"])
def test_a_resumed_incumbent_must_replay(tmp_path, monkeypatch, edits):
    spec = PermutationSpec.pi1(2)
    path = tmp_path / "tampered.ckpt"
    # the end of the first prefix, after box 0 met q^w = 8
    assert _checkpoint_after_first_write(monkeypatch, spec, 2, str(path), 1) == 6
    fields = dict(line.split("=", 1) for line in path.read_text().splitlines()[1:])
    assert (fields["max_count"], fields["witness_u"]) == ("8", "0,1;0,1;0,1")
    fields.update(edits)
    path.write_text("condlab-ckpt v1\n" + "".join(f"{k}={v}\n" for k, v in fields.items()))
    with pytest.raises(CondlabError, match="tampered.ckpt"):
        exact_conductance(spec, 2, checkpoint_path=str(path))
    assert cli_main(["cond", "--spec", "pi1", "--n", "2", "--q", "2", "--mode", "exact",
                     "--checkpoint", str(path)]) == 1


def test_checkpoint_rejects_other_specs(tmp_path):
    path = str(tmp_path / "search.ckpt")
    spec = random_table(8, 2, 2)
    exact_conductance(spec, 2, checkpoint_path=path)
    other = random_table(9, 2, 2)
    with pytest.raises(CondlabError):
        exact_conductance(other, 2, checkpoint_path=path)
    # a thread count is ignored, so it resumes the finished search as is
    resumed = exact_conductance(spec, 2, checkpoint_path=path, threads=2)
    serial = exact_conductance(spec, 2)
    assert resumed.max_count == serial.max_count
    assert resumed.witness_u == serial.witness_u
    assert resumed.witness_v == serial.witness_v
    assert resumed.boxes_examined == serial.boxes_examined


def test_report_json_round_trip(tmp_path):
    spec = PermutationSpec.pi1(2)
    report = exact_conductance(spec, 2)
    blob = json.dumps(report.to_json_dict())
    loaded = ConductanceReport.from_json_dict(json.loads(blob))
    assert loaded.max_count == report.max_count
    assert loaded.witness_u == report.witness_u
    assert loaded == report
    assert intersection_count(image_of_box(spec, loaded.witness_u),
                              loaded.witness_v) == loaded.max_count
    assert list(json.loads(blob)) == [
        "n", "w", "q", "alpha", "mode", "max_count", "condd", "witness_u", "witness_v",
        "boxes_examined", "exhausted", "wall_seconds", "q_is_power_of_two"]
    assert json.loads(blob)["q_is_power_of_two"] is True


# --- inner maximization -------------------------------------------------------


def test_best_v_on_a_box_returns_that_box():
    box = QBox(((0, 3), (1, 2)), 2)
    pts = PointSet(box.packed_points(), 2, 2)
    found, count = best_V_for_U(pts, 2)
    assert found == box
    assert count == 4


def test_best_v_single_point_q1():
    ps = PointSet([pack_words((3, 1, 2), 2)], 2, 3)
    found, count = best_V_for_U(ps, 1)
    assert found.sides == ((3,), (1,), (2,))
    assert count == 1


def _brute_best_v(points, n, w, q):
    """Every q-box V in lexicographic order, kept on strict improvement."""
    words = [unpack_words(p, n, w) for p in points]
    best, best_sides = -1, None
    for sides in itertools.product(itertools.combinations(range(1 << n), q), repeat=w):
        sets = [set(s) for s in sides]
        count = sum(all(x in s for x, s in zip(p, sets)) for p in words)
        if count > best:
            best, best_sides = count, sides
    return best, best_sides


def test_best_v_matches_enumeration_over_all_boxes():
    rng = random.Random(13)
    # dense sets on the whole 2^6 domain, then sparse ones on larger
    # alphabets, where most values occur in no point
    for n, w, q in [(2, 3, 2)] * 12 + [(3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)] * 4:
        size = 8 if n == 2 else rng.randint(1, 12)
        points = rng.sample(range(1 << (n * w)), size)
        found, count = best_V_for_U(PointSet(points, n, w), q)
        assert (count, found.sides) == _brute_best_v(points, n, w, q), (n, w, q)
    # the last coordinate takes its fattest side directly: one coordinate
    # alone, fewer occurring values than q, and tied slice sizes
    cases = [(3, 1, q, rng.sample(range(8), rng.randint(1, 8))) for q in range(1, 9)]
    cases += [(3, 2, q, [pack_words((a, b), 3) for a in (1, 6) for b in (2, 5)])
              for q in (2, 3, 4)]
    cases += [(3, 2, q, [pack_words(p, 3) for p in
                         ((0, 7), (1, 7), (2, 3), (3, 3), (4, 1), (5, 1), (5, 6))])
              for q in (1, 2, 3)]
    for n, w, q, points in cases:
        found, count = best_V_for_U(PointSet(points, n, w), q)
        assert (count, found.sides) == _brute_best_v(points, n, w, q), (n, w, q)


INNER_REACH_SCRIPT = """
from condlab.boxes import PointSet, QBox, image_of_box
from condlab.conductance import best_V_for_U
from condlab.perms import PermutationSpec
for n in range(5, 13):
    box = QBox(((0, 1, 2, 3),) * 3, n)
    found, count = best_V_for_U(image_of_box(PermutationSpec.pi1(n), box), 4)
    print(n, count, found.sides)
# every value, or every third one, occurs on the last coordinate
for points, w, q in ((range(1024), 1, 4),
                     ([(5 << 10) | v for v in range(0, 1024, 3)], 2, 3)):
    found, count = best_V_for_U(PointSet(points, 10, w), q)
    print(count, found.sides)
"""


def test_inner_search_does_not_walk_the_alphabet():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", INNER_REACH_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = ((0, 1, 2, 3),) * 3
    assert proc.stdout.splitlines() == [f"{n} 48 {want}" for n in range(5, 13)] + [
        "4 ((0, 1, 2, 3),)", "3 ((0, 1, 5), (0, 3, 6))"]


def test_best_v_rejects_empty_set():
    with pytest.raises(ShapeError):
        best_V_for_U(PointSet([], 2, 2), 1)


def test_best_v_rejects_a_zero_side():
    with pytest.raises(ShapeError) as exc:
        best_V_for_U(PointSet([0, 1], 2, 3), 0)
    assert str(exc.value) == "need w >= 1 and q >= 1, got w=3, q=0"


@pytest.mark.parametrize("spec, q, unseeded, seeded", [
    (PermutationSpec.pi1(4), 3, 88, 1),
    (PermutationSpec.pi1(4), 4, 285, 1),
    (PermutationSpec.pi3(4), 3, 129, 36),
    (PermutationSpec.pi3(4), 4, 2471, 1727),
    (random_table(3, 3, 3), 3, 129, 81),
    (random_table(3, 3, 3), 4, 1176, 957),
    (PermutationSpec.piw(2, 4), 3, 20, 1),
    (PermutationSpec.piw(2, 4), 4, 4, 1),
], ids=lambda v: v.kind if isinstance(v, PermutationSpec) else str(v))
def test_inner_search_node_counts_are_pinned(monkeypatch, spec, q, unseeded, seeded):
    # the least node budget under which the search of a seeded box's image
    # finishes, unseeded and seeded with greedy's replayed count: the
    # slices a node groups, and how it bounds them, move no prune
    from condlab import conductance
    image = image_of_box(spec, random_box(random.Random(0), spec.n, q, spec.w)[1])
    greedy = intersection_count(image, greedy_box(image, q)[0])
    for incumbent, nodes in ((-1, unseeded), (greedy, seeded)):
        monkeypatch.setattr(conductance, "INNER_NODE_BUDGET", nodes)
        conductance._best_box_bnb(image.points, spec.n, spec.w, q, incumbent=incumbent)
        monkeypatch.setattr(conductance, "INNER_NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetError):
            conductance._best_box_bnb(image.points, spec.n, spec.w, q, incumbent=incumbent)


# --- heuristic ------------------------------------------------------------------


def test_heuristic_is_a_certified_lower_bound():
    for seed in range(5):
        for w, q in ((2, 2), (3, 2)):
            spec = random_table(seed, 2, w)
            exact = exact_conductance(spec, q)
            lower = heuristic_lower_bound(spec, q, budget=40, seed=seed)
            assert lower.max_count <= exact.max_count
            img = image_of_box(spec, lower.witness_u)
            assert intersection_count(img, lower.witness_v) == lower.max_count
            assert not lower.exhausted


def test_heuristic_deterministic_and_thread_insensitive():
    spec = PermutationSpec.pi1(2)
    runs = [
        heuristic_lower_bound(spec, 2, budget=50, seed=3, threads=t)
        for t in (1, 1, 4)
    ]
    first = runs[0]
    for other in runs[1:]:
        assert other.max_count == first.max_count
        assert other.witness_u == first.witness_u
        assert other.witness_v == first.witness_v
        assert other.boxes_examined == first.boxes_examined


def test_heuristic_greedy_reaches_full_count_on_identity():
    spec = PermutationSpec.identity(2, 3)
    report = heuristic_lower_bound(spec, 2, budget=1, seed=0)
    assert report.max_count == 8  # greedy V alone recovers the box image


def test_heuristic_at_the_full_alphabet_stops_after_one_evaluation(monkeypatch):
    from condlab import conductance

    # q = 2^n: the whole cube is the only box, so there is nothing to climb
    calls = []
    real_greedy = conductance.greedy_box
    monkeypatch.setattr(conductance, "greedy_box",
                        lambda *args: calls.append(args) or real_greedy(*args))
    report = heuristic_lower_bound(PermutationSpec.pi1(2), 4, budget=200, seed=5)
    assert (report.boxes_examined, report.max_count, len(calls)) == (1, 64, 1)
    assert report.witness_u.sides == report.witness_v.sides == ((0, 1, 2, 3),) * 3


def test_heuristic_budget_validation():
    with pytest.raises(RangeError):
        heuristic_lower_bound(PermutationSpec.pi1(2), 2, budget=0)


# --- notation round trip ----------------------------------------------------------


def test_conversion_examples():
    assert condd_to_cond(4, 1.0) == 4.0
    assert condd_to_cond(4, 3.0, w=3) == 64.0
    assert cond_to_condd(4, 4.0) == 1.0
    assert cond_to_condd(2, 8.0, w=3) == 3.0


def test_conversion_round_trip_100_points():
    rng = random.Random(0)
    for _ in range(100):
        q = rng.choice([2, 3, 4, 8, 16])
        w = rng.randrange(1, 8)
        d = 1.0 + (w - 1.0) * rng.random()
        back = cond_to_condd(q, condd_to_cond(q, d, w=w), w=w)
        assert abs(back - d) <= 1e-12 * max(1.0, abs(d))


def test_conversion_range_errors():
    with pytest.raises(RangeError):
        condd_to_cond(1, 1.0)
    with pytest.raises(RangeError):
        condd_to_cond(4, 0.5)
    with pytest.raises(RangeError):
        condd_to_cond(4, 2.5, w=2)
    with pytest.raises(RangeError):
        cond_to_condd(4, 2.0)
    with pytest.raises(RangeError) as exc:
        cond_to_condd(1, 2.0)
    assert str(exc.value) == "q must be at least 2, got 1"


def test_degree_from_count_q1_reports_w():
    assert degree_from_count(1, 1, 3) == 3.0
    with pytest.raises(RangeError):
        degree_from_count(0, 1, 1)


# --- bound sheet -------------------------------------------------------------------


def test_condenser_bound_exact_degeneracy():
    sheet = bound_sheet(5, 4, 4, eps1=0.75, eps2=0.0)
    assert sheet.condenser_bound == 4 - 0.75


def test_condenser_bound_worked_value():
    # log_4(4**2.5 + 4**3/16), frozen from a 50-digit mpmath evaluation
    sheet = bound_sheet(2, 3, 4, eps1=0.5, eps2=2 ** -4)
    assert sheet.condenser_bound == pytest.approx(2.584962500721156, rel=1e-12)


def test_repetition_bound_at_w3():
    for c in (0.1, 0.25, 0.5):
        assert bound_sheet(5, 3, 4, c=c).repetition_bound == 3 - c
    assert bound_sheet(5, 7, 4, c=0.3).repetition_bound == 7 - 2 * 0.3


def test_random_perm_bound_and_precondition():
    sheet = bound_sheet(16, 3, 4)  # alpha = 0.125
    expected = 1 + math.log2(3 * 16 * 3) / (0.125 * 16)
    assert sheet.random_perm_bound == pytest.approx(expected)
    assert sheet.random_perm_precondition_ok  # 0.125 <= 0.5 - 1/48
    tight = bound_sheet(2, 2, 4)  # alpha = 1 > 0.25
    assert not tight.random_perm_precondition_ok


@pytest.mark.parametrize("args, kw, message", [
    ((0, 3, 4), {}, "need n,w >= 1 and q >= 2, got n=0, w=3, q=4"),
    ((4, 3, 4), {"eps1": -1, "eps2": 0}, "eps1 and eps2 must be nonnegative"),
    ((4, 3, 4), {"eps1": math.nan, "eps2": 0}, "eps1 and eps2 must be nonnegative"),
    ((4, 3, 4), {"eps1": 0, "eps2": math.nan}, "eps1 and eps2 must be nonnegative"),
    ((4, 3, 4), {"c": math.nan}, "c must be a number, got nan"),
], ids=["n0", "negative-eps1", "nan-eps1", "nan-eps2", "nan-c"])
def test_bound_sheet_refusals(args, kw, message):
    # nan passes a "< 0" check and comes out as a NaN bound
    with pytest.raises(RangeError) as exc:
        bound_sheet(*args, **kw)
    assert str(exc.value) == message


def test_vacuous_flags():
    sheet = bound_sheet(2, 3, 4, eps1=0.1, eps2=8.0, c=3.0)
    assert sheet.condenser_vacuous  # value above w
    assert sheet.repetition_vacuous  # 3 - 3 = 0 < 1
    assert not bound_sheet(2, 3, 4, eps1=0.1, eps2=0.01).condenser_vacuous


def test_precondition_equivalence_on_grid():
    points = 0
    for n in (2, 3, 4, 5, 6):
        for w in (1, 2, 3, 4):
            for q in (2, 4, 8, 16):
                if q > 1 << n:
                    continue
                sheet = bound_sheet(n, w, q)
                assert sheet.precondition_agree, (n, w, q)
                points += 1
    assert points >= 50


@pytest.mark.parametrize("cursor, max_count", [
    ("(-1,3)", None),  # a negative rank, which would wrap the odometer
    ("(0,99)", None),  # digit over the radix 6: rank 99 of 36
    ("(6,0)", "-1"),   # the exhausted cursor with no incumbent
    ("(1,0)", None),   # rank 6 with the finished run's boxes_examined=36
])
def test_checkpoint_rejects_invalid_cursor(tmp_path, cursor, max_count):
    spec = random_table(8, 2, 2)
    path = tmp_path / "hand.ckpt"
    exact_conductance(spec, 2, checkpoint_path=str(path))
    fields = dict(line.split("=", 1) for line in path.read_text().splitlines()[1:])
    fields["cursor"] = cursor
    fields["max_count"] = max_count or fields["max_count"]
    path.write_text("condlab-ckpt v1\n" + "".join(f"{k}={v}\n" for k, v in fields.items()))
    with pytest.raises(CondlabError, match="hand.ckpt"):
        exact_conductance(spec, 2, checkpoint_path=str(path))
    assert cli_main(["cond", "--spec", "random", "--seed", "8", "--n", "2", "--w", "2",
                     "--q", "2", "--mode", "exact", "--checkpoint", str(path)]) == 1


def test_heuristic_at_n64_does_not_walk_the_alphabet():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "condlab", "cond", "--spec", "pi1", "--n", "64", "--w", "3",
         "--q", "4", "--mode", "heuristic", "--budget", "20", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mode=heuristic witnesses=yes" in proc.stdout


def test_checkpoint_file_format(tmp_path):
    path = tmp_path / "fmt.ckpt"
    spec = random_table(1, 2, 2)
    exact_conductance(spec, 2, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "condlab-ckpt v1"
    fields = dict(line.split("=", 1) for line in lines[1:])
    assert fields["spec"] == spec.digest()
    assert fields["cursor"] == "(6,0)"  # exhausted: 36 boxes, radix 6
    assert fields["boxes_examined"] == "36"
    assert ";" in fields["witness_u"] and "," in fields["witness_u"]


def test_box_searches_name_two_inputs_of_a_non_bijective_spec():
    from condlab.condenser import empirical_condenser_profile

    spec = PermutationSpec.bothmix(2)
    for search in (lambda: exact_conductance(spec, 2),
                   lambda: heuristic_lower_bound(spec, 2, budget=50, seed=0),
                   lambda: empirical_condenser_profile(spec, 1.0, 0.25, 0.25, 20, 0)):
        with pytest.raises(NotAPermutationError, match="the box searches need a bijection") as exc:
            search()
        x, y = exc.value.witness
        assert x != y and spec.apply_packed(x) == spec.apply_packed(y)
    box = QBox(((0, 1), (0, 1), (0, 1)), 2)
    with pytest.raises(NotAPermutationError) as exc:
        image_of_box(spec, box)
    # (1, 0, 1) and (1, 1, 0) both go to (1, 1, 1)
    assert exc.value.witness == (0x11, 0x14)
    assert str(exc.value) == ("box inputs 0x11 and 0x14 both map to 0x15; "
                              "the box searches need a bijection")


def test_condenser_bound_covers_measured_degree_with_empirical_epsilons():
    # instantiate the condenser-form bound with parameters verified over
    # every box: eps1 comes from the procedure, eps2 is the worst observed
    # residual weight; the bound must then sit at or above the measured
    # exact degree
    spec = PermutationSpec.pi1(2)
    eps1 = 0.25
    worst_gamma = 0.0
    from condlab.condenser import decompose

    for box in enumerate_qboxes(2, 2, 3):
        dec = decompose(image_of_box(spec, box), 1.0, eps1, 0.25)
        worst_gamma = max(worst_gamma, (len(dec.r0) + len(dec.r1)) / 8)
    measured = exact_conductance(spec, 2)
    sheet = bound_sheet(2, 3, 2, eps1=eps1, eps2=worst_gamma)
    assert sheet.condenser_bound >= measured.condd


def test_checkpoint_witnesses_survive_non_improving_sessions(tmp_path, monkeypatch):
    # resumed sessions that never beat the incumbent must keep writing the
    # inherited witnesses into their checkpoints
    from condlab import conductance

    spec = random_table(5, 2, 2)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "chain.ckpt")
    _checkpoint_after_first_write(monkeypatch, spec, 2, path, 30)
    monkeypatch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
    for _ in range(2):  # second pass resumes an already-finished search
        report = exact_conductance(spec, 2, checkpoint_path=path)
        assert report.max_count == full.max_count
        assert report.witness_u == full.witness_u
        assert report.witness_v == full.witness_v
        assert report.boxes_examined == full.boxes_examined


# --- the prefix walk: skipped boxes change no report, file or refusal ------

_SWEEP = [("identity w=1", lambda: PermutationSpec.identity(2, 1), lambda: identity_table(1)),
          ("identity w=2", lambda: PermutationSpec.identity(2, 2), lambda: identity_table(2)),
          ("identity w=3", lambda: PermutationSpec.identity(2, 3), lambda: identity_table(3)),
          ("pi1", lambda: PermutationSpec.pi1(2), pi1_table),
          ("pi2", lambda: PermutationSpec.pi2(2), pi2_table),
          ("pi3", lambda: PermutationSpec.pi3(2), pi3_table),
          ("piw w=4", lambda: PermutationSpec.piw(2, 4), piw4_table)]
_SWEEP += [(f"random seed={seed} w={w}", lambda seed=seed, w=w: random_table(seed, 2, w), None)
           for seed in (0, 1) for w in (1, 2, 3)]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("make_spec,make_table", [case[1:] for case in _SWEEP],
                         ids=[case[0] for case in _SWEEP])
def test_prefix_walk_matches_the_oracle_count_and_witnesses(make_spec, make_table, q):
    spec = make_spec()
    table = make_table() if make_table else list(spec.table)
    report = exact_conductance(spec, q)
    best, u_sides, v_sides = naive_max_with_witness(table, q, spec.w)
    assert (report.max_count, report.witness_u.sides, report.witness_v.sides) == (
        best, u_sides, v_sides)
    assert report.boxes_examined == math.comb(4, q) ** spec.w


# full reports, wall time aside, of the box-by-box engine that preceded
# the prefix walk: (max_count, condd, witness_u, witness_v)
_PINNED_N3_Q3 = {
    "pi1": (21, 2.771243749161423, [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
            [[0, 1, 2], [0, 1, 2], [0, 1, 2]]),
    "pi2": (21, 2.771243749161423, [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
            [[0, 1, 2], [0, 1, 2], [0, 1, 2]]),
    "pi3": (23, 2.8540498302002715, [[0, 2, 5], [0, 1, 2], [0, 2, 4]],
            [[0, 2, 5], [0, 1, 2], [0, 2, 4]]),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_N3_Q3))
def test_exact_reports_at_n3_q3_are_pinned(kind):
    report = exact_conductance(PermutationSpec(kind, 3, 3), 3).to_json_dict()
    del report["wall_seconds"]
    count, condd, u_sides, v_sides = _PINNED_N3_Q3[kind]
    assert report == {"n": 3, "w": 3, "q": 3, "alpha": 0.5283208335737187, "mode": "exact",
                      "max_count": count, "condd": condd, "witness_u": u_sides,
                      "witness_v": v_sides, "boxes_examined": 175616, "exhausted": True,
                      "q_is_power_of_two": False}


@pytest.mark.parametrize("make_spec", [lambda: PermutationSpec.pi1(3),
                                       lambda: PermutationSpec.pi3(2),
                                       lambda: PermutationSpec.piw(2, 4),
                                       lambda: random_table(5, 3, 2)],
                         ids=["pi1", "pi3", "piw", "random"])
def test_the_scan_without_packed_counts_gives_the_same_reports(monkeypatch, make_spec):
    from condlab import conductance

    # past COUNT_TABLE_BYTES (large 2^n) the column bounds come from
    # slice_sizes and no box is bounded by its summed counts
    spec = make_spec()
    q = 3
    packed = exact_conductance(spec, q).to_json_dict() | {"wall_seconds": 0}
    monkeypatch.setattr(conductance, "COUNT_TABLE_BYTES", 0)
    assert exact_conductance(spec, q).to_json_dict() | {"wall_seconds": 0} == packed


def test_at_zero_seconds_each_cursor_move_is_written_and_resumes_to_the_full_run(
        tmp_path, monkeypatch):
    from condlab import conductance

    # random_table(3, 2, 3) at q=2 walks 36 prefixes of 6 boxes and searches
    # 59 boxes; with CHECKPOINT_SECONDS = 0 a checkpoint lands on every prefix
    # end and every searched box, the total among them, and on no other rank
    spec, radix = random_table(3, 2, 3), 6
    path = str(tmp_path / "moves.ckpt")
    real_write, real_inner = conductance.write_checkpoint, conductance._best_box_bnb
    written, searched = [], set()

    def write_and_keep(*args):
        real_write(*args)
        with open(path, "rb") as fh:
            written.append((args[3], fh.read()))

    with monkeypatch.context() as patch:
        patch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
        patch.setattr(conductance, "write_checkpoint", write_and_keep)
        patch.setattr(conductance, "_best_box_bnb",
                      lambda *args, **kw: searched.add(written[-1][0]) or real_inner(*args, **kw))
        full = exact_conductance(spec, 2, checkpoint_path=path)
    total = full.boxes_examined
    ranks = [rank for rank, _ in written]
    assert ranks == sorted(ranks) and ranks[-1] == total
    assert set(ranks) == set(range(radix, total + 1, radix)) | searched
    assert len(searched) == 59 and any(rank % radix for rank in searched)
    # resuming from each of them gives the full run's report
    want = full.to_json_dict() | {"wall_seconds": 0}
    for rank, data in dict(written).items():
        resume = tmp_path / f"{rank}.ckpt"
        resume.write_bytes(data)
        resumed = exact_conductance(spec, 2, checkpoint_path=str(resume))
        assert resumed.to_json_dict() | {"wall_seconds": 0} == want, rank


def test_resume_inside_a_jumped_prefix_equals_the_full_run(tmp_path, monkeypatch):
    from condlab import conductance

    spec = PermutationSpec.pi1(2)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "inside.ckpt")
    # rank 10 lies inside the second prefix (ranks 6-11), past box 0's q^w,
    # where the scan stops; no cursor move lands there, so write it by hand
    conductance.write_checkpoint(path, spec, 2, 10, full.max_count, full.witness_u.sides,
                                 full.witness_v.sides)
    assert read_checkpoint(path)["cursor"] == (0, 1, 4)
    inner = []
    real_inner = conductance._best_box_bnb
    monkeypatch.setattr(conductance, "_best_box_bnb",
                        lambda *args, **kw: inner.append(args) or real_inner(*args, **kw))
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert inner == []
    assert (resumed.max_count, resumed.witness_u, resumed.witness_v, resumed.boxes_examined) == (
        full.max_count, full.witness_u, full.witness_v, full.boxes_examined)


def test_a_box_that_cannot_improve_is_neither_imaged_nor_searched(monkeypatch):
    from condlab import conductance

    calls = {"image": 0, "inner": 0, "columns": 0}
    real_image, real_inner = conductance.image_of_box, conductance._best_box_bnb
    real_columns = conductance.column_images

    def count(key, fn):
        def counted(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return counted

    monkeypatch.setattr(conductance, "image_of_box", count("image", real_image))
    monkeypatch.setattr(conductance, "_best_box_bnb", count("inner", real_inner))
    monkeypatch.setattr(conductance, "column_images", count("columns", real_columns))
    # box 0 is a maximizer (q^w = 8): every other box's column bound is 8,
    # and no later prefix's columns are built
    report = exact_conductance(PermutationSpec.identity(3, 3), 2)
    assert (report.max_count, report.boxes_examined) == (8, 28 ** 3)
    assert calls == {"image": 0, "inner": 1, "columns": 1}


def test_an_over_budget_box_is_refused_before_any_evaluation(monkeypatch):
    applied = []
    real_apply = PermutationSpec.apply_packed
    monkeypatch.setattr(PermutationSpec, "apply_packed",
                        lambda self, x: applied.append(x) or real_apply(self, x))
    # one outer box, the whole cube, of 256^3 points
    with pytest.raises(BudgetError) as exc:
        exact_conductance(PermutationSpec.identity(8, 3), 256)
    assert str(exc.value) == "box holds 16777216 points, over the budget of 4194304"
    assert applied == []


def test_a_resumed_bothmix_run_refuses_where_the_box_by_box_walk_did(tmp_path, monkeypatch):
    from condlab import conductance

    # box 0 of bothmix n=2 repeats an output, so the run resumes at box 1
    # of that colliding prefix with a planted incumbent; it improves to 5
    # and is refused at box 5, as the walk that imaged every box of a
    # colliding prefix was, after a checkpoint at each box it searched
    spec = PermutationSpec.bothmix(2)
    u_sides = ((2, 3), (0, 3), (1, 2))
    v, count = best_V_for_U(image_of_box(spec, QBox(u_sides, 2)), 2)
    assert count == 3
    path = str(tmp_path / "bothmix.ckpt")
    conductance.write_checkpoint(path, spec, 2, 1, count, u_sides, v.sides)
    real_write = conductance.write_checkpoint
    written = []

    def write_and_keep(*args):
        real_write(*args)
        with open(path, "rb") as fh:
            written.append((args[3], fh.read()))

    monkeypatch.setattr(conductance, "write_checkpoint", write_and_keep)
    monkeypatch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
    with pytest.raises(NotAPermutationError) as exc:
        exact_conductance(spec, 2, checkpoint_path=path)
    assert exc.value.witness == (0x13, 0x16)
    assert str(exc.value) == ("box inputs 0x13 and 0x16 both map to 0x1f; "
                              "the box searches need a bijection")
    assert [rank for rank, _ in written] == [1, 2, 3, 4]
    assert read_checkpoint(path)["max_count"] == 5
    digest = hashlib.sha256(b"".join(data for _, data in written)).hexdigest()
    assert digest == "045f3df4a0a2359b44af5aa932f8a494fbd4e671ad0be461a3e4ce32bf7ef88f"


def test_exact_search_names_the_first_repeat_of_bothmix_at_n3():
    spec = PermutationSpec.bothmix(3)
    with pytest.raises(NotAPermutationError) as exc:
        exact_conductance(spec, 2)
    assert exc.value.witness == (0x41, 0x48)
    assert str(exc.value) == ("box inputs 0x41 and 0x48 both map to 0x49; "
                              "the box searches need a bijection")


# --- the column layer: one search, however the columns are built -----------

# (inner searches, apply_packed calls, checkpoint writes and the sha256 of
# their bytes, with a write at every cursor move). The engine searches only
# the boxes whose summed column counts beat the incumbent and reads a
# table's columns straight from its array
_PINNED_TABLE_SEARCH = {
    987: (153, 0, 938, "0a23fe9953c1695ed9ce91ad141245e26d41f37d10f28cecc374228465698aa2"),
    5: (120, 0, 905, "3cda74974d020cea0bb82c43d12eddd1ba945d1760db843e62acd70ff3203437"),
}


def _counted_run(monkeypatch, spec, q, path):
    """A search with a checkpoint at every cursor move and its inner
    searches, map evaluations and checkpoint writes, (rank, bytes),
    recorded in one event list."""
    from condlab import conductance

    events = []
    real_inner, real_write = conductance._best_box_bnb, conductance.write_checkpoint
    real_apply = PermutationSpec.apply_packed

    def write_and_keep(*args):
        real_write(*args)
        with open(path, "rb") as fh:
            events.append(("write", args[3], fh.read()))

    monkeypatch.setattr(conductance, "_best_box_bnb",
                        lambda *args, **kw: events.append(("inner",)) or real_inner(*args, **kw))
    monkeypatch.setattr(conductance, "write_checkpoint", write_and_keep)
    monkeypatch.setattr(conductance, "CHECKPOINT_SECONDS", 0)
    monkeypatch.setattr(PermutationSpec, "apply_packed",
                        lambda self, x: events.append(("apply",)) or real_apply(self, x))
    report = exact_conductance(spec, q, checkpoint_path=path)
    monkeypatch.undo()
    return report, events


@pytest.mark.parametrize("seed", sorted(_PINNED_TABLE_SEARCH))
def test_table_search_makes_the_pinned_calls_and_writes(tmp_path, monkeypatch, seed):
    spec = random_table(seed, 3, 3)
    path = str(tmp_path / "table.ckpt")
    _, events = _counted_run(monkeypatch, spec, 2, path)
    writes = [event[1:] for event in events if event[0] == "write"]
    inner, applied, written, digest = _PINNED_TABLE_SEARCH[seed]
    assert [e[0] for e in events].count("inner") == inner
    assert [e[0] for e in events].count("apply") == applied
    # a write at each searched box, just before its inner search, at each of
    # the 784 prefix ends, and one more at the end
    searched = {events[i - 1][1] for i, event in enumerate(events) if event[0] == "inner"}
    assert set(rank for rank, _ in writes) == set(range(28, 28 ** 3 + 1, 28)) | searched
    assert len(writes) == written
    assert hashlib.sha256(b"".join(data for _, data in writes)).hexdigest() == digest


def test_resume_between_two_candidate_boxes_equals_the_full_run(tmp_path, monkeypatch):
    from condlab import conductance

    spec, q, radix = random_table(987, 3, 3), 2, 28
    full, full_events = _counted_run(monkeypatch, spec, q, str(tmp_path / "full.ckpt"))
    full_writes = [event[1:] for event in full_events if event[0] == "write"]
    # the write just before an inner search holds the searched box's rank
    searched = {full_events[i - 1][1] for i, event in enumerate(full_events)
                if event[0] == "inner"}
    # a skipped box inside a prefix, with a searched box of the same prefix
    # on either side; no cursor move lands there, so its checkpoint is written
    # by hand, with the incumbent of the next write
    cursor = next(r for r in range(radix ** 3) if r % radix and r not in searched
                  and any(r - r % radix <= s < r for s in searched)
                  and any(r < s < r - r % radix + radix for s in searched))
    path = tmp_path / "resume.ckpt"
    path.write_bytes(next(data for rank, data in full_writes if rank > cursor))
    ck = read_checkpoint(str(path))
    conductance.write_checkpoint(str(path), spec, q, cursor, ck["max_count"], ck["witness_u"],
                                 ck["witness_v"])
    resumed, events = _counted_run(monkeypatch, spec, q, str(path))
    assert resumed.to_json_dict() | {"wall_seconds": 0} == full.to_json_dict() | {
        "wall_seconds": 0}
    assert [event[1:] for event in events if event[0] == "write"] == [
        write for write in full_writes if write[0] > cursor]
    assert [e[0] for e in events].count("inner") == sum(s >= cursor for s in searched)


def test_the_cheap_sweep_equals_the_engine_before_the_prefix_jump():
    # tests/exact_sweep.py --cheap --reports: reports, refusals and the file
    # a checkpointed run leaves, on 126 shapes; the sha256 of its output as
    # the engine before the prefix jump, the count bound, the lookups and
    # the checkpoint clock printed it
    import exact_sweep

    text = "".join(f"{line}\n" for line in exact_sweep.lines(cheap=True, reports=True))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f767e96ee607d588341c66375e807d9edbafc5ff3dde77084f9710d0812b8e38")
    # --cheap: the same, plus every checkpoint written at each cursor move,
    # and a run interrupted and resumed; pinned at the checkpoint clock
    text = "".join(f"{line}\n" for line in exact_sweep.lines(cheap=True))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e24f9e5a3191c8bc02f6d870997d3ce976d6b6fd1fc64647248388d719ff048")


# --- the prefix solver: the scan's bounds on one prefix --------------------


# (spec, q, prefix): a table's columns, and a free last word's translates
_SOLVER_PREFIXES = {
    "table": (lambda: random_table(3, 2, 3), 2, ((0, 2), (1, 3))),
    "piw": (lambda: PermutationSpec.piw(2, 4), 3, ((0, 1, 3), (0, 2, 3), (1, 2, 3))),
}


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "slice_sizes"])
@pytest.mark.parametrize("name", sorted(_SOLVER_PREFIXES))
def test_the_prefix_solver_yields_the_boxes_its_bounds_let_through(monkeypatch, name, packed):
    from condlab import conductance
    from condlab.boxes import slice_bound, slice_sizes

    # at each fixed incumbent the solver yields, with its image, each box of
    # one prefix whose columns' root bounds b(t) sum past the incumbent and,
    # where counts are packed, whose own root bound (the union of its
    # columns') does too, from a fresh solver and from one whose last
    # prefix was jumped, which tries one coordinate's b(t) first
    if not packed:
        monkeypatch.setattr(conductance, "COUNT_TABLE_BYTES", 0)
    make_spec, q, prefix = _SOLVER_PREFIXES[name]
    spec = make_spec()
    n, w, size = spec.n, spec.w, 1 << spec.n
    lasts = list(itertools.combinations(range(size), q))

    def root(points):
        return slice_bound([slice_sizes(points, n, w, j).values() for j in range(w)], q)

    columns = [[spec.apply_packed(pack_words(words + (t,), n))
                for words in itertools.product(*prefix)] for t in range(size)]
    b = list(map(root, columns))
    filtered_by_root = False
    for incumbent in range(-1, q ** w + 1):
        by_sums = [k for k, last in enumerate(lasts) if sum(b[t] for t in last) > incumbent]
        want = [(k, sorted(y for t in lasts[k] for y in columns[t])) for k in by_sums]
        if packed:
            kept = [(k, image) for k, image in want if root(image) > incumbent]
            filtered_by_root |= kept != want
            want = kept
        for first, after_jump in itertools.product((0, 1), (False, True)):
            solver = conductance._PrefixSolver(spec, q, lasts)
            if after_jump:
                assert list(solver.boxes(prefix, 0, lambda: q ** w)) == [] and solver.jumped
            got = [(k, sorted(points))
                   for k, points in solver.boxes(prefix, first, lambda: incumbent)]
            assert got == [(k, image) for k, image in want if k >= first], (incumbent, first)
            assert solver.jumped == (not by_sums)
    # a free last word's boxes hold q translates of column 0 each, and at
    # this shape their own root bounds drop none of them
    assert filtered_by_root == (packed and name == "table")


def test_a_free_last_word_jumps_on_its_translated_column_bounds(monkeypatch):
    from condlab import conductance

    # after a jumped prefix one coordinate's b(t) are tried alone first; a
    # free last word's columns are column 0's translates, so the trial, like
    # the full test, sums q copies of b(0). piw n=2 w=4 q=3 then jumps 63 of
    # its 64 prefixes, against 32 when the trial compared b(0) alone
    jumped = []

    class Recorded(conductance._PrefixSolver):
        def boxes(self, *args):
            yield from super().boxes(*args)
            jumped.append(self.jumped)

    monkeypatch.setattr(conductance, "_PrefixSolver", Recorded)
    report = exact_conductance(PermutationSpec.piw(2, 4), 3)
    assert (report.max_count, len(jumped), sum(jumped)) == (69, 64, 63)
