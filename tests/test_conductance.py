"""Conductance engine tests: oracle agreement, witnesses, bounds, files."""

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
    image_of_box,
    intersection_count,
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
    replay_witness,
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
    pi3_table,
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
        assert replay_witness(spec, report) == report.max_count


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
    assert replay_witness(conj, r2) == r2.max_count
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


class _Interrupted(Exception):
    pass


def _checkpoint_after_first_write(monkeypatch, spec, q, path, every):
    """Run the exact search until it has written its first periodic
    checkpoint, then stop it there, as an interrupted run would."""
    from condlab import conductance

    real_write = conductance.write_checkpoint

    def write_then_stop(*args):
        real_write(*args)
        raise _Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(conductance, "write_checkpoint", write_then_stop)
        with pytest.raises(_Interrupted):
            exact_conductance(spec, q, checkpoint_path=path, checkpoint_every=every)
    assert read_checkpoint(path)["boxes_examined"] == every


def test_checkpoint_resume_equals_full_run(tmp_path, monkeypatch):
    spec = random_table(8, 2, 2)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "search.ckpt")
    _checkpoint_after_first_write(monkeypatch, spec, 2, path, 9)
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert resumed.max_count == full.max_count
    assert resumed.witness_u == full.witness_u
    assert resumed.witness_v == full.witness_v
    assert resumed.boxes_examined == full.boxes_examined


def test_inner_budget_refusal_keeps_a_resumable_checkpoint(tmp_path):
    spec = random_table(3, 2, 3)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "refused.ckpt")
    # node budget 11 lets the first two boxes through, then refuses one
    with pytest.raises(BudgetError):
        exact_conductance(spec, 2, inner_node_budget=11, checkpoint_path=path)
    assert read_checkpoint(path)["boxes_examined"] == 2
    resumed = exact_conductance(spec, 2, checkpoint_path=path)
    assert resumed.max_count == full.max_count
    assert resumed.witness_u == full.witness_u
    assert resumed.witness_v == full.witness_v
    assert resumed.boxes_examined == full.boxes_examined


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
    assert replay_witness(spec, loaded) == loaded.max_count
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
    exact_conductance(spec, 2, checkpoint_path=str(path), checkpoint_every=10)
    lines = path.read_text().splitlines()
    assert lines[0] == "condlab-ckpt v1"
    fields = dict(line.split("=", 1) for line in lines[1:])
    assert fields["spec"] == spec.digest()
    assert fields["cursor"] == "(6,0)"  # exhausted: 36 boxes, radix 6
    assert fields["boxes_examined"] == "36"
    assert ";" in fields["witness_u"] and "," in fields["witness_u"]


def test_negative_checkpoint_every_is_refused_before_any_write(tmp_path, monkeypatch):
    from condlab import conductance

    writes = []
    real_write = conductance.write_checkpoint
    monkeypatch.setattr(conductance, "write_checkpoint",
                        lambda *args: writes.append(args[3]) or real_write(*args))
    path = str(tmp_path / "every.ckpt")
    spec = PermutationSpec.pi1(2)
    with pytest.raises(RangeError, match="checkpoint_every must be nonnegative, got -5"):
        exact_conductance(spec, 2, checkpoint_path=path, checkpoint_every=-5)
    assert writes == [] and not os.path.exists(path)
    # 0 writes no periodic checkpoints, only the final one
    report = exact_conductance(spec, 2, checkpoint_path=path, checkpoint_every=0)
    assert writes == [report.boxes_examined]


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
    spec = random_table(5, 2, 2)
    full = exact_conductance(spec, 2)
    path = str(tmp_path / "chain.ckpt")
    _checkpoint_after_first_write(monkeypatch, spec, 2, path, 30)
    for _ in range(2):  # second pass resumes an already-finished search
        report = exact_conductance(spec, 2, checkpoint_path=path,
                                   checkpoint_every=1)
        assert report.max_count == full.max_count
        assert report.witness_u == full.witness_u
        assert report.witness_v == full.witness_v
        assert report.boxes_examined == full.boxes_examined
