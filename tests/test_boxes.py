"""Box enumeration, ranking, images, and intersection counting."""

import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.boxes import (
    PointSet,
    QBox,
    box_at_rank,
    box_count,
    combination_rank,
    combination_unrank,
    covering_box,
    enumerate_qboxes,
    enumerate_qboxes_range,
    global_rank,
    greedy_box,
    image_of_box,
    intersection_count,
    pad_side,
    slices,
)
from condlab.errors import BudgetError, RangeError, ShapeError
from condlab.perms import PermutationSpec, pack_words, random_table, unpack_words


def test_enumeration_counts():
    assert len(list(enumerate_qboxes(2, 2, 1))) == 6
    assert len(list(enumerate_qboxes(2, 2, 3))) == 216
    assert len(list(enumerate_qboxes(2, 4, 3))) == 1
    assert len(list(enumerate_qboxes(3, 8, 2))) == 1


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_enumeration_complete_and_duplicate_free(q, w):
    boxes = list(enumerate_qboxes(2, q, w))
    assert len(boxes) == box_count(2, q, w) == comb(4, q) ** w
    assert len(set(boxes)) == len(boxes)


def test_enumeration_budget_reports_refused_count():
    with pytest.raises(BudgetError) as exc:
        list(enumerate_qboxes(4, 8, 4, budget=10 ** 6))
    assert exc.value.refused == comb(16, 8) ** 4


def test_enumeration_is_lexicographic():
    boxes = list(enumerate_qboxes(2, 2, 2))
    sides = [b.sides for b in boxes]
    assert sides == sorted(sides)
    assert sides[0] == ((0, 1), (0, 1))


def test_combination_rank_unrank_round_trip():
    for universe, k in ((4, 2), (8, 3), (16, 1), (6, 6)):
        for rank, combo in enumerate(itertools.combinations(range(universe), k)):
            assert combination_rank(combo, universe) == rank
            assert combination_unrank(rank, universe, k) == combo
    # ranks over a 2^64 alphabet, without walking it
    universe = 1 << 64
    last = tuple(range(universe - 4, universe))
    assert combination_unrank(comb(universe, 4) - 1, universe, 4) == last
    assert combination_rank(last, universe) == comb(universe, 4) - 1
    for rank in (0, 1, 12345678901234567890, comb(universe, 4) // 3):
        assert combination_rank(combination_unrank(rank, universe, 4), universe) == rank


def test_global_rank_round_trip_and_range_enumeration():
    boxes = list(enumerate_qboxes(2, 2, 2))
    for rank, box in enumerate(boxes):
        assert global_rank(box) == rank
        assert box_at_rank(rank, 2, 2, 2) == box
    assert list(enumerate_qboxes_range(2, 2, 2, 7, 13)) == boxes[7:13]
    with pytest.raises(RangeError):
        list(enumerate_qboxes_range(2, 2, 2, -1, 3))
    assert list(enumerate_qboxes_range(2, 2, 2, 30, 99)) == boxes[30:]
    assert list(enumerate_qboxes_range(2, 2, 2, 5, 5)) == []


def test_qbox_validation():
    with pytest.raises(ShapeError):
        QBox(((0, 0),), 2)  # duplicate value
    with pytest.raises(ShapeError):
        QBox(((1, 0),), 2)  # not sorted
    with pytest.raises(ShapeError):
        QBox(((0, 4),), 2)  # out of range
    with pytest.raises(ShapeError):
        QBox(((0, 1), (0,)), 2)  # unequal sides


def test_pointset_basics():
    ps = PointSet([3, 1, 2], 2, 1)
    assert ps.points == (1, 2, 3)
    assert 2 in ps and 0 not in ps
    with pytest.raises(ShapeError):
        PointSet([1, 1], 2, 1)
    with pytest.raises(ShapeError):
        PointSet([-1, 5], 2, 3)


def test_image_of_identity_is_the_box_itself():
    box = QBox(((0, 2), (1, 3)), 2)
    img = image_of_box(PermutationSpec.identity(2, 2), box)
    assert img.points == tuple(box.packed_points())


@pytest.mark.parametrize("kind", ["pi1", "pi3"])
def test_image_cardinality_equals_box_size(kind):
    spec = PermutationSpec(kind, 2, 3)
    for box in itertools.islice(enumerate_qboxes(2, 2, 3), 0, 216, 17):
        assert len(image_of_box(spec, box)) == 8


def test_pi1_image_of_binary_cube_enumerated_directly():
    n = 2
    spec = PermutationSpec.pi1(n)
    box = QBox(((0, 1), (0, 1), (0, 1)), n)
    img = image_of_box(spec, box)
    expected = set()
    for a, b, c in itertools.product((0, 1), repeat=3):
        ab = a & b  # GF(4) product of values in {0,1} is the AND
        expected.add(pack_words((a, b, c ^ ab), n))
    assert set(img.points) == expected
    assert len(img) == 8


def test_image_budget():
    spec = PermutationSpec.identity(4, 6)
    box = QBox(tuple(tuple(range(16)) for _ in range(6)), 4)
    with pytest.raises(BudgetError) as exc:
        image_of_box(spec, box, budget=10 ** 6)
    assert exc.value.refused == 16 ** 6


def test_intersection_count_examples():
    box = QBox(((0, 2), (1, 3)), 2)
    img = image_of_box(PermutationSpec.identity(2, 2), box)
    assert intersection_count(img, box) == 4
    disjoint = QBox(((1, 3), (1, 3)), 2)
    assert intersection_count(img, disjoint) == 0


def test_intersection_count_matches_membership_oracle():
    rng = random.Random(7)
    for _ in range(30):
        pts = rng.sample(range(64), 8)
        ps = PointSet(pts, 2, 3)
        sides = tuple(tuple(sorted(rng.sample(range(4), 2))) for _ in range(3))
        box = QBox(sides, 2)
        naive = 0
        for p in pts:
            words = [(p >> 4) & 3, (p >> 2) & 3, p & 3]
            if all(wd in side for wd, side in zip(words, sides)):
                naive += 1
        assert intersection_count(ps, box) == naive


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_intersection_bounds_property(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 65)
    ps = PointSet(rng.sample(range(64), size), 2, 3)
    sides = tuple(tuple(sorted(rng.sample(range(4), 2))) for _ in range(3))
    count = intersection_count(ps, QBox(sides, 2))
    assert 0 <= count <= min(size, 8)


def test_covering_box_always_catches_q_points():
    # some box always catches >= q image points; the covering builder is
    # the constructive proof, checked here over every box
    spec = PermutationSpec.pi1(2)
    for box in enumerate_qboxes(2, 2, 3):
        img = image_of_box(spec, box)
        cover = covering_box(img, 2)
        assert intersection_count(img, cover) >= 2
    spec = random_table(3, 2, 2)
    for box in enumerate_qboxes(2, 3, 2):
        img = image_of_box(spec, box)
        cover = covering_box(img, 3)
        assert intersection_count(img, cover) >= 3


def test_covering_box_single_point():
    ps = PointSet([pack_words((2, 1), 2)], 2, 2)
    cover = covering_box(ps, 1)
    assert cover.sides == ((2,), (1,))
    assert intersection_count(ps, cover) == 1


def test_greedy_box_recovers_a_box_image_exactly():
    # the image of a box under the identity is that box; per-coordinate
    # frequencies then pick exactly its sides
    box = QBox(((1, 3), (0, 2)), 2)
    img = image_of_box(PermutationSpec.identity(2, 2), box)
    found, count = greedy_box(img, 2)
    assert found == box
    assert count == 4


def test_greedy_box_never_beats_exhaustive():
    rng = random.Random(11)
    for _ in range(20):
        ps = PointSet(rng.sample(range(64), 10), 2, 3)
        _, count = greedy_box(ps, 2)
        best = max(
            intersection_count(ps, box) for box in enumerate_qboxes(2, 2, 3)
        )
        assert count <= best


def test_slices_hold_every_point_once_under_its_word_in_input_order():
    rng = random.Random(5)
    n, w = 3, 4
    points = rng.sample(range(1 << n * w), 300)
    for coord in range(w):
        by_value = slices(points, n, w, coord)
        assert sorted(p for members in by_value.values() for p in members) == sorted(points)
        for value, members in by_value.items():
            assert members == [p for p in points if unpack_words(p, n, w)[coord] == value]
    assert slices([], n, w, 0) == {}


def test_pad_side_is_the_smallest_completion():
    assert pad_side((5, 1), 4) == (0, 1, 2, 5)
    assert pad_side((), 2) == (0, 1)
    assert pad_side({3, 0, 2}, 3) == (0, 2, 3)


def test_greedy_box_memory_does_not_grow_with_the_alphabet():
    # four points at n = 20: ranking all 2^20 values per coordinate
    # would take tens of MB
    n = 20
    ps = PointSet([pack_words(t, n) for t in ((1, 2, 3), (1, 5, 3), (7, 2, 9), (1 << 19, 0, 4))],
                  n, 3)
    tracemalloc.start()
    try:
        box, count = greedy_box(ps, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert count == intersection_count(ps, box) == 2
