"""Box enumeration, ranking, images, and intersection counting."""

import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab import boxes
from condlab.boxes import (
    PointSet,
    QBox,
    box_count,
    column_images,
    combination_rank,
    combination_unrank,
    digits_to_rank,
    enumerate_qboxes,
    enumerate_qboxes_range,
    fattest_side,
    greedy_box,
    image_of_box,
    intersection_count,
    pad_side,
    random_box,
    rank_to_digits,
    slice_bound,
    slice_sizes,
    slices,
    xor_sides,
)
from condlab.errors import BudgetError, NotAPermutationError, RangeError, ShapeError
from condlab.perms import PermutationSpec, pack_words, random_table, unpack_words


# --- reference: the greedy box that re-slices on every pass ------------------


def reference_greedy_box(points, q):
    """(box, count, swaps) of the greedy box, pricing each side from the
    points that every other side holds, found by slicing afresh."""
    n, w = points.n, points.w
    sides = [fattest_side(slices(points.points, n, w, i), q) for i in range(w)]
    swaps = 0
    while True:
        for i, side in enumerate(sides):
            inside = points.points
            for j in range(w):
                if j != i:
                    by_value = slices(inside, n, w, j)
                    inside = [p for v in sides[j] for p in by_value.get(v, ())]
            sizes = {v: len(ps) for v, ps in sorted(slices(inside, n, w, i).items())}
            chosen = set(side)
            outside = [v for v in sizes if v not in chosen]
            swap = next(((v_out, v_in) for v_out in side for v_in in outside
                         if sizes[v_in] > sizes.get(v_out, 0)), None)
            if swap:
                sides[i] = tuple(sorted(chosen - {swap[0]} | {swap[1]}))
                swaps += 1
                break
        else:
            break
    box = QBox(tuple(sides), n)
    return box, intersection_count(points, box), swaps


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
        list(enumerate_qboxes(4, 8, 4))
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


def _search_unrank(rank, universe, k):
    """Unrank by a binary search per value over C(universe - u, left)."""
    out = []
    v = 0
    for left in range(k, 0, -1):
        tail = comb(universe - v, left)
        lo, hi = v, universe - left
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if tail - comb(universe - mid, left) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= tail - comb(universe - lo, left)
        out.append(lo)
        v = lo + 1
    return tuple(out)


def test_unrank_equals_the_search_over_every_rank_and_seeded_ranks_to_40():
    # k*k >= universe walks the values, sparser shapes search: both run here
    for universe in range(11):
        for k in range(universe + 1):
            combos = itertools.combinations(range(universe), k)
            for rank, combo in enumerate(combos):
                assert combination_unrank(rank, universe, k) == combo
                assert _search_unrank(rank, universe, k) == combo
    rng = random.Random(40)
    for universe in range(11, 41):
        for k in range(universe + 1):
            total = comb(universe, k)
            for rank in {0, total - 1, *(rng.randrange(total) for _ in range(8))}:
                assert combination_unrank(rank, universe, k) == _search_unrank(rank, universe, k)
    with pytest.raises(ValueError):
        combination_unrank(comb(40, 20), 40, 20)


def test_global_rank_round_trip_and_range_enumeration():
    # a box's global rank is mixed-radix over its per-side combination
    # ranks: the digits a checkpoint cursor holds
    boxes = list(enumerate_qboxes(2, 2, 2))
    radix = comb(4, 2)
    for rank, box in enumerate(boxes):
        digits = tuple(combination_rank(side, 4) for side in box.sides)
        assert digits_to_rank(digits, radix) == rank
        assert rank_to_digits(rank, radix, 2) == digits
        assert QBox.from_ranks(digits, 2, 2) == box
    assert rank_to_digits(len(boxes), radix, 2) == (radix, 0)  # the exhausted cursor
    sides = list(itertools.combinations(range(4), 2))
    assert list(enumerate_qboxes_range(sides, 2, 7, 13)) == [box.sides for box in boxes[7:13]]
    with pytest.raises(RangeError):
        list(enumerate_qboxes_range(sides, 2, -1, 3))
    assert list(enumerate_qboxes_range(sides, 2, 30, 99)) == [box.sides for box in boxes[30:]]
    assert list(enumerate_qboxes_range(sides, 2, 5, 5)) == []
    # w = 0: the one empty prefix, the walk of a one-word exact search
    assert list(enumerate_qboxes_range(sides, 0, 0, 1)) == [()]
    assert list(enumerate_qboxes_range(sides, 0, 1, 2)) == []


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


def _per_point_image(spec, box):
    """The image one point at a time in product order, or the message and
    witness of its first repeated output."""
    owner, outputs = {}, []
    for words in itertools.product(*box.sides):
        x = pack_words(words, box.n)
        y = spec.apply_packed(x)
        if y in owner:
            return (f"box inputs {owner[y]:#x} and {x:#x} both map to {y:#x}; "
                    "the box searches need a bijection", (owner[y], x))
        owner[y] = x
        outputs.append(y)
    return PointSet(outputs, box.n, box.w)


def _image_or_collision(spec, box):
    try:
        return image_of_box(spec, box)
    except NotAPermutationError as exc:
        return str(exc), exc.witness


IMAGE_SPECS = (
    [PermutationSpec(kind, n, 3) for kind in ("pi1", "pi2", "pi3", "bothmix")
     for n in (2, 3, 11, 17, 64)]
    + [PermutationSpec.identity(n, w) for n in (2, 17, 64) for w in (1, 3, 5)]
    + [PermutationSpec.piw(n, w) for n in (2, 3, 11, 17, 64) for w in range(4, 9)]
    + [random_table(5, 2, 3), random_table(6, 3, 3)]
)


@pytest.mark.parametrize("spec", IMAGE_SPECS, ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_image_equals_the_per_point_image(spec):
    # points are wider than 64 bits from n=17 at w=4 on
    rng = random.Random(spec.n * 100 + spec.w)
    for q in (1, 2, 3):
        for _ in range(3):
            box = random_box(rng, spec.n, q, spec.w)[1]
            assert _image_or_collision(spec, box) == _per_point_image(spec, box)


def test_bothmix_box_on_the_collapsed_plane_names_the_first_repeat():
    n = 3
    spec = PermutationSpec.bothmix(n)
    box = QBox(((1, 2), (0, 1), (0, 1)), n)
    with pytest.raises(NotAPermutationError) as exc:
        image_of_box(spec, box)
    x0, x = pack_words((1, 0, 1), n), pack_words((1, 1, 0), n)
    assert exc.value.witness == (x0, x)
    assert (str(exc.value), exc.value.witness) == _per_point_image(spec, box)


def test_xor_sides_spreads_points_over_the_chosen_sides():
    box = QBox(((0, 2), (1, 3), (1, 2)), 2)
    assert box.packed_points() == [pack_words(t, 2) for t in itertools.product(*box.sides)]
    assert xor_sides([0], box.sides, 2, [0, 2]) == [pack_words((a, 0, c), 2)
                                                    for a in (0, 2) for c in (1, 2)]
    assert xor_sides([5, 7], box.sides, 2, []) == [5, 7]
    assert xor_sides([pack_words((1, 1, 3), 2)], box.sides, 2, [1]) == [
        pack_words((1, 1 ^ 1, 3), 2), pack_words((1, 1 ^ 3, 3), 2)]


def test_image_budget():
    spec = PermutationSpec.identity(4, 6)
    box = QBox(tuple(tuple(range(16)) for _ in range(6)), 4)
    with pytest.raises(BudgetError) as exc:
        image_of_box(spec, box)
    assert exc.value.refused == 16 ** 6


def test_intersection_count_examples():
    box = QBox(((0, 2), (1, 3)), 2)
    img = image_of_box(PermutationSpec.identity(2, 2), box)
    assert intersection_count(img, box) == 4
    disjoint = QBox(((1, 3), (1, 3)), 2)
    assert intersection_count(img, disjoint) == 0


@pytest.mark.parametrize("box", [QBox(((0, 1),) * 2, 2), QBox(((0, 1),) * 3, 3)],
                         ids=["w", "n"])
def test_a_box_of_another_shape_is_refused(box):
    spec = PermutationSpec.pi1(2)
    with pytest.raises(ShapeError) as exc:
        image_of_box(spec, box)
    assert str(exc.value) == f"box shape (n={box.n}, w={box.w}) does not match spec (n=2, w=3)"
    with pytest.raises(ShapeError) as exc:
        intersection_count(PointSet([0, 1], 2, 3), box)
    assert str(exc.value) == "point set and box shapes disagree"


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


def _greedy_sweep(rng):
    """(points, q) pairs: seeded box images under identity, pi1, pi3, piw at
    w = 4 to 6 and random tables, at every q from 1 to 2^n, each with a
    random subset of it."""
    specs = [PermutationSpec.identity(3, 3), PermutationSpec.pi1(3), PermutationSpec.pi3(3),
             PermutationSpec.pi1(4), PermutationSpec.piw(2, 4), PermutationSpec.piw(2, 5),
             PermutationSpec.piw(2, 6), random_table(1, 3, 2), random_table(2, 2, 4)]
    for spec in specs:
        for q in range(1, (1 << spec.n) + 1):
            for _ in range(2):
                image = image_of_box(spec, random_box(rng, spec.n, q, spec.w)[1])
                subset = rng.sample(image.points, rng.randint(1, len(image)))
                yield image, q
                yield PointSet(subset, spec.n, spec.w), q


def test_greedy_box_matches_the_reference_on_a_seeded_sweep():
    swaps = []
    for ps, q in _greedy_sweep(random.Random(19)):
        box, count, moved = reference_greedy_box(ps, q)
        assert greedy_box(ps, q) == (box, count), (ps, q)
        swaps.append(moved)
    assert len(swaps) > 200 and sum(m >= 2 for m in swaps) >= 3


def test_greedy_box_counts_misses_past_a_byte():
    # q = 1 at w = 300: the all-ones point misses all 300 sides of the box
    # of zeros that the tie-break picks
    n, w = 1, 300
    ps = PointSet([0, (1 << w) - 1], n, w)
    box, count = greedy_box(ps, 1)
    assert (box, count) == reference_greedy_box(ps, 1)[:2] == (QBox(((0,),) * w, n), 1)


def test_greedy_box_groups_the_points_once_per_coordinate(monkeypatch):
    # however many swaps it makes, the greedy box slices its input w times
    cases = [(ps, q) for ps, q in _greedy_sweep(random.Random(19))
             if reference_greedy_box(ps, q)[2] >= 2]
    assert cases
    calls = []
    real = boxes.slices

    def counted(points, *args):
        calls.append(len(points))
        return real(points, *args)
    monkeypatch.setattr(boxes, "slices", counted)
    for ps, q in cases:
        calls.clear()
        greedy_box(ps, q)
        assert calls == [len(ps)] * ps.w


# greedy_box's tracemalloc peak on the image below before it kept per-point
# miss counts, when it re-sliced the image on every pass
RESLICING_PEAK_BYTES = 1_417_536


def test_greedy_box_peak_memory_stays_near_the_reslicing_one():
    image = image_of_box(PermutationSpec.pi1(6), random_box(random.Random(0), 6, 32, 3)[1])
    assert len(image) == 32768
    tracemalloc.start()
    try:
        greedy_box(image, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * RESLICING_PEAK_BYTES


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


def _every_column(spec, prefix):
    """column_images with a free last word's translates filled in."""
    columns = column_images(spec, prefix)
    if len(columns) == 1:
        columns = [[y ^ t for y in columns[0]] for t in range(1 << spec.n)]
    return columns


COLUMN_SPECS = (
    [PermutationSpec.identity(n, w) for n in (1, 2, 3) for w in (1, 2, 3)]
    + [PermutationSpec(kind, n, 3) for kind in ("pi1", "pi2", "pi3") for n in (1, 2, 3)]
    + [PermutationSpec.piw(2, 4)]
    + [random_table(seed, n, w) for seed in (3, 4) for n in (1, 2, 3) for w in (1, 2, 3)]
)


@pytest.mark.parametrize("spec", COLUMN_SPECS, ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_column_images_are_the_per_point_images_of_each_column(spec):
    rng = random.Random(spec.n * 10 + spec.w)
    for q in range(1, min(4, 1 << spec.n) + 1):
        for _ in range(3):
            prefix = random_box(rng, spec.n, q, spec.w)[1].sides[:-1]
            columns = _every_column(spec, prefix)
            assert len(columns) == 1 << spec.n
            for t, column in enumerate(columns):
                inputs = [pack_words(words, spec.n) for words in itertools.product(*prefix, (t,))]
                assert column == [spec.apply_packed(x) for x in inputs]


@pytest.mark.parametrize("spec", COLUMN_SPECS, ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_slice_bound_over_sizes_equals_it_over_the_slices(spec):
    # on every column and on the union of q columns, a box image
    n, w = spec.n, spec.w
    rng = random.Random(spec.n * 10 + spec.w + 1)
    for q in range(1, min(4, 1 << n) + 1):
        for _ in range(3):
            columns = _every_column(spec, random_box(rng, n, q, w)[1].sides[:-1])
            union = [y for t in rng.sample(range(1 << n), q) for y in columns[t]]
            for points in (*columns, union):
                sizes = [slice_sizes(points, n, w, j) for j in range(w)]
                groups = [slices(points, n, w, j) for j in range(w)]
                assert sizes == [{v: len(g[v]) for v in g} for g in groups]
                assert (slice_bound([s.values() for s in sizes], q)
                        == slice_bound([map(len, g.values()) for g in groups], q))


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
