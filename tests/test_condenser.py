"""Min-entropy, flat peeling, slice cutting, and residual bound tests."""

import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.boxes import PointSet, QBox, enumerate_qboxes, image_of_box
from condlab.condenser import (
    Decomposition,
    FiniteDistribution,
    coordinate_min_entropy,
    decompose,
    empirical_condenser_profile,
    flat_decomposition_check,
    min_entropy,
    size_above,
    size_below,
    verify_converse_bounds,
)
from condlab.errors import RangeError, ShapeError, UndefinedEntropyError
from condlab.perms import PermutationSpec, random_table, unpack_words


# --- straight-line reference: recompute every slice from scratch each pass ---


def reference_decompose(points, n, w, alpha_n, eps1, eps2):
    """Independent trace of the cutting procedure on plain sets."""
    cut_threshold = 2.0 ** (alpha_n * (w - 1 - eps1 - eps2))
    keep_threshold = 2.0 ** (alpha_n * (w - eps2))
    remaining = set(points)
    piles = [set() for _ in range(w)]
    log = []
    iteration = 0
    while True:
        hit = None
        for i in range(w):
            buckets = defaultdict(set)
            for p in remaining:
                buckets[unpack_words(p, n, w)[i]].add(p)
            for y in sorted(buckets):
                if 0 < len(buckets[y]) < cut_threshold:
                    hit = (i, y, buckets[y])
                    break
            if hit:
                break
        if hit is None:
            break
        iteration += 1
        i, y, cut = hit
        log.append((iteration, i, y, len(cut)))
        remaining -= cut
        piles[i] |= cut
    r0 = remaining
    r1 = set()
    parts = []
    for i in range(w):
        if len(piles[i]) > keep_threshold:
            parts.append(piles[i])
        else:
            r1 |= piles[i]
            parts.append(set())
    return parts, r0, r1, log


# --- distributions -------------------------------------------------------------


def test_min_entropy_examples():
    assert min_entropy(FiniteDistribution.uniform_on(range(16))) == 4.0
    assert min_entropy(FiniteDistribution({"x": 1.0})) == 0.0
    assert min_entropy(FiniteDistribution({"a": 0.5, "b": 0.25, "c": 0.25})) == 1.0


def test_min_entropy_errors():
    with pytest.raises(UndefinedEntropyError):
        min_entropy(FiniteDistribution({}))
    with pytest.raises(RangeError):
        FiniteDistribution({"a": -0.1, "b": 1.1})
    with pytest.raises(RangeError):
        FiniteDistribution({"a": 0.7})


def test_min_entropy_of_uniform_is_log_cardinality():
    for size in (1, 2, 3, 7, 32):
        points = PointSet(random.Random(size).sample(range(64), size), 2, 3)
        dist = FiniteDistribution.uniform_on(points.points)
        assert min_entropy(dist) == pytest.approx(math.log2(size))


# --- flat peeling ----------------------------------------------------------------


def test_flat_input_is_a_single_term():
    dist = FiniteDistribution.uniform_on(range(4))
    result = flat_decomposition_check(dist, 2)
    assert result.ok
    assert result.terms == ((Fraction(1), (0, 1, 2, 3)),)
    assert result.residual_norm == 0.0


def test_uniform_on_twice_the_support_decomposes_exactly():
    dist = FiniteDistribution.uniform_on(range(8))
    result = flat_decomposition_check(dist, 2)
    assert result.ok
    assert result.residual_norm <= 1e-9
    rebuilt = defaultdict(Fraction)
    for weight, atoms in result.terms:
        assert len(atoms) == 4
        for x in atoms:
            rebuilt[x] += weight / 4
    for x in range(8):
        assert rebuilt[x] == Fraction(1, 8)


def test_low_entropy_input_reports_precondition_violation():
    dist = FiniteDistribution({"a": 0.5, "b": 0.25, "c": 0.25})
    result = flat_decomposition_check(dist, 2)
    assert not result.ok
    assert "min-entropy below 2" in result.reason


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_flat_peeling_reconstructs_exactly(seed):
    # build an input that is a convex combination of random flats blended
    # with the uniform distribution on a 2^(k+1)-atom universe, so its max
    # probability sits safely below 2^-k even after float rounding
    rng = random.Random(seed)
    k = rng.randrange(0, 3)
    size = 1 << k
    universe = list(range(2 * size))
    masses = defaultdict(float)
    weights = [rng.random() for _ in range(rng.randrange(1, 4))]
    total = sum(weights) / 0.75
    for weight in weights:
        flat = rng.sample(universe, size)
        for x in flat:
            masses[x] += weight / total / size
    for x in universe:
        masses[x] += 0.25 / len(universe)
    dist_map = dict(masses)
    result = flat_decomposition_check(FiniteDistribution(dist_map), k)
    assert result.ok
    assert result.residual_norm <= 1e-9
    rebuilt = defaultdict(Fraction)
    for weight, chosen in result.terms:
        assert len(chosen) == size
        for x in chosen:
            rebuilt[x] += weight / size
    for x, p in dist_map.items():
        assert rebuilt[x] == Fraction(p)


# --- threshold comparisons ----------------------------------------------------------


def test_size_comparisons_are_exact_at_power_boundaries():
    assert not size_below(2, 1.0)  # 2 < 2^1 is false
    assert size_below(1, 1.0)
    assert size_below(7, 3.0)
    assert not size_below(8, 3.0)
    assert size_above(8, 2.0)
    assert not size_above(8, 3.0)
    assert size_above(5, 2.0) and not size_above(5, 3.0)
    assert not size_below(5, 2.0) and size_below(5, 3.0)


# --- bottleneck slices ----------------------------------------------------------------


def test_single_point_yields_first_coordinate_slice():
    ps = PointSet([0b011011], 2, 3)  # words (1, 2, 3)
    dec = decompose(ps, 1.0, 0.25, 0.25)  # threshold 2^1.5
    # (iteration, coordinate, value, size)
    assert dec.slice_log[0] == (1, 0, 1, 1)


def test_full_cube_has_no_bottleneck():
    ps = PointSet(range(64), 2, 3)
    # every slice holds 16 points; threshold 2^(w-1)n = 16 is not strict
    assert decompose(ps, 2.0, 0.0, 0.0).slice_log == ()


def test_find_bottleneck_matches_naive_scan_on_pi1_images():
    spec = PermutationSpec.pi1(2)
    alpha_n, eps1, eps2 = 1.0, 0.5, 0.5  # threshold 2^1 = 2
    for box in itertools.islice(enumerate_qboxes(2, 2, 3), 0, 216, 7):
        img = image_of_box(spec, box)
        naive = None
        for i in range(3):
            sizes = Counter(t[i] for t in img.word_tuples())
            for y in sorted(sizes):
                if 0 < sizes[y] < 2.0:
                    naive = (i, y)
                    break
            if naive:
                break
        log = decompose(img, alpha_n, eps1, eps2).slice_log
        if naive is None:
            assert log == ()
        else:
            assert log[0][1:3] == naive


# --- decompose -------------------------------------------------------------------------


def test_single_point_trace():
    ps = PointSet([0b000000], 2, 3)
    dec = decompose(ps, 1.0, 0.5, 0.5)
    assert all(len(p) == 0 for p in dec.parts)
    assert len(dec.r0) == 0
    assert dec.r1.points == (0,)
    assert dec.slice_log == ((1, 0, 0, 1),)


def test_no_thin_slice_leaves_everything_in_r0():
    ps = PointSet(random.Random(0).sample(range(64), 20), 2, 3)
    # cut exponent 1*(2 - 1.5 - 1.5) < 0, threshold below 1: no slice fits
    dec = decompose(ps, 1.0, 1.5, 1.5)
    assert dec.r0 == ps
    assert len(dec.r1) == 0
    assert dec.slice_log == ()


def test_decompose_matches_reference_trace_on_pi1_image():
    spec = PermutationSpec.pi1(2)
    box = QBox(((0, 1), (0, 1), (0, 1)), 2)
    img = image_of_box(spec, box)
    dec = decompose(img, 1.0, 0.25, 0.25)
    parts, r0, r1, log = reference_decompose(img.points, 2, 3, 1.0, 0.25, 0.25)
    assert [set(p.points) for p in dec.parts] == parts
    assert set(dec.r0.points) == r0
    assert set(dec.r1.points) == r1
    assert list(dec.slice_log) == log


@pytest.mark.parametrize("eps", [(0.25, 0.25), (0.5, 0.25), (0.75, 0.5), (0.0, 1.0)])
def test_decompose_matches_reference_trace_on_random_sets(eps):
    eps1, eps2 = eps
    rng = random.Random(99)
    for _ in range(25):
        size = rng.randrange(1, 65)
        ps = PointSet(rng.sample(range(64), size), 2, 3)
        dec = decompose(ps, 1.0, eps1, eps2)
        parts, r0, r1, log = reference_decompose(ps.points, 2, 3, 1.0, eps1, eps2)
        assert [set(p.points) for p in dec.parts] == parts
        assert set(dec.r0.points) == r0
        assert set(dec.r1.points) == r1
        assert list(dec.slice_log) == log


def test_decompose_produces_kept_parts_somewhere():
    # guard against the invariant suite checking only empty parts
    rng = random.Random(5)
    kept = 0
    for _ in range(200):
        ps = PointSet(rng.sample(range(64), rng.randrange(1, 65)), 2, 3)
        dec = decompose(ps, 1.0, 0.0, 1.5)
        kept += sum(1 for p in dec.parts if len(p))
    assert kept > 0


def test_decompose_invariants_on_seeded_sets():
    rng = random.Random(7)
    for _ in range(150):
        size = rng.randrange(1, 65)
        ps = PointSet(rng.sample(range(64), size), 2, 3)
        for eps1, eps2 in ((0.25, 0.25), (0.5, 0.75), (0.0, 1.0)):
            dec = decompose(ps, 1.0, eps1, eps2)
            dec.validate()
            union = set()
            for part in (*dec.parts, dec.r0, dec.r1):
                union |= set(part.points)
            assert union == set(ps.points)
            assert len(dec.slice_log) <= size
            cut_threshold = 2.0 ** (1.0 * (2 - eps1 - eps2))
            for _, _, _, cut_size in dec.slice_log:
                assert 0 < cut_size < cut_threshold


def test_decompose_rejects_empty_sets():
    with pytest.raises(ShapeError):
        decompose(PointSet([], 2, 3), 1.0, 0.25, 0.25)


def test_kept_part_entropy_clears_the_boost_target():
    # for any kept part, every slice along its coordinate is strictly
    # thinner than 2^(-(1+eps1)*alpha_n) of the part, i.e. the uniform
    # distribution on the part boosts that coordinate past (1+eps1)*alpha_n
    eps1, eps2, alpha_n = 0.0, 1.5, 1.0
    rng = random.Random(5)
    seen = 0
    for _ in range(300):
        ps = PointSet(rng.sample(range(64), rng.randrange(8, 65)), 2, 3)
        dec = decompose(ps, alpha_n, eps1, eps2)
        for i, part in enumerate(dec.parts):
            if not len(part):
                continue
            fattest, bits = coordinate_min_entropy(part, i)
            assert bits == pytest.approx(math.log2(len(part) / fattest))
            assert fattest * 2 ** (1 + eps1) < len(part)
            assert bits > (1 + eps1) * alpha_n
            seen += 1
    assert seen > 0


# --- converse bounds -------------------------------------------------------------------


def test_identity_box_image_marks_r0_unverified():
    spec = PermutationSpec.identity(2, 3)
    box = QBox(((0, 1), (0, 1), (0, 1)), 2)
    dec = decompose(image_of_box(spec, box), 1.0, 0.25, 0.25)
    report = verify_converse_bounds(dec, 0.1)
    by_name = {c.name: c for c in report.checks}
    assert by_name["r1_size"].holds is True
    assert by_name["r0_size"].holds is None  # unverified, not failed
    assert report.precondition_checked
    assert report.precondition_held is False


def test_precomputed_intersection_skips_the_search():
    spec = PermutationSpec.pi1(2)
    box = QBox(((0, 2), (1, 3), (0, 1)), 2)
    dec = decompose(image_of_box(spec, box), 1.0, 0.25, 0.25)
    report = verify_converse_bounds(dec, 0.1, max_box_intersection=5)
    assert report.max_box_intersection == 5
    assert report.precondition_checked


def test_verified_branch_arithmetic_with_synthetic_precondition():
    # force the precondition to hold to exercise the conditional R0 bound
    ps = PointSet(random.Random(3).sample(range(64), 30), 2, 3)
    dec = decompose(ps, 2.0, 0.05, 0.05)
    report = verify_converse_bounds(dec, 0.05, max_box_intersection=1)
    by_name = {c.name: c for c in report.checks}
    assert report.precondition_held is True
    expected = len(dec.r0) <= 2.0 ** ((1 - 0.05) * 6.0)
    assert by_name["r0_size"].holds == expected


def test_r1_bound_is_unconditional():
    rng = random.Random(21)
    for _ in range(50):
        ps = PointSet(rng.sample(range(64), rng.randrange(1, 65)), 2, 3)
        dec = decompose(ps, 1.0, 0.25, 0.5)
        report = verify_converse_bounds(dec, 0.2, check_precondition=False)
        r1 = next(c for c in report.checks if c.name == "r1_size")
        assert r1.holds is True
        assert len(dec.r1) <= 3 * 2.0 ** (1.0 * (3 - 0.5))


def test_decomposition_json_round_trip():
    spec = PermutationSpec.pi1(2)
    box = QBox(((0, 1), (2, 3), (0, 3)), 2)
    dec = decompose(image_of_box(spec, box), 1.0, 0.25, 0.25)
    blob = dec.to_json_dict()
    back = Decomposition.from_json_dict(blob)
    assert back.parts == dec.parts
    assert back.r0 == dec.r0
    assert back.r1 == dec.r1
    assert back.slice_log == dec.slice_log
    back.validate()


def test_decomposition_json_rejects_negative_points():
    dec = decompose(PointSet([0b011011], 2, 3), 1.0, 0.25, 0.25)
    blob = dec.to_json_dict()
    blob["parts"]["R0"] = ["-1", "5"]
    with pytest.raises(ShapeError):
        Decomposition.from_json_dict(blob)


# --- empirical profile ------------------------------------------------------------------


def test_identity_profile_fails_the_condenser_shape():
    profile = empirical_condenser_profile(
        PermutationSpec.identity(2, 3), 1.0, 0.25, 0.25, trials=6, seed=2
    )
    assert all(t.gamma == 1.0 for t in profile.trials)
    assert all(not t.coordinate_entropies for t in profile.trials)
    assert profile.worst_gamma == 1.0


def test_profile_matches_direct_recomputation():
    spec = PermutationSpec.pi1(2)
    profile = empirical_condenser_profile(spec, 1.0, 0.25, 0.25, trials=8, seed=4)
    for trial in profile.trials:
        box = QBox.from_ranks(trial.box_ranks, 2, 2)
        dec = decompose(image_of_box(spec, box), 1.0, 0.25, 0.25)
        gamma = (len(dec.r0) + len(dec.r1)) / 8
        assert trial.gamma == gamma
        for i, (part_size, fattest, bits, _met) in trial.coordinate_entropies.items():
            assert part_size == len(dec.parts[i])
            assert (fattest, bits) == coordinate_min_entropy(dec.parts[i], i)


def test_profile_zero_trials_is_empty_not_error():
    profile = empirical_condenser_profile(
        PermutationSpec.pi1(2), 1.0, 0.25, 0.25, trials=0, seed=0
    )
    assert profile.trials == ()
    assert profile.worst_gamma is None
    assert profile.mean_gamma is None


def test_profile_deterministic_across_threads():
    spec = random_table(6, 2, 3)
    a = empirical_condenser_profile(spec, 1.0, 0.25, 0.5, trials=10, seed=9)
    b = empirical_condenser_profile(spec, 1.0, 0.25, 0.5, trials=10, seed=9, threads=4)
    assert a.to_json_dict() == b.to_json_dict()


def test_profile_rejects_fractional_side_size():
    with pytest.raises(RangeError):
        empirical_condenser_profile(PermutationSpec.pi1(2), 0.5, 0.1, 0.1, 1, 0)
