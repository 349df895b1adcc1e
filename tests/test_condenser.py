"""Slice cutting, coordinate min-entropy, and residual bound tests."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from condlab import condenser, conductance
from condlab.boxes import (PointSet, QBox, enumerate_qboxes, greedy_box, image_of_box,
                           intersection_count, random_box, slice_bound, slice_sizes)
from condlab.conductance import best_V_for_U
from condlab.condenser import (
    Decomposition,
    _scaled_below,
    coordinate_min_entropy,
    cut_exponent,
    decompose,
    empirical_condenser_profile,
    side_size,
    size_above,
    size_below,
    verify_converse_bounds,
)
from condlab.errors import BudgetError, RangeError, ShapeError
from condlab.perms import PermutationSpec, pack_words, random_table, unpack_words


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
            sizes = Counter(unpack_words(p, 2, 3)[i] for p in img.points)
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


def assert_matches_reference(ps, alpha_n, eps1, eps2):
    dec = decompose(ps, alpha_n, eps1, eps2)
    parts, r0, r1, log = reference_decompose(ps.points, ps.n, ps.w, alpha_n, eps1, eps2)
    assert [set(p.points) for p in dec.parts] == parts
    assert set(dec.r0.points) == r0
    assert set(dec.r1.points) == r1
    assert list(dec.slice_log) == log
    return dec


@pytest.mark.parametrize("eps", [(0.25, 0.25), (0.5, 0.25), (0.75, 0.5), (0.0, 1.0)])
def test_decompose_matches_reference_trace_on_random_sets(eps):
    # words drawn from a random prefix of the alphabet keep the sets dense
    # enough for cuts on one coordinate to thin the slices of the others
    eps1, eps2 = eps
    rng = random.Random(99)
    cuts = returns = 0
    for n, w, alpha_n in itertools.product(range(1, 5), range(1, 5), (0.5, 1.0, 1.5, 2.0, 3.0)):
        # the reference compares against a float power: keep the threshold
        # an exact power of two or clear of every integer slice size
        cut_e = alpha_n * (w - 1 - eps1 - eps2)
        assert cut_e == int(cut_e) or abs(2 ** cut_e - round(2 ** cut_e)) > 1e-6
        for _ in range(5):
            k = rng.randint(1, 1 << n)
            cube = [pack_words(t, n) for t in itertools.product(range(k), repeat=w)]
            ps = PointSet(rng.sample(cube, rng.randint(1, min(len(cube), 60))), n, w)
            log = assert_matches_reference(ps, alpha_n, eps1, eps2).slice_log
            cuts += len(log)
            returns += any(b[1] < a[1] for a, b in zip(log, log[1:]))
    # enough cuts, and enough traces that go back to a lower coordinate
    assert cuts > 600 and returns > 30


def _sweep_images(rng):
    """(label, image) pairs with w from 1 to 5: seeded random-table images at
    every w, pi1 and pi3 images at w=3 and piw images at w=3..5, each with a
    random subset of it."""
    shapes = [(random_table(1, 6, 1), 16), (random_table(2, 4, 2), 8),
              (PermutationSpec.pi1(3), 4), (PermutationSpec.pi3(3), 4),
              (PermutationSpec.piw(3, 3), 4), (random_table(3, 3, 3), 4),
              (PermutationSpec.piw(2, 4), 2), (random_table(4, 2, 4), 3),
              (PermutationSpec.piw(2, 5), 2), (random_table(5, 2, 5), 2)]
    for spec, q in shapes:
        for _ in range(3):
            image = image_of_box(spec, random_box(rng, spec.n, q, spec.w)[1])
            subset = rng.sample(image.points, rng.randint(1, len(image)))
            yield f"{spec.kind} w={spec.w}", image
            yield f"{spec.kind} w={spec.w} subset", PointSet(subset, spec.n, spec.w)


def test_decompose_matches_reference_on_seeded_images_and_subsets():
    cuts = Counter()
    for alpha_n, eps1, eps2 in ((1.0, 0.25, 0.25), (1.5, 0.25, 0.25), (2.0, 0.5, 0.25),
                                (2.0, 0.0, 0.0), (3.0, 0.125, 0.375), (1.0, 0.0, 1.0)):
        for label, ps in _sweep_images(random.Random(15)):
            # the reference compares against a float power: keep the threshold
            # an exact power of two or clear of every integer slice size
            cut_e = cut_exponent(alpha_n, ps.w, eps1, eps2)
            assert cut_e == int(cut_e) or abs(2 ** cut_e - round(2 ** cut_e)) > 1e-6, label
            cuts[ps.w] += len(assert_matches_reference(ps, alpha_n, eps1, eps2).slice_log)
    # at w=1 the threshold 2^(-alpha_n*(eps1+eps2)) is at most 1: nothing is cut
    assert cuts[1] == 0 and min(cuts[w] for w in range(2, 6)) > 100


def test_an_integer_threshold_cuts_one_below_it_and_keeps_one_at_it():
    # 2^(4*(2-1-0.125-0.125)) = 2^3 = 8: row 0 holds 7 points and is cut,
    # row 1 holds 8 and is not; every column holds 14 to 16
    words = [(0, c) for c in range(7)] + [(1, c) for c in range(8)]
    words += [(r, c) for r in range(2, 16) for c in range(16)]
    ps = packed_set(words, 4)
    assert cut_exponent(4.0, 2, 0.125, 0.125) == 3.0
    dec = assert_matches_reference(ps, 4.0, 0.125, 0.125)
    assert dec.slice_log == ((1, 0, 0, 7),)
    assert len(dec.r0) == len(ps) - 7


def test_decompose_matches_reference_on_a_512_point_pi1_image():
    spec = PermutationSpec.pi1(5)
    image = image_of_box(spec, random_box(random.Random(512), 5, 8, 3)[1])
    assert len(image) == 512
    dec = assert_matches_reference(image, 3.0, 0.25, 0.25)
    assert len(dec.slice_log) > 10


def test_bad_parameters_are_refused_before_any_slicing(monkeypatch):
    def no_slicing(*args):
        raise AssertionError("sliced before the parameters were checked")

    monkeypatch.setattr(condenser, "slices", no_slicing)
    ps = PointSet(range(8), 1, 3)
    for alpha_n, eps1, eps2 in ((math.nan, 0.25, 0.25), (400.0, 0.25, 0.25),
                                (-1.0, 0.25, 0.25), (1.0, -0.25, 0.25), (1.0, 0.25, -0.5)):
        with pytest.raises(RangeError):
            decompose(ps, alpha_n, eps1, eps2)


def test_decompose_groups_the_points_once_per_coordinate(monkeypatch):
    # however many cuts it makes, the cut loop slices its input w times
    calls = []
    real = condenser.slices

    def counted(points, *args):
        calls.append(len(points))
        return real(points, *args)
    monkeypatch.setattr(condenser, "slices", counted)
    most = 0
    for label, ps in _sweep_images(random.Random(15)):
        calls.clear()
        most = max(most, len(decompose(ps, 3.0, 0.125, 0.375).slice_log))
        assert calls == [len(ps)] * ps.w, label
    assert most > 20


def packed_set(words, n):
    return PointSet([pack_words(t, n) for t in words], n, len(words[0]))


def test_a_cut_can_qualify_a_smaller_value_of_a_queued_coordinate():
    # threshold 2^(2*(2-1-0.5)) = 2: only single-point slices qualify.
    # Cutting (0, 0) thins the coordinate-1 slice of value 0 to one point,
    # so it goes before the value 3 that qualified from the start.
    ps = packed_set([(0, 0), (1, 0), (1, 3)], 2)
    dec = assert_matches_reference(ps, 2.0, 0.25, 0.25)
    assert dec.slice_log == ((1, 0, 0, 1), (2, 1, 0, 1), (3, 0, 1, 1))


def test_a_cut_on_coordinate_1_sends_the_next_cut_back_to_coordinate_0():
    # no coordinate-0 slice qualifies at first; cutting (1, 0) thins the
    # coordinate-0 slice of value 0, which then goes before (1, 3)
    ps = packed_set([(0, 0), (0, 2), (1, 2), (1, 3)], 2)
    dec = assert_matches_reference(ps, 2.0, 0.25, 0.25)
    assert dec.slice_log == ((1, 1, 0, 1), (2, 0, 0, 1), (3, 1, 2, 1), (4, 0, 1, 1))


CUT_REACH_SCRIPT = """
import json, time
from condlab import PointSet, decompose

points = PointSet([(a << 16) | a for a in range(1 << 16)], 16, 2)
t0 = time.perf_counter()
dec = decompose(points, 4.0, 0.25, 0.25)
print(json.dumps({"seconds": time.perf_counter() - t0, "cuts": len(dec.slice_log),
                  "kept": [len(part) for part in dec.parts]}))
"""


def test_cut_loop_is_near_linear_when_every_slice_qualifies():
    # 2^16 single-point slices on each coordinate, threshold 2^2: every
    # cut takes coordinate 0's smallest value, 65,536 cuts in all. A loop
    # that rescans the qualifying values on each cut is quadratic here
    # (about 20 s); the heap loop takes well under a second.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", CUT_REACH_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["cuts"] == 1 << 16 and seen["kept"] == [1 << 16, 0]
    assert seen["seconds"] < 5


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


def test_a_certified_greedy_count_is_the_exact_maximum(monkeypatch):
    # on the images of seeded boxes, each check makes one inner search,
    # seeded with greedy's replayed count; where that count meets the root
    # bound the search certifies it at once, and the maximum is always the
    # unseeded search's
    calls = []
    real_inner = conductance._best_box_bnb

    def inner(*args, **kw):
        calls.append((kw.get("incumbent"), real_inner(*args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(conductance, "_best_box_bnb", inner)
    rng = random.Random(11)
    checks = certified = 0
    for spec in (PermutationSpec.pi1(3), PermutationSpec.pi2(3), PermutationSpec.pi3(3),
                 random_table(6, 3, 3), PermutationSpec.piw(2, 4)):
        for q in (2, 3, 4):
            for _ in range(3):
                image = image_of_box(spec, random_box(rng, spec.n, q, spec.w)[1])
                dec = decompose(image, math.log2(q), 0.25, 0.25)
                report = verify_converse_bounds(dec, 0.1)
                [(incumbent, (count, sides))] = calls
                greedy = intersection_count(image, greedy_box(image, q)[0])
                assert incumbent == greedy
                root = slice_bound([slice_sizes(image.points, spec.n, spec.w, j).values()
                                    for j in range(spec.w)], q)
                if greedy == root:
                    assert (count, sides) == (greedy, None)
                    certified += 1
                assert report.max_box_intersection == count == best_V_for_U(image, q)[1]
                calls.clear()
                checks += 1
    assert 0 < certified < checks


def test_the_converse_check_of_a_4096_point_image_ends(tmp_path):
    # the inner search alone ran past 300 s on this image; greedy's box
    # meets its root bound, which certifies the maximum
    out = tmp_path / "dec.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "condlab", "decompose", "--spec", "pi1", "--n", "6", "--q", "16",
         "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1", "--box-seed", "4",
         "--out", str(out)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    precondition = json.loads(out.read_text())["runs"][0]["bounds"]["precondition"]
    assert (precondition["checked"], precondition["max_box_intersection"]) == (True, 1178)


def test_verified_branch_arithmetic_with_synthetic_precondition(monkeypatch):
    # force the precondition to hold to exercise the conditional R0 bound:
    # the maximum comes from the (faked) inner search
    monkeypatch.setattr(conductance, "_best_box_bnb",
                        lambda points, n, w, q, **_: (1, ((0, 1, 2, 3),) * 3))
    ps = PointSet(random.Random(3).sample(range(512), 30), 3, 3)
    dec = decompose(ps, 2.0, 0.05, 0.05)
    report = verify_converse_bounds(dec, 0.05)
    by_name = {c.name: c for c in report.checks}
    assert report.max_box_intersection == 1
    assert report.precondition_held is True
    expected = len(dec.r0) <= 2.0 ** ((1 - 0.05) * 6.0)
    assert by_name["r0_size"].holds == expected


def test_refused_inner_search_leaves_the_precondition_unverified(monkeypatch):
    def refuse(points, n, w, q, incumbent=-1):
        budget = conductance.INNER_NODE_BUDGET
        raise BudgetError(f"inner search exceeded its node budget of {budget}",
                          refused=budget + 1)

    monkeypatch.setattr(conductance, "_best_box_bnb", refuse)
    # the 16 points (a, b, a^b)
    points = PointSet([(a << 4) | (b << 2) | (a ^ b) for a in range(4) for b in range(4)], 2, 3)
    dec = decompose(points, 1.0, 0.25, 0.25)
    report = verify_converse_bounds(dec, 0.1)
    by_name = {c.name: c for c in report.checks}
    assert report.precondition_checked is False
    assert report.precondition_held is None
    assert report.max_box_intersection is None
    assert by_name["r0_size"].holds is None
    assert by_name["r0_size"].note == (
        "unverified: intersection precondition not checked (inner search "
        f"exceeded its node budget of {conductance.INNER_NODE_BUDGET})"
    )
    assert by_name["r1_size"].holds is True


def test_empty_decomposition_is_not_checked():
    empty = PointSet((), 2, 3)
    dec = Decomposition(parts=(empty,) * 3, r0=empty, r1=empty, n=2, w=3,
                        alpha_n=1.0, eps1=0.25, eps2=0.25)
    report = verify_converse_bounds(dec, 0.1)
    by_name = {c.name: c for c in report.checks}
    assert report.precondition_checked is False
    assert report.precondition_held is None
    assert by_name["r0_size"].note == "unverified: intersection precondition not checked"
    assert by_name["r1_size"].holds is True


@pytest.mark.parametrize("eps3", [-0.1, math.nan])
def test_a_negative_or_nan_eps3_is_refused(eps3):
    # nan passes an "eps3 < 0" check and reaches the report as NaN
    dec = decompose(PointSet(range(8), 1, 3), 1.0, 0.25, 0.25)
    with pytest.raises(RangeError) as exc:
        verify_converse_bounds(dec, eps3)
    assert str(exc.value) == f"eps3 must be nonnegative, got {eps3}"


def test_side_larger_than_the_alphabet_leaves_the_precondition_unchecked():
    # q = 2^2 = 4 over a 1-bit alphabet: no q-box exists to maximize over
    dec = decompose(PointSet(range(8), 1, 3), 2.0, 0.25, 0.25)
    report = verify_converse_bounds(dec, 0.1)
    by_name = {c.name: c for c in report.checks}
    assert report.precondition_checked is False
    assert report.precondition_held is None
    assert report.max_box_intersection is None
    assert by_name["r0_size"].holds is None
    assert by_name["r0_size"].note == (
        "unverified: intersection precondition not checked "
        "(q=4 exceeds the alphabet size 2^1; no q-box exists)"
    )
    assert by_name["r1_size"].holds is True


def test_side_size_is_an_int_past_2_to_the_52_only_for_integer_exponents():
    # every float from 2^52 up is whole, so 2.0**52.5 carries no fraction
    for alpha_n in (52.5, 53.5):
        assert isinstance(side_size(alpha_n), float)
    assert side_size(60) == 1 << 60 and isinstance(side_size(60), int)
    assert side_size(60.0) == 1 << 60
    assert side_size(math.log2(3)) == 3  # an int to within 1e-9 below 2^52


def test_r1_bound_is_unconditional():
    rng = random.Random(21)
    for _ in range(50):
        ps = PointSet(rng.sample(range(64), rng.randrange(1, 65)), 2, 3)
        dec = decompose(ps, 1.0, 0.25, 0.5)
        report = verify_converse_bounds(dec, 0.2)
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


def test_decomposition_refuses_negative_parameters_and_an_unrepresentable_box_size():
    ps = PointSet(range(8), 1, 3)
    blob = decompose(ps, 1.0, 0.25, 0.25).to_json_dict()
    # 2^1000 is a float, but the R1 bound 3 * 2^(1000 * 2.75) is not, nor
    # is 3 * 2^(-500 * (3 - 10))
    box_size = "box size 2\\^\\(alpha_n\\*w\\) in the float range, got alpha_n="
    for alpha_n, eps1, eps2, message in (
            (2000.0, 0.25, 0.25, box_size + "2000.0, w=3"),
            (1000.0, 0.25, 0.25, box_size + "1000.0, w=3"),
            (-500.0, 0.25, 10.0, "alpha_n must be nonnegative"),
            (1.0, -0.25, 0.25, "eps1 and eps2 must be nonnegative, got -0.25, 0.25"),
            (1.0, 0.25, -0.5, "eps1 and eps2 must be nonnegative, got 0.25, -0.5"),
            (1.0, math.nan, 0.25, "eps1 and eps2 must be nonnegative")):
        with pytest.raises(RangeError, match=message):
            decompose(ps, alpha_n, eps1, eps2)
        bad = dict(blob, alpha_n=alpha_n, eps1=eps1, eps2=eps2)
        with pytest.raises(RangeError, match=message):
            Decomposition.from_json_dict(bad)
    # a box size near the top of the float range still validates
    decompose(ps, 341.1, 0.25, 0.25).validate()


def test_decomposition_json_rejects_negative_points():
    dec = decompose(PointSet([0b011011], 2, 3), 1.0, 0.25, 0.25)
    blob = dec.to_json_dict()
    blob["parts"]["R0"] = ["-1", "5"]
    with pytest.raises(ShapeError):
        Decomposition.from_json_dict(blob)


@pytest.mark.parametrize("text", [" 1f", "0x1f", "+1f", "1_f", 31])
def test_decomposition_json_reads_plain_hex_only(text):
    # int(text, 16) reads each string here as 31; a JSON number is no hex
    dec = decompose(PointSet([0b011011], 2, 3), 1.0, 0.25, 0.25)
    blob = dec.to_json_dict()
    blob["parts"]["R0"] = [text]
    with pytest.raises(ShapeError, match="is not a hex value"):
        Decomposition.from_json_dict(blob)
    blob = dec.to_json_dict()
    blob["slice_log"] = [[1, 0, text, 1]]
    with pytest.raises(ShapeError, match="is not a hex value"):
        Decomposition.from_json_dict(blob)


def test_scaled_below_is_exact_at_whole_shifts():
    for size, shift, limit in itertools.product(range(1, 41), range(-4, 5), range(1, 41)):
        want = Fraction(size) * Fraction(2) ** shift < limit
        assert _scaled_below(size, float(shift), limit) == want, (size, shift, limit)


# --- empirical profile ------------------------------------------------------------------


def test_identity_profile_fails_the_condenser_shape():
    profile = empirical_condenser_profile(
        PermutationSpec.identity(2, 3), 1.0, 0.25, 0.25, trials=6, seed=2
    )
    assert all(t.gamma == 1.0 for t in profile.trials)
    assert all(not t.coordinate_entropies for t in profile.trials)
    assert profile.worst_gamma == 1.0


def test_profile_matches_direct_recomputation():
    # at n=5, q=8 the kept parts hold many cuts each, so the fattest slice
    # the profile reads from the cut log is checked against a re-slicing
    cuts_per_part = []
    for n, q, trials, seed in ((2, 2, 8, 4), (5, 8, 5, 3)):
        spec = PermutationSpec.pi1(n)
        alpha_n = float(q.bit_length() - 1)
        profile = empirical_condenser_profile(spec, alpha_n, 0.25, 0.25, trials, seed)
        for trial in profile.trials:
            box = QBox.from_ranks(trial.box_ranks, n, q)
            dec = decompose(image_of_box(spec, box), alpha_n, 0.25, 0.25)
            assert trial.gamma == (len(dec.r0) + len(dec.r1)) / q ** 3
            for i, (part_size, fattest, bits, _met) in trial.coordinate_entropies.items():
                assert part_size == len(dec.parts[i])
                assert (fattest, bits) == coordinate_min_entropy(dec.parts[i], i)
                cuts_per_part.append(sum(c == i for _, c, _, _ in dec.slice_log))
    assert len(cuts_per_part) >= 3 and min(cuts_per_part) >= 8


def test_coordinate_min_entropy_refuses_an_empty_part_and_a_coordinate_past_w():
    part = PointSet([pack_words((1, 2, 3), 2)], 2, 3)
    assert coordinate_min_entropy(part, 2) == (1, 0.0)
    for bad, coord in ((PointSet([], 2, 3), 0), (part, 3), (part, -1)):
        with pytest.raises(ShapeError, match=f"coordinate {coord} .* w=3"):
            coordinate_min_entropy(bad, coord)


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


def test_profile_rejects_negative_trials():
    with pytest.raises(RangeError) as exc:
        empirical_condenser_profile(PermutationSpec.pi1(2), 1.0, 0.1, 0.1, -1, 0)
    assert str(exc.value) == "trials must be nonnegative, got -1"


def test_profile_rejects_a_side_size_past_the_float_range():
    with pytest.raises(RangeError, match="out of range"):
        empirical_condenser_profile(PermutationSpec.pi1(2), 2000.0, 0.1, 0.1, 1, 0)


def test_profile_rejects_a_side_larger_than_the_alphabet():
    with pytest.raises(ShapeError, match="exceeds the alphabet size 2\\^2"):
        empirical_condenser_profile(PermutationSpec.pi1(2), 3.0, 0.1, 0.1, 1, 0)
