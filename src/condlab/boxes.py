"""Discrete q-boxes over ({0,1}^n)^w and exact point-set intersections.

A q-box is a product of w sides, each a size-q subset of {0,1}^n. Sides
are stored sorted, so box identity, lexicographic enumeration order, and
the cursor (one combination rank per side) are all well defined. Point
sets are sorted tuples of packed integers; membership is a binary search.

Points stay packed everywhere outside ``perms``: :func:`word_field` is
the one place that knows where a word sits in them. Four loops read
words with it: :func:`slices`, which groups points by the value of one
coordinate, :func:`slice_sizes`, which only counts them, and the update
loops of :func:`greedy_box` and of ``condenser.decompose``, which read
the other words of the points a swap or a cut moves. :func:`xor_sides`
is the one place side values are put into them, at the same place. One
evaluation of a product of sides builds both a box's image and a
prefix's last-word columns (:func:`column_images`), cut from runs of its
outputs. Sides that must reach size q are filled by :func:`pad_side`,
the lexicographically smallest completion, the densest side of one
coordinate is :func:`fattest_side`, and :func:`slice_bound` is the one
top-q slice bound, over slice sizes, on what a q-box keeps of a point set.
Box counts meet a caller's budget here (:func:`check_box_count`), point
counts the fixed ``POINT_BUDGET`` (:func:`check_point_count`), and
:func:`random_box` is the one seeded draw.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from math import comb

from .errors import (PRINTABLE_DIGITS, BudgetError, NotAPermutationError, RangeError,
                     ShapeError, name_count)
from .perms import PermutationSpec

DEFAULT_BOX_BUDGET = 10 ** 6
POINT_BUDGET = 1 << 22


@dataclass(frozen=True)
class QBox:
    """A product set side_0 x ... x side_(w-1), all sides of equal size."""

    sides: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        if not self.sides:
            raise ShapeError("a box needs at least one side")
        q = len(self.sides[0])
        limit = 1 << self.n
        for side in self.sides:
            if len(side) != q or len(set(side)) != q or q < 1:
                raise ShapeError("sides must hold q distinct values each")
            if list(side) != sorted(side):
                raise ShapeError("sides must be sorted ascending")
            if side[-1] >= limit or side[0] < 0:
                raise ShapeError(f"side value out of range for n={self.n}")

    @property
    def w(self) -> int:
        return len(self.sides)

    @property
    def q(self) -> int:
        return len(self.sides[0])

    def packed_points(self) -> list[int]:
        """All q^w member points, packed, in ascending order."""
        return xor_sides([0], self.sides, self.n, range(self.w))

    @classmethod
    def from_ranks(cls, ranks, n: int, q: int) -> "QBox":
        sides = tuple(combination_unrank(r, 1 << n, q) for r in ranks)
        return cls(sides, n)


class PointSet:
    """An immutable set of points, stored as sorted packed integers."""

    __slots__ = ("points", "n", "w")

    def __init__(self, points, n: int, w: int):
        pts = sorted(points)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ShapeError(f"duplicate point {a:#x}")
        if pts and not (pts[0] >= 0 and pts[-1] < (1 << (n * w))):
            raise ShapeError("point out of range for the declared shape")
        self.points = tuple(pts)
        self.n = n
        self.w = w

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, packed: int) -> bool:
        i = bisect_left(self.points, packed)
        return i < len(self.points) and self.points[i] == packed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and (self.points, self.n, self.w) == (other.points, other.n, other.w)
        )

    def __hash__(self):
        return hash((self.points, self.n, self.w))

    def __repr__(self):
        return f"PointSet({len(self.points)} points, n={self.n}, w={self.w})"


def word_field(n: int, w: int, coord: int) -> tuple[int, int]:
    """(shift, mask) of word ``coord`` of a packed point p: the word is
    ``(p >> shift) & mask``, the first word the most significant."""
    return n * (w - 1 - coord), (1 << n) - 1


def xor_sides(points, sides, n: int, words) -> list[int]:
    """Each of ``points`` XOR-ed with every combination of values of the
    ``sides`` numbered ``words``, each value in its word's place of a
    len(sides)-word point; in product order, ``points`` the most
    significant, then the words in the order given. From ``[0]`` these are
    the packed combinations of those sides, with every other word 0. The
    sides may be of any sizes."""
    w = len(sides)
    for i in words:
        shift = word_field(n, w, i)[0]
        points = [p ^ (v << shift) for p in points for v in sides[i]]
    return points


def slices(points, n: int, w: int, coord: int, keys=None) -> dict[int, list]:
    """Word value -> the packed points whose word ``coord`` holds it, each
    list in input order: the axis-aligned slices of one coordinate. Given
    ``keys``, one per point, the lists hold the points' keys instead."""
    shift, mask = word_field(n, w, coord)
    out = {}
    if keys is None:
        for p in points:
            out.setdefault((p >> shift) & mask, []).append(p)
    else:
        for k, p in zip(keys, points):
            out.setdefault((p >> shift) & mask, []).append(k)
    return out


def slice_sizes(points, n: int, w: int, coord: int) -> dict[int, int]:
    """Word value -> how many of ``points`` hold it in word ``coord``: the
    sizes of the :func:`slices` lists, without building them."""
    shift, mask = word_field(n, w, coord)
    out = {}
    for p in points:
        v = (p >> shift) & mask
        out[v] = out.get(v, 0) + 1
    return out


def pad_side(values, q: int) -> tuple[int, ...]:
    """``values`` plus the smallest values not among them, up to q, sorted:
    the lexicographically smallest q-side that contains ``values``."""
    side = set(values)
    v = 0
    while len(side) < q:
        side.add(v)
        v += 1
    return tuple(sorted(side))


def fattest_side(by_value, q: int) -> tuple[int, ...]:
    """The q values with the largest slices in a :func:`slices` map, ties to
    the smaller value, padded by :func:`pad_side`: the lexicographically
    smallest q-side that keeps the most points of one coordinate."""
    ranked = sorted(by_value, key=lambda v: (-len(by_value[v]), v))
    return pad_side(ranked[:q], q)


def slice_bound(sizes, q: int, floor: int = 0) -> int:
    """The most points a q-box can keep of a point set whose slice sizes,
    one iterable per coordinate, are ``sizes`` (say, :func:`slice_sizes`
    values): a side keeps at most its coordinate's q largest slices, so
    the least, over the coordinates, of those q sizes summed. No
    coordinate keeps fewer than min(q, points), so ``sizes`` is read only
    until one does. A caller that only asks whether the bound beats
    ``floor`` may pass it: reading then also stops at a coordinate that
    keeps at most ``floor`` points, and such a result is at most
    ``floor`` but may not be the least."""
    bound = math.inf
    stop = max(q, floor)
    for s in sizes:
        top = sum(sorted(s)[-q:])
        if top < bound:
            bound = top
            if top <= stop:
                break
    return bound


# --- combination ranking (lexicographic, matches itertools.combinations) --


def combination_rank(combo, universe: int) -> int:
    r = 0
    prev = -1
    k = len(combo)
    for i, c in enumerate(combo):
        # hockey-stick identity: the combinations whose i-th value lies in
        # (prev, c) number C(universe-prev-1, k-i) - C(universe-c, k-i)
        r += comb(universe - prev - 1, k - i) - comb(universe - c, k - i)
        prev = c
    return r


def combination_unrank(rank: int, universe: int, k: int) -> tuple[int, ...]:
    """The combination of lexicographic ``rank`` among the k-subsets of
    range(universe). The values are walked upward, and the count of the
    remaining combinations whose next value is v, C(universe - v - 1,
    left - 1), is updated by exact integer ratios: at most ``universe``
    steps. Past universe = k^2 the values are sparse and each is found by
    a binary search over C(universe - u, left) instead."""
    total = comb(universe, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({universe},{k})")
    # dense draws keep this walk: the binary search alone took over 20 s at n=13, q=4096
    if universe > k * k:
        return _sparse_unrank(rank, universe, k)
    out = []
    v = 0
    count = total * k // universe if k else 0  # C(universe - 1, k - 1)
    for left in range(k, 0, -1):
        while rank >= count:
            rank -= count
            count = count * (universe - v - left) // (universe - v - 1)
            v += 1
        out.append(v)
        if left > 1:
            count = count * (left - 1) // (universe - v - 1)
        v += 1
    return tuple(out)


def _sparse_unrank(rank: int, universe: int, k: int) -> tuple[int, ...]:
    out = []
    v = 0
    for left in range(k, 0, -1):
        # C(universe - u, left) of the remaining combinations take their next
        # value at u or later; binary-search the largest u whose tail holds rank
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


def box_count(n: int, q: int, w: int) -> int:
    """Number of q-boxes of dimension w over {0,1}^n."""
    return comb(1 << n, q) ** w


def _check_box_params(n: int, q: int, w: int):
    if w < 1 or q < 1:
        raise ShapeError(f"need w >= 1 and q >= 1, got w={w}, q={q}")
    if q > (1 << n):
        raise ShapeError(f"q={q} exceeds the alphabet size 2^{n}")


def _log10_count_bound(n: int, q: int, w: int) -> float:
    """log10 of (2^n/q)^(qw), a lower bound on log10 C(2^n, q)^w that
    costs nothing to compute."""
    return q * w * math.log10((1 << n) / q)


def check_box_count(n: int, q: int, w: int, budget: int, task: str = "enumeration",
                    unit: str = "boxes") -> int:
    """C(2^n, q)^w, or a BudgetError when it is over ``budget`` that names
    the one parameter whose reduction would fit. When the bound
    C(2^n, q) >= (2^n/q)^q already puts the count past the budget and the
    digits an int prints, the count is not computed."""
    log10 = _log10_count_bound(n, q, w)
    total = None
    if log10 <= PRINTABLE_DIGITS or log10 <= math.log10(max(budget, 1)):
        total = box_count(n, q, w)
        if total <= budget:
            return total
    msg = (f"{task} needs C(2^{n},{q})^{w} {name_count(total, log10)} {unit}, "
           f"over the budget of {budget}")
    if total is not None:
        for name, nn, qq, ww in (("q", n, q - 1, w), ("w", n, q, w - 1),
                                 ("n", n - 1, min(q, 1 << (n - 1)), w)):
            if qq >= 1 and ww >= 1 and nn >= 1 and box_count(nn, qq, ww) <= budget:
                msg += f"; reducing {name} would fit"
                break
    raise BudgetError(msg, refused=total)


def check_point_count(q: int, w: int) -> None:
    """A BudgetError when the q^w points of one q-box are over budget."""
    size = q ** w
    if size > POINT_BUDGET:
        raise BudgetError(f"box holds {name_count(size).removeprefix('= ')} points, "
                          f"over the budget of {POINT_BUDGET}", refused=size)


def random_box(rng, n: int, q: int, w: int) -> tuple[tuple[int, ...], QBox]:
    """A seeded q-box and its per-side combination ranks, each drawn by
    ``rng.randrange(C(2^n, q))``. The box's points are held to the point
    budget first, and then C(2^n, q) to the digits Python prints:
    by its lower bound (2^n/q)^q before it is computed, so a refused shape
    never computes q^w points, nor a C(2^n, q) whose bound is past them."""
    check_point_count(q, w)
    log10 = _log10_count_bound(n, q, 1)
    radix = comb(1 << n, q) if log10 <= PRINTABLE_DIGITS else None
    if radix is None or radix >= 10 ** PRINTABLE_DIGITS:
        raise BudgetError(f"a seeded draw needs C(2^{n},{q}) {name_count(radix, log10)} "
                          f"ranks per side, past the {PRINTABLE_DIGITS} digits a count "
                          "may print", refused=radix)
    ranks = tuple(rng.randrange(radix) for _ in range(w))
    return ranks, QBox.from_ranks(ranks, n, q)


def rank_to_digits(rank: int, radix: int, w: int) -> tuple[int, ...]:
    """Mixed-radix digits of a global box rank, most significant first:
    one combination rank per side. The leading digit keeps any overflow,
    so an exhausted cursor (rank == radix**w) survives the round trip."""
    digits = []
    for _ in range(w - 1):
        rank, d = divmod(rank, radix)
        digits.append(d)
    digits.append(rank)
    return tuple(reversed(digits))


def digits_to_rank(digits, radix: int) -> int:
    """Inverse of :func:`rank_to_digits`."""
    rank = 0
    for d in digits:
        rank = rank * radix + d
    return rank


def enumerate_qboxes(n: int, q: int, w: int):
    """Yield every q-box exactly once, in lexicographic order of sides."""
    _check_box_params(n, q, w)
    total = check_box_count(n, q, w, DEFAULT_BOX_BUDGET)
    sides = list(itertools.combinations(range(1 << n), q))
    for box in enumerate_qboxes_range(sides, w, 0, total):
        yield QBox(box, n)


def enumerate_qboxes_range(sides, w: int, start: int, stop: int):
    """The side tuples of the w-side boxes over ``sides`` whose global
    ranks lie in [start, stop), lexicographically (w = 0 gives one empty
    tuple). The global rank is mixed-radix in len(sides), the last side
    least significant.

    The one box walk: ``enumerate_qboxes`` and the exact search, which
    walks the prefixes of w-1 sides from a checkpoint cursor, both run it.
    No total-count budget applies since the caller bounds the range.
    """
    if start < 0:
        raise RangeError(f"box rank {start} is negative")
    return itertools.islice(itertools.product(sides, repeat=w), start, stop)


def image_of_box(spec: PermutationSpec, box: QBox) -> PointSet:
    """The exact image point set of a box under a permutation spec.

    The spec is evaluated once per combination of its ``read_words``
    sides, with its ``free_words`` 0 (the spec stores both); since it
    carries the free words additively, XOR-ing each result with every
    combination of the free sides gives the rest (a kind with no free
    words is evaluated at every point and XOR-ed with nothing). Raises
    NotAPermutationError, with the two box inputs as ``witness``, when
    the spec maps two points of the box to one output: the first repeat
    in ascending input order."""
    if box.n != spec.n or box.w != spec.w:
        raise ShapeError(
            f"box shape (n={box.n}, w={box.w}) does not match spec "
            f"(n={spec.n}, w={spec.w})"
        )
    check_point_count(box.q, box.w)
    try:
        return PointSet(_image_points(spec, box.sides), box.n, box.w)
    except ShapeError:
        inputs = box.packed_points()
        owner = {}
        for x, y in zip(inputs, map(spec.apply_packed, inputs)):
            if y in owner:
                raise NotAPermutationError(
                    f"box inputs {owner[y]:#x} and {x:#x} both map to {y:#x}; "
                    "the box searches need a bijection",
                    witness=(owner[y], x),
                ) from None
            owner[y] = x
        raise


def _image_points(spec: PermutationSpec, sides, evaluate=None) -> list[int]:
    """The outputs of the spec on the product of ``sides`` (of any sizes),
    unsorted: evaluated once per combination of the ``read_words`` sides,
    by ``evaluate`` (default ``apply_packed``), and XOR-ed with every
    combination of the ``free_words`` sides. A read last word comes first
    in the product, so the outputs of each of its values form one run; a
    free last word leaves the plain product order."""
    read = spec.read_words
    if spec.w - 1 in read:  # it is read[-1]
        read = read[-1:] + read[:-1]
    bases = xor_sides([0], sides, spec.n, read)
    outputs = list(map(evaluate or spec.apply_packed, bases))
    return xor_sides(outputs, sides, spec.n, spec.free_words)


def column_images(spec: PermutationSpec, prefix, evaluate=None) -> list[list[int]]:
    """For every value t of the last word, the outputs of the spec on
    ``prefix`` x {t}, unsorted: the columns whose unions over t in a side
    are the images of the boxes that extend the w-1 sides ``prefix``.
    They are cut from one :func:`_image_points` call over ``prefix`` x
    {0,1}^n, whose ``evaluate`` the exact scan passes as a lookup. A free
    last word gives column 0 alone: column t is its translate by t in that
    word."""
    if spec.w - 1 in spec.free_words:
        return [_image_points(spec, prefix + ((0,),), evaluate)]
    outputs = _image_points(spec, prefix + (range(1 << spec.n),), evaluate)
    size = len(outputs) >> spec.n
    return [outputs[i:i + size] for i in range(0, len(outputs), size)]


def intersection_count(points: PointSet, box: QBox) -> int:
    """|points ∩ box|: points whose i-th word lies in side i for all i."""
    n, w = points.n, points.w
    if box.n != n or box.w != w:
        raise ShapeError("point set and box shapes disagree")
    pts = points.points
    for i, side in enumerate(box.sides):
        by_value = slices(pts, n, w, i)
        pts = [p for v in side for p in by_value.get(v, ())]
    return len(pts)


def greedy_box(points: PointSet, q: int) -> tuple[QBox, int]:
    """Greedy dense q-box for a point set: each coordinate's
    :func:`fattest_side`, then first-improvement 1-swaps until no single
    side swap raises the count. Deterministic. A swap on side i changes
    the count by the difference of two slice sizes among the points inside
    every other side, so one pass over side i's slices prices all of its
    swaps.

    Each coordinate's slices are grouped once, by point position. The
    loop keeps, per point, how many sides miss it, and, per slice, how
    many of its points every other side holds. A swap re-counts only the
    points of its two slices, at w-1 words each, so a pass costs
    O(V) for V values per coordinate, a swap O(w * (points it moves)),
    and the count is the points no side misses."""
    _check_box_params(points.n, q, points.w)
    n, w, pts = points.n, points.w, points.points
    # one int object per position, shared by the w groupings
    positions = list(range(len(pts)))
    groups = [slices(pts, n, w, i, positions) for i in range(w)]
    fields = [word_field(n, w, i) for i in range(w)]
    sides = [fattest_side(g, q) for g in groups]
    chosen = [set(side) for side in sides]
    # misses fit a byte below w = 256
    miss = bytearray(len(pts)) if w < 256 else [0] * len(pts)
    for g, inside in zip(groups, chosen):
        for v, ks in g.items():
            if v not in inside:
                for k in ks:
                    miss[k] += 1
    # held[i][v]: the points of slice v of coordinate i that every other
    # side holds, whose misses are side i's alone: one if v is outside it
    held = [{v: [miss[k] for k in ks].count(v not in inside) for v, ks in g.items()}
            for g, inside in zip(groups, chosen)]
    values = [sorted(g) for g in groups]

    i = 0
    while i < w:
        count, inside = held[i], chosen[i]
        outside = [v for v in values[i] if v not in inside]
        top = max(map(count.__getitem__, outside), default=0)
        v_out = next((v for v in sides[i] if count.get(v, 0) < top), None)
        if v_out is None:
            i += 1
            continue
        floor = count.get(v_out, 0)
        v_in = next(v for v in outside if count[v] > floor)
        inside.remove(v_out)
        inside.add(v_in)
        sides[i] = tuple(sorted(inside))
        others = [(held[j], chosen[j], *fields[j]) for j in range(w) if j != i]
        for v, step in ((v_out, 1), (v_in, -1)):
            for k in groups[i].get(v, ()):
                before = miss[k]
                miss[k] = after = before + step
                if before > 1 and after > 1:
                    continue  # two sides miss it throughout: no count holds it
                p = pts[k]
                for count_j, inside_j, shift, mask in others:
                    u = (p >> shift) & mask
                    out = u not in inside_j
                    count_j[u] += (after == out) - (before == out)
        i = 0  # a swap re-prices every side, from the first
    return QBox(tuple(sides), n), miss.count(0)
