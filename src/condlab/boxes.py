"""Discrete q-boxes over ({0,1}^n)^w and exact point-set intersections.

A q-box is a product of w sides, each a size-q subset of {0,1}^n. Sides
are stored sorted, so box identity, lexicographic enumeration order, and
the cursor (one combination rank per side) are all well defined. Point
sets are sorted tuples of packed integers; membership is a binary search.

Points stay packed everywhere outside ``perms``: :func:`slices` is the
one place a word is read out of them, grouping points by the value of
one coordinate, and :func:`xor_sides` the one place side values are
put into them, which builds both a box's points and its image. Sides
that must reach size q are filled by :func:`pad_side`, the
lexicographically smallest completion, and the densest side of one
coordinate is :func:`fattest_side`.
Box and point counts meet their budgets here (:func:`check_box_count`,
:func:`check_point_count`), and :func:`random_box` is the one seeded draw.
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
DEFAULT_POINT_BUDGET = 1 << 22


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
        return xor_sides([0], self, range(self.w))

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


def xor_sides(points, box: QBox, words) -> list[int]:
    """Each of ``points`` XOR-ed with every combination of values of the
    box's sides ``words`` (ascending), each value in its word's place; in
    product order, ``points`` the most significant. From ``[0]`` these are
    the packed combinations of those sides, with every other word 0."""
    n, w = box.n, box.w
    for i in words:
        shift = n * (w - 1 - i)
        points = [p ^ (v << shift) for p in points for v in box.sides[i]]
    return points


def slices(points, n: int, w: int, coord: int) -> dict[int, list[int]]:
    """Word value -> the packed points whose word ``coord`` holds it, each
    list in input order: the axis-aligned slices of one coordinate."""
    shift = n * (w - 1 - coord)
    mask = (1 << n) - 1
    out = {}
    for p in points:
        out.setdefault((p >> shift) & mask, []).append(p)
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
    total = comb(universe, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({universe},{k})")
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


def check_point_count(q: int, w: int, budget: int = DEFAULT_POINT_BUDGET) -> None:
    """A BudgetError when the q^w points of one q-box are over ``budget``."""
    size = q ** w
    if size > budget:
        raise BudgetError(f"box holds {name_count(size).removeprefix('= ')} points, "
                          f"over the budget of {budget}", refused=size)


def random_box(rng, n: int, q: int, w: int) -> tuple[tuple[int, ...], QBox]:
    """A seeded q-box and its per-side combination ranks, each drawn by
    ``rng.randrange(C(2^n, q))``. The box's points are held to the default
    point budget first, and then C(2^n, q) to the digits Python prints:
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


def enumerate_qboxes(n: int, q: int, w: int, budget: int = DEFAULT_BOX_BUDGET):
    """Yield every q-box exactly once, in lexicographic order of sides."""
    _check_box_params(n, q, w)
    yield from enumerate_qboxes_range(n, q, w, 0, check_box_count(n, q, w, budget))


def enumerate_qboxes_range(n: int, q: int, w: int, start: int, stop: int):
    """Yield boxes with global ranks in [start, stop), lexicographically.

    The one enumeration loop: ``enumerate_qboxes`` and the exact search,
    which resumes from a checkpoint cursor, both run it. No total-count
    budget applies since the caller bounds the range.
    """
    _check_box_params(n, q, w)
    if start < 0:
        raise RangeError(f"box rank {start} is negative")
    sides = list(itertools.combinations(range(1 << n), q))
    radix = len(sides)
    stop = min(stop, radix ** w)
    if start >= stop:
        return
    # odometer over per-side indices, seeded by the digits of `start`
    idx = list(rank_to_digits(start, radix, w))
    for _ in range(stop - start):
        yield QBox(tuple(sides[i] for i in idx), n)
        for pos in range(w - 1, -1, -1):
            idx[pos] += 1
            if idx[pos] < radix:
                break
            idx[pos] = 0


def image_of_box(spec: PermutationSpec, box: QBox, budget: int = DEFAULT_POINT_BUDGET) -> PointSet:
    """The exact image point set of a box under a permutation spec.

    The spec is evaluated once per combination of the sides outside its
    ``free_words``, with those words 0; since it carries the free words
    additively, XOR-ing each result with every combination of the free
    sides gives the rest (a kind with no free words is evaluated at every
    point and XOR-ed with nothing). Raises NotAPermutationError, with the
    two box inputs as ``witness``, when the spec maps two points of the
    box to one output: the first repeat in ascending input order."""
    if box.n != spec.n or box.w != spec.w:
        raise ShapeError(
            f"box shape (n={box.n}, w={box.w}) does not match spec "
            f"(n={spec.n}, w={spec.w})"
        )
    check_point_count(box.q, box.w, budget)
    free = spec.free_words
    bases = xor_sides([0], box, [i for i in range(box.w) if i not in free])
    outputs = xor_sides(list(map(spec.apply_packed, bases)), box, free)
    try:
        return PointSet(outputs, box.n, box.w)
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


def covering_box(points: PointSet, q: int) -> QBox:
    """A q-box containing the first min(q, |points|) points.

    Constructive witness that some box always catches at least q points
    of a q^w-point image: sides collect the chosen points' coordinates
    and are padded with the smallest unused values up to size q.
    """
    _check_box_params(points.n, q, points.w)
    if not points:
        raise ShapeError("cannot build a covering box for an empty set")
    n, w = points.n, points.w
    chosen = points.points[:q]
    return QBox(tuple(pad_side(slices(chosen, n, w, i), q) for i in range(w)), n)


def greedy_box(points: PointSet, q: int) -> tuple[QBox, int]:
    """Greedy dense q-box for a point set: each coordinate's
    :func:`fattest_side`, then first-improvement 1-swaps until no single
    side swap raises the count. Deterministic. A swap on side i changes
    the count by the difference of two slice sizes among the points inside
    every other side, so one pass per side prices all of its swaps."""
    _check_box_params(points.n, q, points.w)
    n, w = points.n, points.w
    sides = [fattest_side(slices(points.points, n, w, i), q) for i in range(w)]

    while True:
        for i, side in enumerate(sides):
            inside = points.points
            for j in range(w):
                if j != i:
                    by_value = slices(inside, n, w, j)
                    inside = [p for v in sides[j] for p in by_value.get(v, ())]
            sizes = {v: len(ps) for v, ps in sorted(slices(inside, n, w, i).items())}
            swap = next(((v_out, v_in) for v_out in side for v_in in sizes
                         if v_in not in side and sizes[v_in] > sizes.get(v_out, 0)), None)
            if swap:
                sides[i] = tuple(sorted(set(side) - {swap[0]} | {swap[1]}))
                break
        else:
            break  # no side has an improving swap
    box = QBox(tuple(sides), n)
    return box, intersection_count(points, box)
