"""Discrete q-boxes over ({0,1}^n)^w and exact point-set intersections.

A q-box is a product of w sides, each a size-q subset of {0,1}^n. Sides
are stored sorted, so box identity, lexicographic enumeration order, and
the cursor (one combination rank per side) are all well defined. Point
sets are sorted tuples of packed integers; membership is a binary search.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import BudgetError, ShapeError
from .perms import PermutationSpec, pack_words, unpack_words

DEFAULT_ENUM_BUDGET = 10 ** 6
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
        n = self.n
        return [pack_words(t, n) for t in itertools.product(*self.sides)]

    def rank_tuple(self) -> tuple[int, ...]:
        """Per-side combination ranks (the enumeration cursor)."""
        return tuple(combination_rank(s, 1 << self.n) for s in self.sides)

    @classmethod
    def from_ranks(cls, ranks, n: int, q: int) -> "QBox":
        sides = tuple(combination_unrank(r, 1 << n, q) for r in ranks)
        return cls(sides, n)


class PointSet:
    """An immutable set of points, stored as sorted packed integers."""

    __slots__ = ("points", "n", "w", "_tuples")

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
        self._tuples = None

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

    def word_tuples(self) -> list[tuple[int, ...]]:
        """Unpacked word tuples, cached; same order as ``points``."""
        if self._tuples is None:
            self._tuples = [unpack_words(p, self.n, self.w) for p in self.points]
        return self._tuples


# --- combination ranking (lexicographic, matches itertools.combinations) --


def combination_rank(combo, universe: int) -> int:
    r = 0
    prev = -1
    k = len(combo)
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            r += comb(universe - v - 1, k - i - 1)
        prev = c
    return r


def combination_unrank(rank: int, universe: int, k: int) -> tuple[int, ...]:
    total = comb(universe, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({universe},{k})")
    out = []
    v = 0
    for i in range(k):
        while True:
            c = comb(universe - v - 1, k - i - 1)
            if rank < c:
                break
            rank -= c
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def box_count(n: int, q: int, w: int) -> int:
    """Number of q-boxes of dimension w over {0,1}^n."""
    return comb(1 << n, q) ** w


def _check_box_params(n: int, q: int, w: int):
    if w < 1 or q < 1:
        raise ShapeError(f"need w >= 1 and q >= 1, got w={w}, q={q}")
    if q > (1 << n):
        raise ShapeError(f"q={q} exceeds the alphabet size 2^{n}")


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


def enumerate_qboxes(n: int, q: int, w: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every q-box exactly once, in lexicographic order of sides."""
    _check_box_params(n, q, w)
    total = box_count(n, q, w)
    if total > budget:
        raise BudgetError(
            f"enumerating C(2^{n},{q})^{w} = {total} boxes exceeds the "
            f"budget of {budget}",
            refused=total,
        )
    yield from enumerate_qboxes_range(n, q, w, 0, total)


def box_at_rank(rank: int, n: int, q: int, w: int) -> QBox:
    """The box at a global lexicographic rank (mixed-radix over sides)."""
    return QBox.from_ranks(rank_to_digits(rank, comb(1 << n, q), w), n, q)


def global_rank(box: QBox) -> int:
    return digits_to_rank(box.rank_tuple(), comb(1 << box.n, box.q))


def enumerate_qboxes_range(n: int, q: int, w: int, start: int, stop: int):
    """Yield boxes with global ranks in [start, stop), lexicographically.

    The one enumeration loop: ``enumerate_qboxes`` and the exact search,
    which resumes from a checkpoint cursor, both run it. No total-count
    budget applies since the caller bounds the range.
    """
    _check_box_params(n, q, w)
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
    """The exact image point set of a box under a permutation spec."""
    if box.n != spec.n or box.w != spec.w:
        raise ShapeError(
            f"box shape (n={box.n}, w={box.w}) does not match spec "
            f"(n={spec.n}, w={spec.w})"
        )
    size = box.q ** box.w
    if size > budget:
        raise BudgetError(
            f"box holds {size} points, over the budget of {budget}",
            refused=size,
        )
    return PointSet((spec.apply_packed(p) for p in box.packed_points()), box.n, box.w)


def intersection_count(points: PointSet, box: QBox) -> int:
    """|points ∩ box|: points whose i-th word lies in side i for all i."""
    if box.n != points.n or box.w != points.w:
        raise ShapeError("point set and box shapes disagree")
    sides = [frozenset(s) for s in box.sides]
    count = 0
    for tup in points.word_tuples():
        for side, wd in zip(sides, tup):
            if wd not in side:
                break
        else:
            count += 1
    return count


def covering_box(points: PointSet, q: int) -> QBox:
    """A q-box containing the first min(q, |points|) points.

    Constructive witness that some box always catches at least q points
    of a q^w-point image: sides collect the chosen points' coordinates
    and are padded with the smallest unused values up to size q.
    """
    _check_box_params(points.n, q, points.w)
    if not points:
        raise ShapeError("cannot build a covering box for an empty set")
    chosen = points.word_tuples()[:q]
    sides = []
    for i in range(points.w):
        vals = {t[i] for t in chosen}
        pad = 0
        while len(vals) < q:
            if pad not in vals:
                vals.add(pad)
            pad += 1
        sides.append(tuple(sorted(vals)))
    return QBox(tuple(sides), points.n)


def greedy_box(points: PointSet, q: int) -> tuple[QBox, int]:
    """Greedy dense q-box for a point set: top-q most frequent values per
    coordinate (ties to the smaller value), then first-improvement
    1-swaps until no single side swap raises the count. Deterministic."""
    _check_box_params(points.n, q, points.w)
    n, w = points.n, points.w
    tuples = points.word_tuples()
    occurring = [sorted({t[i] for t in tuples}) for i in range(w)]
    sides = []
    for i in range(w):
        freq = Counter(t[i] for t in tuples)
        ranked = sorted(range(1 << n), key=lambda v: (-freq[v], v))
        sides.append(sorted(ranked[:q]))
    box = QBox(tuple(tuple(s) for s in sides), n)
    best = intersection_count(points, box)

    improved = True
    while improved:
        improved = False
        for i in range(w):
            side = set(box.sides[i])
            # only values that occur in the set can strictly improve
            for v_out in sorted(side):
                for v_in in occurring[i]:
                    if v_in in side:
                        continue
                    new_side = tuple(sorted(side - {v_out} | {v_in}))
                    cand = QBox(
                        box.sides[:i] + (new_side,) + box.sides[i + 1:], n
                    )
                    c = intersection_count(points, cand)
                    if c > best:
                        box, best = cand, c
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return box, best
