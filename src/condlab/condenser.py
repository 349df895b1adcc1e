"""Thin-slice partitioning of permutation images and its min-entropy checks.

The partitioning procedure takes a point set S inside ({0,1}^n)^w and
repeatedly cuts out *bottleneck slices*: nonempty axis-aligned slices
(fix coordinate i to a value y) whose size is strictly below
2^(alpha_n*(w-1-eps1-eps2)). Cut slices for coordinate i accumulate in a
pile; when no slice qualifies any more, the remainder is R0 and each pile
either becomes the part C_i (when it holds more than 2^(alpha_n*(w-eps2))
points) or is swept into R1. By construction every i-slice of a kept C_i
is thinner than 2^(-(1+eps1)*alpha_n) * |C_i|, which is exactly a
per-coordinate min-entropy boost of the uniform distribution on C_i, and
|R1| never exceeds w * 2^((w-eps2)*alpha_n).

The residual bound |R0| <= 2^((1-eps3)*alpha_n*w) is conditional: it
needs every q-box V to satisfy |S ∩ V| < 2^(alpha_n*w*(1-eps1-eps2-eps3-
1/alpha_n)). ``verify_converse_bounds`` checks that precondition on the
exact maximum, which the exact inner search finds from a greedy box's
count, and otherwise marks the bound unverified.

The scan order of slices is pinned (coordinate ascending, then value
ascending) so reference traces are reproducible. Size-versus-threshold comparisons
go through :func:`size_below` / :func:`size_above`, which are exact
whenever the integer size is a power of two or the exponent is clear of
the unit interval around log2(size).
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import conductance
from .boxes import (PointSet, _check_box_params, greedy_box, image_of_box, intersection_count,
                    random_box, slice_sizes, slices, word_field)
from .errors import BudgetError, RangeError, ShapeError
from .perms import PermutationSpec, parse_hex


# --- exact integer-versus-2^exponent comparisons ---------------------------


def size_below(size: int, exponent: float) -> bool:
    """Exact-where-possible test of ``size < 2**exponent`` for size >= 1."""
    j = size.bit_length() - 1
    if size == 1 << j:
        return j < exponent
    if exponent <= j:
        return False
    if exponent >= j + 1:
        return True
    return math.log2(size) < exponent


def size_above(size: int, exponent: float) -> bool:
    """Exact-where-possible test of ``size > 2**exponent`` for size >= 1."""
    j = size.bit_length() - 1
    if size == 1 << j:
        return j > exponent
    if exponent <= j:
        return True
    if exponent >= j + 1:
        return False
    return math.log2(size) > exponent


def _scaled_below(size: int, shift: float, limit: int) -> bool:
    """Exact-where-possible test of ``size * 2**shift < limit``."""
    if shift == int(shift):
        s = int(shift)
        lhs = size << s if s >= 0 else size
        rhs = limit if s >= 0 else limit << -s
        return lhs < rhs
    return math.log2(size) + shift < math.log2(limit)


# --- slices and the partitioning procedure ----------------------------------


def side_size(alpha_n: float) -> int | float:
    """The side size 2^alpha_n: an int when it is one to within 1e-9, else
    a float, infinite past the float range (and for nan). Every float from
    2^52 up is whole, so there only an integer alpha_n gives an int."""
    size = 2.0 ** alpha_n if alpha_n < 1024 else math.inf
    if math.isinf(size) or abs(size - round(size)) > 1e-9 or size >= 2 ** 52 and alpha_n % 1:
        return size
    return round(size)


def cut_exponent(alpha_n: float, w: int, eps1: float, eps2: float) -> float:
    """Exponent of the bottleneck threshold 2^(alpha_n*(w-1-eps1-eps2))."""
    return alpha_n * (w - 1 - eps1 - eps2)


def keep_exponent(alpha_n: float, w: int, eps2: float) -> float:
    """Exponent of the pile-keeping threshold 2^(alpha_n*(w-eps2))."""
    return alpha_n * (w - eps2)


def _check_parameters(alpha_n: float, w: int, eps1: float, eps2: float) -> None:
    """RangeError unless eps1, eps2 and alpha_n are nonnegative (not nan) and
    the box size 2^(alpha_n*w) lies in the float range."""
    if not (eps1 >= 0 and eps2 >= 0):
        raise RangeError(f"eps1 and eps2 must be nonnegative, got {eps1}, {eps2}")
    if not alpha_n >= 0 or math.isinf(side_size(alpha_n * w)):
        raise RangeError(f"alpha_n must be nonnegative with a box size 2^(alpha_n*w) in "
                         f"the float range, got alpha_n={alpha_n}, w={w}")


@dataclass(frozen=True)
class Decomposition:
    """Partition of a point set into per-coordinate parts and residuals.

    ``parts[i]`` collects the slices cut for coordinate i when their pile
    ended up large enough; otherwise the pile went to ``r1``. ``r0`` is
    what remained when no bottleneck slice was left. ``slice_log`` records
    every cut as (iteration, coordinate, value, size), 1-based iterations.

    Construction refuses a negative (or nan) alpha_n, eps1 or eps2, and an
    alpha_n whose box size q^w = 2^(alpha_n*w) lies past the float range:
    the bound checks could not evaluate their thresholds.
    """

    parts: tuple
    r0: PointSet
    r1: PointSet
    n: int
    w: int
    alpha_n: float
    eps1: float
    eps2: float
    slice_log: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_parameters(self.alpha_n, self.w, self.eps1, self.eps2)

    @property
    def q(self) -> int | float:
        return side_size(self.alpha_n)

    def source_points(self) -> PointSet:
        merged = []
        for part in (*self.parts, self.r0, self.r1):
            merged.extend(part.points)
        return PointSet(merged, self.n, self.w)

    def validate(self) -> None:
        """Raise AssertionError on any violated structural invariant. The
        checks raise explicitly, so they also run under python -O."""
        seen = set()
        for part in (*self.parts, self.r0, self.r1):
            overlap = seen & set(part.points)
            if overlap:
                raise AssertionError(f"parts overlap on {sorted(overlap)[:3]}")
            seen.update(part.points)
        keep_e = keep_exponent(self.alpha_n, self.w, self.eps2)
        for i, part in enumerate(self.parts):
            if not len(part):
                continue
            if not size_above(len(part), keep_e):
                raise AssertionError(f"kept part {i} has only {len(part)} points")
            cut_e = cut_exponent(self.alpha_n, self.w, self.eps1, self.eps2)
            shift = (1 + self.eps1) * self.alpha_n
            for count in slice_sizes(part.points, self.n, self.w, i).values():
                if not size_below(count, cut_e):
                    raise AssertionError("slice at/over cut threshold")
                if not _scaled_below(count, shift, len(part)):
                    raise AssertionError("slice too fat relative to its part")
        r1_limit = self.w * 2.0 ** keep_e
        if len(self.r1) > r1_limit:
            raise AssertionError(f"|R1| = {len(self.r1)} over bound")
        if len(self.slice_log) > len(seen):
            raise AssertionError("more cuts than points")

    def to_json_dict(self) -> dict:
        digits = -(-self.n * self.w // 4)

        def hex_points(ps):
            return [f"{p:0{digits}x}" for p in ps.points]

        return {
            "format": "condlab-decomposition v1",
            "n": self.n,
            "w": self.w,
            "alpha_n": self.alpha_n,
            "q": self.q,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "thresholds": {
                "cut_exponent": cut_exponent(self.alpha_n, self.w, self.eps1, self.eps2),
                "keep_exponent": keep_exponent(self.alpha_n, self.w, self.eps2),
            },
            "parts": {
                "C": [hex_points(p) for p in self.parts],
                "R0": hex_points(self.r0),
                "R1": hex_points(self.r1),
            },
            "slice_log": [
                [it, coord, f"{value:x}", size]
                for it, coord, value, size in self.slice_log
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Decomposition":
        """A ShapeError for a point or slice-log value that is not plain hex
        (see ``perms.parse_hex``) or a point outside the shape."""
        n, w = d["n"], d["w"]

        def hex_value(text):
            try:
                return parse_hex(text)
            except (AttributeError, ValueError):  # AttributeError: not a str
                raise ShapeError(f"{text!r} is not a hex value") from None

        def ps(items):
            return PointSet(map(hex_value, items), n, w)

        return cls(
            parts=tuple(ps(part) for part in d["parts"]["C"]),
            r0=ps(d["parts"]["R0"]),
            r1=ps(d["parts"]["R1"]),
            n=n,
            w=w,
            alpha_n=d["alpha_n"],
            eps1=d["eps1"],
            eps2=d["eps2"],
            slice_log=tuple(
                (it, coord, hex_value(value), size)
                for it, coord, value, size in d["slice_log"]
            ),
        )


def decompose(points: PointSet, alpha_n: float, eps1: float, eps2: float) -> Decomposition:
    """Run the slice-cutting procedure on a point set.

    Iteratively removes the first qualifying bottleneck slice (coordinate
    ascending, value ascending) into the per-coordinate pile, then keeps
    each pile as a part only when it clears the keeping threshold; small
    piles are swept into R1 and the uncut remainder is R0. Terminates in
    at most |points| cuts since every cut removes at least one point.
    Bad alpha_n, eps1 or eps2 are refused before any slicing.

    :func:`size_below` is monotone in the size, so the threshold is one
    integer ``limit``, the smallest size not below 2^cut_exponent, found
    by bisection: a slice qualifies when 0 < size < limit. The slices of
    each coordinate are grouped once; the loop keeps one integer size per
    slice and one set of uncut points. A cut takes the uncut members of
    its slice (still ascending), zeroes that slice's size and, for each
    cut point, decrements in place the size of its slice in every other
    coordinate: a cut of c points costs O(c*w), and no cut is grouped
    again. Slices only shrink, so a slice stays below the threshold from
    the cut that first brings it there until it empties. Each coordinate
    keeps a min-heap of its qualifying values, fed when a size reaches
    ``limit - 1`` (above 0); emptied values are dropped when they surface.
    With N points and V values per coordinate the loop costs
    O(N*w + cuts*log V) and holds the N points once in slices and once in
    the uncut set.
    """
    if len(points) == 0:
        raise ShapeError("cannot decompose an empty point set")
    n, w = points.n, points.w
    _check_parameters(alpha_n, w, eps1, eps2)
    cut_e = cut_exponent(alpha_n, w, eps1, eps2)
    keep_e = keep_exponent(alpha_n, w, eps2)
    limit = 1 + bisect_left(range(1, len(points) + 1), True,
                            key=lambda size: not size_below(size, cut_e))

    groups = [slices(points.points, n, w, i) for i in range(w)]
    fields = [word_field(n, w, i) for i in range(w)]
    sizes = [{y: len(ps) for y, ps in g.items()} for g in groups]
    # an ascending list is already a heap
    ready = [sorted(y for y, size in counts.items() if size < limit) for counts in sizes]
    uncut = set(points.points)
    # the size at which a slice starts to qualify; none does at limit 1
    crossing = limit - 1 or -1

    piles = [[] for _ in range(w)]
    log = []
    while True:
        for i in range(w):
            heap, size_i = ready[i], sizes[i]
            while heap and not size_i[heap[0]]:
                heapq.heappop(heap)
            if heap:
                break
        else:
            break
        y = heapq.heappop(heap)
        cut = [p for p in groups[i][y] if p in uncut]
        uncut.difference_update(cut)
        size_i[y] = 0
        log.append((len(log) + 1, i, y, len(cut)))
        piles[i].extend(cut)
        for j, (shift, mask) in enumerate(fields):
            if j == i:
                continue
            size_j, heap_j = sizes[j], ready[j]
            for p in cut:
                v = (p >> shift) & mask
                size_j[v] = after = size_j[v] - 1
                if after == crossing:
                    heapq.heappush(heap_j, v)

    r1 = []
    parts = []
    for i in range(w):
        if piles[i] and size_above(len(piles[i]), keep_e):
            parts.append(PointSet(piles[i], n, w))
        else:
            r1.extend(piles[i])
            parts.append(PointSet((), n, w))

    return Decomposition(
        parts=tuple(parts),
        r0=PointSet(uncut, n, w),
        r1=PointSet(r1, n, w),
        n=n,
        w=w,
        alpha_n=alpha_n,
        eps1=eps1,
        eps2=eps2,
        slice_log=tuple(log),
    )


# --- conditional residual bounds ---------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool | None  # None = unverified
    note: str = ""


@dataclass(frozen=True)
class ConverseReport:
    """Residual-size checks for one decomposition.

    The R1 bound is unconditional. The R0 bound only follows when every
    q-box V intersects the source set in strictly fewer than
    2^(alpha_n*w*(1-eps1-eps2-eps3-1/alpha_n)) points; when that
    precondition fails or cannot be checked, the R0 line reports
    ``holds=None`` (unverified), never a failure.
    """

    checks: tuple
    eps3: float
    precondition_checked: bool
    precondition_held: bool | None
    max_box_intersection: int | None
    precondition_exponent: float

    def to_json_dict(self) -> dict:
        return {
            "eps3": self.eps3,
            "precondition": {
                "checked": self.precondition_checked,
                "held": self.precondition_held,
                "max_box_intersection": self.max_box_intersection,
                "exponent": self.precondition_exponent,
            },
            "checks": [asdict(c) for c in self.checks],
        }


def verify_converse_bounds(dec: Decomposition, eps3: float) -> ConverseReport:
    """Check the residual bounds of a decomposition.

    The R0 bound needs the exact maximum of |S ∩ V| over q-boxes V for the
    source set S: the exact inner search finds it under its node budget,
    seeded with the replayed count of :func:`~condlab.boxes.greedy_box`'s
    box, so it stops at once where that count meets S's root bound.
    The precondition stays unchecked, and the R0 bound unverified, when q is
    not an integer, when q exceeds the alphabet size 2^n (no q-box exists),
    when S is empty, or when the search exceeds its budget.
    """
    if not eps3 >= 0:
        raise RangeError(f"eps3 must be nonnegative, got {eps3}")
    alpha_n, w = dec.alpha_n, dec.w
    pre_exp = alpha_n * w * (1 - dec.eps1 - dec.eps2 - eps3) - w

    held: bool | None = None
    max_int = None
    note = "unverified: intersection precondition not checked"
    source = dec.source_points()
    if isinstance(dec.q, int) and dec.q > 1 << dec.n:
        note += f" (q={dec.q} exceeds the alphabet size 2^{dec.n}; no q-box exists)"
    elif isinstance(dec.q, int) and len(source):
        q = dec.q
        greedy = intersection_count(source, greedy_box(source, q)[0])
        try:
            max_int = conductance._best_box_bnb(source.points, dec.n, w, q, incumbent=greedy)[0]
        except BudgetError as exc:
            note += f" ({exc})"
        else:
            held = size_below(max_int, pre_exp)
            note = "precondition held" if held else "unverified: intersection precondition failed"

    checks = []
    keep_e = keep_exponent(alpha_n, w, dec.eps2)
    r1_rhs = w * 2.0 ** keep_e
    checks.append(
        BoundCheck(
            name="r1_size",
            lhs=len(dec.r1),
            rhs=r1_rhs,
            holds=len(dec.r1) <= r1_rhs,
            note="unconditional; margin "
                 f"{r1_rhs - len(dec.r1):.6g}",
        )
    )

    r0_exp = (1 - eps3) * alpha_n * w
    r0_rhs = 2.0 ** r0_exp
    r0_holds = None
    if held:
        r0_holds = not size_above(len(dec.r0), r0_exp) if len(dec.r0) else True
    checks.append(
        BoundCheck(name="r0_size", lhs=len(dec.r0), rhs=r0_rhs,
                   holds=r0_holds, note=note)
    )

    return ConverseReport(
        checks=tuple(checks),
        eps3=eps3,
        precondition_checked=max_int is not None,
        precondition_held=held,
        max_box_intersection=max_int,
        precondition_exponent=pre_exp,
    )


# --- empirical condenser profile ----------------------------------------------


class CoordinateEntropy(NamedTuple):
    """One coordinate of a kept part: the min-entropy of the uniform
    distribution on it, and whether it met its target."""

    part_size: int
    fattest_slice: int
    min_entropy_bits: float
    met_target: bool


@dataclass(frozen=True)
class TrialProfile:
    index: int
    box_ranks: tuple
    gamma: float
    coordinate_entropies: dict  # coord -> CoordinateEntropy


@dataclass(frozen=True)
class CondenserProfile:
    """Per-trial decomposition statistics for seeded random boxes.

    gamma is the residual weight (|R0|+|R1|)/q^w of one trial. A kept
    part meets its target when the uniform distribution on it has
    coordinate min-entropy strictly above (1+eps1)*alpha_n.
    """

    spec_digest: str
    alpha_n: float
    eps1: float
    eps2: float
    trials: tuple
    worst_gamma: float | None
    mean_gamma: float | None
    all_targets_met: bool | None

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec_digest,
            "alpha_n": self.alpha_n,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "trials": [
                {
                    "index": t.index,
                    "box_ranks": list(t.box_ranks),
                    "gamma": t.gamma,
                    "coordinates": {
                        str(i): v._asdict() for i, v in t.coordinate_entropies.items()
                    },
                }
                for t in self.trials
            ],
            "summary": {
                "trials": len(self.trials),
                "worst_gamma": self.worst_gamma,
                "mean_gamma": self.mean_gamma,
                "all_targets_met": self.all_targets_met,
            },
        }


def coordinate_min_entropy(part: PointSet, coord: int) -> tuple[int, float]:
    """(fattest slice size, min-entropy in bits of coordinate ``coord`` of
    the uniform distribution on ``part``). A ShapeError for an empty part
    or a coordinate outside range(w)."""
    if not 0 <= coord < part.w or not len(part):
        raise ShapeError(f"no min-entropy of coordinate {coord} of a part of "
                         f"{len(part)} points at w={part.w}")
    fattest = max(slice_sizes(part.points, part.n, part.w, coord).values())
    return fattest, _min_entropy_bits(len(part), fattest)


def _min_entropy_bits(size: int, fattest: int) -> float:
    """log2(size / fattest): the min-entropy of a coordinate whose fattest
    slice holds ``fattest`` of ``size`` equally likely points."""
    return math.log2(size) - math.log2(fattest)


def empirical_condenser_profile(spec: PermutationSpec, alpha_n: float,
                                eps1: float, eps2: float, trials: int,
                                seed: int, threads: int = 1) -> CondenserProfile:
    """Decompose the images of ``trials`` seeded random q-boxes and report
    residual weights and per-part coordinate min-entropies.

    Boxes are drawn by :func:`~condlab.boxes.random_box` from a single
    seeded generator, so profiles are reproducible. Trials run one after
    another; ``threads`` is accepted for interface symmetry and ignored.
    """
    del threads
    if trials < 0:
        raise RangeError(f"trials must be nonnegative, got {trials}")
    q = side_size(alpha_n)
    if not isinstance(q, int):
        raise RangeError(f"box sampling needs an integer side size, got 2^{alpha_n}"
                         + (", out of range" if math.isinf(q) else ""))
    _check_box_params(spec.n, q, spec.w)
    rng = random.Random(seed)
    draws = [random_box(rng, spec.n, q, spec.w) for _ in range(trials)]

    target_shift = (1 + eps1) * alpha_n

    # a function, not a loop body: a loop keeps one trial's image alive through the next
    def run_trial(index, ranks, box):
        img = image_of_box(spec, box)
        dec = decompose(img, alpha_n, eps1, eps2)
        gamma = (len(dec.r0) + len(dec.r1)) / (q ** spec.w)
        # a kept part i is the union of the coordinate-i cuts, one per value,
        # so its fattest i-slice is the largest of those cuts
        largest = [0] * spec.w
        for _, i, _, size in dec.slice_log:
            largest[i] = max(largest[i], size)
        entropies = {}
        for i, part in enumerate(dec.parts):
            if not len(part):
                continue
            fattest = largest[i]
            met = _scaled_below(fattest, target_shift, len(part))
            entropies[i] = CoordinateEntropy(len(part), fattest,
                                             _min_entropy_bits(len(part), fattest), met)
        return TrialProfile(index, ranks, gamma, entropies)

    results = [run_trial(index, *draw) for index, draw in enumerate(draws)]

    gammas = [t.gamma for t in results]
    met_flags = [v.met_target for t in results for v in t.coordinate_entropies.values()]
    return CondenserProfile(
        spec_digest=spec.digest(),
        alpha_n=alpha_n,
        eps1=eps1,
        eps2=eps2,
        trials=tuple(results),
        worst_gamma=max(gammas) if gammas else None,
        mean_gamma=sum(gammas) / len(gammas) if gammas else None,
        all_targets_met=all(met_flags) if met_flags else None,
    )
