"""Exact and heuristic search for the conductance degree of a permutation.

For side size q, the conductance degree is log_q of the largest
|pi(U) ∩ V| over all pairs of q-boxes U, V; it always lies in [1, w].
Exact mode walks every U and solves the inner maximization over V with
a depth-first branch and bound of at most ``INNER_NODE_BUDGET`` nodes: a
partial box is pruned when the per-coordinate top-q slice sums of the
surviving points (``boxes.slice_bound``) cannot beat the incumbent.
``outer_budget`` refuses a walk of more prefixes up front and caps the
boxes it hands to the inner search.

The outer walk (``exact_conductance``: cursor, budget, checkpoints) hands
each prefix of U to ``_PrefixSolver``, whose bounds pick the boxes to
search; their docstrings hold the rules.

Heuristic mode hill-climbs over U with random single-value side swaps
(restarting when stuck) and solves V greedily per U; its result is a
certified lower bound because the witness pair replays to the claimed
count.

Both searches run in one thread: the work is pure Python, so thread
shards would not run in parallel.

q is taken directly (side size); alpha = log2(q)/n is derived and
reported. Side sizes that are not powers of two are accepted as an
extension and flagged in the report.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
import sys
import time
from array import array
from dataclasses import dataclass
from math import comb

from .boxes import (
    DEFAULT_BOX_BUDGET,
    QBox,
    PointSet,
    check_box_count,
    check_point_count,
    column_images,
    digits_to_rank,
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
    _check_box_params,
)
from .errors import BudgetError, CondlabError, RangeError, ShapeError
from .perms import PermutationSpec, parse_hex

INNER_NODE_BUDGET = 10 ** 7
CHECKPOINT_SECONDS = 10  # the least time between an exact scan's checkpoints
LOOKUP_BITS = 18  # the widest domain an exact scan evaluates into one list
COUNT_TABLE_BYTES = 1 << 23  # the largest packed slice counts an exact scan tabulates


def degree_from_count(q: int, count: int, w: int) -> float:
    """log_q(count). The side size q = 1 pins no exponent (1 = 1**d for
    every d); w is reported then, because a 1-box always maps onto a
    1-box, which is exactly the count = q**w case."""
    if q < 1 or count < 1:
        raise RangeError(f"need q >= 1 and count >= 1, got q={q}, count={count}")
    if q == 1:
        return float(w)
    return math.log2(count) / math.log2(q)


@dataclass(frozen=True)
class ConductanceReport:
    """Result of one conductance search, exact or heuristic."""

    n: int
    w: int
    q: int
    alpha: float
    mode: str  # "exact" | "heuristic"
    max_count: int
    condd: float
    witness_u: QBox
    witness_v: QBox
    boxes_examined: int
    exhausted: bool
    wall_seconds: float

    @property
    def q_is_power_of_two(self) -> bool:
        return self.q & (self.q - 1) == 0

    def to_json_dict(self) -> dict:
        """The fields in declaration order, a witness as a list of sides,
        then ``q_is_power_of_two``."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = [list(s) for s in value.sides] if isinstance(value, QBox) else value
        out["q_is_power_of_two"] = self.q_is_power_of_two
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConductanceReport":
        return cls(**{f.name: QBox(tuple(map(tuple, d[f.name])), d["n"]) if f.type == "QBox"
                      else d[f.name] for f in dataclasses.fields(cls)})


# --- inner maximization: densest q-box over a point set -------------------


def _best_box_bnb(points, n: int, w: int, q: int, incumbent: int = -1):
    """Exact max of |points ∩ V| over q-boxes V, beating ``incumbent``,
    in at most ``INNER_NODE_BUDGET`` nodes (a BudgetError past them).

    ``points`` are packed. Returns (count, sides) where sides is None when
    nothing beats the incumbent. Visits per-coordinate subsets in
    lexicographic order and updates only on strict improvement, so the
    returned sides are the lexicographically smallest maximizer.

    A side acts only through the values of the surviving points it holds.
    Each node tries the q-sets of those values plus the q smallest absent
    ones, which include the lexicographically first side for every set of
    held values, so no branch depends on the alphabet size 2^n. The last
    coordinate takes :func:`fattest_side`, the first side that meets the bound.
    Only the branched coordinate is grouped; later ones are bounded from
    :func:`slice_sizes`, so an incumbent at the root bound costs one node.
    """
    best = incumbent
    best_sides = None
    nodes = 0
    node_budget = INNER_NODE_BUDGET  # read per call, so a test can patch it

    def visit(depth, pts, chosen):
        nonlocal best, best_sides, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetError(f"inner search exceeded its node budget of {node_budget}",
                              refused=nodes)
        # a q-box keeps at most the q fattest slices of each coordinate
        by_value = slices(pts, n, w, depth)
        rest = (slice_sizes(pts, n, w, j).values() for j in range(depth + 1, w))
        bound = slice_bound(itertools.chain([map(len, by_value.values())], rest), q, best)
        if bound <= best:
            return
        if depth == w - 1:
            best, best_sides = bound, chosen + (fattest_side(by_value, q),)
            return
        values = pad_side(by_value, min(len(by_value) + q, 1 << n))
        for side in itertools.combinations(values, q):
            sub = [p for v in side for p in by_value.get(v, ())]
            if len(sub) <= best:
                continue
            visit(depth + 1, sub, chosen + (side,))

    visit(0, points, ())
    return best, best_sides


def best_V_for_U(points: PointSet, q: int) -> tuple[QBox, int]:
    """Exact inner maximization of |points ∩ V| over all q-boxes V."""
    if len(points) == 0:
        raise ShapeError("cannot maximize over an empty point set")
    _check_box_params(points.n, q, points.w)
    count, sides = _best_box_bnb(points.points, points.n, points.w, q)
    return QBox(sides, points.n), count


# --- exact outer search ----------------------------------------------------


def _replays(spec: PermutationSpec, q: int, count: int, u_sides, v_sides) -> bool:
    """True when the sides are two q-boxes of the spec's shape and
    |pi(U) ∩ V| is ``count``, at least 1, as a report must replay."""
    try:
        u, v = QBox(u_sides, spec.n), QBox(v_sides, spec.n)
    except ShapeError:
        return False
    return (u.w == v.w == spec.w and u.q == v.q == q and count >= 1
            and intersection_count(image_of_box(spec, u), v) == count)


def _report(spec: PermutationSpec, q: int, mode: str, count: int, u_sides, v_sides,
            examined: int, t0: float) -> ConductanceReport:
    """The report of either search: alpha, condd and the wall time since
    ``t0`` are derived here."""
    return ConductanceReport(
        n=spec.n,
        w=spec.w,
        q=q,
        alpha=math.log2(q) / spec.n,
        mode=mode,
        max_count=count,
        condd=degree_from_count(q, count, spec.w),
        witness_u=QBox(u_sides, spec.n),
        witness_v=QBox(v_sides, spec.n),
        boxes_examined=examined,
        exhausted=mode == "exact",
        wall_seconds=time.monotonic() - t0,
    )


def _packed_counts(n: int, q: int, w: int):
    """How the exact scan keeps slice counts, or None where its table would
    pass ``COUNT_TABLE_BYTES``: (tally, view, fields). The counts of all w
    coordinates of a point set sit in one int, the count of value v of word
    j in field j * 2^n + v, each field of the fewest bytes that hold the q^w
    points of a box image. ``tally(points)`` sums a table of each point's
    fields, so the counts of disjoint point sets add as ints; ``view``
    turns such an int into a sequence of counts, and ``fields`` are the
    slices of it that hold one coordinate each, the last word first (it
    alone differs between the columns of a free last word), as
    ``slice_bound`` reads them."""
    code = next(c for c in "BHIQ" if q ** w < 1 << 8 * array(c).itemsize)
    size, width = 1 << n, array(code).itemsize
    nbytes = w * width * size
    if nbytes << n * w > COUNT_TABLE_BYTES:
        return None
    per_word = [[1 << 8 * width * (j * size + v) for v in range(size)] for j in range(w)]
    unit = list(map(sum, itertools.product(*per_word)))  # in packed point order

    def tally(points):
        return sum(map(unit.__getitem__, points))

    def view(packed):
        counts = packed.to_bytes(nbytes, sys.byteorder)
        return array(code, counts) if width > 1 else counts

    return tally, view, [slice(j * size, (j + 1) * size) for j in reversed(range(w))]


class _PrefixSolver:
    """The exact scan's bounds, built once per scan over the last sides
    ``lasts`` in rank order. ``boxes(prefix, first, incumbent)`` yields
    (k, points), the box of the w-1 sides ``prefix`` and last side lasts[k]
    and its image, for each k from ``first`` on whose box may beat
    ``incumbent()``, read again after each yield, as its search can raise it.

    The column images I_t = pi(prefix x {t}) come from one set of inputs
    (``column_images``), read from a table's own array, and for an
    algebraic kind from the second prefix on through a lookup of
    ``apply_packed`` over the whole domain where nw is at most
    ``LOOKUP_BITS``. Where two outputs coincide (a map that is not a
    bijection), each box goes to ``image_of_box`` first, which refuses the
    first repeat. Each column is bounded by its root bound b(t),
    ``slice_bound`` over its slice counts, packed (``_packed_counts``) where
    they fit, else by ``slice_sizes``; a free last word's columns are
    column 0's translates, so every b(t) is b(0). A prefix whose q largest
    b(t) sum to at most the incumbent yields nothing (it is jumped); after
    a jump, one coordinate's b(t) (``lead``) are tried first, and the lead
    passes on when they fail. In the other prefixes a box is yielded only
    when its b(t) summed over its last side and, where counts are packed,
    the root bound of its columns' summed counts, the inner search's own,
    beat the incumbent; no other box can strictly improve on it."""

    def __init__(self, spec: PermutationSpec, q: int, lasts):
        self.spec, self.q, self.lasts = spec, q, lasts
        self.packed = _packed_counts(spec.n, q, spec.w)
        self.translate = spec.w - 1 in spec.free_words  # column_images gives column 0 alone
        self.lead, self.jumped, self.started = 0, False, False
        # a table's own array from the start; an algebraic kind's lookup is built
        # at the second prefix, so a scan that stops in its first never builds one
        self.evaluate = spec.table.__getitem__ if spec.table is not None else None

    def boxes(self, prefix, first: int, incumbent):
        spec, q, lasts, packed = self.spec, self.q, self.lasts, self.packed
        n, w, bits = spec.n, spec.w, spec.domain_bits
        if self.evaluate is None and self.started:
            self.evaluate = (list(map(spec.apply_packed, range(1 << bits))).__getitem__
                             if bits <= LOOKUP_BITS else spec.apply_packed)
        self.started = True
        columns = column_images(spec, prefix, self.evaluate)
        # two outputs coincide (a map that is not a bijection)
        collides = len(set(itertools.chain.from_iterable(columns))) < len(columns) * len(columns[0])
        best = incumbent()
        # each column's slice counts per coordinate: packed where they fit, else slice_sizes
        if packed:
            tally, view, fields = packed
            counts = list(map(tally, columns))
            views = list(map(view, counts))
        else:
            fields = range(w)
            views = [[slice_sizes(column, n, w, j).values() for j in fields] for column in columns]
        spread = 1 << n if self.translate else 1  # the b(t) of every t, translates included
        # after a jump the lead coordinate alone first, then every coordinate
        for coords in ([fields[self.lead:self.lead + 1]] if packed and self.jumped else []) + [fields]:
            bounds = [slice_bound(map(v.__getitem__, coords), q) for v in views] * spread
            self.jumped = not collides and sum(sorted(bounds)[-q:]) <= best
            if self.jumped:
                return  # no box of the prefix can beat the incumbent
            if coords is not fields:
                self.lead = (self.lead + 1) % w
        if packed and self.translate:  # column t is column 0 translated by t
            counts = [tally([y ^ t for y in columns[0]]) for t in range(1 << n)]
        # each box's b(t) summed, in rank order (lasts are combinations)
        sums = list(map(sum, itertools.combinations(bounds, q)))
        for k in range(first, len(lasts)):
            if collides:
                image_of_box(spec, QBox(prefix + (lasts[k],), n))  # refuses a repeat, naming it
            if sums[k] <= best:
                continue
            last = lasts[k]
            # a box's counts are its columns' summed, and their bound its root bound
            if packed and slice_bound(
                    map(view(sum([counts[t] for t in last])).__getitem__, fields), q, best) <= best:
                continue
            yield k, ([y ^ t for t in last for y in columns[0]] if self.translate
                      else [y for t in last for y in columns[t]])
            best = incumbent()


def _resume(path, spec: PermutationSpec, q: int, radix: int, digest):
    """The cursor and the incumbent (count, U sides, V sides) an exact scan
    starts from: the checkpoint's at ``path`` when it exists, else 0 and
    none. A file of another search is refused, and so is one whose cursor
    is out of range, whose count differs from the cursor's rank, or whose
    incumbent is not empty at box 0 or past it does not replay."""
    if not (path and os.path.exists(path)):
        return 0, -1, None, None
    ck = read_checkpoint(path)
    if ck["spec"] != digest or ck["q"] != q or len(ck["cursor"]) != spec.w:
        raise CondlabError(f"checkpoint {path} belongs to a different search")
    start = digits_to_rank(ck["cursor"], radix)
    best, best_u, best_v = ck["max_count"], ck["witness_u"], ck["witness_v"]
    if (not 0 <= start <= radix ** spec.w or rank_to_digits(start, radix, spec.w) != ck["cursor"]
            or ck["boxes_examined"] != start
            or not (_replays(spec, q, best, best_u, best_v) if start
                    else (best, best_u, best_v) == (-1, None, None))):
        raise CondlabError(f"checkpoint {path} holds an invalid cursor "
                           f"{ck['cursor']} (boxes_examined={ck['boxes_examined']}) "
                           f"or incumbent max_count={best}")
    return start, best, best_u, best_v


def exact_conductance(spec: PermutationSpec, q: int, *,
                      outer_budget: int = DEFAULT_BOX_BUDGET,
                      threads: int = 1,
                      checkpoint_path: str | None = None) -> ConductanceReport:
    """The true maximum of |pi(U) ∩ V| over all q-box pairs, with the
    lexicographically smallest witnesses. Deterministic; ``threads`` is
    accepted for interface symmetry and ignored.

    Boxes are walked by prefix, their first w-1 sides, in rank order, the
    last side the least significant digit, so a prefix's boxes are one run
    of ranks. The rank of the next box is the cursor, and the count of
    boxes examined, searched or not. ``_PrefixSolver`` yields the boxes of
    a prefix that may beat the incumbent, and each goes to the inner
    search; the walk stops once the incumbent is q^w. The incumbent moves
    only on a strict improvement, and a box not yielded cannot strictly
    improve, so the witnesses are the lexicographically smallest (U, V)
    that achieve the maximum, and full and resumed runs agree bit for bit.

    ``outer_budget`` refuses the search up front when its C(2^n, q)^(w-1)
    prefixes (at w = 1, its boxes) are over it, naming its C(2^n, q)^w
    boxes; otherwise it caps the boxes this session searches, and the box
    past it is refused as the inner search's node budget refuses one.

    With a ``checkpoint_path`` the search resumes from an existing file
    (``_resume`` refuses an invalid one) and writes one at the cursor when
    it moves (past a finished prefix, or to a searched box) at least
    ``CHECKPOINT_SECONDS`` after the last write or the start, at the end,
    and at the refused box when either budget runs out."""
    del threads
    t0 = time.monotonic()
    n, w = spec.n, spec.w
    _check_box_params(n, q, w)
    try:
        check_box_count(n, q, max(w - 1, 1), outer_budget)
    except BudgetError:
        check_box_count(n, q, w, outer_budget, "exact search", "outer boxes")
        raise
    lasts = list(itertools.combinations(range(1 << n), q))
    radix = len(lasts)
    prefixes = radix ** (w - 1)
    total = prefixes * radix
    digest = spec.digest() if checkpoint_path else None  # once for every write
    start, best, best_u, best_v = _resume(checkpoint_path, spec, q, radix, digest)
    check_point_count(q, w)  # each box's image, as image_of_box refuses it
    solver = _PrefixSolver(spec, q, lasts)
    rank = start  # the cursor
    searched = 0  # boxes this session hands to the inner search
    every = CHECKPOINT_SECONDS if checkpoint_path else math.inf  # read per call
    written = t0  # when the last checkpoint was written

    def save():
        """Write a checkpoint at the cursor, when there is a path."""
        nonlocal written
        if checkpoint_path:
            write_checkpoint(checkpoint_path, spec, q, rank, best, best_u, best_v, digest)
            written = time.monotonic()

    def advance(to):
        """Move the cursor to rank ``to``, and write a checkpoint there when
        ``every`` seconds have passed since the last."""
        nonlocal rank
        rank = to
        if time.monotonic() - written >= every:
            save()

    for prefix in enumerate_qboxes_range(lasts, w - 1, start // radix, prefixes):
        if best == q ** w:
            break  # no box can strictly improve on a full one
        base = rank - rank % radix  # a resumed run starts inside its first prefix
        for k, points in solver.boxes(prefix, rank % radix, lambda: best):
            advance(base + k)
            try:
                if searched == outer_budget:
                    raise BudgetError(
                        f"exact search would search more than {outer_budget} outer boxes, "
                        f"over the budget of {outer_budget}; it stopped at box {rank} of {total}",
                        refused=searched + 1)
                searched += 1
                count, sides = _best_box_bnb(points, n, w, q, incumbent=best)
            except BudgetError:
                save()
                raise
            if sides is not None:
                best, best_u, best_v = count, prefix + (lasts[k],), sides
        advance(base + radix)
    rank = total
    save()
    return _report(spec, q, "exact", best, best_u, best_v, rank, t0)


# --- heuristic lower bound --------------------------------------------------


def heuristic_lower_bound(spec: PermutationSpec, q: int, budget: int = 200,
                          seed: int = 0, threads: int = 1) -> ConductanceReport:
    """Certified lower bound on the max intersection: random-restart hill
    climbing over U (one side value swapped per move) with a greedy V per
    U. Deterministic for a fixed (seed, budget); ``threads`` is accepted
    for interface symmetry and ignored."""
    del threads
    t0 = time.monotonic()
    _check_box_params(spec.n, q, spec.w)
    if budget < 1:
        raise RangeError(f"budget must be at least 1, got {budget}")
    n, w = spec.n, spec.w
    size = 1 << n
    rng = random.Random(seed)
    patience = max(16, 2 * w * q)

    best_count = -1
    best_u = best_v = None
    evals = 0

    def evaluate(sides):
        nonlocal best_count, best_u, best_v, evals
        box = QBox(sides, n)
        vbox, cnt = greedy_box(image_of_box(spec, box), q)
        evals += 1
        if cnt > best_count:
            best_count, best_u, best_v = cnt, box, vbox
        return cnt

    while evals < budget:
        sides = random_box(rng, n, q, w)[1].sides
        cur = evaluate(sides)
        if q == size:
            break  # the full cube is the only box; nothing to climb
        stale = 0
        while evals < budget and stale < patience:
            i = rng.randrange(w)
            side = sides[i]
            v_out = side[rng.randrange(q)]
            while True:
                v_in = rng.randrange(size)
                if v_in not in side:
                    break
            new_side = tuple(sorted(set(side) - {v_out} | {v_in}))
            cand = sides[:i] + (new_side,) + sides[i + 1:]
            cnt = evaluate(cand)
            if cnt > cur:
                sides, cur = cand, cnt
                stale = 0
            else:
                stale += 1

    # replay the witness so the reported count is certified; an explicit
    # raise, because python -O strips assert statements
    replayed = intersection_count(image_of_box(spec, best_u), best_v)
    if replayed != best_count:
        raise AssertionError(
            f"heuristic witness replays to {replayed}, not the claimed {best_count}"
        )
    return _report(spec, q, "heuristic", best_count, best_u.sides, best_v.sides, evals, t0)


# --- notation conversion ----------------------------------------------------


def condd_to_cond(q: int, condd: float, w: int | None = None) -> float:
    """cond = q**condd (the query-count notation of the same quantity)."""
    if q < 2:
        raise RangeError(f"q must be at least 2, got {q}")
    if condd < 1 or (w is not None and condd > w):
        hi = w if w is not None else "w"
        raise RangeError(f"condd={condd} outside [1, {hi}]")
    return 2.0 ** (condd * math.log2(q))


def cond_to_condd(q: int, cond: float, w: int | None = None) -> float:
    """Inverse of :func:`condd_to_cond`."""
    if q < 2:
        raise RangeError(f"q must be at least 2, got {q}")
    if cond < q or (w is not None and cond > float(q) ** w * (1 + 1e-9)):
        hi = f"{q}^{w}" if w is not None else "q^w"
        raise RangeError(f"cond={cond} outside [q, {hi}]")
    return math.log2(cond) / math.log2(q)


# --- closed-form bound sheet -------------------------------------------------


def _log2_sum_of_powers(e1: float, e2: float) -> float:
    """log2(2**e1 + 2**e2), stable for any magnitudes."""
    hi, lo = (e1, e2) if e1 >= e2 else (e2, e1)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


@dataclass(frozen=True)
class BoundSheet:
    """Closed-form bounds evaluated at one parameter point.

    A bound is *vacuous* when its value falls outside [1, w] (the full
    range of the conductance degree) and therefore says nothing.
    """

    n: int
    w: int
    q: int
    alpha: float
    eps1: float | None
    eps2: float | None
    c: float | None
    condenser_bound: float | None
    condenser_vacuous: bool | None
    repetition_bound: float | None
    repetition_vacuous: bool | None
    random_perm_bound: float
    random_perm_precondition_ok: bool
    random_perm_vacuous: bool
    precondition_by_alpha: bool
    precondition_by_q: bool
    precondition_agree: bool

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def bound_sheet(n: int, w: int, q: int, eps1: float | None = None,
                eps2: float | None = None, c: float | None = None) -> BoundSheet:
    """Evaluate the closed-form bounds at one parameter point.

    * condenser bound (needs eps1, eps2): log_q(q**(w-eps1) + eps2*q**w);
      exactly w - eps1 when eps2 == 0.
    * repetition bound (needs c): w - floor(w/3)*c, the serial repetition
      of three-word blocks.
    * random permutation bound: 1 + log2(3*n*w)/(alpha*n), valid when
      alpha <= 1/2 - 1/(n*w).
    * precondition equivalence: q**(2w) <= 2**(nw)/4 iff
      alpha <= 1/2 - 1/(n*w); both sides are evaluated independently
      (integers vs floats) and compared.
    """
    if n < 1 or w < 1 or q < 2:
        raise RangeError(f"need n,w >= 1 and q >= 2, got n={n}, w={w}, q={q}")
    alpha = math.log2(q) / n
    alpha_n = math.log2(q)

    condenser = condenser_vac = None
    if eps1 is not None and eps2 is not None:
        if not (eps1 >= 0 and eps2 >= 0):
            raise RangeError("eps1 and eps2 must be nonnegative")
        if eps2 == 0:
            condenser = w - eps1
        else:
            condenser = _log2_sum_of_powers(
                alpha_n * (w - eps1), math.log2(eps2) + alpha_n * w
            ) / alpha_n
        condenser_vac = not (1.0 <= condenser <= w)

    repetition = repetition_vac = None
    if c is not None:
        if math.isnan(c):
            raise RangeError("c must be a number, got nan")
        repetition = w - (w // 3) * c
        repetition_vac = not (1.0 <= repetition <= w)

    random_perm = 1.0 + math.log2(3 * n * w) / (alpha * n)
    by_alpha = alpha <= 0.5 - 1.0 / (n * w)
    rp_vac = not (1.0 <= random_perm <= w)
    by_q = q ** (2 * w) * 4 <= 2 ** (n * w)

    return BoundSheet(
        n=n,
        w=w,
        q=q,
        alpha=alpha,
        eps1=eps1,
        eps2=eps2,
        c=c,
        condenser_bound=condenser,
        condenser_vacuous=condenser_vac,
        repetition_bound=repetition,
        repetition_vacuous=repetition_vac,
        random_perm_bound=random_perm,
        random_perm_precondition_ok=by_alpha,
        random_perm_vacuous=rp_vac,
        precondition_by_alpha=by_alpha,
        precondition_by_q=by_q,
        precondition_agree=by_alpha == by_q,
    )


# --- checkpoint files --------------------------------------------------------
#
# Format: `condlab-ckpt v1` header, then key=value lines: the spec digest,
# q, the cursor as a decimal tuple of per-side combination ranks for the
# next box to process, the incumbent max count, the incumbent witnesses as
# hex sides, and boxes_examined, which is the cursor's rank.


def _sides_to_text(sides) -> str:
    if sides is None:
        return "-"
    return ";".join(",".join(f"{v:x}" for v in side) for side in sides)


def _sides_from_text(text: str):
    if text == "-":
        return None
    return tuple(tuple(parse_hex(v) for v in side.split(",")) for side in text.split(";"))


def write_checkpoint(path, spec: PermutationSpec, q: int, next_rank: int,
                     max_count: int, u_sides, v_sides, digest: str | None = None) -> None:
    """Write one checkpoint; ``digest``, when given, is ``spec.digest()``,
    which an exact search computes once for all its writes."""
    cursor = rank_to_digits(next_rank, comb(1 << spec.n, q), spec.w)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("condlab-ckpt v1\n")
        fh.write(f"spec={digest or spec.digest()}\n")
        fh.write(f"q={q}\n")
        fh.write(f"cursor=({','.join(str(i) for i in cursor)})\n")
        fh.write(f"max_count={max_count}\n")
        fh.write(f"witness_u={_sides_to_text(u_sides)}\n")
        fh.write(f"witness_v={_sides_to_text(v_sides)}\n")
        fh.write(f"boxes_examined={next_rank}\n")
    os.replace(tmp, path)


def read_checkpoint(path) -> dict:
    with open(path, errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        if header != "condlab-ckpt v1":
            raise CondlabError(f"bad checkpoint header {header!r}")
        fields = {}
        for raw in fh:
            key, _, value = raw.rstrip("\n").partition("=")
            fields[key] = value
    try:
        cursor = tuple(int(t) for t in fields["cursor"].strip("()").split(",") if t)
        return {
            "spec": fields["spec"],
            "q": int(fields["q"]),
            "cursor": cursor,
            "max_count": int(fields["max_count"]),
            "witness_u": _sides_from_text(fields["witness_u"]),
            "witness_v": _sides_from_text(fields["witness_v"]),
            "boxes_examined": int(fields["boxes_examined"]),
        }
    except (KeyError, ValueError) as exc:
        raise CondlabError(f"malformed checkpoint {path}: {exc}") from exc
