"""Exact and heuristic search for the conductance degree of a permutation.

For side size q, the conductance degree is log_q of the largest
|pi(U) ∩ V| over all pairs of q-boxes U, V; it always lies in [1, w].
Exact mode enumerates every U and solves the inner maximization over V
with a depth-first branch and bound: a partial box is pruned when the
per-coordinate top-q frequency sums of the surviving points cannot beat
the incumbent. The incumbent only ever moves on a strict improvement and
candidates are visited in lexicographic order, so the reported witnesses
are the lexicographically smallest (U, V) achieving the maximum and
full and resumed runs agree bit for bit.

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

import itertools
import math
import os
import random
import time
from dataclasses import dataclass
from math import comb

from .boxes import (
    QBox,
    PointSet,
    box_count,
    combination_unrank,
    digits_to_rank,
    enumerate_qboxes_range,
    fattest_side,
    greedy_box,
    image_of_box,
    intersection_count,
    pad_side,
    rank_to_digits,
    slices,
    _check_box_params,
)
from .errors import BudgetError, CondlabError, RangeError, ShapeError
from .perms import PermutationSpec

DEFAULT_OUTER_BUDGET = 10 ** 6
DEFAULT_INNER_NODE_BUDGET = 10 ** 7
# Python's default limit on the decimal digits of an int it prints
_PRINTABLE_DIGITS = 4300


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
        return {
            "n": self.n,
            "w": self.w,
            "q": self.q,
            "alpha": self.alpha,
            "mode": self.mode,
            "max_count": self.max_count,
            "condd": self.condd,
            "witness_u": [list(s) for s in self.witness_u.sides],
            "witness_v": [list(s) for s in self.witness_v.sides],
            "boxes_examined": self.boxes_examined,
            "exhausted": self.exhausted,
            "wall_seconds": self.wall_seconds,
            "q_is_power_of_two": self.q_is_power_of_two,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConductanceReport":
        return cls(
            n=d["n"],
            w=d["w"],
            q=d["q"],
            alpha=d["alpha"],
            mode=d["mode"],
            max_count=d["max_count"],
            condd=d["condd"],
            witness_u=QBox(tuple(tuple(s) for s in d["witness_u"]), d["n"]),
            witness_v=QBox(tuple(tuple(s) for s in d["witness_v"]), d["n"]),
            boxes_examined=d["boxes_examined"],
            exhausted=d["exhausted"],
            wall_seconds=d["wall_seconds"],
        )


def replay_witness(spec: PermutationSpec, report: ConductanceReport) -> int:
    """Recompute |pi(witness_u) ∩ witness_v|; must equal max_count."""
    img = image_of_box(spec, report.witness_u)
    return intersection_count(img, report.witness_v)


# --- inner maximization: densest q-box over a point set -------------------


def _best_box_bnb(points, n: int, w: int, q: int, incumbent: int = -1,
                  node_budget: int | None = None):
    """Exact max of |points ∩ V| over q-boxes V, beating ``incumbent``.

    ``points`` are packed. Returns (count, sides) where sides is None when
    nothing beats the incumbent. Visits per-coordinate subsets in
    lexicographic order and updates only on strict improvement, so the
    returned sides are the lexicographically smallest maximizer.

    A side acts only through the values of the surviving points it holds.
    Each node tries the q-sets of those values plus the q smallest absent
    ones, which include the lexicographically first side for every set of
    held values, so no branch depends on the alphabet size 2^n. The last
    coordinate takes :func:`fattest_side`, the first side that meets the bound.
    """
    best = incumbent
    best_sides = None
    nodes = 0

    def visit(depth, pts, chosen):
        nonlocal best, best_sides, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetError(
                f"inner search exceeded its node budget of {node_budget}",
                refused=nodes,
            )
        # a q-box keeps at most the q fattest slices of each coordinate
        groups = [slices(pts, n, w, j) for j in range(depth, w)]
        bound = min(sum(sorted(map(len, g.values()), reverse=True)[:q]) for g in groups)
        if bound <= best:
            return
        by_value = groups[0]
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


def best_V_for_U(points: PointSet, q: int,
                 node_budget: int | None = DEFAULT_INNER_NODE_BUDGET) -> tuple[QBox, int]:
    """Exact inner maximization of |points ∩ V| over all q-boxes V."""
    if len(points) == 0:
        raise ShapeError("cannot maximize over an empty point set")
    _check_box_params(points.n, q, points.w)
    count, sides = _best_box_bnb(
        points.points, points.n, points.w, q, node_budget=node_budget
    )
    return QBox(sides, points.n), count


# --- exact outer search ----------------------------------------------------


def _budget_refusal_message(n: int, q: int, w: int, total: int, budget: int) -> str:
    msg = (
        f"exact search needs C(2^{n},{q})^{w} = {total} outer boxes, over "
        f"the budget of {budget}"
    )
    # name the smallest single parameter whose reduction fits the budget
    for name, nn, qq, ww in (("q", n, q - 1, w), ("w", n, q, w - 1), ("n", n - 1, min(q, 1 << (n - 1)), w)):
        if qq >= 1 and ww >= 1 and nn >= 1 and box_count(nn, qq, ww) <= budget:
            return msg + f"; reducing {name} would fit"
    return msg


def _outer_box_count(n: int, q: int, w: int, budget: int) -> int:
    """C(2^n, q)^w, or a BudgetError when it is over ``budget``. A count
    past the digits an int prints is named by its size and not given as
    ``refused``; when the bound C(2^n, q) >= (2^n/q)^q already puts it
    there, it is not computed at all."""
    digits = q * w * math.log10((1 << n) / q)
    if digits <= _PRINTABLE_DIGITS or digits <= math.log10(max(budget, 1)):
        total = box_count(n, q, w)
        if total <= budget:
            return total
        digits = math.log10(total)
        if digits < _PRINTABLE_DIGITS:
            raise BudgetError(_budget_refusal_message(n, q, w, total, budget), refused=total)
    raise BudgetError(
        f"exact search needs C(2^{n},{q})^{w} >= 10^{math.floor(digits)} outer boxes, "
        f"over the budget of {budget}"
    )


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


def exact_conductance(spec: PermutationSpec, q: int, *,
                      outer_budget: int = DEFAULT_OUTER_BUDGET,
                      inner_node_budget: int = DEFAULT_INNER_NODE_BUDGET,
                      threads: int = 1,
                      checkpoint_path: str | None = None,
                      checkpoint_every: int = 1000) -> ConductanceReport:
    """The true maximum of |pi(U) ∩ V| over all q-box pairs, with the
    lexicographically smallest witnesses. Deterministic; ``threads`` is
    accepted for interface symmetry and ignored.

    With a ``checkpoint_path`` the search resumes from an existing file
    and writes one every ``checkpoint_every`` boxes of this session (0:
    none), at the end, and at the failing box when the inner search runs
    out of nodes. A checkpoint holds the rank of the next box as its
    cursor, and its ``boxes_examined`` is that rank; a file whose cursor is
    out of range, whose count differs from the cursor's rank, or that is
    past box 0 without an incumbent and both witnesses is refused."""
    del threads
    t0 = time.monotonic()
    _check_box_params(spec.n, q, spec.w)
    if checkpoint_every < 0:
        raise RangeError(f"checkpoint_every must be nonnegative, got {checkpoint_every}")
    total = _outer_box_count(spec.n, q, spec.w, outer_budget)

    start = 0
    best, best_u, best_v = -1, None, None
    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = read_checkpoint(checkpoint_path)
        if ck["spec"] != spec.digest() or ck["q"] != q or len(ck["cursor"]) != spec.w:
            raise CondlabError(
                f"checkpoint {checkpoint_path} belongs to a different search"
            )
        radix = comb(1 << spec.n, q)
        start = digits_to_rank(ck["cursor"], radix)
        if (not 0 <= start <= total or rank_to_digits(start, radix, spec.w) != ck["cursor"]
                or ck["boxes_examined"] != start
                or start and (ck["max_count"] < 1 or None in (ck["witness_u"], ck["witness_v"]))):
            raise CondlabError(f"checkpoint {checkpoint_path} holds an invalid cursor "
                               f"{ck['cursor']} (boxes_examined={ck['boxes_examined']}) "
                               f"or incumbent max_count={ck['max_count']}")
        best, best_u, best_v = ck["max_count"], ck["witness_u"], ck["witness_v"]

    # rank is the cursor: the next box's rank and the number examined
    rank = start
    for ubox in enumerate_qboxes_range(spec.n, q, spec.w, start, total):
        img = image_of_box(spec, ubox)
        try:
            count, sides = _best_box_bnb(
                img.points, spec.n, spec.w, q, incumbent=best,
                node_budget=inner_node_budget,
            )
        except BudgetError:
            if checkpoint_path:
                write_checkpoint(checkpoint_path, spec, q, rank, best, best_u, best_v)
            raise
        if sides is not None:
            best, best_u, best_v = count, ubox.sides, sides
        rank += 1
        if checkpoint_path and checkpoint_every and (rank - start) % checkpoint_every == 0:
            write_checkpoint(checkpoint_path, spec, q, rank, best, best_u, best_v)

    if checkpoint_path:
        write_checkpoint(checkpoint_path, spec, q, rank, best, best_u, best_v)
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
    radix = comb(size, q)
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
        sides = tuple(
            combination_unrank(rng.randrange(radix), size, q) for _ in range(w)
        )
        cur = evaluate(sides)
        if radix == 1:
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
        if eps1 < 0 or eps2 < 0:
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
        repetition = w - (w // 3) * c
        repetition_vac = not (1.0 <= repetition <= w)

    random_perm = 1.0 + math.log2(3 * n * w) / (alpha * n)
    rp_ok = alpha <= 0.5 - 1.0 / (n * w)
    rp_vac = not (1.0 <= random_perm <= w)

    by_q = q ** (2 * w) * 4 <= 2 ** (n * w)
    by_alpha = alpha <= 0.5 - 1.0 / (n * w)

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
        random_perm_precondition_ok=rp_ok,
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
    return tuple(
        tuple(int(v, 16) for v in side.split(",")) for side in text.split(";")
    )


def write_checkpoint(path, spec: PermutationSpec, q: int, next_rank: int,
                     max_count: int, u_sides, v_sides) -> None:
    cursor = rank_to_digits(next_rank, comb(1 << spec.n, q), spec.w)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("condlab-ckpt v1\n")
        fh.write(f"spec={spec.digest()}\n")
        fh.write(f"q={q}\n")
        fh.write(f"cursor=({','.join(str(i) for i in cursor)})\n")
        fh.write(f"max_count={max_count}\n")
        fh.write(f"witness_u={_sides_to_text(u_sides)}\n")
        fh.write(f"witness_v={_sides_to_text(v_sides)}\n")
        fh.write(f"boxes_examined={next_rank}\n")
    os.replace(tmp, path)


def read_checkpoint(path) -> dict:
    with open(path) as fh:
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
