"""Independent reference computations for the benchmark's output checks.

Nothing here imports condlab. The field arithmetic, the named maps, the
seeded table and the densest-box count are re-derived from their
definitions, so a check built on them does not trust the code it checks.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import reduce


def _clmul(a: int, b: int) -> int:
    acc = 0
    while a:
        if a & 1:
            acc ^= b
        a >>= 1
        b <<= 1
    return acc


def _clmod(a: int, m: int) -> int:
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def smallest_irreducible(n: int) -> int:
    """The smallest degree-n polynomial over GF(2), as an int with bit n
    set, that no polynomial of degree 1..n//2 divides."""
    divisors = range(2, 1 << (n // 2 + 1))
    for cand in range(1 << n, 1 << (n + 1)):
        if all(_clmod(cand, d) for d in divisors):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n}")


class Field:
    """GF(2^n) under the smallest irreducible modulus."""

    def __init__(self, n: int):
        self.n = n
        self.poly = smallest_irreducible(n)

    def mul(self, a: int, b: int) -> int:
        return _clmod(_clmul(a, b), self.poly)


class RefMap:
    """Forward evaluation of the maps the benchmark drives, on packed
    points (word 0 most significant)."""

    def __init__(self, kind: str, n: int, w: int, table=None):
        self.kind, self.n, self.w = kind, n, w
        self.table = table
        self.field = Field(n) if kind in ("pi1", "piw", "bothmix") else None

    def words(self, x: int) -> list[int]:
        mask = (1 << self.n) - 1
        return [(x >> (self.n * (self.w - 1 - i))) & mask for i in range(self.w)]

    def pack(self, words) -> int:
        acc = 0
        for wd in words:
            acc = (acc << self.n) | wd
        return acc

    def __call__(self, x: int) -> int:
        if self.kind == "identity":
            return x
        if self.kind == "table":
            return self.table[x]
        mul = self.field.mul
        t = self.words(x)
        if self.kind == "bothmix":
            a, b, c = t
            return self.pack((a, mul(a, b) ^ c, mul(a, c) ^ b))
        # pi1 is piw with a single block of three words
        for i in range(0, self.w - self.w % 3, 3):
            t[i + 2] ^= mul(t[i], t[i + 1])
        return self.pack(t)

    def image(self, sides) -> list[tuple[int, ...]]:
        """Word tuples of the image of the box with the given sides."""
        return [tuple(self.words(self(self.pack(p)))) for p in itertools.product(*sides)]


def shuffled_table(seed: int, bits: int) -> list[int]:
    """A seeded Fisher-Yates shuffle of range(2^bits) (Mersenne Twister)."""
    table = list(range(1 << bits))
    random.Random(seed).shuffle(table)
    return table


def densest_count(tuples, q: int, floor: int = 0) -> int:
    """Size of the largest subset of ``tuples`` that has at most q
    distinct values in every coordinate, when it exceeds ``floor``;
    otherwise ``floor``.

    Such a subset is exactly the intersection with some q-box (pad each
    side with unused values), so this is max over q-boxes V of
    |tuples ∩ V|, computed over subsets instead of over boxes.
    """
    w = len(tuples[0])
    masks = []
    for i in range(w):
        by_value = {}
        for k, t in enumerate(tuples):
            by_value[t[i]] = by_value.get(t[i], 0) | (1 << k)
        masks.append(list(by_value.values()))
    choices = []
    for coord_masks in masks[:-1]:
        size = min(q, len(coord_masks))
        choices.append(sorted({reduce(operator.or_, c) for c in
                               itertools.combinations(coord_masks, size)}))
    last = masks[-1]
    best = floor

    def visit(depth, live):
        nonlocal best
        if live.bit_count() <= best:
            return
        if depth == w - 1:
            counts = sorted(((live & m).bit_count() for m in last), reverse=True)
            best = max(best, sum(counts[:q]))
            return
        for m in choices[depth]:
            visit(depth + 1, live & m)

    visit(0, (1 << len(tuples)) - 1)
    return best


def exact_max_count(ref: RefMap, q: int) -> int:
    """max over q-boxes U, V of |ref(U) ∩ V|, by enumerating every U."""
    sides = list(itertools.combinations(range(1 << ref.n), q))
    best = 0
    for u in itertools.product(sides, repeat=ref.w):
        best = densest_count(ref.image(u), q, best)
    return best


def box_count(ref: RefMap, u_sides, v_sides) -> int:
    """|ref(U) ∩ V| for explicit sides, counted point by point."""
    v = [set(s) for s in v_sides]
    return sum(all(t[i] in v[i] for i in range(ref.w)) for t in ref.image(u_sides))


def is_qbox(sides, n: int, w: int, q: int) -> bool:
    """Sides form a valid q-box of shape (n, w): sorted, distinct, in range."""
    return len(sides) == w and all(
        len(s) == q and list(s) == sorted(set(s)) and 0 <= s[0] and s[-1] < (1 << n)
        for s in sides
    )
