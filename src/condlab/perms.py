"""Permutations of ({0,1}^n)^w: named constructions, tables, and files.

A point of the domain is a WordVector of w field elements of degree n.
Internally points travel as packed integers with word 0 in the most
significant position; that keeps table lookups, exhaustive scans, and
file round trips cheap and gives a single pinned ordering everywhere.

Named constructions (w = 3 unless noted):

* ``pi1``      (a, b, c) -> (a, b, c + a*b)
* ``pi2``      (a, b, c) -> (a, b + a*c, c)
* ``pi3``      applies the pi1 rule when the low bit of a is 0 and the
               pi2 rule when it is 1
* ``piw``      w >= 3: the pi1 triple map on each aligned block of three
               words; the trailing one or two words pass through
* ``bothmix``  (a, b, c) -> (a, a*b + c, a*c + b); both tail words get a
               cross product mixed in. In characteristic 2 subtraction is
               addition, and the whole a = 1 plane collapses to outputs
               with equal tail words, so this map is NOT a bijection; it
               is kept as an explicit experiment for ``verify_bijective``.

Arithmetic is GF(2^n) under the pinned default modulus unless a spec is
built with an explicit one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .errors import (
    BudgetError,
    NotAPermutationError,
    ShapeError,
    TableFormatError,
    UnsupportedDegreeError,
)
from .gf2n import ReductionPolynomial, default_poly, is_prime, mul_raw

EXHAUSTIVE_BUDGET_BITS = 24

KINDS = ("identity", "pi1", "pi2", "pi3", "piw", "bothmix", "random", "table")
# constructions defined only at w = 3
TRIPLE_KINDS = ("pi1", "pi2", "pi3", "bothmix")
# constructions whose conductance/condenser guarantees assume a prime degree
_PRIME_SENSITIVE = ("pi1", "pi2", "pi3", "piw", "bothmix")


def pack_words(words, n: int) -> int:
    """Pack a word sequence into one integer, word 0 most significant."""
    acc = 0
    for wd in words:
        acc = (acc << n) | wd
    return acc


def unpack_words(value: int, n: int, w: int) -> tuple[int, ...]:
    """Inverse of :func:`pack_words`."""
    mask = (1 << n) - 1
    return tuple((value >> (n * (w - 1 - i))) & mask for i in range(w))


@dataclass(frozen=True)
class WordVector:
    """A point of ({0,1}^n)^w; ``words`` are raw n-bit field elements."""

    words: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.words) < 1:
            raise ShapeError("a word vector needs at least one word")
        limit = 1 << self.n
        for wd in self.words:
            if not 0 <= wd < limit:
                raise ShapeError(f"word {wd:#x} does not fit in {self.n} bits")

    @property
    def w(self) -> int:
        return len(self.words)

    def packed(self) -> int:
        return pack_words(self.words, self.n)

    @classmethod
    def from_packed(cls, value: int, n: int, w: int) -> "WordVector":
        return cls(unpack_words(value, n, w), n)


@dataclass
class PermutationSpec:
    """Symbolic description of a mapping on {0,1}^(w*n).

    Treat instances as immutable after construction; the only mutation is
    the idempotent lazy inverse table for table-backed kinds.
    """

    kind: str
    n: int
    w: int
    poly: ReductionPolynomial | None = None
    seed: int | None = None
    table: tuple[int, ...] | None = None
    _inverse: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown permutation kind {self.kind!r}")
        if not 1 <= self.n <= 64:
            raise UnsupportedDegreeError(
                f"field degree must be in 1..64, got {self.n}"
            )
        if self.kind in TRIPLE_KINDS and self.w != 3:
            raise ShapeError(f"{self.kind} requires w == 3, got w={self.w}")
        if self.kind == "piw" and self.w < 3:
            raise ShapeError(f"piw requires w >= 3, got w={self.w}")
        if self.w < 1:
            raise ShapeError("w must be at least 1")
        if self.poly is None and self.kind in _PRIME_SENSITIVE:
            self.poly = default_poly(self.n)
        if self.poly is not None and self.poly.n != self.n:
            raise ShapeError(
                f"modulus degree {self.poly.n} does not match n={self.n}"
            )
        if self.kind in ("random", "table"):
            if self.table is None:
                raise ValueError(f"{self.kind} spec needs a table")
            size = 1 << self.domain_bits
            if len(self.table) != size:
                raise NotAPermutationError(
                    f"table has {len(self.table)} entries, expected {size}"
                )
            if self.domain_bits <= EXHAUSTIVE_BUDGET_BITS:
                self._check_table_bijective()
        elif self.table is not None:
            raise ValueError(f"{self.kind} spec does not take a table")

    def _check_table_bijective(self):
        size = len(self.table)
        first_seen = {}
        for x, y in enumerate(self.table):
            if not 0 <= y < size:
                raise NotAPermutationError(f"table value {y:#x} out of range")
            if y in first_seen:
                raise NotAPermutationError(
                    f"inputs {first_seen[y]:#x} and {x:#x} map to the same "
                    f"output {y:#x}",
                    witness=(first_seen[y], x),
                )
            first_seen[y] = x

    @property
    def domain_bits(self) -> int:
        return self.n * self.w

    @property
    def assumes_prime_degree(self) -> bool:
        """True when the construction's guarantees assume a prime n that
        the current degree does not satisfy."""
        return self.kind in _PRIME_SENSITIVE and not is_prime(self.n)

    def digest(self) -> str:
        """Stable content digest used by checkpoint files."""
        h = hashlib.sha256()
        h.update(f"{self.kind}/{self.n}/{self.w}".encode())
        if self.poly is not None:
            h.update(f"/p{self.poly.poly:x}".encode())
        if self.seed is not None:
            h.update(f"/s{self.seed}".encode())
        if self.table is not None:
            h.update(b"/t")
            for y in self.table:
                h.update(y.to_bytes((self.domain_bits + 7) // 8, "big"))
        return h.hexdigest()

    # --- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, n: int, w: int) -> "PermutationSpec":
        return cls("identity", n, w)

    @classmethod
    def pi1(cls, n: int, poly: ReductionPolynomial | None = None) -> "PermutationSpec":
        return cls("pi1", n, 3, poly)

    @classmethod
    def pi2(cls, n: int, poly: ReductionPolynomial | None = None) -> "PermutationSpec":
        return cls("pi2", n, 3, poly)

    @classmethod
    def pi3(cls, n: int, poly: ReductionPolynomial | None = None) -> "PermutationSpec":
        return cls("pi3", n, 3, poly)

    @classmethod
    def piw(cls, n: int, w: int, poly: ReductionPolynomial | None = None) -> "PermutationSpec":
        return cls("piw", n, w, poly)

    @classmethod
    def bothmix(cls, n: int, poly: ReductionPolynomial | None = None) -> "PermutationSpec":
        return cls("bothmix", n, 3, poly)

    @classmethod
    def explicit(cls, table, n: int, w: int) -> "PermutationSpec":
        return cls("table", n, w, table=tuple(table))

    # --- evaluation ------------------------------------------------------

    def apply_packed(self, x: int) -> int:
        """Forward map on a packed point."""
        n, w = self.n, self.w
        kind = self.kind
        if kind == "identity":
            return x
        if kind in ("random", "table"):
            return self.table[x]
        words = list(unpack_words(x, n, w))
        p = self.poly.poly
        if kind == "pi1":
            words[2] ^= mul_raw(words[0], words[1], p)
        elif kind == "pi2":
            words[1] ^= mul_raw(words[0], words[2], p)
        elif kind == "pi3":
            if words[0] & 1:
                words[1] ^= mul_raw(words[0], words[2], p)
            else:
                words[2] ^= mul_raw(words[0], words[1], p)
        elif kind == "bothmix":
            a, b, c = words
            words[1] = mul_raw(a, b, p) ^ c
            words[2] = mul_raw(a, c, p) ^ b
        elif kind == "piw":
            for i in range(0, w - w % 3, 3):
                words[i + 2] ^= mul_raw(words[i], words[i + 1], p)
        return pack_words(words, n)

    def invert_packed(self, y: int) -> int:
        """Preimage of a packed point. pi1/pi2/pi3/piw are their own
        inverses because subtraction is addition in characteristic 2;
        bothmix is inverted separately and has no inverse on its a = 1
        plane."""
        kind = self.kind
        if kind == "identity":
            return y
        if kind in ("random", "table"):
            if self._inverse is None:
                inv = [-1] * len(self.table)
                for x, out in enumerate(self.table):
                    if inv[out] != -1:
                        raise NotAPermutationError(
                            f"table is not bijective: output {out:#x} has "
                            f"two preimages",
                            witness=(inv[out], x),
                        )
                    inv[out] = x
                self._inverse = tuple(inv)
            return self._inverse[y]
        if kind == "bothmix":
            return self._bothmix_invert(y)
        return self.apply_packed(y)

    def _bothmix_invert(self, y: int) -> int:
        from .gf2n import FieldElement, gf_inv

        a, y2, y3 = unpack_words(y, self.n, 3)
        p = self.poly.poly
        det = mul_raw(a, a, p) ^ 1  # (a + 1)^2
        if det == 0:
            raise NotAPermutationError(
                "bothmix is not a permutation: points with first word 1 "
                "have no unique preimage"
            )
        det_inv = gf_inv(FieldElement(det, self.n), self.poly).bits
        b = mul_raw(mul_raw(a, y2, p) ^ y3, det_inv, p)
        c = mul_raw(y2 ^ mul_raw(a, y3, p), det_inv, p)
        return pack_words((a, b, c), self.n)

    def eval(self, x: WordVector) -> WordVector:
        self._check_shape(x)
        return WordVector.from_packed(self.apply_packed(x.packed()), self.n, self.w)

    def invert(self, y: WordVector) -> WordVector:
        self._check_shape(y)
        return WordVector.from_packed(self.invert_packed(y.packed()), self.n, self.w)

    def _check_shape(self, x: WordVector):
        if x.n != self.n or x.w != self.w:
            raise ShapeError(
                f"point has shape (n={x.n}, w={x.w}), spec expects "
                f"(n={self.n}, w={self.w})"
            )


def random_table(seed: int, n: int, w: int) -> PermutationSpec:
    """A uniformly random permutation table from a seeded Fisher-Yates
    shuffle (Mersenne Twister via ``random.Random``); same seed, same table."""
    bits = n * w
    if bits > EXHAUSTIVE_BUDGET_BITS:
        raise BudgetError(
            f"random table over {bits}-bit domain exceeds the "
            f"{EXHAUSTIVE_BUDGET_BITS}-bit budget",
            refused=1 << bits,
        )
    table = list(range(1 << bits))
    random.Random(seed).shuffle(table)
    return PermutationSpec("random", n, w, seed=seed, table=tuple(table))


@dataclass(frozen=True)
class BijectivityReport:
    """Outcome of an exhaustive bijectivity scan."""

    bijective: bool
    checked: int
    n: int
    w: int
    collision: tuple[int, int] | None = None  # two packed inputs, same output


def verify_bijective(spec: PermutationSpec, budget_bits: int = EXHAUSTIVE_BUDGET_BITS) -> BijectivityReport:
    """Exhaustively decide whether ``spec`` is a bijection.

    Scans every input in ascending packed order; on the first repeated
    output the earlier preimage is recovered by a bounded rescan so the
    report carries a colliding pair as witness.
    """
    bits = spec.domain_bits
    if bits > budget_bits:
        raise BudgetError(
            f"{bits}-bit domain exceeds the {budget_bits}-bit exhaustive "
            f"budget; spot-check with sampled eval/invert round trips instead",
            refused=1 << bits,
        )
    size = 1 << bits
    seen = bytearray(size)
    for x in range(size):
        y = spec.apply_packed(x)
        if seen[y]:
            for x0 in range(x):
                if spec.apply_packed(x0) == y:
                    return BijectivityReport(False, x + 1, spec.n, spec.w, (x0, x))
            raise AssertionError("collision flagged but preimage not found")
        seen[y] = 1
    return BijectivityReport(True, size, spec.n, spec.w)


# --- permutation table files ---------------------------------------------
#
# Format: header line `condlab-table v1 n=<n> w=<w>`, then one line per
# input in ascending packed order holding the output as a hex string of
# ceil(w*n/4) digits.


def _hex_digits(bits: int) -> int:
    return -(-bits // 4)


def write_table_file(spec: PermutationSpec, path) -> None:
    bits = spec.domain_bits
    if bits > EXHAUSTIVE_BUDGET_BITS:
        raise BudgetError(
            f"exporting a {bits}-bit domain exceeds the "
            f"{EXHAUSTIVE_BUDGET_BITS}-bit budget",
            refused=1 << bits,
        )
    digits = _hex_digits(bits)
    with open(path, "w") as fh:
        fh.write(f"condlab-table v1 n={spec.n} w={spec.w}\n")
        for x in range(1 << bits):
            fh.write(f"{spec.apply_packed(x):0{digits}x}\n")


def load_table_file(path) -> PermutationSpec:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if len(parts) != 4 or parts[0] != "condlab-table" or parts[1] != "v1":
            raise TableFormatError(f"bad header {header!r}", line=1)
        try:
            n = int(parts[2].removeprefix("n="))
            w = int(parts[3].removeprefix("w="))
        except ValueError:
            raise TableFormatError(f"bad header fields in {header!r}", line=1)
        size = 1 << (n * w)
        digits = _hex_digits(n * w)
        table = []
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text:
                continue
            if len(text) != digits:
                raise TableFormatError(
                    f"expected {digits} hex digits, got {text!r}", line=lineno
                )
            try:
                y = int(text, 16)
            except ValueError:
                raise TableFormatError(f"not a hex value: {text!r}", line=lineno)
            if y >= size:
                raise TableFormatError(f"value {text} out of range", line=lineno)
            table.append(y)
        if len(table) != size:
            raise TableFormatError(
                f"expected {size} entries, found {len(table)}"
            )
    return PermutationSpec.explicit(table, n, w)
