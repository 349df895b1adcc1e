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

Single points go through ``apply_packed``, in pure Python. The passes
over the whole domain (``verify_bijective``, ``write_table_file`` and
the inverse of a table) evaluate blocks of ascending inputs as numpy
arrays instead, and import numpy only when they run, so the per-point
layers above (box images, the searches, the condenser) never load it.
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
        if min(self.table) >= 0 and max(self.table) < size and len(set(self.table)) == size:
            return
        # name the first fault in input order
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
        """Forward map on a packed point of the domain. Words are read by
        shift and mask, and each product is XOR-ed into its word's place."""
        n, w = self.n, self.w
        kind = self.kind
        if kind == "identity":
            return x
        if kind in ("random", "table"):
            return self.table[x]
        p = self.poly.poly
        mask = (1 << n) - 1
        if kind == "piw":
            for i in range(0, w - w % 3, 3):
                lo = n * (w - 3 - i)  # shift of word i + 2, the block's last
                a, b = (x >> (lo + 2 * n)) & mask, (x >> (lo + n)) & mask
                x ^= mul_raw(a, b, p) << lo
            return x
        a, b, c = x >> (2 * n), (x >> n) & mask, x & mask
        if kind == "pi1" or (kind == "pi3" and not a & 1):
            return x ^ mul_raw(a, b, p)
        if kind in ("pi2", "pi3"):
            return x ^ (mul_raw(a, c, p) << n)
        # bothmix, (a, b, c) -> (a, a*b + c, a*c + b): word 1 gains a*b + b + c
        # and word 2 gains a*c + b + c
        return x ^ ((mul_raw(a, b, p) ^ b ^ c) << n) ^ mul_raw(a, c, p) ^ b ^ c

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
                self._inverse = self._table_inverse()
            return self._inverse[y]
        if kind == "bothmix":
            return self._bothmix_invert(y)
        return self.apply_packed(y)

    def _table_inverse(self) -> tuple[int, ...]:
        """The inverse table, scattered in one numpy pass; a table with a
        repeated output raises with the first collision as witness."""
        import numpy as np

        size = len(self.table)
        inv = np.full(size, -1, dtype=np.int64)
        inv[np.array(self.table, dtype=np.int64)] = np.arange(size)
        if (inv < 0).any():  # size entries left a slot empty: a collision
            x0, x = _first_collision(self)
            raise NotAPermutationError(
                f"table is not bijective: output {self.table[x]:#x} has "
                f"two preimages",
                witness=(x0, x),
            )
        return tuple(inv.tolist())

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

    Scans every input in ascending packed order, a block at a time
    (:func:`_first_collision`); on the first repeated output the report
    carries that input and its earlier preimage as the witness.
    """
    bits = spec.domain_bits
    if bits > budget_bits:
        raise BudgetError(
            f"{bits}-bit domain exceeds the {budget_bits}-bit exhaustive "
            f"budget; spot-check with sampled eval/invert round trips instead",
            refused=1 << bits,
        )
    collision = _first_collision(spec)
    if collision is None:
        return BijectivityReport(True, 1 << bits, spec.n, spec.w)
    return BijectivityReport(False, collision[1] + 1, spec.n, spec.w, collision)


# --- whole-domain passes (numpy, imported per call; see the module docstring)

_BLOCK = 1 << 18  # inputs per block of a whole-domain pass


def _block_evaluator(spec: PermutationSpec):
    """Return ``outputs(start, stop)``: the images of the inputs
    ``start..stop-1`` as a numpy uint64 array. The pass's lookup is built
    once here: the table itself, or for the algebraic kinds the
    2^n x 2^n product table of the field (from ``mul_raw``), so each
    output is a gather plus the shifts and XORs of :meth:`apply_packed`."""
    import numpy as np

    kind, n, w = spec.kind, spec.n, spec.w
    if kind == "identity":
        return lambda start, stop: np.arange(start, stop, dtype=np.uint64)
    if kind in ("random", "table"):
        table = np.array(spec.table, dtype=np.uint64)
        return lambda start, stop: table[start:stop]
    p = spec.poly.poly
    words = range(1 << n)
    products = np.array([mul_raw(a, b, p) for a in words for b in words], dtype=np.uint64)
    mask = (1 << n) - 1

    def mul(a, b):
        return products[(a << n) | b]

    def outputs(start, stop):
        x = np.arange(start, stop, dtype=np.uint64)
        if kind == "piw":
            for i in range(0, w - w % 3, 3):
                lo = n * (w - 3 - i)  # shift of word i + 2, the block's last
                a, b = (x >> (lo + 2 * n)) & mask, (x >> (lo + n)) & mask
                x ^= mul(a, b) << lo
            return x
        a, b, c = x >> (2 * n), (x >> n) & mask, x & mask
        if kind == "pi1":
            return x ^ mul(a, b)
        if kind == "pi2":
            return x ^ (mul(a, c) << n)
        if kind == "pi3":
            return x ^ np.where(a & 1, mul(a, c) << n, mul(a, b))
        # bothmix: word 1 gains a*b + b + c and word 2 gains a*c + b + c
        return x ^ ((mul(a, b) ^ b ^ c) << n) ^ mul(a, c) ^ b ^ c

    return outputs


def _first_collision(spec: PermutationSpec) -> tuple[int, int] | None:
    """The first input ``x`` in ascending order whose output an earlier
    input ``x0`` already had, as ``(x0, x)``; None for a bijection.

    ``owner`` holds, per output, one plus the input that produced it (0:
    not yet seen). A block is clean when none of its outputs had an owner
    and each output reads back its own input after the scatter. Only the
    block holding the first repeat is walked point by point; ``x0`` is
    unique there because no collision comes before ``x``.
    """
    import numpy as np

    size = 1 << spec.domain_bits
    outputs = _block_evaluator(spec)
    owner = np.zeros(size, dtype=np.uint32 if spec.domain_bits < 32 else np.uint64)
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        ys = outputs(start, stop)
        tags = np.arange(start + 1, stop + 1, dtype=owner.dtype)
        earlier = owner[ys]
        owner[ys] = tags
        if not earlier.any() and (owner[ys] == tags).all():
            continue
        first = {}
        for x, y, tag in zip(range(start, stop), ys.tolist(), earlier.tolist()):
            if tag:
                return (tag - 1, x)
            if y in first:
                return (first[y], x)
            first[y] = x
        raise AssertionError("collision flagged but preimage not found")
    return None


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
    import numpy as np

    digits = _hex_digits(bits)
    size = 1 << bits
    outputs = _block_evaluator(spec)
    hex_chars = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    shifts = np.arange(4 * (digits - 1), -1, -4, dtype=np.uint64)  # high nibble first
    with open(path, "wb") as fh:
        fh.write(f"condlab-table v1 n={spec.n} w={spec.w}\n".encode())
        for start in range(0, size, _BLOCK):
            ys = outputs(start, min(start + _BLOCK, size))
            lines = np.empty((len(ys), digits + 1), dtype=np.uint8)
            lines[:, :digits] = hex_chars[(ys[:, None] >> shifts) & 15]
            lines[:, digits] = ord("\n")
            fh.write(lines.tobytes())


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
