"""Permutations of ({0,1}^n)^w: named constructions, tables, and files.

A point of the domain is a WordVector of w field elements of degree n.
Like every point inside, it is held as one packed integer, word 0 most
significant, its words unpacked only when read; that keeps table lookups,
scans and round trips cheap and gives one pinned ordering everywhere.

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

Arithmetic is GF(2^n) under the pinned default modulus of the degree.

identity, pi1, pi2 and piw are shears, declared once in ``_shears`` as
one ``(moved, factor, factor)`` word triple per product XOR-ed in, no
product reading a word that one moves. A spec stores their bit shifts,
which ``_forward`` runs in one loop, and its ``free_words``: the words
no product reads (every word of identity, none of pi3, bothmix or a
table), which the map carries additively, ``f(x ^ m) == f(x) ^ m`` for
every m held only in them. A box image evaluates the map once per
combination of the other sides (``read_words``) and XORs in every
combination of the free sides. pi3 and bothmix keep their expressions
in ``_forward``; each expression serves one point and a numpy block.

Single points go through ``apply_packed`` and ``invert_packed``, which
``eval`` and ``invert`` hand a WordVector's packed int, in pure Python,
each product from ``mul_raw``. The passes over the whole domain are the
only places numpy loads, each importing it when it runs:
``verify_bijective``, ``write_table_file`` and the inverse of a table,
which evaluate int64 numpy blocks of ascending inputs (a product is
gathered from the field's product table, built in numpy) and index with
them; the bulk load of a table file; and drawing (``random_table``) and
checking (``_packed_table``) a table of at least ``_NUMPY_TABLE_SIZE``
(2^18) entries. So the per-point layers above (box images, the
searches, the condenser) and the smaller tables never load it.

A ``random`` or ``table`` spec, refused past the 24-bit exhaustive
budget, holds its 2^(nw) outputs, and its lazy inverse, as one
``array("Q")``: a lookup returns a Python int, and the whole-domain
passes read the same buffer as numpy without a copy.
"""

from __future__ import annotations

import hashlib
import io
import operator
import random
import sys
from array import array
from dataclasses import dataclass, field

from .errors import (
    PRINTABLE_DIGITS,
    BudgetError,
    NotAPermutationError,
    ShapeError,
    TableFormatError,
)
from .gf2n import MAX_DEGREE, ReductionPolynomial, check_degree, default_poly, is_prime, mul_raw

EXHAUSTIVE_BUDGET_BITS = 24


def _check_domain_bits(bits: int, task: str, tail: str = "budget") -> None:
    """Refuse a whole-domain pass over more than ``EXHAUSTIVE_BUDGET_BITS``
    input bits; ``task`` and ``tail`` frame the refusal's message."""
    if bits > EXHAUSTIVE_BUDGET_BITS:
        # past 4 * PRINTABLE_DIGITS bits the count is too long to print
        # (BudgetError drops it) and can be too large to build at all
        refused = 1 << bits if bits <= 4 * PRINTABLE_DIGITS else None
        raise BudgetError(f"{task}{bits}-bit domain exceeds the "
                          f"{EXHAUSTIVE_BUDGET_BITS}-bit {tail}",
                          refused=refused)

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


@dataclass(frozen=True, init=False, repr=False)
class WordVector:
    """A point of ({0,1}^n)^w, held as its packed int; ``words``, its raw
    n-bit field elements, are unpacked on read."""

    _packed: int
    n: int
    w: int

    def __init__(self, words, n: int):
        if len(words) < 1:
            raise ShapeError("a word vector needs at least one word")
        limit, packed = 1 << n, 0
        for wd in words:
            try:
                wd = operator.index(wd)
            except TypeError:
                raise ShapeError(f"word {wd!r} is not an int") from None
            if not 0 <= wd < limit:
                raise ShapeError(f"word {wd:#x} does not fit in {n} bits")
            packed = (packed << n) | wd
        self.__dict__.update(_packed=packed, n=n, w=len(words))  # frozen: past __setattr__

    @property
    def words(self) -> tuple[int, ...]:
        return unpack_words(self._packed, self.n, self.w)

    def packed(self) -> int:
        return self._packed

    def __repr__(self) -> str:
        return f"WordVector(words={self.words}, n={self.n})"

    @classmethod
    def from_packed(cls, value: int, n: int, w: int) -> "WordVector":
        value = operator.index(value)
        if w < 1:
            raise ShapeError("a word vector needs at least one word")
        if not 0 <= value < 1 << (n * w):
            raise ShapeError(f"packed value {value:#x} does not fit in {w} words of {n} bits")
        vec = cls.__new__(cls)
        vec.__dict__.update(_packed=value, n=n, w=w)
        return vec


@dataclass
class PermutationSpec:
    """Symbolic description of a mapping on {0,1}^(w*n).

    Treat instances as immutable after construction; the only mutation is
    the idempotent lazy inverse table for table-backed kinds.
    """

    kind: str
    n: int
    w: int
    poly: ReductionPolynomial | None = field(default=None, init=False)
    seed: int | None = None
    table: array | None = None
    _inverse: array | None = field(default=None, init=False, repr=False, compare=False)
    _shifts: tuple | None = field(init=False, repr=False, compare=False)
    free_words: tuple[int, ...] = field(init=False, repr=False, compare=False)
    read_words: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown permutation kind {self.kind!r}")
        check_degree(self.n)
        if self.kind in TRIPLE_KINDS and self.w != 3:
            raise ShapeError(f"{self.kind} requires w == 3, got w={self.w}")
        if self.kind == "piw" and self.w < 3:
            raise ShapeError(f"piw requires w >= 3, got w={self.w}")
        if self.w < 1:
            raise ShapeError("w must be at least 1")
        if self.kind in _PRIME_SENSITIVE:
            self.poly = default_poly(self.n)
        if self.kind in ("random", "table"):
            if self.table is None:
                raise ValueError(f"{self.kind} spec needs a table")
            _check_domain_bits(self.domain_bits, "a table over a ")
            self.table = _packed_table(self.table, self.domain_bits)
        elif self.table is not None:
            raise ValueError(f"{self.kind} spec does not take a table")
        shears = _shears(self.kind, self.w)
        read = range(self.w) if shears is None else {i for s in shears for i in s[1:]}
        self.free_words = tuple(i for i in range(self.w) if i not in read)
        self.read_words = tuple(sorted(read))
        self._shifts = None if shears is None else tuple(
            tuple(self.n * (self.w - 1 - i) for i in s) for s in shears)

    @property
    def domain_bits(self) -> int:
        return self.n * self.w

    @property
    def assumes_prime_degree(self) -> bool:
        """True when the construction's guarantees assume a prime n that
        the current degree does not satisfy."""
        return self.kind in _PRIME_SENSITIVE and not is_prime(self.n)

    def digest(self) -> str:
        """Stable content digest used by checkpoint files. A table is
        hashed as each entry's ceil(nw/8) big-endian bytes, in one update."""
        h = hashlib.sha256()
        h.update(f"{self.kind}/{self.n}/{self.w}".encode())
        if self.poly is not None:
            h.update(f"/p{self.poly.poly:x}".encode())
        if self.seed is not None:
            h.update(f"/s{self.seed}".encode())
        if self.table is not None:
            h.update(b"/t")
            h.update(_big_endian_entries(self.table, (self.domain_bits + 7) // 8))
        return h.hexdigest()

    # --- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, n: int, w: int) -> "PermutationSpec":
        return cls("identity", n, w)

    @classmethod
    def pi1(cls, n: int) -> "PermutationSpec":
        return cls("pi1", n, 3)

    @classmethod
    def pi2(cls, n: int) -> "PermutationSpec":
        return cls("pi2", n, 3)

    @classmethod
    def pi3(cls, n: int) -> "PermutationSpec":
        return cls("pi3", n, 3)

    @classmethod
    def piw(cls, n: int, w: int) -> "PermutationSpec":
        return cls("piw", n, w)

    @classmethod
    def bothmix(cls, n: int) -> "PermutationSpec":
        return cls("bothmix", n, 3)

    @classmethod
    def explicit(cls, table, n: int, w: int) -> "PermutationSpec":
        """A table spec from the 2^(nw) outputs in input order (a list,
        range, ``array`` or any other sized sequence of ints), copied."""
        return cls("table", n, w, table=table)

    # --- evaluation ------------------------------------------------------

    def apply_packed(self, x: int) -> int:
        """Forward map on a packed point of the domain."""
        kind = self.kind
        if kind == "identity":
            return x
        if kind in ("random", "table"):
            return self.table[x]
        return _forward(self, x, mul_raw, self.poly.poly)

    def invert_packed(self, y: int) -> int:
        """Preimage of a packed point. identity/pi1/pi2/pi3/piw are their
        own inverses: no product reads the word it moves (pi3: in neither
        branch, and both keep the selector word a), so a second pass XORs
        the products back out. bothmix is inverted separately and has no
        inverse on its a = 1 plane."""
        kind = self.kind
        if kind in ("random", "table"):
            if self._inverse is None:
                self._inverse = self._table_inverse()
            return self._inverse[y]
        if kind == "bothmix":
            return self._bothmix_invert(y)
        return self.apply_packed(y)

    def _table_inverse(self) -> array:
        """The inverse table, scattered in one numpy pass (indexed by the
        table's int64 view) straight into its array; a table with a
        repeated output raises with the first collision as witness."""
        import numpy as np

        size = len(self.table)
        inverse = array("Q", [size]) * size  # size marks a slot no input reached
        slots = np.frombuffer(inverse, dtype=np.uint64)
        slots[_block_evaluator(self)(0, size)] = np.arange(size, dtype=np.uint64)
        if (slots == size).any():  # size entries left a slot empty: a collision
            x0, x = _first_collision(self)
            raise NotAPermutationError(
                f"table is not bijective: output {self.table[x]:#x} has "
                f"two preimages",
                witness=(x0, x),
            )
        return inverse

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
        return WordVector.from_packed(self.apply_packed(x._packed), self.n, self.w)

    def invert(self, y: WordVector) -> WordVector:
        self._check_shape(y)
        return WordVector.from_packed(self.invert_packed(y._packed), self.n, self.w)

    def _check_shape(self, x: WordVector):
        if x.n != self.n or x.w != self.w:
            raise ShapeError(
                f"point has shape (n={x.n}, w={x.w}), spec expects "
                f"(n={self.n}, w={self.w})"
            )


def _shears(kind: str, w: int) -> tuple[tuple[int, int, int], ...] | None:
    """The products a shear kind XORs in, one ``(moved word, factor word,
    factor word)`` triple each, no product reading a word that one moves;
    None for pi3 and bothmix, whose products read every word, and for
    the tables."""
    if kind == "identity":
        return ()
    if kind == "pi1":
        return ((2, 0, 1),)
    if kind == "pi2":
        return ((1, 0, 2),)
    if kind == "piw":  # pi1 on each aligned block; trailing words pass
        return tuple((i + 2, i, i + 1) for i in range(0, w - w % 3, 3))
    return None


def _forward(spec: PermutationSpec, x, mul, p):
    """The forward map of an algebraic kind on ``x``: one packed point as
    an int, or a numpy int64 array of them. Words are read by shift and
    mask, and each product ``mul(a, b, p)`` is XOR-ed into its word's
    place; the same expressions serve both operand types."""
    n, shifts = spec.n, spec._shifts
    mask = (1 << n) - 1
    if shifts is not None:
        for moved, a, b in shifts:
            x ^= mul((x >> a) & mask, (x >> b) & mask, p) << moved
        return x
    a, b, c = x >> (2 * n), (x >> n) & mask, x & mask
    if spec.kind == "pi3":
        # the low bit of a picks the rule: a*b into word 2 (pi1) when it
        # is 0, a*c into word 1 (pi2) when it is 1, without a branch
        odd = a & 1
        return x ^ (mul(a, b ^ (b ^ c) * odd, p) << (n * odd))
    # bothmix, (a, b, c) -> (a, a*b + c, a*c + b): word 1 gains a*b + b + c
    # and word 2 gains a*c + b + c
    return x ^ ((mul(a, b, p) ^ b ^ c) << n) ^ mul(a, c, p) ^ b ^ c


def _big_endian_entries(table: array, width: int) -> bytearray:
    """The entries of ``table`` as ``width`` big-endian bytes each, in
    order: a byteswapped copy of the array, whose low ``width`` bytes per
    entry are gathered one byte column at a time."""
    words = array("Q", table)
    if sys.byteorder == "little":
        words.byteswap()
    raw = words.tobytes()
    size = words.itemsize
    out = bytearray(width * len(words))
    for j in range(width):
        out[j::width] = raw[size - width + j::size]
    return out


def _packed_table(entries, bits: int) -> array:
    """``entries`` copied into one ``array("Q")``, which must be a
    permutation of ``range(2^bits)`` (:func:`_covers_range`). Only a table
    that fails, or holds a value no ``array("Q")`` can, is walked for its
    first fault in input order."""
    size = 1 << bits
    if len(entries) != size:
        raise NotAPermutationError(f"table has {len(entries)} entries, expected {size}")
    try:
        table = array("Q", entries)
    except (TypeError, OverflowError):
        _raise_first_fault(entries, size)
    if not _covers_range(table):
        _raise_first_fault(table, size)
    return table


def first_repeat(pairs) -> tuple[int, int] | None:
    """The first ``(x0, x)`` over ``(input, output)`` pairs in input order
    where x's output is the one an earlier input x0 had; None when no
    output repeats. Every check that names a collision walks it."""
    first = {}
    for x, y in pairs:
        if y in first:
            return first[y], x
        first[y] = x
    return None


def _raise_first_fault(entries, size: int):
    """Raise for the first entry, in input order, that is not an int,
    lies outside ``range(size)`` or repeats an earlier entry."""
    def checked(y):
        try:
            y = operator.index(y)
        except TypeError:
            raise NotAPermutationError(f"table value {y!r} is not an int") from None
        if not 0 <= y < size:
            raise NotAPermutationError(f"table value {y:#x} out of range")
        return y

    pair = first_repeat(enumerate(map(checked, entries)))  # lazy: faults come in input order
    if pair is None:
        raise AssertionError("table check failed but no fault found")
    raise NotAPermutationError(f"inputs {pair[0]:#x} and {pair[1]:#x} map to the same "
                               f"output {checked(entries[pair[1]]):#x}", witness=pair)


def random_table(seed: int, n: int, w: int) -> PermutationSpec:
    """A uniformly random permutation table: ``range(2^(nw))`` after
    ``random.Random(seed).shuffle``, a Fisher-Yates shuffle on the
    Mersenne Twister; same seed, same table. From ``_NUMPY_TABLE_SIZE``
    entries up the same shuffle is drawn in numpy
    (:func:`_shuffle_swaps`, :func:`_swapped_range`), which gives the
    same table."""
    bits = n * w
    _check_domain_bits(bits, "random table over ")
    size = 1 << bits
    if size >= _NUMPY_TABLE_SIZE:
        table = _swapped_range(_shuffle_swaps(seed, size))
    else:
        table = array("Q", range(size))
        random.Random(seed).shuffle(table)
    return PermutationSpec("random", n, w, seed=seed, table=table)


@dataclass(frozen=True)
class BijectivityReport:
    """Outcome of an exhaustive bijectivity scan."""

    bijective: bool
    checked: int
    collision: tuple[int, int] | None  # two packed inputs, same output
    n: int
    w: int


def verify_bijective(spec: PermutationSpec) -> BijectivityReport:
    """Exhaustively decide whether ``spec`` is a bijection, over at most
    ``EXHAUSTIVE_BUDGET_BITS`` input bits, as every whole-domain pass.

    Scans every input in ascending packed order, a block at a time
    (:func:`_first_collision`); on the first repeated output the report
    carries that input and its earlier preimage as the witness.
    """
    bits = spec.domain_bits
    _check_domain_bits(bits, "", "exhaustive budget; spot-check with sampled "
                       "eval/invert round trips instead")
    collision = _first_collision(spec)
    checked = 1 << bits if collision is None else collision[1] + 1
    return BijectivityReport(collision is None, checked, collision, spec.n, spec.w)


# --- whole-domain passes (numpy, imported per call; see the module docstring)

# inputs per block of a whole-domain pass: its int64 arrays are 128 KiB,
# small enough that the C allocator hands a block's temporaries on to the
# next block instead of mapping them afresh, a page fault per 4 KiB page
_BLOCK = 1 << 14


def _block_evaluator(spec: PermutationSpec):
    """Return ``outputs(start, stop)``: the images of the inputs
    ``start..stop-1`` as a numpy int64 (``intp``) array: numpy indexes
    with intp directly, where it casts and checks a uint64 index entry
    by entry, and every value is below 2^24 under the exhaustive budget.
    The pass's lookup is built once here: the table itself (an int64
    view of its array), or for the algebraic kinds the field's product
    table (:func:`_field_products`), which :func:`_forward` reads by
    gather in place of each product."""
    import numpy as np

    n = spec.n
    if spec.kind == "identity":
        return lambda start, stop: np.arange(start, stop, dtype=np.int64)
    if spec.kind in ("random", "table"):
        table = np.asarray(spec.table, dtype=np.uint64).view(np.int64)
        return lambda start, stop: table[start:stop]
    products = _field_products(n, spec.poly.poly)

    def gather(a, b, table):
        return table[(a << n) | b]

    return lambda start, stop: _forward(
        spec, np.arange(start, stop, dtype=np.int64), gather, products
    )


def _field_products(n: int, p: int):
    """The products of GF(2^n) under modulus ``p``, as a flat int64 array
    whose entry ``a << n | b`` is ``a*b``, built by linearity in b: column
    ``a*x^i`` for every a is the last one times x, and the products with
    every b below 2^(i+1) are those below 2^i, each XOR-ed with it."""
    import numpy as np

    size = 1 << n
    products = np.zeros((size, size), dtype=np.int64)
    column = np.arange(size, dtype=np.int64)  # a*x^0
    for i in range(n):
        half = 1 << i
        products[:, half:2 * half] = products[:, :half] ^ column[:, None]
        column = column << 1
        column ^= (column >> n) * p  # reduce: clear bit n with the modulus
    return products.reshape(-1)


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
    owner = np.zeros(size, dtype=np.uint32)
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        ys = outputs(start, stop)
        tags = np.arange(start + 1, stop + 1, dtype=owner.dtype)
        earlier = owner[ys]
        owner[ys] = tags
        if not earlier.any() and (owner[ys] == tags).all():
            continue
        # the block's first repeat, unless an earlier block's output comes back first
        pair = first_repeat(zip(range(start, stop), ys.tolist()))
        tagged = np.flatnonzero(earlier)
        if len(tagged) and (pair is None or start + tagged[0] < pair[1]):
            pair = (int(earlier[tagged[0]]) - 1, start + int(tagged[0]))
        return pair
    return None


# Tables of at least this many entries are drawn (random_table) and checked
# (_packed_table) in numpy; smaller ones never import it. Measured in fresh
# interpreters on a 2-core x86-64 host (CPython 3.11, numpy 2.4), medians
# of 11: random.shuffle of 2^17 entries took 0.077 s against a numpy
# import of 0.072 s plus the numpy draw's 0.024 s, and of 2^18 entries
# 0.132 s against 0.064 + 0.040 s.
_NUMPY_TABLE_SIZE = 1 << 18

# Mersenne Twister words drawn at a time by _shuffle_swaps
_DRAW_WORDS = 1 << 16


def _covers_range(table: array) -> bool:
    """Whether ``table`` holds every value of ``range(len(table))``: its
    largest entry is below its length and no entry repeats, counted by a
    set below ``_NUMPY_TABLE_SIZE`` entries, else by one scatter into a
    numpy bool array through an int64 view of the entries, once they are
    in range (the view reads an entry of 2^63 or more as negative)."""
    size = len(table)
    if size < _NUMPY_TABLE_SIZE:
        return max(table) < size and len(set(table)) == size
    import numpy as np

    values = np.frombuffer(table, dtype=np.uint64)
    if values.max() >= size:
        return False
    seen = np.zeros(size, dtype=bool)
    seen[values.view(np.int64)] = True
    return bool(seen.all())


def _shuffle_swaps(seed, size: int):
    """The swaps of ``random.Random(seed).shuffle`` over ``size`` entries,
    as a numpy uint64 array whose entry i is ``j << 32 | i``: step i
    swaps entries i and j, for i from size-1 down to 1 (entry 0 is 0).

    The words are CPython's: ``getrandbits(32 * m)`` of
    ``random.Random(seed)`` holds its next m 32-bit words, the first
    drawn least significant (numpy's MT19937 would give the same words,
    but importing ``numpy.random`` adds about 6 MB). Step i draws
    ``_randbelow(i + 1)``: the top k bits of one word, k =
    (i + 1).bit_length() (at most 25 within the exhaustive budget),
    drawn again while they are at least i + 1. In a run of steps sharing k, starting at step ``top - 1``, a
    word belongs to step ``top - 1 - c`` where c counts the words
    accepted before it, and is accepted when below ``top - c``; so
    ``c = exclusive_cumsum(word < top - c)``. c at a word depends only on
    the words before it, so that fixpoint is unique, and iterating from
    c = 0 reaches it (after t passes, the first t words are right).
    Words are drawn ``_DRAW_WORDS`` at a time; those left after a run's
    last step start the next run.
    """
    import numpy as np

    rng = random.Random(seed)
    swaps = np.zeros(size, dtype=np.uint64)
    top, words = size, ()
    while top > 1:
        k = top.bit_length()
        left = top - (1 << (k - 1)) + 1  # steps from top - 1 down that draw k bits
        if not len(words):
            words = np.frombuffer(rng.getrandbits(32 * _DRAW_WORDS).to_bytes(
                4 * _DRAW_WORDS, "little"), dtype="<u4")
        # a run takes under 2 words a step on average; reading no further
        # keeps each fixpoint pass short
        chunk = words[:2 * left + 64]
        draws = (chunk >> (32 - k)).astype(np.int32)
        taken = draws < top
        while True:
            c = np.cumsum(taken, dtype=np.int32) - taken
            again = draws < top - c
            if (again == taken).all():
                break
            taken = again
        hits = np.flatnonzero(taken)[:left]
        m = len(hits)
        steps = np.arange(top - m, top, dtype=np.uint64)
        swaps[top - m:top] = draws[hits[::-1]].astype(np.uint64) << np.uint64(32) | steps
        # a chunk's words after its last hit retry the next step: in this
        # run when the run goes on, else in the next
        words = words[hits[-1] + 1 if m == left else len(chunk):]
        top -= m
    return swaps


def _swapped_range(swaps) -> array:
    """``range(len(swaps))`` after the swaps of :func:`_shuffle_swaps`,
    run from the last step down, as an ``array("Q")``; ``swaps`` is
    sorted in place and overwritten.

    Sorted by j, then i, the steps that swap with one entry j come in
    the reverse of the order they run in. Step i leaves in entry i what
    entry j holds then: ``held`` of the next step above i among entry
    j's steps, else j itself, where ``held[p]`` is what entry p holds
    when step p runs. ``held`` is read only at steps p with j < p, and
    only steps above such a p swap with entry p: the first of them,
    ``up[p]``, last brought in ``held[up[p]]``, and with none entry p
    still holds p (``up[p] = p``). As ``up[p] > p`` otherwise, pointer
    jumping resolves ``held = held[up]``.
    """
    import numpy as np

    size = len(swaps)
    swaps.sort()
    halves = swaps.view(np.uint32).reshape(size, 2)
    low = 0 if sys.byteorder == "little" else 1
    step, entry = halves[:, low], halves[:, 1 - low]
    # up[j]: the first of entry j's steps, unless that is step j itself
    first = step != entry
    first[1:] &= entry[1:] != entry[:-1]
    up = np.arange(size, dtype=np.uint32)
    up[entry[first]] = step[first]
    del first
    up = up[up]
    live = np.flatnonzero(up[up] != up)  # about 1 in 8 after one jump
    while len(live):
        hop = up[up[live]]
        up[live] = hop
        live = live[up[hop] != hop]
    # up now holds held; entry becomes each step's output
    same = entry[1:] == entry[:-1]
    np.copyto(entry[:-1], up[step[1:]], where=same)
    del up, same
    table = array("Q", [0]) * size
    out = np.frombuffer(table, dtype=np.uint64)
    for start in range(0, size, _BLOCK):
        out[step[start:start + _BLOCK]] = entry[start:start + _BLOCK]
    return table


# --- permutation table files ---------------------------------------------
#
# Format: header line `condlab-table v1 n=<n> w=<w>`, then one line per
# input in ascending packed order holding the output as a hex string of
# ceil(w*n/4) digits.


_HEX = b"0123456789abcdef"  # the digits a table file is written in


def _hex_digits(bits: int) -> int:
    return -(-bits // 4)


def parse_hex(text: str) -> int:
    """``text`` as hex of the digits 0-9, a-f and A-F only, where
    ``int(text, 16)`` also takes a sign, ``0x``, ``_`` and non-ASCII digits."""
    if not text or text.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"{text!r} is not a hex value")
    return int(text, 16)


def parse_header(header: str, magic: str, names) -> list[int]:
    """The values of a ``<magic> v1 <name>=<value> ...`` header in the order
    of ``names``: positive ints in the ASCII digits 0-9 (``int()`` also
    takes a sign, ``_`` and non-ASCII digits), the first (n) at most
    ``MAX_DEGREE``, else a TableFormatError on line 1."""
    parts = header.split()
    if len(parts) != 2 + len(names) or parts[:2] != [magic, "v1"]:
        raise TableFormatError(f"bad header {header!r}", line=1)
    fields = [part.removeprefix(f"{name}=") for part, name in zip(parts[2:], names)]
    values = [int(f) if f.isascii() and f.isdigit() else 0 for f in fields]
    if min(values) < 1 or values[0] > MAX_DEGREE:
        raise TableFormatError(f"bad header fields in {header!r}", line=1)
    return values


def write_table_file(spec: PermutationSpec, path) -> None:
    bits = spec.domain_bits
    _check_domain_bits(bits, "exporting a ")
    import numpy as np

    digits = _hex_digits(bits)
    size = 1 << bits
    outputs = _block_evaluator(spec)
    hex_chars = np.frombuffer(_HEX, dtype=np.uint8)
    shifts = np.arange(4 * (digits - 1), -1, -4, dtype=np.int64)  # high nibble first
    with open(path, "wb") as fh:
        fh.write(f"condlab-table v1 n={spec.n} w={spec.w}\n".encode())
        for start in range(0, size, _BLOCK):
            ys = outputs(start, min(start + _BLOCK, size))
            lines = np.empty((len(ys), digits + 1), dtype=np.uint8)
            lines[:, :digits] = hex_chars[(ys[:, None] >> shifts) & 15]
            lines[:, digits] = ord("\n")
            fh.write(lines.tobytes())


def load_table_file(path) -> PermutationSpec:
    """Read a table file. The header's n*w is held to the exhaustive
    budget before the body is read. A body in exactly the form
    :func:`write_table_file` emits is decoded in one numpy pass; any
    other body is parsed a line at a time, which also names the line of
    a fault."""
    # an undecodable byte reads as U+FFFD, which no header or hex field accepts
    with open(path, errors="replace") as fh:
        n, w = parse_header(fh.readline().rstrip("\n"), "condlab-table", ("n", "w"))
        _check_domain_bits(n * w, "a table file over a ")
        body = fh.read()
    table = _decode_canonical_body(body, n * w)
    if table is None:
        table = _parse_body_lines(body, n * w)
    return PermutationSpec.explicit(table, n, w)


def _decode_canonical_body(body: str, bits: int) -> array | None:
    """The entries of a body of 2^bits lines of exactly ceil(bits/4)
    lowercase hex digits and a newline, all in range, decoded one digit
    column at a time; None for any other body."""
    digits, size = _hex_digits(bits), 1 << bits
    if len(body) != size * (digits + 1) or not body.isascii():
        return None
    import numpy as np

    rows = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(size, digits + 1)
    if not (rows[:, digits] == ord("\n")).all():
        return None
    nibble_of = np.full(256, 16, dtype=np.uint8)
    nibble_of[np.frombuffer(_HEX, dtype=np.uint8)] = np.arange(16)
    table = array("Q", [0]) * size
    values = np.frombuffer(table, dtype=np.uint64)
    for column in range(digits):  # high nibble first
        nibbles = nibble_of[rows[:, column].astype(np.intp)]  # numpy's direct index type
        if nibbles.max() > 15:
            return None
        values <<= 4
        values |= nibbles
    return table if values.max() < size else None


def _parse_body_lines(body: str, bits: int) -> list[int]:
    """The entries of a body one line at a time: blank lines are skipped,
    and each other line holds one hex value of ceil(bits/4) digits,
    surrounding whitespace allowed. A fault names its line."""
    digits, size = _hex_digits(bits), 1 << bits
    table = []
    for lineno, raw in enumerate(io.StringIO(body), start=2):
        text = raw.strip()
        if not text:
            continue
        if len(text) != digits:
            raise TableFormatError(
                f"expected {digits} hex digits, got {text!r}", line=lineno
            )
        try:
            y = parse_hex(text)
        except ValueError:
            raise TableFormatError(f"not a hex value: {text!r}", line=lineno)
        if y >= size:
            raise TableFormatError(f"value {text} out of range", line=lineno)
        table.append(y)
    if len(table) != size:
        raise TableFormatError(
            f"expected {size} entries, found {len(table)}"
        )
    return table
