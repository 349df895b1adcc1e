"""Arithmetic in the binary fields GF(2^n) for 1 <= n <= 64.

An element is an n-bit integer whose bit i is the coefficient of x^i.
Addition is XOR; multiplication is the carry-less polynomial product
reduced modulo a fixed irreducible polynomial. The default modulus for
each degree is the lexicographically smallest irreducible polynomial of
that degree (smallest as an integer with bit n set), so every result in
this package is reproducible bit for bit.

All operations are pure; the per-degree modulus cache is the only state
and is filled idempotently, so values are safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DegreeMismatchError, UnsupportedDegreeError

MAX_DEGREE = 64
SELFCHECK_SAMPLES = 2000  # triples a sampled selfcheck draws (inverses: at most 500)


def check_degree(n, exact: bool = False) -> None:
    """An UnsupportedDegreeError unless n is in 1..MAX_DEGREE (and an int if ``exact``)."""
    if exact and not isinstance(n, int) or not 1 <= n <= MAX_DEGREE:
        raise UnsupportedDegreeError(f"field degree must be in 1..{MAX_DEGREE}, got {n!r}")


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials held in ints."""
    acc = 0
    while a:
        if a & 1:
            acc ^= b
        a >>= 1
        b <<= 1
    return acc


def clmod(a: int, m: int) -> int:
    """Remainder of a modulo m under carry-less division (m != 0)."""
    mb = m.bit_length()
    shift = a.bit_length() - mb
    while shift >= 0:
        a ^= m << shift
        shift = a.bit_length() - mb
    return a


def mul_raw(a: int, b: int, poly: int) -> int:
    """Field product of raw int elements; no validation (hot path)."""
    return clmod(clmul(a, b), poly)


def _clgcd(a: int, b: int) -> int:
    while b:
        a, b = b, clmod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Trial-division primality check (parameters here stay tiny)."""
    return _prime_factors(n) == [n]


def is_irreducible(poly: int) -> bool:
    """Exact irreducibility test for a GF(2) polynomial of degree >= 1.

    Frobenius criterion: f of degree n is irreducible iff
    x^(2^n) == x (mod f) and, for every prime p dividing n,
    gcd(x^(2^(n/p)) - x, f) = 1.
    """
    n = poly.bit_length() - 1
    if n < 1:
        return False
    x_red = clmod(2, poly)
    t = x_red
    for _ in range(n):
        t = mul_raw(t, t, poly)
    if t != x_red:
        return False
    for p in _prime_factors(n):
        t = x_red
        for _ in range(n // p):
            t = mul_raw(t, t, poly)
        if _clgcd(t ^ x_red, poly) != 1:
            return False
    return True


@dataclass(frozen=True)
class ReductionPolynomial:
    """An irreducible degree-n modulus for GF(2^n).

    ``poly`` is an (n+1)-bit integer with bit n set. Irreducibility is
    verified at construction time.
    """

    n: int
    poly: int

    def __post_init__(self):
        check_degree(self.n)
        if self.poly.bit_length() - 1 != self.n:
            raise ValueError(
                f"modulus {self.poly:#x} does not have degree {self.n}"
            )
        if not is_irreducible(self.poly):
            raise ValueError(f"modulus {self.poly:#x} is reducible")


@functools.lru_cache(maxsize=None)
def default_poly(n: int) -> ReductionPolynomial:
    """The lexicographically smallest irreducible degree-n modulus, cached."""
    check_degree(n, exact=True)
    for cand in range(1 << n, 1 << (n + 1)):
        if is_irreducible(cand):
            return ReductionPolynomial(n, cand)
    raise AssertionError(f"no irreducible polynomial of degree {n}")


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(2^n); ``bits`` holds the coefficient vector."""

    bits: int
    n: int

    def __post_init__(self):
        check_degree(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(
                f"value {self.bits:#x} does not fit in {self.n} bits"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return gf_add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        # operator form uses the pinned default modulus for the degree
        return gf_mul(self, other, default_poly(self.n))

    def __int__(self) -> int:
        return self.bits


def _check_degrees(a: FieldElement, b: FieldElement, p: ReductionPolynomial | None = None):
    if a.n != b.n or (p is not None and p.n != a.n):
        degs = f"{a.n} vs {b.n}" if p is None else f"{a.n}, {b.n}, modulus {p.n}"
        raise DegreeMismatchError(f"mismatched field degrees: {degs}")


def gf_add(a: FieldElement, b: FieldElement) -> FieldElement:
    """Field addition: bitwise XOR of the operands."""
    _check_degrees(a, b)
    return FieldElement(a.bits ^ b.bits, a.n)


def gf_mul(a: FieldElement, b: FieldElement, p: ReductionPolynomial) -> FieldElement:
    """Field multiplication: carry-less product reduced modulo p."""
    _check_degrees(a, b, p)
    return FieldElement(mul_raw(a.bits, b.bits, p.poly), a.n)


def gf_pow(a: FieldElement, e: int, p: ReductionPolynomial) -> FieldElement:
    """a raised to a nonnegative integer power, by square and multiply."""
    _check_degrees(a, a, p)
    acc, base = 1, a.bits
    while e:
        if e & 1:
            acc = mul_raw(acc, base, p.poly)
        base = mul_raw(base, base, p.poly)
        e >>= 1
    return FieldElement(acc, a.n)


def gf_inv(a: FieldElement, p: ReductionPolynomial) -> FieldElement:
    """Multiplicative inverse via a^(2^n - 2); diagnostics only."""
    if a.bits == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return gf_pow(a, (1 << a.n) - 2, p)


def selfcheck(n: int, seed: int = 0) -> dict:
    """Run field axiom checks for degree n and return a summary dict.

    Exhaustive over all triples for n <= 5, seeded sampling beyond that.
    A violated axiom raises AssertionError explicitly, so the checks also
    run under python -O.
    """
    import itertools
    import random

    p = default_poly(n)
    size = 1 << n

    def mul(a, b):
        return mul_raw(a, b, p.poly)

    if n <= 5:
        triples = itertools.product(range(size), repeat=3)
        mode = "exhaustive"
        total = size ** 3
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(size), rng.randrange(size), rng.randrange(size))
            for _ in range(SELFCHECK_SAMPLES)
        )
        mode = "sampled"
        total = SELFCHECK_SAMPLES

    checked = 0
    for a, b, c in triples:
        if not (
            (a ^ b) ^ c == a ^ (b ^ c)
            and mul(mul(a, b), c) == mul(a, mul(b, c))
            and mul(a, b) == mul(b, a)
            and mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
            and mul(a, 1) == a and a ^ 0 == a and mul(a, 0) == 0
        ):
            raise AssertionError(
                f"field axiom fails for n={n} at a={a:#x}, b={b:#x}, c={c:#x}"
            )
        checked += 1

    inv_checked = 0
    if n <= 5:
        nonzero = range(1, size)
    else:
        rng = random.Random(seed + 1)
        nonzero = (rng.randrange(1, size) for _ in range(min(SELFCHECK_SAMPLES, 500)))
    for a in nonzero:
        inv = gf_inv(FieldElement(a, n), p).bits
        if mul(a, inv) != 1:
            raise AssertionError(f"inverse of {a:#x} fails for n={n}")
        inv_checked += 1

    return {
        "n": n,
        "poly": p.poly,
        "mode": mode,
        "triples_checked": checked,
        "triples_total": total,
        "inverses_checked": inv_checked,
        "ok": True,
    }
