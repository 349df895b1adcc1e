"""Field arithmetic tests against independent schoolbook oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.errors import DegreeMismatchError, UnsupportedDegreeError
from condlab.gf2n import (
    FieldElement,
    ReductionPolynomial,
    default_poly,
    gf_add,
    gf_inv,
    gf_mul,
    gf_pow,
    is_irreducible,
    is_prime,
    selfcheck,
)


# --- oracles: coefficient-list polynomial arithmetic, written from scratch ---


def schoolbook_mul(a: int, b: int, poly: int, n: int) -> int:
    """Convolution over GF(2) followed by long division by the modulus."""
    coeffs = [0] * (2 * n)
    for i in range(n):
        if (a >> i) & 1:
            for j in range(n):
                if (b >> j) & 1:
                    coeffs[i + j] ^= 1
    mod = [(poly >> i) & 1 for i in range(n + 1)]
    for d in range(2 * n - 1, n - 1, -1):
        if coeffs[d]:
            for i in range(n + 1):
                coeffs[d - n + i] ^= mod[i]
    return sum(bit << i for i, bit in enumerate(coeffs[:n]))


def irreducible_by_trial_division(f: int, n: int) -> bool:
    """Divide by every polynomial of degree 1..n//2, coefficient lists."""

    def remainder(num, den):
        num = list(num)
        dd = len(den) - 1
        for d in range(len(num) - 1, dd - 1, -1):
            if num[d]:
                for i in range(dd + 1):
                    num[d - dd + i] ^= den[i]
        return any(num[:dd])

    fl = [(f >> i) & 1 for i in range(n + 1)]
    for deg in range(1, n // 2 + 1):
        for g in range(1 << deg, 1 << (deg + 1)):
            gl = [(g >> i) & 1 for i in range(deg + 1)]
            if not remainder(fl, gl):
                return False
    return True


def smallest_irreducible(n: int) -> int:
    for cand in range(1 << n, 1 << (n + 1)):
        if irreducible_by_trial_division(cand, n):
            return cand
    raise AssertionError


# --- default modulus ---------------------------------------------------------


def test_default_poly_pinned_values():
    assert default_poly(2).poly == 0b111
    assert default_poly(3).poly == 0b1011


@pytest.mark.parametrize("n", range(1, 11))
def test_default_poly_matches_trial_division(n):
    assert default_poly(n).poly == smallest_irreducible(n)


@pytest.mark.parametrize("bad", [0, -3, 65])
def test_default_poly_rejects_bad_degrees(bad):
    with pytest.raises(UnsupportedDegreeError):
        default_poly(bad)


def test_reduction_polynomial_rejects_reducible():
    with pytest.raises(ValueError):
        ReductionPolynomial(2, 0b110)  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        ReductionPolynomial(3, 0b111)  # degree mismatch


def test_is_irreducible_agrees_with_trial_division_up_to_degree_8():
    for n in range(1, 9):
        for f in range(1 << n, 1 << (n + 1)):
            assert is_irreducible(f) == irreducible_by_trial_division(f, n), f


def test_is_prime_matches_the_definition():
    for n in range(-2, 200):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


# --- addition ----------------------------------------------------------------


def test_add_examples():
    a = FieldElement(0b101, 3)
    b = FieldElement(0b011, 3)
    assert gf_add(a, b).bits == 0b110
    for x in range(8):
        e = FieldElement(x, 3)
        assert gf_add(e, FieldElement(0, 3)) == e
        assert gf_add(e, e).bits == 0
    assert gf_add(a, b) == gf_add(b, a)


def test_add_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        gf_add(FieldElement(1, 2), FieldElement(1, 3))


# --- multiplication ------------------------------------------------------------


def test_mul_examples():
    p = default_poly(3)
    assert gf_mul(FieldElement(0b010, 3), FieldElement(0b011, 3), p).bits == 0b110
    for x in range(8):
        e = FieldElement(x, 3)
        assert gf_mul(e, FieldElement(1, 3), p) == e
        assert gf_mul(e, FieldElement(0, 3), p).bits == 0


def test_mul_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        gf_mul(FieldElement(1, 2), FieldElement(1, 3), default_poly(2))
    with pytest.raises(DegreeMismatchError):
        gf_mul(FieldElement(1, 2), FieldElement(1, 2), default_poly(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mul_matches_schoolbook_on_all_pairs(n):
    p = default_poly(n)
    for a in range(1 << n):
        for b in range(1 << n):
            got = gf_mul(FieldElement(a, n), FieldElement(b, n), p).bits
            assert got == schoolbook_mul(a, b, p.poly, n)


@pytest.mark.parametrize("n", [2, 3])
def test_field_axioms_exhaustive(n):
    p = default_poly(n)

    def mul(a, b):
        return gf_mul(FieldElement(a, n), FieldElement(b, n), p).bits

    for a, b, c in itertools.product(range(1 << n), repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inverse_exists_for_every_nonzero_exhaustive(n):
    p = default_poly(n)
    for a in range(1, 1 << n):
        inv = gf_inv(FieldElement(a, n), p)
        assert gf_mul(FieldElement(a, n), inv, p).bits == 1


@given(
    n=st.integers(min_value=6, max_value=16),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_inverse_exists_sampled(n, data):
    a = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    p = default_poly(n)
    inv = gf_inv(FieldElement(a, n), p)
    assert gf_mul(FieldElement(a, n), inv, p).bits == 1


@given(
    n=st.integers(min_value=2, max_value=16),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_ring_identities_sampled(n, data):
    top = (1 << n) - 1
    a = data.draw(st.integers(min_value=0, max_value=top))
    b = data.draw(st.integers(min_value=0, max_value=top))
    c = data.draw(st.integers(min_value=0, max_value=top))
    p = default_poly(n)

    def mul(x, y):
        return gf_mul(FieldElement(x, n), FieldElement(y, n), p).bits

    assert mul(a, b) == mul(b, a)
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, b) == schoolbook_mul(a, b, p.poly, n)


def test_pow_and_operator_sugar():
    p = default_poly(4)
    a = FieldElement(0b1010, 4)
    assert gf_pow(a, 0, p).bits == 1
    assert gf_pow(a, 3, p) == gf_mul(gf_mul(a, a, p), a, p)
    assert (a * FieldElement(1, 4)) == a  # operator uses the default modulus
    assert (a + a).bits == 0


def test_field_element_validation():
    with pytest.raises(ValueError):
        FieldElement(4, 2)
    with pytest.raises(UnsupportedDegreeError):
        FieldElement(0, 0)
    with pytest.raises(ZeroDivisionError):
        gf_inv(FieldElement(0, 3), default_poly(3))


def test_selfcheck_runs_both_modes():
    assert selfcheck(3)["mode"] == "exhaustive"
    report = selfcheck(9)
    assert report["mode"] == "sampled"
    assert report["ok"]
