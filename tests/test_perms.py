"""Permutation construction tests: formulas, bijectivity, tables, files."""

import itertools
import random

import pytest

from condlab.errors import (
    BudgetError,
    NotAPermutationError,
    ShapeError,
    TableFormatError,
)
from condlab.gf2n import default_poly, mul_raw
from condlab.perms import (
    PermutationSpec,
    WordVector,
    load_table_file,
    pack_words,
    random_table,
    unpack_words,
    verify_bijective,
    write_table_file,
)

NAMED = ("identity", "pi1", "pi2", "pi3", "piw")


def _spec(kind, n, w=3):
    if kind == "identity":
        return PermutationSpec.identity(n, w)
    if kind == "piw":
        return PermutationSpec.piw(n, w)
    return PermutationSpec(kind, n, 3)


def test_packing_round_trip():
    for value in range(64):
        assert pack_words(unpack_words(value, 2, 3), 2) == value
    assert pack_words((1, 2, 3), 4) == 0x123


def test_pi1_formula_examples():
    for n in (2, 3):
        spec = PermutationSpec.pi1(n)
        poly = default_poly(n).poly
        for a, b in itertools.product(range(1 << n), repeat=2):
            out = spec.eval(WordVector((a, b, 0), n))
            assert out.words == (a, b, mul_raw(a, b, poly))
        for b, c in itertools.product(range(1 << n), repeat=2):
            assert spec.eval(WordVector((0, b, c), n)).words == (0, b, c)


def test_pi2_formula():
    spec = PermutationSpec.pi2(3)
    poly = default_poly(3).poly
    for a, b, c in itertools.product(range(8), repeat=3):
        out = spec.eval(WordVector((a, b, c), 3))
        assert out.words == (a, b ^ mul_raw(a, c, poly), c)


@pytest.mark.parametrize("kind", ["pi1", "bothmix"])
def test_apply_packed_closed_form_exhaustive(kind):
    n = 3
    spec = PermutationSpec(kind, n, 3)
    poly = default_poly(n).poly
    for a, b, c in itertools.product(range(1 << n), repeat=3):
        ab, ac = mul_raw(a, b, poly), mul_raw(a, c, poly)
        want = (a, b, c ^ ab) if kind == "pi1" else (a, ab ^ c, ac ^ b)
        assert spec.apply_packed(pack_words((a, b, c), n)) == pack_words(want, n)


@pytest.mark.parametrize("n", [2, 3])
def test_pi3_branches_on_first_word_parity(n):
    pi1 = PermutationSpec.pi1(n)
    pi2 = PermutationSpec.pi2(n)
    pi3 = PermutationSpec.pi3(n)
    for x in range(1 << (3 * n)):
        first = unpack_words(x, n, 3)[0]
        expected = pi2.apply_packed(x) if first & 1 else pi1.apply_packed(x)
        assert pi3.apply_packed(x) == expected


def test_piw7_is_two_triples_and_a_passthrough():
    n = 2
    spec = PermutationSpec.piw(n, 7)
    pi1 = PermutationSpec.pi1(n)
    rng = random.Random(0)
    for _ in range(200):
        words = tuple(rng.randrange(4) for _ in range(7))
        out = spec.eval(WordVector(words, n)).words
        t1 = pi1.eval(WordVector(words[0:3], n)).words
        t2 = pi1.eval(WordVector(words[3:6], n)).words
        assert out == t1 + t2 + (words[6],)


@pytest.mark.parametrize("w", [3, 4, 5, 6, 7])
def test_piw_triples_and_trailing_words_exhaustive(w):
    n = 2
    spec = PermutationSpec.piw(n, w)
    pi1 = PermutationSpec.pi1(n)
    blocks = w - w % 3
    for x in range(1 << (n * w)):
        words = unpack_words(x, n, w)
        out = unpack_words(spec.apply_packed(x), n, w)
        for start in range(0, blocks, 3):
            triple = pi1.eval(WordVector(words[start:start + 3], n)).words
            assert out[start:start + 3] == triple
        assert out[blocks:] == words[blocks:]


@pytest.mark.parametrize("kind", NAMED)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_named_specs_bijective(kind, n):
    report = verify_bijective(_spec(kind, n))
    assert report.bijective
    assert report.checked == 1 << (3 * n)


@pytest.mark.parametrize("kind", NAMED + ("bothmix",))
def test_invert_round_trip_on_random_points(kind):
    n = 3
    spec = _spec(kind, n)
    rng = random.Random(1)
    for _ in range(100):
        y = WordVector(tuple(rng.randrange(8) for _ in range(3)), n)
        if kind == "bothmix" and y.words[0] == 1:
            continue  # the collapsed plane has no unique preimage
        x = spec.invert(y)
        assert spec.eval(x) == y


def test_pi1_inverse_formula():
    n = 3
    spec = PermutationSpec.pi1(n)
    poly = default_poly(n).poly
    for a, b, c in itertools.product(range(8), repeat=3):
        inv = spec.invert(WordVector((a, b, c), n))
        assert inv.words == (a, b, c ^ mul_raw(a, b, poly))


def test_identity_invert_is_identity():
    spec = PermutationSpec.identity(2, 4)
    for x in range(256):
        assert spec.invert_packed(x) == x


# --- the bothmix experiment --------------------------------------------------
#
# Oracle-first: exhaustive scans show the map collapses the plane where the
# first word is 1 (both tail outputs become b XOR c there), so it is NOT a
# bijection over GF(2^n) for any n; the frozen witnesses assert that truth.


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bothmix_is_not_bijective(n):
    spec = PermutationSpec.bothmix(n)
    report = verify_bijective(spec)
    assert not report.bijective
    a, b = report.collision
    assert spec.apply_packed(a) == spec.apply_packed(b)
    # the collapse happens on the first-word-1 plane
    assert unpack_words(a, n, 3)[0] == 1 == unpack_words(b, n, 3)[0]


def test_bothmix_collides_exactly_as_predicted():
    n = 3
    spec = PermutationSpec.bothmix(n)
    one_b_c = spec.apply_packed(pack_words((1, 0, 1), n))
    assert one_b_c == spec.apply_packed(pack_words((1, 1, 0), n))
    with pytest.raises(NotAPermutationError):
        spec.invert(WordVector((1, 1, 1), n))


def test_bothmix_bijective_away_from_the_collapsed_plane():
    n = 3
    spec = PermutationSpec.bothmix(n)
    seen = set()
    for a in range(8):
        if a == 1:
            continue
        for b, c in itertools.product(range(8), repeat=2):
            seen.add(spec.apply_packed(pack_words((a, b, c), n)))
    assert len(seen) == 7 * 64


# --- random and explicit tables ------------------------------------------------


def test_random_table_deterministic_and_bijective():
    t1 = random_table(42, 2, 2)
    t2 = random_table(42, 2, 2)
    assert t1.table == t2.table
    assert verify_bijective(t1).bijective


def test_random_tables_differ_across_seeds():
    assert random_table(0, 2, 2).table != random_table(1, 2, 2).table


def test_random_table_budget():
    with pytest.raises(BudgetError) as exc:
        random_table(0, 5, 5)
    assert exc.value.refused == 1 << 25


def test_explicit_table_rejects_non_bijection_with_witness():
    table = list(range(16))
    table[3] = 5
    table[5] = 5
    with pytest.raises(NotAPermutationError) as exc:
        PermutationSpec.explicit(table, 2, 2)
    assert exc.value.witness == (3, 5)


def test_explicit_table_round_trip_matches_formula_spec(tmp_path):
    spec = PermutationSpec.pi3(2)
    path = tmp_path / "pi3.tbl"
    write_table_file(spec, path)
    loaded = load_table_file(path)
    assert loaded.kind == "table"
    for x in range(64):
        assert loaded.apply_packed(x) == spec.apply_packed(x)
        assert loaded.invert_packed(x) == spec.invert_packed(x)


def test_table_file_header_and_line_errors(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("condlab-table v2 n=2 w=2\n")
    with pytest.raises(TableFormatError) as exc:
        load_table_file(bad)
    assert exc.value.line == 1

    bad.write_text("condlab-table v1 n=2 w=1\n0\n9\n2\n3\n")
    with pytest.raises(TableFormatError) as exc:
        load_table_file(bad)
    assert exc.value.line == 3  # out-of-range value on line 3


def test_shape_validation():
    with pytest.raises(ShapeError):
        PermutationSpec("pi1", 2, 4)
    with pytest.raises(ShapeError):
        PermutationSpec.piw(2, 2)
    spec = PermutationSpec.pi1(2)
    with pytest.raises(ShapeError):
        spec.eval(WordVector((1, 1), 2))
    with pytest.raises(ShapeError):
        spec.eval(WordVector((1, 1, 1), 3))


def test_verify_budget_error_suggests_sampling():
    spec = PermutationSpec.piw(5, 6)  # 30-bit domain
    with pytest.raises(BudgetError) as exc:
        verify_bijective(spec)
    assert "sampled" in str(exc.value)


def test_prime_degree_flag():
    assert not PermutationSpec.pi1(3).assumes_prime_degree
    assert PermutationSpec.pi1(4).assumes_prime_degree
    assert not PermutationSpec.identity(4, 3).assumes_prime_degree
