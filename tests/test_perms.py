"""Permutation construction tests: formulas, bijectivity, tables, files."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import condlab.perms as perms
from condlab.errors import (
    BudgetError,
    NotAPermutationError,
    ShapeError,
    TableFormatError,
    UnsupportedDegreeError,
)
from condlab.gf2n import FieldElement, ReductionPolynomial, default_poly, mul_raw
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

from scan_oracle import (
    first_collision_scan,
    table_file_bytes,
    table_file_entries,
    table_inverse,
)

NAMED = ("identity", "pi1", "pi2", "pi3", "piw")
ROOT = Path(__file__).resolve().parents[1]


def _spec(kind, n, w=3):
    if kind == "identity":
        return PermutationSpec.identity(n, w)
    if kind == "piw":
        return PermutationSpec.piw(n, w)
    return PermutationSpec(kind, n, 3)


def test_packing_round_trip():
    for value in range(64):
        words = unpack_words(value, 2, 3)
        assert pack_words(words, 2) == value
        built, unpacked = WordVector(words, 2), WordVector.from_packed(value, 2, 3)
        assert built == unpacked and hash(built) == hash(unpacked)
        assert built.packed() == unpacked.packed() == value
        for vec in (built, unpacked):
            assert (vec.words, vec.n, vec.w) == (words, 2, 3)
            assert type(vec.words) is tuple and {type(wd) for wd in vec.words} == {int}
            assert type(vec.packed()) is int
    assert pack_words((1, 2, 3), 4) == 0x123
    assert WordVector((1, 2, 3), 4).packed() == 0x123
    assert WordVector.from_packed(0x123, 4, 3).words == (1, 2, 3)
    # the same packed int is another point under another n or w
    assert WordVector((1, 2, 3), 2) != WordVector((1, 2, 3), 3)
    assert WordVector.from_packed(0x1b, 2, 3) != WordVector.from_packed(0x1b, 2, 4)
    assert WordVector((1, 2, 3), 2) != (1, 2, 3)
    assert len({WordVector((1, 2, 3), 2), WordVector.from_packed(0x1b, 2, 3),
                WordVector((0, 1, 2, 3), 2), WordVector((1, 2, 3), 3)}) == 3
    assert repr(WordVector((1, 2, 3), 2)) == "WordVector(words=(1, 2, 3), n=2)"
    assert repr(WordVector.from_packed(5, 3, 1)) == "WordVector(words=(5,), n=3)"
    vec = WordVector((1, 2, 3), 2)
    for name, value in (("words", (0, 0, 0)), ("n", 3), ("w", 2), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(vec, name, value)
    assert (vec.words, vec.n, vec.w) == ((1, 2, 3), 2, 3)


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


def _closed_form(kind, a, b, c, poly):
    """The image words of (a, b, c), with every product from mul_raw."""
    ab, ac = mul_raw(a, b, poly), mul_raw(a, c, poly)
    if kind == "pi3":
        kind = "pi2" if a & 1 else "pi1"
    if kind == "pi1":
        return (a, b, c ^ ab)
    if kind == "pi2":
        return (a, b ^ ac, c)
    return (a, ab ^ c, ac ^ b)  # bothmix


@pytest.mark.parametrize("kind", ["pi1", "pi2", "pi3", "bothmix"])
def test_apply_packed_closed_form_exhaustive(kind):
    # both operand types of the shared formula: one int per point, and the
    # numpy block of a whole-domain pass
    for n in (1, 2, 3, 4):
        spec = PermutationSpec(kind, n, 3)
        poly = default_poly(n).poly
        want = [pack_words(_closed_form(kind, a, b, c, poly), n)
                for a, b, c in itertools.product(range(1 << n), repeat=3)]
        assert [spec.apply_packed(x) for x in range(1 << (3 * n))] == want, n
        assert perms._block_evaluator(spec)(0, 1 << (3 * n)).tolist() == want, n


def _spec_id(spec):
    return f"{spec.kind}-n{spec.n}-w{spec.w}"


@pytest.mark.parametrize("n", range(1, 9))
def test_the_numpy_product_table_equals_mul_raw(n):
    p = default_poly(n).poly
    want = [mul_raw(a, b, p) for a in range(1 << n) for b in range(1 << n)]
    assert perms._field_products(n, p).tolist() == want


@pytest.mark.parametrize("spec", [PermutationSpec(kind, n, 3) for kind in
                                  ("pi1", "pi2", "pi3", "bothmix") for n in (5, 6, 7, 8)]
                         + [PermutationSpec.piw(2, 12)], ids=_spec_id)
def test_blocks_past_n4_equal_apply_packed_at_the_first_middle_and_last(spec):
    size = 1 << spec.domain_bits
    outputs = perms._block_evaluator(spec)
    blocks = range(0, size, perms._BLOCK)
    for start in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
        stop = min(start + perms._BLOCK, size)
        want = [spec.apply_packed(x) for x in range(start, stop)]
        assert outputs(start, stop).tolist() == want, start


@pytest.mark.parametrize("spec", [
    PermutationSpec.identity(3, 3), random_table(5, 3, 3),
    PermutationSpec.explicit(random_table(6, 3, 2).table, 3, 2),
    *(PermutationSpec(kind, 3, 3) for kind in ("pi1", "pi2", "pi3", "bothmix")),
    PermutationSpec.piw(2, 5)], ids=_spec_id)
def test_blocks_hold_intp_the_index_dtype_numpy_uses_directly(spec):
    import numpy as np

    assert perms._block_evaluator(spec)(8, 40).dtype == np.intp


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


# --- large tables: drawn and checked in numpy, the same as below the threshold ---


def _numpy_shuffled(seed, size):
    return list(perms._swapped_range(perms._shuffle_swaps(seed, size)))


def _python_shuffled(seed, size):
    table = list(range(size))
    random.Random(seed).shuffle(table)
    return table


@pytest.mark.parametrize("seed", [0, 5, -7, 2 ** 40 + 3, "abc"])
def test_the_numpy_draw_equals_random_shuffle_at_every_size(seed):
    for bits in range(17):
        assert _numpy_shuffled(seed, 1 << bits) == _python_shuffled(seed, 1 << bits), bits


@pytest.mark.parametrize("draw_words", [1, 5, 64])
def test_the_numpy_draw_carries_words_across_chunks(monkeypatch, draw_words):
    # runs of steps that span many chunks, and chunks that span runs
    monkeypatch.setattr(perms, "_DRAW_WORDS", draw_words)
    for seed, size in ((1, 2), (2, 3), (3, 100), (4, 1 << 10), (5, 5000)):
        assert _numpy_shuffled(seed, size) == _python_shuffled(seed, size)


@pytest.mark.parametrize("seed, n, w, digest", [
    (3, 6, 3, "daa69ee5dc7589665d67760b96d7e262eb684a428ddb8ba85408b43fe7e8c6ab"),
    (11, 5, 4, "ebcc3d5b24267a7a9989b9d92caade86859c85a5cd641b7c779f3016f10a5c46"),
])
def test_large_random_table_digests_are_pinned(seed, n, w, digest):
    # both tables are drawn in numpy; the digests are random.shuffle's
    assert 1 << n * w >= perms._NUMPY_TABLE_SIZE
    assert random_table(seed, n, w).digest() == digest


def _table_fault(entries, bits):
    # no pytest.raises: its ExceptionInfo, kept in this frame, would keep
    # the fault walk's frame and its dict of every entry alive
    try:
        PermutationSpec.explicit(entries, bits, 1)
    except NotAPermutationError as exc:
        return str(exc), exc.witness
    raise AssertionError("the table was accepted")


@pytest.mark.parametrize("bits", [4, 18, 19])
@pytest.mark.parametrize("fault", ["early repeat", "late repeat", "size", "2^63",
                                   "2^64 - 1", "not an int"])
def test_large_table_faults_are_named_as_below_the_threshold(monkeypatch, bits, fault):
    # the same faulty table through the numpy check, then the set check
    size = 1 << bits
    if size < perms._NUMPY_TABLE_SIZE:
        monkeypatch.setattr(perms, "_NUMPY_TABLE_SIZE", size)
    entries = list(range(size))
    if fault == "early repeat":
        entries[7] = 2
    elif fault == "late repeat":
        entries[size - 2] = size - 1
    elif fault == "size":
        entries[size // 3] = size
    elif fault == "2^63":  # the first entry an int64 view reads as negative
        entries[size // 3] = 2 ** 63
    elif fault == "2^64 - 1":  # an int64 view would read it as index -1
        entries[size // 3] = 2 ** 64 - 1
    else:
        entries[size - 1] = float(size - 1)
    covers, checked = perms._covers_range, []
    monkeypatch.setattr(perms, "_covers_range",
                        lambda table: checked.append(len(table)) or covers(table))
    found = _table_fault(entries, bits)
    # an entry no array("Q") holds is named before either check runs
    assert checked == ([] if fault == "not an int" else [size])
    monkeypatch.setattr(perms, "_NUMPY_TABLE_SIZE", 2 * size)  # the set path
    assert _table_fault(entries, bits) == found
    expected = {
        "early repeat": ("inputs 0x2 and 0x7 map to the same output 0x2", (2, 7)),
        "late repeat": (f"inputs {size - 2:#x} and {size - 1:#x} map to the same "
                        f"output {size - 1:#x}", (size - 2, size - 1)),
        "size": (f"table value {size:#x} out of range", None),
        "2^63": ("table value 0x8000000000000000 out of range", None),
        "2^64 - 1": ("table value 0xffffffffffffffff out of range", None),
        "not an int": (f"table value {float(size - 1)!r} is not an int", None),
    }
    assert found == expected[fault]


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


@pytest.mark.parametrize("fields", ["n=+1 w=0_1", "n=\u0661 w=1", "n=1 w=\uff11", "n= w=1"])
def test_table_headers_read_ascii_digits_only(fields, tmp_path):
    path = tmp_path / "t.tbl"
    path.write_text(f"condlab-table v1 {fields}\n1\n0\n", encoding="utf-8")
    with pytest.raises(TableFormatError) as exc:
        load_table_file(path)
    header = f"condlab-table v1 {fields}"
    assert (str(exc.value), exc.value.line) == (f"line 1: bad header fields in {header!r}", 1)


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
    with pytest.raises(ShapeError):
        spec.invert(WordVector.from_packed(0, 2, 4))
    for refused in (lambda: WordVector((), 2), lambda: WordVector.from_packed(0, 2, 0)):
        with pytest.raises(ShapeError) as exc:
            refused()
        assert str(exc.value) == "a word vector needs at least one word"
    for word in (4, -1, 1 << 70):
        with pytest.raises(ShapeError) as exc:
            WordVector((1, word, 1), 2)
        assert str(exc.value) == f"word {word:#x} does not fit in 2 bits"
    assert WordVector((True, 0, 1), 1) == WordVector((1, 0, 1), 1)


@pytest.mark.parametrize("make, error, message", [
    (lambda: PermutationSpec("pi9", 2, 3), ValueError, "unknown permutation kind 'pi9'"),
    (lambda: PermutationSpec("pi1", 0, 3), UnsupportedDegreeError,
     "field degree must be in 1..64, got 0"),
    (lambda: PermutationSpec("pi1", 65, 3), UnsupportedDegreeError,
     "field degree must be in 1..64, got 65"),
    # every other holder of a degree refuses it in the same words
    (lambda: PermutationSpec.identity(0, 2), UnsupportedDegreeError,
     "field degree must be in 1..64, got 0"),
    (lambda: PermutationSpec.identity(65, 2), UnsupportedDegreeError,
     "field degree must be in 1..64, got 65"),
    (lambda: FieldElement(0, 0), UnsupportedDegreeError, "field degree must be in 1..64, got 0"),
    (lambda: FieldElement(0, 65), UnsupportedDegreeError,
     "field degree must be in 1..64, got 65"),
    (lambda: ReductionPolynomial(0, 1), UnsupportedDegreeError,
     "field degree must be in 1..64, got 0"),
    (lambda: ReductionPolynomial(65, 1 << 65 | 1), UnsupportedDegreeError,
     "field degree must be in 1..64, got 65"),
    (lambda: default_poly(0), UnsupportedDegreeError, "field degree must be in 1..64, got 0"),
    (lambda: default_poly(65), UnsupportedDegreeError, "field degree must be in 1..64, got 65"),
    (lambda: default_poly(3.0), UnsupportedDegreeError,
     "field degree must be in 1..64, got 3.0"),
    (lambda: PermutationSpec.identity(2, 0), ShapeError, "w must be at least 1"),
    (lambda: PermutationSpec("random", 2, 2), ValueError, "random spec needs a table"),
    (lambda: PermutationSpec("identity", 1, 2, table=[0, 1, 2, 3]), ValueError,
     "identity spec does not take a table"),
    (lambda: PermutationSpec.explicit(range(7), 1, 3), NotAPermutationError,
     "table has 7 entries, expected 8"),
], ids=["kind", "n0", "n65", "identity-n0", "identity-n65", "element-n0", "element-n65",
        "modulus-n0", "modulus-n65", "default-poly-n0", "default-poly-n65",
        "default-poly-float", "w0", "random-without-table", "identity-with-table",
        "short-table"])
def test_spec_construction_refusals(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [-1, 64, 1 << 70])
def test_from_packed_refuses_a_value_outside_the_domain(value):
    with pytest.raises(ShapeError) as exc:
        WordVector.from_packed(value, 2, 3)
    assert str(exc.value) == f"packed value {value:#x} does not fit in 3 words of 2 bits"


def test_words_are_read_as_ints_and_others_refused_at_construction():
    import numpy as np

    vec = WordVector((True, np.int64(2), np.uint8(3)), 2)
    assert vec == WordVector((1, 2, 3), 2)
    assert {type(wd) for wd in vec.words} == {int} and type(vec.packed()) is int
    assert PermutationSpec.pi1(2).eval(vec).words == (1, 2, 3 ^ 2)
    for word in (1.0, "1", None):
        with pytest.raises(ShapeError) as exc:
            WordVector((word, 1, 1), 2)
        assert str(exc.value) == f"word {word!r} is not an int"


def test_eval_and_invert_outputs_are_pinned(tmp_path):
    path = tmp_path / "t.tbl"
    write_table_file(random_table(8, 4, 3), path)
    specs = ([PermutationSpec.identity(5, 4)]
             + [PermutationSpec(kind, n, 3) for kind in ("pi1", "pi2", "pi3", "bothmix")
                for n in (5, 61)]
             + [PermutationSpec.piw(n, w) for n in (3, 61) for w in range(4, 8)]
             + [random_table(7, 3, 3), load_table_file(path)])
    h = hashlib.sha256()
    for spec in specs:
        rng = random.Random(f"{spec.kind}/{spec.n}/{spec.w}")
        for _ in range(40):
            x = WordVector(tuple(rng.randrange(1 << spec.n) for _ in range(spec.w)), spec.n)
            if spec.kind == "bothmix" and x.words[0] == 1:
                continue  # the collapsed plane has no unique preimage
            y, back = spec.eval(x), spec.invert(x)
            assert spec.invert(y) == x == spec.eval(back)
            h.update(f"{spec.kind} {spec.n} {x.words} {y.words} {back.words}\n".encode())
    assert h.hexdigest() == (
        "315ca4390d6872965305a636e5018c20c9670229d25d29901d828b4c585e9fdc")


def test_verify_budget_error_suggests_sampling():
    spec = PermutationSpec.piw(5, 6)  # 30-bit domain
    with pytest.raises(BudgetError) as exc:
        verify_bijective(spec)
    assert "sampled" in str(exc.value)


def test_prime_degree_flag():
    assert not PermutationSpec.pi1(3).assumes_prime_degree
    assert PermutationSpec.pi1(4).assumes_prime_degree
    assert not PermutationSpec.identity(4, 3).assumes_prime_degree


def test_table_check_names_the_first_fault_in_input_order():
    with pytest.raises(NotAPermutationError) as exc:
        PermutationSpec.explicit([0, 9, 1, 1], 1, 2)
    assert str(exc.value) == "table value 0x9 out of range"
    with pytest.raises(NotAPermutationError) as exc:
        PermutationSpec.explicit([2, 2, -1, 0], 1, 2)
    assert str(exc.value) == "inputs 0x0 and 0x1 map to the same output 0x2"
    assert exc.value.witness == (0, 1)


# --- whole-domain passes against the per-point oracle ---------------------------

TRIPLE = ("identity", "pi1", "pi2", "pi3", "bothmix")
PIW_SHAPES = ((1, 3), (1, 7), (1, 12), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
              (2, 9), (3, 6))
RANDOM_SHAPES = ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 2), (4, 2, 5))


def _oracle_specs():
    specs = [PermutationSpec(kind, n, 3) for kind in TRIPLE for n in range(1, 6)]
    specs += [PermutationSpec.piw(n, 3) for n in range(1, 6)]
    specs += [PermutationSpec.piw(n, w) for n, w in PIW_SHAPES]
    specs += [random_table(*shape) for shape in RANDOM_SHAPES]
    return specs


def _report_tuple(spec):
    r = verify_bijective(spec)
    return r.bijective, r.checked, r.collision


@pytest.mark.parametrize("spec", _oracle_specs(),
                         ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_verify_bijective_equals_per_point_scan(spec):
    assert _report_tuple(spec) == first_collision_scan(spec)


@pytest.mark.parametrize("block", [8, 16])
def test_bothmix_witness_across_and_inside_blocks(monkeypatch, block):
    # (65, 72) = ((1,0,1), (1,1,0)) at n = 3: blocks of 8 put the two in
    # neighbouring blocks, blocks of 16 put both in [64, 80)
    monkeypatch.setattr(perms, "_BLOCK", block)
    spec = PermutationSpec.bothmix(3)
    assert _report_tuple(spec) == (False, 73, (65, 72))
    assert _report_tuple(spec) == first_collision_scan(spec)


def test_small_blocks_equal_per_point_scan(monkeypatch):
    monkeypatch.setattr(perms, "_BLOCK", 8)
    specs = [PermutationSpec(kind, 2, 3) for kind in TRIPLE]
    specs += [PermutationSpec.piw(1, 7), random_table(5, 2, 3)]
    for spec in specs:
        assert _report_tuple(spec) == first_collision_scan(spec)
    # a repeat inside one block, and a repeat of an output from an earlier block
    for table, witness in (([1, 0, 3, 3] + list(range(4, 16)), (2, 3)),
                           (list(range(15)) + [2], (2, 15))):
        spec = PermutationSpec.explicit(range(16), 2, 2)
        spec.table = tuple(table)  # past the constructor's check
        assert _report_tuple(spec) == first_collision_scan(spec) == (False, witness[1] + 1, witness)


@pytest.mark.parametrize("block", [perms._BLOCK, 8])
def test_table_file_bytes_equal_per_line_format(tmp_path, monkeypatch, block):
    monkeypatch.setattr(perms, "_BLOCK", block)
    specs = [PermutationSpec(kind, n, 3) for kind in TRIPLE for n in (1, 2, 3)]
    specs += [PermutationSpec.piw(2, 4), PermutationSpec.piw(1, 5),
              PermutationSpec.identity(1, 1), random_table(3, 3, 3)]
    path = tmp_path / "t.tbl"
    for spec in specs:
        write_table_file(spec, path)
        assert path.read_bytes() == table_file_bytes(spec)


def test_table_inverse_equals_per_point_inverse():
    pi2 = PermutationSpec.pi2(2)
    for spec in (random_table(7, 3, 3), random_table(8, 1, 1),
                 PermutationSpec.explicit([pi2.apply_packed(x) for x in range(64)], 2, 3)):
        want = table_inverse(spec.table)
        assert tuple(spec.invert_packed(y) for y in range(len(spec.table))) == want
        assert list(spec._inverse) == list(want) and type(spec._inverse) is array


def test_table_inverse_of_a_non_bijection_names_the_first_collision():
    table = list(range(64))
    table[10], table[50] = 40, 3
    spec = PermutationSpec.explicit(range(64), 2, 3)
    spec.table = tuple(table)  # past the constructor's check
    with pytest.raises(NotAPermutationError) as exc:
        spec.invert_packed(0)
    assert exc.value.witness == first_collision_scan(spec)[2] == (10, 40)
    assert str(exc.value) == "table is not bijective: output 0x28 has two preimages"


# --- free words and the table digest ---------------------------------------------


FREE_WORD_SPECS = (
    [PermutationSpec(kind, n, 3) for kind in ("pi1", "pi2", "pi3", "bothmix")
     for n in (2, 3)]
    + [PermutationSpec.identity(n, w) for n, w in ((2, 3), (3, 3), (2, 5))]
    + [PermutationSpec.piw(2, w) for w in range(3, 9)]
    + [PermutationSpec.piw(3, w) for w in (3, 4)]
    + [random_table(8, 2, 3), PermutationSpec.explicit(random_table(9, 3, 2).table, 3, 2)]
)


def _carries_word(outputs, n, w, word):
    """Whether f(x ^ m) == f(x) ^ m for every x and every m held in ``word``."""
    shift = n * (w - 1 - word)
    for m in range(1, 1 << n):
        mask = m << shift
        if any(outputs[x ^ mask] != y ^ mask for x, y in enumerate(outputs)):
            return False
    return True


@pytest.mark.parametrize("spec", FREE_WORD_SPECS,
                         ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_free_words_are_exactly_the_words_carried_additively(spec):
    # listed words must be carried, and no other word may be: the second
    # half catches a declaration that is too small
    outputs = [spec.apply_packed(x) for x in range(1 << spec.domain_bits)]
    carried = tuple(i for i in range(spec.w) if _carries_word(outputs, spec.n, spec.w, i))
    assert spec.free_words == carried


def test_free_words_of_each_kind():
    assert PermutationSpec.identity(5, 4).free_words == (0, 1, 2, 3)
    assert PermutationSpec.pi1(11).free_words == (2,)
    assert PermutationSpec.pi2(11).free_words == (1,)
    assert PermutationSpec.piw(5, 8).free_words == (2, 5, 6, 7)
    assert PermutationSpec.piw(5, 9).free_words == (2, 5, 8)
    for spec in (PermutationSpec.pi3(5), PermutationSpec.bothmix(5), random_table(1, 2, 2)):
        assert spec.free_words == ()


SHEAR_SPECS = [spec for n in (2, 5) for spec in (
    [PermutationSpec.identity(n, w) for w in range(1, 5)]
    + [PermutationSpec.pi1(n), PermutationSpec.pi2(n)]
    + [PermutationSpec.piw(n, w) for w in range(3, 9)])]


@pytest.mark.parametrize("spec", SHEAR_SPECS, ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_shear_declaration_moves_no_word_a_product_reads(spec):
    shears = perms._shears(spec.kind, spec.w)
    moved = [m for m, _, _ in shears]
    factors = {i for _, a, b in shears for i in (a, b)}
    assert len(set(moved)) == len(moved)
    assert not factors & set(moved)
    assert spec.read_words == tuple(sorted(factors))
    assert spec.free_words == tuple(i for i in range(spec.w) if i not in factors)
    assert sorted(spec.free_words + spec.read_words) == list(range(spec.w))


def test_non_shears_have_no_free_words():
    for spec in (PermutationSpec.pi3(5), PermutationSpec.bothmix(5), random_table(1, 2, 2),
                 PermutationSpec.explicit(range(8), 1, 3)):
        assert perms._shears(spec.kind, spec.w) is None
        assert (spec.free_words, spec.read_words) == ((), tuple(range(spec.w)))


def _per_entry_digest(spec):
    """The table digest as one hash update per entry."""
    h = hashlib.sha256()
    h.update(f"{spec.kind}/{spec.n}/{spec.w}".encode())
    if spec.seed is not None:
        h.update(f"/s{spec.seed}".encode())
    h.update(b"/t")
    for y in spec.table:
        h.update(y.to_bytes((spec.domain_bits + 7) // 8, "big"))
    return h.hexdigest()


@pytest.mark.parametrize("n, w", [(5, 1), (3, 3), (4, 4), (5, 4)])
def test_table_digest_equals_the_per_entry_hash(n, w):
    seeded = random_table(3, n, w)
    assert seeded.digest() == _per_entry_digest(seeded)
    explicit = PermutationSpec.explicit(seeded.table[::-1], n, w)
    assert explicit.digest() == _per_entry_digest(explicit)


def test_table_digest_is_pinned():
    assert random_table(3, 5, 1).digest() == (
        "5ba76db936de9cf50c2280d8e41f853da1848ce637561ccbb55c6af4595d5f52")


@pytest.mark.parametrize("spec, digest", [
    (PermutationSpec.identity(3, 7),
     "7d47a946d4e55364901eddb7856e74514109bcd5fa14aefad65e6736fdfd25ad"),
    (PermutationSpec.pi1(3), "e9ff440e5472bd519c59995287c7a11d8e578c891e65df31b3b4496a54255fa9"),
    (PermutationSpec.pi2(3), "9dab7ebbc21ccaf212348a12b07d1076229178c158b92f4ab1afd2b8bddc8a02"),
    (PermutationSpec.pi3(3), "23b515aa79705bf03e3a14ea4e10f6ae5df28026f6e1b72ea0cbe27246378d83"),
    (PermutationSpec.piw(3, 7),
     "17d7055abf242e325c235dc51bf70aa9c6e24df2a4f101c38a8bc5e34d002aa2"),
    (PermutationSpec.bothmix(3),
     "e07293f2aa8e5bdd3d975ab9e47d5559c9c9abad096243a8c40d9b30a6d9e394"),
    (random_table(3, 3, 3), "3e84af7261db0a47c6b264ed12d8644a8a6131aa2432e77844a724cb9cd4f0ac"),
], ids=["identity", "pi1", "pi2", "pi3", "piw", "bothmix", "random"])
def test_spec_digests_are_pinned(spec, digest):
    # a checkpoint file names its spec by this digest, modulus included
    assert spec.digest() == digest


# --- one packed array per table, and the bulk load of table files ---------------


def test_every_table_is_one_packed_array(tmp_path):
    path = tmp_path / "t.tbl"
    write_table_file(PermutationSpec.pi1(2), path)
    specs = [random_table(4, 2, 3), PermutationSpec.explicit([1, 0, 3, 2], 1, 2),
             PermutationSpec.explicit(range(8), 1, 3),
             PermutationSpec.explicit(array("Q", [3, 2, 1, 0]), 2, 1),
             PermutationSpec("table", 1, 1, table=(1, 0)), load_table_file(path)]
    for spec in specs:
        assert type(spec.table) is array and spec.table.typecode == "Q"
        spec.invert_packed(0)
        assert type(spec._inverse) is array and spec._inverse.typecode == "Q"
        assert type(spec.apply_packed(1)) is int and type(spec.invert_packed(1)) is int


def test_a_table_over_the_exhaustive_budget_is_refused_at_construction():
    with pytest.raises(BudgetError) as exc:
        PermutationSpec.explicit([0], 5, 5)
    assert str(exc.value) == "a table over a 25-bit domain exceeds the 24-bit budget"
    assert exc.value.refused == 1 << 25


def test_explicit_copies_its_array():
    entries = array("Q", [3, 2, 1, 0])
    spec = PermutationSpec.explicit(entries, 2, 1)
    entries[0] = 2
    assert list(spec.table) == [3, 2, 1, 0]


@pytest.mark.parametrize("table, message", [
    ([0, 1, 2 ** 64, 3], "table value 0x10000000000000000 out of range"),
    ([0, -1, 2, 3], "table value -0x1 out of range"),
    ([-1, 2, 2, 0], "table value -0x1 out of range"),
    ([1, 1, 2 ** 64, 0], "inputs 0x0 and 0x1 map to the same output 0x1"),
    ([0, 1, 2.0, 3], "table value 2.0 is not an int"),
])
def test_entries_no_packed_array_holds_name_the_first_fault(table, message):
    with pytest.raises(NotAPermutationError) as exc:
        PermutationSpec.explicit(table, 1, 2)
    assert str(exc.value) == message


def _bulk_shapes():
    specs = [PermutationSpec.identity(n, w) for n in range(1, 10) for w in range(1, 10 // n)]
    specs += [PermutationSpec(kind, n, 3) for kind in TRIPLE[1:] for n in (1, 2, 3)]
    specs += [PermutationSpec.piw(1, w) for w in range(3, 10)]
    specs += [PermutationSpec.piw(2, 3), PermutationSpec.piw(2, 4), PermutationSpec.piw(3, 3)]
    specs += [random_table(seed, n, w) for seed, (n, w) in enumerate(
        ((1, 1), (1, 5), (2, 2), (3, 2), (4, 2), (9, 1), (1, 9)))]
    return specs


@pytest.mark.parametrize("spec", _bulk_shapes(), ids=lambda s: f"{s.kind}-n{s.n}-w{s.w}")
def test_written_files_decode_in_bulk_equal_to_their_spec(spec, tmp_path):
    path = tmp_path / "t.tbl"
    write_table_file(spec, path)
    body = path.read_text().partition("\n")[2]
    bulk = perms._decode_canonical_body(body, spec.domain_bits)
    want = [spec.apply_packed(x) for x in range(1 << spec.domain_bits)]
    assert bulk is not None and list(bulk) == want
    assert perms._parse_body_lines(body, spec.domain_bits) == want
    if spec.kind == "bothmix":
        with pytest.raises(NotAPermutationError) as exc:
            load_table_file(path)
        assert exc.value.witness == verify_bijective(spec).collision
    else:
        loaded = load_table_file(path)
        assert list(loaded.table) == want == table_file_entries(path)[2]
        assert (loaded.n, loaded.w) == (spec.n, spec.w)


CANONICAL = "condlab-table v1 n=2 w=3\n" + "".join(
    f"{PermutationSpec.pi3(2).apply_packed(x):02x}\n" for x in range(64))


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.upper().replace("CONDLAB-TABLE V1 N=2 W=3", "condlab-table v1 n=2 w=3"),
    lambda t: t.replace("\n0", "\n\n0"),
    lambda t: t + "\n\n",
    lambda t: t.replace("\n", " \n\t"),
    lambda t: t.replace("\n", "\r"),
    lambda t: t.replace("n=2 w=3", " n=2  w=3 "),
    lambda t: t[:-1],
    # the canonical length, with every newline one column early
    lambda t: t.replace("\n", "\n\n", 1)[:-1],
], ids=["crlf", "upper", "blank", "trailing-blank", "spaces", "cr", "header-spaces",
        "no-final-newline", "shifted-newlines"])
def test_non_canonical_files_load_as_the_line_walk_reads_them(edit, tmp_path):
    path = tmp_path / "t.tbl"
    path.write_bytes(edit(CANONICAL).encode())
    loaded = load_table_file(path)
    assert (loaded.n, loaded.w, list(loaded.table)) == table_file_entries(path)
    assert list(loaded.table) == [PermutationSpec.pi3(2).apply_packed(x) for x in range(64)]


@pytest.mark.parametrize("last, message", [
    ("g", "line 9: not a hex value: 'g'"),
    ("9", "line 9: value 9 out of range"),
    ("G", "line 9: not a hex value: 'G'"),
    ("\u00e9", "line 9: not a hex value: '\u00e9'"),
])
def test_a_fault_on_the_last_canonical_line_names_it(last, message, tmp_path):
    path = tmp_path / "t.tbl"
    text = "condlab-table v1 n=1 w=3\n" + "".join(f"{y}\n" for y in range(7)) + last + "\n"
    path.write_text(text)
    with pytest.raises(ValueError) as want:
        table_file_entries(path)
    with pytest.raises(TableFormatError) as exc:
        load_table_file(path)
    assert str(exc.value) == str(want.value) == message and exc.value.line == 9


@pytest.mark.parametrize("field", ["0x1", "+02", "1_2", "-01", "0X1"])
def test_the_line_walk_reads_hex_digits_only(field, tmp_path):
    lines = [f"{PermutationSpec.pi1(3).apply_packed(x):03x}" for x in range(512)]
    lines[5] = f" {field}\r"
    path = tmp_path / "t.tbl"
    path.write_text("condlab-table v1 n=3 w=3\n" + "\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as exc:
        load_table_file(path)
    assert str(exc.value) == f"line 7: not a hex value: {field!r}"


@pytest.mark.parametrize("bits, body", [
    (6, "".join(f"{y:02x}\n" for y in range(63)) + "ff\n"),  # canonical length, out of range
    (6, "".join(f"{y:02x}\n" for y in range(64))[:-3] + "\n" + "0\n"),  # short last line
    (4, "".join(f"{y:x}\n" for y in range(15)) + "\n\n"),  # blank line for a value
])
def test_the_bulk_decode_passes_faults_to_the_line_walk(bits, body):
    assert perms._decode_canonical_body(body, bits) is None
    with pytest.raises(TableFormatError):
        perms._parse_body_lines(body, bits)


# the peak is the child's own VmHWM: unlike ru_maxrss, which a child
# started from pytest inherits through exec, it starts afresh with the
# child's address space
REACH_SCRIPT = """
import json, time
from condlab import PermutationSpec, verify_bijective

t0 = time.perf_counter()
report = verify_bijective(PermutationSpec.pi1(8))
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds, "rss_mb": hwm_kb / 1024,
                  "bijective": report.bijective, "checked": report.checked}))
"""


def test_24_bit_scan_is_fast_and_small():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", REACH_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bijective"] and seen["checked"] == 1 << 24
    assert seen["seconds"] < 20
    assert seen["rss_mb"] < 300
