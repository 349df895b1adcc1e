"""Independent brute-force reference for the conductance maximum at n = 2.

Shares no code with the package under test: permutations arrive as plain
lookup tables or are rebuilt here from a hardcoded GF(4) multiplication
table, and the double loop over all (U, V) box pairs runs on bitmask
popcounts over the packed 4^w-point universe.
"""

from itertools import combinations, product

# GF(4) products modulo x^2 + x + 1; elements 0, 1, x=2, x+1=3
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def identity_table(w):
    return list(range(4 ** w))


def pi1_table():
    table = []
    for a, b, c in product(range(4), repeat=3):
        table.append((a << 4) | (b << 2) | (c ^ GF4_MUL[a][b]))
    return table


def pi2_table():
    table = []
    for a, b, c in product(range(4), repeat=3):
        table.append((a << 4) | ((b ^ GF4_MUL[a][c]) << 2) | c)
    return table


def piw4_table():
    """piw at w = 4: pi1 on words 0-2, word 3 passed through."""
    table = []
    for a, b, c, d in product(range(4), repeat=4):
        table.append((a << 6) | (b << 4) | ((c ^ GF4_MUL[a][b]) << 2) | d)
    return table


def pi3_table():
    table = []
    for a, b, c in product(range(4), repeat=3):
        if a & 1:
            table.append((a << 4) | ((b ^ GF4_MUL[a][c]) << 2) | c)
        else:
            table.append((a << 4) | (b << 2) | (c ^ GF4_MUL[a][b]))
    return table


def _pack(point, w):
    value = 0
    for word in point:
        value = (value << 2) | word
    return value


def _box_mask(sides, w):
    mask = 0
    for point in product(*sides):
        mask |= 1 << _pack(point, w)
    return mask


def naive_max_count(table, q, w):
    """Max of |pi(U) ∩ V| over all q-box pairs, by plain double loop."""
    side_choices = list(combinations(range(4), q))
    boxes = list(product(side_choices, repeat=w))
    box_masks = [_box_mask(box, w) for box in boxes]
    best = -1
    for u_sides in boxes:
        image = 0
        for point in product(*u_sides):
            image |= 1 << table[_pack(point, w)]
        for mask in box_masks:
            hit = (image & mask).bit_count()
            if hit > best:
                best = hit
    return best


def naive_max_with_witness(table, q, w):
    """Same maximum plus the first (U, V) pair reaching it: boxes are
    visited in lexicographic side order with strictly-improving updates,
    so that pair is the lexicographically smallest maximizer."""
    side_choices = list(combinations(range(4), q))
    boxes = list(product(side_choices, repeat=w))
    box_masks = [_box_mask(box, w) for box in boxes]
    best, best_u, best_v = -1, None, None
    for u_sides in boxes:
        image = 0
        for point in product(*u_sides):
            image |= 1 << table[_pack(point, w)]
        for v_sides, mask in zip(boxes, box_masks):
            hit = (image & mask).bit_count()
            if hit > best:
                best, best_u, best_v = hit, u_sides, v_sides
    return best, best_u, best_v
