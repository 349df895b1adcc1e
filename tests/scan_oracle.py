"""Per-point references for the whole-domain passes of ``condlab.perms``.

Each walks the domain one input at a time through ``apply_packed`` (or
the table's entries) in plain Python, the way the passes worked before
they ran on numpy blocks, so the block code is checked against a loop
that shares none of it.
"""


def first_collision_scan(spec):
    """``(bijective, checked, collision)`` of an exhaustive scan: a
    one-byte-per-output pass, then a rescan of the earlier inputs for
    the first repeated output's preimage."""
    size = 1 << spec.domain_bits
    seen = bytearray(size)
    for x in range(size):
        y = spec.apply_packed(x)
        if seen[y]:
            for x0 in range(x):
                if spec.apply_packed(x0) == y:
                    return False, x + 1, (x0, x)
            raise AssertionError("collision flagged but preimage not found")
        seen[y] = 1
    return True, size, None


def table_file_bytes(spec):
    """The bytes of a table file, written one line per input."""
    digits = -(-spec.domain_bits // 4)
    lines = [f"condlab-table v1 n={spec.n} w={spec.w}\n"]
    lines += [f"{spec.apply_packed(x):0{digits}x}\n" for x in range(1 << spec.domain_bits)]
    return "".join(lines).encode()


def table_inverse(table):
    """The inverse of a bijective table, one entry at a time."""
    inv = [None] * len(table)
    for x, y in enumerate(table):
        inv[y] = x
    return tuple(inv)
