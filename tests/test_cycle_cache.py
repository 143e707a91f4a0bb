"""The cycles a permutation keeps, and the text every diagram renders.

A `Perm` walks its image into cycles once and keeps them; `enum_nc` and
`partition_to_perm` seed them from the blocks they build from instead of
walking.  Every permutation the diagram layer builds is held here to a
fresh walk of its image, and every diagram's text to the renderer the
program used before it kept its cycles (`format_cycles`, now only an
oracle).
"""

import math
from itertools import permutations

import pytest

from ncwishart.dots import dot_decode, enum_dots
from ncwishart.halfperm import cut, enum_ncc, enum_ncl
from ncwishart.perms import enum_nc, enum_snc, partition_to_perm, set_partitions


def format_cycles(cycles) -> str:
    return "".join("(" + ",".join(str(p) for p in cyc) + ")" for cyc in cycles)


def walk(image):
    """The cycles of an image, each from its least point, by least point."""
    seen = set()
    out = []
    for start in range(1, len(image) + 1):
        if start not in seen:
            cyc = [start]
            seen.add(start)
            nxt = image[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = image[nxt - 1]
            out.append(tuple(cyc))
    return tuple(out)


def half_text(h) -> str:
    """A half's text as the program printed it before: open blocks in
    brackets, the closed blocks, then the marked block."""
    if h.n == 0:
        return "()"
    open_sets = {frozenset(b) for b in h.opens}
    closed = format_cycles(c for c in walk(h.perm.image) if frozenset(c) not in open_sets)
    if h.opens:
        return format_cycles(h.opens).replace("(", "[").replace(")", "]") + closed
    mark, block = ("c", h.bbar) if h.designated is None else ("", h.designated)
    return closed + "*" + mark + format_cycles((block,))


def assert_kept_cycles_are_walked(perms):
    for p in perms:
        fresh = walk(p.image)
        assert p.cycles() == fresh, p.image
        assert p.num_cycles() == len(fresh), p.image


ANNULI = [(m, total - m) for total in range(2, 9) for m in range(1, total)]


@pytest.mark.parametrize("n", range(11))
def test_enum_nc_seeds_the_walked_cycles(n):
    discs = enum_nc(n)
    assert_kept_cycles_are_walked(discs)
    assert [str(p) for p in discs] == [format_cycles(walk(p.image)) for p in discs]


@pytest.mark.parametrize("n", range(8))
def test_partition_to_perm_seeds_the_walked_cycles(n):
    """Blocks given out of order, each reversed, are seeded sorted."""
    for blocks in set_partitions(n):
        p = partition_to_perm(tuple(b[::-1] for b in reversed(blocks)))
        assert p.cycles() == blocks
        assert_kept_cycles_are_walked([p])


@pytest.mark.parametrize("m,n", ANNULI)
def test_annuli_and_their_cut_halves_keep_the_walked_cycles(m, n):
    for a in enum_snc(m, n):
        assert str(a) == str(a.perm) == format_cycles(walk(a.perm.image))
        h1, h2 = cut(a)
        assert_kept_cycles_are_walked([a.perm, h1.perm, h2.perm])


@pytest.mark.parametrize("n", range(1, 8))
def test_decoded_halves_keep_the_walked_cycles(n):
    decoded = [
        dot_decode(d).perm
        for k in range(n + 1)
        for j in range(n - k + 1)
        for d in enum_dots(n, j, k)
    ]
    assert len(decoded) == sum(
        math.comb(n, j) * math.comb(n, j + k) for k in range(n + 1) for j in range(n - k + 1)
    )
    assert_kept_cycles_are_walked(decoded)


@pytest.mark.parametrize("enum", [enum_ncc, enum_ncl], ids=["ncc", "ncl"])
@pytest.mark.parametrize("n", range(1, 9))
def test_every_half_renders_as_before(enum, n):
    for k in range(n + 1):
        for h in enum(n, k):
            assert str(h) == half_text(h)


def test_the_three_marks_and_the_empty_half():
    assert [str(h) for h in enum_ncc(2, 1)] == ["[1](2)", "[2](1)", "[1,2]", "[2,1]"]
    assert [str(h) for h in enum_ncc(2, 0)] == ["(1)(2)*(1)", "(1)(2)*c(1,2)", "(1)(2)*(2)",
                                                "(1,2)*c(1)", "(1,2)*(1,2)", "(1,2)*c(2)"]
    assert [str(h) for h in enum_ncc(0, 0)] == ["()"]


@pytest.mark.parametrize("n", range(10))
def test_enum_ncl_comes_in_sort_key_order(n):
    """The linear enumerator does not sort: its discs come in image order
    and its open blocks in `combinations` order, which is the order of
    `sort_key`, strictly."""
    for k in range(n + 1):
        keys = [h.sort_key() for h in enum_ncl(n, k)]
        assert all(a < b for a, b in zip(keys, keys[1:])), (n, k)


def test_the_walk_oracle_on_every_small_permutation():
    """The oracle against rebuilding each image from its cycles."""
    for image in permutations(range(1, 6)):
        rebuilt = [0] * 5
        for cyc in walk(image):
            assert cyc[0] == min(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                rebuilt[a - 1] = b
        assert tuple(rebuilt) == image
