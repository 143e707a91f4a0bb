"""Tests for permutations and non-crossing enumeration.

The disc enumeration is checked against a completely separate oracle:
filter raw set partitions by the pairwise interleaving test (two blocks
cross iff some a < b < c < d has a, c in one and b, d in the other).
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncwishart import perms
from ncwishart.perms import (
    AnnularPerm,
    Perm,
    _annular_complement,
    blocks_noncrossing,
    complement,
    enum_nc,
    enum_snc,
    format_blocks,
    is_annular_noncrossing,
    is_noncrossing,
    iter_snc_images,
    partition_to_perm,
    set_partitions,
)
from ncwishart.polyc import PolyC


def identity(n):
    return Perm(tuple(range(1, n + 1)))


# the oracles `complement` and `_annular_complement` are held to: the long
# cycle and the rotation, composed with the inverse


def long_cycle(n):
    return Perm(tuple(range(2, n + 1)) + (1,) if n else ())


def annular_rotation(m, n):
    """The two-cycle rotation (1..m)(m+1..m+n)."""
    outer = tuple(range(2, m + 1)) + (1,)
    inner = tuple(range(m + 2, m + n + 1)) + (m + 1,)
    return Perm(outer + inner)


def inverse(p):
    image = [0] * p.size
    for i, j in enumerate(p.image, start=1):
        image[j - 1] = i
    return Perm(tuple(image))


def compose(p, q):
    """(p . q)(i) = p(q(i))."""
    assert p.size == q.size
    return Perm(tuple(p.image[j - 1] for j in q.image))


def every_ordering_images(m, n):
    """Every cyclic ordering of every block of every set partition of
    [m + n] -- that is, every permutation -- through the annular
    saturation test: the unpruned sweep that `iter_snc_images` must match."""
    for img in permutations(range(1, m + n + 1)):
        if is_annular_noncrossing(m, n, Perm(img)):
            yield img


def blocks_cross(b1, b2):
    """Interleaving test: some a < b < c < d with a, c in b1 and b, d in b2."""
    for a, c in combinations(b1, 2):
        for b, d in combinations(b2, 2):
            if a < b < c < d or b < a < d < c:
                return True
    return False


def noncrossing_partitions_oracle(n):
    out = []
    for blocks in set_partitions(n):
        if not any(blocks_cross(x, y) for x, y in combinations(blocks, 2)):
            out.append(frozenset(frozenset(b) for b in blocks))
    return out


def perms_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(lambda s: Perm(tuple(s)))


class TestPerm:
    def test_from_cycles_and_str(self):
        p = Perm.from_cycles(5, [(1, 2, 3), (4,)])
        assert p.image == (2, 3, 1, 4, 5)
        assert str(p) == "(1,2,3)(4)(5)"
        assert format_blocks(((2, 7), (1,))) == "(2,7)(1)"
        assert format_blocks(((2, 7), (1,)), "[", "]") == "[2,7][1]"
        assert format_blocks(()) == ""

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            Perm.from_cycles(4, [(1, 2), (2, 3)])

    def test_from_cycles_and_cycle_containing(self):
        p = Perm.from_cycles(6, [(2, 5, 4)])
        assert p.image == (1, 5, 3, 2, 4, 6)
        assert p.cycle_containing(5) == (2, 5, 4)

    def test_induced_first_return(self):
        p = Perm.from_cycles(5, [(1, 5, 3), (2, 4)])
        assert p.induced((1, 2, 3)).image == (3, 2, 1)
        # relabeling is order preserving
        assert p.induced((4, 5)).image == (1, 2)

    @given(st.integers(1, 7).flatmap(perms_strategy))
    def test_inverse_and_compose(self, p):
        n = p.size
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
        assert inverse(inverse(p)) == p

    @given(st.integers(2, 6).flatmap(perms_strategy))
    def test_cycles_round_trip(self, p):
        assert Perm.from_cycles(p.size, p.cycles()) == p
        assert p.num_cycles() == len(p.cycles())


class TestDisc:
    def test_set_partition_counts_are_bell(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for n, b in enumerate(bell):
            assert sum(1 for _ in set_partitions(n)) == b

    def test_catalan_counts(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429]
        for n, c in enumerate(catalan):
            assert len(enum_nc(n)) == c

    def test_matches_interleaving_oracle(self):
        for n in range(1, 9):
            mine = {
                frozenset(frozenset(c) for c in p.cycles()) for p in enum_nc(n)
            }
            oracle = noncrossing_partitions_oracle(n)
            assert len(oracle) == len(set(oracle)) == len(mine)
            assert mine == set(oracle)

    def test_enum_is_sorted_and_increasing_cycles(self):
        for n in range(1, 8):
            ps = enum_nc(n)
            assert list(ps) == sorted(ps, key=lambda p: p.image)
            for p in ps:
                for cyc in p.cycles():
                    assert list(cyc) == sorted(cyc)

    def test_complement_example(self):
        p = Perm.from_cycles(5, [(1, 2, 3), (4,), (5,)])
        assert complement(p).cycles() == ((1, 4, 5), (2,), (3,))

    def test_complement_saturation(self):
        for n in range(1, 11):
            for p in enum_nc(n):
                assert p.num_cycles() + complement(p).num_cycles() == n + 1

    def test_complement_stays_noncrossing(self):
        for n in range(1, 9):
            pool = set(enum_nc(n))
            for p in pool:
                q = complement(p)
                assert is_noncrossing(q)
                # blocks of the complement, re-expressed with increasing cycles
                assert partition_to_perm(q.cycles()) in pool

    def test_long_cycle_and_identity_extremes(self):
        for n in range(1, 8):
            assert is_noncrossing(long_cycle(n))
            assert is_noncrossing(identity(n))
            assert complement(long_cycle(n)) == identity(n)


def snc_weight(diagrams):
    total = PolyC.zero()
    for a in diagrams:
        total = total + PolyC.monomial(a.perm.num_cycles())
    return total


class TestAnnulus:
    def test_rotation(self):
        assert annular_rotation(2, 3).cycles() == ((1, 2), (3, 4, 5))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            AnnularPerm(1, 1, identity(2))

    def test_rejects_crossing(self):
        # a single 4-cycle visiting the circles alternately needs genus:
        # saturation fails on the (2,2)-annulus
        p = Perm.from_cycles(4, [(1, 3, 2, 4)])
        assert not is_annular_noncrossing(2, 2, p)
        with pytest.raises(ValueError):
            AnnularPerm(2, 2, p)
        # ...while both pairings of through-strips are fine
        assert is_annular_noncrossing(2, 2, Perm.from_cycles(4, [(1, 3), (2, 4)]))
        assert is_annular_noncrossing(2, 2, Perm.from_cycles(4, [(1, 4), (2, 3)]))

    def test_smallest_annulus(self):
        found = enum_snc(1, 1)
        assert len(found) == 1
        assert found[0].perm == Perm.from_cycles(2, [(1, 2)])

    def test_two_one_frozen_set(self):
        found = enum_snc(2, 1)
        as_str = sorted(str(a) for a in found)
        assert as_str == ["(1)(2,3)", "(1,2,3)", "(1,3)(2)", "(1,3,2)"]
        assert snc_weight(found) == PolyC.of(0, 2, 2)

    def test_counts_match_binomial_formula(self):
        # independent route: the expected count is a binomial sum
        for m in range(1, 7):
            for n in range(1, 7):
                if m + n > 8:
                    continue
                expect = sum(
                    k * math.comb(2 * m, m - k) * math.comb(2 * n, n - k)
                    for k in range(1, min(m, n) + 1)
                )
                assert len(enum_snc(m, n)) == expect, (m, n)

    def test_swap_symmetry(self):
        for m, n in [(1, 3), (3, 1), (2, 3), (3, 2), (1, 5), (5, 1)]:
            assert len(enum_snc(m, n)) == len(enum_snc(n, m))

    def test_all_survivors_valid_and_distinct(self):
        for m, n in [(2, 2), (3, 2), (1, 4)]:
            found = enum_snc(m, n)
            assert len({a.perm.image for a in found}) == len(found)
            for a in found:
                assert any(min(c) <= m < max(c) for c in a.perm.cycles())
                sat = a.perm.num_cycles() + a.complement_perm().num_cycles()
                assert sat == m + n

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enum_snc(7, 6)

    def test_weight_at_one_counts(self):
        w = snc_weight(enum_snc(2, 2))
        assert w.evaluate(Fraction(1)) == len(enum_snc(2, 2))

    def test_pruned_orderings_lose_nothing(self):
        # the admissible-ordering filter must agree with trying every
        # cyclic ordering of every block
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 4), (3, 3)]:
            pruned = sorted(iter_snc_images(m, n))
            assert pruned == sorted(every_ordering_images(m, n)), (m, n)

    def test_figure_eight_element_is_enumerated(self):
        # the annulus-(8,4) permutation with a 4-point block straddling
        # both circles, streamed rather than materialized
        target = Perm.from_cycles(
            12, [(1, 2, 3, 12), (4, 9), (5, 6, 7), (8,), (10, 11)]
        )
        assert is_annular_noncrossing(8, 4, target)
        assert any(
            img == target.image for img in iter_snc_images(8, 4)
        )


def rgs_partitions(n):
    """Set partitions of {1..n} by advancing a restricted growth string
    and rebuilding the blocks from it each time: the sweep that the
    incremental `set_partitions` replaced."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        blocks = [[] for _ in range(max(rgs) + 1)]
        for i, b in enumerate(rgs):
            blocks[b].append(i + 1)
        yield tuple(tuple(b) for b in blocks)
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


class TestFastPaths:
    """Each fast path against the code it replaced."""

    @pytest.mark.parametrize("n", range(11))
    def test_set_partitions_keep_the_growth_string_order(self, n):
        # `enumerate snc` streams in sweep order, so the order is checked,
        # not just the set
        assert list(set_partitions(n)) == list(rgs_partitions(n))

    def test_stack_test_matches_saturation(self):
        for n in range(10):
            for blocks in set_partitions(n):
                want = is_noncrossing(partition_to_perm(blocks))
                assert blocks_noncrossing(blocks) == want, blocks

    def test_enum_nc_matches_saturation_sweep(self):
        for n in range(10):
            swept = [
                p
                for blocks in set_partitions(n)
                if is_noncrossing(p := partition_to_perm(blocks))
            ]
            assert enum_nc(n) == tuple(sorted(swept, key=lambda p: p.image))

    @given(st.integers(0, 8).flatmap(perms_strategy))
    def test_direct_complement(self, p):
        assert complement(p) == compose(long_cycle(p.size), inverse(p))

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_direct_annular_complement(self, m, n, data):
        p = data.draw(perms_strategy(m + n))
        rot_inv = compose(annular_rotation(m, n), inverse(p))
        assert _annular_complement(m, n, p) == rot_inv
        connected = any(min(c) <= m < max(c) for c in p.cycles())
        saturated = p.num_cycles() + rot_inv.num_cycles() == m + n
        assert is_annular_noncrossing(m, n, p) == (connected and saturated)

    def test_annular_complement_of_enumerated(self):
        for m, n in [(2, 2), (3, 2), (1, 4)]:
            rot = annular_rotation(m, n)
            for a in enum_snc(m, n):
                assert a.complement_perm() == compose(rot, inverse(a.perm))

    def test_bounded_orderings_memo(self, monkeypatch):
        want = {(m, n): sorted(every_ordering_images(m, n)) for m, n in [(3, 3), (4, 3)]}
        monkeypatch.setattr(perms, "_SNC_ORDERINGS_MAX", 3)
        for (m, n), images in want.items():
            assert sorted(iter_snc_images(m, n)) == images
