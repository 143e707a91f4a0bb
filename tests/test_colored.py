"""Tests for colored annular enumeration and interval decompositions."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwishart.colored import (
    ColoredAnnularSpec,
    colored_nc_partitions,
    connection_pattern_expansion,
    connector_weight,
    enum_colored_ncc,
    enum_colored_snc,
    is_spoke_diagram,
    open_profile,
    pi_contracted_sum,
    product_variance_check,
    restrict_to_intervals,
    single_interval_variance_check,
    spoke_spec,
    through_profile,
)
from ncwishart.families import Family, inverse_table, transition_matrix
from ncwishart.halfperm import (
    WeightRule,
    enum_ncl,
    make_circular,
    weighted_count,
)
from ncwishart.perms import (
    enum_nc,
    enum_snc,
    is_noncrossing,
    partition_to_perm,
    set_partitions,
)
from ncwishart.polyc import PolyC

C = PolyC.c()
ONE = PolyC.one()
ZERO = PolyC.zero()


def pbar(n, k):
    return inverse_table(Family.PI, n + 1).entry(n, k)


def gbar(n, k):
    return inverse_table(Family.GAMMA_TILDE, n + 1).entry(n, k)


def moment(n):
    total = ZERO
    for p in enum_nc(n):
        total = total + PolyC.monomial(p.num_cycles())
    return total


class TestSpecValidation:
    def test_color_arity_must_match(self):
        with pytest.raises(ValueError, match="one color per interval"):
            ColoredAnnularSpec((1, 1), ("a",), (1,), ("a",))

    def test_intervals_must_exist(self):
        with pytest.raises(ValueError, match="at least one interval"):
            ColoredAnnularSpec((), (), (1,), ("a",))

    def test_lengths_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ColoredAnnularSpec((1, 0), ("a", "b"), (1,), ("a",))

    def test_adjacent_colors_must_differ(self):
        with pytest.raises(ValueError, match="share color"):
            ColoredAnnularSpec((1, 1), ("a", "a"), (1,), ("a",))

    def test_alternation_is_cyclic(self):
        with pytest.raises(ValueError, match="share color"):
            ColoredAnnularSpec((1, 1, 1), ("a", "b", "a"), (1,), ("c",))

    def test_single_interval_has_no_alternation_constraint(self):
        spec = ColoredAnnularSpec((3,), ("a",), (2,), ("a",))
        assert spec.m == 3 and spec.n == 2

    def test_filter_arity(self):
        with pytest.raises(ValueError, match="one count per interval"):
            ColoredAnnularSpec(
                (1, 1), ("a", "b"), (1,), ("a",), through_filter=((1,), None)
            )

    def test_filter_range(self):
        with pytest.raises(ValueError, match="0..interval length"):
            ColoredAnnularSpec(
                (1, 1), ("a", "b"), (1,), ("a",), through_filter=(None, (2,))
            )

    def test_interval_layout(self):
        spec = ColoredAnnularSpec((2, 1), ("a", "b"), (1, 2), ("b", "a"))
        assert spec.outer_intervals() == ((1, 2), (3,))
        assert spec.inner_intervals() == ((4,), (5, 6))


class TestFilteredEnumeration:
    def test_whole_circles_with_one_through_block(self):
        spec = ColoredAnnularSpec(
            (2,), ("a",), (1,), ("a",), through_filter=((1,), (1,))
        )
        els = enum_colored_snc(spec)
        assert len(els) == 4
        assert set(els) == set(enum_snc(2, 1))
        w = weighted_count(els, WeightRule.ALL_BLOCKS)
        assert w == PolyC.parse("2*c + 2*c^2")
        assert w == C * gbar(2, 1) * gbar(1, 1)

    def test_profiles_match_declared_filter(self):
        spec = ColoredAnnularSpec(
            (2,), ("a",), (1,), ("a",), through_filter=((1,), (1,))
        )
        for a in enum_colored_snc(spec):
            assert through_profile(spec, a) == ((1,), (1,))

    @pytest.mark.parametrize("u", range(1, 5))
    @pytest.mark.parametrize("v", range(1, 5))
    def test_pinned_whole_circles_factor_through_circular_table(self, u, v):
        for x in range(1, min(u, v) + 1):
            spec = ColoredAnnularSpec(
                (u,), ("a",), (v,), ("a",), through_filter=((x,), (x,))
            )
            got = weighted_count(enum_colored_snc(spec), WeightRule.ALL_BLOCKS)
            assert got == PolyC.monomial(x, x) * gbar(u, x) * gbar(v, x)

    def test_mismatched_pins_are_impossible(self):
        spec = ColoredAnnularSpec(
            (3,), ("a",), (2,), ("a",), through_filter=((2,), (1,))
        )
        assert enum_colored_snc(spec) == ()

    def test_two_colors_forbid_cross_connections(self):
        spec = ColoredAnnularSpec((2,), ("a",), (2,), ("b",))
        assert enum_colored_snc(spec) == ()

    def test_unfiltered_two_color_enumeration(self):
        spec = ColoredAnnularSpec((1, 1), ("a", "b"), (1, 1), ("a", "b"))
        els = enum_colored_snc(spec)
        # one spoke diagram plus two through-and-two-singletons diagrams
        assert len(els) == 3
        got = weighted_count(els, WeightRule.ALL_BLOCKS)
        assert got == PolyC.monomial(2) + PolyC.monomial(3, 2)
        spokes = [a for a in els if is_spoke_diagram(a)]
        assert len(spokes) == 1
        assert weighted_count(spokes, WeightRule.ALL_BLOCKS) == PolyC.monomial(2)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_filtered_sets_partition_the_unfiltered_set(self, data):
        colors = ("a", "b", "c")
        k = data.draw(st.integers(1, 2), label="outer intervals")
        l = data.draw(st.integers(1, 2), label="inner intervals")
        ml = tuple(
            data.draw(st.integers(1, 2), label=f"m{r}") for r in range(k)
        )
        nl = tuple(
            data.draw(st.integers(1, 2), label=f"n{s}") for s in range(l)
        )
        mc = colors[:k] if k > 1 else (data.draw(st.sampled_from(colors)),)
        nc = colors[:l] if l > 1 else (data.draw(st.sampled_from(colors)),)
        base = ColoredAnnularSpec(ml, mc, nl, nc)
        whole = enum_colored_snc(base)
        by_profile = Counter(through_profile(base, a) for a in whole)
        rebuilt = 0
        for (po, pi_), count in by_profile.items():
            spec = ColoredAnnularSpec(
                ml, mc, nl, nc, through_filter=(po, pi_)
            )
            assert len(enum_colored_snc(spec)) == count
            rebuilt += count
        assert rebuilt == len(whole)


class TestSpokeSets:
    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_single_color_spoke_weight(self, m, n):
        els = enum_colored_snc(spoke_spec((m,), ("a",), (n,), ("a",)))
        got = weighted_count(els, WeightRule.ALL_BLOCKS)
        assert got == (PolyC.monomial(m, m) if m == n else ZERO)
        assert all(is_spoke_diagram(a) for a in els)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_distinct_colors_share_nothing(self, m):
        assert enum_colored_snc(spoke_spec((m,), ("a",), (m,), ("b",))) == ()

    @pytest.mark.parametrize(
        "ml,mc,nl,nc",
        [
            ((1, 1), ("a", "b"), (1, 1), ("a", "b")),
            ((2, 1), ("a", "b"), (2, 1), ("a", "b")),
            ((1, 1, 1, 1), ("a", "b", "a", "b"), (1, 1, 1, 1), ("a", "b", "a", "b")),
            ((2, 1, 1), ("a", "b", "c"), (1, 1, 2), ("a", "b", "c")),
            ((1, 1, 1, 1), ("a", "b", "a", "b"), (2, 2), ("a", "b")),
        ],
    )
    def test_fully_pinned_sets_contain_only_spokes(self, ml, mc, nl, nc):
        for a in enum_colored_snc(spoke_spec(ml, mc, nl, nc)):
            assert is_spoke_diagram(a)

    def test_rotations_count_the_matching_words(self):
        # same word twice: one rotation lines the colors up
        els = enum_colored_snc(
            spoke_spec((2, 1), ("a", "b"), (2, 1), ("a", "b"))
        )
        assert weighted_count(els, WeightRule.ALL_BLOCKS) == PolyC.monomial(3)
        # reversed word on the inner circle: again exactly one rotation
        els = enum_colored_snc(
            spoke_spec((2, 1), ("a", "b"), (1, 2), ("b", "a"))
        )
        assert weighted_count(els, WeightRule.ALL_BLOCKS) == PolyC.monomial(3)
        # incompatible words: nothing survives
        els = enum_colored_snc(
            spoke_spec((2, 1), ("a", "b"), (1, 2), ("a", "b"))
        )
        assert els == ()


class TestContractedSums:
    @pytest.mark.parametrize(
        "ml,mc,nl,nc",
        [
            ((1, 1), ("a", "b"), (1, 1), ("a", "b")),
            ((1, 1), ("a", "b"), (1, 1), ("b", "a")),
            ((2, 1), ("a", "b"), (2, 1), ("a", "b")),
            ((2, 1), ("a", "b"), (1, 2), ("a", "b")),
            ((2, 1), ("a", "b"), (1, 2), ("b", "a")),
            ((1, 1), ("a", "b"), (2, 2), ("a", "b")),
            ((1, 1), ("a", "b"), (2, 2), ("b", "a")),
            ((2, 2), ("a", "b"), (2, 2), ("a", "b")),
        ],
    )
    def test_product_route_matches_spoke_weight(self, ml, mc, nl, nc):
        lhs, rhs = product_variance_check(ml, mc, nl, nc)
        assert lhs == rhs

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_single_interval_route_matches_spoke_weight(self, m, n):
        lhs, rhs = single_interval_variance_check(m, n)
        assert rhs == (PolyC.monomial(m, m) if m == n else ZERO)
        assert lhs == rhs

    def test_the_two_routes_have_different_scopes(self):
        # On whole circles only the circular-table contraction collapses;
        # feeding the same sizes through the product table leaves a
        # lower-order remainder.
        lhs, rhs = product_variance_check((2,), ("a",), (2,), ("a",))
        assert rhs == PolyC.monomial(2, 2)
        assert lhs == C + PolyC.monomial(2, 2)
        assert lhs != rhs

    @pytest.mark.parametrize(
        "ml,mc,nl,nc,xf,yf",
        [
            ((1, 1), ("a", "b"), (1, 1), ("a", "b"), (0, 1), None),
            ((1, 1), ("a", "b"), (1, 1), ("a", "b"), (0, 1), (1, 1)),
            ((2, 1), ("a", "b"), (1, 1), ("a", "b"), (1, 0), None),
            ((1, 1), ("a", "b"), (2,), ("a",), None, (0,)),
            ((2,), ("a",), (2, 1), ("a", "b"), (0,), None),
        ],
    )
    def test_zero_pinned_interval_kills_the_sum(self, ml, mc, nl, nc, xf, yf):
        got = pi_contracted_sum(
            ml, mc, nl, nc, outer_through=xf, inner_through=yf
        )
        assert got == ZERO

    @pytest.mark.parametrize("v", range(1, 4))
    @pytest.mark.parametrize("color", ["a", "b"])
    def test_all_through_word_against_single_letter_is_empty(self, v, color):
        spec = ColoredAnnularSpec(
            (1, 1), ("a", "b"), (v,), (color,), through_filter=((1, 1), None)
        )
        assert enum_colored_snc(spec) == ()

    @pytest.mark.parametrize("v", range(1, 4))
    def test_longer_all_through_words_stay_empty(self, v):
        spec = ColoredAnnularSpec(
            (2, 1), ("a", "b"), (v,), ("a",), through_filter=((2, 1), None)
        )
        assert enum_colored_snc(spec) == ()


def oracle_nc_partitions(n):
    """Non-crossing partitions of [n] by the saturation test over every
    set partition, independent of the enumerator's stack test."""
    return [
        blocks for blocks in set_partitions(n)
        if is_noncrossing(partition_to_perm(blocks))
    ]


def oracle_connector_weight(lengths, nc):
    """Weight of the partitions in `nc` that connect all the intervals."""
    owner = [r for r, size in enumerate(lengths) for _ in range(size)]
    total = ZERO
    for blocks in nc:
        reached = {0}
        for _ in lengths:
            for b in blocks:
                hit = {owner[p - 1] for p in b}
                if hit & reached:
                    reached |= hit
        if len(reached) == len(lengths):
            total = total + PolyC.monomial(len(blocks))
    return total


def colorings(n, colors=3):
    """Every coloring of n points with at most `colors` colors, up to
    renaming the colors: a point takes a used color or the next new one."""
    out = [()]
    for _ in range(n):
        out = [
            c + (x,) for c in out
            for x in range(min(colors, max(c, default=-1) + 2))
        ]
    return out


def compositions(n):
    """Every way to cut n points into consecutive nonempty intervals."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


class TestAgainstTheSetPartitionOracle:
    @pytest.mark.parametrize("n", range(8))
    def test_colored_partitions(self, n):
        nc = oracle_nc_partitions(n)
        for point_colors in colorings(n):
            want = {
                blocks for blocks in nc
                if all(len({point_colors[p - 1] for p in b}) == 1 for b in blocks)
            }
            got = colored_nc_partitions(point_colors)
            assert len(got) == len(set(got))
            assert set(got) == want

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connector_weights(self, n):
        nc = oracle_nc_partitions(n)
        for lengths in compositions(n):
            assert connector_weight(lengths) == oracle_connector_weight(lengths, nc)


class TestConnectionPatterns:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_interval_weight_is_the_moment(self, n):
        assert connector_weight((n,)) == moment(n)
        assert connector_weight((n,)) == pbar(n, 0)

    def test_two_intervals_must_connect(self):
        # pairs across {1,2} x {3}: {13}{2}, {23}{1}, {123} crossing-free
        assert connector_weight((2, 1)) == PolyC.parse("c + 2*c^2")

    @pytest.mark.parametrize(
        "lengths,colors",
        [
            ((1,), ("a",)),
            ((3,), ("a",)),
            ((1, 1), ("a", "b")),
            ((2, 1), ("a", "b")),
            ((2, 3), ("a", "b")),
            ((3, 3), ("a", "b")),
            ((1, 2, 1), ("a", "b", "a")),
            ((2, 1, 2), ("a", "b", "a")),
            ((3, 1, 3), ("a", "b", "a")),
            ((2, 2, 2), ("a", "b", "a")),
            ((2, 2, 2), ("a", "b", "c")),
            ((3, 3, 3), ("a", "b", "a")),
        ],
    )
    def test_expansion_matches_direct_enumeration(self, lengths, colors):
        direct, by_pattern = connection_pattern_expansion(lengths, colors)
        assert direct == by_pattern

    def test_trivial_partition_sets(self):
        assert colored_nc_partitions(()) == ((),)
        assert colored_nc_partitions(("a",)) == (((1,),),)

    def test_all_distinct_colors_force_the_product_of_moments(self):
        direct, _ = connection_pattern_expansion((2, 2), ("a", "b"))
        assert direct == moment(2) * moment(2)


class TestIntervalDecomposition:
    @pytest.mark.parametrize(
        "lengths,colors",
        [
            ((2, 1), ("x", "y")),
            ((2, 2), ("a", "b")),
            ((1, 2, 1), ("a", "b", "c")),
            ((2, 1, 2, 1), ("a", "b", "a", "b")),
            ((2, 2, 2, 2), ("a", "b", "a", "b")),
        ],
    )
    def test_cells_factor_into_linear_pieces(self, lengths, colors):
        cells = Counter()
        cell_weights = {}
        for h in enum_colored_ncc(lengths, colors):
            prof = open_profile(h, lengths)
            if any(x == 0 for x in prof):
                with pytest.raises(ValueError, match="open block"):
                    restrict_to_intervals(h, lengths)
                continue
            pieces = restrict_to_intervals(h, lengths)
            assert tuple(p.k for p in pieces) == prof
            assert (
                sum(p.closed_weight_exponent() for p in pieces)
                == h.perm.num_cycles() - h.k
            )
            cells[prof] += 1
            cell_weights[prof] = cell_weights.get(
                prof, ZERO
            ) + PolyC.monomial(h.perm.num_cycles() - h.k)
        assert cells, "no cell had an open block in every interval"
        for ks, count in cells.items():
            want_count = 1
            want_weight = ONE
            for size, k in zip(lengths, ks):
                want_count *= len(enum_ncl(size, k))
                want_weight = want_weight * pbar(size, k)
            assert count == want_count
            assert cell_weights[ks] == want_weight

    def test_lengths_must_cover_the_circle(self):
        h = enum_colored_ncc((2, 1), ("x", "y"))[0]
        with pytest.raises(ValueError, match="sum to the circle size"):
            restrict_to_intervals(h, (2, 2))

    def test_spanning_blocks_are_rejected(self):
        h = make_circular(
            4,
            partition_to_perm([(1, 3), (2,), (4,)]),
            open_sets=[(1, 3), (2,)],
            bbar=(2, 3),
        )
        assert open_profile(h, (2, 2)) == (2, 1)
        with pytest.raises(ValueError, match="spans intervals"):
            restrict_to_intervals(h, (2, 2))


class TestTwoLetterWordCells:
    """The length-(2,1) two-color circle, cell by cell."""

    @staticmethod
    def cells():
        table = {}
        for h in enum_colored_ncc((2, 1), ("x", "y")):
            prof = open_profile(h, (2, 1))
            table.setdefault(prof, []).append(PolyC.monomial(h.perm.num_cycles() - h.k))
        return table

    def test_cell_census(self):
        table = self.cells()
        assert {prof: len(ws) for prof, ws in table.items()} == {
            (2, 1): 1,
            (1, 1): 3,
            (0, 1): 2,
            (1, 0): 4,
            (2, 0): 1,
        }

    def test_cells_with_open_blocks_everywhere_factor(self):
        table = self.cells()
        assert sum(table[(2, 1)], ZERO) == pbar(2, 2) * pbar(1, 1)
        assert sum(table[(1, 1)], ZERO) == pbar(2, 1) * pbar(1, 1)
        assert Counter(map(str, table[(1, 1)])) == Counter(["1", "c", "c"])
        # the second-interval-open column keeps factoring at zero opens
        # in the first interval:
        assert sum(table[(0, 1)], ZERO) == pbar(2, 0) * pbar(1, 1)

    def test_cells_with_an_open_free_interval_do_not_factor(self):
        table = self.cells()
        got = sum(table[(1, 0)], ZERO)
        assert got == C * gbar(2, 1)
        assert got != pbar(2, 1) * pbar(1, 0)
        assert sum(table[(2, 0)], ZERO) == C
