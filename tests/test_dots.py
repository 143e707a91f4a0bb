"""Tests for the two-color dot encoding: binomial cell counts, the
bijection with circular half-permutations, and the one-point recursion
as the deletion of the last point's dots."""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import ncwishart
from ncwishart.dots import (
    BLACK,
    WHITE,
    DotStructure,
    dot_decode,
    dot_encode,
    enum_dots,
)
from ncwishart.families import Family, inverse_table
from ncwishart.halfperm import CircularHalfPerm, enum_ncc, initial_point
from ncwishart.perms import Perm
from ncwishart.polyc import PolyC

C = PolyC.c()
ONE = PolyC.one()


def gbar(n, k):
    if not 0 <= k <= n:
        return PolyC.zero()
    return inverse_table(Family.GAMMA_TILDE, n + 1).entry(n, k)


def reference_dot_encode(h):
    """dot_encode as first written, kept as its oracle: blocks are told
    apart as sets and the final point of a block is read off perm^-1."""
    n = h.n
    unprimed = [BLACK] * n
    primed = [WHITE] * n
    perm = h.perm
    inv = perm.inverse()
    if h.designated is None:
        open_sets = set(h.open_sets())
        for block in perm.cycles():
            init = initial_point(perm, block, h.bbar)
            unprimed[init - 1] = WHITE
            if frozenset(block) not in open_sets:
                primed[inv.image[init - 1] - 1] = BLACK
    else:
        for block in perm.cycles():
            if frozenset(block) == frozenset(h.designated):
                continue
            init = initial_point(perm, block, h.designated)
            unprimed[init - 1] = WHITE
            primed[inv.image[init - 1] - 1] = BLACK
    return DotStructure(n, tuple(unprimed), tuple(primed))


@pytest.mark.parametrize("n", range(0, 8))
def test_encode_matches_the_set_based_reference(n):
    for k in range(n + 1):
        for h in enum_ncc(n, k):
            assert dot_encode(h) == reference_dot_encode(h)


class TestFrozenStructures:
    def test_empty_diagram(self):
        d = DotStructure(0, (), ())
        assert (d.j, d.k) == (0, 0)
        assert dot_encode(dot_decode(d)) == d
        assert enum_dots(0, 0, 0) == (d,)

    def test_single_point_cells(self):
        comp, perm = enum_ncc(1, 0)
        assert (comp.bbar, comp.designated) == ((1,), None)
        assert dot_encode(comp) == DotStructure(1, (WHITE,), (BLACK,))
        assert (perm.bbar, perm.designated) == (None, (1,))
        assert dot_encode(perm) == DotStructure(1, (BLACK,), (WHITE,))
        (open_one,) = enum_ncc(1, 1)
        assert dot_encode(open_one) == DotStructure(1, (WHITE,), (WHITE,))

    def test_two_point_open_cell_has_two_structures(self):
        cell = enum_dots(2, 0, 1)
        assert len(cell) == 2
        assert set(cell) == {
            DotStructure(2, (WHITE, BLACK), (WHITE, WHITE)),
            DotStructure(2, (BLACK, WHITE), (WHITE, WHITE)),
        }

    def test_designated_block_carries_no_marks(self):
        h = CircularHalfPerm(
            n=3,
            perm=Perm((2, 1, 3)),
            designated=(1, 2),
        )
        d = dot_encode(h)
        # the lone undesignated block {3} is initial at 3 and closed there
        assert d == DotStructure(
            3, (BLACK, BLACK, WHITE), (WHITE, WHITE, BLACK)
        )
        assert dot_decode(d) == h

    def test_string_form(self):
        d = DotStructure(2, (WHITE, BLACK), (WHITE, WHITE))
        assert str(d) == "ww bw"


class TestValidation:
    def test_rail_lengths(self):
        with pytest.raises(ValueError, match="one color per point"):
            DotStructure(2, (BLACK,), (WHITE, WHITE))

    def test_bad_color(self):
        with pytest.raises(ValueError, match="bad color"):
            DotStructure(1, ("grey",), (WHITE,))

    def test_malformed_counts(self):
        with pytest.raises(ValueError, match="malformed"):
            DotStructure(2, (BLACK, BLACK), (BLACK, WHITE))

    def test_enum_range(self):
        with pytest.raises(ValueError, match="j\\+k <= n"):
            enum_dots(3, 2, 2)
        with pytest.raises(ValueError, match="j\\+k <= n"):
            enum_dots(2, -1, 1)

    def test_decode_invariants_survive_python_O(self):
        # a broken matching must still trip the decoder's invariant checks
        # when `python -O` strips `assert` statements
        code = textwrap.dedent("""
            from ncwishart import dots
            structure = dots.enum_dots(2, 0, 1)[0]
            dots._cyclic_match = lambda positions, is_open: ([], list(positions))
            try:
                dots.dot_decode(structure)
            except AssertionError:
                print("AssertionError")
        """)
        src = str(Path(ncwishart.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "AssertionError\n"


class TestBijection:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_and_round_trips(self, n):
        per_cell = Counter()
        for k in range(0, n + 1):
            for h in enum_ncc(n, k):
                d = dot_encode(h)
                assert (d.j, d.k) == (h.closed_weight_exponent(), h.k)
                assert dot_decode(d) == h
                per_cell[(d.j, d.k)] += 1
        assert per_cell == {
            (j, k): comb(n, j) * comb(n, j + k)
            for j in range(n + 1)
            for k in range(n - j + 1)
            if comb(n, j) * comb(n, j + k)
        }

    @pytest.mark.parametrize("n", range(0, 7))
    def test_decode_covers_every_structure(self, n):
        for j in range(0, n + 1):
            for k in range(0, n - j + 1):
                cell = enum_dots(n, j, k)
                assert len(cell) == comb(n, j) * comb(n, j + k)
                images = set()
                for d in cell:
                    h = dot_decode(d)
                    assert (h.closed_weight_exponent(), h.k) == (j, k)
                    assert dot_encode(h) == d
                    images.add(h)
                assert len(images) == len(cell)

    def test_generating_polynomial_from_counts(self):
        # column sums of the binomial table reproduce the weighted counts
        for n in range(0, 9):
            for k in range(0, n + 1):
                poly = sum(
                    (
                        PolyC.monomial(j, comb(n, j) * comb(n, j + k))
                        for j in range(0, n - k + 1)
                    ),
                    PolyC.zero(),
                )
                assert poly == gbar(n, k)


FLIP = {BLACK: WHITE, WHITE: BLACK}
# the color pattern (unprimed, primed) of the last point's dots, and the
# change of (j, k) that deleting them makes: the four recursion terms
PATTERNS = {
    (WHITE, WHITE): (0, -1),
    (BLACK, WHITE): (0, 0),
    (WHITE, BLACK): (-1, 0),
    (BLACK, BLACK): (-1, 1),
}


def flips(k, pattern):
    """Whether deleting `pattern` at k = 0 flips every color: two whites
    would leave fewer white unprimed dots than black primed ones."""
    return k == 0 and pattern == (WHITE, WHITE)


def target_cell(n, j, k, pattern):
    """The (j, k) cell of size n - 1 that deleting the last point's dots,
    colored `pattern`, takes the cell (n, j, k) to."""
    if flips(k, pattern):
        return n - 1 - j, 1
    dj, dk = PATTERNS[pattern]
    return j + dj, k + dk


def delete_last_point(d):
    """The structure left by deleting the last point's two dots."""
    unprimed, primed = d.unprimed[:-1], d.primed[:-1]
    if flips(d.k, (d.unprimed[-1], d.primed[-1])):
        unprimed, primed = (tuple(FLIP[c] for c in rail) for rail in (unprimed, primed))
    return DotStructure(d.n - 1, unprimed, primed)


class TestRecursionMaps:
    """Deleting the last point's dots sorts each cell of structures, by the
    color pattern of those dots, onto whole cells one size down; through the
    encoding this is the one-point recursion of the circular halves."""

    @pytest.mark.parametrize("n1", range(1, 7))
    def test_buckets_biject_onto_target_cells(self, n1):
        n = n1 - 1
        for j in range(n1 + 1):
            for k in range(n1 - j + 1):
                buckets = {pattern: Counter() for pattern in PATTERNS}
                for d in enum_dots(n1, j, k):
                    buckets[d.unprimed[-1], d.primed[-1]][delete_last_point(d)] += 1
                for pattern, got in buckets.items():
                    tj, tk = target_cell(n1, j, k, pattern)
                    if not (0 <= tj and 0 <= tk and tj + tk <= n):
                        assert not got
                        continue
                    assert got == Counter(enum_dots(n, tj, tk)), (j, k, pattern)

    def test_weight_bookkeeping_per_case(self):
        # the half a truncated structure decodes to lies in the target cell
        for n1 in range(1, 6):
            for k in range(0, n1 + 1):
                for h in enum_ncc(n1, k):
                    d = dot_encode(h)
                    g = dot_decode(delete_last_point(d))
                    pattern = d.unprimed[-1], d.primed[-1]
                    target = target_cell(n1, h.closed_weight_exponent(), k, pattern)
                    assert (g.closed_weight_exponent(), g.k) == target

    def test_one_point_recursion_identities(self):
        two_c = C + C
        for n1 in range(1, 8):
            n = n1 - 1
            assert gbar(n1, 0) == (ONE + C) * gbar(n, 0) + two_c * gbar(n, 1)
            for k in range(1, n1 + 1):
                assert gbar(n1, k) == gbar(n, k - 1) + (ONE + C) * gbar(
                    n, k
                ) + C * gbar(n, k + 1)

    def test_flip_route_reverses_weights(self):
        # the flip sends weight exponent j to n-j, matching the symmetry
        # comb(n, j)*comb(n, j-1) == comb(n, n-j)*comb(n, n-j+1)
        n1 = 4
        for j in range(1, n1):
            flipped = [delete_last_point(d) for d in enum_dots(n1, j, 0)
                       if flips(0, (d.unprimed[-1], d.primed[-1]))]
            assert len(flipped) == comb(n1 - 1, j - 1) * comb(n1 - 1, j)
            assert {(g.j, g.k) for g in flipped} == {(n1 - 1 - j, 1)}
