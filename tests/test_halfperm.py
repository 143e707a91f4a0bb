"""Tests for circular/linear half-permutations, cut/reassemble, and the
weighted-count bridge to the transition-matrix inverses."""

import dataclasses
import hashlib
import itertools
from collections import Counter

import pytest

from ncwishart import cli
from ncwishart.cli import _cut_reassemble_records
from ncwishart.families import Family, inverse_table
from ncwishart.halfperm import (
    CircularHalfPerm,
    LinearHalfPerm,
    WeightRule,
    _perm_data,
    cut,
    enum_ncc,
    enum_ncl,
    linear_case,
    linear_remove,
    lineardecomp_check,
    make_circular,
    make_linear,
    pair_up_odd,
    reassemble,
    weighted_count,
)
from ncwishart.perms import (
    AnnularPerm,
    Perm,
    complement,
    enum_nc,
    enum_snc,
    is_noncrossing,
)
from ncwishart.polyc import PolyC

C = PolyC.monomial(1)
ONE = PolyC.one()


def gbar(n, k):
    if not 0 <= k <= n:
        return PolyC.zero()
    return weighted_count(enum_ncc(n, k), WeightRule.CLOSED_BLOCKS)


def pbar(n, k):
    if not 0 <= k <= n:
        return PolyC.zero()
    return weighted_count(enum_ncl(n, k), WeightRule.CLOSED_BLOCKS)


class TestFrozenCells:
    def test_smallest_cells(self):
        assert len(enum_ncc(0, 0)) == 1
        assert gbar(0, 0) == ONE
        assert len(enum_ncc(1, 0)) == 2
        assert gbar(1, 0) == ONE + C
        assert len(enum_ncc(1, 1)) == 1
        assert gbar(1, 1) == ONE

    def test_two_point_circle_one_open(self):
        cell = enum_ncc(2, 1)
        assert len(cell) == 4
        assert gbar(2, 1) == PolyC.parse("2 + 2*c")
        # two ways to open the 2-block (one per exit), and each singleton
        # of the split partition opened against the complement's 2-cycle
        labels = sorted(str(h) for h in cell)
        assert labels == ["[1,2]", "[1](2)", "[2,1]", "[2](1)"]

    def test_two_point_circle_two_open(self):
        cell = enum_ncc(2, 2)
        assert len(cell) == 1
        h = cell[0]
        assert h.opens == ((1,), (2,)) and h.perm.num_cycles() - h.k == 0

    def test_linear_cells(self):
        assert pbar(1, 0) == C
        assert pbar(1, 1) == ONE
        assert pbar(2, 1) == ONE + 2 * C
        assert pbar(0, 0) == ONE

    def test_designated_variants_of_a_point(self):
        both = enum_ncc(1, 0)
        # the two halves tie on perm and block; the collecting cycle sorts first
        assert [(h.bbar, h.designated) for h in both] == [((1,), None), (None, (1,))]
        assert [str(h) for h in both] == ["(1)*c(1)", "(1)*(1)"]
        exps = [h.closed_weight_exponent() for h in both]
        assert exps == [1, 0]

    # sha256 of the zero-open cells' text, one line per n = 0..7, as
    # printed before the k = 0 collecting cycle moved into `bbar`
    K0_DIGESTS = {
        "enum_ncc": "0c8e528e9efb5e1cba66c9a74279f8a922f9af0ff824b38b99ac99da2b114485",
        "enum_ncl": "7bae8adceffd9bade3b0699ecfae7eb77e3795b122c2d0755bb6e59c40bfcfe7",
    }

    @pytest.mark.parametrize("enum", [enum_ncc, enum_ncl], ids=lambda f: f.__name__)
    def test_zero_open_cells_keep_their_order_and_text(self, enum):
        text = "\n".join(" ".join(map(str, enum(n, 0))) for n in range(8))
        assert hashlib.sha256(text.encode()).hexdigest() == self.K0_DIGESTS[enum.__name__]


class TestInverseTableBridge:
    """The enumeration weights reproduce the inverse transition matrices."""

    def test_circular_matches_gamma_tilde_inverse(self):
        inv = inverse_table(Family.GAMMA_TILDE, 9)
        for n in range(9):
            for k in range(n + 1):
                assert gbar(n, k) == inv.entry(n, k), (n, k)

    def test_linear_matches_pi_inverse(self):
        inv = inverse_table(Family.PI, 9)
        for n in range(9):
            for k in range(n + 1):
                assert pbar(n, k) == inv.entry(n, k), (n, k)


class TestElementInvariants:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_circular_structure(self, n):
        seen = set()
        for k in range(n + 1):
            for h in enum_ncc(n, k):
                assert h.k == k
                assert h.sort_key() not in seen
                seen.add(h.sort_key())
                if h.designated is not None:
                    assert k == 0 and h.bbar is None
                    assert h.designated in h.perm.cycles()
                    assert h.closed_weight_exponent() == len(h.closed_blocks()) - 1
                    continue
                comp_cycles = {frozenset(c) for c in complement(h.perm).cycles()}
                assert frozenset(h.bbar) in comp_cycles
                initials = h.initial_points()
                assert list(initials) == sorted(initials)
                for block, x in zip(h.opens, initials):
                    assert set(block) & set(h.bbar) == {x}
                    assert block[0] == x
                assert h.closed_weight_exponent() == len(h.closed_blocks())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_linear_collects_through_one(self, n):
        for k in range(n + 1):
            for h in enum_ncl(n, k):
                assert h.designated is None and 1 in h.bbar
                if k == 0:
                    assert h.closed_weight_exponent() == h.perm.num_cycles()

    def test_linear_zero_open_is_plain_noncrossing(self):
        for n in range(7):
            assert len(enum_ncl(n, 0)) == len(enum_nc(n))

    def test_make_round_trips(self):
        for h in enum_ncc(4, 2):
            again = make_circular(h.n, h.perm, h.open_sets(), h.bbar)
            assert again == h
        for h in enum_ncl(4, 2):
            again = make_linear(h.n, h.perm.cycles(), h.open_sets())
            assert again == h


class TestValidation:
    def test_cap_and_range_errors(self):
        with pytest.raises(ValueError, match="cap"):
            enum_ncc(13, 0)
        with pytest.raises(ValueError, match="0 <= k"):
            enum_ncc(3, 4)
        with pytest.raises(ValueError, match="0 <= k"):
            enum_ncl(3, -1)

    def test_bad_constructions(self):
        p = Perm.from_cycles(2, ((1, 2),))
        with pytest.raises(ValueError, match="complement cycle"):
            CircularHalfPerm(n=2, perm=p, opens=((1, 2),), bbar=(1, 2))
        with pytest.raises(ValueError, match="designated"):
            CircularHalfPerm(n=2, perm=p)
        with pytest.raises(ValueError, match="exclusive"):
            CircularHalfPerm(n=2, perm=p, opens=((1, 2),), bbar=(1,), designated=(1, 2))
        split = Perm((1, 2))
        with pytest.raises(ValueError, match="sorted"):
            CircularHalfPerm(
                n=2, perm=split, opens=((2,), (1,)), bbar=(1, 2)
            )
        crossing = Perm.from_cycles(4, ((1, 3), (2, 4)))
        with pytest.raises(ValueError, match="non-crossing"):
            CircularHalfPerm(n=4, perm=crossing, designated=(1, 3))

    def test_make_rejects_an_open_block_off_its_collecting_cycle(self):
        split = Perm.from_cycles(3, ((1, 3),))
        with pytest.raises(ValueError, match=r"meets \(1,\) in 0 points"):
            make_linear(3, split.cycles(), [{2}])
        with pytest.raises(ValueError, match=r"meets \(1,\) in 0 points"):
            make_circular(3, split, [{2}], (1,))
        with pytest.raises(ValueError, match="in 2 points"):
            make_circular(3, Perm((1, 2, 3)), [{1, 2}], (1, 2, 3))

    def test_linear_requires_one_in_collector(self):
        h = enum_ncc(2, 1)[-1]
        assert 1 not in h.bbar
        with pytest.raises(ValueError, match="contain 1"):
            LinearHalfPerm(**fields_of(h))

    def test_linear_with_no_open_block_designates_the_complement_block_through_1(self):
        for h in enum_ncc(3, 0):
            linear = h.designated is None and 1 in h.bbar
            if linear:
                assert LinearHalfPerm(**fields_of(h)) in enum_ncl(3, 0)
            else:
                with pytest.raises(ValueError, match="contain 1"):
                    LinearHalfPerm(**fields_of(h))


def fields_of(h):
    return {f.name: getattr(h, f.name) for f in dataclasses.fields(h)}


class TestLinearIsCircular:
    """A linear half is a circular half whose collecting cycle contains 1."""

    @staticmethod
    def collected_through_1(h):
        return h.n == 0 or 1 in (h.bbar or ())

    @pytest.mark.parametrize("n", range(6))
    def test_linear_halves_are_the_circular_halves_collected_through_1(self, n):
        for k in range(n + 1):
            linear = enum_ncl(n, k)
            assert all(isinstance(h, CircularHalfPerm) for h in linear)
            want = {tuple(fields_of(h).values())
                    for h in enum_ncc(n, k) if self.collected_through_1(h)}
            assert {tuple(fields_of(h).values()) for h in linear} == want
            assert len(linear) == len(want)

    def test_replace_reruns_both_checks(self):
        h = enum_ncl(4, 1)[0]
        assert type(dataclasses.replace(h)) is LinearHalfPerm
        crossing = Perm.from_cycles(4, ((1, 3), (2, 4)))
        with pytest.raises(ValueError, match="non-crossing"):
            dataclasses.replace(h, perm=crossing)
        off_1 = next(c for c in enum_ncc(4, 1) if 1 not in c.bbar)
        with pytest.raises(ValueError, match="contain 1"):
            dataclasses.replace(h, **fields_of(off_1))

    def test_a_checked_linear_build_runs_each_class_check_once(self, monkeypatch):
        calls = []
        for cls in (CircularHalfPerm, LinearHalfPerm):
            def counted(self, check=cls.__dict__["__post_init__"], name=cls.__name__):
                calls.append(name)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        h = enum_ncl(4, 2)[0]
        assert calls == []
        assert dataclasses.replace(h) == h
        assert calls == ["LinearHalfPerm", "CircularHalfPerm"]


def on4(*cycles):
    return Perm.from_cycles(4, cycles)


# (a valid half, a half of a different permutation that must be rejected,
# the rejection message).  Where it can, the valid half is chosen so that
# its permutation's data would let the bad half through.
MEMO_LEAK_CASES = {
    "crossing": (
        dict(perm=on4((1, 3)), designated=(1, 3)),
        dict(perm=on4((1, 3), (2, 4)), designated=(1, 3)),
        "non-crossing",
    ),
    "bbar not a complement cycle": (
        dict(perm=on4((1, 2)), opens=((1, 2),), bbar=(1, 3, 4)),
        dict(perm=on4((1, 2), (3, 4)), opens=((1, 2),), bbar=(1, 3, 4)),
        "complement cycle",
    ),
    "bbar unsorted": (
        dict(perm=on4((1, 2)), opens=((1, 2),), bbar=(1, 3, 4)),
        dict(perm=on4((2, 3)), opens=((2, 3),), bbar=(4, 2, 1)),
        "collecting cycle must be sorted",
    ),
    "open block mis-rotated": (
        dict(perm=on4((1, 2)), opens=((1, 2),), bbar=(1, 3, 4)),
        dict(perm=on4((1, 2, 3)), opens=((1, 2, 3),), bbar=(2,)),
        "rotated to start at 2",
    ),
    "designated not a block": (
        dict(perm=on4((1, 2, 3, 4)), designated=(1, 2, 3, 4)),
        dict(perm=on4((1, 2), (3, 4)), designated=(1, 2, 3, 4)),
        "not a block of the perm",
    ),
    "bbar without open blocks not a complement cycle": (
        dict(perm=Perm((1, 2, 3, 4)), bbar=(1, 2, 3, 4)),
        dict(perm=on4((1, 2), (3, 4)), bbar=(1, 2, 3, 4)),
        "not a complement cycle",
    ),
}


@pytest.mark.parametrize("case", sorted(MEMO_LEAK_CASES))
def test_validation_ignores_the_previous_perm(case):
    """Half-perm validation memoizes per-permutation data; a half built
    right after a valid half of another permutation is still checked
    against its own."""
    good, bad, message = MEMO_LEAK_CASES[case]
    assert good["perm"] != bad["perm"]
    CircularHalfPerm(n=4, **good)
    with pytest.raises(ValueError, match=message):
        CircularHalfPerm(n=4, **bad)


@pytest.mark.parametrize("n", range(7))
def test_perm_data_matches_its_definition(n):
    """The one-walk validation data against the public predicate and the
    block sets of both permutations, for every permutation of [n]."""
    for image in itertools.permutations(range(1, n + 1)):
        p = Perm(image)
        assert _perm_data(p) == (
            is_noncrossing(p),
            frozenset(map(frozenset, p.cycles())),
            frozenset(map(frozenset, complement(p).cycles())),
        ), p


class TestFourWaySplit:
    """Removing the last point sorts a cell into the four recursion terms."""

    @pytest.mark.parametrize("n1", [3, 4, 5])
    def test_split_is_a_bijection(self, n1):
        for k in range(n1 + 1):
            targets = {
                1: (n1 - 1, k - 1),
                2: (n1 - 1, k),
                3: (n1 - 1, k),
                4: (n1 - 1, k + 1),
            }
            buckets = {1: [], 2: [], 3: [], 4: []}
            for h in enum_ncl(n1, k):
                case = linear_case(h)
                reduced = linear_remove(h)
                drop = 0 if case in (1, 2) else 1
                closed = reduced.perm.num_cycles() - reduced.k
                assert closed == h.perm.num_cycles() - h.k - drop
                buckets[case].append(reduced)
            for case, items in buckets.items():
                tn, tk = targets[case]
                impossible = not (0 <= tk <= tn) or (k == 0 and case in (1, 2))
                want = () if impossible else enum_ncl(tn, tk)
                assert Counter(x.sort_key() for x in items) == Counter(
                    x.sort_key() for x in want
                ), (k, case)

    def test_weighted_recursions(self):
        for n in range(1, 6):
            for k in range(n + 2):
                if k == 0:
                    assert pbar(n + 1, 0) == C * pbar(n, 0) + C * pbar(n, 1)
                    assert gbar(n + 1, 0) == (ONE + C) * gbar(n, 0) + 2 * C * gbar(n, 1)
                else:
                    assert pbar(n + 1, k) == pbar(n, k - 1) + (ONE + C) * pbar(
                        n, k
                    ) + C * pbar(n, k + 1)
                    assert gbar(n + 1, k) == gbar(n, k - 1) + (ONE + C) * gbar(
                        n, k
                    ) + C * gbar(n, k + 1)


class TestOddPairing:
    """Pairing the opens of an odd cell outside-in marks one block of a
    plain non-crossing partition, and the weights match the generating
    identity."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bijection_and_weights(self, n):
        total = PolyC.zero()
        images = set()
        for k in range(1, n + 1, 2):
            for h in enum_ncl(n, k):
                merged, marked = pair_up_odd(h)
                images.add((merged, marked))
                assert (k - 1) // 2 + h.perm.num_cycles() - k == merged.num_cycles() - 1
                total = total + PolyC.monomial(merged.num_cycles() - 1)
        assert len(images) == sum(len(enum_ncl(n, k)) for k in range(1, n + 1, 2))
        lhs, rhs = lineardecomp_check(n)
        assert total == rhs == lhs

    def test_marked_blocks_cover_all_partitions(self):
        n = 5
        got = Counter()
        for k in range(1, n + 1, 2):
            for h in enum_ncl(n, k):
                merged, marked = pair_up_odd(h)
                got[(merged.image, marked)] += 1
        want = Counter()
        for p in enum_nc(n):
            for block in p.cycles():
                want[(p.image, tuple(sorted(block)))] += 1
        assert got == want

    @pytest.mark.parametrize("n", range(1, 11))
    def test_identity_full_range(self, n):
        lhs, rhs = lineardecomp_check(n)
        assert lhs == rhs


class TestUncheckedBuilds:
    """The generators and `cut` build diagrams without re-running their
    checks; every such diagram must pass the checked constructor."""

    @staticmethod
    def assert_checked(d):
        assert dataclasses.replace(d) == d

    @pytest.mark.parametrize("n", range(9))
    def test_half_permutations(self, n):
        for k in range(n + 1):
            for h in enum_ncc(n, k):
                self.assert_checked(h)
            for h in enum_ncl(n, k):
                self.assert_checked(h)

    @pytest.mark.parametrize("total", range(2, 9))
    def test_annuli_and_their_halves(self, total):
        for m in range(1, total):
            for a in enum_snc(m, total - m):
                self.assert_checked(a)
                for h in cut(a):
                    self.assert_checked(h)


class TestCutReassemble:
    @pytest.mark.parametrize(("m", "n"), [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_round_trip_and_multiset(self, m, n):
        fibers = {}
        for a in enum_snc(m, n):
            h1, h2 = cut(a)
            assert h1.n == m and h2.n == n
            assert h1.k == h2.k >= 1
            hits = [s for s in range(1, h1.k + 1) if reassemble(h1, h2, s).perm == a.perm]
            assert len(hits) == 1
            fibers.setdefault((h1, h2), []).append(a)
        rebuilt = Counter()
        for (h1, h2), members in fibers.items():
            # each distinct pair of halves is cut from exactly k elements,
            # and its k reassemblies are exactly those elements
            assert len(members) == h1.k
            for s in range(1, h1.k + 1):
                rebuilt[reassemble(h1, h2, s).perm.image] += 1
        assert rebuilt == Counter(a.perm.image for a in enum_snc(m, n))

    def test_verify_suite_passes(self):
        records = _cut_reassemble_records(6)
        failing = [f"{r['identity']}: {r['instance']}" for r in records if not r["pass"]]
        assert failing == []
        # three records for each annulus m >= n >= 1 with m + n <= 6
        assert len(records) == 3 * 9

    def test_a_wrong_covariance_fails_its_record(self, monkeypatch):
        monkeypatch.setattr(cli, "predict_covariance", lambda m, n: PolyC.zero())
        failing = {r["identity"] for r in _cut_reassemble_records(4) if not r["pass"]}
        assert failing == {"annular census equals the diagonalized covariance"}

    def test_reassemblies_are_distinct_and_valid(self):
        pool = enum_ncc(3, 2)
        h1, h2 = pool[0], pool[-1]
        results = [reassemble(h1, h2, s) for s in (1, 2)]
        assert results[0].perm != results[1].perm
        for a in results:
            assert cut(a) == (h1, h2)

    def test_weighted_product_identity(self):
        for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
            total = PolyC.zero()
            for k in range(1, min(m, n) + 1):
                term = PolyC.const(k) * PolyC.monomial(k)
                total = total + term * gbar(m, k) * gbar(n, k)
            assert total == weighted_count(enum_snc(m, n), WeightRule.ALL_BLOCKS)

    def test_figure_eight_cut(self):
        a = AnnularPerm(
            8,
            4,
            Perm.from_cycles(12, ((1, 2, 3, 12), (4, 9), (5, 6, 7), (8,), (10, 11))),
        )
        outer, inner = cut(a)
        assert outer.perm.cycles() == ((1, 2, 3), (4,), (5, 6, 7), (8,))
        assert outer.open_sets() == (frozenset({1, 2, 3}), frozenset({4}))
        assert set(outer.bbar) == {1, 4, 5, 8}
        assert inner.n == 4 and inner.k == 2
        assert inner.perm.cycles() == ((1,), (2, 3), (4,))
        recovered = [
            s for s in (1, 2) if reassemble(outer, inner, s).perm == a.perm
        ]
        assert len(recovered) == 1

    def test_error_cases(self):
        h1 = enum_ncc(2, 1)[0]
        h2 = enum_ncc(2, 2)[0]
        with pytest.raises(ValueError, match="open"):
            reassemble(h1, h2, 1)
        with pytest.raises(ValueError, match="s must be"):
            reassemble(h1, enum_ncc(3, 1)[0], 2)
        closed = enum_ncc(2, 0)[0]
        with pytest.raises(ValueError):
            reassemble(closed, closed, 1)
