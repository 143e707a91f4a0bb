"""The mutation matrix: each mutant of an enumerator, a bijection, a weight,
a recurrence constant, an exact formula, a series or a Fock operator
fails at least one record of a `verify` suite at a small size.

A mutant replaces one name where the suite reads it, by `monkeypatch`.
An enumerator's mutant leaves out, or repeats, the last diagram of one
cell only.  The `lru_cache`s of the package are cleared around each
mutant, so no mutated value outlives it.  A mutant that fails no record
is a gap of the suites: it would be listed as an expected failure,
strictly, so that closing the gap shows.  None is listed.

A permutation's seeded cycles are no record of any suite: their mutant
fails the differential test of `test_cycle_cache.py` instead.
"""

import dataclasses
import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ncwishart import cli, halfperm, perms
from ncwishart.dots import dot_decode, enum_dots
from ncwishart.families import RECURRENCES
from ncwishart.halfperm import CircularHalfPerm
from ncwishart.polyc import PolyC

MODULES = ("families", "halfperm", "perms")


@pytest.fixture(autouse=True)
def clear_caches():
    def clear():
        for name in MODULES:
            for value in vars(importlib.import_module(f"ncwishart.{name}")).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    clear()
    yield
    clear()


def in_cell(cell, change):
    """A mutant of an enumerator that applies `change` to the tuple of
    diagrams of `cell` (its arguments) and leaves the other cells alone."""
    def mutate(fn):
        @functools.wraps(fn)
        def mutant(*args):
            out = tuple(fn(*args))
            return change(out) if args == cell else out
        return mutant
    return mutate


def drop(out):
    return out[:-1]


def repeat(out):
    return out + out[-1:]


def plus(term):
    """A mutant of an exact formula that adds `term` to its value."""
    def mutate(fn):
        @functools.wraps(fn)
        def mutant(*args):
            return fn(*args) + term(*args)
        return mutant
    return mutate


def weighing_every_block(fn):
    """A weighted count that weighs a diagram by all of its blocks, open and
    designated ones too: right for an annulus, wrong for a half."""
    @functools.wraps(fn)
    def mutant(diagrams):
        return PolyC.census(d.perm.num_cycles() for d in diagrams)
    return mutant


def times_z(fn):
    """A series map whose every value is shifted up one order of z."""
    @functools.wraps(fn)
    def mutant(*args):
        return fn(*args).times_z()
    return mutant


def designating_the_block_of_one(fn):
    """A decoder whose designated block is always the one through point 1:
    the half of every other designated block comes back wrong."""
    @functools.wraps(fn)
    def mutant(d):
        h = fn(d)
        if h.designated is None:
            return h
        block = tuple(sorted(h.perm.cycle_containing(1)))
        return CircularHalfPerm(n=h.n, perm=h.perm, designated=block)
    return mutant


def swapping(pick):
    """A mutant of a map that swaps its outputs on the two argument tuples
    `pick()` gives."""
    def mutate(fn):
        @functools.wraps(fn)
        def mutant(*args):
            first, second = pick()
            return fn(*{first: second, second: first}.get(args, args))
        return mutant
    return mutate


def merging(pick):
    """A mutant of a map that sends the second argument tuple `pick()` gives
    where it sends the first: two inputs, one output."""
    def mutate(fn):
        @functools.wraps(fn)
        def mutant(*args):
            first, second = pick()
            return fn(*first) if args == second else fn(*args)
        return mutant
    return mutate


def last_of_cell_3_1(key):
    """The first half of cell (3, 1) with the `key` of the cell's last half,
    and the last half."""
    cell = halfperm.enum_ncl(3, 1)
    return (next(g for g in cell if key(g) == key(cell[-1])),), (cell[-1],)


def two_fibers_of_cell_3_2(args):
    """Two annuli of cell (3, 2) that `cut` sends to different fibers, as
    `args` makes them into argument tuples from an annulus and its cut."""
    elems = perms.enum_snc(3, 2)
    first = elems[0]
    second = next(a for a in elems if halfperm.cut(a) != halfperm.cut(first))
    return args(first), args(second)


# two structures of the cell n=4, k=1, j=1 and the halves they decode to
DOTS = enum_dots(4, 1, 1)[:2]
HALVES = tuple(dot_decode(d) for d in DOTS)


def case_3_as_case_2(fn):
    """A case rule that puts the case-3 halves of cell (3, 1) in case 2."""
    @functools.wraps(fn)
    def mutant(h):
        case = fn(h)
        return 2 if case == 3 and (h.n, h.k) == (3, 1) else case
    return mutant


def without_preservation(fn):
    """F's first-factor actions with the preservation rows zeroed."""
    @functools.wraps(fn)
    def mutant(alg, d_el):
        actions = fn(alg, d_el).copy()
        actions[:-1] = 0.0
        return actions
    return mutant


def pairing_against_d(fn):
    """F's first-factor actions with annihilation pairing each b_i against
    d, psi(d* b_i), where the adjoint's annihilation pairs it against d*."""
    @functools.wraps(fn)
    def mutant(alg, d_el):
        actions = fn(alg, d_el).copy()
        actions[-1] = alg.gram @ np.conj(d_el)
        return actions
    return mutant


def on_longer_words(change):
    """A mutant of the Wick product that applies `change` to its word when
    it has two letters or more; one letter, the `p` operator, stays."""
    def mutate(fn):
        @functools.wraps(fn)
        def mutant(alg, word, depth):
            word = tuple(word)
            return fn(alg, change(alg, word) if len(word) >= 2 else word, depth)
        return mutant
    return mutate


def read_in_reverse(alg, word):
    return word[::-1]


def last_two_merged(alg, word):
    return word[:-2] + (alg.multiply(word[-2], word[-1]),)


def with_constant(name, constant, term):
    """A mutant of the recurrence table with `term` added to one constant
    of one recurrence: a new `ThreeTerm`, since each keeps the rows it has
    grown."""
    def mutate(recurrences):
        old = recurrences[name]
        return {**recurrences, name: dataclasses.replace(
            old, **{constant: getattr(old, constant) + term})}
    return mutate


WICK_SIZES = {"depth": 4, "seed": 0, "algebra": "all"}

# the name each mutant replaces (module, then attributes), the mutation,
# the suite and its sizes, and a text that every failed record's instance
# holds
MUTANTS = [
    pytest.param("halfperm.enum_nc", in_cell((4,), drop), "lineardecomp", {"max_n": 4}, "n=4",
                 id="enum_nc drops"),
    pytest.param("halfperm.enum_nc", in_cell((4,), repeat), "lineardecomp", {"max_n": 4},
                 "n=4", id="enum_nc repeats"),
    pytest.param("cli.enum_ncc", in_cell((3, 1), drop), "bijections", {"max_n": 3}, "n=3,k=1",
                 id="enum_ncc drops"),
    pytest.param("cli.enum_ncc", in_cell((3, 1), repeat), "bijections", {"max_n": 3},
                 "n=3,k=1", id="enum_ncc repeats"),
    pytest.param("cli.enum_ncc", in_cell((3, 1), drop), "recursions", {"max_n": 4}, "",
                 id="enum_ncc drops (recursions)"),
    # the odd pairing's records are per n
    pytest.param("cli.enum_ncl", in_cell((3, 1), drop), "bijections", {"max_n": 3}, "n=3",
                 id="enum_ncl drops"),
    pytest.param("cli.enum_ncl", in_cell((3, 1), repeat), "bijections", {"max_n": 3}, "n=3",
                 id="enum_ncl repeats"),
    pytest.param("cli.linear_remove", merging(lambda: last_of_cell_3_1(halfperm.linear_case)),
                 "bijections", {"max_n": 3}, "n=3,k=1,case=2",
                 id="linear_remove merges two halves"),
    pytest.param("cli.linear_case", case_3_as_case_2, "bijections", {"max_n": 3}, "n=3,k=1",
                 id="linear_case calls case 3 case 2"),
    pytest.param("cli.pair_up_odd", merging(lambda: last_of_cell_3_1(lambda h: None)),
                 "bijections", {"max_n": 3}, "n=3", id="pair_up_odd repeats an output"),
    pytest.param("cli.enum_dots", in_cell((3, 1, 1), drop), "bijections", {"max_n": 3},
                 "n=3,k=1,j=1", id="enum_dots drops"),
    pytest.param("cli.enum_dots", in_cell((3, 1, 1), repeat), "bijections", {"max_n": 3},
                 "n=3,k=1,j=1", id="enum_dots repeats"),
    pytest.param("perms.iter_snc_images", in_cell((3, 2), drop), "cut-reassemble",
                 {"max_total": 5}, "m=3,n=2", id="iter_snc_images drops"),
    pytest.param("perms.iter_snc_images", in_cell((3, 2), repeat), "cut-reassemble",
                 {"max_total": 5}, "m=3,n=2", id="iter_snc_images repeats"),
    pytest.param("halfperm.CircularHalfPerm.closed_weight_exponent", plus(lambda h: 1),
                 "bijections", {"max_n": 3}, "", id="closed_weight_exponent + 1"),
    pytest.param("halfperm.CircularHalfPerm.closed_weight_exponent", plus(lambda h: 1),
                 "recursions", {"max_n": 4}, "", id="closed_weight_exponent + 1 (recursions)"),
    pytest.param("cli.predict_covariance", plus(lambda m, n: PolyC.monomial(min(m, n))),
                 "cut-reassemble", {"max_total": 5}, "", id="predict_covariance + c^k"),
    pytest.param("families.shift_constant", plus(lambda n: PolyC.c()), "recursions",
                 {"max_n": 4}, "", id="shift_constant + c"),
    pytest.param("cli.weighted_count", weighing_every_block, "bijections", {"max_n": 3},
                 "", id="weighted_count weighs a half by all its blocks"),
    pytest.param("perms.AnnularPerm.closed_weight_exponent", plus(lambda a: 1),
                 "cut-reassemble", {"max_total": 5}, "", id="annulus closed_weight_exponent + 1"),
    # one column up the ladder for every column climbed
    pytest.param("families._ladder", times_z, "series", {"order": 6, "max_k": 3}, "k=",
                 id="_ladder times z"),
    pytest.param("cli.dot_decode", designating_the_block_of_one, "bijections", {"max_n": 3},
                 "k=0", id="dot_decode designates the block of 1"),
    pytest.param("cli.dot_decode", swapping(lambda: ((DOTS[0],), (DOTS[1],))), "bijections",
                 {"max_n": 4}, "n=4,k=1,j=1", id="dot_decode swaps two answers"),
    pytest.param("cli.dot_encode", merging(lambda: ((HALVES[0],), (HALVES[1],))), "bijections",
                 {"max_n": 4}, "n=4,k=1,j=1", id="dot_encode merges two halves"),
    pytest.param("cli.cut", swapping(lambda: two_fibers_of_cell_3_2(lambda a: (a,))),
                 "cut-reassemble", {"max_total": 5}, "m=3,n=2", id="cut swaps two outputs"),
    pytest.param("cli.reassemble",
                 swapping(lambda: two_fibers_of_cell_3_2(lambda a: (*halfperm.cut(a), 1))),
                 "cut-reassemble", {"max_total": 5}, "m=3,n=2",
                 id="reassemble swaps two outputs"),
    pytest.param("wick._first_factor_actions", without_preservation, "wick", WICK_SIZES, "L=4",
                 id="F without its preservation term"),
    pytest.param("wick._first_factor_actions", pairing_against_d, "wick", WICK_SIZES, "L=4",
                 id="annihilation pairs against d, not d*"),
    pytest.param("wick.wick", on_longer_words(read_in_reverse), "wick", WICK_SIZES, "L=4",
                 id="wick reads the word in reverse"),
    pytest.param("wick.wick", on_longer_words(last_two_merged), "wick", WICK_SIZES, "L=4",
                 id="wick merges the last two letters"),
] + [
    pytest.param("families.RECURRENCES", with_constant(name, constant, term), "recursions",
                 {"max_n": 4}, "", id=f"{name} {constant} + {term}")
    for name in RECURRENCES
    for constant in ("a0", "a", "b1", "b")
    for term in (PolyC.one(), PolyC.c())
]


def target(path):
    """The object that holds the name `path` ends with, and the name."""
    owner_path, name = path.rsplit(".", 1)
    module, *attrs = owner_path.split(".")
    owner = importlib.import_module(f"ncwishart.{module}")
    return functools.reduce(getattr, attrs, owner), name


@pytest.mark.parametrize("path,mutate,suite,sizes,where", MUTANTS)
def test_every_mutant_fails_a_record(monkeypatch, path, mutate, suite, sizes, where):
    owner, name = target(path)
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    builder, _ = cli.VERIFY_SUITES[suite]
    failed = [rec["instance"] for rec in builder(**sizes) if not rec["pass"]]
    assert failed, "no record fails"
    assert all(where in instance for instance in failed), failed


def out_of_minimum_order(fn):
    """A seeding that lists a partition's blocks from the last one."""
    @functools.wraps(fn)
    def mutant(n, blocks):
        return fn(n, blocks[::-1])
    return mutant


def sibling_module(name):
    """A sibling test module, loaded by its path."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mutate", [
    pytest.param(out_of_minimum_order, id="enum_nc seeds cycles out of minimum order"),
])
def test_a_seeding_mutant_fails_the_differential_test(monkeypatch, mutate):
    monkeypatch.setattr(perms, "_from_blocks", mutate(perms._from_blocks))
    differential = sibling_module("test_cycle_cache")
    with pytest.raises(AssertionError):
        differential.test_enum_nc_seeds_the_walked_cycles(3)
