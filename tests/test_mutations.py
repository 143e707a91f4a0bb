"""The mutation matrix: each mutant of an enumerator, a weight rule or an
exact formula fails at least one record of a `verify` suite at a small
size.

A mutant replaces one name where the suite reads it, by `monkeypatch`.
An enumerator's mutant leaves out, or repeats, the last diagram of one
cell only.  The `lru_cache`s of the package are cleared around each
mutant, so no mutated value outlives it.  A mutant that fails no record
is a gap of the suites: it is listed as an expected failure, strictly,
so that closing the gap shows.
"""

import functools
import importlib

import pytest

from ncwishart import cli
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


WICK = {"depth": 4, "seed": 0, "algebra": "scalar"}
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
    pytest.param("wick.enum_ncl", in_cell((3, 1), drop), "wick", WICK, "",
                 id="enum_ncl drops"),
    pytest.param("wick.enum_ncl", in_cell((3, 1), repeat), "wick", WICK, "",
                 id="enum_ncl repeats"),
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
    # the enumerated census recursion of `verify recursions` is linear, so
    # a weight exponent one too high in every cell keeps it
    pytest.param("halfperm.CircularHalfPerm.closed_weight_exponent", plus(lambda h: 1),
                 "recursions", {"max_n": 4}, "", id="closed_weight_exponent + 1 (recursions)",
                 marks=pytest.mark.xfail(strict=True, reason="the census recursion is linear")),
    pytest.param("cli.predict_covariance", plus(lambda m, n: PolyC.monomial(min(m, n))),
                 "cut-reassemble", {"max_total": 5}, "", id="predict_covariance + c^k"),
    pytest.param("families.shift_constant", plus(lambda n: PolyC.c()), "recursions",
                 {"max_n": 4}, "", id="shift_constant + c"),
    pytest.param("cli.dot_decode", designating_the_block_of_one, "bijections", {"max_n": 3},
                 "k=0", id="dot_decode designates the block of 1"),
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
