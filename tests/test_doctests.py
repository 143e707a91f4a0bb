"""The docstring examples of the exact-algebra modules, of the
half-permutation text forms and of the Fock model's row layout run as
tests."""

import doctest

import pytest

from ncwishart import families, halfperm, polyc, wick


@pytest.mark.parametrize("module", [polyc, families, halfperm, wick], ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
