"""The docstring examples of the exact-algebra modules and of the Fock
model's row layout run as tests."""

import doctest

import pytest

from ncwishart import families, polyc, wick


@pytest.mark.parametrize("module", [polyc, families, wick], ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
