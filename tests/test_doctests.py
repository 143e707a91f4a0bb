"""The docstring examples of the exact-algebra modules and of the Fock
model's row layout run as tests."""

import doctest
import importlib

import pytest

from ncwishart import families, polyc

# by module path: the package's name `wick` is the function
wick_module = importlib.import_module("ncwishart.wick")


@pytest.mark.parametrize("module", [polyc, families, wick_module], ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
