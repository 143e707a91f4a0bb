"""Exact non-crossing diagram combinatorics for Wishart trace fluctuations.

The package has five parts:

* :mod:`ncwishart.polyc` / :mod:`ncwishart.families` -- exact polynomial
  algebra: the two monic orthogonal families, their unitriangular
  transition matrices and inverses, and the matching generating series.
* :mod:`ncwishart.perms`, :mod:`ncwishart.halfperm`, :mod:`ncwishart.dots`,
  :mod:`ncwishart.colored` -- diagram enumeration: non-crossing partitions
  (disc and annulus), half-permutations with open blocks, the dot-structure
  bijection, cut/reassemble between annular and circular objects, and
  colored annular sets.
* :mod:`ncwishart.rmt` -- Monte-Carlo experiments on complex Wishart
  matrices checking the predicted fluctuation moments.
* :mod:`ncwishart.wick` -- a truncated-Fock operator model realizing the
  diagram calculus, with exactness checked on the safe subspace; vectors
  are complex arrays with one column each, operators are applied by rule.
  The Wick product itself is the function ``ncwishart.wick.wick``; the
  package name ``wick`` is always the submodule.
* :mod:`ncwishart.cli` -- the ``ncwishart`` command line tool.

Only :mod:`ncwishart.rmt` and :mod:`ncwishart.wick` compute in floating
point, and only they import numpy.  ``import ncwishart`` loads the exact
modules; the names exported from ``rmt`` and ``wick`` are bound on first
access, so numpy is imported the first time one of them is used.  On the
command line that is ``mc`` and ``verify wick``; every other command runs
without numpy.
"""

from importlib import import_module

from .polyc import PolyC, PolyXC, SeriesZ
from .perms import AnnularPerm, Perm, enum_nc, enum_snc, iter_snc_images
from .halfperm import (
    CircularHalfPerm,
    LinearHalfPerm,
    WeightRule,
    cut,
    enum_ncc,
    enum_ncl,
    reassemble,
    weighted_count,
)
from .colored import (
    ColoredAnnularSpec,
    enum_colored_ncc,
    enum_colored_snc,
    restrict_to_intervals,
    spoke_spec,
    through_profile,
)
from .dots import DotStructure, dot_decode, dot_encode, enum_dots
from .families import (
    Family,
    TransitionMatrix,
    chebyshev_C,
    chebyshev_S,
    gamma,
    gamma_tilde,
    integrate_against_reference,
    inverse_table,
    moments,
    pi_poly,
    predict_covariance,
    series_G,
    series_P,
    shift_constant,
    transition_matrix,
)

# the names of the two numeric modules, bound here on first access
_NUMERIC = {
    "rmt": ("EnsembleConfig", "StatCheck", "evaluate_statistics", "sample_traces"),
    "wick": (
        "FockOperator",
        "OperatorCheck",
        "TracialAlgebra",
        "convolution",
        "p_operator",
        "w_pi",
        "wick_report",
    ),
}


def __getattr__(name: str):
    for module, names in _NUMERIC.items():
        if name == module or name in names:
            loaded = import_module(f".{module}", __name__)
            globals().update((n, getattr(loaded, n)) for n in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "PolyC",
    "PolyXC",
    "SeriesZ",
    "AnnularPerm",
    "Perm",
    "enum_nc",
    "enum_snc",
    "iter_snc_images",
    "CircularHalfPerm",
    "ColoredAnnularSpec",
    "enum_colored_ncc",
    "enum_colored_snc",
    "restrict_to_intervals",
    "spoke_spec",
    "through_profile",
    "LinearHalfPerm",
    "WeightRule",
    "cut",
    "enum_ncc",
    "enum_ncl",
    "reassemble",
    "weighted_count",
    "DotStructure",
    "dot_decode",
    "dot_encode",
    "enum_dots",
    "EnsembleConfig",
    "StatCheck",
    "evaluate_statistics",
    "predict_covariance",
    "sample_traces",
    "FockOperator",
    "OperatorCheck",
    "TracialAlgebra",
    "convolution",
    "p_operator",
    "w_pi",
    "wick_report",
    "Family",
    "shift_constant",
    "TransitionMatrix",
    "chebyshev_C",
    "chebyshev_S",
    "gamma",
    "gamma_tilde",
    "integrate_against_reference",
    "inverse_table",
    "moments",
    "pi_poly",
    "series_G",
    "series_P",
    "transition_matrix",
    "__version__",
]
