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
  diagram calculus, with exactness checked on the safe subspace.
* :mod:`ncwishart.cli` -- the ``ncwishart`` command line tool.
"""

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
from .wick import (
    FockOperator,
    FockVector,
    OperatorCheck,
    TracialAlgebra,
    convolution,
    p_operator,
    w_pi,
    wick,
    wick_report,
)
from .rmt import (
    EnsembleConfig,
    StatCheck,
    evaluate_statistics,
    predict_covariance,
    sample_traces,
)
from .families import (
    Family,
    ShiftConstants,
    TransitionMatrix,
    chebyshev_C,
    chebyshev_S,
    gamma,
    gamma_tilde,
    integrate_against_reference,
    inverse_table,
    moments,
    pi_poly,
    series_G,
    series_P,
    transition_matrix,
)

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
    "FockVector",
    "OperatorCheck",
    "TracialAlgebra",
    "convolution",
    "p_operator",
    "w_pi",
    "wick",
    "wick_report",
    "Family",
    "ShiftConstants",
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
