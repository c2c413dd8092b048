"""Exact arithmetic for generalized sums-of-divisors q-series.

Computes MacMahon's A_r and C_r, Eisenstein series and their odd (level 2)
variants, nested divisor sums, and quasi-shuffle algebra products, and
mechanically verifies the generating-series identities relating them, at
configurable truncation orders and entirely over exact rationals.  A small
floating-point layer cross-checks the lattice-sum side (monotangent and
multitangent functions) and the q -> 1 limits.
"""

from .identities import (
    GeneratorPoly,
    Mismatch,
    NoRepresentationError,
    Representation,
    VerdictReport,
    express_in_generators,
    extract_polynomials,
    format_generator_poly,
    lemma_combinatorial_check,
    verify_exp_quasi_shuffle,
    verify_geng22,
    verify_main_a,
    verify_main_c,
    zeta_two_power,
)
from .numerics import (
    DivergenceError,
    LimitReport,
    NonConvergenceError,
    SeriesValue,
    TangentSum,
    eval_qseries_at,
    limit_check,
    lipschitz_value,
    monotangent,
    multitangent,
    richardson,
)
from .qseries import (
    RouteMismatchError,
    bernoulli,
    divisor_power_sums,
    eisenstein,
    eisenstein_odd,
    macmahon_a,
    macmahon_c,
    multiple_divisor_series,
    multiple_divisor_series_odd,
    partition_oracle,
)
from .quasimodular import canonical_form
from .quasishuffle import HARMONIC, QuasiShuffleAlgebra, WordCombo
from .series import (
    RATIONALS,
    CoeffRing,
    NonzeroConstantTermError,
    Series,
    series_ring,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffRing", "DivergenceError", "GeneratorPoly", "HARMONIC", "LimitReport", "Mismatch",
    "NoRepresentationError", "NonConvergenceError", "NonzeroConstantTermError",
    "QuasiShuffleAlgebra", "RATIONALS", "Representation", "RouteMismatchError", "Series",
    "SeriesValue", "TangentSum", "VerdictReport",
    "bernoulli", "canonical_form", "divisor_power_sums", "eisenstein", "eisenstein_odd",
    "eval_qseries_at", "express_in_generators", "extract_polynomials",
    "format_generator_poly", "lemma_combinatorial_check",
    "limit_check", "lipschitz_value", "macmahon_a",
    "macmahon_c", "monotangent", "multiple_divisor_series",
    "multiple_divisor_series_odd", "multitangent", "partition_oracle",
    "richardson", "series_ring", "verify_exp_quasi_shuffle", "verify_geng22",
    "verify_main_a", "verify_main_c", "WordCombo", "zeta_two_power",
]
