"""Compressed multivariate Faa di Bruno formula via multinomial expansion
over multi-index partitions, with a chain-rule oracle and the classical
applications (cumulants, compound Poisson, Hermite polynomials)."""

from .algebra import FormulaPoly, relabel_shared
from .errors import (
    DimensionMismatch,
    MissingValue,
    PartsMismatch,
    SingularSigma,
    TermCapExceeded,
    UmfbError,
    ZeroIndex,
)
from .fdbcore import (
    CompositionSpec,
    MomentSequence,
    dot_power_expansion,
    generalized_bell,
    predict_term_count,
    umfb,
)
from .multiindex import (
    Partition,
    compositions_into,
    count_partitions,
    multi_factorial,
    multinomial,
    partitions,
)
from .oracle import (
    DerivativeState,
    chain_rule_derivative,
    differentiate_once,
    equivalence_check,
)
from .special import (
    MomentTable,
    SymmetricMatrix,
    compound_poisson_moments,
    cumulants_to_moments,
    hermite,
    hermite_via_bell,
    laplace_derivative_sign,
    moments_to_cumulants,
    reciprocal_series_moment,
)

__all__ = [
    "FormulaPoly",
    "relabel_shared",
    "UmfbError",
    "PartsMismatch",
    "ZeroIndex",
    "DimensionMismatch",
    "MissingValue",
    "SingularSigma",
    "TermCapExceeded",
    "CompositionSpec",
    "MomentSequence",
    "dot_power_expansion",
    "umfb",
    "generalized_bell",
    "predict_term_count",
    "Partition",
    "multi_factorial",
    "multinomial",
    "compositions_into",
    "partitions",
    "count_partitions",
    "DerivativeState",
    "differentiate_once",
    "chain_rule_derivative",
    "equivalence_check",
    "MomentTable",
    "SymmetricMatrix",
    "moments_to_cumulants",
    "cumulants_to_moments",
    "compound_poisson_moments",
    "laplace_derivative_sign",
    "reciprocal_series_moment",
    "hermite",
    "hermite_via_bell",
]

__version__ = "0.1.0"
