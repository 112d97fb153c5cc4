"""Compressed multivariate Faa di Bruno formula via multinomial expansion
over multi-index partitions, with a chain-rule oracle and the classical
applications (cumulants, compound Poisson, Hermite polynomials).

The public names load their module on first use (PEP 562), so importing
the package, or one module of it, does not import the others."""

from importlib import import_module

_HOMES = {
    "algebra": ("FormulaPoly",),
    "errors": ("UmfbError", "PartsMismatch", "ZeroIndex", "DimensionMismatch",
               "MissingValue", "SingularSigma", "TermCapExceeded"),
    "fdbcore": ("CompositionSpec", "MomentTable", "dot_power_expansion", "umfb",
                "generalized_bell", "predict_term_count"),
    "multiindex": ("Partition", "multi_factorial", "multinomial", "compositions_into",
                   "partitions", "count_partitions"),
    "oracle": ("DerivativeState", "differentiate_once", "chain_rule_derivative",
               "relabel_shared", "equivalence_check"),
    "special": ("SymmetricMatrix", "moments_to_cumulants",
                "cumulants_to_moments", "compound_poisson_moments",
                "laplace_derivative_sign", "reciprocal_series_moment", "hermite",
                "hermite_via_bell"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
