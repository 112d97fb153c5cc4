"""Compressed multivariate Faa di Bruno expansion.

The core expansion writes the i-th derivative symbol of a composite function
as a sum over partitions of i: each partition lambda contributes the integer
weight i!/(multiplicities(lambda)! * columns(lambda)!), an outer factor of
degree length(lambda) and one inner factor per column.  The full multivariate
formula distributes a multinomial sum over ordered decompositions of i into
one part per inner function and merges the per-function expansions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping

from .algebra import FormulaPoly, add_term, merge_factors
from .errors import MissingValue, TermCapExceeded
from .multiindex import (
    Index,
    as_index,
    compositions_into,
    count_partitions,
    multinomial,
    order,
    partitions,
)

DEFAULT_TERM_CAP = 10_000_000
TERM_CAP_ENV = "UMFB_TERM_CAP"


@dataclass(frozen=True)
class MomentSequence:
    """A moment lookup a_k (integer k) or a_i (multi-index i), with a_0 = 1:
    a_k = 1 for every k (``values`` None), or a read-only table of explicit
    values, univariate or multi-index keyed."""

    values: Mapping | None = None

    @classmethod
    def unity(cls) -> "MomentSequence":
        return cls()

    @classmethod
    def from_values(cls, values) -> "MomentSequence":
        """Univariate table a_1..a_K (a_0 is implicitly 1)."""
        return cls.from_table({(k + 1,): v for k, v in enumerate(values)})

    @classmethod
    def from_table(cls, table) -> "MomentSequence":
        """Multi-index keyed table; the zero index defaults to 1."""
        return cls(MappingProxyType({tuple(k): Fraction(v) for k, v in table.items()}))

    def at(self, k):
        """Value at k; k may be an int or a multi-index."""
        idx = (k,) if isinstance(k, int) else tuple(k)
        if self.values is None or not any(idx):
            return 1
        try:
            return self.values[idx]
        except KeyError:
            raise MissingValue(f"moment sequence has no value at {idx}") from None


@dataclass(frozen=True)
class CompositionSpec:
    """Shape of one composite-derivative computation.

    ``index`` is the derivative order (length m), ``n`` the number of inner
    functions (= outer arity), ``m`` the number of inner variables.  With
    ``inner_mode='shared'`` all inner functions are the same function.
    ``outer=None`` keeps the outer derivatives symbolic.
    """

    index: Index
    n: int
    m: int
    inner_mode: str = "distinct"
    outer: MomentSequence | None = None

    def __post_init__(self):
        object.__setattr__(self, "index", as_index(self.index))
        if len(self.index) != self.m:
            raise ValueError(f"index {self.index} has length != m={self.m}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.inner_mode not in ("distinct", "shared"):
            raise ValueError(f"unknown inner_mode {self.inner_mode!r}")


def predict_term_count(index: Index, n: int, columns=None) -> int:
    """Upper bound on output terms: the number of n-tuples of partitions
    summing to ``index`` (exact in distinct mode with symbolic outer); with
    ``columns``, of partitions whose columns are all among them."""
    index = as_index(index)
    return 1 if order(index) == 0 else count_partitions(index, n, columns)


def _check_cap(index: Index, n: int, columns=None):
    """Raise TermCapExceeded, before any enumeration, when the predicted term
    count exceeds the cap read from UMFB_TERM_CAP (default DEFAULT_TERM_CAP);
    a value that is not a nonnegative integer is a usage error."""
    env = os.environ.get(TERM_CAP_ENV)
    try:
        limit = int(env) if env else DEFAULT_TERM_CAP
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"{TERM_CAP_ENV}={env!r} is not a nonnegative integer")
    predicted = predict_term_count(index, n, columns)
    if predicted > limit:
        raise TermCapExceeded(
            f"predicted {predicted} terms exceeds the term cap {TERM_CAP_ENV}={limit} "
            f"for index {index}, n={n}"
        )


def dot_power_expansion(index: Index, outer: MomentSequence | None = None) -> FormulaPoly:
    """Expand one composite power over the partitions of ``index``: the n = 1
    case of `umfb`.

    With a symbolic outer (None) each partition contributes an outer symbol
    of univariate degree equal to the partition length; with a numeric outer
    the sequence value at that length multiplies the coefficient.
    """
    index = as_index(index)
    return umfb(CompositionSpec(index, 1, len(index), outer=outer))


def umfb(spec: CompositionSpec) -> FormulaPoly:
    """The compressed multivariate Faa di Bruno formula for ``spec``.

    Outer powers are collected into a single outer symbol indexed by the
    per-function partition lengths; in shared mode inner function ids
    collapse to 1 before collection.
    """
    return _assemble(spec, bell=False)


def generalized_bell(i: Index, n: int, m: int) -> FormulaPoly:
    """Same expansion as `umfb` with the outer symbol rendered as a monomial
    in the indeterminates x1..xn; substituting xj by the outer moments
    recovers the `umfb` output."""
    spec = CompositionSpec(index=as_index(i), n=n, m=m)
    return _assemble(spec, bell=True)


def _tagged_expansion(memo: dict, index: Index, fn: int) -> tuple:
    """Partition expansion of one power as (weight, length, factors) triples,
    the inner factors pre-built as (symbol, exponent) tuples for function id
    ``fn``; columns are ascending, so the factors come out sorted.  The zero
    index expands to the single unit triple, mirroring the base case of the
    recursive reference procedure.

    ``memo`` is the calling `_assemble`'s table: memo[index] holds the
    untagged (weight, length, columns) triples, enumerated once per call and
    shared by every function id, and memo[index, fn] the tagged ones."""
    row = memo.get((index, fn))
    if row is None:
        plain = memo.get(index)
        if plain is None:
            plain = memo[index] = ((1, 0, ()),) if order(index) == 0 else tuple(
                (p.coefficient(), p.length, p.columns) for p in partitions(index)
            )
        row = memo[index, fn] = tuple(
            (weight, length, tuple((("g", fn, col), mult) for col, mult in cols))
            for weight, length, cols in plain
        )
    return row


def _assemble(spec: CompositionSpec, bell: bool) -> FormulaPoly:
    """Collect the products of the per-function expansions.  Keys are built
    sorted (outer factor, inner factors in function order, x factors); only
    shared mode with n > 1 repeats symbols, so only it merges and collects."""
    i, n = spec.index, spec.n
    shared = spec.inner_mode == "shared"
    _check_cap(i, n)
    acc: dict = {}
    memo: dict = {}
    outer_factors: dict = {}  # one shared outer factor per length tuple
    for parts in compositions_into(i, n):
        base = multinomial(i, parts)
        expansions = [
            _tagged_expansion(memo, k, 1 if shared else j)
            for j, k in enumerate(parts, start=1)
        ]
        for combo in product(*expansions):
            coeff = base
            inner: tuple = ()
            lengths = []
            for weight, length, factors in combo:
                coeff *= weight
                lengths.append(length)
                inner += factors
            if bell:
                key = inner + tuple(
                    (("x", j), length)
                    for j, length in enumerate(lengths, start=1)
                    if length
                )
            elif spec.outer is None:
                lengths = tuple(lengths)
                key = outer_factors.setdefault(lengths, ((("f", lengths), 1),)) + inner
            else:
                coeff = coeff * spec.outer.at(tuple(lengths))
                if coeff == 0:
                    continue
                key = inner
            if shared and n > 1:
                add_term(acc, merge_factors(key), coeff)
            else:
                acc[key] = coeff
    return FormulaPoly(spec.n, spec.m, acc)

