"""Compressed multivariate Faa di Bruno expansion.

The i-th derivative of f(g_1, ..., g_n) is a sum over the n-tuples of
partitions A_1, ..., A_n of multi-indices summing to i: each tuple carries the
integer weight i!/prod_j prod mult! col!^mult over the columns of A_j, the
outer symbol f[l] with l_j the length of A_j, and one inner factor per column.
One engine, `_stream`, walks these tuples in canonical term order, and every
mode reads it.  A shared inner function is its one-function case:
f(g, ..., g) = h(g) with h^(d) = sum over |l| = d of d!/l! f[l].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .algebra import _JOINERS, FormulaPoly, _coeff_str, _document, _json_body, _Texts
from .errors import DimensionMismatch, MissingValue, TermCapExceeded
from .multiindex import (Index, Partition, as_index, compositions_into, count_partitions,
                         multi_factorial, multinomial, order, partitions)

DEFAULT_TERM_CAP = 10_000_000
TERM_CAP_ENV = "UMFB_TERM_CAP"


@dataclass(frozen=True)
class MomentTable:
    """Exact moments (or cumulants) a_i over n-indices i, with a_0 = 1: a
    read-only table of explicit values, complete up to total order K, or
    a_i = 1 at every index of any length (``values`` None; `unity`, n = 1).

    Because ``values`` is read-only, the partial Bell rows the table routes
    memoise on the table (``_bell_rows``) cannot go stale."""

    n: int
    values: Mapping | None = None
    _bell_rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"table dimension n={self.n!r} is not a positive integer")
        if self.values is not None:
            values = {as_index(k): v for k, v in self.values.items()}
            for k in values:
                if len(k) != self.n:
                    raise DimensionMismatch(f"index {k} has length != n={self.n}")
            object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "_bell_rows", {(0,) * self.n: [1]})

    @classmethod
    def unity(cls) -> "MomentTable":
        return cls(1)

    @classmethod
    def from_values(cls, values) -> "MomentTable":
        """Univariate table a_1..a_K (a_0 is implicitly 1)."""
        return cls(1, {(k + 1,): Fraction(v) for k, v in enumerate(values)})

    def at(self, k):
        """Value at k; k may be an int or a multi-index."""
        idx = (k,) if isinstance(k, int) else tuple(k)
        if self.values is None or not any(idx):
            return 1
        try:
            return self.values[idx]
        except KeyError:
            raise MissingValue(f"moment table has no value at {idx}") from None

    def max_order(self) -> int:
        if self.values is None:
            raise ValueError("a unity table has no highest order")
        return max((order(k) for k in self.values), default=0)

    def to_json(self) -> str:
        top = self.max_order()
        items = [{"index": list(k), "value": _coeff_str(v)} for k, v in sorted(self.values.items())]
        return json.dumps({"n": self.n, "K": top, "values": items}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        try:
            data = json.loads(text)
            n = data["n"]
            values = {tuple(e["index"]): Fraction(e["value"]) for e in data["values"]}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed moment table ({type(exc).__name__}: {exc})") from None
        return cls(n, values)


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
    outer: MomentTable | None = None

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
    # Tuples over the axis columns only split into one integer-partition
    # n-tuple per coordinate: a lower bound on the count, at a fraction of its cost.
    bound = prod(count_partitions((e,), n) for e in index if e) if columns is None else 0
    predicted = bound if bound > limit else predict_term_count(index, n, columns)
    if predicted > limit:
        raise TermCapExceeded(
            f"predicted {'at least ' if bound > limit else ''}{predicted} terms exceeds "
            f"the term cap {TERM_CAP_ENV}={limit} for index {index}, n={n}"
        )


def dot_power_expansion(index: Index, outer: MomentTable | None = None) -> FormulaPoly:
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
    per-function partition lengths; shared mode is the one-function stream
    with outer h (see `_rows`).  A numeric outer multiplies each row of terms
    by a_l, or in shared mode by h_d = sum over |l| = d of d!/l! a_l, and a
    row whose value is 0 is dropped.
    """
    _check_cap(spec.index, spec.n)
    acc: dict = {}
    shared, outer, n = spec.inner_mode == "shared", spec.outer, spec.n
    if outer is None:
        for _, terms in _rows(spec, lambda lengths: ((("f", lengths), 1),), _inner):
            acc.update(terms)
    else:
        for lengths, terms in _stream(spec.index, 1 if shared else n, lambda _: (), _inner):
            if shared:
                value = sum(w * outer.at(idx) for idx, w in _outer_indices(lengths[0], n))
            else:
                value = outer.at(lengths)
            if value != 0:
                acc.update((key, coeff * value) for key, coeff in terms)
    poly = FormulaPoly(n, spec.m, acc)
    poly._ordered = outer is None or shared  # without f[l], only n = 1 keeps key order
    return poly


def generalized_bell(i: Index, n: int, m: int) -> FormulaPoly:
    """Same expansion as `umfb` with the outer symbol rendered as a monomial
    in the indeterminates x1..xn; substituting xj by the outer moments
    recovers the `umfb` output."""
    i = CompositionSpec(index=i, n=n, m=m).index
    _check_cap(i, n)
    acc: dict = {}
    for lengths, terms in _stream(i, n, lambda _: (), _inner):
        xs = tuple((("x", j), e) for j, e in enumerate(lengths, start=1) if e)
        acc.update((key + xs, coeff) for key, coeff in terms)
    return FormulaPoly(n, m, acc)


def _inner(fn: int, columns) -> tuple:
    return tuple((("g", fn, col), mult) for col, mult in columns)


def _outer_indices(d: int, n: int) -> list:
    """(l, d!/l!) for every n-index l with |l| = d, in lex order."""
    return [(tuple(a for (a,) in parts), multinomial((d,), parts))
            for parts in compositions_into((d,), n)]


def _rows(spec: CompositionSpec, start, tag):
    """`_stream` in ``spec``'s inner mode.  Shared mode walks the one-function
    stream, whose row d (the start left empty) becomes one row per l with
    |l| = d, in lex order, each term weighted d!/l!: still `terms()` order."""
    if spec.inner_mode != "shared":
        yield from _stream(spec.index, spec.n, start, tag)
        return
    for (d,), terms in _stream(spec.index, 1, lambda lengths: start(lengths)[:0], tag):
        for lengths, weight in _outer_indices(d, spec.n):
            head = start(lengths)
            yield lengths, [(head + payload, coeff * weight) for payload, coeff in terms]


def _stream(i: Index, n: int, start, tag):
    """The distinct-mode formula with a symbolic outer, in `terms()` order:
    (l, terms) for each outer index l, by |l| then lex, terms listing
    (payload, coefficient) by (A_1, ..., A_n).  A_j is function j's partition,
    of length l_j, as its (column, multiplicity) tuple; two of one length are
    never proper prefixes of each other, so this is the order of the keys.
    The payload is start(l) + tag(1, A_1) + ... + tag(n, A_n), the
    coefficient i!/prod den(A_j), den = prod mult! col!^mult, carried down by
    exact division.  Node (r, lengths) lists, by columns, the partitions of
    some k <= r of length lengths[0] whose rest r - k the later functions can
    finish with lengths[1:], each with its child node.  Memos live for one call."""
    plain: dict = {}  # k -> [(columns, length, den)], by columns
    rows: dict = {}   # (k, j) -> {length: [(columns, payload, den)]}, by columns
    nodes: dict = {}  # (r, lengths) -> [(columns, payload, den, child)]
    subs: dict = {}   # r -> [(k, |k|, r - k) for k <= r]

    def row(k, length, j):
        got = rows.get((k, j))
        if got is None:
            if k not in plain:
                k_fact = multi_factorial(k)  # the zero index: one empty partition
                parts = partitions(k) if any(k) else [Partition((), 1)]
                plain[k] = sorted((p.columns, p.length, k_fact // p.weight) for p in parts)
            got = rows[k, j] = {}
            for cols, size, den in plain[k]:
                got.setdefault(size, []).append((cols, tag(j, cols), den))
        return got.get(length, ())

    def node(r, lengths):
        got = nodes.get((r, lengths))
        if got is None:
            length, rest = lengths[0], lengths[1:]
            j = n - len(rest)
            if not rest:
                got = [(*entry, None) for entry in row(r, length, j)]
            else:
                got, need, total = [], sum(rest), sum(r)
                splits = subs.get(r)
                if splits is None:
                    splits = subs[r] = [(k, sum(k), tuple(a - b for a, b in zip(r, k)))
                                        for k in product(*(range(e + 1) for e in r))]
                # k has a partition of length L iff 1 <= L <= |k|, or k = 0 = L
                for k, size, left in splits:
                    if (0 < length <= size or length == size == 0) and (
                            0 < need <= total - size or need == total - size == 0):
                        child = node(left, rest)
                        got += [(*entry, child) for entry in row(k, length, j)]
                got.sort(key=itemgetter(0))
            nodes[r, lengths] = got
        return got

    def walk(entries, coeff, acc, out):
        if entries[0][3] is None:
            out += [(acc + payload, coeff // den) for _, payload, den, _ in entries]
        else:
            for _, payload, den, child in entries:
                walk(child, coeff // den, acc + payload, out)

    top = multi_factorial(i)
    for d in range(order(i) + 1):
        for parts in compositions_into((d,), n):
            lengths = tuple(a for (a,) in parts)
            entries = node(i, lengths)
            if entries:
                out: list = []
                walk(entries, top, start(lengths), out)
                yield lengths, out


def _chunks(spec: CompositionSpec, fmt: str):
    """`umfb(spec).chunks(fmt)` for a symbolic outer, from `_rows`: the cap is
    checked on the call, and each outer symbol and each (function, partition)
    fragment is formatted once."""
    _check_cap(spec.index, spec.n)
    joiner, texts = _JOINERS[fmt], _Texts(fmt)

    def fragment(fn, columns):
        return "".join([joiner + texts[("g", fn, col), mult] for col, mult in columns])

    def bodies():
        for lengths, terms in _rows(spec, lambda lengths: "", fragment):
            outer = texts[("f", lengths), 1]
            for inner, coeff in terms:
                yield coeff, _json_body(outer, inner[1:], "") if fmt == "json" else outer + inner

    return _document(spec.n, spec.m, fmt, bodies())
