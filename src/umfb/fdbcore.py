"""Compressed multivariate Faa di Bruno expansion.

The i-th derivative of f(g_1, ..., g_n) is a sum over the n-tuples of
partitions A_1, ..., A_n of multi-indices summing to i: each tuple carries the
integer weight i!/prod_j prod mult! col!^mult over the columns of A_j, the
outer symbol f[l] with l_j the length of A_j, and one inner factor per column.
One engine, `_stream`, walks these tuples in canonical term order over the
partitions of every k <= i from one descent (`_table`), and every mode reads
it.  A shared inner function is its one-function case: f(g, ..., g) = h(g)
with h^(d) = sum over |l| = d of d!/l! f[l].
"""

from __future__ import annotations

import os
from bisect import bisect_right
from itertools import accumulate, chain, count
from math import isqrt, prod
from operator import add, itemgetter
from types import MappingProxyType
from typing import Mapping

from .algebra import _BATCH_TERMS, _JOINERS, FormulaPoly, _coeff_str, _document, _Texts
from .errors import DimensionMismatch, MissingValue, TermCapExceeded
from .multiindex import (Index, _Frozen, _box, as_index, compositions_into, count_partitions,
                         multi_factorial, multinomial, order)
from .multiindex import partitions  # noqa: F401  (perfbench/tracing.py patches this name)

DEFAULT_TERM_CAP = 10_000_000
TERM_CAP_ENV = "UMFB_TERM_CAP"


class MomentTable(_Frozen):
    """Exact moments (or cumulants) a_i over n-indices i, with a_0 = 1: a
    read-only table of explicit values, complete up to total order K, or
    a_i = 1 at every index of any length (``values`` None; `unity`, n = 1).

    Because ``values`` is read-only, the partial Bell rows the table routes
    memoise on the table (``_bell_rows``) cannot go stale."""

    __slots__ = ("n", "values", "_bell_rows")
    _fields = ("n", "values")

    def __init__(self, n: int, values: Mapping | None = None):
        if type(n) is not int or n < 1:
            raise ValueError(f"table dimension n={n!r} is not a positive integer")
        if values is not None:
            values = {as_index(k): v for k, v in values.items()}
            for k in values:
                if len(k) != n:
                    raise DimensionMismatch(f"index {k} has length != n={n}")
            values = MappingProxyType(values)
        for name, value in zip(self.__slots__, (n, values, {(0,) * n: [1]})):
            object.__setattr__(self, name, value)

    @classmethod
    def unity(cls) -> "MomentTable":
        return cls(1)

    @classmethod
    def from_values(cls, values) -> "MomentTable":
        """Univariate table a_1..a_K (a_0 is implicitly 1)."""
        from fractions import Fraction
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
        import json
        top = self.max_order()
        items = [{"index": list(k), "value": _coeff_str(v)} for k, v in sorted(self.values.items())]
        return json.dumps({"n": self.n, "K": top, "values": items}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        import json
        from fractions import Fraction
        try:
            data = json.loads(text)
            n = data["n"]
            values = {tuple(e["index"]): Fraction(e["value"]) for e in data["values"]}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed moment table ({type(exc).__name__}: {exc})") from None
        return cls(n, values)


class CompositionSpec(_Frozen):
    """Shape of one composite-derivative computation.

    ``index`` is the derivative order (length m), ``n`` the number of inner
    functions (= outer arity), ``m`` the number of inner variables.  With
    ``inner_mode='shared'`` all inner functions are the same function.
    ``outer=None`` keeps the outer derivatives symbolic.
    """

    __slots__ = _fields = ("index", "n", "m", "inner_mode", "outer")

    def __init__(self, index: Index, n: int, m: int, inner_mode: str = "distinct",
                 outer: MomentTable | None = None):
        index = as_index(index)
        if len(index) != m:
            raise ValueError(f"index {index} has length != m={m}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if inner_mode not in ("distinct", "shared"):
            raise ValueError(f"unknown inner_mode {inner_mode!r}")
        for name, value in zip(self._fields, (index, n, m, inner_mode, outer)):
            object.__setattr__(self, name, value)


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
    # Lower bounds on the count, cheapest first.  p(e) >= 2^(k-1) when
    # k(k+1)/2 <= e: each subset of {2..k}, padded with ones, is a partition
    # of e (k is capped so the message stays short).  Tuples over the axis
    # columns split into one integer-partition n-tuple per coordinate, O(n e^2).
    bound, bits = 0, limit.bit_length()
    if columns is None:
        bound = prod(2 ** min((isqrt(8 * e + 1) - 1) // 2 - 1, bits) for e in index if e)
        if bound <= limit:
            bound = prod(count_partitions((e,), n) for e in index if e)
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
            value = sum(w * outer.at(idx) for idx, w in _outer_indices(lengths[0], n)) \
                if shared else outer.at(lengths)
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


def _inner(fn: int, col: Index, mult: int) -> tuple:
    return ((("g", fn, col), mult),)


def _outer_indices(d: int, n: int) -> list:
    """(l, d!/l!) for every n-index l with |l| = d, in lex order."""
    return [(tuple(a for (a,) in parts), multinomial((d,), parts))
            for parts in compositions_into((d,), n)]


def _rows(spec: CompositionSpec, start, tag, cut=0, tail=None):
    """`_stream` in ``spec``'s inner mode.  Shared mode walks the one-function
    stream, whose row d (the start left empty) becomes one row per l with
    |l| = d, in lex order, each term weighted d!/l!: still `terms()` order."""
    if spec.inner_mode != "shared":
        yield from _stream(spec.index, spec.n, start, tag, cut, tail)
        return
    for (d,), terms in _stream(spec.index, 1, lambda lengths: start(lengths)[:0], tag, cut, tail):
        for lengths, weight in _outer_indices(d, spec.n):
            head = start(lengths)
            yield lengths, [(head + payload, coeff * weight) for payload, coeff in terms]


def _table(i: Index, n: int, tag, empty):
    """Every partition of every k <= i, from one pre-order descent over the
    `_box` of i adding columns in increasing lex order, each with
    multiplicities in increasing order, so visits come in canonical (columns)
    order.  Returns box (key -> index), fits (r -> keys c <= r, ascending)
    and table (k -> length -> [(visit, payloads, den)]), den = prod mult!
    col!^mult, payloads[j - 1] = empty + tags of function j."""
    box = _box(i)
    fits = {r: [c for c in box if r - c in box] for r in box}
    col_fact = {c: multi_factorial(col) for c, col in box.items()}
    table = {k: {} for k in box}
    table[0][0] = [(0, (empty,) * n, 1)]
    tags: dict = {}
    visits = count(1)
    top = max(box)

    def descend(k, last, length, den, payloads):
        cands = fits[top - k]
        for c in cands[bisect_right(cands, last):]:
            rest, mult, d = top - k - c, 0, den
            while rest in box:
                mult += 1
                d *= mult * col_fact[c]
                frag = tags.get((c, mult))
                if frag is None:
                    frag = tags[c, mult] = tuple(tag(j, box[c], mult) for j in range(1, n + 1))
                p = tuple(map(add, payloads, frag))
                table[top - rest].setdefault(length + mult, []).append((next(visits), p, d))
                descend(top - rest, c, length + mult, d, p)
                rest -= c

    descend(0, 0, 0, 1, table[0][0][0][1])
    return box, fits, table


def _stream(i: Index, n: int, start, tag, cut=0, tail=None):
    """The distinct-mode formula with a symbolic outer, in `terms()` order:
    (l, terms) by |l| then lex, in pieces of about _BATCH_TERMS terms, each
    (payload, coefficient) by (A_1, ..., A_n), A_j function j's partition of
    length l_j (two of one length are never proper prefixes of each other).
    The payload is start(l), tag(j, col, mult) over the columns of each A_j
    (the first one less ``cut`` items) and ``tail``; the coefficient is
    i!/prod den(A_j).  Node (r, lengths) lists, by visit, each partition of a
    k <= r of length lengths[0] whose rest the later functions can finish,
    with the rest's node; the node of the last function, or below the top of
    the last two, lists (payload, den).  A row is a list of groups (prefix,
    coefficient, such a node), each piece one comprehension over a run."""
    empty = start((0,) * n)[:0]  # "" or (), as the payloads are strings or tuples
    box, fits, table = _table(i, n, tag, empty)
    top, fact, tail = max(box), multi_factorial(i), tail or empty
    size = {k: sum(idx) for k, idx in box.items()}
    nodes: dict = {}  # (r, lengths) -> [(visit, payload, den, child)]

    def node(r, lengths):
        got = nodes.get((r, lengths))
        if got is None:
            length, rest = lengths[0], lengths[1:]
            j, c = n - 1 - len(rest), cut if r == top else 0  # r = top: no fragment yet
            if not rest:
                got = [(p[j][c:], d) for _, p, d in table[r].get(length, ())]
            else:
                got, need, total = [], sum(rest), size[r]
                for k in fits[r]:  # the rest is finished iff 0 < need <= |r - k|, or both 0
                    left = total - size[k]
                    if length in table[k] and (0 < need <= left or need == left == 0):
                        child = node(r - k, rest)
                        got += [(q, p[j][c:], d, child) for q, p, d in table[k][length]]
                got.sort(key=itemgetter(0))
                if len(rest) == 1 < n - 1:
                    got = [(p + q, d * e) for _, p, d, last in got for q, e in last]
            if r != top:  # a node of the whole i is read once
                nodes[r, lengths] = got
        return got

    def collect(entries, coeff, acc, depth, groups):
        if depth == 1 or depth == 2 < n:
            groups.append((acc, coeff, entries))
        elif depth <= 3:
            groups += [(acc + p, coeff // d, last) for _, p, d, last in entries]
        else:
            for _, p, d, child in entries:
                collect(child, coeff // d, acc + p, depth - 1, groups)

    for d in range(size[top] + 1):
        for parts in compositions_into((d,), n):
            lengths = tuple(a for (a,) in parts)
            entries, groups = node(top, lengths), []
            if entries:
                collect(entries, fact, start(lengths), n, groups)
            ends, first = [0, *accumulate(map(len, map(itemgetter(2), groups)))], 0
            while first < len(groups):  # ends[g]: the terms of the groups before g
                stop = max(first + 1, bisect_right(ends, ends[first] + _BATCH_TERMS) - 1)
                yield lengths, [(acc + p + tail, coeff // den) for acc, coeff, last in
                                groups[first:stop] for p, den in last]
                first = stop


def _chunks(spec: CompositionSpec, fmt: str):
    """`umfb(spec).chunks(fmt)` for a symbolic outer, from `_rows`: the cap is
    checked on the call, and each outer symbol and each (function, column,
    multiplicity) fragment is formatted once."""
    _check_cap(spec.index, spec.n)
    joiner, texts = _JOINERS[fmt], _Texts(fmt)

    def fragment(fn, col, mult):
        return joiner + texts[("g", fn, col), mult]

    if fmt != "json":
        rows = _rows(spec, lambda lengths: texts[("f", lengths), 1], fragment)
    else:  # no comma after the head's "["
        rows = _rows(spec, lambda lengths: f'"outer":{texts[("f", lengths), 1]},"inner":[',
                     fragment, 1, '],"vars":[]')
    return chain.from_iterable(_document(spec.n, spec.m, fmt, (terms for _, terms in rows)))
