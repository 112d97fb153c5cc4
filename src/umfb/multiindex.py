"""Exact combinatorics of multi-indices.

A multi-index is a tuple of nonnegative integers.  This module provides the
factorial and multinomial coefficients attached to multi-indices, the ordered
decompositions of an index into a fixed number of parts, and the enumeration
of its partitions (multisets of nonzero column indices), optionally with
restricted columns; `fdbcore` lists every k <= i in one descent of its own.

All arithmetic is exact big-integer arithmetic.
"""

from __future__ import annotations

from itertools import product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .errors import PartsMismatch, ZeroIndex

Index = tuple[int, ...]


def as_index(entries: Iterable[int]) -> Index:
    """Validate and normalize a multi-index to a tuple."""
    idx = tuple(int(e) for e in entries)
    if len(idx) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(e < 0 for e in idx):
        raise ValueError(f"multi-index entries must be nonnegative: {idx}")
    return idx


def order(i: Index) -> int:
    """Total order |i| (sum of the entries)."""
    return sum(i)


def multi_factorial(i: Index) -> int:
    """i! = i1! i2! ... in!"""
    return prod(factorial(e) for e in i)


def index_sub(a: Index, b: Index) -> Index:
    return tuple(x - y for x, y in zip(a, b))


def multinomial(i: Index, parts: Sequence[Index]) -> int:
    """Multinomial coefficient i! / (k1! k2! ... kp!) for parts summing to i."""
    i = as_index(i)
    parts = [as_index(k) for k in parts]
    total = [0] * len(i)
    for k in parts:
        if len(k) != len(i):
            raise PartsMismatch(f"part {k} has wrong length for index {i}")
        for r, e in enumerate(k):
            total[r] += e
    if tuple(total) != i:
        raise PartsMismatch(f"parts {parts} do not sum to {i}")
    value, rem = divmod(multi_factorial(i), prod(multi_factorial(k) for k in parts))
    assert rem == 0
    return value


def compositions_into(i: Index, n: int) -> Iterator[tuple[Index, ...]]:
    """All ordered n-tuples of multi-indices (zero parts allowed) summing to i.

    Emitted in lexicographic order on the concatenated tuples; the total
    count is prod_r C(i_r + n - 1, n - 1).
    """
    i = as_index(i)
    if n < 1:
        raise ValueError("number of parts must be >= 1")
    if n == 1:
        yield (i,)
        return
    for head in product(*(range(e + 1) for e in i)):
        for tail in compositions_into(index_sub(i, head), n - 1):
            yield (head,) + tail


class _Frozen:
    """A frozen dataclass's equality, hash, repr (over ``_fields``), errors and
    copies, without importing `dataclasses` before an assignment fails."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")


class Partition(_Frozen):
    """A partition of a multi-index: a multiset of nonzero columns.

    ``columns`` holds (column, multiplicity) pairs with the distinct columns
    in strictly increasing lexicographic order.  The partitioned index is the
    multiplicity-weighted entrywise sum of the columns; ``weight`` is its
    coefficient, carried down the enumeration.
    """

    __slots__ = ("columns", "weight")
    _fields = ("columns",)

    def __init__(self, columns: tuple[tuple[Index, int], ...], weight: int):
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "weight", weight)

    @property
    def length(self) -> int:
        """Number of columns counted with multiplicity."""
        return sum(mult for _, mult in self.columns)

    def coefficient(self) -> int:
        """The weight i! / (multiplicities! * columns!) of this partition.

        Always a positive integer: it counts the set partitions of |i|
        coordinate-labelled items that collapse to this column multiset.
        """
        return self.weight


def _box(i: Index) -> dict:
    """{key: k} for every k <= i, in lex order.  The key of k is k_1 W^(m-1)
    + ... + k_m with odd W = 2 max(i) + 1: keys sort like their indices, and
    for keys c, r of the box r - c has digits in [-W//2, W//2], which balanced
    base W reads back uniquely, so r - c is a key of the box iff c <= r."""
    w, box = 2 * max(i) + 1, {0: ()}
    for e in i:
        box = {k * w + a: idx + (a,) for k, idx in box.items() for a in range(e + 1)}
    return box


def _reach(i: Index, columns=None, n: int = 1):
    """Validate i and return, for the nonzero columns <= i (all of them, or
    those among ``columns``) in decreasing lex order: the columns and their
    `_box` keys; the coefficients of x^k, k <= i, in prod_c (1 - x^c)^(-n); for
    each k reachable at n = 1, the last p with k a sum of cols[p:]; the key of i.

    Each factor 1/(1 - x^c) is one in-place forward pass over the box in lex
    order (count[k] is complete before it is added into count[k + c]), from
    the last column back, so the first pass that reaches k records its last
    position."""
    i = as_index(i)
    if order(i) == 0:
        raise ZeroIndex("the zero multi-index has no partitions")
    box = _box(i)
    wanted = None if columns is None else set(map(tuple, columns))
    keys = [k for k, c in reversed(box.items()) if k and (wanted is None or c in wanted)]
    cols = [box[k] for k in keys]
    count = dict.fromkeys(box, 0)
    count[0] = 1
    last = {0: len(keys)}
    for pos in range(len(keys) - 1, -1, -1):
        c = keys[pos]
        for _ in range(n):
            for k in box:
                v = count[k]
                if v and (old := count.get(k + c)) is not None:
                    count[k + c] = old + v
                    if not old:
                        last[k + c] = pos
    return cols, keys, count, last, max(box)


def partitions(i: Index, columns=None) -> Iterator[Partition]:
    """Every partition of i exactly once, in a deterministic order; with
    ``columns``, only those whose columns are all among them.

    Columns are chosen in nonincreasing lexicographic order while subtracting
    from the residual index, each with its multiplicity (largest first),
    which makes the stream duplicate free by construction.  A branch is cut
    once its residual is no sum of the columns left to it, so every descent
    ends in a partition, weighted i! / prod m! c!^m over its choices.  Each
    emitted Partition stores its columns in canonical (ascending) order.
    """
    cols, keys, _, last, top = _reach(i, columns)
    col_fact = [multi_factorial(c) for c in cols]
    chosen: list[tuple[Index, int]] = []

    def descend(r: int, lo: int, den: int) -> Iterator[int]:
        for j in range(lo, last[r] + 1):
            c = keys[j]
            rests = []
            rest = r - c
            while rest in last:
                rests.append(rest)
                rest -= c
            for mult in range(len(rests), 0, -1):
                rest = rests[mult - 1]
                if last[rest] > j:
                    chosen.append((cols[j], mult))
                    d = den * factorial(mult) * col_fact[j] ** mult
                    if rest:
                        yield from descend(rest, j + 1, d)
                    else:
                        yield d
                    chosen.pop()

    if top in last:
        i_fact = multi_factorial(i)
        for den in descend(top, 0, 1):
            yield Partition(tuple(reversed(chosen)), i_fact // den)


def count_partitions(i: Index, n: int = 1, columns=None) -> int:
    """Number of n-tuples of partitions of multi-indices summing to i; with
    ``columns``, of those whose columns are all among them.

    This is the coefficient of x^i in prod_c (1 - x^c)^(-n) over the nonzero
    columns c (or the given ones), from the pass `partitions` prunes with,
    without materializing any partition.  With n = 1 it counts the partitions
    of i; with n inner functions it is the term count of the distinct-mode
    formula.
    """
    _, _, count, _, top = _reach(i, columns, n)
    return count[top]
