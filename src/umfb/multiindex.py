"""Exact combinatorics of multi-indices.

A multi-index is a tuple of nonnegative integers.  This module provides the
factorial and multinomial coefficients attached to multi-indices, the ordered
decompositions of an index into a fixed number of parts, and the enumeration
of its partitions (multisets of nonzero column indices), which drive the
compressed chain-rule expansion downstream.

All arithmetic is exact big-integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Partition:
    """A partition of a multi-index: a multiset of nonzero columns.

    ``columns`` holds (column, multiplicity) pairs with the distinct columns
    in strictly increasing lexicographic order.  The partitioned index is the
    multiplicity-weighted entrywise sum of the columns.
    """

    columns: tuple[tuple[Index, int], ...]

    @property
    def length(self) -> int:
        """Number of columns counted with multiplicity."""
        return sum(mult for _, mult in self.columns)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.columns)

    def index(self) -> Index:
        """The multi-index this partition decomposes."""
        width = len(self.columns[0][0])
        total = [0] * width
        for col, mult in self.columns:
            for r, e in enumerate(col):
                total[r] += mult * e
        return tuple(total)

    def coefficient(self) -> int:
        """The weight i! / (multiplicities! * columns!) of this partition.

        Always a positive integer: it counts the set partitions of |i|
        coordinate-labelled items that collapse to this column multiset.
        """
        i = self.index()
        mfact = prod(factorial(mult) for _, mult in self.columns)
        cfact = prod(multi_factorial(col) ** mult for col, mult in self.columns)
        value, rem = divmod(multi_factorial(i), mfact * cfact)
        assert rem == 0
        return value


def _candidate_columns(residual: Index, bound: Index) -> list[Index]:
    """Nonzero columns <= residual entrywise and <= bound in lex order,
    returned in decreasing lex order."""
    out = [
        c
        for c in product(*(range(e + 1) for e in residual))
        if any(c) and c <= bound
    ]
    out.reverse()
    return out


def _descend(residual: Index, bound: Index) -> Iterator[tuple[Index, ...]]:
    if not any(residual):
        yield ()
        return
    for col in _candidate_columns(residual, bound):
        for rest in _descend(index_sub(residual, col), col):
            yield (col,) + rest


def partitions(i: Index) -> Iterator[Partition]:
    """Every partition of i exactly once, in a deterministic order.

    Columns are chosen greedily in nonincreasing lexicographic order while
    subtracting from the residual index, which makes the stream duplicate
    free by construction.  Each emitted Partition stores its columns in the
    canonical (ascending) order.
    """
    i = as_index(i)
    if order(i) == 0:
        raise ZeroIndex("the zero multi-index has no partitions")
    for cols in _descend(i, i):
        grouped: list[tuple[Index, int]] = []
        for col in reversed(cols):
            if grouped and grouped[-1][0] == col:
                grouped[-1] = (col, grouped[-1][1] + 1)
            else:
                grouped.append((col, 1))
        yield Partition(tuple(grouped))


def count_partitions(i: Index, n: int = 1) -> int:
    """Number of n-tuples of partitions of multi-indices summing to i.

    This is the coefficient of x^i in prod_{c != 0} (1 - x^c)^(-n), computed
    without materializing any partition: each factor 1/(1 - x^c) is applied
    by one in-place forward pass over the box 0 <= k <= i, and walking k in
    lex order completes count[k] before it is added into count[k + c].  With
    n = 1 it counts the partitions of i; with n inner functions it is the
    term count of the distinct-mode formula.
    """
    i = as_index(i)
    if order(i) == 0:
        raise ZeroIndex("the zero multi-index has no partitions")
    count = dict.fromkeys(product(*(range(e + 1) for e in i)), 0)
    count[(0,) * len(i)] = 1
    for c in count:
        if not any(c):
            continue
        span = [range(e - d + 1) for e, d in zip(i, c)]
        for _ in range(n):
            for k in product(*span):
                count[tuple(a + b for a, b in zip(k, c))] += count[k]
    return count[i]
