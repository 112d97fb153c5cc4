"""Truncated multivariate power series with exact rational coefficients.

A series in m variables truncated at total degree K is a dict mapping a
multi-index (length m) to a Fraction; absent indices are zero.  These helpers
are deliberately independent of the partition machinery so that series
composition can serve as a functional cross-check for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .multiindex import Index, order

Series = dict


def one(m: int) -> Series:
    return {(0,) * m: Fraction(1)}


def add(p: Series, q: Series) -> Series:
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def scale(p: Series, c) -> Series:
    if c == 0:
        return {}
    return {k: v * c for k, v in p.items()}


def mul(p: Series, q: Series, cap: int) -> Series:
    out: Series = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            if order(k) > cap:
                continue
            s = out.get(k, 0) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def from_moments(values, m: int, cap: int) -> Series:
    """Exponential generating series sum_k g_k t^k / k! from a moment lookup.

    ``values`` maps a multi-index to its moment; indices up to total order
    ``cap`` are queried.  The constant term is fixed at 1.
    """
    from itertools import product

    out = one(m)
    for k in product(range(cap + 1), repeat=m):
        if 0 < order(k) <= cap:
            g = values(k) if callable(values) else values.get(k, 0)
            if g:
                out[k] = Fraction(g) / _index_factorial(k)
    return out


def coefficient_moment(p: Series, k: Index):
    """The moment at k, i.e. k! times the series coefficient."""
    return p.get(tuple(k), Fraction(0)) * _index_factorial(k)


def _index_factorial(k: Index) -> int:
    out = 1
    for e in k:
        out *= factorial(e)
    return out

