"""Moment/cumulant conversions, compound-Poisson moments, Laplace-transform
derivative signs and multivariate Hermite polynomials.

Everything here is a numeric evaluation of the partition expansion: an
outer weight sequence w composed with an inner multi-index sequence v, i.e.
sum_k w(k) B_{i,k}(v) over the multivariate partial Bell polynomials B.  The
table and Hermite routes read B from rows filled once per inner sequence by a
first-order recurrence (`_bell_row`); `hermite_via_bell` keeps the explicit
partition enumeration (`_partition_sum`) as an independent route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from types import MappingProxyType

from .errors import DimensionMismatch, MissingValue, SingularSigma
from .fdbcore import MomentSequence, _check_cap
from .multiindex import Index, as_index, order, partitions

FLOAT_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class MomentTable:
    """Exact moments (or cumulants) of an n-dimensional sequence, complete up
    to total order K; the zero index is implicitly 1.

    ``values`` is a read-only mapping, so the partial Bell rows the table
    routes memoise on the table (``_bell_rows``) cannot go stale."""

    n: int
    values: dict
    _bell_rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = {as_index(k): v for k, v in self.values.items()}
        for k in values:
            if len(k) != self.n:
                raise DimensionMismatch(f"index {k} has length != n={self.n}")
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "_bell_rows", {(0,) * self.n: [1]})

    def value(self, i: Index):
        i = as_index(i)
        if order(i) == 0:
            return Fraction(1)
        try:
            return self.values[i]
        except KeyError:
            raise MissingValue(f"moment table has no value at {i}") from None

    def max_order(self) -> int:
        return max((order(k) for k in self.values), default=0)

    def to_json(self) -> str:
        items = [
            {"index": list(k), "value": _rat_str(v)}
            for k, v in sorted(self.values.items())
        ]
        return json.dumps(
            {"n": self.n, "K": self.max_order(), "values": items},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        try:
            data = json.loads(text)
            n = data["n"]
            values = {tuple(e["index"]): Fraction(e["value"]) for e in data["values"]}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed moment table ({type(exc).__name__}: {exc})") from None
        return cls(n=n, values=values)


def _partition_sum(i: Index, outer_weight, column_value, total=0):
    """Sum over the partitions p of i of outer_weight(length) * coefficient(p)
    * product of column_value(col)^mult, added to ``total``.  Only partitions
    whose columns all have a nonzero value are enumerated, once their count
    has passed the term cap."""
    values = {c: v for c in product(*(range(e + 1) for e in i))
              if any(c) and (v := column_value(c)) != 0}
    _check_cap(i, 1, values)
    for p in partitions(i, values):
        w = outer_weight(p.length)
        if w == 0:
            continue
        val = w * p.coefficient()
        for col, mult in p.columns:
            val *= values[col] ** mult
        total += val
    return total


def _bell_row(memo: dict, i: Index, column_value) -> list:
    """Fill memo[j] = [B_{j,0}, ..., B_{j,|j|}] for every j <= i, in
    lexicographic order, and return memo[i].  B_{j,k} is the partial Bell
    polynomial of the inner sequence ``column_value`` (the sum over the
    partitions of j into k columns of coefficient * product of values), by

        B_{j,k} = sum_{0 < c <= j, c_r >= 1} C(j - e_r, c - e_r) v(c) B_{j-c,k-1}

    with r the first nonzero coordinate of j: c is the column holding the
    first unit of coordinate r.  ``memo`` must hold the zero index as [1];
    zero values are skipped."""
    row = memo.get(i)
    if row is not None:
        return row
    for j in product(*(range(e + 1) for e in i)):
        if j in memo:
            continue
        r = next(a for a, e in enumerate(j) if e)
        row = [0] * (order(j) + 1)
        ranges = [range(e + 1) for e in j]
        ranges[r] = range(1, j[r] + 1)
        for c in product(*ranges):
            v = column_value(c)
            if v == 0:
                continue
            cv = v * prod(comb(a - (s == r), b - (s == r))
                          for s, (a, b) in enumerate(zip(j, c)))
            sub = memo[tuple(a - b for a, b in zip(j, c))]
            for k, b in enumerate(sub, start=1):
                if b:
                    row[k] += cv * b
        memo[j] = row
    return memo[i]


def _table_sum(table: MomentTable, i: Index, outer_weight):
    """The Bell sum over table values; exact, with the zero index at 1.
    Every weight w(1..|i|) is read, and every value below i: a gap raises
    MissingValue even where the terms it enters vanish."""
    i = as_index(i)
    if order(i) == 0:
        return Fraction(1)
    weights = [outer_weight(k) for k in range(1, order(i) + 1)]
    row = _bell_row(table._bell_rows, i, table.value)
    return sum((w * b for w, b in zip(weights, row[1:]) if w and b), Fraction(0))


def moments_to_cumulants(mom: MomentTable, i: Index):
    """Cumulant at i from raw moments (log-series partition weights)."""
    return _table_sum(mom, i, lambda k: (-1) ** (k - 1) * factorial(k - 1))


def cumulants_to_moments(cum: MomentTable, i: Index):
    """Raw moment at i from cumulants (unit partition weights)."""
    return _table_sum(cum, i, lambda k: 1)


def compound_poisson_moments(alpha: MomentSequence, mu: MomentTable, i: Index):
    """Moment at i of a random sum of iid vectors with moments ``mu``, the
    summand count being Poisson with randomized rate of moments ``alpha``."""
    return _table_sum(mu, i, alpha.at)


def laplace_derivative_sign(mom: MomentTable, i: Index):
    """Coefficient at i of the moment generating function at negated
    arguments: (-1)^|i| times the moment."""
    i = as_index(i)
    return (-1) ** order(i) * mom.value(i)


def reciprocal_series_moment(mom: MomentTable, i: Index):
    """Coefficient at i (times i!) of the reciprocal of the moment generating
    function, via the partition expansion with weights (-1)^k k!."""
    return _table_sum(mom, i, lambda k: (-1) ** k * factorial(k))


# -- symmetric matrices -----------------------------------------------------


@dataclass(frozen=True)
class SymmetricMatrix:
    """A symmetric matrix with exact rational or float entries.  Its inverse
    is computed once and kept on the matrix; a singular one raises on every
    call."""

    rows: tuple
    _inverse: "SymmetricMatrix | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(e for e in r) for r in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix is not square")
        for a in range(n):
            for b in range(a):
                if rows[a][b] != rows[b][a]:
                    raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_inverse", None)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def exact(self) -> bool:
        return not any(isinstance(e, float) for r in self.rows for e in r)

    def inverse(self) -> "SymmetricMatrix":
        if self._inverse is None:
            object.__setattr__(self, "_inverse", SymmetricMatrix(_invert(self.rows, self.exact)))
        return self._inverse

    def entry_at(self, col: Index):
        """Entry selected by an order-2 multi-index: (a,b) for e_a + e_b."""
        pos = [a for a, e in enumerate(col) for _ in range(e)]
        if len(pos) != 2:
            raise ValueError(f"index {col} does not have total order 2")
        return self.rows[pos[0]][pos[1]]


def _invert(rows, exact: bool):
    n = len(rows)
    if exact:
        aug = [[Fraction(e) for e in r] + [Fraction(int(a == b)) for b in range(n)]
               for a, r in enumerate(rows)]
    else:
        aug = [[float(e) for e in r] + [float(a == b) for b in range(n)]
               for a, r in enumerate(rows)]
    scale = max(abs(e) for r in rows for e in r) or 1
    for c in range(n):
        pivot_row = max(range(c, n), key=lambda r: abs(aug[r][c]))
        pivot = aug[pivot_row][c]
        if (exact and pivot == 0) or (not exact and abs(pivot) <= FLOAT_PIVOT_TOL * scale):
            raise SingularSigma(f"pivot {pivot} below tolerance in column {c}")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        aug[c] = [e / pivot for e in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[c])]
    # float elimination need not keep exact symmetry: mirror the upper triangle
    return tuple(tuple(aug[min(a, b)][n + max(a, b)] for b in range(n)) for a in range(n))


def _matvec(x, mat: SymmetricMatrix):
    n = mat.dimension
    return tuple(sum(x[a] * mat.rows[a][b] for a in range(n)) for b in range(n))


# -- Hermite polynomials ----------------------------------------------------


_hermite_slot: tuple = (None, None, None)  # (key, bell rows, column values)


def _zero(sigma: SymmetricMatrix, x):
    """The start of a Hermite sum: 0.0 if any input is a float, else exact."""
    if sigma.exact and not any(isinstance(e, float) for e in x):
        return Fraction(0)
    return 0.0


def hermite(i: Index, sigma: SymmetricMatrix, x, scaled: str = "H"):
    """Multivariate Hermite polynomial value at x.

    ``scaled='H'`` uses the inverse covariance both as the quadratic form and
    in the shift x*Sigma^-1; ``scaled='H-tilde'`` (the orthogonal variant)
    uses the covariance itself with shift x.  Either is the coefficient of
    exp(shift.t - t Q t / 2), i.e. sum_k B_{i,k} over the inner sequence with
    order-1 values shift and order-2 values -Q.  The Bell rows of the last
    (Sigma, x, variant) are kept, so a table of values costs one recurrence.
    """
    global _hermite_slot
    i = as_index(i)
    _check_dimensions(i, sigma, x)
    if scaled not in ("H", "H-tilde"):
        raise ValueError(f"unknown variant {scaled!r}")
    zero = _zero(sigma, x)
    # Fractions and floats of equal value compare equal: key on the zero too
    key = (sigma.rows, tuple(x), scaled, type(zero))
    slot = _hermite_slot
    if slot[0] != key:
        if scaled == "H":
            quad = sigma.inverse()
            shift = _matvec(x, quad)
        else:
            quad = sigma
            shift = tuple(x)

        def column(col: Index):
            d = order(col)
            if d == 1:
                return shift[col.index(1)]
            if d == 2:
                return -quad.entry_at(col)
            return 0

        slot = _hermite_slot = (key, {(0,) * len(i): [1]}, column)
    if order(i) == 0:
        return zero + 1
    _, memo, column = slot
    return sum(_bell_row(memo, i, column)[1:], zero)


def hermite_via_bell(i: Index, sigma: SymmetricMatrix, x):
    """The same polynomial computed as a single partition sum over a shifted
    quadratic moment sequence (order-1 moments x*Sigma^-1, order-2 moments
    Sigma^-1); must agree with `hermite(..., scaled='H')` exactly."""
    i = as_index(i)
    _check_dimensions(i, sigma, x)
    zero = _zero(sigma, x)
    if order(i) == 0:
        return zero + 1
    inv = sigma.inverse()
    shift = _matvec(x, inv)

    def moment(col: Index):
        d = order(col)
        if d == 1:
            return shift[col.index(1)]
        if d == 2:
            return inv.entry_at(col)
        return 0

    total = _partition_sum(i, lambda k: (-1) ** k, moment, zero)
    return (-1) ** order(i) * total


def _check_dimensions(i: Index, sigma: SymmetricMatrix, x):
    n = sigma.dimension
    if len(i) != n:
        raise DimensionMismatch(f"index {i} vs matrix dimension {n}")
    if len(x) != n:
        raise DimensionMismatch(f"point of length {len(x)} vs matrix dimension {n}")


def _rat_str(v) -> str:
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"
