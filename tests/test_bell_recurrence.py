"""Differential check of the partial-Bell recurrence behind the numeric routes.

The four table routes and both Hermite variants are compared, entry by entry,
with an explicit partition sum over labelled set partitions
(`helpers.partition_sum`).  Every entry up to total order 6 is queried in
ascending, descending and shuffled order, each on a fresh memo, so the
memoised Bell rows cannot depend on the order of the queries.  Tables and
Poisson rates contain zeros, which the recurrence skips.
"""

from fractions import Fraction
from math import factorial
from random import Random

import pytest

from umfb.special import (
    MomentTable,
    SymmetricMatrix,
    compound_poisson_moments,
    cumulants_to_moments,
    hermite,
    moments_to_cumulants,
    reciprocal_series_moment,
)

from helpers import all_indices, partition_sum, random_moment_values, random_spd_matrix

MAX_ORDER = 6

# route -> (library call on (table, alpha sequence, i), outer weight w(alpha, k))
TABLE_ROUTES = {
    "cumulants": (
        lambda t, a, i: moments_to_cumulants(t, i),
        lambda alpha, k: (-1) ** (k - 1) * factorial(k - 1) if k else 1,
    ),
    "moments": (lambda t, a, i: cumulants_to_moments(t, i), lambda alpha, k: 1),
    "poisson": (
        lambda t, a, i: compound_poisson_moments(a, t, i),
        lambda alpha, k: alpha[k - 1] if k else 1,
    ),
    "reciprocal": (
        lambda t, a, i: reciprocal_series_moment(t, i),
        lambda alpha, k: (-1) ** k * factorial(k),
    ),
}


def query_orders(m, rng):
    ascending = sorted(all_indices(m, MAX_ORDER, include_zero=True), key=lambda k: (sum(k), k))
    shuffled = list(ascending)
    rng.shuffle(shuffled)
    return {"ascending": ascending, "descending": ascending[::-1], "shuffled": shuffled}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("route", sorted(TABLE_ROUTES))
def test_table_route_matches_partition_sum(route, m):
    rng = Random(f"{route}:{m}")
    values = random_moment_values(rng, m, MAX_ORDER)
    for k in rng.sample(sorted(values), len(values) // 4):
        values[k] = Fraction(0)
    alpha = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(MAX_ORDER)]
    alpha[rng.randrange(MAX_ORDER)] = Fraction(0)
    call, weight = TABLE_ROUTES[route]
    orders = query_orders(m, rng)
    want = {
        i: partition_sum(i, lambda k: weight(alpha, k), values.get) for i in orders["ascending"]
    }
    for name, entries in orders.items():
        table = MomentTable(n=m, values=values)  # a fresh memo per order
        alpha_seq = MomentTable.from_values(alpha)
        for i in entries:
            got = call(table, alpha_seq, i)
            assert got == want[i] and type(got) is Fraction, (name, i, got, want[i])


def hermite_column(quad_rows, shift):
    """The inner sequence of exp(shift.t - t Q t / 2): shift at order 1, -Q
    at order 2, zero above."""

    def value(col):
        pos = [a for a, e in enumerate(col) for _ in range(e)]
        if len(pos) == 1:
            return shift[pos[0]]
        if len(pos) == 2:
            return -quad_rows[pos[0]][pos[1]]
        return 0

    return value


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("scaled", ["H", "H-tilde"])
def test_hermite_matches_partition_sum(scaled, m):
    rng = Random(f"{scaled}:{m}")
    sigma_q = random_spd_matrix(rng, m)
    x_q = (Fraction(0),) + tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m - 1))
    if scaled == "H":
        quad = SymmetricMatrix(sigma_q).inverse().rows
        shift = tuple(sum(x_q[a] * quad[a][b] for a in range(m)) for b in range(m))
    else:
        quad, shift = sigma_q, x_q
    orders = query_orders(m, rng)
    want = {
        i: partition_sum(i, lambda k: 1, hermite_column(quad, shift)) for i in orders["ascending"]
    }
    sigma_f = SymmetricMatrix(tuple(tuple(float(e) for e in r) for r in sigma_q))
    x_f = tuple(float(e) for e in x_q)
    # consecutive blocks differ in exactness, so each starts on a fresh memo
    for name, entries in orders.items():
        for sigma, x in ((SymmetricMatrix(sigma_q), x_q), (sigma_f, x_f)):
            for i in entries:
                got = hermite(i, sigma, x, scaled=scaled)
                if sigma.exact:
                    assert got == want[i] and type(got) is Fraction, (name, i, got, want[i])
                else:
                    assert type(got) is float, (name, i, got)
                    assert abs(got - want[i]) <= 1e-9 * max(1, abs(want[i])), (name, i, got)
