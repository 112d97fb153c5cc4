"""Independent brute-force oracles used to freeze expected values.

Nothing here imports the partition expansion under test: partitions are
recovered from labelled set partitions, and generating-function checks use a
tiny truncated-series implementation written directly against the defining
power series.  The one exception is `collected_formula`, which checks how the
formula is assembled from per-function partition expansions, and takes those
from the package's enumerator.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial
from random import Random


# -- set partitions and the induced multi-index partitions ------------------


def set_partitions(items):
    """All set partitions of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1 :]
        yield part + [[first]]


def labelled_items(i):
    """|i| items labelled by their coordinate: i = (2,1) -> [0, 0, 1]."""
    return [r for r, e in enumerate(i) for _ in range(e)]


def brute_partitions_with_counts(i):
    """Map column-multiset -> number of labelled set partitions inducing it.

    The keys enumerate the partitions of the multi-index i; the counts are
    the weights i!/(multiplicities! columns!) by the subdivision bijection.
    """
    m = len(i)
    out = Counter()
    for part in set_partitions(list(range(sum(i)))):
        labels = labelled_items(i)
        cols = []
        for block in part:
            col = [0] * m
            for item in block:
                col[labels[item]] += 1
            cols.append(tuple(col))
        key = tuple(sorted(Counter(cols).items()))
        out[key] += 1
    return dict(out)


def partition_sum(i, weight, value):
    """sum_k weight(k) B_{i,k}(value), written as the explicit sum over the
    partitions of i (from labelled set partitions) of count * weight(length)
    * prod value(col)^mult, exact from Fraction(0)."""
    total = Fraction(0)
    for key, count in brute_partitions_with_counts(i).items():
        term = count * weight(sum(mult for _, mult in key))
        for col, mult in key:
            term *= value(col) ** mult
        total += term
    return total


def bell_number(d):
    return sum(1 for _ in set_partitions(list(range(d))))


# -- term counts from the generating function -------------------------------


def term_count_by_series(index, n, columns=None):
    """Number of n-tuples of multi-index partitions summing to ``index``.

    This is the term count of the compressed formula for f(g1, ..., gn):
    the coefficient of x^index in prod_{c != 0} (1 - x^c)^(-n), the product
    taken over ``columns`` only when they are given.  Each factor
    1/(1 - x^c) is applied by forward accumulation over the box
    0 <= k <= index; walking the box in lexicographic order visits k - c
    before k, so one in-place pass multiplies by the factor.
    """
    index = tuple(index)
    box = list(product(*(range(e + 1) for e in index)))
    coeff = dict.fromkeys(box, 0)
    coeff[box[0]] = 1
    for c in box[1:]:
        if columns is not None and c not in columns:
            continue
        for _ in range(n):
            for k in box:
                if all(a >= b for a, b in zip(k, c)):
                    coeff[k] += coeff[tuple(a - b for a, b in zip(k, c))]
    return coeff[index]


# -- the formula, collected the plain way -----------------------------------


def collected_formula(i, n, shared=False):
    """The formula {factors: coefficient} by collection: for each ordered
    decomposition k_1 + ... + k_n = i, weighted multinomial(i; k), every
    product of one partition of each k_j with the outer symbol f[l] at their
    lengths l, factors merged and sorted and like terms added.  In ``shared``
    mode every inner function is g1."""
    from umfb.multiindex import compositions_into, multinomial, partitions

    expansions = {}

    def expansion(k, fn):
        if (k, fn) not in expansions:
            parts = partitions(k) if any(k) else []
            expansions[k, fn] = [
                (p.coefficient(), p.length, [(("g", fn, c), e) for c, e in p.columns])
                for p in parts
            ] or [(1, 0, [])]
        return expansions[k, fn]

    acc = {}
    for ks in compositions_into(i, n):
        base = multinomial(i, ks)
        rows = [expansion(k, 1 if shared else j) for j, k in enumerate(ks, start=1)]
        for combo in product(*rows):
            coeff, lengths, merged = base, [], {}
            for weight, length, inner in combo:
                coeff *= weight
                lengths.append(length)
                for sym, e in inner:
                    merged[sym] = merged.get(sym, 0) + e
            merged[("f", tuple(lengths))] = 1
            key = tuple(sorted(merged.items()))
            acc[key] = acc.get(key, 0) + coeff
    return acc


# -- the output formats, written term by term -------------------------------


def reference_render(n, m, terms, fmt):
    """Text, latex or json of the polynomial {factors: coefficient}, the plain
    way: sort the terms by (degree, factors), format every symbol of every
    term on its own and, for json, ``json.dumps`` a list of dicts."""
    ordered = sorted(terms.items(), key=lambda t: (sum(e for _, e in t[0]), t[0]))
    if fmt == "json":
        rows = []
        for factors, coeff in ordered:
            outer, inner, variables = None, [], []
            for sym, exp in factors:
                if sym[0] == "f":
                    if outer is not None or exp != 1:
                        raise ValueError("term has a non-simple outer factor")
                    outer = list(sym[1])
                elif sym[0] == "g":
                    inner.append({"fn": sym[1], "index": list(sym[2]), "pow": exp})
                else:
                    variables.append({"j": sym[1], "pow": exp})
            text = str(Fraction(coeff))  # "p/q" or "p"; a float as its exact rational
            rows.append({"coeff": text, "outer": outer, "inner": inner, "vars": variables})
        return json.dumps({"n": n, "m": m, "terms": rows}, separators=(",", ":"))
    if not ordered:
        return "0"
    star = fmt == "text"
    pieces = []
    for factors, coeff in ordered:
        parts = [_reference_symbol(sym, exp, star) for sym, exp in factors]
        mag = -coeff if coeff < 0 else coeff
        if mag != 1 or not parts:
            parts.insert(0, str(mag))
        sign = "-" if coeff < 0 else "+"
        body = ("*" if star else " ").join(parts)
        pieces.append((f" {sign} " if pieces else sign.strip("+")) + body)
    return "".join(pieces)


def _reference_symbol(sym, exp, star):
    if sym[0] == "f":
        idx = ",".join(map(str, sym[1]))
        body = f"f[{idx}]" if star else f"f_{{{idx}}}"
    elif sym[0] == "g":
        idx = ",".join(map(str, sym[2]))
        body = f"g{sym[1]}[{idx}]" if star else f"g{sym[1]}_{{{idx}}}"
    else:
        body = f"x{sym[1]}" if star else f"x_{{{sym[1]}}}"
    if exp != 1:
        body += f"^{exp}" if star else f"^{{{exp}}}"
    return body


# -- truncated multivariate series, written from the definitions ------------


def s_mul(p, q, cap):
    out = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            if sum(k) <= cap:
                out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def s_compose_scalar(coeffs, u, cap):
    """sum_r coeffs[r] * u^r truncated; u has zero constant term."""
    m = len(next(iter(u), ()) or (0,))
    total = {}
    power = {(0,) * m: Fraction(1)}
    for r, c in enumerate(coeffs):
        if r > 0:
            power = s_mul(power, u, cap)
        for k, v in power.items():
            total[k] = total.get(k, Fraction(0)) + c * v
    return {k: c for k, c in total.items() if c}


def s_exp(u, cap):
    return s_compose_scalar([Fraction(1, factorial(r)) for r in range(cap + 1)], u, cap)


def s_log1p(u, cap):
    return s_compose_scalar(
        [Fraction(0)] + [Fraction((-1) ** (r - 1), r) for r in range(1, cap + 1)], u, cap
    )


def s_reciprocal1p(u, cap):
    return s_compose_scalar([Fraction((-1) ** r) for r in range(cap + 1)], u, cap)


def mgf_minus_one(table, cap):
    """f(mu, t) - 1 from a moment table {index: value}."""
    return {
        k: Fraction(v) / index_factorial(k) for k, v in table.items() if 0 < sum(k) <= cap
    }


def series_moment(series, k):
    return series.get(tuple(k), Fraction(0)) * index_factorial(k)


def index_factorial(k):
    out = 1
    for e in k:
        out *= factorial(e)
    return out


def compose_moments(outer, inner_tables, n, m, cap):
    """Moments k! [t^k] of f(g_1, ..., g_n) for every |k| <= cap, composed as
    truncated series: sum_j outer(j) / j! * prod_a (g_a - 1)^(j_a), with g_a
    the exponential generating series of the moment table inner_tables[a]
    and outer(j) the outer moment at the n-index j (1 at j = 0)."""
    powers = []
    for table in inner_tables:
        u = mgf_minus_one(table, cap)
        row = [{(0,) * m: Fraction(1)}]
        for _ in range(cap):
            row.append(s_mul(row[-1], u, cap))
        powers.append(row)
    total = {}
    for j in all_indices(n, cap, include_zero=True):
        term = {(0,) * m: Fraction(outer(j) if any(j) else 1) / index_factorial(j)}
        for row, e in zip(powers, j):
            term = s_mul(term, row[e], cap)
        for k, v in term.items():
            total[k] = total.get(k, Fraction(0)) + v
    return {k: series_moment(total, k) for k in all_indices(m, cap, include_zero=True)}


# -- random exact inputs ----------------------------------------------------


def all_indices(m, max_order, include_zero=False):
    for k in product(range(max_order + 1), repeat=m):
        if sum(k) <= max_order and (include_zero or sum(k) > 0):
            yield k


def random_moment_values(rng: Random, m, max_order):
    return {
        k: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for k in all_indices(m, max_order)
    }


def random_spd_matrix(rng: Random, n):
    """Random symmetric positive definite matrix with rational entries."""
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    out = [[sum(m[a][k] * m[b][k] for k in range(n)) for b in range(n)] for a in range(n)]
    for a in range(n):
        out[a][a] += Fraction(1 + rng.randint(0, 2))
    return tuple(tuple(r) for r in out)
