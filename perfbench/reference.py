"""Output references for the benchmark, independent of the package under test.

Nothing here imports ``umfb``.  Symbolic outputs are checked by evaluating
them at seeded rationals and comparing with a truncated power-series
composition; numeric tables are checked against series exp/log and the
three-term Hermite recurrence.  All arithmetic is exact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import factorial, gcd

# -- multi-index helpers ------------------------------------------------------


def index_factorial(k) -> int:
    out = 1
    for e in k:
        out *= factorial(e)
    return out


def box(index):
    """Every multi-index c <= index entrywise, the zero index included."""
    return product(*(range(e + 1) for e in index))


def indices_up_to(m: int, K: int):
    """Every multi-index of length m with 0 < |k| <= K."""
    return [k for k in product(range(K + 1), repeat=m) if 0 < sum(k) <= K]


# -- truncated series ---------------------------------------------------------
# A series is a dict multi-index -> Fraction.  Composition keeps the box of
# indices below the target index; table conversions truncate at a total
# degree.


def _mul(p: dict, q: dict, top) -> dict:
    """p * q truncated to the indices <= top entrywise."""
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            if all(a <= b for a, b in zip(k, top)):
                out[k] = out.get(k, 0) + ca * cb
    return out


def _add_scaled(acc: dict, p: dict, c) -> None:
    if c:
        for k, v in p.items():
            acc[k] = acc.get(k, 0) + c * v


def _powers(u: dict, top) -> list:
    """u^0 .. u^|top| truncated to the indices <= top."""
    out = [{(0,) * len(top): Fraction(1)}]
    for _ in range(sum(top)):
        out.append(_mul(out[-1], u, top))
    return out


def inner_series(values: dict, index) -> dict:
    """u(t) = sum over nonzero c <= index of values[c] t^c / c!."""
    return {
        c: Fraction(values[c]) / index_factorial(c) for c in box(index) if any(c)
    }


def composite_derivative(index, inner: list, outer, n: int) -> Fraction:
    """The index-th derivative of f(g1(t), ..., gn(t)) at the expansion point.

    ``inner`` holds one dict nonzero c -> g_j[c] per inner function (a single
    dict when all n inner functions are the same); ``outer`` maps an outer
    index k (length n, |k| >= 1) to f[k].  The Taylor series of f at the
    inner values is composed with the inner series truncated to the box
    below ``index``.
    """
    index = tuple(index)
    m, d = len(index), sum(index)
    if len(inner) == 1 and n > 1:
        # shared inner function: u^|k| for every k of the same order
        pw = _powers(inner_series(inner[0], index), index)
        weights = [Fraction(0)] * (d + 1)
        for k in indices_up_to(n, d):
            weights[sum(k)] += Fraction(outer(k)) / index_factorial(k)
        total = sum(w * pw[r].get(index, 0) for r, w in enumerate(weights))
        return total * index_factorial(index)

    pws = [_powers(inner_series(v, index), index) for v in inner]
    total = Fraction(0)

    def rec(j, k, acc):
        nonlocal total
        left = d - sum(k)
        if j == n - 1:
            # only the coefficient at `index` is needed from the last factor
            for e in range(left + 1):
                kk = k + (e,)
                coeff = sum(
                    c * pws[j][e].get(tuple(a - b for a, b in zip(index, key)), 0)
                    for key, c in acc.items()
                )
                if coeff:
                    total += Fraction(outer(kk)) / index_factorial(kk) * coeff
            return
        for e in range(left + 1):
            nxt = acc if e == 0 else _mul(acc, pws[j][e], index)
            if nxt:
                rec(j + 1, k + (e,), nxt)

    rec(0, (), {(0,) * m: Fraction(1)})
    return total * index_factorial(index)


def bell_derivative(index, inner: list, variables: dict) -> Fraction:
    """The index-th derivative of exp(x1 g1(t) + ... + xn gn(t)), which is
    the composition with outer derivatives f[k] = x^k."""
    index = tuple(index)
    w: dict = {}
    for j, vals in enumerate(inner, start=1):
        _add_scaled(w, inner_series(vals, index), Fraction(variables[j]))
    pw = {(0,) * len(index): Fraction(1)}
    total = Fraction(0)
    for r in range(1, sum(index) + 1):
        pw = _mul(pw, w, index)
        total += pw.get(index, 0) / factorial(r)
    return total * index_factorial(index)


# -- parsing of the three output formats -------------------------------------
# A parsed term is (coefficient, factors) with factors a list of
# (symbol, power); symbols are ("f", index), ("g", fn, index) or ("x", j).

_TEXT_FACTOR = re.compile(
    r"(?:f\[([\d,]+)\]|g(\d+)\[([\d,]+)\]|x(\d+))(?:\^(\d+))?\Z"
)
_LATEX_FACTOR = re.compile(
    r"(?:f_\{([\d,]+)\}|g(\d+)_\{([\d,]+)\}|x_\{(\d+)\})(?:\^\{(\d+)\})?\Z"
)
_COEFF = re.compile(r"\d+(?:/\d+)?\Z")
_TERM_SEP = re.compile(r" ([+-]) ")


class ParseError(ValueError):
    pass


def _coeff(text: str):
    c = Fraction(text)
    return c.numerator if c.denominator == 1 else c


def _ints(text: str):
    return tuple(int(e) for e in text.split(","))


def _parse_plain(text: str, factor_re, joiner: str) -> list:
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM_SEP.split(text)
    terms = []
    for pos in range(0, len(pieces), 2):
        if pos:
            sign = -1 if pieces[pos - 1] == "-" else 1
        parts = pieces[pos].split(joiner)
        coeff = 1
        if _COEFF.match(parts[0]):
            coeff = _coeff(parts.pop(0))
        factors = []
        for part in parts:
            mt = factor_re.match(part)
            if not mt:
                raise ParseError(f"cannot parse factor {part!r}")
            f_idx, g_fn, g_idx, x_j, power = mt.groups()
            if f_idx is not None:
                sym = ("f", _ints(f_idx))
            elif g_fn is not None:
                sym = ("g", int(g_fn), _ints(g_idx))
            else:
                sym = ("x", int(x_j))
            factors.append((sym, int(power) if power else 1))
        terms.append((sign * coeff, factors))
    return terms


def parse_json(text: str) -> list:
    data = json.loads(text)
    terms = []
    for t in data["terms"]:
        factors = []
        if t["outer"] is not None:
            factors.append((("f", tuple(t["outer"])), 1))
        factors += [(("g", g["fn"], tuple(g["index"])), g["pow"]) for g in t["inner"]]
        factors += [(("x", v["j"]), v["pow"]) for v in t["vars"]]
        terms.append((_coeff(t["coeff"]), factors))
    return terms


def parse_output(text: str, fmt: str) -> list:
    if fmt == "json":
        return parse_json(text)
    if fmt == "text":
        return _parse_plain(text, _TEXT_FACTOR, "*")
    if fmt == "latex":
        return _parse_plain(text, _LATEX_FACTOR, " ")
    raise ValueError(f"unknown format {fmt!r}")


def evaluate(terms: list, values: dict) -> Fraction:
    """Value of parsed terms with each symbol replaced by ``values[symbol]``.

    The values are brought to one common denominator D, so each term is an
    integer over a power of D and the sum runs in integer arithmetic.
    """
    denom = 1
    for v in values.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    nums = {s: int(v * denom) for s, v in values.items()}
    by_degree: dict = {}
    for coeff, factors in terms:
        val, degree = coeff, 0
        for sym, power in factors:
            val *= nums[sym] ** power
            degree += power
        by_degree[degree] = by_degree.get(degree, 0) + val
    return sum((Fraction(s) / denom**d for d, s in by_degree.items()), Fraction(0))


def symbol_values(outer: dict, inner: list, variables: dict) -> dict:
    """Symbol -> value map for f[k] = outer[k], gj[c] = inner[j-1][c] and
    xj = variables[j]."""
    out = {("f", k): Fraction(v) for k, v in outer.items()}
    for j, vals in enumerate(inner, start=1):
        out.update({("g", j, c): Fraction(v) for c, v in vals.items()})
    out.update({("x", j): Fraction(v) for j, v in variables.items()})
    return out


# -- numeric tables: series exp/log and compound Poisson ----------------------


def _table_series(values: dict) -> dict:
    return {k: Fraction(v) / index_factorial(k) for k, v in values.items()}


def _power_sum(u: dict, coeffs: list, m: int, K: int) -> dict:
    """sum_r coeffs[r] * u^r truncated at total degree K (u(0) = 0)."""
    by_degree: dict = {}
    for k, v in u.items():
        by_degree.setdefault(sum(k), []).append((k, v))
    out: dict = {}
    pw = {(0,) * m: Fraction(1)}
    for r, c in enumerate(coeffs):
        if r:
            nxt: dict = {}
            for ka, ca in pw.items():
                room = K - sum(ka)
                for d in range(1, room + 1):
                    for kb, cb in by_degree.get(d, ()):
                        k = tuple(a + b for a, b in zip(ka, kb))
                        nxt[k] = nxt.get(k, 0) + ca * cb
            pw = nxt
        _add_scaled(out, pw, c)
    return out


def _as_table(series: dict, m: int, K: int) -> dict:
    return {
        k: series.get(k, Fraction(0)) * index_factorial(k) for k in indices_up_to(m, K)
    }


def cumulants_from_moments(moments: dict, m: int, K: int) -> dict:
    """kappa = i! [t^i] log(1 + u) with u the moment series minus one."""
    coeffs = [Fraction(0)] + [Fraction((-1) ** (r - 1), r) for r in range(1, K + 1)]
    return _as_table(_power_sum(_table_series(moments), coeffs, m, K), m, K)


def moments_from_cumulants(cumulants: dict, m: int, K: int) -> dict:
    """mu = i! [t^i] exp(c) with c the cumulant series."""
    coeffs = [Fraction(1, factorial(r)) for r in range(K + 1)]
    return _as_table(_power_sum(_table_series(cumulants), coeffs, m, K), m, K)


def compound_poisson(alpha: list, mu: dict, m: int, K: int) -> dict:
    """i! [t^i] sum_r alpha_r / r! (M(t) - 1)^r, alpha[r - 1] = alpha_r."""
    coeffs = [Fraction(0)] + [Fraction(alpha[r - 1]) / factorial(r) for r in range(1, K + 1)]
    return _as_table(_power_sum(_table_series(mu), coeffs, m, K), m, K)


# -- Hermite polynomials by the three-term recurrence ------------------------


def inverse(rows) -> list:
    """Exact inverse of a nonsingular square matrix (Gauss-Jordan)."""
    n = len(rows)
    aug = [[Fraction(e) for e in r] + [Fraction(int(a == b)) for b in range(n)]
           for a, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [e / aug[c][c] for e in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def hermite_table(sigma, x, K: int) -> dict:
    """H_i(x) for 0 < |i| <= K with Lambda = Sigma^-1 and y = x Lambda:
    H_{i+e_r} = y_r H_i - sum_s Lambda_rs i_s H_{i-e_s}."""
    m = len(x)
    lam = inverse(sigma)
    y = [sum(Fraction(x[a]) * lam[a][b] for a in range(m)) for b in range(m)]
    H = {(0,) * m: Fraction(1)}
    for i in sorted(indices_up_to(m, K), key=sum):
        r = next(a for a in range(m) if i[a])
        b = i[:r] + (i[r] - 1,) + i[r + 1:]
        v = y[r] * H[b]
        for s in range(m):
            if b[s]:
                v -= lam[r][s] * b[s] * H[b[:s] + (b[s] - 1,) + b[s + 1:]]
        H[i] = v
    del H[(0,) * m]
    return H
