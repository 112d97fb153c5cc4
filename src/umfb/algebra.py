"""Sparse exact polynomial algebra over abstract derivative symbols.

Symbols are plain tuples so they hash and order cheaply:

* ``('f', index)``      -- outer derivative symbol, index of length n
* ``('g', fn, index)``  -- inner derivative symbol of function ``fn`` (1..n),
                           index of length m, index nonzero
* ``('x', j)``          -- the j-th indeterminate of a Bell-style polynomial

A monomial is a tuple of (symbol, exponent) pairs sorted by symbol; a
polynomial maps monomials to nonzero exact coefficients (int or Fraction).
Terms are reported in graded-lexicographic order: by total degree first,
then by the sorted factor sequence.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DimensionMismatch, MissingValue

Symbol = tuple
Factors = tuple  # tuple[tuple[Symbol, int], ...]


def outer_symbol(index) -> Symbol:
    index = tuple(int(e) for e in index)
    if any(e < 0 for e in index):
        raise ValueError(f"negative outer index {index}")
    return ("f", index)


def inner_symbol(fn: int, index) -> Symbol:
    index = tuple(int(e) for e in index)
    if fn < 1:
        raise ValueError("inner function ids start at 1")
    if not any(index):
        raise ValueError("inner symbol index must be nonzero")
    return ("g", fn, index)


def var_symbol(j: int) -> Symbol:
    if j < 1:
        raise ValueError("variable ids start at 1")
    return ("x", j)


def canonical_factors(factors: Mapping[Symbol, int]) -> Factors:
    items = tuple(sorted((s, e) for s, e in factors.items() if e))
    if any(e < 0 for _, e in items):
        raise ValueError("factor exponents must be positive")
    return items


def merge_factors(pairs: Iterable[tuple[Symbol, int]]) -> Factors:
    """Factors of a product: exponents of repeated symbols summed, then sorted."""
    merged: dict[Symbol, int] = {}
    for sym, exp in pairs:
        merged[sym] = merged.get(sym, 0) + exp
    return tuple(sorted(merged.items()))


def add_term(acc: dict, key: Factors, coeff) -> None:
    """Add ``coeff`` to the term at ``key``, dropping the term if it cancels."""
    v = acc.get(key, 0) + coeff
    if v == 0:
        acc.pop(key, None)
    else:
        acc[key] = v


def _degree(factors: Factors) -> int:
    return sum(e for _, e in factors)


class FormulaPoly:
    """A collected polynomial over derivative symbols, with exact coefficients."""

    __slots__ = ("n", "m", "_terms")

    def __init__(self, n: int, m: int, terms: dict | None = None):
        self.n = n
        self.m = m
        self._terms: dict[Factors, int | Fraction] = terms if terms is not None else {}

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int) -> "FormulaPoly":
        return cls(n, m)

    @classmethod
    def one(cls, n: int, m: int) -> "FormulaPoly":
        return cls(n, m, {(): 1})

    @classmethod
    def from_terms(cls, n: int, m: int, terms: Iterable[tuple]) -> "FormulaPoly":
        """Build from (coefficient, factor-mapping) pairs, collecting like terms."""
        acc: dict[Factors, int | Fraction] = {}
        for coeff, factors in terms:
            if not isinstance(factors, tuple):
                factors = canonical_factors(factors)
            acc[factors] = acc.get(factors, 0) + coeff
        return cls(n, m, {k: c for k, c in acc.items() if c != 0})

    @classmethod
    def monomial(cls, n: int, m: int, coeff, factors: Mapping[Symbol, int]) -> "FormulaPoly":
        if coeff == 0:
            return cls.zero(n, m)
        return cls(n, m, {canonical_factors(factors): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple, ...]:
        """Canonically ordered (coefficient, factors) pairs: keys bucketed by
        degree, each bucket sorted as plain tuples (no per-term sort key)."""
        by_degree: dict[int, list] = {}
        for k in self._terms:
            by_degree.setdefault(_degree(k), []).append(k)
        terms = self._terms
        return tuple(
            (terms[k], k) for d in sorted(by_degree) for k in sorted(by_degree[d])
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormulaPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"FormulaPoly(n={self.n}, m={self.m}, {self.render('text')})"

    def constant_value(self):
        """The value of a constant polynomial, or None if symbols remain."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "FormulaPoly"):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatch(
                f"(n={self.n}, m={self.m}) vs (n={other.n}, m={other.m})"
            )

    def __add__(self, other: "FormulaPoly") -> "FormulaPoly":
        self._check_compatible(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            add_term(acc, k, c)
        return FormulaPoly(self.n, self.m, acc)

    def __sub__(self, other: "FormulaPoly") -> "FormulaPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "FormulaPoly") -> "FormulaPoly":
        self._check_compatible(other)
        acc: dict[Factors, int | Fraction] = {}
        for fa, ca in self._terms.items():
            for fb, cb in other._terms.items():
                add_term(acc, merge_factors(fa + fb), ca * cb)
        return FormulaPoly(self.n, self.m, acc)

    def scale(self, c) -> "FormulaPoly":
        if c == 0:
            return FormulaPoly.zero(self.n, self.m)
        return FormulaPoly(self.n, self.m, {k: c * v for k, v in self._terms.items()})

    # -- substitution ------------------------------------------------------

    def substitute(self, outer=None, inner=None, variables=None):
        """Replace symbols by moment values.

        ``outer`` maps an outer index to a value (anything with an ``at``
        method, a callable, or a mapping); ``inner`` is a sequence of such
        lookups, one per inner function id (entries may be None to keep that
        family symbolic); ``variables`` maps a variable id to a value.

        Returns an exact number when no symbols remain, otherwise a new
        FormulaPoly.  Raises MissingValue when a required value is undefined.
        """
        inner = inner or []
        acc: dict[Factors, int | Fraction] = {}
        for factors, coeff in self._terms.items():
            kept: dict[Symbol, int] = {}
            for sym, exp in factors:
                lookup = None
                key = None
                if sym[0] == "f" and outer is not None:
                    lookup, key = outer, sym[1]
                elif sym[0] == "g" and sym[1] <= len(inner) and inner[sym[1] - 1] is not None:
                    lookup, key = inner[sym[1] - 1], sym[2]
                elif sym[0] == "x" and variables is not None:
                    lookup, key = variables, sym[1]
                if lookup is None:
                    kept[sym] = kept.get(sym, 0) + exp
                else:
                    coeff = coeff * _lookup_value(lookup, key) ** exp
                    if coeff == 0:
                        break
            else:
                add_term(acc, tuple(sorted(kept.items())), coeff)
        out = FormulaPoly(self.n, self.m, acc)
        const = out.constant_value()
        return out if const is None else const

    # -- rendering ---------------------------------------------------------

    def render(self, fmt: str = "text") -> str:
        return "".join(self.chunks(fmt))

    def to_json(self) -> str:
        return self.render("json")

    def chunks(self, fmt: str = "text"):
        """Yield the rendering in ``fmt`` (text, latex or json) piece by piece:
        one chunk per term in canonical order, plus json's envelope.  Each
        distinct (symbol, exponent) factor is formatted once per call."""
        if fmt not in ("text", "latex", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        as_json = fmt == "json"
        joiner = "*" if fmt == "text" else " "
        if as_json:
            yield f'{{"n":{json.dumps(self.n)},"m":{json.dumps(self.m)},"terms":['
        elif not self._terms:
            yield "0"
        cache: dict = {}
        started = False
        for coeff, factors in self.terms():
            parts = []
            for factor in factors:
                text = cache.get(factor)
                if text is None:
                    text = cache[factor] = _render_factor(factor, fmt)
                parts.append(text)
            if as_json:
                yield ("," if started else "") + _json_term(coeff, factors, parts)
            else:
                mag = -coeff if coeff < 0 else coeff
                if mag != 1 or not parts:
                    parts.insert(0, str(mag))
                body = joiner.join(parts)
                if coeff < 0:
                    yield (" - " if started else "-") + body
                else:
                    yield (" + " if started else "") + body
            started = True
        if as_json:
            yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "FormulaPoly":
        data = json.loads(text)
        terms = []
        for t in data["terms"]:
            factors: dict[Symbol, int] = {}
            if t.get("outer") is not None:
                factors[outer_symbol(t["outer"])] = 1
            for g in t.get("inner", []):
                factors[inner_symbol(g["fn"], g["index"])] = g["pow"]
            for v in t.get("vars", []):
                factors[var_symbol(v["j"])] = v["pow"]
            coeff = Fraction(t["coeff"])
            # integer coefficients stay ints, for exact round trips
            terms.append((int(coeff) if coeff.denominator == 1 else coeff, factors))
        return cls.from_terms(data["n"], data["m"], terms)


def relabel_shared(poly: FormulaPoly) -> FormulaPoly:
    """Collapse all inner function ids to 1 and re-collect like terms."""
    acc: dict[Factors, int | Fraction] = {}
    for factors, coeff in poly._terms.items():
        key = merge_factors(
            (("g", 1, sym[2]) if sym[0] == "g" else sym, exp) for sym, exp in factors
        )
        add_term(acc, key, coeff)
    return FormulaPoly(poly.n, poly.m, acc)


def _lookup_value(lookup, key):
    if hasattr(lookup, "at"):
        return lookup.at(key)
    if callable(lookup):
        return lookup(key)
    try:
        return lookup[key]
    except KeyError:
        raise MissingValue(f"no value at {key}") from None


def _coeff_str(coeff) -> str:
    if isinstance(coeff, Fraction) and coeff.denominator != 1:
        return f"{coeff.numerator}/{coeff.denominator}"
    return str(int(coeff))


def _render_factor(factor: tuple, fmt: str) -> str:
    """One factor in ``fmt``; for json, its fragment in "outer", "inner" or "vars"."""
    sym, exp = factor
    if fmt == "json":
        if sym[0] == "f":
            if exp != 1:
                raise ValueError("term has a non-simple outer factor")
            obj = list(sym[1])
        elif sym[0] == "g":
            obj = {"fn": sym[1], "index": list(sym[2]), "pow": exp}
        else:
            obj = {"j": sym[1], "pow": exp}
        return json.dumps(obj, separators=(",", ":"))
    star = fmt == "text"
    if sym[0] == "f":
        body = "f[" + ",".join(map(str, sym[1])) + "]" if star else \
            "f_{" + ",".join(map(str, sym[1])) + "}"
    elif sym[0] == "g":
        idx = ",".join(map(str, sym[2]))
        body = f"g{sym[1]}[{idx}]" if star else f"g{sym[1]}_{{{idx}}}"
    else:
        body = f"x{sym[1]}" if star else f"x_{{{sym[1]}}}"
    if exp != 1:
        body += f"^{exp}" if star else f"^{{{exp}}}"
    return body


def _json_term(coeff, factors: Factors, parts: list) -> str:
    """One term object of the json rendering, from its factors' fragments."""
    outer = None
    inner, variables = [], []
    for (sym, _), part in zip(factors, parts):
        if sym[0] == "f":
            if outer is not None:
                raise ValueError("term has a non-simple outer factor")
            outer = part
        elif sym[0] == "g":
            inner.append(part)
        else:
            variables.append(part)
    return (f'{{"coeff":"{_coeff_str(coeff)}","outer":{outer or "null"},'
            f'"inner":[{",".join(inner)}],"vars":[{",".join(variables)}]}}')
