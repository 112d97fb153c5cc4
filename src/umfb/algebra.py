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

from itertools import chain
from typing import Iterable

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

    __slots__ = ("n", "m", "_terms", "_ordered")

    def __init__(self, n: int, m: int, terms: dict | None = None):
        self.n = n
        self.m = m
        self._terms: dict[Factors, int | Fraction] = terms if terms is not None else {}
        self._ordered = False  # True when the dict is already in canonical order

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, m: int, terms: Iterable[tuple]) -> "FormulaPoly":
        """Build from (coefficient, factors) pairs, collecting like terms; the
        factors are a canonical tuple or a {symbol: exponent} mapping."""
        acc: dict[Factors, int | Fraction] = {}
        for coeff, factors in terms:
            if not isinstance(factors, tuple):
                factors = merge_factors((s, e) for s, e in factors.items() if e)
                if any(e < 0 for _, e in factors):
                    raise ValueError("factor exponents must be positive")
            add_term(acc, factors, coeff)
        return cls(n, m, acc)

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple, ...]:
        """Canonically ordered (coefficient, factors) pairs: keys bucketed by
        degree, each bucket sorted as plain tuples (no per-term sort key)."""
        if self._ordered:
            return tuple(zip(self._terms.values(), self._terms))
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
            return FormulaPoly(self.n, self.m)
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
            kept: list[tuple[Symbol, int]] = []
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
                    kept.append((sym, exp))
                else:
                    coeff = coeff * _lookup_value(lookup, key) ** exp
                    if coeff == 0:
                        break
            else:
                add_term(acc, merge_factors(kept), coeff)
        out = FormulaPoly(self.n, self.m, acc)
        const = out.constant_value()
        return out if const is None else const

    # -- rendering ---------------------------------------------------------

    def render(self, fmt: str = "text") -> str:
        return "".join(self.chunks(fmt))

    def to_json(self) -> str:
        return self.render("json")

    def chunks(self, fmt: str = "text"):
        """The rendering in ``fmt`` (text, latex or json) piece by piece: one
        chunk per term in canonical order, plus json's envelope.  Each
        distinct (symbol, exponent) factor is formatted once per call."""
        if fmt not in _JOINERS:
            raise ValueError(f"unknown format {fmt!r}")
        texts, joiner = _Texts(fmt), _JOINERS[fmt]

        def body(factors):
            parts = [texts[factor] for factor in factors]
            return _json_factors(factors, parts) if fmt == "json" else joiner.join(parts)

        terms = self.terms()
        batches = ([(body(f), c) for c, f in terms[s:s + _BATCH_TERMS]]
                   for s in range(0, len(terms), _BATCH_TERMS))
        return chain.from_iterable(_document(self.n, self.m, fmt, batches))

    @classmethod
    def from_json(cls, text: str) -> "FormulaPoly":
        import json
        from fractions import Fraction
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


def _lookup_value(lookup, key):
    if hasattr(lookup, "at"):
        return lookup.at(key)
    if callable(lookup):
        return lookup(key)
    try:
        return lookup[key]
    except KeyError:
        raise MissingValue(f"no value at {key}") from None


_JOINERS = {"text": "*", "latex": " ", "json": ","}  # between factor fragments
_BATCH_TERMS = 2048  # terms formatted by one comprehension in `_document`


def _coeff_str(coeff) -> str:
    """An exact coefficient as an integer or "p/q"; a float as its exact rational."""
    if type(coeff) is int:
        return str(coeff)
    from fractions import Fraction
    v = Fraction(coeff)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _render_factor(factor: tuple, fmt: str) -> str:
    """One factor in ``fmt``; for json, its fragment in "outer", "inner" or "vars"."""
    sym, exp = factor
    idx = ",".join(map(str, sym[-1])) if sym[0] != "x" else ""
    if fmt == "json":
        if sym[0] == "f":
            if exp != 1:
                raise ValueError("term has a non-simple outer factor")
            return f"[{idx}]"
        if sym[0] == "g":
            return f'{{"fn":{sym[1]},"index":[{idx}],"pow":{exp}}}'
        return f'{{"j":{sym[1]},"pow":{exp}}}'
    star = fmt == "text"
    if sym[0] == "f":
        body = f"f[{idx}]" if star else f"f_{{{idx}}}"
    elif sym[0] == "g":
        body = f"g{sym[1]}[{idx}]" if star else f"g{sym[1]}_{{{idx}}}"
    else:
        body = f"x{sym[1]}" if star else f"x_{{{sym[1]}}}"
    if exp != 1:
        body += f"^{exp}" if star else f"^{{{exp}}}"
    return body


class _Texts(dict):
    """Factors formatted in one format, each once, on its first lookup."""

    def __init__(self, fmt: str):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, factor):
        text = self[factor] = _render_factor(factor, self.fmt)
        return text


def _json_factors(factors: Factors, parts: list) -> str:
    """A json term's members after "coeff": canonical factors come outer, then
    inner, then variables ('f' < 'g' < 'x'), so each member is a slice."""
    kinds = [sym[0] for sym, _ in factors]
    f, g = kinds.count("f"), kinds.count("g")
    if f > 1:
        raise ValueError("term has a non-simple outer factor")
    outer = parts[0] if f else "null"
    return f'"outer":{outer},"inner":[{",".join(parts[f:f + g])}],"vars":[{",".join(parts[f + g:])}]'


def _document(n: int, m: int, fmt: str, batches):
    """The chunks of a rendering, a list per batch of terms: each term with its
    separator, sign and coefficient, json's envelope, or "0" for a text
    without terms.  A batch lists (body, coefficient), a body being the term's
    formatted factors (for json, its members after "coeff"), and one
    comprehension formats it."""
    joiner, first = _JOINERS[fmt], True
    if fmt == "json":
        yield [f'{{"n":{n},"m":{m},"terms":[']
    for batch in batches:
        if fmt == "json":
            page = [f',{{"coeff":"{c if type(c) is int else _coeff_str(c)}",{b}}}'
                    for b, c in batch]
        else:  # mag: the coefficient's magnitude, left out before factors if 1
            page = [(" - " if c < 0 else " + ") + (b if (mag := -c if c < 0 else c) == 1 and b
                                                   else f"{mag}{joiner}{b}" if b else str(mag))
                    for b, c in batch]
        if first and page:
            first, head = False, page[0]
            page[0] = head[1:] if fmt == "json" else head[3:] if head[1] == "+" else "-" + head[3:]
        yield page
    yield ["]}"] if fmt == "json" else ["0"] if first else []
