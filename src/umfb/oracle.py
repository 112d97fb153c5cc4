"""Brute-force chain-rule differentiation over the same symbol algebra.

Starting from the symbol of the undifferentiated composite, repeated
application of the product and chain rules produces the uncompressed
derivative; every step collects like terms so intermediate polynomials stay
canonical and directly comparable with the compressed route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FormulaPoly, relabel_shared
from .errors import DimensionMismatch
from .fdbcore import CompositionSpec, _check_cap
from .multiindex import Index, as_index


@dataclass
class DerivativeState:
    """Current derivative of the composite plus the orders applied so far."""

    poly: FormulaPoly
    applied: Index

    @classmethod
    def initial(cls, n: int, m: int) -> "DerivativeState":
        start = FormulaPoly.monomial(n, m, 1, {("f", (0,) * n): 1})
        return cls(poly=start, applied=(0,) * m)


def differentiate_once(state: DerivativeState, r: int) -> DerivativeState:
    """Apply d/dt_r termwise: outer symbols branch over every inner function
    (chain rule), inner symbols bump their index (one more derivative), and
    the product rule distributes over the factors of each monomial."""
    poly = state.poly
    n, m = poly.n, poly.m
    if not 1 <= r <= m:
        raise ValueError(f"variable index {r} out of range 1..{m}")
    e_r = tuple(1 if a == r - 1 else 0 for a in range(m))
    acc: dict = {}

    def emit(factors: dict, coeff):
        key = tuple(sorted(factors.items()))
        v = acc.get(key, 0) + coeff
        if v == 0:
            acc.pop(key, None)
        else:
            acc[key] = v

    for factors, coeff in poly._terms.items():
        for pos, (sym, exp) in enumerate(factors):
            base = dict(factors)
            if exp == 1:
                del base[sym]
            else:
                base[sym] = exp - 1
            c = coeff * exp
            if sym[0] == "f":
                outer_index = sym[1]
                for j in range(n):
                    bumped = tuple(
                        e + 1 if a == j else e for a, e in enumerate(outer_index)
                    )
                    branch = dict(base)
                    branch[("f", bumped)] = branch.get(("f", bumped), 0) + 1
                    g = ("g", j + 1, e_r)
                    branch[g] = branch.get(g, 0) + 1
                    emit(branch, c)
            elif sym[0] == "g":
                bumped_idx = tuple(a + b for a, b in zip(sym[2], e_r))
                branch = dict(base)
                new = ("g", sym[1], bumped_idx)
                branch[new] = branch.get(new, 0) + 1
                emit(branch, c)
            # variables are constants under d/dt_r: contribute nothing

    applied = tuple(
        a + 1 if idx == r - 1 else a for idx, a in enumerate(state.applied)
    )
    return DerivativeState(poly=FormulaPoly(n, m, acc), applied=applied)


def chain_rule_derivative(spec: CompositionSpec) -> FormulaPoly:
    """The derivative of order ``spec.index`` by repeated chain rule.

    Differentiates variables in increasing order; the result is independent
    of the order.  Shared inner mode relabels function ids at the end,
    matching the compressed route.
    """
    i = as_index(spec.index)
    _check_cap(i, spec.n)
    state = DerivativeState.initial(spec.n, spec.m)
    for r, times in enumerate(i, start=1):
        for _ in range(times):
            state = differentiate_once(state, r)
    poly = state.poly
    if spec.inner_mode == "shared":
        poly = relabel_shared(poly)
    return poly


def equivalence_check(p: FormulaPoly, q: FormulaPoly):
    """Compare canonical forms; returns (equal, report) where report describes
    the first differing monomial when unequal."""
    if p.n != q.n or p.m != q.m:
        raise DimensionMismatch(f"({p.n},{p.m}) vs ({q.n},{q.m})")
    if p == q:
        return True, None
    keys = sorted(set(p._terms) | set(q._terms))
    for key in keys:
        a = p._terms.get(key, 0)
        b = q._terms.get(key, 0)
        if a != b:
            mono = FormulaPoly(p.n, p.m, {key: 1}).render("text")
            return False, f"coefficient mismatch at {mono}: {a} vs {b}"
    return False, "polynomials differ"
