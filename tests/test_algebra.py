from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umfb.algebra import (
    FormulaPoly,
    inner_symbol,
    outer_symbol,
    relabel_shared,
    var_symbol,
)
from umfb.errors import DimensionMismatch, MissingValue

from helpers import reference_render


def mono(n, m, coeff, factors):
    return FormulaPoly.monomial(n, m, coeff, factors)


F10 = outer_symbol((1, 0))
F1 = outer_symbol((1,))
G11 = inner_symbol(1, (1, 1))
G10 = inner_symbol(1, (1, 0))
G01 = inner_symbol(1, (0, 1))


def test_symbol_validation():
    with pytest.raises(ValueError):
        inner_symbol(1, (0, 0))
    with pytest.raises(ValueError):
        inner_symbol(0, (1, 0))
    with pytest.raises(ValueError):
        var_symbol(0)
    with pytest.raises(ValueError):
        outer_symbol((-1,))


def test_add_collects_like_terms():
    p = mono(1, 2, 1, {F10: 1, G11: 1})
    assert (p + p) == mono(1, 2, 2, {F10: 1, G11: 1})
    assert p + FormulaPoly.zero(1, 2) == p
    assert len(p - p) == 0
    assert (p - p) == FormulaPoly.zero(1, 2)


def test_mul_distributes():
    a = mono(1, 2, 1, {G10: 1})
    b = mono(1, 2, 1, {G01: 1})
    sq = (a + b) * (a + b)
    expected = (
        mono(1, 2, 1, {G10: 2})
        + mono(1, 2, 2, {G10: 1, G01: 1})
        + mono(1, 2, 1, {G01: 2})
    )
    assert sq == expected
    f = mono(1, 2, 1, {F1: 1})
    assert f * mono(1, 2, 1, {G10: 1}) == mono(1, 2, 1, {F1: 1, G10: 1})


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        FormulaPoly.one(1, 2) + FormulaPoly.one(2, 2)
    with pytest.raises(DimensionMismatch):
        FormulaPoly.one(1, 2) * FormulaPoly.one(1, 1)


def test_substitute_numeric():
    p = mono(1, 2, 1, {outer_symbol((2,)): 1, G10: 1, G01: 1})
    ones = lambda k: 1
    assert p.substitute(outer=ones, inner=[ones]) == 1
    q = mono(1, 2, 1, {outer_symbol((1,)): 1, G11: 1})
    assert q.substitute(outer={(1,): 2}, inner=[{(1, 1): 3}]) == 6


def test_substitute_partial_and_missing():
    p = mono(1, 2, 1, {outer_symbol((1,)): 1, G11: 1})
    kept = p.substitute(outer={(1,): 2})
    assert isinstance(kept, FormulaPoly)
    assert kept == mono(1, 2, 2, {G11: 1})
    with pytest.raises(MissingValue):
        p.substitute(outer={(2,): 1})


def test_render_text():
    assert FormulaPoly.zero(2, 2).render("text") == "0"
    assert mono(2, 2, 2, {outer_symbol((1, 0)): 1}).render("text") == "2*f[1,0]"
    p = mono(1, 2, 1, {G10: 2}) + mono(1, 2, -3, {G11: 1})
    assert p.render("text") == "-3*g1[1,1] + g1[1,0]^2"
    assert mono(1, 1, Fraction(1, 2), {var_symbol(1): 1}).render("text") == "1/2*x1"


def test_render_latex():
    p = mono(2, 2, 2, {outer_symbol((1, 0)): 1, inner_symbol(2, (0, 1)): 2})
    assert p.render("latex") == "2 f_{1,0} g2_{0,1}^{2}"


def test_json_round_trip():
    p = (
        mono(2, 2, 2, {outer_symbol((1, 1)): 1, G10: 1, inner_symbol(2, (0, 1)): 2})
        + mono(2, 2, Fraction(-1, 3), {var_symbol(1): 2})
        + FormulaPoly.one(2, 2)
    )
    back = FormulaPoly.from_json(p.to_json())
    assert back == p and back.to_json() == p.to_json()
    # integer coefficients come back as ints, the others as Fractions
    assert sorted(type(c).__name__ for c, _ in back.terms()) == ["Fraction", "int", "int"]


def test_relabel_shared_merges():
    p = mono(2, 2, 1, {G10: 1, inner_symbol(2, (1, 0)): 1})
    assert relabel_shared(p) == mono(2, 2, 1, {G10: 2})


symbols_pool = [
    outer_symbol((1, 0)),
    outer_symbol((0, 1)),
    inner_symbol(1, (1, 0)),
    inner_symbol(1, (0, 1)),
    inner_symbol(2, (1, 1)),
]


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        coeff = draw(st.integers(-5, 5))
        factors = {}
        for sym in draw(st.lists(st.sampled_from(symbols_pool), max_size=3)):
            factors[sym] = factors.get(sym, 0) + 1
        terms.append((coeff, factors))
    return FormulaPoly.from_terms(2, 2, terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_substitute_is_ring_homomorphism(p, q):
    outer = {(1, 0): Fraction(2), (0, 1): Fraction(-1, 2)}
    inner = [{(1, 0): 3, (0, 1): Fraction(1, 3)}, {(1, 1): Fraction(-2)}]
    lhs = (p * q).substitute(outer=outer, inner=inner)
    rhs = p.substitute(outer=outer, inner=inner) * q.substitute(outer=outer, inner=inner)
    assert lhs == rhs


def assert_renders_like_reference(p):
    """Every format, and to_json, byte-identical to the plain renderer in
    helpers; where that renderer rejects a term, so must render."""
    for fmt in ("text", "latex", "json"):
        try:
            expected = reference_render(p.n, p.m, dict(p._terms), fmt)
        except ValueError:
            with pytest.raises(ValueError, match="non-simple outer factor"):
                p.render(fmt)
            continue
        assert p.render(fmt) == expected, fmt
        if fmt == "json":
            assert p.to_json() == expected


def test_render_matches_reference_on_arithmetic():
    x1, x2 = var_symbol(1), var_symbol(2)
    a = mono(2, 2, Fraction(-3, 4), {F10: 1, G10: 2}) + mono(2, 2, 5, {x1: 1, G11: 1})
    b = mono(2, 2, -1, {x2: 3, G01: 1}) + FormulaPoly.one(2, 2).scale(Fraction(7, 2))
    cases = [
        FormulaPoly.zero(2, 2),
        FormulaPoly.one(2, 2),
        FormulaPoly.one(2, 2).scale(-2),
        FormulaPoly.one(2, 2).scale(Fraction(-1, 3)),
        mono(2, 2, Fraction(4, 2), {x1: 1}),
        a, b, a - b, a * b, b * b, a.scale(Fraction(2, 5)), (a + b) * (a - b),
        a - a,
    ]
    for p in cases:
        assert_renders_like_reference(p)


def test_render_rejects_a_non_simple_outer_factor():
    for p in (mono(1, 2, 1, {F1: 2}), mono(2, 2, 1, {F10: 1, outer_symbol((0, 1)): 1})):
        assert p.render("text")
        with pytest.raises(ValueError, match="non-simple outer factor"):
            p.to_json()


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.sampled_from([1, -1, Fraction(1, 2), Fraction(-7, 3)]))
def test_render_matches_reference(p, c):
    assert_renders_like_reference(p.scale(c))
