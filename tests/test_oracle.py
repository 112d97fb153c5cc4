import pytest

from umfb.algebra import FormulaPoly, inner_symbol, outer_symbol
from umfb.errors import DimensionMismatch
from umfb.fdbcore import CompositionSpec, umfb
from umfb.oracle import (
    DerivativeState,
    chain_rule_derivative,
    differentiate_once,
    equivalence_check,
)


def mono(n, m, coeff, factors):
    return FormulaPoly.from_terms(n, m, [(coeff, factors)])


def test_initial_state():
    s = DerivativeState.initial(2, 2)
    assert s.poly == mono(2, 2, 1, {outer_symbol((0, 0)): 1})
    assert s.applied == (0, 0)


def test_first_derivative_golden():
    s = differentiate_once(DerivativeState.initial(2, 2), 1)
    expected = mono(2, 2, 1, {outer_symbol((1, 0)): 1, inner_symbol(1, (1, 0)): 1}) + mono(
        2, 2, 1, {outer_symbol((0, 1)): 1, inner_symbol(2, (1, 0)): 1}
    )
    assert s.poly == expected
    assert s.applied == (1, 0)


def test_second_mixed_derivative_has_six_terms():
    s = DerivativeState.initial(2, 2)
    s = differentiate_once(s, 1)
    s = differentiate_once(s, 2)
    assert len(s.poly) == 6
    assert s.poly == umfb(CompositionSpec(index=(1, 1), n=2, m=2))


def test_univariate_second_derivative():
    got = chain_rule_derivative(CompositionSpec(index=(2,), n=1, m=1))
    expected = mono(1, 1, 1, {outer_symbol((2,)): 1, inner_symbol(1, (1,)): 2}) + mono(
        1, 1, 1, {outer_symbol((1,)): 1, inner_symbol(1, (2,)): 1}
    )
    assert got == expected


def test_differentiation_order_commutes():
    a = DerivativeState.initial(2, 2)
    path1 = differentiate_once(differentiate_once(a, 1), 2)
    path2 = differentiate_once(differentiate_once(a, 2), 1)
    assert path1.poly == path2.poly
    assert path1.applied == path2.applied == (1, 1)


def test_differentiate_is_linear():
    p = mono(1, 2, 2, {outer_symbol((1,)): 1}) + mono(
        1, 2, 3, {inner_symbol(1, (1, 0)): 2}
    )
    whole = differentiate_once(DerivativeState(poly=p, applied=(0, 0)), 1).poly
    parts = FormulaPoly(1, 2)
    for coeff, factors in p.terms():
        piece = FormulaPoly.from_terms(1, 2, [(coeff, dict(factors))])
        parts = parts + differentiate_once(
            DerivativeState(poly=piece, applied=(0, 0)), 1
        ).poly
    assert whole == parts


def test_variable_index_range():
    with pytest.raises(ValueError):
        differentiate_once(DerivativeState.initial(1, 2), 3)
    with pytest.raises(ValueError):
        differentiate_once(DerivativeState.initial(1, 2), 0)


def test_shared_mode_relabels():
    got = chain_rule_derivative(
        CompositionSpec(index=(1, 1), n=2, m=2, inner_mode="shared")
    )
    assert got == umfb(CompositionSpec(index=(1, 1), n=2, m=2, inner_mode="shared"))


def test_equivalence_check_positive_and_negative():
    p = umfb(CompositionSpec(index=(2, 1), n=2, m=2))
    ok, report = equivalence_check(p, chain_rule_derivative(CompositionSpec(index=(2, 1), n=2, m=2)))
    assert ok and report is None
    q = p + mono(2, 2, 1, {outer_symbol((1, 0)): 1})
    ok, report = equivalence_check(p, q)
    assert not ok
    assert "f[1,0]" in report
    with pytest.raises(DimensionMismatch):
        equivalence_check(p, FormulaPoly(1, 2))
