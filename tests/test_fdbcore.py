from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from umfb.algebra import FormulaPoly, inner_symbol, outer_symbol, relabel_shared, var_symbol
from umfb.errors import MissingValue, TermCapExceeded
from umfb.fdbcore import (
    CompositionSpec,
    MomentSequence,
    dot_power_expansion,
    generalized_bell,
    predict_term_count,
    umfb,
)
from umfb.multiindex import count_partitions, order
from umfb.oracle import chain_rule_derivative

from helpers import (
    all_indices,
    bell_number,
    compose_moments,
    random_moment_values,
    reference_render,
    term_count_by_series,
)


def mono(n, m, coeff, factors):
    return FormulaPoly.monomial(n, m, coeff, factors)


def appendix_example():
    """The collected second mixed derivative of a 2-function, 2-variable
    composite: the six-term golden polynomial."""
    g1 = lambda idx: inner_symbol(1, idx)
    g2 = lambda idx: inner_symbol(2, idx)
    f = lambda idx: outer_symbol(idx)
    return (
        mono(2, 2, 1, {f((1, 0)): 1, g1((1, 1)): 1})
        + mono(2, 2, 1, {f((2, 0)): 1, g1((1, 0)): 1, g1((0, 1)): 1})
        + mono(2, 2, 1, {f((0, 1)): 1, g2((1, 1)): 1})
        + mono(2, 2, 1, {f((0, 2)): 1, g2((1, 0)): 1, g2((0, 1)): 1})
        + mono(2, 2, 1, {f((1, 1)): 1, g1((1, 0)): 1, g2((0, 1)): 1})
        + mono(2, 2, 1, {f((1, 1)): 1, g1((0, 1)): 1, g2((1, 0)): 1})
    )


def test_dot_power_symbolic():
    got = dot_power_expansion((1, 1))
    expected = mono(1, 2, 1, {outer_symbol((2,)): 1, inner_symbol(1, (1, 0)): 1, inner_symbol(1, (0, 1)): 1}) + mono(
        1, 2, 1, {outer_symbol((1,)): 1, inner_symbol(1, (1, 1)): 1}
    )
    assert got == expected
    assert dot_power_expansion((1,)) == mono(
        1, 1, 1, {outer_symbol((1,)): 1, inner_symbol(1, (1,)): 1}
    )
    assert dot_power_expansion((0, 0)) == mono(1, 2, 1, {outer_symbol((0,)): 1})


def test_dot_power_unity_value():
    # frozen from the labelled set-partition oracle: sum of weights = Bell(3)
    p = dot_power_expansion((2, 1), outer=MomentSequence.unity())
    assert p.substitute(inner=[lambda k: 1]) == 5


def test_umfb_appendix_golden():
    spec = CompositionSpec(index=(1, 1), n=2, m=2)
    assert umfb(spec) == appendix_example()


def test_umfb_first_derivative():
    got = umfb(CompositionSpec(index=(1,), n=1, m=1))
    assert got.render("text") == "f[1]*g1[1]"


def test_umfb_zero_index():
    got = umfb(CompositionSpec(index=(0, 0), n=2, m=2))
    assert got == mono(2, 2, 1, {outer_symbol((0, 0)): 1})


def test_umfb_shared_mode_collapses():
    spec_d = CompositionSpec(index=(1, 1), n=2, m=2)
    spec_s = CompositionSpec(index=(1, 1), n=2, m=2, inner_mode="shared")
    shared = umfb(spec_s)
    assert shared == relabel_shared(umfb(spec_d))
    assert len(shared) == 5  # the two cross terms merge with coefficient 2


def test_generalized_bell():
    assert generalized_bell((1,), 1, 1) == mono(
        1, 1, 1, {var_symbol(1): 1, inner_symbol(1, (1,)): 1}
    )
    b2 = generalized_bell((2,), 1, 1)
    expected = mono(1, 1, 1, {var_symbol(1): 1, inner_symbol(1, (2,)): 1}) + mono(
        1, 1, 1, {var_symbol(1): 2, inner_symbol(1, (1,)): 2}
    )
    assert b2 == expected


def test_generalized_bell_matches_umfb_appendix():
    bell = generalized_bell((1, 1), 2, 2)
    reference = umfb(CompositionSpec(index=(1, 1), n=2, m=2))
    # rewrite each variable monomial x1^a x2^b as the outer symbol (a, b)
    rebuilt = []
    for coeff, factors in bell.terms():
        exps = [0, 0]
        rest = {}
        for sym, e in factors:
            if sym[0] == "x":
                exps[sym[1] - 1] = e
            else:
                rest[sym] = e
        rest[outer_symbol(tuple(exps))] = 1
        rebuilt.append((coeff, rest))
    assert FormulaPoly.from_terms(2, 2, rebuilt) == reference


def test_outer_identity_collapse():
    # outer moments of the identity series: a_1 = 1, higher zero
    for i in [(2, 1), (3,), (1, 1, 1)]:
        outer = MomentSequence.from_values([1] + [0] * (order(i) - 1))
        got = umfb(CompositionSpec(index=i, n=1, m=len(i), outer=outer))
        assert got == mono(1, len(i), 1, {inner_symbol(1, i): 1})


def test_inner_identity_collapse():
    for i in [(2, 1), (1, 1)]:
        m = len(i)
        spec = CompositionSpec(index=i, n=m, m=m)
        identity = [
            {tuple(1 if a == j else 0 for a in range(m)): 1} for j in range(m)
        ]
        inner = [
            (lambda table: (lambda k: table.get(k, 0)))(t) for t in identity
        ]
        got = umfb(spec).substitute(inner=inner)
        assert got == mono(m, m, 1, {outer_symbol(i): 1})


def test_bell_number_invariant():
    for d in range(1, 7):
        i = (1,) * d
        value = umfb(CompositionSpec(index=i, n=1, m=d)).substitute(
            outer=lambda k: 1, inner=[lambda k: 1]
        )
        assert value == bell_number(d)


def test_term_count_n1_equals_partition_count():
    for i in [(2, 2), (3, 1), (4,), (1, 2, 1)]:
        got = umfb(CompositionSpec(index=i, n=1, m=len(i)))
        assert len(got) == count_partitions(i)


def test_coefficient_positivity():
    for i in [(2, 2), (1, 1, 1)]:
        for n in (1, 2, 3):
            got = umfb(CompositionSpec(index=i, n=n, m=len(i)))
            assert all(isinstance(c, int) and c > 0 for c, _ in got.terms())


def test_predicted_count_matches_distinct_output():
    for m in (1, 2, 3):
        for i in all_indices(m, 6):
            for n in (1, 2, 3):
                got = umfb(CompositionSpec(index=i, n=n, m=m))
                assert predict_term_count(i, n) == len(got), (i, n)


def test_assembled_keys_are_sorted_and_distinct_products_stay_apart():
    """`_assemble` builds each key in sorted order and stores distinct-mode
    products without collecting: their count is the number of n-tuples of
    partitions, counted independently by the generating function."""
    for m in (1, 2, 3):
        for i in all_indices(m, 4, include_zero=True):
            for n in (1, 2, 3):
                products = term_count_by_series(i, n)
                for poly in (
                    umfb(CompositionSpec(index=i, n=n, m=m)),
                    umfb(CompositionSpec(index=i, n=n, m=m, outer=MomentSequence.unity())),
                    generalized_bell(i, n, m),
                ):
                    assert all(k == tuple(sorted(k)) for k in poly._terms), (i, n)
                    assert len(poly) == products, (i, n)
                shared = umfb(CompositionSpec(index=i, n=n, m=m, inner_mode="shared"))
                assert all(k == tuple(sorted(k)) for k in shared._terms), (i, n)


def cli_mode_polys(i, n):
    """The polynomial `umfb compute` renders in each of its four modes."""
    m = len(i)
    yield umfb(CompositionSpec(index=i, n=n, m=m))
    yield umfb(CompositionSpec(index=i, n=n, m=m, inner_mode="shared"))
    yield generalized_bell(i, n, m)
    if n == 1:  # uni-outer is n = 1 whatever -n says
        yield umfb(CompositionSpec(index=i, n=1, m=m))


def test_render_matches_reference_on_every_small_spec():
    for m in (1, 2, 3):
        for i in all_indices(m, 4, include_zero=True):
            for n in (1, 2, 3):
                for poly in cli_mode_polys(i, n):
                    for fmt in ("text", "latex", "json"):
                        expected = reference_render(poly.n, poly.m, dict(poly._terms), fmt)
                        assert poly.render(fmt) == expected, (i, n, fmt)
                    assert poly.to_json() == expected


def test_variable_permutation_symmetry():
    i = (2, 1)
    base = umfb(CompositionSpec(index=i, n=2, m=2))
    for perm in permutations(range(2)):
        j = tuple(i[a] for a in perm)
        other = umfb(CompositionSpec(index=j, n=2, m=2))
        relabeled = []
        for coeff, factors in other.terms():
            remapped = {}
            for sym, e in factors:
                if sym[0] == "g":
                    idx = tuple(sym[2][perm.index(r)] for r in range(2))
                    remapped[("g", sym[1], idx)] = e
                else:
                    remapped[sym] = e
            relabeled.append((coeff, remapped))
        assert FormulaPoly.from_terms(2, 2, relabeled) == base


def test_term_cap(monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "10")
    with pytest.raises(TermCapExceeded):
        umfb(CompositionSpec(index=(3, 3), n=2, m=2))
    with pytest.raises(TermCapExceeded):
        chain_rule_derivative(CompositionSpec(index=(3, 3), n=2, m=2))
    monkeypatch.setenv("UMFB_TERM_CAP", str(count_partitions((3, 3)) - 1))
    with pytest.raises(TermCapExceeded):
        dot_power_expansion((3, 3))
    monkeypatch.setenv("UMFB_TERM_CAP", str(count_partitions((3, 3))))
    assert len(dot_power_expansion((3, 3))) == count_partitions((3, 3))


def test_compose_generating_check_matches_substitution():
    rng = Random(7)
    cases = [
        ((1, 1), 2, 2, "distinct"),
        ((2, 1), 2, 2, "distinct"),
        ((2,), 3, 1, "distinct"),
        ((1, 1), 2, 2, "shared"),
        ((2, 0), 1, 2, "distinct"),
    ]
    for i, n, m, mode in cases:
        cap = order(i)
        outer = MomentSequence.from_table(
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in all_indices(n, cap)}
        )
        inner_tables = [random_moment_values(rng, m, cap) for _ in range(n)]
        inner_seqs = [MomentSequence.from_table(t) for t in inner_tables]
        spec = CompositionSpec(index=i, n=n, m=m, inner_mode=mode, outer=outer)
        table = compose_moments(
            outer.at, [inner_tables[0]] * n if mode == "shared" else inner_tables, n, m, cap
        )
        if mode == "shared":
            inner_lookup = [inner_seqs[0]] * n
        else:
            inner_lookup = inner_seqs
        got = umfb(spec).substitute(inner=inner_lookup)
        assert table[i] == got, (i, n, m, mode)


def test_compose_generating_check_exp_identity():
    # outer exp-series with identity inner: coefficients all 1
    outer = MomentSequence.unity()
    inner = {(1,): 1, (2,): 0, (3,): 0}
    table = compose_moments(outer.at, [inner], 1, 1, 3)
    assert [table[(k,)] for k in range(4)] == [1, 1, 1, 1]


def test_moment_sequence_kinds():
    assert MomentSequence.unity().at(0) == 1
    assert MomentSequence.unity().at((2, 1)) == 1
    seq = MomentSequence.from_values([2, 3])
    assert seq.at(0) == 1 and seq.at(2) == 3
    with pytest.raises(MissingValue):
        seq.at(3)
    table = MomentSequence.from_table({(1, 0): Fraction(1, 2), (0, 0): 5})
    assert table.at((0, 0)) == 1 and table.at((1, 0)) == Fraction(1, 2)
