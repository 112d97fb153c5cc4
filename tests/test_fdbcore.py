import copy
import pickle
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umfb.algebra import FormulaPoly, inner_symbol, outer_symbol, var_symbol
from umfb.errors import MissingValue, TermCapExceeded
from umfb.fdbcore import (
    CompositionSpec,
    MomentTable,
    _check_cap,
    _table,
    dot_power_expansion,
    generalized_bell,
    predict_term_count,
    umfb,
)
from umfb.multiindex import count_partitions, multi_factorial, order, partitions
from umfb.oracle import chain_rule_derivative, relabel_shared

from helpers import (
    all_indices,
    bell_number,
    collected_formula,
    compose_moments,
    random_moment_values,
    reference_render,
    term_count_by_series,
)


def mono(n, m, coeff, factors):
    return FormulaPoly.from_terms(n, m, [(coeff, factors)])


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
    p = dot_power_expansion((2, 1), outer=MomentTable.unity())
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
        outer = MomentTable.from_values([1] + [0] * (order(i) - 1))
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


def test_one_descent_lists_the_partitions_of_every_k_in_canonical_order():
    """`_table` visits the partitions of every k <= i in one descent: for each
    k exactly `partitions(k)`, each once with its length and weight k!/den,
    in canonical (columns) order, and the visit numbers order the columns
    across all k, which is how `_stream` merges the partitions of several k.
    Every |i| <= 5 with m <= 3, and (6,5)."""
    expected = {}
    for i in [*(i for m in (1, 2, 3) for i in all_indices(m, 5)), (6, 5)]:
        box, _, table = _table(i, 2, lambda j, col, mult: ((j, col, mult),), ())
        visits = []
        for key, by_length in table.items():
            k = box[key]
            if k not in expected:  # the zero index has one partition, the empty one
                expected[k] = sorted((p.columns, p.length, p.coefficient())
                                     for p in partitions(k)) if any(k) else [((), 0, 1)]
            got = sorted((visit, length, payloads, den) for length, entries in by_length.items()
                         for visit, payloads, den in entries)
            assert all(payloads[1] == tuple((2, c, e) for _, c, e in payloads[0])
                       for _, _, payloads, _ in got), (i, k)
            columns = [tuple((c, e) for _, c, e in payloads[0]) for _, _, payloads, _ in got]
            assert [(cols, length, multi_factorial(k) // den)
                    for cols, (_, length, _, den) in zip(columns, got)] == expected[k], (i, k)
            assert all(multi_factorial(k) % den == 0 for *_, den in got), (i, k)
            visits += [(visit, cols) for (visit, *_), cols in zip(got, columns)]
        visits.sort()
        assert all(a[1] < b[1] for a, b in zip(visits, visits[1:])), i


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
    """`umfb` and `generalized_bell` build each key in sorted order and store
    distinct-mode products without collecting: their count is the number of
    n-tuples of partitions, counted independently by the generating function."""
    for m in (1, 2, 3):
        for i in all_indices(m, 4, include_zero=True):
            for n in (1, 2, 3):
                products = term_count_by_series(i, n)
                for poly in (
                    umfb(CompositionSpec(index=i, n=n, m=m)),
                    umfb(CompositionSpec(index=i, n=n, m=m, outer=MomentTable.unity())),
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


def test_cap_bound_never_exceeds_the_count(monkeypatch):
    """The cap's axis-column bound refuses only what the exact count refuses:
    with the cap at the count nothing is refused, one below it always is."""
    for m in (1, 2, 3):
        for i in all_indices(m, 4, include_zero=True):
            for n in (1, 2, 3):
                count = term_count_by_series(i, n)
                monkeypatch.setenv("UMFB_TERM_CAP", str(count))
                _check_cap(i, n)
                monkeypatch.setenv("UMFB_TERM_CAP", str(count - 1))
                with pytest.raises(TermCapExceeded):
                    _check_cap(i, n)


def test_cap_bound_refuses_a_huge_index_before_counting(monkeypatch):
    monkeypatch.setattr("umfb.fdbcore.predict_term_count", None)  # never reached
    with pytest.raises(TermCapExceeded, match=r"predicted at least 1\d{13} terms"):
        _check_cap((20, 20, 20), 2)


def outer_replaced(terms, outer=None):
    """{factors: coefficient} with each term's outer symbol f[l] (its first
    factor) replaced by the value outer(l), like terms collected and zeros
    dropped, or without ``outer`` by the monomial x^l of `generalized_bell`."""
    acc = {}
    for key, coeff in terms.items():
        ((_, lengths), _), inner = key[0], key[1:]
        if outer is None:
            inner += tuple((("x", j), e) for j, e in enumerate(lengths, start=1) if e)
        else:
            coeff *= outer(lengths)
        acc[inner] = acc.get(inner, 0) + coeff
    return {key: coeff for key, coeff in acc.items() if coeff != 0}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(1, 3))
def test_stream_keys_strictly_increase_in_terms_order(index, n):
    """`umfb` builds its dict from the canonical-order stream: with a
    symbolic outer the keys come out strictly increasing by (degree, factors),
    in distinct mode as many as the n-tuples of partitions.  Both modes,
    shared mode also with a unit and a seeded table outer, and
    `generalized_bell` have the terms of the plain collecting reference."""
    i, m = tuple(index), len(index)
    for mode in ("distinct", "shared"):
        expected = collected_formula(i, n, shared=mode == "shared")
        poly = umfb(CompositionSpec(index=i, n=n, m=m, inner_mode=mode))
        keys = [(sum(e for _, e in k), k) for k in poly._terms]
        assert all(a < b for a, b in zip(keys, keys[1:])), (i, n, mode)
        assert [k for _, k in poly.terms()] == [k for _, k in sorted(keys)]
        assert poly._terms == expected, (i, n, mode)
        if mode == "distinct":
            assert len(keys) == term_count_by_series(i, n)
            assert generalized_bell(i, n, m)._terms == outer_replaced(expected)
    rng = Random(repr((i, n)))
    table = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in all_indices(n, sum(i))}
    for outer in (MomentTable.unity(), MomentTable(n, table)):
        poly = umfb(CompositionSpec(index=i, n=n, m=m, inner_mode="shared", outer=outer))
        assert poly._terms == outer_replaced(expected, outer.at), (i, n)
        keys = [(sum(e for _, e in k), k) for k in poly._terms]
        assert keys == sorted(keys), (i, n)  # stored, and so listed, in terms() order


def test_shared_numeric_outer_weights_match_series_composition():
    """Shared mode with a numeric outer folds h_d = sum over |l| = d of
    d!/l! a_l; substituted, it equals the truncated series of f(g, ..., g)
    on every |i| <= 3, n <= 3.  The tables make h_1 = 0, and that row's
    terms are dropped, not stored as zeros."""
    rng = Random(22)
    for m in (1, 2, 3):
        inner_table = random_moment_values(rng, m, 3)
        inner = MomentTable(m, inner_table)
        for n in (1, 2, 3):
            values = {k: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))
                      for k in all_indices(n, 3)}
            last = (0,) * (n - 1) + (1,)
            values[last] -= sum(v for k, v in values.items() if sum(k) == 1)
            outer = MomentTable(n, values)
            series = compose_moments(outer.at, [inner_table] * n, n, m, 3)
            for i in all_indices(m, 3, include_zero=True):
                poly = umfb(CompositionSpec(index=i, n=n, m=m, inner_mode="shared", outer=outer))
                assert 0 not in poly._terms.values(), (i, n)
                assert poly.substitute(inner=[inner]) == series[i], (i, n)


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
        outer = MomentTable(
            n, {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in all_indices(n, cap)}
        )
        inner_tables = [random_moment_values(rng, m, cap) for _ in range(n)]
        inner_seqs = [MomentTable(m, t) for t in inner_tables]
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
    outer = MomentTable.unity()
    inner = {(1,): 1, (2,): 0, (3,): 0}
    table = compose_moments(outer.at, [inner], 1, 1, 3)
    assert [table[(k,)] for k in range(4)] == [1, 1, 1, 1]


def test_moment_sequence_kinds():
    assert MomentTable.unity().at(0) == 1
    assert MomentTable.unity().at((2, 1)) == 1
    seq = MomentTable.from_values([2, 3])
    assert seq.at(0) == 1 and seq.at(2) == 3
    with pytest.raises(MissingValue):
        seq.at(3)
    table = MomentTable(2, {(1, 0): Fraction(1, 2), (0, 0): 5})
    assert table.at((0, 0)) == 1 and table.at((1, 0)) == Fraction(1, 2)


def test_records_copy_and_pickle_through_their_constructors():
    """`CompositionSpec`, `Partition` and `MomentTable` are frozen: copies and
    pickles are built by the constructor, not by assigning fields."""
    table = MomentTable(2, {(1, 0): Fraction(1, 2)})
    spec = CompositionSpec((2, 1), 2, 2, inner_mode="shared")
    part = next(partitions((2, 1)))
    for record in (spec, part, table):
        assert copy.copy(record) == record
    for record in (spec, part):
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    assert pickle.loads(pickle.dumps(part)).weight == part.weight
