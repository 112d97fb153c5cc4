from itertools import permutations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umfb.errors import PartsMismatch, ZeroIndex
from umfb.multiindex import (
    Partition,
    compositions_into,
    count_partitions,
    multi_factorial,
    multinomial,
    partitions,
)

from helpers import brute_partitions_with_counts, term_count_by_series


def test_multi_factorial():
    assert multi_factorial((0, 0)) == 1
    assert multi_factorial((2, 1)) == 2
    assert multi_factorial((6, 5)) == 86400


def test_multinomial_examples():
    assert multinomial((2, 1), [(1, 1), (1, 0)]) == 2
    assert multinomial((1, 1), [(1, 1)]) == 1
    assert multinomial((2, 2), [(1, 0), (1, 2), (0, 0)]) == 2


def test_multinomial_rejects_bad_parts():
    with pytest.raises(PartsMismatch):
        multinomial((2, 1), [(1, 0), (0, 1)])
    with pytest.raises(PartsMismatch):
        multinomial((2, 1), [(1, 0, 0), (1, 1)])


def test_compositions_order_and_content():
    got = list(compositions_into((1, 1), 2))
    assert got == [
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
    ]
    assert list(compositions_into((2,), 1)) == [((2,),)]
    assert len(list(compositions_into((2, 1), 2))) == 6


@pytest.mark.parametrize("i,n", [((2, 1), 2), ((1, 1, 1), 3), ((3, 2), 4), ((2,), 5)])
def test_compositions_count_and_uniqueness(i, n):
    got = list(compositions_into(i, n))
    assert len(got) == len(set(got)) == _binom_product(i, n)
    for parts in got:
        assert tuple(sum(col) for col in zip(*parts)) == i


def _binom_product(i, n):
    out = 1
    for e in i:
        out *= comb(e + n - 1, n - 1)
    return out


def test_partitions_of_2_1_golden():
    got = [p.columns for p in partitions((2, 1))]
    assert got == [
        (((2, 1), 1),),
        (((0, 1), 1), ((2, 0), 1)),
        (((1, 0), 1), ((1, 1), 1)),
        (((0, 1), 1), ((1, 0), 2)),
    ]


def test_partitions_small_counts():
    assert len(list(partitions((1, 1)))) == 2
    assert [p.columns for p in partitions((3,))] == [
        (((3,), 1),),
        (((1,), 1), ((2,), 1)),
        (((1,), 3),),
    ]
    assert count_partitions((2, 0)) == 2
    assert count_partitions((2, 2)) == 9


def test_univariate_reduces_to_integer_partitions():
    assert [count_partitions((d,)) for d in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def test_zero_index_rejected():
    with pytest.raises(ZeroIndex):
        next(partitions((0, 0)))
    with pytest.raises(ZeroIndex):
        count_partitions((0,))


def _largest_first(columns):
    """The column sequence of a partition, largest column first: the stream
    runs through these sequences in decreasing lexicographic order."""
    return tuple(col for col, mult in reversed(columns) for _ in range(mult))


@pytest.mark.parametrize("i", [(2, 1), (1, 1, 1), (3, 2), (4,), (2, 0, 2), (3, 3), (2, 2, 2)])
def test_partitions_match_brute_force_subdivisions(i):
    brute = brute_partitions_with_counts(i)
    got = list(partitions(i))
    assert [p.columns for p in got] == sorted(brute, key=_largest_first, reverse=True)
    assert len(got) == len(brute) == count_partitions(i)
    # the weight of each partition counts the labelled set partitions above it
    for p in got:
        assert p.coefficient() == brute[p.columns]


def test_partition_invariants():
    for i in [(2, 2), (3, 1), (1, 1, 2)]:
        for p in partitions(i):
            assert tuple(sum(mult * c[r] for c, mult in p.columns) for r in range(len(i))) == i
            cols = [c for c, _ in p.columns]
            assert all(any(c) for c in cols)
            assert cols == sorted(cols)
            assert len(cols) == len(set(cols))
            assert p.length == sum(mult for _, mult in p.columns)


def test_count_matches_stream_length_up_to_order_8():
    for m in (1, 2, 3):
        for i in product(range(9), repeat=m):
            if not 0 < sum(i) <= 8:
                continue
            assert count_partitions(i) == sum(1 for _ in partitions(i))
            for n in (2, 3):
                assert count_partitions(i, n) == term_count_by_series(i, n), (i, n)


def test_permutation_symmetry():
    for i in [(3, 1), (2, 1, 1), (4, 2)]:
        base = {p.columns for p in partitions(i)}
        for perm in permutations(range(len(i))):
            j = tuple(i[a] for a in perm)
            mapped = set()
            for p in partitions(j):
                inv = [0] * len(i)
                for pos, a in enumerate(perm):
                    inv[a] = pos
                cols = sorted(
                    (tuple(col[inv[r]] for r in range(len(i))), mult)
                    for col, mult in p.columns
                )
                # regroup after relabelling (distinct columns can collide only
                # if the relabelling is not injective, which it is)
                mapped.add(tuple(cols))
            assert mapped == base


def test_partition_coefficient_is_positive_integer():
    for i in [(2, 2), (3, 2), (1, 1, 1, 1)]:
        for p in partitions(i):
            c = p.coefficient()
            assert isinstance(c, int) and c > 0


# -- enumeration over a column support ---------------------------------------


def _small_indices():
    for m in (1, 2, 3):
        for i in product(range(7), repeat=m):
            if 0 < sum(i) <= 6:
                yield i


def _supports(i, rng):
    """Column sets for i: the Hermite support (orders 1 and 2), odd orders,
    unit columns, a random subset, and the unit columns with one column
    beyond i."""
    box = [c for c in product(*(range(e + 1) for e in i)) if any(c)]
    units = {c for c in box if sum(c) == 1}
    yield {c for c in box if sum(c) in (1, 2)}
    yield {c for c in box if sum(c) % 2}
    yield units
    yield {c for c in box if rng.random() < 0.4}
    yield units | {tuple(e + 1 for e in i)}


def assert_support_restriction(i, support):
    """partitions(i, support) is the unrestricted stream filtered to the
    support, in the same order and with the same weights, and its length is
    both counts."""
    weights = {p.columns: p.coefficient() for p in partitions(i)}
    got = list(partitions(i, support))
    assert [p.columns for p in got] == [
        cols for cols in weights if all(col in support for col, _ in cols)], i
    assert all(p.coefficient() == weights[p.columns] for p in got)
    assert len(got) == count_partitions(i, 1, support) == term_count_by_series(i, 1, support)


def test_support_restriction_on_every_small_index():
    rng = Random(7)
    for i in _small_indices():
        for support in _supports(i, rng):
            assert_support_restriction(i, support)
        # every column of the box is the whole stream, in the same order
        everything = list(product(*(range(e + 1) for e in i)))
        assert [p.columns for p in partitions(i, everything)] == [
            p.columns for p in partitions(i)]
        hermite = {c for c in everything if sum(c) in (1, 2)}
        for n in (2, 3):
            assert count_partitions(i, n, hermite) == term_count_by_series(i, n, hermite)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any),
       st.integers(0, 2**64 - 1))
def test_support_restriction_on_random_supports(i, bits):
    i = tuple(i)
    box = [c for c in product(*(range(e + 1) for e in i)) if any(c)]
    support = {c for k, c in enumerate(box) if bits >> (k % 64) & 1}
    assert_support_restriction(i, support)


def test_support_that_cannot_reach_the_index():
    for i, support in [
        ((2, 1), []),
        ((2, 1), [(1, 0)]),          # nothing covers the second coordinate
        ((3,), [(2,)]),              # parity
        ((2, 2), [(3, 0), (0, 3)]),  # columns beyond i are dropped
        ((1, 1), [(1, 1, 0)]),       # wrong length
    ]:
        assert list(partitions(i, support)) == []
        assert count_partitions(i, 1, support) == 0 == term_count_by_series(
            i, 1, {c for c in support if len(c) == len(i)})


def test_zero_index_rejected_with_a_support():
    with pytest.raises(ZeroIndex):
        next(partitions((0, 0), [(1, 0)]))
    with pytest.raises(ZeroIndex):
        count_partitions((0,), 1, [(1,)])
