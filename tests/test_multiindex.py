from itertools import permutations, product
from math import comb

import pytest

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


@pytest.mark.parametrize("i", [(2, 1), (1, 1, 1), (3, 2), (4,), (2, 0, 2)])
def test_partitions_match_brute_force_subdivisions(i):
    brute = brute_partitions_with_counts(i)
    got = list(partitions(i))
    assert {p.columns for p in got} == set(brute)
    assert len(got) == len(brute) == count_partitions(i)
    # the weight of each partition counts the labelled set partitions above it
    for p in got:
        assert p.coefficient() == brute[p.columns]


def test_partition_invariants():
    for i in [(2, 2), (3, 1), (1, 1, 2)]:
        for p in partitions(i):
            assert p.index() == i
            cols = [c for c, _ in p.columns]
            assert all(any(c) for c in cols)
            assert cols == sorted(cols)
            assert len(cols) == len(set(cols))
            assert p.length == sum(p.multiplicities)


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
