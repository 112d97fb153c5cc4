"""End-to-end acceptance checks.

Each test prints a one-line PASS summary with the measured quantity so the
captured output doubles as a report.  The pinned published term counts are
checked against both the printed figure and an independent generating-function
count; the one printed figure that is a misprint, 14089 for index (6,5) with
n=2, is corrected through a documented erratum rather than silently edited.
"""

import io
import time
from fractions import Fraction
from itertools import product
from math import comb
from random import Random

import pytest

import umfb.cli as cli
from umfb.algebra import FormulaPoly, inner_symbol, outer_symbol
from umfb.fdbcore import CompositionSpec, umfb
from umfb.multiindex import order, partitions
from umfb.oracle import chain_rule_derivative, equivalence_check
from umfb.special import (
    MomentTable,
    SymmetricMatrix,
    cumulants_to_moments,
    hermite,
    hermite_via_bell,
    moments_to_cumulants,
)

from helpers import (
    all_indices,
    bell_number,
    random_moment_values,
    random_spd_matrix,
    term_count_by_series,
)


def report(name, detail):
    print(f"[acceptance] {name}: {detail}")


# -- 1: the worked 6-term example, computed fast from cold caches -----------


def test_01_second_mixed_derivative_golden_and_fast():
    g1 = lambda idx: inner_symbol(1, idx)
    g2 = lambda idx: inner_symbol(2, idx)
    f = lambda idx: outer_symbol(idx)
    mono = lambda c, fs: FormulaPoly.from_terms(2, 2, [(c, fs)])
    expected = (
        mono(1, {f((1, 0)): 1, g1((1, 1)): 1})
        + mono(1, {f((2, 0)): 1, g1((1, 0)): 1, g1((0, 1)): 1})
        + mono(1, {f((0, 1)): 1, g2((1, 1)): 1})
        + mono(1, {f((0, 2)): 1, g2((1, 0)): 1, g2((0, 1)): 1})
        + mono(1, {f((1, 1)): 1, g1((1, 0)): 1, g2((0, 1)): 1})
        + mono(1, {f((1, 1)): 1, g1((0, 1)): 1, g2((1, 0)): 1})
    )
    spec = CompositionSpec(index=(1, 1), n=2, m=2)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = umfb(spec)
        best = min(best, time.perf_counter() - t0)
    assert got == expected
    assert best < 1e-3, f"best of 3 cold runs took {best * 1e3:.3f} ms"
    report("six-term golden", f"exact match, best cold run {best * 1e6:.0f} us")


# -- 2: partition enumeration golden ----------------------------------------


def test_02_partitions_of_2_1():
    got = [p.columns for p in partitions((2, 1))]
    assert got == [
        (((2, 1), 1),),
        (((0, 1), 1), ((2, 0), 1)),
        (((1, 0), 1), ((1, 1), 1)),
        (((0, 1), 1), ((1, 0), 2)),
    ]
    weights = [p.coefficient() for p in partitions((2, 1))]
    assert weights == [1, 1, 2, 1]
    report("partitions of (2,1)", "4 partitions in canonical order, weights 1,1,2,1")


# -- 3: pinned published term counts ----------------------------------------

# Errata to the published term counts, keyed by (index, n).  The figure printed
# for index (6,5), n=2 is 14089, but the coefficient of x^(6,5) in
# prod_{c != 0} (1 - x^c)^(-2), which counts the pairs of multi-index
# partitions summing to (6,5), is 14098.  The same coefficient reproduces the
# other two printed figures exactly (20208 and 106912), so the paper counts
# this quantity and 14089 is a digit transposition of 14098.  The parametrize
# value keeps the figure as printed.
PUBLISHED_ERRATA = {((6, 5), 2): 14098}


@pytest.mark.parametrize(
    "index,n,published",
    [((6, 5), 2, 14089), ((5, 4), 3, 20208), ((4, 2, 2), 4, 106912)],
)
def test_03_published_term_counts(index, n, published):
    expected = PUBLISHED_ERRATA.get((index, n), published)
    t0 = time.perf_counter()
    got = len(umfb(CompositionSpec(index=index, n=n, m=len(index))))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    series = term_count_by_series(index, n)
    corrected = f" corrected to {expected}" if expected != published else ""
    report(
        f"term count {index} n={n}",
        f"computed {got} in {elapsed:.2f}s (published {published}{corrected}, "
        f"generating function {series})",
    )
    why = (
        f"computed term count {got} for {index}, n={n}; published "
        f"{published}{corrected}; generating-function count {series}"
    )
    assert got == series, why
    assert got == expected, why


# -- 4: equivalence with the brute-force chain rule --------------------------


def test_04_equivalence_sweep():
    t0 = time.perf_counter()
    checked = 0
    for m in (1, 2, 3):
        for i in product(range(5), repeat=m):
            if not 0 < order(i) <= 4:
                continue
            for n in (1, 2, 3):
                for mode in ("distinct", "shared"):
                    spec = CompositionSpec(index=i, n=n, m=m, inner_mode=mode)
                    equal, why = equivalence_check(
                        umfb(spec), chain_rule_derivative(spec)
                    )
                    assert equal, f"i={i} n={n} mode={mode}: {why}"
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report("equivalence sweep", f"{checked} cases equal in {elapsed:.1f}s")


# -- 5: partition weights sum to the Bell numbers ----------------------------


def test_05_bell_numbers():
    for d in range(1, 9):
        total = sum(p.coefficient() for p in partitions((1,) * d))
        if d <= 7:  # brute force is exponential; cross-check where feasible
            assert total == bell_number(d)
        assert total == _bell_recurrence(d)
    report("Bell numbers", "weight sums match brute force (d<=7) and recurrence (d<=8)")


def _bell_recurrence(d):
    row = [1]
    for _ in range(d):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# -- 6: moment/cumulant conversions ------------------------------------------


def test_06_cumulant_round_trip_and_identities():
    rng = Random(2024)
    trips = 0
    for case in range(100):
        n = 1 + case % 3
        mom = MomentTable(n=n, values=random_moment_values(rng, n, 4))
        cum = MomentTable(
            n=n, values={i: moments_to_cumulants(mom, i) for i in all_indices(n, 4)}
        )
        for i in all_indices(n, 4):
            assert cumulants_to_moments(cum, i) == mom.at(i), (case, i)
        trips += 1

    # independence: product-form moments have vanishing mixed cumulants
    a = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(1, 5)}
    b = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(1, 5)}
    prod_table = MomentTable(
        n=2, values={(p, q): a.get(p, 1) * b.get(q, 1) for p, q in all_indices(2, 4)}
    )
    for i in all_indices(2, 4):
        if i[0] and i[1]:
            assert moments_to_cumulants(prod_table, i) == 0, i

    # additivity: cumulants of a convolution are sums of cumulants
    m1 = MomentTable(n=2, values=random_moment_values(rng, 2, 4))
    m2 = MomentTable(n=2, values=random_moment_values(rng, 2, 4))
    conv = MomentTable(
        n=2,
        values={
            i: sum(
                prod_binom(i, k) * m1.at(k) * m2.at(sub(i, k))
                for k in subindices(i)
            )
            for i in all_indices(2, 4)
        },
    )
    for i in all_indices(2, 4):
        assert moments_to_cumulants(conv, i) == moments_to_cumulants(
            m1, i
        ) + moments_to_cumulants(m2, i), i

    report("cumulants", f"{trips} exact round trips; independence and additivity hold")


def subindices(i):
    return product(*(range(e + 1) for e in i))


def sub(i, k):
    return tuple(a - b for a, b in zip(i, k))


def prod_binom(i, k):
    out = 1
    for a, b in zip(i, k):
        out *= comb(a, b)
    return out


# -- 7: Hermite polynomials ---------------------------------------------------


def test_07_hermite():
    unit = SymmetricMatrix(((Fraction(1),),))
    assert hermite((3,), unit, (Fraction(2),)) == 2
    rng = Random(7)
    checked = 0
    for _ in range(4):
        n = rng.choice([1, 2, 3])
        sigma = SymmetricMatrix(random_spd_matrix(rng, n))
        x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
        for i in all_indices(n, 4, include_zero=True):
            assert hermite(i, sigma, x) == hermite_via_bell(i, sigma, x), (n, i)
            checked += 1
    report("Hermite", f"H_3(2)=2; dual routes agree on {checked} cases")


# -- 8: speed advantage over the chain rule ----------------------------------


def test_08_faster_than_chain_rule():
    spec = CompositionSpec(index=(6, 5), n=3, m=2)
    t0 = time.perf_counter()
    fast = umfb(spec)
    t1 = time.perf_counter()
    slow = chain_rule_derivative(spec)
    t2 = time.perf_counter()
    assert fast == slow
    fast_s, slow_s = t1 - t0, t2 - t1
    report(
        "speed (6,5) n=3",
        f"compressed {fast_s:.2f}s vs chain rule {slow_s:.2f}s, {len(fast)} terms",
    )
    assert fast_s <= slow_s / 2, f"{fast_s:.2f}s vs {slow_s:.2f}s"


# -- 9: deterministic CLI output ---------------------------------------------


def test_09_cli_determinism():
    rng = Random(99)
    specs = []
    while len(specs) < 20:
        m = rng.choice([1, 2, 3])
        i = tuple(rng.randint(0, 3) for _ in range(m))
        if not 0 < sum(i) <= 5:
            continue
        specs.append((i, rng.choice([1, 2, 3])))
    for i, n in specs:
        outputs = set()
        for _ in range(3):
            buf = io.StringIO()
            code = cli.main(
                [
                    "compute",
                    "-i", ",".join(map(str, i)),
                    "-n", str(n),
                    "--format", "json",
                ],
                out=buf, err=io.StringIO(),
            )
            assert code == 0
            outputs.add(buf.getvalue())
        assert len(outputs) == 1, (i, n)
    report("CLI determinism", "20 random specs byte-identical across three runs")
