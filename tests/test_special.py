from dataclasses import FrozenInstanceError
from fractions import Fraction
from random import Random

import pytest

from umfb.errors import DimensionMismatch, MissingValue, SingularSigma
from umfb.fdbcore import MomentSequence
from umfb.special import (
    MomentTable,
    SymmetricMatrix,
    compound_poisson_moments,
    cumulants_to_moments,
    hermite,
    hermite_via_bell,
    laplace_derivative_sign,
    moments_to_cumulants,
    reciprocal_series_moment,
)

from helpers import (
    all_indices,
    bell_number,
    index_factorial,
    mgf_minus_one,
    random_moment_values,
    random_spd_matrix,
    s_exp,
    s_reciprocal1p,
    series_moment,
)


# -- moment table -----------------------------------------------------------


def test_moment_table_basics():
    t = MomentTable(n=2, values={(1, 0): 2, (0, 1): Fraction(1, 3)})
    assert t.value((0, 0)) == 1
    assert t.value((1, 0)) == 2
    assert t.max_order() == 1
    with pytest.raises(MissingValue):
        t.value((2, 0))
    with pytest.raises(DimensionMismatch):
        MomentTable(n=2, values={(1,): 1})


def test_moment_table_json_round_trip():
    t = MomentTable(
        n=2, values={(1, 0): Fraction(-2, 3), (0, 1): 4, (1, 1): Fraction(5)}
    )
    back = MomentTable.from_json(t.to_json())
    assert back.n == t.n and back.values == t.values
    assert '"5/1"' not in t.to_json()  # integers serialize without denominator


def test_moment_table_values_are_read_only():
    # the table routes memoise Bell rows on the table; its values cannot change
    values = {(1, 0): Fraction(-2, 3), (0, 1): 4, (1, 1): Fraction(5)}
    t = MomentTable(n=2, values=values)
    with pytest.raises(TypeError):
        t.values[(1, 0)] = 7
    with pytest.raises(FrozenInstanceError):
        t.values = {}
    values[(1, 0)] = 7  # the table keeps its own copy
    assert t.value((1, 0)) == Fraction(-2, 3)
    assert cumulants_to_moments(t, (1, 1)) == 5 + Fraction(-2, 3) * 4
    back = MomentTable.from_json(t.to_json())
    assert back == t and back.values == t.values and back.to_json() == t.to_json()
    assert t == MomentTable(n=2, values={(1, 0): Fraction(-2, 3), (0, 1): 4, (1, 1): 5})
    assert t != MomentTable(n=2, values={(1, 0): 1, (0, 1): 4, (1, 1): 5})


def test_gap_below_index_raises_on_every_table_route():
    # (1,1) is missing below (2,1).  Its one partition, (1,0) (1,1), has a zero
    # value at (1,0) and, for the Poisson route, a zero weight at length 2;
    # every table route still reads the whole box below the index.
    values = {(1, 0): Fraction(0), (0, 1): 1, (2, 0): 2, (2, 1): 3}
    alpha = MomentSequence.from_values([1, 0, 1])
    routes = (
        moments_to_cumulants,
        cumulants_to_moments,
        reciprocal_series_moment,
        lambda t, i: compound_poisson_moments(alpha, t, i),
    )
    for route in routes:
        with pytest.raises(MissingValue, match=r"\(1, 1\)"):
            route(MomentTable(n=2, values=values), (2, 1))


# -- cumulants --------------------------------------------------------------


def test_cumulant_textbook_identities():
    rng = Random(3)
    m = random_moment_values(rng, 2, 3)
    t = MomentTable(n=2, values=m)
    m10, m01 = m[(1, 0)], m[(0, 1)]
    m20, m11, m21 = m[(2, 0)], m[(1, 1)], m[(2, 1)]
    assert moments_to_cumulants(t, (1, 0)) == m10
    assert moments_to_cumulants(t, (1, 1)) == m11 - m10 * m01
    assert moments_to_cumulants(t, (2, 0)) == m20 - m10**2
    assert (
        moments_to_cumulants(t, (2, 1))
        == 2 * m01 * m10**2 - m01 * m20 - 2 * m10 * m11 + m21
    )


def test_cumulants_of_product_moments_vanish():
    # independent coordinates: every mixed cumulant is zero
    rng = Random(5)
    a = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(1, 5)}
    b = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(1, 5)}
    values = {
        (p, q): a.get(p, 1) * b.get(q, 1)
        for p, q in all_indices(2, 4)
    }
    t = MomentTable(n=2, values=values)
    for i in all_indices(2, 4):
        if i[0] and i[1]:
            assert moments_to_cumulants(t, i) == 0, i


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_moments_cumulants(seed):
    rng = Random(seed)
    n = rng.choice([1, 2, 3])
    mom = MomentTable(n=n, values=random_moment_values(rng, n, 4))
    cum = MomentTable(
        n=n, values={i: moments_to_cumulants(mom, i) for i in all_indices(n, 4)}
    )
    for i in all_indices(n, 4):
        assert cumulants_to_moments(cum, i) == mom.value(i), i


def test_log_exp_series_agree_with_conversions():
    # the cumulant generating function is log of the moment one, and back
    rng = Random(11)
    mom = MomentTable(n=2, values=random_moment_values(rng, 2, 3))
    from helpers import s_log1p

    logged = s_log1p(mgf_minus_one(mom.values, 3), 3)
    for i in all_indices(2, 3):
        assert series_moment(logged, i) == moments_to_cumulants(mom, i), i
    cum = {i: moments_to_cumulants(mom, i) for i in all_indices(2, 3)}
    expd = s_exp(mgf_minus_one(cum, 3), 3)
    for i in all_indices(2, 3):
        assert series_moment(expd, i) == mom.value(i), i


# -- compound Poisson -------------------------------------------------------


def test_compound_poisson_unit_rate_unit_moments():
    mu = MomentTable(n=2, values={k: Fraction(1) for k in all_indices(2, 3)})
    got = compound_poisson_moments(MomentSequence.unity(), mu, (1, 1))
    assert got == 2  # m11 + m10*m01 with every moment equal to 1
    # univariate all-unity summands give the Bell numbers
    mu1 = MomentTable(n=1, values={(k,): Fraction(1) for k in range(1, 7)})
    for d in range(1, 7):
        assert compound_poisson_moments(MomentSequence.unity(), mu1, (d,)) == bell_number(d)


def test_compound_poisson_matches_exponentiated_rate_series():
    # moments of the random sum are the composition of the rate series with
    # the summand moment series; check against direct series composition
    rng = Random(17)
    mu = MomentTable(n=2, values=random_moment_values(rng, 2, 3))
    alpha = MomentSequence.from_values(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    )
    from helpers import s_compose_scalar

    u = mgf_minus_one(mu.values, 3)
    composed = s_compose_scalar(
        [Fraction(1)]
        + [Fraction(alpha.at(r), index_factorial((r,))) for r in range(1, 4)],
        u,
        3,
    )
    for i in all_indices(2, 3):
        assert series_moment(composed, i) == compound_poisson_moments(alpha, mu, i), i


def test_compound_poisson_short_alpha_raises():
    # the order-1 values vanish, so B_{i,|i|} = 0, yet alpha at |i| is read
    mu = MomentTable(n=2, values={(1, 0): 0, (0, 1): 0, (2, 0): 1, (1, 1): 2, (0, 2): 3})
    short = MomentSequence.from_values([Fraction(1, 2)])
    with pytest.raises(MissingValue):
        compound_poisson_moments(short, mu, (1, 1))
    assert compound_poisson_moments(MomentSequence.unity(), mu, (1, 1)) == 2


# -- Laplace signs ----------------------------------------------------------


def test_laplace_derivative_sign():
    t = MomentTable(n=2, values={(1, 0): 3, (0, 1): -2, (1, 1): 5})
    assert laplace_derivative_sign(t, (1, 0)) == -3
    assert laplace_derivative_sign(t, (1, 1)) == 5
    assert laplace_derivative_sign(t, (0, 0)) == 1


def test_reciprocal_series_moment_matches_series_oracle():
    rng = Random(23)
    mom = MomentTable(n=2, values=random_moment_values(rng, 2, 3))
    recip = s_reciprocal1p(mgf_minus_one(mom.values, 3), 3)
    for i in all_indices(2, 3):
        assert series_moment(recip, i) == reciprocal_series_moment(mom, i), i


@pytest.mark.xfail(
    strict=True,
    reason="the reciprocal-series route equals the sign-flipped moment only "
    "up to total order 1; at higher orders the two quantities differ",
)
def test_reciprocal_route_reproduces_sign_rule():
    t = MomentTable(n=2, values={(1, 0): 2, (0, 1): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1})
    assert reciprocal_series_moment(t, (1, 1)) == laplace_derivative_sign(t, (1, 1))


def test_reciprocal_route_agrees_at_order_one():
    t = MomentTable(n=2, values={(1, 0): 2, (0, 1): -3})
    for i in [(1, 0), (0, 1)]:
        assert reciprocal_series_moment(t, i) == laplace_derivative_sign(t, i)


# -- symmetric matrices -----------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        SymmetricMatrix(((1, 2), (3, 1)))
    with pytest.raises(DimensionMismatch):
        SymmetricMatrix(((1, 2, 3), (2, 1, 0)))


def test_exact_inverse():
    m = SymmetricMatrix(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))))
    inv = m.inverse()
    assert inv.rows == (
        (Fraction(2, 3), Fraction(-1, 3)),
        (Fraction(-1, 3), Fraction(2, 3)),
    )
    assert inv.exact
    assert m.entry_at((1, 1)) == 1
    assert m.entry_at((2, 0)) == 2
    with pytest.raises(ValueError):
        m.entry_at((1, 0))


def test_singular_matrices_rejected():
    with pytest.raises(SingularSigma):
        SymmetricMatrix(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))).inverse()
    with pytest.raises(SingularSigma):
        SymmetricMatrix(((1.0, 1.0), (1.0, 1.0 + 1e-16))).inverse()


def test_symmetric_matrix_is_frozen_and_keeps_its_inverse():
    m = SymmetricMatrix(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))))
    with pytest.raises(FrozenInstanceError):
        m.rows = ((Fraction(1),),)
    assert m.inverse() is m.inverse()
    assert m == SymmetricMatrix(m.rows)
    singular = SymmetricMatrix(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    for _ in range(2):
        with pytest.raises(SingularSigma):
            singular.inverse()
        with pytest.raises(SingularSigma):
            hermite_via_bell((1, 1), singular, (Fraction(0), Fraction(0)))


def test_float_inverse():
    m = SymmetricMatrix(((4.0, 0.0), (0.0, 2.0)))
    inv = m.inverse()
    assert abs(inv.rows[0][0] - 0.25) < 1e-12
    assert abs(inv.rows[1][1] - 0.5) < 1e-12
    assert not inv.exact


def test_float_inverse_is_symmetric():
    # float elimination leaves this inverse off-symmetric in the last bits
    rows = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    sigma_f = SymmetricMatrix(tuple(tuple(float(e) for e in r) for r in rows))
    sigma_q = SymmetricMatrix(tuple(tuple(Fraction(e) for e in r) for r in rows))
    inv = sigma_f.inverse()
    assert not inv.exact
    for a, b in ((0, 0), (0, 1), (1, 1), (1, 2)):
        assert abs(inv.rows[a][b] - sigma_q.inverse().rows[a][b]) < 1e-12
    x_f, x_q = (0.5,) * 3, (Fraction(1, 2),) * 3
    for i in ((1, 0, 0), (2, 1, 1), (0, 2, 2)):
        exact = hermite(i, sigma_q, x_q)
        for approx in (hermite(i, sigma_f, x_f), hermite_via_bell(i, sigma_f, x_f)):
            assert isinstance(approx, float)
            assert abs(approx - exact) <= 1e-9 * max(1, abs(exact)), (i, exact, approx)
    zero = hermite((0, 0, 0), sigma_f, x_f)
    assert zero == 1.0 and isinstance(zero, float)


# -- Hermite polynomials ----------------------------------------------------

UNIT = SymmetricMatrix(((Fraction(1),),))

# probabilists' polynomials: value tables frozen from the Rodrigues recurrence
HERMITE_1D = [
    lambda x: 1,
    lambda x: x,
    lambda x: x**2 - 1,
    lambda x: x**3 - 3 * x,
    lambda x: x**4 - 6 * x**2 + 3,
    lambda x: x**5 - 10 * x**3 + 15 * x,
    lambda x: x**6 - 15 * x**4 + 45 * x**2 - 15,
]


def test_hermite_univariate_table():
    for d, ref in enumerate(HERMITE_1D):
        for x in [Fraction(0), Fraction(2), Fraction(-3, 2)]:
            assert hermite((d,), UNIT, (x,)) == ref(x), (d, x)
    assert hermite((3,), UNIT, (Fraction(2),)) == 2


def _dual_route_inputs():
    """Random SPD matrices and points, then inputs whose Bell support has
    holes: a diagonal and a block-diagonal Sigma (zero Lambda off the
    blocks) and points with zero components (a zero shift there)."""
    rng = Random(31)
    for _ in range(6):
        n = rng.choice([1, 2, 3])
        sigma = SymmetricMatrix(random_spd_matrix(rng, n))
        yield sigma, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    q = Fraction
    diagonal = SymmetricMatrix(((q(2), q(0), q(0)), (q(0), q(3), q(0)), (q(0), q(0), q(1, 2))))
    block = SymmetricMatrix(((q(2), q(1), q(0)), (q(1), q(2), q(0)), (q(0), q(0), q(5))))
    yield diagonal, (q(1), q(-1, 2), q(2))
    yield block, (q(1, 3), q(1), q(-1))
    yield diagonal, (q(0), q(1), q(0))
    yield block, (q(0), q(0), q(0))
    yield SymmetricMatrix(random_spd_matrix(rng, 3)), (q(0), q(2, 3), q(0))


def test_hermite_dual_route_agreement():
    for sigma, x in _dual_route_inputs():
        n = sigma.dimension
        sigma_f = SymmetricMatrix(tuple(tuple(float(e) for e in r) for r in sigma.rows))
        x_f = tuple(float(e) for e in x)
        for i in all_indices(n, 4, include_zero=True):
            direct, bell = hermite(i, sigma, x), hermite_via_bell(i, sigma, x)
            assert direct == bell and type(direct) is type(bell) is Fraction, (sigma, x, i)
            if not any(x) and sum(i) % 2:
                assert bell == 0, (sigma, i)
            for approx in (hermite(i, sigma_f, x_f), hermite_via_bell(i, sigma_f, x_f)):
                assert type(approx) is float, (sigma, x, i)
                assert abs(approx - direct) <= 1e-9 * max(1, abs(direct)), (sigma, x, i)


def _hermite_series(sigma: SymmetricMatrix, x, cap, scaled):
    """exp(shift . t - t Q t / 2) truncated; its moments are the polynomials."""
    n = sigma.dimension
    if scaled == "H":
        quad = sigma.inverse()
        shift = tuple(
            sum(x[a] * quad.rows[a][b] for a in range(n)) for b in range(n)
        )
    else:
        quad = sigma
        shift = tuple(x)
    u = {}
    for a in range(n):
        k = tuple(1 if b == a else 0 for b in range(n))
        u[k] = u.get(k, Fraction(0)) + Fraction(shift[a])
    for a in range(n):
        for b in range(n):
            k = tuple((a == c) + (b == c) for c in range(n))
            u[k] = u.get(k, Fraction(0)) - Fraction(quad.rows[a][b], 2)
    return s_exp({k: v for k, v in u.items() if v}, cap)


def test_hermite_matches_generating_series():
    rng = Random(37)
    for scaled in ("H", "H-tilde"):
        for n in (1, 2):
            sigma = SymmetricMatrix(random_spd_matrix(rng, n))
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            exp_series = _hermite_series(sigma, x, 4, scaled)
            for i in all_indices(n, 4, include_zero=True):
                assert series_moment(exp_series, i) == hermite(i, sigma, x, scaled=scaled), (
                    scaled,
                    n,
                    i,
                )


def test_hermite_float_close_to_exact():
    rng = Random(41)
    sigma_q = random_spd_matrix(rng, 2)
    sigma_f = SymmetricMatrix(tuple(tuple(float(e) for e in r) for r in sigma_q))
    sigma = SymmetricMatrix(sigma_q)
    x_q = (Fraction(1, 2), Fraction(-3, 2))
    x_f = tuple(float(v) for v in x_q)
    for i in all_indices(2, 4):
        exact = hermite(i, sigma, x_q)
        approx = hermite(i, sigma_f, x_f)
        tol = 1e-9 * max(1, abs(exact))
        assert abs(approx - exact) <= tol, (i, exact, approx)


def test_hermite_order_zero_inverts_sigma_first():
    singular = SymmetricMatrix(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    origin = (Fraction(0), Fraction(0))
    with pytest.raises(SingularSigma):
        hermite((0, 0), singular, origin)
    # the orthogonal variant never inverts Sigma
    assert hermite((0, 0), singular, origin, scaled="H-tilde") == 1


def test_hermite_memo_keeps_float_and_exact_apart():
    # Fractions and floats of equal value compare and hash equal
    sigma_f = SymmetricMatrix(((1.0,),))
    for _ in range(2):
        for scaled in ("H", "H-tilde"):
            approx = hermite((3,), sigma_f, (0.5,), scaled=scaled)
            assert type(approx) is float and approx == -1.375
            exact = hermite((3,), UNIT, (Fraction(1, 2),), scaled=scaled)
            assert type(exact) is Fraction and exact == Fraction(-11, 8)
            mixed = hermite((3,), UNIT, (0.5,), scaled=scaled)
            assert type(mixed) is float and mixed == -1.375


def test_hermite_exact_zero_is_a_fraction():
    for route in (hermite, hermite_via_bell):
        got = route((1,), UNIT, (0,))
        assert got == 0 and type(got) is Fraction, route
        got = route((1,), SymmetricMatrix(((1.0,),)), (0.0,))
        assert got == 0 and type(got) is float, route
        # order 0 follows the same rule: a float point makes the value a float
        got = route((0,), UNIT, (Fraction(1, 2),))
        assert got == 1 and type(got) is Fraction, route
        got = route((0,), UNIT, (0.5,))
        assert got == 1 and type(got) is float, route


def test_hermite_dimension_check():
    with pytest.raises(DimensionMismatch):
        hermite((1, 0), UNIT, (Fraction(1),))
    sigma = SymmetricMatrix(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))))
    for x in ((Fraction(1),), (Fraction(1), Fraction(0), Fraction(5))):
        for scaled in ("H", "H-tilde"):
            with pytest.raises(DimensionMismatch):
                hermite((1, 1), sigma, x, scaled=scaled)
        with pytest.raises(DimensionMismatch):
            hermite_via_bell((1, 1), sigma, x)
    with pytest.raises(ValueError):
        hermite((1,), UNIT, (Fraction(1),), scaled="bogus")
