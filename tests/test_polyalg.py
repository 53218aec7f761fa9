import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffint import (ExactScalar, VectorPoly, apply_diffop, delta_pair,
                      fischer_commute, fischer_pair, gamma_half,
                      pochhammer_half, sphere_pizzetti, stiefel_volume)
from cliffint.polyalg import parse_poly

from oracles import (bench_oracles, cayley_rotation, diffop_terms, directional_terms,
                     laplacian_terms, power_terms, product_terms, reflect_terms)


def x(j, i, m=3, nvars=2):
    return VectorPoly.variable(m, j, i, nvars)


# -- hypothesis strategies ---------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, m=2, nvars=1, max_deg=3, max_terms=4):
    terms = {}
    nslots = m * nvars
    for _ in range(draw(st.integers(1, max_terms))):
        key = tuple(draw(st.integers(0, max_deg)) for _ in range(nslots))
        if sum(key) > max_deg + 1:
            continue
        c = draw(coeffs)
        if c:
            terms[key] = terms.get(key, Fraction(0)) + c
    return VectorPoly(m, nvars, {k: v for k, v in terms.items() if v})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_derivation_rule(p, q):
    d = lambda f: f.diff(1, 1)
    assert d(p * q) == d(p) * q + p * d(q)


@given(polys(m=2, nvars=2))
@settings(max_examples=40, deadline=None)
def test_partials_commute(p):
    assert p.diff(1, 1).diff(2, 2) == p.diff(2, 2).diff(1, 1)


# denominators up to the Mersenne prime 2^61 - 1, so that the common
# denominators of the product kernel are both small and multi-word
DENOMINATORS = (1, 2, 3, 7, 2**61 - 1)
rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


@st.composite
def product_pairs(draw):
    m, nvars = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    keys = st.tuples(*[st.integers(0, 3)] * (m * nvars))

    def poly():
        return VectorPoly(m, nvars, draw(st.dictionaries(keys, rationals, max_size=5)))

    a, b = poly(), poly()
    shape = draw(st.sampled_from(("free", "cancel", "zero")))
    if shape == "cancel":  # (a + b)(a - b): the cross terms cancel
        return a + b, a - b
    if shape == "zero":
        return a, VectorPoly.zero(m, nvars)
    return a, b


@given(product_pairs(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_product_matches_fraction_oracle(pair, n):
    p, q = pair
    for a, b in ((p, q), (q, p)):
        prod = a * b
        assert prod.terms == bench_oracles.poly_mul(a.terms, b.terms)
        assert all(type(c) is Fraction and c for c in prod.terms.values())
    power = VectorPoly.constant(p.m, 1, p.nvars)
    for _ in range(n):
        power = power * p
    assert p ** n == power


@st.composite
def text_polys(draw):
    """A polynomial with m <= 4, nvars <= 3 and at most six terms, zero included."""
    m, nvars = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, 3)] * (m * nvars))
    return VectorPoly(m, nvars, draw(st.dictionaries(keys, rationals, max_size=6)))


@given(text_polys())
@example(VectorPoly.zero(2, 3))
@settings(max_examples=300, deadline=None)
def test_parse_poly_reads_back_the_repr(p):
    # the CLI prints a parsed polynomial as its repr: the reader and the
    # writer of the text format agree
    assert parse_poly(repr(p), p.m, p.nvars) == p


@st.composite
def factor_lists(draw):
    """1 to 5 polynomials of one shape (nvars 1 or 2), each zero, one term or
    several; a factor may repeat an earlier one with its signs flipped in
    part, so that products cancel."""
    m, nvars = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    keys = st.tuples(*[st.integers(0, 2)] * (m * nvars))
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.sampled_from((0, 1, 2, 4)))
        terms = draw(st.dictionaries(keys, rationals.filter(bool), min_size=min(size, 1),
                                     max_size=size))
        if factors and draw(st.booleans()):
            terms = {k: c if draw(st.booleans()) else -c for k, c in factors[-1].terms.items()}
        factors.append(VectorPoly(m, nvars, terms))
    return factors


def items(p):
    return list(p.terms.items())


@given(factor_lists())
@settings(max_examples=200, deadline=None)
def test_product_is_the_left_fold_of_mul(factors):
    # term order is part of the value: the float kernels sum terms in dict order
    got = VectorPoly.product(factors)
    folded, reference = factors[0], factors[0].terms
    for factor in factors[1:]:
        folded = folded * factor
        reference = product_terms(reference, factor.terms)
    assert items(got) == items(folded) == list(reference.items())
    assert all(type(c) is Fraction and c for c in got.terms.values())


@given(factor_lists(), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
# (x^2 + 2x - 2)^2 has no x^2 term, so p * p^2, the order of repeated
# squaring, puts the terms of p^3 in another order than (p * p) * p
@example([VectorPoly(1, 1, {(0,): -2, (1,): 2, (2,): 1})], 3)
def test_power_is_repeated_mul(factors, n):
    p = factors[-1]
    repeated = VectorPoly.constant(p.m, 1, p.nvars)
    for _ in range(n):
        repeated = repeated * p
    got = p ** n
    assert items(got) == items(repeated) == list(power_terms(p.terms, n, p.m * p.nvars).items())


def test_product_refuses_mixed_shapes_and_other_types():
    with pytest.raises(ValueError, match="shape"):
        VectorPoly.product([x(1, 1), VectorPoly.variable(3, 1, 1)])
    with pytest.raises(TypeError):
        VectorPoly.product([x(1, 1), 1.5])
    # a number is a constant factor
    assert VectorPoly.product([x(1, 1), 3, Fraction(1, 2)]) == Fraction(3, 2) * x(1, 1)


@pytest.mark.parametrize("call", [
    lambda: VectorPoly.variable(3, 0, 1), lambda: VectorPoly.variable(3, 2, 1),
    lambda: VectorPoly.variable(3, 1, 0), lambda: VectorPoly.variable(3, 1, 4),
    lambda: VectorPoly.variable(0, 1, 1), lambda: VectorPoly.variable(2, 1, 1, nvars=0),
    lambda: VectorPoly.constant(0, 1), lambda: VectorPoly.constant(0, 0),
    lambda: VectorPoly.constant(2, 1, nvars=0),
], ids=["j0", "j_past_nvars", "i0", "i_past_m", "m0", "nvars0",
        "constant_m0", "zero_m0", "constant_nvars0"])
def test_trusted_constructors_still_check_their_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_init_stores_exact_fractions():
    # a float coefficient is its exact binary value, as in monomial()
    p = VectorPoly(3, 1, {(2, 0, 0): 0.1})
    assert type(p.terms[(2, 0, 0)]) is Fraction
    assert p.terms == VectorPoly.monomial(3, (2, 0, 0), 0.1).terms
    assert sphere_pizzetti(p) == ExactScalar(Fraction(0.1) * Fraction(4, 3), 2)


def test_monomial_calculus():
    p = x(1, 1) ** 2 * x(2, 2) + 3
    assert p.diff(1, 1) == 2 * x(1, 1) * x(2, 2)
    assert p.diff(2, 2) == x(1, 1) ** 2
    assert p.diff(2, 1).is_zero()
    assert p.degree() == 3
    assert p.degree_in(1) == 2
    assert p.eval_zero() == 3


def test_laplacian_of_norm_squared():
    m = 5
    r2 = VectorPoly.norm_squared_var(m, 1)
    assert r2.laplacian(1) == VectorPoly.constant(m, 2 * m)
    # Delta ||x||^4 = (4m + 8) ||x||^2
    assert (r2 * r2).laplacian(1) == (4 * m + 8) * r2


@st.composite
def kernel_inputs(draw):
    """(m, j, l, p): p in two m-vectors; half the time built so the kernel's terms cancel."""
    m = draw(st.integers(2, 3))
    j = draw(st.integers(1, 2))
    l = draw(st.integers(1, 2))
    p = draw(polys(m=m, nvars=2, max_deg=3, max_terms=5))
    if draw(st.booleans()):
        # x_{j,1}^2 - x_{j,2}^2 is harmonic and <x_l, d/dx_j> annihilates
        # x_{j,1} x_{l,2} - x_{j,2} x_{l,1}: times p, their contributions cancel
        l = 3 - j
        p = p * (x(j, 1, m) ** 2 - x(j, 2, m) ** 2
                 + x(j, 1, m) * x(l, 2, m) - x(j, 2, m) * x(l, 1, m))
    return m, j, l, p


@given(kernel_inputs())
@settings(max_examples=80, deadline=None)
def test_laplacian_matches_repeated_single_derivatives(inputs):
    m, j, _, p = inputs
    lap = p.laplacian(j)
    assert lap.terms == laplacian_terms(p.terms, m, j)
    assert all(lap.terms.values())


@given(kernel_inputs())
@settings(max_examples=80, deadline=None)
def test_directional_matches_oracle(inputs):
    m, j, l, p = inputs
    d = p.directional(j, [x(l, i, m) for i in range(1, m + 1)])
    assert d.terms == directional_terms(p.terms, m, j, l)
    assert all(d.terms.values())


def test_sum_cancels_in_place_and_keeps_key_order():
    # poly_on_points sums terms in dict order: + keeps the left operand's
    # order, drops a cancelled key where it stood and appends new keys
    a = x(1, 1) + x(1, 2) + x(1, 3)
    b = x(2, 1) - x(1, 2) + x(1, 1)
    assert list((a + b).terms) == [*x(1, 1).terms, *x(1, 3).terms, *x(2, 1).terms]
    assert (a - a).terms == {}


def test_directional_with_constant_weights():
    p = x(1, 1) ** 2 + x(1, 2)
    d = p.directional(1, [Fraction(1), Fraction(2), Fraction(0)])
    assert d == 2 * x(1, 1) + 2


def test_directional_with_polynomial_weights():
    # <y, d/dx> ||x||^2 = 2 <x, y>
    m = 3
    r2 = VectorPoly.norm_squared_var(m, 1, nvars=2)
    w = [VectorPoly.variable(m, 2, i, 2) for i in range(1, m + 1)]
    assert r2.directional(1, w) == 2 * VectorPoly.dot_vars(m, 2, 1, 2)


def test_subs_vector_zero():
    p = x(1, 1) * x(2, 1) + x(2, 2) ** 2 + 5
    assert p.subs_vector_zero(1) == x(2, 2) ** 2 + 5
    assert p.subs_vector_zero(2) == VectorPoly.constant(3, 5, 2)


def test_eval_matches_fraction_arithmetic():
    p = x(1, 1) ** 2 - 2 * x(2, 2)
    val = p.eval([Fraction(1, 2), 0, 0, 0, Fraction(3), 0])
    assert val == Fraction(1, 4) - 6


def test_compose_linear_rotation():
    # linear substitution x -> (x1 + x2, x1 - x2) on every vector block
    p = VectorPoly.norm_squared_var(2, 1)
    q = p.compose_linear([[1, 1], [1, -1]])
    assert q == 2 * VectorPoly.norm_squared_var(2, 1)


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_compose_linear_is_evaluation_at_rotated_points(m, nvars):
    # p(Q x_1, ..., Q x_nvars) read off exactly at rational points, with a
    # rational rotation Q
    rng = random.Random(100 * m + nvars)
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            skew[i][j] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            skew[j][i] = -skew[i][j]
    q = cayley_rotation(skew)
    width = m * nvars
    # the first and last coordinates at every split of degree 3, so that
    # terms share a coordinate at different powers
    terms = {tuple(e if t == 0 else 3 - e if t == width - 1 else 0 for t in range(width)):
             Fraction(e + 1, 2) for e in range(4)}
    for _ in range(6):
        key = [0] * width
        for _ in range(rng.randint(0, 4)):
            key[rng.randrange(width)] += 1
        terms[tuple(key)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    p = VectorPoly(m, nvars, terms)
    rotated = p.compose_linear(q)
    for _ in range(3):
        pt = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(width)]
        moved = [sum(q[i][l] * pt[j * m + l] for l in range(m))
                 for j in range(nvars) for i in range(m)]
        assert rotated.eval(pt) == p.eval(moved)


def test_reflect_flips_odd_part():
    p = x(1, 1) ** 2 + x(1, 2)
    assert p.reflect() == x(1, 1) ** 2 - x(1, 2)


def test_apply_diffop_basic():
    # (d/dx1)^2 acting on x1^3 gives 6 x1
    m = 2
    sym = VectorPoly.monomial(m, (2, 0))
    target = VectorPoly.monomial(m, (3, 0))
    assert apply_diffop(sym, target) == 6 * VectorPoly.monomial(m, (1, 0))


def test_apply_diffop_laplacian_symbol():
    m = 3
    sym = sum(VectorPoly.variable(m, 1, i) ** 2 for i in range(1, m + 1))
    p = VectorPoly.norm_squared_var(m, 1) ** 2
    assert apply_diffop(sym, p) == p.laplacian(1)


@given(polys(m=2, max_deg=2), polys(m=2, max_deg=2), polys(m=2, max_deg=3))
@settings(max_examples=40, deadline=None)
def test_fischer_commutation_weak_form(r, q, p):
    # pairing against the delta functional: moving a polynomial factor
    # across the pairing turns it into its reflected differential operator
    lhs = delta_pair(r, q * p)
    rhs = delta_pair(fischer_commute(r, q), p)
    assert lhs == rhs


def test_delta_pair_orthogonality_of_monomials():
    m = 2
    a = VectorPoly.monomial(m, (2, 1))
    # (-1)^degree * 2! * 1!
    assert delta_pair(a, a) == -2
    assert delta_pair(VectorPoly.monomial(m, (2, 2)),
                      VectorPoly.monomial(m, (2, 2))) == 4
    b = VectorPoly.monomial(m, (1, 2))
    assert delta_pair(a, b) == 0


# -- kernels against the dict-only references ----------------------------------

@given(polys(m=2, nvars=2, max_deg=3, max_terms=6), polys(m=2, nvars=2, max_deg=4, max_terms=6))
@settings(max_examples=80, deadline=None)
def test_apply_diffop_matches_repeated_single_derivatives(sym, p):
    assert apply_diffop(sym, p).terms == diffop_terms(sym.terms, p.terms)


@given(polys(m=2, nvars=2, max_deg=3, max_terms=6), polys(m=2, nvars=2, max_deg=3, max_terms=6))
@settings(max_examples=80, deadline=None)
def test_fischer_pair_is_derivative_at_origin(a, b):
    zero = (0,) * 4
    for s, t in ((a, b), (a, a + b), (b, b)):
        expected = diffop_terms(s.terms, t.terms).get(zero, 0)
        assert fischer_pair(s, t) == expected
        assert fischer_pair(t, s) == fischer_pair(s, t)
    assert isinstance(fischer_pair(a, b), Fraction)


@given(polys(m=2, nvars=2, max_deg=3, max_terms=6), polys(m=2, nvars=2, max_deg=3, max_terms=6))
@settings(max_examples=80, deadline=None)
def test_delta_pair_matches_reflected_derivative(r, t):
    zero = (0,) * 4
    for test in (t, r + t):
        expected = diffop_terms(reflect_terms(r.terms), test.terms).get(zero, 0)
        assert delta_pair(r, test) == expected


def test_fischer_pair_values_and_shapes():
    m = 2
    a = VectorPoly.monomial(m, (3, 2), Fraction(1, 2))
    b = VectorPoly.monomial(m, (3, 2), 3) + VectorPoly.monomial(m, (1, 0))
    # 1/2 * 3 * 3! * 2!
    assert fischer_pair(a, b) == 18
    assert fischer_pair(a, VectorPoly.zero(m)) == 0
    with pytest.raises(ValueError):
        fischer_pair(a, VectorPoly.monomial(3, (3, 2, 0)))
    with pytest.raises(ValueError):
        apply_diffop(a, VectorPoly.monomial(m, (3, 2, 0, 0), nvars=2))


# -- exact scalars -----------------------------------------------------------

def test_exact_scalar_arithmetic():
    two_pi = ExactScalar(Fraction(2), 2)
    assert two_pi + two_pi == ExactScalar(Fraction(4), 2)
    assert two_pi * two_pi == ExactScalar(Fraction(4), 4)
    assert two_pi / two_pi == ExactScalar(Fraction(1), 0)
    assert (-two_pi).q == -2
    assert two_pi.to_float() == pytest.approx(2 * math.pi)


# q below the float range, or pi^(h/2) past 2^1024 (10^1559 at 112-111),
# with a value in range
@pytest.mark.parametrize("value", [
    ExactScalar(Fraction(5, 7 * 10**500), 1399), ExactScalar(Fraction(1, 2**1100), 1300),
    stiefel_volume(46, 45), stiefel_volume(60, 59), stiefel_volume(112, 111) * 10**2000],
    ids=["q-underflows", "pi-overflows", "frames-46-45", "frames-60-59", "frames-112-111"])
def test_exact_scalar_to_float_where_a_factor_leaves_the_range(value):
    q = value.q
    exact = math.log10(q.numerator) - math.log10(q.denominator) + value.h / 2 * math.log10(math.pi)
    assert math.log10(value.to_float()) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_scalar_to_float_overflows_with_its_value(sign):
    # a product of two floats in range may overflow: not to an infinity,
    # which JSON cannot carry
    value = ExactScalar(Fraction(sign * 10**307), 6)
    with pytest.raises(OverflowError):
        value.to_float()


def test_exact_scalar_zero_normalizes():
    assert ExactScalar(Fraction(0), 4) == ExactScalar(Fraction(0), 0)
    assert ExactScalar(Fraction(0), 4).is_zero()


def test_exact_scalar_mismatched_pi_powers():
    with pytest.raises(ValueError):
        ExactScalar(Fraction(1), 2) + ExactScalar(Fraction(1), 1)
    with pytest.raises(ValueError):
        ExactScalar(Fraction(1), 0) / ExactScalar(Fraction(1), 2)


def test_exact_scalar_rendering():
    assert str(ExactScalar(Fraction(3, 4), 0)) == "3/4"
    assert str(ExactScalar(Fraction(2), 2)) == "2 * pi"
    assert str(ExactScalar(Fraction(2), 4)) == "2 * pi^2"
    assert str(ExactScalar(Fraction(1, 2), 3)) == "1/2 * pi^(3/2)"


@pytest.mark.parametrize("two_a", range(1, 20))
def test_gamma_half_matches_float_gamma(two_a):
    assert gamma_half(two_a).to_float() == pytest.approx(
        math.gamma(two_a / 2), rel=1e-12)


def test_pochhammer_half():
    # (5/2)_3 = 5/2 * 7/2 * 9/2
    assert pochhammer_half(5, 3) == Fraction(5 * 7 * 9, 8)
    assert pochhammer_half(5, 0) == 1


def test_repr_round_readable():
    p = 2 * x(1, 1) ** 2 - x(2, 2)
    s = repr(p)
    assert "x1_1" in s and "x2_2" in s
