import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffint import (DiffOp, ExactScalar, VectorPoly, apply_diffop,
                      delta_pair, fischer_commute, fischer_pair, gamma_half,
                      pochhammer_half)

from oracles import diffop_terms, reflect_terms


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


def test_reflect_flips_odd_part():
    p = x(1, 1) ** 2 + x(1, 2)
    assert p.reflect() == x(1, 1) ** 2 - x(1, 2)


def test_apply_diffop_basic():
    # (d/dx1)^2 acting on x1^3 gives 6 x1
    m = 2
    sym = VectorPoly.monomial(m, (2, 0))
    target = VectorPoly.monomial(m, (3, 0))
    assert apply_diffop(sym, target) == 6 * VectorPoly.monomial(m, (1, 0))
    op = DiffOp(sym)
    assert op.apply(target) == apply_diffop(sym, target)


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
