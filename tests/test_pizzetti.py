import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffint import (ExactScalar, VectorPoly, directional_power_closed_form,
                      gauss_sum_check, phi_coefficient, sphere_pizzetti,
                      sphere_pizzetti_detailed, stiefel2_explicit,
                      stiefel_pizzetti_composed, stiefel_volume,
                      surface_area)

from cliffint.pizzetti import _tangential_operator
from oracles import bench_oracles, cayley_rotation, tangential_terms


def mono1(m, *expo):
    return VectorPoly.monomial(m, expo)


def test_surface_area_values():
    assert surface_area(2) == ExactScalar(Fraction(2), 2)
    assert surface_area(3) == ExactScalar(Fraction(4), 2)
    assert surface_area(4) == ExactScalar(Fraction(2), 4)
    assert surface_area(1).to_float() == pytest.approx(2.0)


def test_phi_coefficient_leading_term():
    # s = 0 coefficient is the surface area itself
    for m in (2, 3, 5):
        assert phi_coefficient(0, m) == surface_area(m)
    with pytest.raises(ValueError):
        phi_coefficient(-1, 3)


def test_phi_coefficient_matches_gamma_formula():
    # c_{s,nu} = 2 pi^(nu/2) / (4^s s! Gamma(s + nu/2)), from the oracle's Gamma values
    for s in range(21):
        for nu in range(1, 13):
            gq, gh = bench_oracles._gamma_half(2 * s + nu)
            expected = ExactScalar(Fraction(2) / (4**s * math.factorial(s) * gq), nu - gh)
            assert phi_coefficient(s, nu) == expected, (s, nu)


def test_sphere_constant_and_squares():
    assert sphere_pizzetti(VectorPoly.constant(3, 1)) == ExactScalar(Fraction(4), 2)
    assert sphere_pizzetti(mono1(3, 2, 0, 0)) == ExactScalar(Fraction(4, 3), 2)
    assert sphere_pizzetti(mono1(3, 1, 0, 0)) == ExactScalar(Fraction(0), 0)
    assert sphere_pizzetti(mono1(2, 2, 0)) == ExactScalar(Fraction(1), 2)


def test_sphere_matches_oracle_sample():
    for m, expo in [(2, (4, 2)), (3, (2, 2, 2)), (4, (6, 0, 0, 0)),
                    (5, (2, 0, 2, 0, 0)), (6, (0, 2, 0, 2, 0, 2))]:
        q, h = bench_oracles.sphere_monomial(expo)
        assert sphere_pizzetti(mono1(m, *expo)) == ExactScalar(q, h)


def test_sphere_norm_power_reduces_to_area():
    # ||x||^2 restricted to the sphere is 1
    m = 4
    r2 = VectorPoly.norm_squared_var(m, 1)
    assert sphere_pizzetti(r2) == surface_area(m)
    assert sphere_pizzetti(r2 * r2) == surface_area(m)


def test_truncation_bookkeeping():
    res = sphere_pizzetti_detailed(mono1(3, 4, 0, 0))
    # series truncates once the operator power exceeds half the degree
    assert res.truncation_degree == 4
    assert res.terms_used == 3


def test_truncation_bookkeeping_when_powers_vanish_early():
    # a harmonic input: the first Laplacian is already zero
    harmonic = sphere_pizzetti_detailed(mono1(3, 2, 0, 0) - mono1(3, 0, 2, 0))
    assert harmonic.value == ExactScalar(Fraction(0), 0)
    assert (harmonic.terms_used, harmonic.truncation_degree) == (1, 2)
    # an odd input, harmonic too: one term, and the series stops at degree 2
    odd = sphere_pizzetti_detailed(mono1(3, 1, 1, 1))
    assert odd.value == ExactScalar(Fraction(0), 0)
    assert (odd.terms_used, odd.truncation_degree) == (1, 2)


def test_sphere_input_validation():
    with pytest.raises(ValueError):
        sphere_pizzetti(VectorPoly.constant(1, 1))
    with pytest.raises(ValueError):
        sphere_pizzetti(VectorPoly.constant(3, 1, nvars=2))


def test_stiefel_volume_and_constant():
    assert stiefel_volume(3, 2) == ExactScalar(Fraction(8), 4)
    one = VectorPoly.constant(3, 1, nvars=2)
    assert stiefel_pizzetti_composed(one, 3, 2) == ExactScalar(Fraction(8), 4)


def test_stiefel_single_vector_reduces_to_sphere():
    m = 4
    p2 = VectorPoly.monomial(m, (2,) + (0,) * (m - 1))
    assert stiefel_pizzetti_composed(p2, m, 1) == sphere_pizzetti(
        VectorPoly.monomial(m, (2,) + (0,) * (m - 1)))


def test_stiefel_orthogonality_constraint():
    # frame vectors are orthonormal, so <x1,x2> vanishes on the manifold
    # and the series must reproduce that exactly, square included
    m = 4
    d = VectorPoly.dot_vars(m, 2, 1, 2)
    assert stiefel_pizzetti_composed(d, m, 2) == ExactScalar(Fraction(0), 0)
    assert stiefel_pizzetti_composed(d * d, m, 2) == ExactScalar(Fraction(0), 0)


def test_stiefel_norm_constraint():
    for m in (3, 4):
        r2 = VectorPoly.norm_squared_var(m, 1, nvars=2)
        assert stiefel_pizzetti_composed(r2, m, 2) == stiefel_volume(m, 2)


def test_composed_vs_explicit_on_sample():
    for m in (3, 4, 5):
        for key in [(2, 0), (0, 2), (1, 1), (2, 2), (4, 0)]:
            expo = [0] * (2 * m)
            expo[0], expo[m] = key          # x1_1 and x2_1 powers
            p = VectorPoly(m, 2, {tuple(expo): Fraction(1)})
            assert stiefel_pizzetti_composed(p, m, 2) == stiefel2_explicit(p, m)


@pytest.mark.parametrize("m,k", [(4, 2), (4, 3), (5, 3), (6, 3)])
def test_composed_matches_frame_oracle(m, k):
    # every vector variable is mixed into both factors, so the stage j = 2
    # hands the last stage a polynomial with several x_1 terms; the oracle
    # averages over frames built one vector at a time, a different algorithm
    x = lambda j, i: VectorPoly.variable(m, j, i, nvars=k)
    a = x(1, 1) * Fraction(1, 2) - x(2, 3) * Fraction(2, 3) + x(1, 2) + x(k, 2)
    b = x(2, 1) + x(1, 3) * Fraction(1, 5) - x(k, m)
    p = a ** 2 * b ** 2
    expected = ExactScalar(*bench_oracles.FrameOracle(m).integral(p.terms, k))
    assert expected != ExactScalar(0)
    assert stiefel_pizzetti_composed(p, m, k) == expected


@st.composite
def even_frame_integrands(draw):
    """q^2 + c x^e on k-frames in R^m, q of degree <= 2 and e of even degree."""
    m = draw(st.integers(3, 6))
    k = draw(st.integers(2, min(3, m - 1)))
    width = m * k
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def monomial(degree):
        key = [0] * width
        for _ in range(degree):
            key[draw(st.integers(0, width - 1))] += 1
        return VectorPoly(m, k, {tuple(key): draw(coeff)})

    q = VectorPoly.zero(m, k)
    for _ in range(draw(st.integers(1, 3))):
        q = q + monomial(draw(st.integers(1, 2)))
    return m, k, q * q + monomial(draw(st.sampled_from([0, 2, 4])))


@given(even_frame_integrands())
@settings(max_examples=60, deadline=None)
def test_composed_matches_frame_oracle_on_random_even_integrands(case):
    m, k, p = case
    expected = ExactScalar(*bench_oracles.FrameOracle(m).integral(p.terms, k))
    assert stiefel_pizzetti_composed(p, m, k) == expected


# (a, b, c) with a^2 + b^2 = c^2: the rotations by (a/c, b/c) are rational
_PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


@st.composite
def frame_mixings(draw):
    """(m, k, p, R): an even integrand as in ``even_frame_integrands``, at
    m = 3..5, and a rational orthogonal k x k matrix R, a product of
    Pythagorean-triple rotations in a plane of two columns, swaps of two
    columns and sign flips of one."""
    m = draw(st.integers(3, 5))
    k = draw(st.integers(2, min(3, m - 1)))
    width = m * k
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def monomial(degree):
        key = [0] * width
        for _ in range(degree):
            key[draw(st.integers(0, width - 1))] += 1
        return VectorPoly(m, k, {tuple(key): draw(coeff)})

    q = VectorPoly.zero(m, k)
    for _ in range(draw(st.integers(1, 3))):
        q = q + monomial(draw(st.integers(1, 2)))
    p = q * q + monomial(draw(st.sampled_from([0, 2, 4])))
    r = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        step = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        kind = draw(st.sampled_from(["rotation", "swap", "flip"]))
        if kind == "rotation":
            x, y, z = draw(st.sampled_from(_PYTHAGOREAN))
            c, s = Fraction(x, z), Fraction(y, z) * draw(st.sampled_from([1, -1]))
            step[a][a], step[a][b], step[b][a], step[b][b] = c, -s, s, c
        elif kind == "swap":
            step[a][a], step[a][b], step[b][a], step[b][b] = 0, 1, 1, 0
        else:
            step[a][a] = Fraction(-1)
        r = [[sum(r[i][t] * step[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    return m, k, p, r


def _mix_frames(p: VectorPoly, r) -> VectorPoly:
    """P((x_1, ..., x_k) R), term by term: x_{j,i} -> sum_l x_{l,i} R[l][j]."""
    m, k = p.m, p.nvars
    image = {}
    for j in range(k):
        for i in range(m):
            image[j * m + i] = sum((VectorPoly.variable(m, l + 1, i + 1, k) * r[l][j]
                                    for l in range(k) if r[l][j]), VectorPoly.zero(m, k))
    out = VectorPoly.zero(m, k)
    for key, c in p.terms.items():
        term = VectorPoly.constant(m, c, k)
        for idx, e in enumerate(key):
            if e:
                term = term * image[idx] ** e
        out = out + term
    return out


@given(frame_mixings())
@settings(max_examples=40, deadline=None)
def test_frame_integrals_are_invariant_under_column_mixing(case):
    # Haar measure on k-frames is invariant under X -> X R for R in O(k)
    m, k, p, r = case
    k_eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    assert [[sum(r[t][i] * r[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)] == k_eye
    mixed = _mix_frames(p, r)
    value = stiefel_pizzetti_composed(p, m, k)
    assert stiefel_pizzetti_composed(mixed, m, k) == value
    if k == 2:
        assert stiefel2_explicit(p, m) == value
        assert stiefel2_explicit(mixed, m) == value


def test_stiefel_domain_validation():
    one2 = VectorPoly.constant(3, 1, nvars=2)
    with pytest.raises(ValueError):
        stiefel_pizzetti_composed(one2, 3, 3)   # k = m not in the composed range
    with pytest.raises(ValueError):
        stiefel_pizzetti_composed(one2, 3, 1)   # nvars mismatch
    with pytest.raises(ValueError):
        stiefel2_explicit(VectorPoly.constant(3, 1), 3)


def test_directional_power_small_cases():
    m = 3
    # j=1, k=0: <d_x,y>^2 ||x||^2 = 2 ||y||^2
    y2 = VectorPoly.norm_squared_var(m, 2, nvars=2)
    assert directional_power_closed_form(1, 0, m) == 2 * y2
    # j=0 leaves the power untouched
    x2 = VectorPoly.norm_squared_var(m, 1, nvars=2)
    assert directional_power_closed_form(0, 2, m) == x2 * x2


def test_directional_power_matches_brute_force():
    for (j, k, m) in [(1, 1, 2), (2, 0, 3), (2, 1, 3), (1, 2, 4)]:
        p = VectorPoly.norm_squared_var(m, 1, nvars=2) ** (k + j)
        w = [VectorPoly.variable(m, 2, i, nvars=2) for i in range(1, m + 1)]
        for _ in range(2 * j):
            p = p.directional(1, w)
        assert directional_power_closed_form(j, k, m) == p


def test_gauss_sum_small_grid():
    for m in (2, 3):
        for l in range(4):
            for r in range(l + 1):
                for k in range(4):
                    assert gauss_sum_check(r, l, k, m)
    with pytest.raises(ValueError):
        gauss_sum_check(2, 1, 0, 3)


@st.composite
def tangential_cases(draw, nvars=3):
    m = draw(st.integers(2, 5))
    j = draw(st.integers(1, nvars))
    width = m * nvars
    # half of the factors land in x_j, the block the operator differentiates
    slot = st.one_of(st.integers(0, width - 1), st.integers((j - 1) * m, j * m - 1))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        key = [0] * width
        for _ in range(draw(st.integers(0, 5))):
            key[draw(slot)] += 1
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        terms[tuple(key)] = terms.get(tuple(key), Fraction(0)) + c
    return m, j, VectorPoly(m, nvars, terms)


@given(tangential_cases())
@settings(max_examples=150, deadline=None)
def test_tangential_operator_matches_laplacian_minus_directional_squares(case):
    m, j, p = case
    once = _tangential_operator(p, j)
    assert once.terms == tangential_terms(p.terms, m, j)
    assert _tangential_operator(once, j).terms == tangential_terms(once.terms, m, j)


def _two_frame(m, *factors):
    """Product of frame coordinates q_ij = coordinate i of frame vector j."""
    p = VectorPoly.constant(m, 1, nvars=2)
    for i, j in factors:
        p = p * VectorPoly.variable(m, j, i, nvars=2)
    return p


# Haar moments of one entry block of a random orthogonal matrix
# (Collins & Matsumoto, J. Math. Phys. 2009).
WEINGARTEN = [
    (((1, 1), (1, 1)), lambda m: Fraction(1, m)),
    (((1, 1),) * 4, lambda m: Fraction(3, m * (m + 2))),
    (((1, 1), (1, 1), (2, 2), (2, 2)),
     lambda m: Fraction(m + 1, (m - 1) * m * (m + 2))),
    (((1, 1), (1, 2), (2, 1), (2, 2)),
     lambda m: Fraction(-1, (m - 1) * m * (m + 2))),
]


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("factors,moment", WEINGARTEN)
def test_two_frame_routes_match_weingarten_moments(m, factors, moment):
    vol_q, vol_h = bench_oracles.stiefel_volume(m, 2)
    expected = ExactScalar(vol_q * moment(m), vol_h)
    p = _two_frame(m, *factors)
    assert stiefel_pizzetti_composed(p, m, 2) == expected
    assert stiefel2_explicit(p, m) == expected


@pytest.mark.parametrize("m", [3, 4, 5])
def test_exact_rotation_invariance(m):
    """Sphere and Stiefel integrals of seeded monomials do not change under x_j -> Q x_j."""
    rng = random.Random(f"rotation:{m}")
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            skew[i][j], skew[j][i] = v, -v
    q = cayley_rotation(skew)
    eye = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    assert q != eye
    assert [[sum(q[t][i] * q[t][j] for t in range(m)) for j in range(m)]
            for i in range(m)] == eye
    for k in (1, 2, 3):
        if k >= m:
            continue
        for _ in range(2):
            # even exponents: a nonnegative integrand with a nonzero integral
            half = [0] * (m * k)
            for _ in range(3 if k == 1 else 2):
                half[rng.randrange(m * k)] += 1
            p = VectorPoly.monomial(m, [2 * e for e in half], nvars=k)
            rotated = p.compose_linear(q)
            assert rotated != p
            if k == 1:
                value = sphere_pizzetti(p)
                assert sphere_pizzetti(rotated) == value
            else:
                value = stiefel_pizzetti_composed(p, m, k)
                assert stiefel_pizzetti_composed(rotated, m, k) == value
            assert value.q > 0
