import random
from fractions import Fraction

import pytest

from cliffint import (CliffordForm, CliffordPoly, Multivector, VectorPoly,
                      check_psi_blade_pairing, check_gradient_contraction, check_dirac_psi_derivative, check_gradient_blade_volume,
                      check_oriented_measure_product, exterior_derivative, form_mul, psi)
from cliffint.exterior import (d_of_scalar, dot,
                               dx_power_normalized, ell, ell_sign, gradient,
                               vector_differential, volume_form, wedge,
                               wedge_gradients)


def xv(i, m=3):
    return VectorPoly.variable(m, 1, i)


def rand_quadratic(m, rng):
    terms = {}
    for _ in range(4):
        key = [0] * m
        key[rng.randrange(m)] += 1
        key[rng.randrange(m)] += 1
        key = tuple(key)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-3, 3))
    terms[(0,) * m] = Fraction(rng.randint(-2, 2))
    return VectorPoly(m, 1, {k: v for k, v in terms.items() if v})


def test_clifford_poly_product_mixes_blades():
    m = 2
    a = CliffordPoly.basis(m, (1,)) * xv(1, m)
    b = CliffordPoly.basis(m, (1,))
    assert a * b == CliffordPoly.from_poly(-xv(1, m))
    assert (a * CliffordPoly.basis(m, (2,))).grades() == {2}


def test_zero_divisor_products_store_no_term():
    # e123^2 = 1 when m = 3, so (1 + e123)(1 - e123) = 1 - e123^2 = 0
    e123 = CliffordPoly.basis(3, (1, 2, 3))
    a, b = 1 + e123, 1 - e123
    assert a and b
    assert (a * b).terms == {}
    # as form coefficients the product of two nonzero coefficients vanishes
    # for a new dx blade, which must not be stored
    fa = CliffordForm.from_coefficient(a, (1,))
    fb = CliffordForm.from_coefficient(b, (2,))
    assert form_mul(fa, fb).terms == {}


def test_vectorpoly_and_cliffordpoly_multiply_either_way():
    m = 3
    p = xv(1, m) ** 2 - Fraction(1, 2) * xv(3, m)
    cp = CliffordPoly.basis(m, (1, 2)) * xv(2, m) + CliffordPoly.from_scalar(m, 3)
    assert p * cp == cp * p
    assert (p * cp).terms[(1, 2)] == p * xv(2, m)
    with pytest.raises(TypeError):
        p + "x"
    with pytest.raises(TypeError):
        p * "x"


def test_cliffordpoly_coerces_numbers_and_vectorpolys():
    m = 2
    cp = CliffordPoly.from_scalar(m, 3)
    assert cp + 2 == CliffordPoly.from_scalar(m, 5)
    assert 2 + cp == cp + 2
    assert cp - 1 == CliffordPoly.from_scalar(m, 2)
    assert 1 - cp == CliffordPoly.from_scalar(m, -2)
    assert cp + xv(1, m) == CliffordPoly.from_poly(3 + xv(1, m))
    assert cp - xv(1, m) == CliffordPoly.from_poly(3 - xv(1, m))
    assert cp == 3 and cp != 4
    assert len({cp, 3}) == 1
    with pytest.raises(ValueError):
        cp + VectorPoly.variable(3, 1, 1)
    with pytest.raises(ValueError):
        cp + VectorPoly.variable(m, 1, 1, nvars=2)


def test_cliffordpoly_equals_its_vectorpoly_in_either_order():
    m = 2
    for x in (xv(1, m), 3 + xv(2, m) ** 2, VectorPoly.constant(m, 3)):
        cp = CliffordPoly.from_poly(x)
        assert cp == x and x == cp
        assert not (cp != x or x != cp)
        assert hash(cp) == hash(x)
    assert CliffordPoly.from_poly(xv(1, m)) != xv(2, m)
    # another shape compares unequal instead of raising
    cp = CliffordPoly.from_scalar(m, 3)
    assert cp != VectorPoly.constant(3, 3) and VectorPoly.constant(3, 3) != cp
    assert cp != VectorPoly.constant(m, 3, nvars=2)


def test_cp_dot_and_wedge_split_vector_product():
    m = 3
    a = CliffordPoly.basis(m, (1,)) * xv(2, m)
    b = CliffordPoly.basis(m, (2,))
    assert dot(a, b) + wedge(a, b) == a * b


def test_gradient_and_wedge_gradients():
    m = 3
    phi = xv(1, m) ** 2 + 2 * xv(3, m)
    g = gradient(phi)
    assert g == (CliffordPoly.basis(m, (1,)) * (2 * xv(1, m))
                 + CliffordPoly.basis(m, (3,)) * 2)
    pair = wedge_gradients([xv(1, m), xv(2, m)])
    assert pair == CliffordPoly.basis(m, (1, 2))


def test_dx_anticommutation_in_form_product():
    m = 2
    dx1 = CliffordForm(m, 1, {(1,): CliffordPoly.from_scalar(m, 1)})
    dx2 = CliffordForm(m, 1, {(2,): CliffordPoly.from_scalar(m, 1)})
    assert form_mul(dx1, dx2) == -form_mul(dx2, dx1)
    assert form_mul(dx1, dx1).is_zero()


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 4)
        terms = {}
        for _ in range(3):
            k = rng.randint(0, m)
            dxb = tuple(sorted(rng.sample(range(1, m + 1), k)))
            terms[dxb] = CliffordPoly.from_poly(rand_quadratic(m, rng))
        a = CliffordForm(m, 1, terms)
        assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_d_of_scalar_matches_exterior_derivative():
    m = 3
    phi = rand_quadratic(m, random.Random(5))
    lifted = CliffordForm.from_coefficient(CliffordPoly.from_poly(phi))
    assert exterior_derivative(lifted) == d_of_scalar(phi)


def test_dx_power_normalized_endpoints():
    m = 3
    assert dx_power_normalized(m, 0) == CliffordForm.unit(m)
    # top power is e_M dV up to the pairing sign; just check the dx blade
    top = dx_power_normalized(m, m)
    assert set(top.terms) == {tuple(range(1, m + 1))}
    with pytest.raises(ValueError):
        dx_power_normalized(m, m + 1)


def test_ell_and_sign():
    assert ell((1, 2, 3)) == 0
    assert ell((2, 3)) == 2
    assert ell((3,)) == 2
    assert ell_sign((2,)) == -1


def test_psi_endpoints():
    m = 3
    assert psi(m, 0) == volume_form(m)
    top = psi(m, m)
    # codimension m: single term e_M with empty dx blade
    assert set(top.terms) == {()}
    assert top.terms[()] == CliffordPoly.basis(m, (1, 2, 3)) * ell_sign((1, 2, 3))


def test_psi_normal_times_measure_on_axis_plane():
    # surface x3 = const in R^3: Psi_2 restricted to dx_1 dx_2 carries e_3
    m = 3
    p = psi(m, 1)
    assert p.terms[(1, 2)] == CliffordPoly.basis(m, (3,)) * ell_sign((3,))


def test_vector_differential_square_in_plane():
    # unlike a scalar-valued 1-form, dx does not square to zero: the
    # Clifford factors anticommute against the dx swap, so the terms add
    m = 2
    dx = vector_differential(m)
    sq = form_mul(dx, dx)
    assert sq == CliffordForm.from_coefficient(
        CliffordPoly.basis(m, (1, 2)) * 2, (1, 2))


def test_oriented_measure_identity_small():
    m = 3
    assert check_oriented_measure_product([xv(3, m)])
    assert check_oriented_measure_product([VectorPoly.norm_squared_var(m, 1) - 1, xv(3, m)])


def test_oriented_measure_random():
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randint(2, 4)
        k = rng.randint(1, min(3, m))
        phases = [rand_quadratic(m, rng) for _ in range(k)]
        assert check_oriented_measure_product(phases)


def test_psi_blade_pairing_all_small():
    for m in range(2, 6):
        for k in range(0, min(3, m) + 1):
            assert check_psi_blade_pairing(m, k)


def test_gradient_contraction_random():
    rng = random.Random(19)
    for _ in range(15):
        m = rng.randint(2, 4)
        k = rng.randint(1, m - 1)
        assert check_gradient_contraction(rand_quadratic(m, rng), k)


def test_gradient_blade_volume_random():
    rng = random.Random(23)
    for _ in range(15):
        m = rng.randint(2, 4)
        k = rng.randint(1, min(3, m - 1))
        assert check_gradient_blade_volume([rand_quadratic(m, rng) for _ in range(k)])


def test_dirac_psi_derivative_random():
    rng = random.Random(29)
    for _ in range(15):
        m = rng.randint(2, 4)
        k = rng.randint(0, m - 1)
        assert check_dirac_psi_derivative(m, k, rand_quadratic(m, rng))


def test_check_reports_first_mismatch():
    # a deliberately broken identity must carry a mismatch witness
    m = 2
    res = check_oriented_measure_product([xv(1, m) + 1])
    assert res.ok
    broken = check_psi_blade_pairing(2, 1)
    assert broken.ok
    # compare unequal forms directly
    from cliffint.exterior import _compare_forms
    a = CliffordForm.from_coefficient(CliffordPoly.from_scalar(m, 1), (1,))
    b = CliffordForm.from_coefficient(CliffordPoly.from_scalar(m, 2), (1,))
    res = _compare_forms(a, b)
    assert not res
    dxb, blade, pa, pb = res.mismatch
    assert dxb == (1,) and blade == ()
    assert pa != pb


def test_form_eval_to_multivector():
    m = 2
    coeff = CliffordPoly.basis(m, (1,)) * xv(1, m)
    assert coeff.eval([2, 0]) == 2 * Multivector.basis(m, (1,))


def test_cached_forms_are_never_mutated():
    # psi and dx_power_normalized hand one shared form to every caller;
    # after whole exterior suites each cached form still equals a fresh build
    from cliffint.cli import run_suite
    for seed in (0, 1, 2):
        assert not any(f for _, f in run_suite("exterior", 30, seed).values())
    for m in range(2, 5):
        for args in [(m, k, *nvars) for k in range(m + 1) for nvars in ((), (1,))]:
            assert psi(*args) == psi.__wrapped__(*args)
            assert dx_power_normalized(*args) == dx_power_normalized.__wrapped__(*args)
    assert psi.cache_info().hits > 0 and dx_power_normalized.cache_info().hits > 0


@pytest.mark.parametrize("table, args", [(psi, (3, 1)), (dx_power_normalized, (3, 2))])
def test_constant_tables_are_keyed_by_argument_value(table, args):
    # the default nvars spelled out, or passed by name, is the same entry
    table.cache_clear()
    table(*args)
    table(*args, 1)
    table(*args, nvars=1)
    info = table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
