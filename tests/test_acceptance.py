"""Acceptance suite: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Exact-arithmetic criteria assert equality outright; quadrature
and Monte Carlo criteria assert the stated tolerance, and the slow ones
also assert their wall-clock budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cliffint import (ExactScalar, ImplicitSurfaceSpec, QuadratureConfig,
                      VectorPoly, block_orthogonal_check, cauchy_check,
                      check_dirac_psi_derivative, check_gradient_blade_volume,
                      check_gradient_contraction, check_oriented_measure_product,
                      check_psi_blade_pairing, directional_power_closed_form,
                      gauss_sum_check, integrate_implicit, integrate_oriented,
                      mc_stiefel_integral, phase_rescale_invariance,
                      sphere_pizzetti, stiefel2_explicit,
                      stiefel_pizzetti_composed, stiefel_volume)

from oracles import bench_oracles

BOX2 = ((-1.6, 1.6),) * 2
BOX3 = ((-1.6, 1.6),) * 3


def _exponents(nv, maxdeg):
    if nv == 0:
        yield ()
        return
    for head in range(maxdeg + 1):
        for tail in _exponents(nv - 1, maxdeg - head):
            yield (head,) + tail


def _xv(m, i):
    return VectorPoly.variable(m, 1, i)


def _circle_spec():
    sphere = VectorPoly.norm_squared_var(3, 1) - 1
    return ImplicitSurfaceSpec(3, [sphere, _xv(3, 3)], BOX3)


def _rand_quadratic(m, rng):
    p = VectorPoly.constant(m, int(rng.integers(-3, 4)))
    for _ in range(4):
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(1, m + 1))
        c = int(rng.integers(-3, 4))
        if c:
            p = p + c * (_xv(m, i) * _xv(m, j))
    return p


def test_criterion_01_sphere_series_equals_monomial_oracle():
    start = time.perf_counter()
    count = 0
    for m in range(2, 7):
        for expo in _exponents(m, 8):
            expected = ExactScalar(*bench_oracles.sphere_monomial(expo))
            assert sphere_pizzetti(VectorPoly.monomial(m, expo)) == expected
            count += 1
    assert count == 4995
    assert time.perf_counter() - start < 10.0


def test_criterion_02_composed_equals_two_frame_series():
    start = time.perf_counter()
    for m in (3, 4, 5):
        for expo in _exponents(2 * m, 6):
            p = VectorPoly.monomial(m, expo, nvars=2)
            assert stiefel_pizzetti_composed(p, m, 2) == stiefel2_explicit(p, m)
    assert time.perf_counter() - start < 60.0


def test_criterion_03_frame_volume_is_area_product():
    for m in range(2, 7):
        for k in range(1, min(3, m - 1) + 1):
            one = VectorPoly.constant(m, 1, nvars=k)
            vol = stiefel_pizzetti_composed(one, m, k)
            assert vol == stiefel_volume(m, k)
            assert vol == ExactScalar(*bench_oracles.stiefel_volume(m, k))
    assert stiefel_volume(3, 2) == ExactScalar(Fraction(8), 4)   # 8 pi^2


def test_criterion_04_two_frame_constraint_moments():
    for m in (3, 4, 5):
        cross = VectorPoly.dot_vars(m, 2, 1, 2)
        assert stiefel_pizzetti_composed(cross * cross, m, 2) == ExactScalar(0)
        norm = VectorPoly.norm_squared_var(m, 1, nvars=2)
        assert stiefel_pizzetti_composed(norm, m, 2) == stiefel_volume(m, 2)


# degree <= 4 monomials as {(vector, coordinate): power}
MC_CASES = [
    {(1, 1): 2},
    {(1, 1): 4},
    {(1, 1): 2, (1, 2): 2},
    {(2, 1): 2},
    {(1, 1): 2, (2, 2): 2},
    {(1, 1): 2, (2, 1): 2},
    {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1},
    {(1, 1): 1, (2, 1): 1},
    {(1, 1): 3, (2, 1): 1},
    {(1, 2): 2, (2, 1): 2},
]


def test_criterion_05_monte_carlo_confirms_series():
    start = time.perf_counter()
    for m in (3, 4):
        for case in MC_CASES:
            expo = [0] * (2 * m)
            for (vec, coord), power in case.items():
                expo[(vec - 1) * m + coord - 1] = power
            p = VectorPoly.monomial(m, tuple(expo), nvars=2)
            exact = stiefel_pizzetti_composed(p, m, 2).to_float()
            est = mc_stiefel_integral(p, m, 2, 100000, seed=1)
            assert abs(exact - est.mean) <= 4 * est.standard_error
    assert time.perf_counter() - start < 120.0


def test_criterion_06_implicit_quadrature_recovers_measures():
    start = time.perf_counter()
    sphere = VectorPoly.norm_squared_var(3, 1) - 1
    area = integrate_implicit(1, ImplicitSurfaceSpec(3, [sphere], BOX3),
                              QuadratureConfig())
    assert abs(area - 4 * math.pi) / (4 * math.pi) < 0.01
    length = integrate_implicit(1, _circle_spec(), QuadratureConfig())
    assert abs(length - 2 * math.pi) / (2 * math.pi) < 0.01
    line = ImplicitSurfaceSpec(2, [_xv(2, 2)], ((-3.0, 3.0), (-3.0, 3.0)))
    gauss = integrate_implicit(lambda pts: np.exp(-pts[:, 0] ** 2), line,
                               QuadratureConfig())
    assert abs(gauss - math.sqrt(math.pi)) / math.sqrt(math.pi) < 0.01
    assert time.perf_counter() - start < 180.0


def test_criterion_07_directional_power_closed_form_exact():
    for m in (2, 3, 4):
        for j in range(5):
            for k in range(5):
                p = VectorPoly.norm_squared_var(m, 1, nvars=2) ** (k + j)
                w = [VectorPoly.variable(m, 2, i, nvars=2)
                     for i in range(1, m + 1)]
                for _ in range(2 * j):
                    p = p.directional(1, w)
                assert directional_power_closed_form(j, k, m) == p


def test_criterion_08_gamma_summation_exact():
    for m in range(2, 7):
        for l in range(7):
            for r in range(l + 1):
                for k in range(7):
                    assert gauss_sum_check(r, l, k, m)


def test_criterion_09_exterior_identity_suites():
    rng = np.random.default_rng(2024)
    pairs = [(m, k) for m in range(2, 6) for k in range(1, min(3, m) + 1)]
    counts = dict.fromkeys(
        ["measure_product", "contraction", "blade_volume", "dirac"], 0)
    for m, k in pairs:
        for _ in range(5):
            phases = [_rand_quadratic(m, rng) for _ in range(k)]
            assert check_oriented_measure_product(phases)
            counts["measure_product"] += 1
            assert check_gradient_blade_volume(phases)
            counts["blade_volume"] += 1
            assert check_gradient_contraction(phases[0], k)
            counts["contraction"] += 1
            if k <= m - 1:
                assert check_dirac_psi_derivative(m, k, _rand_quadratic(m, rng))
                counts["dirac"] += 1
    # top off the constrained suite so every suite sees >= 50 random tuples
    while counts["dirac"] < 50:
        m = int(rng.integers(2, 6))
        k = int(rng.integers(0, min(3, m - 1) + 1))
        assert check_dirac_psi_derivative(m, k, _rand_quadratic(m, rng))
        counts["dirac"] += 1
    assert all(c >= 50 for c in counts.values())
    for m in range(2, 6):
        for k in range(min(3, m) + 1):
            assert check_psi_blade_pairing(m, k)


def test_criterion_10_boundary_formula_residual_and_refinement():
    circle = _circle_spec()
    classical = ImplicitSurfaceSpec(2, [], BOX2)
    phi2 = VectorPoly.norm_squared_var(2, 1) - 1
    cases = [
        (1, _xv(3, 2), _xv(3, 1), circle),
        (1, _xv(2, 1), phi2, classical),
    ]
    for f, g, phi, spec in cases:
        res = cauchy_check(f, g, phi, spec, QuadratureConfig(n=201))
        assert res.residual < 0.02
        finer = cauchy_check(f, g, phi, spec, QuadratureConfig(n=402))
        assert finer.residual < res.residual


def test_criterion_11_invariance_under_phase_mixing():
    spec = _circle_spec()
    base, scaled = phase_rescale_invariance(spec, [[2, 0], [0, 2]])
    base_err = abs(base - 2 * math.pi)
    assert abs(scaled - base) <= 3 * base_err
    rot = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    _, rotated = phase_rescale_invariance(spec, rot)
    assert abs(rotated - base) <= 3 * base_err
    swapped = ImplicitSurfaceSpec(3, list(reversed(spec.phases)), BOX3)
    fwd = integrate_oriented(1, spec, QuadratureConfig(n=101))
    rev = integrate_oriented(1, swapped, QuadratureConfig(n=101))
    mismatch = math.sqrt((fwd + rev).norm_squared())
    assert mismatch <= 1e-9 * (1 + math.sqrt(fwd.norm_squared()))


def test_criterion_12_block_orthogonal_identities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, m - 1) + 1))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        mat = np.empty((m, m))
        mat[:k] = (rng.standard_normal((k, k)) + 3 * np.eye(k)) @ q.T[:k]
        mat[k:] = (rng.standard_normal((m - k, m - k))
                   + 3 * np.eye(m - k)) @ q.T[k:]
        res = block_orthogonal_check(mat, k)
        assert res.ok
        assert res.dual_orthogonality <= 1e-10
        assert res.determinant_split <= 1e-10
        assert res.norm_product_first <= 1e-10
        assert res.norm_product_second <= 1e-10
