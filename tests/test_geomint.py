import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffint import (BoundaryContactError, CliffordPoly, FloatRangeError, Frame,
                      ImplicitSurfaceSpec, IndependenceError, Multivector,
                      QuadratureConfig, TransversalityError, VectorPoly,
                      block_orthogonal_check,
                      cauchy_check, haar_sample_stiefel, integrate_implicit,
                      integrate_oriented, mc_stiefel_integral,
                      phase_rescale_invariance, stiefel_volume,
                      tangent_normal_frames, tangential_dirac)
from cliffint import geomint
from cliffint.clifford import _mul_blades, blades_of_grade
from cliffint.geomint import (_Sweep, _columns_mul, _delta_values, _haar_frames,
                              _interval_bounds, _minors, _wedge_columns)
from cliffint.pizzetti import sphere_pizzetti

from oracles import (bench_oracles, blade_minors, blade_norms, bump_average, bump_average_cos_sin,
                     bump_point, dense_band, dense_cauchy, dense_cauchy_classical, haar_frames_qr,
                     poly_values, tangential_dirac_frame_free)

BOX3 = ((-1.6, 1.6),) * 3
BOX2 = ((-1.6, 1.6),) * 2


def _checked_gram(jac):
    # the reference for the band batches' checked Gram matrices: the
    # jacobian's column products, then the independence test
    gram = geomint._jacobian_gram(jac)
    return gram, geomint._gram_det(gram)


def _wedge_norms(jac):
    return np.sqrt(_checked_gram(jac)[1])


def xvar(i, m=3):
    return VectorPoly.variable(m, 1, i)


def sphere_phase(m=3):
    return VectorPoly.norm_squared_var(m, 1) - 1


def sphere_spec(m=3):
    return ImplicitSurfaceSpec(m, [sphere_phase(m)], ((-1.6, 1.6),) * m)


def circle_spec():
    return ImplicitSurfaceSpec(3, [sphere_phase(3), xvar(3)], BOX3)


# -- construction and validation ---------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ImplicitSurfaceSpec(3, [sphere_phase(3)], BOX2)       # wrong box length
    with pytest.raises(ValueError):
        ImplicitSurfaceSpec(3, [sphere_phase(2)], BOX3)       # wrong dimension
    with pytest.raises(ValueError):
        ImplicitSurfaceSpec(2, [xvar(1, 2)], ((1.0, -1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ImplicitSurfaceSpec(2, [xvar(1, 2)] * 3, BOX2)        # k > m
    # a NaN end off the first axis passes resolve_eps; it would make every
    # phase NaN and the band empty, a silent 0.0
    for bad in (math.nan, math.inf, -math.inf):
        for box in (((-1.6, 1.6), (bad, 1.6)), ((-1.6, 1.6), (-1.6, bad)), ((bad, 1.6), BOX2[1])):
            with pytest.raises(ValueError, match="finite"):
                ImplicitSurfaceSpec(2, [sphere_phase(2)], box)
    spec = circle_spec()
    assert spec.k == 2 and spec.m == 3


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(n=4)
    with pytest.raises(ValueError):
        QuadratureConfig(eps=-0.1)
    cfg = QuadratureConfig(n=100)
    assert cfg.resolve_eps(BOX2) == pytest.approx(6 * 3.2 / 100)
    with pytest.raises(ValueError):
        QuadratureConfig(eps=5.0).resolve_eps(BOX2)   # wider than the box


def test_config_rejects_a_non_integral_grid_size():
    # n = 100.5 used to build 101 midpoints with spacing 3.2 / 100.5, the
    # last one on the box edge, and integrate without an error
    for bad in (100.5, 101.0, Fraction(201, 2), "101"):
        with pytest.raises(TypeError, match="integer number of cells"):
            QuadratureConfig(n=bad)
    cfg = QuadratureConfig(n=np.int64(101))
    assert type(cfg.n) is int and cfg == QuadratureConfig(n=101)


def test_frame_validation():
    Frame(np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        Frame(np.ones((3, 2)))
    # NaN fails every comparison, so only a finiteness test rejects it
    for bad in (math.nan, math.inf, -math.inf):
        matrix = np.eye(3)[:, :2].copy()
        matrix[2, 1] = bad
        for frame in (np.full((3, 2), bad), matrix):
            with pytest.raises(ValueError, match="finite"):
                Frame(frame)


# -- scalar and oriented quadrature --------------------------------------------

def test_sphere_area_quadrature():
    val = integrate_implicit(1, sphere_spec(), QuadratureConfig(n=101))
    assert val == pytest.approx(4 * math.pi, rel=5e-3)


def test_circle_length_quadrature():
    val = integrate_implicit(1, circle_spec(), QuadratureConfig(n=101))
    assert val == pytest.approx(2 * math.pi, rel=5e-3)


def test_polynomial_and_callable_integrands_agree():
    spec = sphere_spec()
    cfg = QuadratureConfig(n=121)
    a = integrate_implicit(xvar(1) ** 2, spec, cfg)
    b = integrate_implicit(lambda pts: pts[:, 0] ** 2, spec, cfg)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(4 * math.pi / 3, rel=1e-2)


def test_richardson_ladder_is_monotone():
    errors = []
    for n in (75, 151, 301):
        val = integrate_implicit(1, sphere_spec(), QuadratureConfig(n=n))
        errors.append(abs(val - 4 * math.pi))
    assert errors[0] > errors[1] > errors[2]


# surface, integrand, the exponents of its monomials (the unit circle in R^3
# lies in the x1 x2 plane, so its integrals are those of S^1), the three n
# and a bound on the relative error at the middle n
@pytest.mark.parametrize("spec,f,monomials,ns,bound", [
    pytest.param(sphere_spec(), xvar(1) ** 2 * xvar(2) ** 2, [(2, 2, 0)], (64, 128, 256),
                 1.3e-2, id="S2"),
    pytest.param(sphere_spec(2), xvar(1, 2) ** 2 * xvar(2, 2) ** 4, [(2, 4)], (100, 200, 400),
                 7e-3, id="S1"),
    pytest.param(circle_spec(), xvar(1) ** 2 * xvar(2) ** 2 + 1, [(2, 2), (0, 0)],
                 (64, 128, 256), 1.7e-3, id="circle-in-R3"),
    pytest.param(sphere_spec(4), xvar(1, 4) ** 2 * xvar(4, 4) ** 2, [(2, 0, 0, 2)],
                 (24, 48, 96), 0.13, id="S3"),
])
def test_sphere_quadrature_converges_at_second_order(spec, f, monomials, ns, bound):
    # at the default eps = 6 h, against the Gamma closed form; halving h
    # quarters the relative error
    exact = sum(bench_oracles.exact_to_float(bench_oracles.sphere_monomial(a))
                for a in monomials)
    errors = [abs(integrate_implicit(f, spec, QuadratureConfig(n=n)) - exact) / exact
              for n in ns]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= order <= 2.2 for order in orders), (errors, orders)
    assert errors[1] <= bound


def test_ellipsoid_quadrature_converges_at_second_order():
    # |D x|^2 = 1 with D = diag(1, 3/2, 2), where |grad phi| varies by a factor
    # of 4.  With g = x1^2 x2^2 + x3^2 and f = g / |grad phi|, the grid sums
    # approximate the integral of g delta(phi), which y = D x turns into
    # 1/(2 det D) times the integral of g o D^-1 over the unit sphere
    d = [Fraction(1), Fraction(3, 2), Fraction(2)]
    phi = sum((c ** 2 * xvar(i) ** 2 for i, c in enumerate(d, start=1)),
              VectorPoly.constant(3, -1))
    spec = ImplicitSurfaceSpec(3, [phi], BOX3)
    g = xvar(1) ** 2 * xvar(2) ** 2 + xvar(3) ** 2
    inverse = [[1 / c if i == j else 0 for j in range(3)] for i, c in enumerate(d)]
    exact = sphere_pizzetti(g.compose_linear(inverse)).to_float() / (2 * float(math.prod(d)))
    scales = np.array([2 * float(c ** 2) for c in d])

    def f(pts):
        grad_norm = np.sqrt(((pts * scales) ** 2).sum(axis=1))
        return (pts[:, 0] ** 2 * pts[:, 1] ** 2 + pts[:, 2] ** 2) / grad_norm

    errors = [abs(integrate_implicit(f, spec, QuadratureConfig(n=n)) - exact) / exact
              for n in (64, 128, 256)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= order <= 2.2 for order in orders), (errors, orders)
    assert errors[1] <= 5.2e-3


def test_oriented_circle_recovers_plane_blade():
    # f = x1 over the unit circle in the x1 x2 plane: integral of x1 times
    # the unit tangent-normal blade; the e13 component carries pi
    out = integrate_oriented(xvar(1), circle_spec(), QuadratureConfig(n=101))
    assert out.coefficient((1, 3)) == pytest.approx(math.pi, rel=5e-3)
    assert abs(out.coefficient((2, 3))) < 1e-10


def test_oriented_quadrature_converges_at_second_order():
    # f = x1 - 1/20 over the sphere of radius 1 about c = (1/20, -3/100, 1/50)
    # cut by x3 = 1/5: a circle of radius rho, rho^2 = 1 - (9/50)^2, about
    # (c1, c2, 1/5).  Its unit blade is ((x1 - c1) e13 + (x2 - c2) e23) / rho,
    # so the integral is pi rho^2 on e13 and 0 on e23
    center = (Fraction(1, 20), Fraction(-3, 100), Fraction(1, 50))
    spec = ImplicitSurfaceSpec(3, [_shifted_sphere(3, center, 1), xvar(3) - Fraction(1, 5)],
                               BOX3)
    exact = math.pi * 2419 / 2500
    outs = [integrate_oriented(xvar(1) - Fraction(1, 20), spec, QuadratureConfig(n=n))
            for n in (64, 128, 256)]
    errors = [abs(out.coefficient((1, 3)) - exact) / exact for out in outs]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= order <= 2.2 for order in orders), (errors, orders)
    assert errors[1] <= 2.8e-3
    assert all(abs(out.coefficient((2, 3))) <= 1e-10 for out in outs)


def test_quadrature_requires_a_phase():
    with pytest.raises(ValueError):
        integrate_implicit(1, ImplicitSurfaceSpec(2, [], BOX2))
    with pytest.raises(ValueError):
        integrate_oriented(1, ImplicitSurfaceSpec(2, [], BOX2))


def test_boundary_contact_detected():
    line = ImplicitSurfaceSpec(2, [xvar(1, 2)], ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(BoundaryContactError):
        integrate_implicit(1, line, QuadratureConfig(n=64))


def test_boundary_contact_is_relative_to_the_total():
    # the unit sphere with phases scaled by 1e-7: eps is in phase units, so
    # the band fills the box, and its small values must not hide that
    small = ImplicitSurfaceSpec(3, [sphere_phase(3) * Fraction(1, 10**7)], BOX3)
    with pytest.raises(BoundaryContactError, match="rescale the phases"):
        integrate_implicit(1, small, QuadratureConfig(n=64))
    # a small integrand on a band clear of the box still integrates
    area = integrate_implicit(Fraction(1, 10**7), sphere_spec(3), QuadratureConfig(n=64))
    assert area == pytest.approx(4 * math.pi * 1e-7, rel=0.05)


def test_dependent_gradients_detected():
    p = xvar(1, 2)
    spec = ImplicitSurfaceSpec(2, [p, 2 * p], BOX2)
    with pytest.raises(IndependenceError):
        integrate_implicit(1, spec, QuadratureConfig(n=64))


@pytest.mark.parametrize("scale", [Fraction(1, 10**11), 10**11])
def test_frames_do_not_depend_on_phase_scale(scale):
    spec = ImplicitSurfaceSpec(3, [sphere_phase(3) * scale], BOX3)
    normals, tangents = tangent_normal_frames(spec, [1.0, 0.0, 0.0])
    assert abs(normals[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(tangents[:, 0], 0.0, atol=1e-12)


def test_point_frames_share_the_band_independence_threshold():
    # gradients (1, 0, 0) and (1, 1e-8, 0): dependent to 1e-8 relative,
    # below the 1e-6 threshold the band quadrature applies
    spec = ImplicitSurfaceSpec(3, [xvar(1), xvar(1) + Fraction(1, 10**8) * xvar(2)], BOX3)
    with pytest.raises(IndependenceError):
        tangent_normal_frames(spec, [0.0, 0.0, 0.0])


def test_point_frames_share_the_band_independence_threshold_for_three_phases():
    # gradients e1, e1 + e2/10^4 and e1 + e3/10^4 in R^4: each lies 1e-4 off
    # the span of the earlier ones, but their blade norm is 1e-8 against
    # lengths of about 1, below the 1e-6 threshold; the point operators and
    # the band quadrature must give one verdict
    x = [xvar(i, 4) for i in (1, 2, 3)]
    small = Fraction(1, 10**4)
    spec = ImplicitSurfaceSpec(4, [x[0], x[0] + small * x[1], x[0] + small * x[2]],
                               ((-1.6, 1.6),) * 4)
    origin = [0.0] * 4
    jac = geomint._point_batch(spec, origin).jac
    with pytest.raises(IndependenceError):
        _wedge_norms(jac)
    with pytest.raises(IndependenceError):
        tangential_dirac(xvar(4, 4), spec, origin)
    with pytest.raises(IndependenceError):
        tangent_normal_frames(spec, origin)


@pytest.mark.parametrize("scale", [1e-11, 1e11])
def test_independence_checks_are_scale_invariant(scale):
    jac = scale * np.array([[[2.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                            [[0.0, 1.5, 0.5], [0.0, 0.0, 3.0]]])
    assert np.allclose(_wedge_norms(jac),
                       scale ** 2 * np.array([2.0, 4.5]), rtol=1e-12)
    # a zero gradient row is dependent at any scale
    jac[1, 0] = 0.0
    with pytest.raises(IndependenceError):
        _wedge_norms(jac)


def test_small_minors_match_lapack():
    rng = np.random.default_rng(21)
    for m in (2, 3, 5):
        for k in (1, 2):
            jac = rng.standard_normal((400, k, m)) * rng.uniform(1e-3, 1e3, (400, 1, 1))
            for cols in ([0], [m - 1]) if k == 1 else ([0, 1], [m - 1, 0], [1, m - 1]):
                got = _minors(jac, cols)
                sub = jac[:, :, cols]
                # rounding scale of a d - b c: |a d| + |b c|
                scale = np.abs(sub[:, 0, 0] * sub[:, -1, -1]) + np.abs(sub[:, 0, -1] * sub[:, -1, 0])
                assert np.all(np.abs(got - np.linalg.det(sub)) <= 1e-12 * scale)
            gram = jac @ jac.transpose(0, 2, 1)
            lengths_sq = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
            norms = _wedge_norms(jac)
            assert np.all(np.abs(norms ** 2 - np.linalg.det(gram)) <= 1e-12 * lengths_sq)
    # three rows are the cofactor expansion, column by column of the blade
    jac = rng.standard_normal((50, 3, 4))
    blade = _wedge_columns(jac)
    assert sorted(blade) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert np.allclose(blade[(1, 2, 3)], np.linalg.det(jac[:, :, [0, 1, 2]]), rtol=1e-12)
    assert np.allclose(blade[(1, 3, 4)], np.linalg.det(jac[:, :, [0, 2, 3]]), rtol=1e-12)
    for m in (3, 5):
        jac = rng.standard_normal((400, 3, m)) * rng.uniform(1e-3, 1e3, (400, 1, 1))
        for cols in ([0, 1, 2], [m - 1, 0, 1], [1, m - 1, 0]):
            got = _minors(jac, cols)
            sub = jac[:, :, cols]
            # rounding scale of the expansion: the sum over permutations s
            # of |a_1s1 a_2s2 a_3s3|, which is |a d| + |b c| for two rows
            scale = sum(np.abs(sub[:, 0, s0] * sub[:, 1, s1] * sub[:, 2, s2])
                        for s0, s1, s2 in permutations(range(3)))
            assert np.all(np.abs(got - np.linalg.det(sub)) <= 1e-12 * scale)
        gram = jac @ jac.transpose(0, 2, 1)
        lengths_sq = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        norms = _wedge_norms(jac)
        assert np.all(np.abs(norms ** 2 - np.linalg.det(gram)) <= 1e-12 * lengths_sq)
    # four rows still go through LAPACK
    jac = rng.standard_normal((50, 4, 5))
    blade = _wedge_columns(jac)
    assert len(blade) == 5
    assert np.allclose(blade[(1, 2, 4, 5)], np.linalg.det(jac[:, :, [0, 1, 3, 4]]), rtol=1e-12)


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_minors_and_wedges_do_not_depend_on_layout(k, m):
    # the band sweep hands out jacobians as the transposed view of a
    # (k, m, N) buffer; the same values in C order must give the same results
    rng = np.random.default_rng(23 + 10 * k + m)
    jac = rng.standard_normal((60, k, m)) * rng.uniform(1e-2, 1e2, (60, 1, 1))
    view = np.ascontiguousarray(jac.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert not view.flags.c_contiguous and np.array_equal(view, jac)
    for cols in ([0, 1, 2][:k], [m - 1, 0, 2][:k], list(range(m - k, m))):
        assert np.array_equal(_minors(view, cols), _minors(jac, cols))
    assert np.array_equal(_wedge_norms(view), _wedge_norms(jac))
    got, want = _wedge_columns(view), _wedge_columns(jac)
    assert got.keys() == want.keys() and all(np.array_equal(got[b], want[b]) for b in want)
    if k == 3:
        # the closed-form Gram entries against LAPACK on the matmul Gram,
        # to the rounding scale of the determinant: the product of |row|^2
        gram = jac @ jac.swapaxes(1, 2)
        lengths_sq = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        norms = _wedge_norms(view)
        assert np.all(np.abs(norms ** 2 - np.linalg.det(gram)) <= 1e-12 * lengths_sq)
        # and the cofactor minors of the view against LAPACK on C-order copies,
        # to the rounding scale of the expansion, as in test_small_minors_match_lapack
        for cols in ([0, 1, 2], [m - 1, 0, 1]):
            sub = jac[:, :, cols]
            scale = sum(np.abs(sub[:, 0, s0] * sub[:, 1, s1] * sub[:, 2, s2])
                        for s0, s1, s2 in permutations(range(3)))
            assert np.all(np.abs(_minors(view, cols) - np.linalg.det(sub)) <= 1e-12 * scale)


def test_delta_values_take_the_midpoint_only_on_narrow_cells():
    eps = 0.05
    rng = np.random.default_rng(22)
    vals = rng.uniform(-1.5 * eps, 1.5 * eps, 600)
    span = np.concatenate([np.zeros(100), eps * 10.0 ** rng.uniform(-15, -9.01, 100),
                           eps * 10.0 ** rng.uniform(-8.99, 0.5, 400)])
    got = _delta_values(vals, eps, span)
    narrow = span <= 1e-9 * eps
    # below the threshold the average would lose its digits: the midpoint value
    assert np.allclose(got[narrow], bump_point(vals[narrow], eps), rtol=1e-14, atol=1e-12)
    # above it the average, to the rounding of a difference of two CDF
    # values (at most 1) divided by the span
    wide_err = np.abs(got[~narrow] - bump_average(vals[~narrow], span[~narrow], eps))
    assert np.all(wide_err <= 1e-12 / eps + 1e-15 / span[~narrow])
    assert np.all(got >= 0.0)


def _delta_values_fresh_arrays(vals, eps, span):
    # the kernel's formula with a fresh array for every step: the in-place
    # kernel runs the same operations on the same operands
    narrow = span <= 1e-9 * eps
    s = np.maximum(span, 1e-9 * eps)
    scale = math.pi / (4.0 * eps)
    mid = scale * vals
    half = (0.5 * scale) * s
    lo = np.clip(mid - half, -0.25 * math.pi, 0.25 * math.pi)
    hi = np.clip(mid + half, -0.25 * math.pi, 0.25 * math.pi)
    out = hi - lo
    tp = np.tan(lo + hi) ** 2
    tm = np.tan(out)
    out += (1.0 - tp) * tm / ((tp + 1.0) * (tm ** 2 + 1.0))
    out /= (0.5 * math.pi) * s
    if narrow.any():
        t = np.clip(vals[narrow], -eps, eps)
        out[narrow] = (1.0 + np.cos(np.pi * t / eps)) / (2.0 * eps)
    return out


@pytest.mark.parametrize("eps", [0.05, 0.6, 3e-7])
def test_delta_values_in_place_are_bit_identical(eps):
    rng = np.random.default_rng(25)
    vals = rng.uniform(-1.5 * eps, 1.5 * eps, 3000)
    # narrow cells (zero spans and spans below 1e-9 eps) among wide ones
    span = np.concatenate([np.zeros(200), eps * 10.0 ** rng.uniform(-15, -9.01, 300),
                           eps * 10.0 ** rng.uniform(-8.99, 1, 2500)])
    rng.shuffle(span)
    vals_in, span_in = vals.copy(), span.copy()
    assert np.array_equal(_delta_values(vals, eps, span),
                          _delta_values_fresh_arrays(vals, eps, span))
    assert np.array_equal(vals, vals_in) and np.array_equal(span, span_in)


@pytest.mark.parametrize("eps", [0.05, 0.6, 3e-7])
def test_delta_values_match_the_cos_sin_product(eps):
    # the half-angle tangents against the cosine-sine form they replace, on
    # every kind of cell: wide inside the support, clipped at one end,
    # clipped at both ends (span > 2 eps: a tangent of about 1.6e16, squared
    # 2.7e32), outside the support and narrow; no RuntimeWarning may be
    # raised on the way
    rng = np.random.default_rng(26)
    sign = rng.choice([-1.0, 1.0], 600)
    # spans past 2 eps by twice the midpoint's offset reach over both ends
    centred = np.r_[0.0, rng.uniform(-0.5, 0.5, 499)]
    kinds = {  # (vals, span) in units of eps
        "wide": (rng.uniform(-0.5, 0.5, 500), rng.uniform(1e-8, 0.5, 500)),
        "one end": (sign[:500] * rng.uniform(0.8, 1.2, 500), rng.uniform(0.5, 1.0, 500)),
        "both ends": (centred, np.r_[2.0, rng.uniform(2.0, 10.0, 499)] + 2 * np.abs(centred)),
        "outside": (sign[500:] * rng.uniform(1.5, 2.0, 100), rng.uniform(0.1, 0.5, 100)),
        "narrow": (rng.uniform(-1.5, 1.5, 400),
                   np.r_[np.zeros(100), 10.0 ** rng.uniform(-15, -9, 300)]),
    }
    clipped_ends = {"wide": 0, "one end": 1, "both ends": 2}
    for kind, (vals, span) in kinds.items():
        vals, span = vals * eps, span * eps
        if kind in clipped_ends:
            clipped = (vals - span / 2 <= -eps).astype(int) + (vals + span / 2 >= eps)
            assert np.all(clipped == clipped_ends[kind]), kind
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _delta_values(vals, eps, span)
        assert np.all(np.isfinite(got)), kind
        # both forms round the clipped ends at the scale of ulp(pi / 4), and
        # the average divides their difference by the span: 1e-15 / eps from
        # a span of eps up (4e-16 / eps measured), growing as 1 / span below;
        # narrow cells take the same midpoint value in both
        scale = eps if kind == "narrow" else np.minimum(span, eps)
        assert np.all(np.abs(got - bump_average_cos_sin(vals, span, eps)) <= 1e-15 / scale), kind
        if kind == "outside":
            assert np.all(got == 0.0)


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e11])
@pytest.mark.parametrize("ratio", [10.0, 0.1])
def test_independence_threshold_on_squares(ratio, scale):
    # two gradients at angle t, lengths 1 and 2.5: the blade norm is sin t
    # times the product of the lengths, so t = 10 and 0.1 times the
    # threshold fall on either side of it
    t = ratio * geomint._INDEPENDENCE_TOL
    jac = scale * np.array([[[1.0, 0.0, 0.0], [2.5 * math.cos(t), 2.5 * math.sin(t), 0.0]]])
    if ratio > 1:
        # the Gram determinant 6.25 sin^2 t cancels down from 6.25: about
        # 1e-16 / t^2 = 1e-6 relative rounding, half of it in the root
        assert _wedge_norms(jac) == pytest.approx(scale ** 2 * 2.5 * math.sin(t), rel=1e-5)
    else:
        with pytest.raises(IndependenceError):
            _wedge_norms(jac)


def test_rescale_invariance_identity_is_exact():
    spec = circle_spec()
    base, mixed = phase_rescale_invariance(spec, [[1, 0], [0, 1]],
                                           cfg=QuadratureConfig(n=75))
    assert base == mixed


def test_rescale_rejects_singular_mixing():
    with pytest.raises(ValueError):
        phase_rescale_invariance(circle_spec(), [[1, 1], [1, 1]],
                                 cfg=QuadratureConfig(n=75))


def test_rescale_with_polynomial_mixing_entries():
    # the determinant (1 + x1^2) * 2 stays >= 2 on the band
    x1, x2 = xvar(1), xvar(2)
    plain, mixed = phase_rescale_invariance(circle_spec(), [[1 + x1 ** 2, 0], [x2, 2]],
                                            cfg=QuadratureConfig(n=101))
    assert (plain, mixed) == pytest.approx((6.265633, 6.285894), rel=1e-6)
    assert abs(mixed - plain) <= 3 * abs(plain - 2 * math.pi)
    # det = x1 vanishes where the circle crosses x1 = 0
    with pytest.raises(ValueError, match="determinant"):
        phase_rescale_invariance(circle_spec(), [[x1, 0], [0, 1]], cfg=QuadratureConfig(n=101))


# -- block culling and the dense reference sweep --------------------------------

def _shifted_sphere(m, center, radius_sq):
    out = VectorPoly.constant(m, -radius_sq)
    for i, c in enumerate(center, start=1):
        out = out + (xvar(i, m) - c) ** 2
    return out


def _torus():
    # (|x|^2 + R^2 - r^2)^2 - 4 R^2 (x1^2 + x2^2) with R = 1, r = 2/5
    x1, x2, x3 = xvar(1), xvar(2), xvar(3)
    inner = x1 ** 2 + x2 ** 2 + x3 ** 2 + Fraction(21, 25)
    return inner * inner - 4 * (x1 ** 2 + x2 ** 2)


def _dense_case(shape):
    center = (Fraction(1, 20), Fraction(-3, 100), Fraction(1, 50))
    sphere = _shifted_sphere(3, center, Fraction(11, 10))
    if shape == "sphere":
        return ImplicitSurfaceSpec(3, [sphere], BOX3)
    if shape == "circle":
        return ImplicitSurfaceSpec(3, [sphere, xvar(3) - Fraction(1, 5)], BOX3)
    if shape == "skew":
        # d1 phi = 2 x1 + x2 spans two axis tables
        x1, x2, x3 = xvar(1), xvar(2), xvar(3)
        return ImplicitSurfaceSpec(3, [x1 ** 2 + x1 * x2 + x2 ** 2 + x3 ** 2 - 1], BOX3)
    return ImplicitSurfaceSpec(3, [_torus()], BOX3)


def _sorted_rows(pts, *arrays):
    order = np.lexsort(pts.T[::-1])
    return (pts[order],) + tuple(a[order] for a in arrays)


def _assert_blades_close(got: dict, want: dict, scale: float):
    for blade in set(got) | set(want):
        assert abs(got.get(blade, 0.0) - want.get(blade, 0.0)) <= 1e-12 * scale, blade


@pytest.mark.parametrize("shape,n", [("sphere", 101), ("sphere", 201), ("circle", 101),
                                     ("circle", 201), ("torus", 101), ("skew", 101)])
def test_band_sweep_matches_dense_sweep(shape, n):
    spec = _dense_case(shape)
    cfg = QuadratureConfig(n=n)
    eps = cfg.resolve_eps(spec.box)
    sweep = _Sweep(spec, cfg)
    cellvol = sweep.cellvol
    # the torus's gradient has mixed terms and the skew quadric's d1 phi two
    # axis tables: their Gram entries come from the jacobian, not products
    assert (sweep.products is None) == (shape in ("torus", "skew"))
    ref_pts, ref_weight, ref_jac = dense_band([dict(p.terms) for p in spec.phases],
                                              spec.box, n, eps)
    pts, weight, jac, _ = _stream_columns(list(sweep.batches()))
    # the same band cells, at the same coordinates, with the same weights
    assert pts.shape == ref_pts.shape
    pts, weight, jac = _sorted_rows(pts, weight, jac)
    ref_pts, ref_weight, ref_jac = _sorted_rows(ref_pts, ref_weight, ref_jac)
    assert np.array_equal(pts, ref_pts)
    # the bump average is a difference of two nearby antiderivative values,
    # so its rounding is bounded relative to the largest weight
    assert np.abs(weight - ref_weight).max() <= 1e-12 * ref_weight.max()
    assert np.allclose(jac, ref_jac, rtol=1e-12, atol=0.0)
    # and the same sums
    f = 1 + xvar(1) * xvar(2) - xvar(3) ** 2
    fvals = poly_values(dict(f.terms), ref_pts)
    want = cellvol * float((ref_weight * blade_norms(ref_jac) * fvals).sum())
    assert abs(integrate_implicit(f, spec, cfg) - want) <= 1e-12 * abs(want)
    if shape != "torus":
        oriented = integrate_oriented(xvar(1), spec, cfg)
        want = {b: cellvol * float((ref_weight * ref_pts[:, 0] * c).sum())
                for b, c in blade_minors(ref_jac).items()}
        _assert_blades_close(oriented.terms, want, math.sqrt(oriented.norm_squared()))


def _ellipsoid_spec():
    # |D x|^2 = 1 with D = diag(1, 3/2, 2), as in the convergence test
    d = [Fraction(1), Fraction(3, 2), Fraction(2)]
    return ImplicitSurfaceSpec(3, [sum((c ** 2 * xvar(i) ** 2 for i, c in enumerate(d, start=1)),
                                       VectorPoly.constant(3, -1))], BOX3)


@pytest.mark.parametrize("shape", ["sphere", "shifted sphere", "circle", "ellipsoid"])
def test_gram_from_product_tables_is_bit_identical(shape):
    # every gradient component is one table on its own axis, so the Gram
    # entries are sums of lookups in per-axis product tables; they must be
    # the very bits of the products of the gathered jacobian's columns
    spec = {"sphere": sphere_spec(), "shifted sphere": _dense_case("sphere"),
            "circle": circle_spec(), "ellipsoid": _ellipsoid_spec()}[shape]
    cfg = QuadratureConfig(n=101)
    sweep = _Sweep(spec, cfg)
    assert sweep.products is not None
    batches = list(sweep.batches())
    assert batches
    for cells in batches:
        gram, det = cells.gram
        want_gram, want_det = _checked_gram(cells.jac)
        assert gram.shape == (spec.k, spec.k, len(cells))
        assert gram.tobytes() == want_gram.tobytes() and det.tobytes() == want_det.tobytes()


def test_constant_integrand_reads_no_coordinates_or_jacobian(monkeypatch):
    # f = 1 on a shifted sphere needs only the weights and the Gram entries,
    # which come from the product tables
    spec = _dense_case("sphere")
    cfg = QuadratureConfig(n=96)
    want = integrate_implicit(1, spec, cfg)
    reads = []
    coordinates = geomint._coordinates
    jac = geomint._BandBatch.__dict__["jac"].func

    def spy_coordinates(axes, idx):
        reads.append("coordinates")
        return coordinates(axes, idx)

    def spy_jac(cells):
        reads.append("jac")
        return jac(cells)

    monkeypatch.setattr(geomint, "_coordinates", spy_coordinates)
    monkeypatch.setattr(geomint._BandBatch, "jac", property(spy_jac))
    assert integrate_implicit(1, spec, cfg) == want
    assert reads == []
    # the spies see the reads of the integrands that need them
    integrate_implicit(xvar(1), spec, cfg)
    assert "coordinates" in reads and "jac" not in reads
    integrate_oriented(1, spec, cfg)
    assert "jac" in reads


@pytest.mark.parametrize("shape", ["sphere", "circle", "torus"])
def test_constant_integrands_agree_bit_for_bit(shape):
    # a number, a constant polynomial and a callable of ones: one value
    spec = _dense_case(shape)
    cfg = QuadratureConfig(n=96)
    values = [integrate_implicit(f, spec, cfg)
              for f in (1, VectorPoly.constant(3, 1), lambda pts: np.ones(len(pts)))]
    assert values[0] > 1.0
    assert len({v.hex() for v in values}) == 1


def _stream_columns(got):
    # the batches' points, weights, jacobian rows and boundary masks,
    # concatenated; a batch whose leaves touch no face of the box carries no
    # boundary mask, and all its cells are interior
    assert all(len(item.points) <= geomint._BATCH_CELLS for item in got)
    masks = [np.zeros(len(item.points), dtype=bool) if item.bmask is None else item.bmask
             for item in got]
    return (*(np.concatenate([getattr(item, name) for item in got])
              for name in ("points", "weight", "jac")), np.concatenate(masks))


def _stream_rows(spec, n, cut=None):
    sweep = _Sweep(spec, QuadratureConfig(n=n), cut)
    return _sorted_rows(*_stream_columns(list(sweep.batches())))


def _face_spec():
    # a circle of radius 1/4 about (6/5, 0), its phase scaled to a unit
    # gradient on it: its band crosses x1 = 1.6 and no other face
    return ImplicitSurfaceSpec(2, [2 * _shifted_sphere(2, (Fraction(6, 5), 0), Fraction(1, 16))],
                               BOX2)


@pytest.mark.parametrize("shape,n", [("sphere", 101), ("circle", 101), ("no phases", 201),
                                     ("face", 101)])
def test_band_does_not_depend_on_batch_or_block_size(shape, n, monkeypatch):
    # n = 101 leaves ragged blocks at the grid edge for every block size
    if shape == "no phases":
        spec = ImplicitSurfaceSpec(2, [], BOX2)
    else:
        spec = _face_spec() if shape == "face" else _dense_case(shape)
    pts, weight, jac, bmask = _stream_rows(spec, n)
    # _BLOCK is the leaf size (4 by default); a batch of 64 cells caps the
    # top grid at 64 blocks, so the culling descends two to four levels
    for batch, block in ((1000, 8), (64, 8), (1000, 2)):
        monkeypatch.setattr(geomint, "_BATCH_CELLS", batch)
        monkeypatch.setattr(geomint, "_BLOCK", block)
        got_pts, got_weight, got_jac, got_bmask = _stream_rows(spec, n)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_bmask, bmask)
        assert np.abs(got_weight - weight).max() <= 1e-14 * weight.max()
        assert np.allclose(got_jac, jac, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [101, 100])
@pytest.mark.parametrize("batch", [8192, 64])
def test_boundary_contact_in_a_ragged_edge_leaf(batch, n, monkeypatch):
    # at n = 101 the last leaf along each axis holds one cell, the boundary
    # cell 100 (at n = 100, a whole leaf of four); the band of the face
    # circle reaches it on axis 0 only, and its flags must still be exact
    monkeypatch.setattr(geomint, "_BATCH_CELLS", batch)
    spec = _face_spec()
    cfg = QuadratureConfig(n=n)
    sweep = _Sweep(spec, cfg)
    got = list(sweep.batches())
    flagged = [item for item in got if item.bmask is not None]
    assert flagged
    pts, _, _, bmask = _stream_columns(got)
    assert np.array_equal(bmask, pts[:, 0] > 1.6 - sweep.spacings[0])
    assert bmask.any()
    with pytest.raises(BoundaryContactError):
        integrate_implicit(1, spec, cfg)


def _heaviside_fraction(phi, pts, spacings):
    # the linearized share of each cell with phi < 0, from the oracle's evaluator
    span = sum(h * np.abs(poly_values(dict(phi.diff(1, i + 1).terms), pts))
               for i, h in enumerate(spacings))
    vals = poly_values(dict(phi.terms), pts)
    return np.clip(0.5 - vals / np.maximum(span, 1e-300), 0.0, 1.0)


@pytest.mark.parametrize("case,n", [("circle", 101), ("circle", 160), ("disk", 201),
                                    ("disk", 402)])
def test_cut_band_keeps_every_cell_of_the_cut(case, n):
    # the band cut by H(-phi) is the uncut band's cells with a positive
    # Heaviside fraction, at the same coordinates, their weight times that
    # fraction; 201 and 402 leave ragged blocks at the grid edge
    if case == "circle":
        spec, phi = _dense_case("circle"), xvar(1) - Fraction(1, 10)
    else:
        spec = ImplicitSurfaceSpec(2, [], BOX2)
        phi = _shifted_sphere(2, (Fraction(1, 20), Fraction(-3, 100)), 1)
    sweep = _Sweep(spec, QuadratureConfig(n=n), phi)
    pts, weight, jac, bmask = _stream_rows(spec, n)
    frac = _heaviside_fraction(phi, pts, sweep.spacings)
    inside = frac > 0.0
    assert 0 < inside.sum() < len(pts)
    cut_pts, cut_weight, cut_jac, cut_bmask = _stream_rows(spec, n, phi)
    assert np.array_equal(cut_pts, pts[inside])
    assert np.array_equal(cut_bmask, bmask[inside])
    want = weight[inside] * frac[inside]
    assert np.abs(cut_weight - want).max() <= 1e-14 * want.max()
    assert np.allclose(cut_jac, jac[inside], rtol=1e-14, atol=0.0)
    if case == "disk":
        # the disk holds about 31 % of the grid; the block test with the cut
        # rules out most of the rest before any cell is evaluated
        leaf = sweep.leaf
        leaves = geomint._band_leaves([], sweep.eps, sweep.axes, leaf, sweep.cut, sweep.top)
        assert sum(map(len, leaves)) * leaf ** 2 < 0.45 * n * n


def test_cut_band_keeps_cells_where_phi_and_its_span_vanish():
    # phi = 0 gives every cell the Heaviside fraction 1/2: a block test
    # that dropped blocks with phi >= span/2 instead of > would drop them all
    spec = ImplicitSurfaceSpec(2, [], BOX2)
    got = list(_Sweep(spec, QuadratureConfig(n=64), VectorPoly.zero(2)).batches())
    weight = np.concatenate([item.weight for item in got])
    assert len(weight) == 64 * 64 and np.all(weight == 0.5)


def test_steep_cut_on_a_cell_of_zero_span_clips_without_warning():
    # at n = 41 on [-1, 1]^2 the middle cell has midpoint 0.0 on both axes,
    # so the cut 10^9 (|x|^2 - 1/4) has span 0 and phi = -2.5e8 there: its
    # quotient by the 1e-300 floor overflows to an infinity, which clips
    # like any large value, and must not warn
    phi = 10**9 * (xvar(1, 2) ** 2 + xvar(2, 2) ** 2 - Fraction(1, 4))
    box = ((-1.0, 1.0),) * 2
    spec = ImplicitSurfaceSpec(2, [], box)
    cfg = QuadratureConfig(n=41)
    axes = _Sweep(spec, cfg).axes
    assert axes[0][20] == axes[1][20] == 0.0
    res = cauchy_check(1, xvar(1, 2), phi, spec, cfg)
    # G = x1 has Dirac derivative e1, so the left side is the disk's area on e1
    assert set(res.lhs.terms) == {(1,)}
    assert res.lhs.terms[(1,)] == pytest.approx(math.pi / 4, rel=1e-2)


# -- one-axis phases by lookup and the sweep's boundary decision ------------------

def _lookup_batches(spec, n, cut=None):
    # the sweep's batches, and the same sweep with every phase and the cut
    # read cell by cell: the lookups must give the same cells, weights and
    # boundary masks, bit for bit
    sweep = _Sweep(spec, QuadratureConfig(n=n), cut)
    assert any(test.axis is not None for test in sweep.tests)
    cell_path = _Sweep(spec, QuadratureConfig(n=n), cut)
    cell_path.lookups = [None] * len(cell_path.tests)
    got = list(sweep.batches())
    want = list(cell_path.batches())
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.idx.tobytes() == b.idx.tobytes()
        assert a.weight.tobytes() == b.weight.tobytes()
        assert (a.bmask is None) == (b.bmask is None)
        assert a.bmask is None or np.array_equal(a.bmask, b.bmask)
    return got


def _assert_band_matches_dense(spec, n, got):
    # the same band cells as the dense sweep, at the same coordinates, with
    # the same weights and gradients (as in test_band_sweep_matches_dense_sweep)
    eps = QuadratureConfig(n=n).resolve_eps(spec.box)
    ref_pts, ref_weight, ref_jac = dense_band([dict(p.terms) for p in spec.phases],
                                              spec.box, n, eps)
    pts, weight, jac, _ = _stream_columns(got)
    assert pts.shape == ref_pts.shape
    pts, weight, jac = _sorted_rows(pts, weight, jac)
    ref_pts, ref_weight, ref_jac = _sorted_rows(ref_pts, ref_weight, ref_jac)
    assert np.array_equal(pts, ref_pts)
    assert np.abs(weight - ref_weight).max() <= 1e-12 * ref_weight.max()
    assert np.allclose(jac, ref_jac, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", ["sphere and x1", "sphere and x3", "x1 and x3"])
def test_plane_phases_by_lookup_match_dense_sweep(case):
    # k = 2 with a plane on the first axis, on the last, and on both; n = 101
    # leaves ragged leaves at the grid edge
    center = (Fraction(1, 20), Fraction(-3, 100), Fraction(1, 50))
    sphere = _shifted_sphere(3, center, Fraction(11, 10))
    first, last = xvar(1) - Fraction(1, 10), xvar(3) - Fraction(1, 5)
    phases = {"sphere and x1": [sphere, first], "sphere and x3": [sphere, last],
              "x1 and x3": [first, last]}[case]
    spec = ImplicitSurfaceSpec(3, phases, BOX3)
    n = 101
    got = _lookup_batches(spec, n)
    _assert_band_matches_dense(spec, n, got)
    # the Gram entries sum the products over the axes where both gradients
    # have a table, one lookup with a plane (none between the two planes):
    # the bits of the jacobian's column products over every axis
    for cells in got:
        gram, det = cells.gram
        want_gram, want_det = _checked_gram(cells.jac)
        assert gram.tobytes() == want_gram.tobytes() and det.tobytes() == want_det.tobytes()
    if case != "x1 and x3":
        # the line of the two planes crosses the box; the circles do not
        cfg = QuadratureConfig(n=n)
        cellvol = _Sweep(spec, cfg).cellvol
        pts, weight, jac, _ = _stream_columns(got)
        want = cellvol * float((weight * blade_norms(jac) * pts[:, 1]).sum())
        assert abs(integrate_implicit(xvar(2), spec, cfg) - want) <= 1e-12 * abs(want)


def test_one_axis_cut_by_lookup_matches_dense_cauchy():
    # the cut x1^3 - x1/3 + 1/7, one root near x1 = -0.72, of several terms:
    # its axis table has the bits of the term-by-term value on the cells, so
    # the left side's fractions and the right side's phase come from lookups
    spec = _dense_case("circle")
    x1 = xvar(1)
    phi = x1 ** 3 - Fraction(1, 3) * x1 + Fraction(1, 7)
    n = 101
    got = _lookup_batches(spec, n, phi)
    spacings = _Sweep(spec, QuadratureConfig(n=n)).spacings
    pts, weight, _, _ = _stream_rows(spec, n)
    frac = _heaviside_fraction(phi, pts, spacings)
    inside = frac > 0.0
    assert 0 < inside.sum() < len(pts)
    cut_pts, cut_weight, _, _ = _sorted_rows(*_stream_columns(got))
    assert np.array_equal(cut_pts, pts[inside])
    want = weight[inside] * frac[inside]
    assert np.abs(cut_weight - want).max() <= 1e-14 * want.max()
    f, g = CliffordPoly.from_scalar(3, 1), CliffordPoly.from_poly(xvar(2))
    cfg = QuadratureConfig(n=n)
    res = cauchy_check(f, g, phi, spec, cfg)
    fields = [{b: dict(p.terms) for b, p in c.terms.items()} for c in (f, g)]
    lhs, rhs = dense_cauchy(*fields, dict(phi.terms), [dict(p.terms) for p in spec.phases],
                            spec.box, n, cfg.resolve_eps(spec.box))
    assert res.lhs.norm_squared() > 0.01 and res.rhs.norm_squared() > 0.01
    _assert_blades_close(res.lhs.terms, lhs, math.sqrt(res.lhs.norm_squared()))
    _assert_blades_close(res.rhs.terms, rhs, math.sqrt(res.rhs.norm_squared()))


def test_one_axis_phase_with_a_zero_span_entry_takes_the_midpoint():
    # x2^2 - 1/100 has a band that covers x2 = 0, where its span vanishes: at
    # odd n a midpoint lies there, so the delta kernel's narrow branch runs
    # on that axis entry; n = 101 leaves ragged leaves
    spec = ImplicitSurfaceSpec(2, [xvar(2, 2) ** 2 - Fraction(1, 100)], BOX2)
    n = 101
    sweep = _Sweep(spec, QuadratureConfig(n=n))
    (test,) = sweep.tests
    assert test.axis == 1
    inside, _ = geomint._axis_lookup(test, sweep.eps, False)
    span = test.span_tables[0][1]
    assert np.any(inside & (span <= 1e-9 * sweep.eps))
    _assert_band_matches_dense(spec, n, _lookup_batches(spec, n))


def test_plane_delta_values_run_once_per_sweep(monkeypatch):
    # the plane x3 = 1/5 spans the box: its band fills several batches, but
    # its delta values are computed once, on the axis entries in its band
    calls = []
    delta_values = geomint._delta_values

    def spy(vals, eps, span):
        calls.append(len(vals))
        return delta_values(vals, eps, span)

    monkeypatch.setattr(geomint, "_delta_values", spy)
    spec = ImplicitSurfaceSpec(3, [xvar(3) - Fraction(1, 5)], BOX3)
    n = 64
    batches = list(_Sweep(spec, QuadratureConfig(n=n)).batches())
    assert len(batches) > 1
    assert len(calls) == 1 and 0 < calls[0] < n
    # the band is every cell whose x3 index is one of those entries
    cells = np.concatenate([item.idx for item in batches], axis=1)
    assert cells.shape[1] == n * n * calls[0]


def _one_top_block_face_spec():
    # a circle of radius 1/12 about (31/20, 1/5), its phase scaled by 16 so
    # that its band is thin: with 64-cell batches the top grid has blocks of
    # 16 cells per axis, and the band reaches the face x1 = 1.6 in one kept
    # top block
    return ImplicitSurfaceSpec(
        2, [16 * _shifted_sphere(2, (Fraction(31, 20), Fraction(1, 5)), Fraction(1, 144))], BOX2)


def test_boundary_contact_in_one_top_block(monkeypatch):
    monkeypatch.setattr(geomint, "_BATCH_CELLS", 64)
    spec = _one_top_block_face_spec()
    n = 101
    cfg = QuadratureConfig(n=n)
    sweep = _Sweep(spec, cfg)
    eps, spacings, cellvol = sweep.eps, sweep.spacings, sweep.cellvol
    top, size = sweep.top
    face = [np.logical_or.reduceat(e, np.arange(0, n, size)) for e in sweep.edges]
    assert size == 16 and (face[0][top[:, 0]] | face[1][top[:, 1]]).sum() == 1
    batches = list(sweep.batches())
    assert all(item.bmask is not None for item in batches)
    # the message carries the boundary and total magnitudes of the dense sweep
    pts, weight, jac = dense_band([dict(p.terms) for p in spec.phases], spec.box, n, eps)
    mags = cellvol * weight * blade_norms(jac)
    edge = np.zeros(len(pts), dtype=bool)
    for i, h in enumerate(spacings):
        edge |= (pts[:, i] < -1.6 + h) | (pts[:, i] > 1.6 - h)
    with pytest.raises(BoundaryContactError) as info:
        integrate_implicit(1, spec, cfg)
    assert str(info.value) == (
        f"surface band carries weight {mags[edge].sum():g} in boundary cells "
        f"(total magnitude {mags.sum():g}); enlarge the box or rescale the phases "
        f"(eps is in phase units)")


class _UfuncSpy(np.ndarray):
    # a column that records the numpy functions applied to it
    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _UfuncSpy.calls.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _UfuncSpy) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        # the functions that are not ufuncs, such as np.vdot
        _UfuncSpy.calls.append(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


@pytest.mark.parametrize("shape", ["sphere", "circle", "face"])
def test_interior_sweep_sums_no_magnitudes(shape, monkeypatch):
    # a sweep whose kept top blocks hold no boundary cell can raise no
    # boundary contact: it sums the columns against the weights and nothing
    # else, in the same order as every sweep
    monkeypatch.setattr(_UfuncSpy, "calls", [])
    spec = _face_spec() if shape == "face" else _dense_case(shape)
    cfg = QuadratureConfig(n=101)
    sweep = _Sweep(spec, cfg)
    f = 1 + xvar(1, spec.m) * xvar(2, spec.m)

    def density(cells):
        col = geomint._field_values(f, cells) * np.sqrt(cells.gram[1])
        return {(): col.view(_UfuncSpy)}

    want = 0.0
    batches = list(sweep.batches())
    for cells in batches:
        want += float(geomint._field_values(f, cells) * np.sqrt(cells.gram[1])
                      @ (cells.weight * sweep.cellvol))
    if shape == "face":
        assert all(item.bmask is not None for item in batches)
        with pytest.raises(BoundaryContactError):
            sweep.sum(density)
        assert "absolute" in _UfuncSpy.calls
        return
    assert not any(item.bmask is not None for item in batches)
    assert sweep.sum(density)[()] == want
    assert "vdot" in _UfuncSpy.calls and "absolute" not in _UfuncSpy.calls


@pytest.mark.parametrize("n", [101, 201])
def test_classical_cauchy_matches_dense_sweep(n):
    spec = ImplicitSurfaceSpec(2, [], BOX2)
    phi = _shifted_sphere(2, (Fraction(1, 20), Fraction(-3, 100)), 1)
    x1, x2 = xvar(1, 2), xvar(2, 2)
    f = CliffordPoly.from_scalar(2, 1) + CliffordPoly.basis(2, (1,)) * x2
    g = CliffordPoly.from_poly(x1) + CliffordPoly.basis(2, (1, 2)) * (x1 * x2)
    cfg = QuadratureConfig(n=n)
    res = cauchy_check(f, g, phi, spec, cfg)
    fields = [{b: dict(p.terms) for b, p in c.terms.items()} for c in (f, g)]
    lhs, rhs = dense_cauchy_classical(*fields, dict(phi.terms), spec.box, n,
                                      cfg.resolve_eps(spec.box))
    _assert_blades_close(res.lhs.terms, lhs, math.sqrt(res.lhs.norm_squared()))
    _assert_blades_close(res.rhs.terms, rhs, math.sqrt(res.rhs.norm_squared()))


@pytest.mark.parametrize("n", [101, 201])
@pytest.mark.parametrize("case", ["both terms", "constant F"])
def test_circle_cauchy_matches_dense_sweep(n, case):
    # k = 2: the shifted circle cut by x1 = 1/10.  With both fields varying
    # both terms of the left side run; with F = 1 the (F d_T) W G term drops
    spec = _dense_case("circle")
    phi = xvar(1) - Fraction(1, 10)
    x1, x2, x3 = xvar(1), xvar(2), xvar(3)
    if case == "both terms":
        f = (CliffordPoly.from_scalar(3, 1) + CliffordPoly.basis(3, (1,)) * x2
             + CliffordPoly.basis(3, (2, 3)) * (x1 * x3))
        g = CliffordPoly.from_poly(x1 * x3) + CliffordPoly.basis(3, (1, 2)) * (x2 - x3 ** 2)
    else:
        f, g = CliffordPoly.from_scalar(3, 1), CliffordPoly.from_poly(x2)
    cfg = QuadratureConfig(n=n)
    res = cauchy_check(f, g, phi, spec, cfg)
    fields = [{b: dict(p.terms) for b, p in c.terms.items()} for c in (f, g)]
    lhs, rhs = dense_cauchy(*fields, dict(phi.terms), [dict(p.terms) for p in spec.phases],
                            spec.box, n, cfg.resolve_eps(spec.box))
    assert res.lhs.norm_squared() > 0.01 and res.rhs.norm_squared() > 0.01
    _assert_blades_close(res.lhs.terms, lhs, math.sqrt(res.lhs.norm_squared()))
    _assert_blades_close(res.rhs.terms, rhs, math.sqrt(res.rhs.norm_squared()))


@st.composite
def _bound_cases(draw):
    m = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        key = tuple(draw(st.integers(0, 4)) for _ in range(m))
        if sum(key) <= 4:
            terms[key] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=8))
    ranges = []
    for _ in range(m):
        # eighths, so that many intervals straddle zero and some are points
        los = draw(st.lists(st.integers(-24, 16), min_size=1, max_size=3))
        widths = draw(st.lists(st.integers(0, 32), min_size=len(los), max_size=len(los)))
        ranges.append((np.array(los) / 8, (np.array(los) + np.array(widths)) / 8))
    return VectorPoly(m, 1, terms), ranges, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_bound_cases())
def test_block_bound_contains_phase(case):
    p, ranges, seed = case
    m = len(ranges)
    rng = np.random.default_rng(seed)

    def assert_encloses(a, b, lo, hi):
        # the corners, the point nearest the origin and random points
        corners = np.array([np.where(bits, b, a) for bits in np.ndindex((2,) * m)])
        pts = np.concatenate([corners, np.clip(0.0, a, b)[None, :],
                              a + (b - a) * rng.random((32, m))])
        vals = poly_values(dict(p.terms), pts)
        assert np.all(lo <= vals) and np.all(vals <= hi)

    # the product grid: axis i's ends lie along dimension i
    grid = [tuple(e.reshape([-1 if j == i else 1 for j in range(m)]) for e in ends)
            for i, ends in enumerate(ranges)]
    lo, hi = _interval_bounds(p, grid)
    boxes = list(np.ndindex(lo.shape))
    box_ends = [(np.array([ranges[i][0][box[i]] for i in range(m)]),
                 np.array([ranges[i][1][box[i]] for i in range(m)])) for box in boxes]
    for box, (a, b) in zip(boxes, box_ends):
        assert_encloses(a, b, lo[box], hi[box])
    # the list of boxes, as the culling descent passes them: the same boxes
    # in a random order, with repeats, one 1-d entry per box
    picks = rng.integers(0, len(boxes), 2 * len(boxes) + 1)
    listed = [(np.array([box_ends[j][0][i] for j in picks]),
               np.array([box_ends[j][1][i] for j in picks])) for i in range(m)]
    llo, lhi = _interval_bounds(p, listed)
    assert llo.shape == lhi.shape == picks.shape
    for j, box_lo, box_hi in zip(picks, llo, lhi):
        assert_encloses(*box_ends[j], box_lo, box_hi)


@st.composite
def _table_cases(draw):
    # single-axis, mixed and constant terms in R^1 to R^4, on a random box
    m = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["single", "mixed", "constant"]))
        key = [0] * m
        if kind == "single":
            key[draw(st.integers(0, m - 1))] = draw(st.integers(1, 5))
        elif kind == "mixed":
            key = [draw(st.integers(0, 3)) for _ in range(m)]
        terms[tuple(key)] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=8))
    box = []
    for _ in range(m):
        lo = draw(st.integers(-24, 8)) / 8
        box.append((lo, lo + draw(st.integers(1, 32)) / 8))
    n = draw(st.integers(1, 40))
    return (VectorPoly(m, 1, terms), box, n, draw(st.integers(0, m - 1)),
            draw(st.integers(1, 60)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_table_cases())
def test_axis_tables_match_poly_on_points(case):
    p, box, n, home, count, seed = case
    m = p.m
    spacings = [(hi - lo) / n for lo, hi in box]
    axes = [lo + h * (np.arange(n) + 0.5) for (lo, _), h in zip(box, spacings)]
    idx = np.random.default_rng(seed).integers(0, n, (m, count))
    # column-major coordinates, as the sweep holds them
    cols = np.array([ax.take(row) for ax, row in zip(axes, idx)])

    def magnitude(q):
        # sum |c x^alpha|, the rounding scale of a sum of terms
        return geomint.poly_on_points(VectorPoly(m, 1, {key: abs(c) for key, c in q.terms.items()}),
                                      np.abs(cols.T))

    got = geomint._AxisTables(p, axes, home).values(idx, cols)
    want = geomint.poly_on_points(p, cols.T)
    if sum(1 for i in range(m) if any(key[i] for key in p.terms)) <= 1:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-13 * magnitude(p))
    # the span sum_i h_i |d_i p| from the per-axis span tables and the rest
    span = geomint._PhaseTables(p, axes, spacings).span(idx, cols)
    grads = [p.diff(1, i + 1) for i in range(m)]
    want = sum(h * np.abs(geomint.poly_on_points(g, cols.T)) for h, g in zip(spacings, grads))
    scale = sum(h * magnitude(g) for h, g in zip(spacings, grads))
    assert np.all(np.abs(span - want) <= 1e-13 * scale)


def _cells_kept(test, eps, idx, cols, is_cut):
    # the sweep's per-cell test: a phase's band test, or the cut's fraction
    span = test.span(idx, cols)
    if is_cut:
        vals = geomint.poly_on_points(test.phi, cols.T)
        return np.clip(0.5 - vals / np.maximum(span, 1e-300), 0.0, 1.0) > 0.0
    return np.abs(test.value.values(idx, cols)) < eps + 0.5 * span


@pytest.mark.parametrize("m,n", [(2, 37), (2, 40), (3, 27)])
def test_block_bounds_hold_every_kept_cell(m, n):
    # every block of every level size, each phase and the cut on their own:
    # a dropped block holds no cell that the per-cell test keeps.  The skew
    # quadric has a remainder x1 x2 and d1 phi = 2 x1 + x2 over two axis
    # tables; the torus has remainders in its value and every gradient
    # component; the cut x1 x3 + x2 - 1/5 (x1 - x2/3 - 1/10 at m = 2) has its
    # value bounded term by term; n = 37 and 27 leave ragged blocks
    x = [xvar(i, m) for i in range(1, m + 1)]
    skew = x[0] ** 2 + x[0] * x[1] + x[1] ** 2 - 1
    if m == 2:
        phases = [skew, _shifted_sphere(2, (Fraction(1, 10), Fraction(-1, 5)), 1)]
        cut = x[0] - Fraction(1, 3) * x[1] - Fraction(1, 10)
    else:
        phases = [skew + x[2] ** 2, _torus(), _shifted_sphere(3, (Fraction(1, 20),) * 3, 1)]
        cut = x[0] * x[2] + x[1] - Fraction(1, 5)
    box = ((-1.6, 1.6),) * m
    cfg = QuadratureConfig(n=n)
    sweep = _Sweep(ImplicitSurfaceSpec(m, [], box), cfg)
    eps, axes, spacings = sweep.eps, sweep.axes, sweep.spacings
    idx = np.indices((n,) * m).reshape(m, -1)
    cols = np.array([ax.take(row) for ax, row in zip(axes, idx)])
    cases = [(geomint._PhaseTables(phi, axes, spacings), False) for phi in phases]
    cases.append((geomint._PhaseTables(cut, axes, spacings), True))
    for test, is_cut in cases:
        keep = _cells_kept(test, eps, idx, cols, is_cut)
        assert 0 < keep.sum() < keep.size
        size = 1
        while size < 2 * n:
            index = [np.arange(-(-n // size)).reshape([-1 if j == i else 1 for j in range(m)])
                     for i in range(m)]
            alive = (geomint._may_reach_band([], eps, axes, index, size, test) if is_cut
                     else geomint._may_reach_band([test], eps, axes, index, size, None))
            assert alive[tuple(idx[:, keep] // size)].all(), (test.phi, size)
            if size == 1 and not is_cut and not test.needs_cols:
                # on single cells the table bounds are the cells' own values
                assert np.array_equal(alive[tuple(idx)], keep)
            if size <= 4:
                assert not alive.all()
            size *= 2


@pytest.mark.parametrize("n", [101, 64])
def test_boundary_flags_match_the_predicate_on_the_points(n):
    # the plane x1 = 1/10 has a band that spans the box along x2 and x3, so it
    # reaches four faces; the box is not symmetric, and 101 leaves ragged blocks
    box = ((-1.6, 1.6), (-1.2, 2.0), (-2.0, 1.3))
    spec = ImplicitSurfaceSpec(3, [xvar(1) - Fraction(1, 10)], box)
    sweep = _Sweep(spec, QuadratureConfig(n=n))
    pts, _, _, bmask = _stream_columns(list(sweep.batches()))
    # the boundary test of the sweep before its per-axis tables
    want = np.zeros(len(pts), dtype=bool)
    for i, ((lo, hi), h) in enumerate(zip(box, sweep.spacings)):
        want |= (pts[:, i] < lo + h) | (pts[:, i] > hi - h)
    assert np.array_equal(bmask, want)
    assert 0 < bmask.sum() < len(pts)


def test_s3_quadrature_in_bounded_memory():
    # a dense slab at m = 4, n = 64 holds 64^3 points; the band sweep
    # works on batches of a few thousand cells
    tracemalloc.start()
    try:
        val = integrate_implicit(1, sphere_spec(4), QuadratureConfig(n=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(2 * math.pi ** 2, rel=1e-2)
    assert peak < 8e6


@pytest.mark.parametrize("m,n,leaf,count", [(4, 160, 4, 127104), (5, 80, 2, 3357856)])
def test_band_culling_in_bounded_memory(m, n, leaf, count):
    # the leaf sizes the band sweep uses at m = 4 and 5; the grid at m = 5,
    # n = 80 has 40^5 leaves, and one flat test of even their 20^5 parents
    # holds about 285 MB
    spec = sphere_spec(m)
    sweep = _Sweep(spec, QuadratureConfig(n=n))
    eps, axes, tests = sweep.eps, sweep.axes, sweep.phases
    assert sweep.leaf == leaf
    tracemalloc.start()
    try:
        top = geomint._top_blocks(tests, eps, axes, leaf, None)
        kept = sum(len(g) for g in geomint._band_leaves(tests, eps, axes, leaf, None, top))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == count
    assert peak < 16e6


# -- frames and the tangential Dirac operator ---------------------------------

def test_sphere_frames_at_axis_point():
    normals, tangents = tangent_normal_frames(sphere_spec(), [1.0, 0.0, 0.0])
    assert normals.shape == (1, 3) and tangents.shape == (2, 3)
    assert np.allclose(np.abs(normals[0]), [1, 0, 0])
    # tangents orthonormal and orthogonal to the normal
    basis = np.vstack([normals, tangents])
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
    assert np.allclose(tangents @ normals.T, 0, atol=1e-12)


def test_circle_frames_at_axis_point():
    normals, tangents = tangent_normal_frames(circle_spec(), [1.0, 0.0, 0.0])
    # normals span {e1, e3}; the single tangent is +-e2
    span = np.abs(normals.T @ normals)
    assert span[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert span[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(tangents[0]), [0, 1, 0], atol=1e-12)


def test_circle_frames_at_random_points():
    spec = circle_spec()
    e1 = CliffordPoly.basis(3, (1,))
    field = e1 * (xvar(1) * xvar(2)) + CliffordPoly.from_poly(xvar(2) ** 2)
    for t in np.random.default_rng(21).uniform(0.0, 2 * math.pi, 8):
        x = [math.cos(t), math.sin(t), 0.0]
        normals, tangents = tangent_normal_frames(spec, x)
        grads = np.array([[2 * x[0], 2 * x[1], 0.0], [0.0, 0.0, 1.0]])
        # the normals span the gradients: projecting onto them changes nothing
        assert np.allclose(grads @ normals.T @ normals, grads, atol=1e-12)
        basis = np.vstack([normals, tangents])
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        # hand-built unit tangent tau: d_par F = tau (tau . grad) F
        tau = [-math.sin(t), math.cos(t), 0.0]
        d_x1x2 = tau[0] * x[1] + tau[1] * x[0]
        d_x2sq = tau[1] * 2 * x[1]
        expected = Multivector.from_vector(tau) * (Multivector.basis(3, (1,)) * d_x1x2 + d_x2sq)
        residual = tangential_dirac(field, spec, x) - expected
        assert all(abs(c) < 1e-12 for c in residual.terms.values())


def test_frames_require_surface_point():
    with pytest.raises(ValueError):
        tangent_normal_frames(sphere_spec(), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("spec,point", [
    (sphere_spec(), [math.nan, 0.0, 0.0]),
    (sphere_spec(), [1.0, math.nan, 0.0]),
    # 10^307 x1^8 overflows at x1 = 1.5: phi is inf there, and the test of
    # it must neither warn nor defer to the range check of the tables
    (ImplicitSurfaceSpec(2, [10**307 * xvar(1, 2) ** 8 + xvar(2, 2) ** 2 - 1], BOX2), [1.5, 0.0]),
], ids=["point0", "point1", "overflow"])
def test_nan_point_is_not_on_the_surface(spec, point):
    # |phi| > tol is False for NaN, so the on-surface test must be not <=
    with pytest.raises(ValueError, match="not on the surface"):
        tangential_dirac(xvar(1, spec.m), spec, point)
    with pytest.raises(ValueError, match="not on the surface"):
        tangent_normal_frames(spec, point)


def test_tangential_dirac_values():
    spec = sphere_spec()
    assert tangential_dirac(VectorPoly.constant(3, 5), spec,
                            [1.0, 0.0, 0.0]).is_zero()
    out = tangential_dirac(xvar(3), spec, [1.0, 0.0, 0.0])
    assert out == Multivector.basis(3, (3,))
    out = tangential_dirac(xvar(2), circle_spec(), [1.0, 0.0, 0.0])
    assert out == Multivector.basis(3, (2,))


def test_tangential_dirac_in_r10_builds_only_the_rows_it_uses():
    # the operator multiplies by the m vectors e_i: only those products
    # enter the blade-product cache, not all 4^m (about 213 MB at m = 10)
    _mul_blades.cache_clear()
    point = [0.0, 1.0] + [0.0] * 8
    tracemalloc.start()
    try:
        out = tangential_dirac(xvar(1, 10), sphere_spec(10), point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == Multivector.basis(10, (1,))  # P_T e1 = e1 at e2
    assert peak < 16e6


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (3, 2)])
def test_tangential_dirac_matches_frame_free_oracle(m, k):
    # S^2, S^3 and the unit circle in the x1 x2 plane of R^3
    x = [xvar(i, m) for i in range(1, m + 1)]
    phases = [sphere_phase(m)] + [x[2]] * (k - 1)
    spec = ImplicitSurfaceSpec(m, phases, ((-1.6, 1.6),) * m)
    field = (CliffordPoly.basis(m, (1,)) * (x[0] * x[1])
             + CliffordPoly.basis(m, (1, 2)) * x[m - 1] ** 2
             + CliffordPoly.from_poly(x[1] ** 3 - 2 * x[0]))
    field_terms = {b: dict(c.terms) for b, c in field.terms.items()}
    phase_terms = [dict(p.terms) for p in phases]
    rng = np.random.default_rng(30 + 10 * m + k)
    for _ in range(8):
        point = rng.standard_normal(m)
        if k == 2:
            point[2] = 0.0
        point /= np.linalg.norm(point)
        want = tangential_dirac_frame_free(field_terms, phase_terms, point)
        scale = max(1.0, math.sqrt(sum(c * c for c in want.values())))
        _assert_blades_close(tangential_dirac(field, spec, point).terms, want, scale)


# -- column-sparse Clifford batches --------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_columns_mul_matches_multivector_product(m):
    rng = np.random.default_rng(40 + m)
    blades = [b for k in range(m + 1) for b in blades_of_grade(m, k)]
    scalar, pseudo = (), tuple(range(1, m + 1))
    n = 7
    for _ in range(6):
        batches = []
        for _ in range(2):
            keys = {scalar, pseudo} | {blades[i] for i in
                                       rng.choice(len(blades), rng.integers(0, len(blades) + 1))}
            batches.append({b: rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
                            for b in keys})
        a, b = batches
        got = _columns_mul(a, b)
        for p in range(n):
            want = (Multivector(m, {blade: float(col[p]) for blade, col in a.items()})
                    * Multivector(m, {blade: float(col[p]) for blade, col in b.items()})).terms
            # the coefficient products sum in magnitude to |a|_1 |b|_1 at the point
            scale = (sum(abs(col[p]) for col in a.values())
                     * sum(abs(col[p]) for col in b.values()))
            assert set(want) <= set(got)
            for blade, col in got.items():
                assert abs(col[p] - want.get(blade, 0.0)) <= 1e-12 * scale


# -- boundary-value check ------------------------------------------------------

def test_cauchy_constant_case_cancels():
    res = cauchy_check(1, 1, xvar(1), circle_spec(), QuadratureConfig(n=101))
    # both boundary contributions cancel by symmetry
    assert np.isclose(res.lhs.coefficient((1, 2, 3)), 0.0, atol=1e-8)
    assert np.isclose(res.rhs.coefficient((1, 2, 3)), 0.0, atol=1e-8)


def test_cauchy_circle_case():
    res = cauchy_check(1, xvar(2), xvar(1), circle_spec(), QuadratureConfig(n=101))
    assert res.residual < 0.02
    assert res.lhs.coefficient((1, 2, 3)) == pytest.approx(2.0, rel=0.02)
    assert res.rhs.coefficient((1, 2, 3)) == pytest.approx(2.0, rel=0.02)


def test_cauchy_classical_case():
    spec = ImplicitSurfaceSpec(2, [], BOX2)
    phi = VectorPoly.norm_squared_var(2, 1) - 1
    res = cauchy_check(1, xvar(1, 2), phi, spec, QuadratureConfig(n=101))
    assert res.residual < 0.02
    assert res.lhs.coefficient((1,)) == pytest.approx(math.pi, rel=0.02)


def test_cauchy_boundary_contact_detected():
    # the unit circle in [-1, 1]^2: its band reaches the boundary cells
    spec = ImplicitSurfaceSpec(2, [], ((-1.0, 1.0),) * 2)
    phi = VectorPoly.norm_squared_var(2, 1) - 1
    with pytest.raises(BoundaryContactError):
        cauchy_check(1, xvar(1, 2), phi, spec, QuadratureConfig(n=101))


def test_cauchy_transversality_does_not_depend_on_phi_scale():
    # the classical disk with phi scaled by 1e-7: grad phi is plainly
    # transversal, so the verdict is the boundary contact of phi's wide band
    spec = ImplicitSurfaceSpec(2, [], BOX2)
    phi = (VectorPoly.norm_squared_var(2, 1) - 1) * Fraction(1, 10**7)
    with pytest.raises(BoundaryContactError):
        cauchy_check(1, xvar(1, 2), phi, spec, QuadratureConfig(n=96))


def test_cauchy_rejects_k_equal_to_m():
    # the unit circle cut by x2 = 0 in R^2 is two points: no surface to check
    spec = ImplicitSurfaceSpec(2, [sphere_phase(2), xvar(2, 2)], BOX2)
    with pytest.raises(ValueError, match="k < m"):
        cauchy_check(1, 1, xvar(1, 2), spec, QuadratureConfig(n=64))


@pytest.mark.parametrize("cuts", [0, 1])
def test_cauchy_right_side_is_the_oriented_integral_of_the_cut(cuts):
    # k = 1: the unit sphere; k = 2: the sphere cut by x3 = 1/5
    phases = [sphere_phase(3), xvar(3) - Fraction(1, 5)][:1 + cuts]
    spec = ImplicitSurfaceSpec(3, phases, BOX3)
    g = xvar(2) + 2
    phi = xvar(1) - Fraction(1, 10)
    cfg = QuadratureConfig(n=96)
    rhs = cauchy_check(1, g, phi, spec, cfg).rhs
    want = integrate_oriented(g, ImplicitSurfaceSpec(3, [phi, *phases], BOX3), cfg)
    diff = math.sqrt((rhs - want).norm_squared())
    assert diff <= 1e-12 * math.sqrt(want.norm_squared())
    assert want.norm_squared() > 0.1


def test_cauchy_sides_vanish_off_the_cut():
    # F = x1, G = x2 on the unit circle.  x1 + 3/2 misses the curve: both
    # sides are empty sums.  x1 - 3/2 holds the whole closed curve: the
    # right side is empty and the left side cancels to rounding
    f, g = xvar(1), xvar(2)
    cfg = QuadratureConfig(n=101)
    missed = cauchy_check(f, g, xvar(1) + Fraction(3, 2), circle_spec(), cfg)
    assert missed.lhs.is_zero() and missed.rhs.is_zero() and missed.residual == 0.0
    whole = cauchy_check(f, g, xvar(1) - Fraction(3, 2), circle_spec(), cfg)
    assert whole.rhs.is_zero()
    assert math.sqrt(whole.lhs.norm_squared()) <= 1e-12
    # the classical case with a cut that is positive everywhere
    spec = ImplicitSurfaceSpec(2, [], BOX2)
    empty = cauchy_check(1, xvar(1, 2), VectorPoly.norm_squared_var(2, 1) + 1, spec,
                         QuadratureConfig(n=101))
    assert empty.lhs.is_zero() and empty.rhs.is_zero() and empty.residual == 0.0


def test_circle_cauchy_in_bounded_memory():
    # each side runs on whole band batches of up to 8192 cells: column-sparse
    # fields stay near 2.4 MB here, where dense arrays of all 2^3 blade
    # coefficients per cell at that batch size peak near 6 MB
    spec = circle_spec()
    f = CliffordPoly.from_poly(xvar(1)) + CliffordPoly.basis(3, (2, 3)) * xvar(3)
    g = CliffordPoly.from_poly(xvar(2)) + CliffordPoly.basis(3, (1,)) * xvar(1)
    phi = xvar(1) - Fraction(1, 10)
    cauchy_check(f, g, phi, spec, QuadratureConfig(n=64))  # caches warm
    tracemalloc.start()
    try:
        res = cauchy_check(f, g, phi, spec, QuadratureConfig(n=160))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.residual < 0.02
    assert peak < 3.5e6


def test_cauchy_transversality_failure():
    # phi equal to a phase: grad phi ^ W vanishes on the whole band
    spec = circle_spec()
    with pytest.raises(TransversalityError):
        cauchy_check(1, xvar(2), sphere_phase(3), spec, QuadratureConfig(n=64))


# -- Monte Carlo ----------------------------------------------------------------

def test_haar_sample_is_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = haar_sample_stiefel(5, 3, rng)
        assert f.m == 5 and f.k == 3
        assert np.allclose(f.matrix.T @ f.matrix, np.eye(3), atol=1e-12)


def test_haar_sample_scalar_case():
    rng = np.random.default_rng(1)
    vals = {float(haar_sample_stiefel(1, 1, rng).matrix[0, 0]) for _ in range(40)}
    assert vals <= {1.0, -1.0} and len(vals) == 2


@pytest.mark.parametrize("m", range(1, 7))
def test_haar_frames_match_sign_fixed_qr(m):
    for k in range(1, m + 1):
        got = _haar_frames(np.random.default_rng(100 * m + k), m, k, 500)
        # the draw is (k, m, count), column j of frame n at [j, :, n]; the
        # oracle takes the (count, m, k) stack
        gauss = np.random.default_rng(100 * m + k).standard_normal((k, m, 500)).transpose(2, 1, 0)
        assert got.shape == (500, m, k)
        assert np.max(np.abs(got - haar_frames_qr(gauss))) <= 1e-12


@pytest.mark.parametrize("m, k", [(3, 2), (3, 3), (5, 5)])
def test_haar_frames_are_orthonormal(m, k):
    worst = 0.0
    for part in range(4):  # 200 000 draws in parts of 50 000
        q = _haar_frames(np.random.default_rng([m, k, part]), m, k, 50_000)
        gram = np.einsum("nmi,nmj->nij", q, q)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(k)))))
    assert worst <= 1e-13


class _StubNormal:
    """Generator stand-in whose standard_normal returns a fixed array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, shape):
        assert self.values.shape == shape
        return self.values.copy()


def _reference_gram_schmidt(gauss):
    """The arithmetic reference of ``_haar_frames``: its Gram-Schmidt as it
    ran on (count, m, k) draws copied once into contiguous rows."""
    rows = gauss.transpose(2, 1, 0).copy()
    for j, v in enumerate(rows):
        length = np.sqrt((v * v).sum(axis=0))
        for _ in range(2 if j else 0):
            coeffs = [(u * v).sum(axis=0) for u in rows[:j]]
            v -= sum(u * c for u, c in zip(rows[:j], coeffs))
        norm = np.sqrt((v * v).sum(axis=0))
        if np.any(norm <= 1e-13 * length):
            raise ValueError("Gaussian draw has a dependent column; its frame is undefined")
        v /= norm
    return rows.transpose(2, 1, 0)


@pytest.mark.parametrize("m", range(1, 7))
def test_haar_frames_keep_the_reference_arithmetic(m):
    # drawn in (k, m, count) rows, the frames are the reference's to the bit
    for k in range(1, m + 1):
        draw = np.random.default_rng([m, k]).standard_normal((k, m, 300))
        got = _haar_frames(_StubNormal(draw), m, k, 300)
        assert np.array_equal(got, _reference_gram_schmidt(draw.transpose(2, 1, 0)))


def test_haar_frames_reject_dependent_draws():
    # (k, m, count) draws: draw[j, :, n] is column j of frame n
    good = np.random.default_rng(23).standard_normal((2, 3, 4))
    zero = good.copy()
    zero[1, :, 2] = 0.0
    repeated = good.copy()
    repeated[1, :, 1] = repeated[0, :, 1]
    for draw in (zero, repeated):
        with pytest.raises(ValueError, match="dependent column"):
            _haar_frames(_StubNormal(draw), 3, 2, 4)
    first_zero = np.zeros((1, 3, 1))
    with pytest.raises(ValueError, match="dependent column"):
        haar_sample_stiefel(3, 1, _StubNormal(first_zero))
    assert np.all(np.isfinite(_haar_frames(_StubNormal(good), 3, 2, 4)))


def test_mc_constant_is_exact():
    one = VectorPoly.constant(3, 1, nvars=2)
    est = mc_stiefel_integral(one, 3, 2, 5000, seed=9)
    assert est.mean == pytest.approx(stiefel_volume(3, 2).to_float(), rel=1e-12)
    assert est.standard_error == pytest.approx(0.0, abs=1e-9)


def test_mc_reproducible_and_partitioned():
    p = VectorPoly.monomial(3, (2, 0, 0, 0, 0, 0), nvars=2)
    a = mc_stiefel_integral(p, 3, 2, 50000, seed=4)
    b = mc_stiefel_integral(p, 3, 2, 50000, seed=4)
    assert a.mean == b.mean and a.standard_error == b.standard_error
    assert a.n_samples == 50000 and a.seed == 4
    c = mc_stiefel_integral(p, 3, 2, 50000, seed=5)
    assert c.mean != a.mean
    # estimate is sane: within 6 standard errors of the exact value
    exact = stiefel_volume(3, 2).to_float() / 3
    assert abs(a.mean - exact) < 6 * a.standard_error


def _even_terms(m: int, k: int) -> dict:
    """Three seeded terms of even degree 4 in k m-vectors, the Monte Carlo
    integrands of (m, k)."""
    rng = np.random.default_rng(m * 10 + k)
    terms = {}
    for _ in range(3):
        key = [0] * (m * k)
        for _ in range(2):
            key[int(rng.integers(m * k))] += 2
        terms[tuple(key)] = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    return terms


@pytest.mark.parametrize("m, k", [(3, 2), (4, 2), (5, 3), (4, 4)])
def test_mc_matches_qr_oracle_on_the_same_draws(m, k):
    # 30 000 samples are two partitions; each partition's Gaussian draw is
    # rebuilt from its stream and turned into frames by sign-fixed QR
    terms = _even_terms(m, k)
    n, seed = 30_000, 11
    vals = []
    for part, cnt in enumerate((20_000, 10_000)):
        draw = geomint._partition_rng(seed, part).standard_normal((k, m, cnt))
        q = haar_frames_qr(draw.transpose(2, 1, 0))
        vals.append(poly_values(terms, q.transpose(0, 2, 1).reshape(cnt, k * m)))
    vals = np.concatenate(vals)
    vol = bench_oracles.exact_to_float(bench_oracles.stiefel_volume(m, k))
    mean = float(vals.sum()) / n
    var = (float((vals * vals).sum()) / n - mean * mean) * n / (n - 1)
    est = mc_stiefel_integral(VectorPoly(m, k, terms), m, k, n, seed)
    assert est.mean == pytest.approx(vol * mean, rel=1e-12)
    assert est.standard_error == pytest.approx(vol * math.sqrt(var / n), rel=1e-12)


@pytest.mark.parametrize("m, k", [(3, 2), (4, 2), (5, 3), (4, 4)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_streams_agree_with_the_exact_frame_averages(m, k, seed):
    # 30 000 samples are two partitions, two streams of each seed; the
    # integrand's exact value comes from the benchmark's frame oracle
    terms = _even_terms(m, k)
    oracle = bench_oracles.FrameOracle(m)
    vol = bench_oracles.exact_to_float(bench_oracles.stiefel_volume(m, k))
    exact = vol * float(sum(c * oracle.mean(key) for key, c in terms.items()))
    est = mc_stiefel_integral(VectorPoly(m, k, terms), m, k, 30_000, seed)
    assert est.standard_error > 0
    assert abs(est.mean - exact) <= 5 * est.standard_error


def test_mc_partition_streams_are_distinct_sfc64_streams():
    firsts = set()
    for seed in range(1, 5):
        for part in range(8):
            rng = geomint._partition_rng(seed, part)
            assert isinstance(rng.bit_generator, np.random.SFC64)
            firsts.add(tuple(rng.standard_normal(4)))
    assert len(firsts) == 32


def test_mc_scales_huge_coefficients_exactly():
    # 10^300 P squared overflows a float; the sums run over the values
    # divided by a power of two above sum |c|, so the estimate scales
    p = VectorPoly.monomial(3, (2, 0, 0, 2, 0, 0), nvars=2)
    small = mc_stiefel_integral(p, 3, 2, 100, seed=1)
    huge = mc_stiefel_integral(p * 10**300, 3, 2, 100, seed=1)
    assert math.isfinite(huge.standard_error) and small.standard_error > 0
    assert huge.mean == pytest.approx(small.mean * 1e300, rel=1e-12)
    assert huge.standard_error == pytest.approx(small.standard_error * 1e300, rel=1e-12)


def test_coefficients_beyond_float_range_are_refused_on_entry():
    big = 10**400 * xvar(1) ** 2
    for call in (lambda: ImplicitSurfaceSpec(3, [big + sphere_phase()], BOX3),
                 lambda: integrate_implicit(big, sphere_spec()),
                 lambda: integrate_oriented(big, sphere_spec()),
                 lambda: mc_stiefel_integral(VectorPoly.monomial(3, (2, 0, 0, 0, 0, 0), 10**400,
                                                                 nvars=2), 3, 2, 100, seed=1),
                 lambda: cauchy_check(big, 1, xvar(1), circle_spec()),
                 lambda: cauchy_check(1, 1, big, circle_spec()),
                 lambda: tangential_dirac(big, sphere_spec(), [1.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match=r"x1_1\^2, about 10\^400, lies beyond the float range"):
            call()
    # 10^308 itself is a float, but its integral over V_{2,3} (volume 8 pi^2) is not
    with pytest.raises(ValueError, match="estimate lies beyond the float range"):
        mc_stiefel_integral(VectorPoly.constant(3, 10**308, nvars=2), 3, 2, 100, seed=1)


@pytest.mark.parametrize("phase", [
    # the value overflows at |x1| > 1.43, the gradient 8 10^307 x1^7 sooner
    10**307 * xvar(1, 2) ** 8 + xvar(2, 2) ** 2 - 1,
    # the value stays below 10^308, its gradient does not
    2 * 10**306 * xvar(1, 2) ** 8 + xvar(2, 2) ** 2 - 1,
    # each axis table stays below 1.3 10^308, their sum does not
    5 * 10**307 * (xvar(1, 2) ** 2 + xvar(2, 2) ** 2) - 1,
    # every axis table is finite, the remainder of mixed terms is not
    10**307 * xvar(1, 2) ** 4 * xvar(2, 2) ** 4 + xvar(1, 2) ** 2 + xvar(2, 2) ** 2 - 1,
    # a coefficient of the gradient, 4 10^308, has no float value
    10**308 * xvar(1, 2) ** 4 + xvar(2, 2) ** 2 - 1,
])
def test_phase_values_beyond_float_range_are_refused(phase):
    # every coefficient is a float; the values on the grid are not
    spec = ImplicitSurfaceSpec(2, [phase], BOX2)
    with pytest.raises(FloatRangeError, match="phase 1 takes values beyond the float range"):
        integrate_implicit(1, spec, QuadratureConfig(n=64))
    with pytest.raises(FloatRangeError, match="the cut phi takes values beyond the float range"):
        cauchy_check(1, xvar(1, 2), phase, ImplicitSurfaceSpec(2, [], BOX2),
                     QuadratureConfig(n=64))


def _scaled_circle(scale):
    return scale * (xvar(1, 2) ** 2 + xvar(2, 2) ** 2 - 1)


def test_gram_entries_beyond_float_range_are_refused(monkeypatch):
    # every value and gradient of 10^200 (x1^2 + x2^2 - 1) is finite on the
    # grid, but the squared gradient length reaches 10^401; 10^150 gives
    # about 10^301 and still integrates.  eps is in phase units, so there
    # the band is far thinner than a cell, which costs accuracy: 6.49 against
    # the unit circle's 2 pi, as at 10^100
    cfg = QuadratureConfig(n=64)
    length = integrate_implicit(1, ImplicitSurfaceSpec(2, [_scaled_circle(10**150)], BOX2), cfg)
    assert length == pytest.approx(2 * math.pi, rel=0.05)

    def no_cells(*args):
        raise AssertionError("a cell was visited")

    monkeypatch.setattr(geomint, "_band_leaves", no_cells)
    with pytest.raises(FloatRangeError, match="the gradient of phase 1 has a squared length "
                                              "beyond the float range on the grid"):
        integrate_implicit(1, ImplicitSurfaceSpec(2, [_scaled_circle(10**200)], BOX2), cfg)
    # two phases: the squared length of 10^100 times the sphere's gradient
    # stays below 10^202, its inner product with the gradient 10^250 e3 of a
    # plane does not, and it is checked before the plane's squared length
    spec = ImplicitSurfaceSpec(3, [10**100 * sphere_phase(3), 10**250 * xvar(3)], BOX3)
    with pytest.raises(FloatRangeError, match="the gradients of phase 1 and phase 2 have an "
                                              "inner product beyond the float range"):
        integrate_implicit(1, spec, cfg)
    # the Cauchy check's right side takes the cut's gradient into its Gram
    # entries, the left side does not; the refusal still comes first
    with pytest.raises(FloatRangeError, match="the gradient of the cut phi has a squared length"):
        cauchy_check(1, xvar(2), 10**200 * xvar(1), circle_spec(), cfg)


def test_gram_determinant_beyond_float_range_is_refused(monkeypatch):
    # the circle with both phases scaled by 10^100: every Gram entry stays
    # below about 10^202, but the determinant multiplies two of them, and a
    # NaN determinant would pass the independence test; at 10^76 it stays
    # near 10^305 and integrates with no warning
    cfg = QuadratureConfig(n=64)
    scaled = ImplicitSurfaceSpec(3, [10**76 * sphere_phase(3), 10**76 * xvar(3)], BOX3)
    assert math.isfinite(integrate_implicit(1, scaled, cfg))

    def no_cells(*args):
        raise AssertionError("a cell was visited")

    monkeypatch.setattr(geomint, "_band_leaves", no_cells)
    spec = ImplicitSurfaceSpec(3, [10**100 * sphere_phase(3), 10**100 * xvar(3)], BOX3)
    with pytest.raises(FloatRangeError, match="the gradients of phase 1 and phase 2 have a Gram "
                                              "determinant beyond the float range on the grid"):
        integrate_implicit(1, spec, cfg)
    # the Cauchy check's right side adds the cut's gradient to the unit
    # circle's: its squared length, 10^308, is a float, the determinant of
    # the three is not; the left side's Gram matrix is the circle's
    with pytest.raises(FloatRangeError, match="the gradients of the cut phi, phase 1 and phase 2 "
                                              "have a Gram determinant beyond"):
        cauchy_check(1, xvar(2), 10**154 * xvar(1), circle_spec(), cfg)


def test_cauchy_sides_share_the_phase_tables(monkeypatch):
    # the left side cuts the band by phi, the right side takes phi as a
    # phase: each polynomial's tables are built once for both
    built = []
    init = geomint._PhaseTables.__init__

    def spy(self, phi, axes, spacings):
        built.append(phi)
        init(self, phi, axes, spacings)

    monkeypatch.setattr(geomint._PhaseTables, "__init__", spy)
    spec, phi = circle_spec(), xvar(1) - Fraction(1, 10)
    res = cauchy_check(1, xvar(2), phi, spec, QuadratureConfig(n=96))
    assert built == [*spec.phases, phi]
    assert res.residual < 0.05 and res.rhs.norm_squared() > 1.0


def test_integrands_beyond_float_range_are_refused(monkeypatch):
    # every coefficient is a float; on [-1.6, 1.6]^2 at n = 64 the cells
    # reach |x| = 1.575, where 10^308 x1^8 is not, and 10^307 x1^2 is, but
    # not times the blade bound 2 |grad phi| <= 2 (2 1.575^2 4)^(1/2) of the
    # unit circle; both integrals refuse them before any cell is visited.  A
    # number is the constant polynomial and takes the same checks: 10^308 is
    # a float, but not times the blade bound, and 10^400 is none; a NaN or an
    # infinity is refused on entry
    spec, cfg = ImplicitSurfaceSpec(2, [_scaled_circle(1)], BOX2), QuadratureConfig(n=64)

    def no_cells(*args):
        raise AssertionError("a cell was visited")

    monkeypatch.setattr(geomint, "_band_leaves", no_cells)
    for f, refusal in ((10**308 * xvar(1, 2) ** 8, "the integrand takes values beyond"),
                       (10**307 * xvar(1, 2) ** 2, "the integrand times the blade norm takes "
                                                   "values beyond"),
                       (10**308, "the integrand times the blade norm takes values beyond"),
                       (1e308, "the integrand times the blade norm takes values beyond"),
                       (10**400, r"the constant term, about 10\^400, lies beyond the float range"),
                       (Fraction(10**400), r"the constant term, about 10\^400, lies beyond"),
                       (math.nan, "the integrand nan is not a finite number"),
                       (math.inf, "the integrand inf is not a finite number")):
        for integral in (integrate_implicit, integrate_oriented):
            with pytest.raises(FloatRangeError, match=refusal):
                integral(f, spec, cfg)


def test_cauchy_fields_beyond_float_range_are_refused(monkeypatch):
    # every coefficient is a float, but on [-1.6, 1.6]^m at n = 64, where the
    # cells reach |x| = 1.575: F W G overflows for F = 10^300, G = 10^300 x1
    # (k = 0, W = 1) and for F = G = 10^200 x2 on the circle; F = 10^154,
    # G = 10^154 x1 stays in range on each cell but not within the bound,
    # and the sum over the band overflows; the projected d F of 10^308 x1
    # times G = x2 overflows; 10^308 x2^2 takes no float value at x2 = 1.575,
    # and its derivative's coefficient, 2 10^308, has none.  Each is refused
    # before either sweep visits a cell
    disk = ImplicitSurfaceSpec(2, [], BOX2)
    circle = _dense_case("circle")
    unit = _scaled_circle(1)

    def no_cells(*args):
        raise AssertionError("a cell was visited")

    monkeypatch.setattr(geomint, "_band_leaves", no_cells)
    for spec, phi, f, g, refusal in (
            (disk, unit, 10**300, 10**300 * xvar(1, 2), "the left side's integrand"),
            (disk, unit, 10**154, 10**154 * xvar(1, 2), "the left side's integrand"),
            (disk, unit, 10**308 * xvar(1, 2), xvar(2, 2), "the left side's integrand"),
            (disk, unit, 1, 10**308 * xvar(2, 2) ** 2, "the field G"),
            (circle, xvar(1), 10**200 * xvar(2), 10**200 * xvar(2), "the left side's integrand")):
        with pytest.raises(FloatRangeError, match=f"{refusal} takes values beyond the float "
                                                  f"range on the grid"):
            cauchy_check(f, g, phi, spec, QuadratureConfig(n=64))


def test_cauchy_fields_near_the_float_range_still_run():
    # G = 10^307 x2 on the unit disk: every product the two sides form stays
    # within its bound, so the check runs, and the left side is the closed
    # form pi 10^307 on e2 (the disk's value for G = x2, scaled)
    res = cauchy_check(1, 10**307 * xvar(2, 2), _scaled_circle(1),
                       ImplicitSurfaceSpec(2, [], BOX2), QuadratureConfig(n=64))
    assert res.residual < 0.01
    assert res.lhs.terms[(2,)] == pytest.approx(math.pi * 1e307, rel=1e-2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("small, big", [(150, 160), (75, 240), (150, 200)])
def test_projection_of_tiny_phase_gradients_does_not_overflow(small, big):
    # the unit circle scaled by 10^-small, F = 10^big x2^2: G^-1 J dF, of
    # size |dF| / |grad phi|, overflowed before the phases' rows were scaled
    # to magnitude 1; now the check runs to its verdict with no warning, and
    # the band (eps is in phase units) fills the box
    phase = _scaled_circle(Fraction(1, 10**small))
    spec = ImplicitSurfaceSpec(2, [phase], BOX2)
    with pytest.raises(BoundaryContactError):
        cauchy_check(10**big * xvar(2, 2) ** 2, 1, xvar(1, 2), spec, QuadratureConfig(n=32))


@pytest.mark.filterwarnings("error")
def test_tangential_dirac_is_exact_under_power_of_two_phase_scales():
    # scaling a phase by 2^-500 scales its gradient exactly and shifts its
    # scale exponent by 500, so the scaled rows of J are the same bits, and
    # F = 2^530 x2^2 gives exactly 2^530 times the value for x2^2; without
    # the row scaling G^-1 J dF overflowed
    sphere, plane = sphere_phase(), xvar(3)
    point = (0.6, 0.8, 0.0)
    base = tangential_dirac(xvar(2) ** 2, ImplicitSurfaceSpec(3, [sphere, plane], BOX3), point)
    scaled = tangential_dirac(2**530 * xvar(2) ** 2,
                              ImplicitSurfaceSpec(3, [sphere * Fraction(1, 2**500), plane], BOX3),
                              point)
    assert base.terms and scaled.terms == {b: c * 2.0**530 for b, c in base.terms.items()}


def _unscaled_projection_factors(cells):
    # the projection's factors before the row scaling: J and the closed-form
    # inverse of the unscaled Gram matrices
    gram, det = cells.gram
    if len(gram) <= 1:
        return cells.jac, 1.0 / gram
    return cells.jac, np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det


def test_projection_keeps_the_bits_at_one_and_two_phases(monkeypatch):
    # the scaled projection is exact at k <= 2, where the inverse Gram
    # matrix is in closed form: Cauchy left sides and tangential Dirac
    # values equal those of the unscaled factors, bit for bit
    sphere = sphere_phase()
    field = xvar(1) * xvar(2) + xvar(3) ** 2

    def values():
        out = []
        # the last case scales its phases by unequal powers of 10, so the
        # rows' scale exponents differ
        for phases, f, g in (([sphere], xvar(2) + 2, xvar(3) * xvar(1) + 1),
                             ([sphere, xvar(3)], xvar(1) * xvar(2) + 1, xvar(2)),
                             ([sphere * 10**60, (xvar(3) - Fraction(1, 5)) * 10**40],
                              xvar(2) ** 3, xvar(1))):
            res = cauchy_check(f, g, xvar(1) - Fraction(1, 10), ImplicitSurfaceSpec(3, phases, BOX3),
                               QuadratureConfig(n=40))
            out.append({b: c.hex() for b, c in res.lhs.terms.items()})
        for phases, point in (([sphere], (0.6, 0.0, 0.8)), ([sphere, xvar(3)], (0.6, 0.8, 0.0))):
            dirac = tangential_dirac(field, ImplicitSurfaceSpec(3, phases, BOX3), point)
            out.append({b: c.hex() for b, c in dirac.terms.items()})
        return out

    scaled = values()
    monkeypatch.setattr(geomint, "_projection_factors", _unscaled_projection_factors)
    assert values() == scaled
    assert all(scaled)


def test_integrands_of_another_shape_are_refused():
    # a polynomial in more coordinates raised a bare IndexError from its
    # bound on the grid, and one in fewer a ValueError from inside the sweep
    for f in (xvar(4, 4), VectorPoly.constant(2, 1),
              VectorPoly.monomial(3, (1, 0, 0, 0, 0, 0), nvars=2)):
        for integral in (integrate_implicit, integrate_oriented):
            with pytest.raises(ValueError, match="the integrand must be a polynomial in one "
                                                 "m-vector"):
                integral(f, sphere_spec(), QuadratureConfig(n=32))


@pytest.mark.parametrize("case", ["circle", "disk"])
def test_cut_as_phase_sweep_equals_a_fresh_sweep(case):
    # the Cauchy check's right side reuses the left sweep's geometry, tables
    # and edge flags, with the cut as phase 1: its batches must be those of
    # a sweep built afresh from (phi, phi_1, ..., phi_k), bit for bit
    if case == "circle":
        spec, phi = _dense_case("circle"), xvar(1) - Fraction(1, 10)
    else:
        spec = ImplicitSurfaceSpec(2, [], BOX2)
        phi = _shifted_sphere(2, (Fraction(1, 20), Fraction(-3, 100)), 1)
    cfg = QuadratureConfig(n=101)
    derived = _Sweep(spec, cfg, phi).cut_as_phase()
    fresh = _Sweep(ImplicitSurfaceSpec(spec.m, (phi, *spec.phases), spec.box), cfg)
    got, want = list(derived.batches()), list(fresh.batches())
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.idx.tobytes() == b.idx.tobytes()
        assert a.weight.tobytes() == b.weight.tobytes()
        assert (a.bmask is None) == (b.bmask is None)
        assert a.bmask is None or np.array_equal(a.bmask, b.bmask)
        assert a.gram[0].shape == (spec.k + 1, spec.k + 1, len(a))
        for x, y in zip(a.gram, b.gram):
            assert x.tobytes() == y.tobytes()


def test_integrals_beyond_float_range_are_refused():
    # 1.5 10^307 times the blade norm stays below 10^308 on every cell, but
    # its integral over a sphere of area 4 pi 1.96 does not; at n = 24 one
    # batch's dot product overflows, at n = 48 only the sum of the batches,
    # and either is a refusal, not a warning
    spec = ImplicitSurfaceSpec(3, [sphere_phase(3) - Fraction(24, 25)], BOX3)
    for n in (24, 48):
        with pytest.raises(FloatRangeError, match="the integral lies beyond the float range"):
            integrate_implicit(VectorPoly.constant(3, 15 * 10**306), spec, QuadratureConfig(n=n))
    tenth = integrate_implicit(VectorPoly.constant(3, 15 * 10**305), spec, QuadratureConfig(n=48))
    assert tenth == pytest.approx(4 * math.pi * 1.96 * 1.5e306, rel=0.05)


def test_cut_values_beyond_float_range_term_by_term_are_refused():
    # the cells evaluate the cut term by term, and on [0, 4]^2 the first two
    # terms of a (x1^2 + x2^2) - 4 a x1, a = 10^308 / 16, sum to about
    # 2 10^308 at the far corner, though its axis tables (a (x1^2 - 4 x1) in
    # [-4 a, 0] and a x2^2 up to 16 a) and its values stay finite
    a = Fraction(10**308, 16)
    cut = a * xvar(1, 2) ** 2 + a * xvar(2, 2) ** 2 - 4 * a * xvar(1, 2)
    box = ((0.0, 4.0),) * 2
    with pytest.raises(FloatRangeError, match="the cut phi takes values beyond the float range"):
        cauchy_check(1, xvar(1, 2), cut, ImplicitSurfaceSpec(2, [], box), QuadratureConfig(n=64))


@pytest.mark.parametrize("phase,refusal", [
    # a coefficient of the gradient, 4 10^308, has no float value
    (10**308 * xvar(1, 2) ** 4 + xvar(2, 2) ** 2 - 1, "phase 1 takes values beyond"),
    # the squared gradient length at (0, 1), 4 10^400, overflows
    (_scaled_circle(10**200), "the gradient of phase 1 has a squared length beyond"),
    # and at 10^-170, 4 10^-340, underflows
    (_scaled_circle(Fraction(1, 10**170)), "the gradient of phase 1 has a squared length below"),
])
def test_point_operators_refuse_gradients_out_of_float_range(phase, refusal):
    # the point operators check the phases' tables on the one-cell grid of
    # the point with the band's bounds, before any Gram matrix is formed
    spec = ImplicitSurfaceSpec(2, [phase], BOX2)
    with pytest.raises(FloatRangeError, match=refusal):
        tangent_normal_frames(spec, [0.0, 1.0])
    with pytest.raises(FloatRangeError, match=refusal):
        tangential_dirac(xvar(1, 2), spec, [0.0, 1.0])


def test_a_vanishing_gradient_is_dependent_not_out_of_float_range():
    # a gradient that is exactly 0 (a constant phase on the grid, the tip of
    # a cone at a point) has Gram entries that are exact zeros, in range:
    # the verdict stays the independence test's
    with pytest.raises(IndependenceError):
        integrate_implicit(1, ImplicitSurfaceSpec(2, [VectorPoly.zero(2, 1)], BOX2),
                           QuadratureConfig(n=64))
    cone = ImplicitSurfaceSpec(2, [xvar(1, 2) ** 2 - xvar(2, 2) ** 2], BOX2)
    with pytest.raises(IndependenceError):
        tangent_normal_frames(cone, [0.0, 0.0])


def test_coefficients_below_float_range_are_refused_on_entry():
    # 10^-400 rounds to 0.0: the float phase would vanish identically
    tiny = Fraction(1, 10**400)
    for call in (lambda: ImplicitSurfaceSpec(3, [tiny * sphere_phase()], BOX3),
                 lambda: integrate_implicit(tiny * xvar(1) ** 2, sphere_spec()),
                 lambda: mc_stiefel_integral(VectorPoly.monomial(3, (2, 0, 0, 0, 0, 0), tiny,
                                                                 nvars=2), 3, 2, 100, seed=1)):
        with pytest.raises(FloatRangeError, match=r"x1_1\^2, about 10\^-400, lies below the float range"):
            call()
    with pytest.raises(FloatRangeError, match="the constant term, about 10\\^-400"):
        integrate_implicit(VectorPoly.constant(3, tiny), sphere_spec())
    # a subnormal coefficient keeps a nonzero float value
    ImplicitSurfaceSpec(3, [Fraction(1, 10**310) * sphere_phase()], BOX3)


# -- block-orthogonal basis identities -------------------------------------------

def _random_block_orthogonal(rng, m, k):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    mix_a = rng.standard_normal((k, k)) + 3 * np.eye(k)
    mix_b = rng.standard_normal((m - k, m - k)) + 3 * np.eye(m - k)
    out = np.empty((m, m))
    out[:k] = mix_a @ q.T[:k]
    out[k:] = mix_b @ q.T[k:]
    return out


def test_block_orthogonal_identities_hold():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, m))
        res = block_orthogonal_check(_random_block_orthogonal(rng, m, k), k)
        assert res.ok
        assert res.dual_orthogonality <= 1e-10
        assert res.determinant_split <= 1e-10
        assert res.norm_product_first <= 1e-10
        assert res.norm_product_second <= 1e-10


def test_block_orthogonal_rejects_oblique_blocks():
    mat = np.array([[1.0, 0.2, 0.0],
                    [0.0, 1.0, 0.0],
                    [1.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        block_orthogonal_check(mat, 1)
