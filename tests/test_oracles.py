"""The reference oracles themselves have to be trustworthy, so the closed
forms of ``bench/oracles.py`` get their own numerical validation against
plain angular quadrature on S^1 and S^2, and the frame-moment recursion is
checked against them at k = 1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import bench_oracles

_gamma_half = bench_oracles._gamma_half
exact_to_float = bench_oracles.exact_to_float
sphere_monomial = bench_oracles.sphere_monomial


def test_gamma_half_small_values():
    assert _gamma_half(2) == (Fraction(1), 0)      # Gamma(1)
    assert _gamma_half(4) == (Fraction(1), 0)      # Gamma(2)
    assert _gamma_half(6) == (Fraction(2), 0)      # Gamma(3)
    assert _gamma_half(1) == (Fraction(1), 1)      # Gamma(1/2) = sqrt(pi)
    assert _gamma_half(3) == (Fraction(1, 2), 1)   # Gamma(3/2)
    assert _gamma_half(5) == (Fraction(3, 4), 1)   # Gamma(5/2)


@pytest.mark.parametrize("two_a", range(1, 25))
def test_gamma_half_matches_math_gamma(two_a):
    assert exact_to_float(_gamma_half(two_a)) == pytest.approx(
        math.gamma(two_a / 2), rel=1e-12)


def test_known_sphere_values():
    assert sphere_monomial((0, 0)) == (Fraction(2), 2)            # 2 pi
    assert sphere_monomial((0, 0, 0)) == (Fraction(4), 2)         # 4 pi
    assert sphere_monomial((0, 0, 0, 0)) == (Fraction(2), 4)      # 2 pi^2
    assert sphere_monomial((2, 0, 0)) == (Fraction(4, 3), 2)
    assert sphere_monomial((4, 0, 0)) == (Fraction(4, 5), 2)
    assert sphere_monomial((2, 2, 0)) == (Fraction(4, 15), 2)
    assert sphere_monomial((1, 0, 0)) == (Fraction(0), 0)


def test_odd_exponents_vanish():
    assert sphere_monomial((1, 1)) == (Fraction(0), 0)
    assert sphere_monomial((3, 2, 1, 0)) == (Fraction(0), 0)


@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (4, 2), (6, 0), (2, 2)])
def test_circle_quadrature_agreement(alpha):
    # dense trapezoid on the periodic circle is spectrally accurate
    t = np.linspace(0.0, 2 * math.pi, 20001)
    vals = np.cos(t) ** alpha[0] * np.sin(t) ** alpha[1]
    num = np.trapezoid(vals, t)
    assert num == pytest.approx(exact_to_float(sphere_monomial(alpha)), abs=1e-10)


@pytest.mark.parametrize("alpha", [(0, 0, 0), (2, 0, 0), (0, 4, 0),
                                   (2, 2, 0), (2, 2, 2), (0, 0, 6)])
def test_two_sphere_quadrature_agreement(alpha):
    # substitute u = cos(polar angle); even monomials are polynomial in u,
    # so Gauss-Legendre is exact, and the periodic trapezoid rule is exact
    # for the low-order trig polynomial in the azimuth
    u, w = np.polynomial.legendre.leggauss(24)
    th = np.linspace(0.0, 2 * math.pi, 257)[:-1]
    U, TH = np.meshgrid(u, th, indexing="ij")
    s = np.sqrt(1.0 - U * U)
    vals = (s * np.cos(TH)) ** alpha[0] * (s * np.sin(TH)) ** alpha[1] \
        * U ** alpha[2]
    num = (w @ vals).sum() * (2 * math.pi / 256)
    assert num == pytest.approx(exact_to_float(sphere_monomial(alpha)), abs=1e-12)


def test_stiefel_volume_pairs():
    assert bench_oracles.stiefel_volume(3, 1) == (Fraction(4), 2)
    assert bench_oracles.stiefel_volume(3, 2) == (Fraction(8), 4)     # 8 pi^2
    assert bench_oracles.stiefel_volume(4, 2) == (Fraction(8), 6)     # 2pi^2 * 4pi


def test_frame_oracle_reduces_to_sphere_monomials():
    # one vector: the matching sum over the identity projector is the Gamma formula
    for m, expo in [(3, (2, 2, 2)), (4, (4, 0, 2, 0)), (5, (1, 2, 0, 0, 0))]:
        oracle = bench_oracles.FrameOracle(m)
        assert oracle.integral({expo: Fraction(1)}, 1) == sphere_monomial(expo)
