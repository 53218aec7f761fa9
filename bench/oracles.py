"""Reference values for the benchmark's correctness checks.

Written from the closed forms alone, with ``fractions`` and ``math``: nothing
here imports or mirrors ``cliffint``.  Exact values are returned as
``(q, h)`` meaning ``q * pi^(h/2)``.

- Sphere monomials: the Gamma formula
      int_{S^(m-1)} x^a = 2 prod_i Gamma((a_i + 1)/2) / Gamma((|a| + m)/2).
- Frame monomials: Haar k-frames are built one vector at a time, the last
  vector uniform on the unit sphere of the complement of the others.  On the
  unit sphere of a d-dimensional subspace with projector P, the moment of
  y_{i_1} ... y_{i_2n} is the sum over perfect matchings of the indices of
  prod P_ab, divided by d (d + 2) ... (d + 2n - 2).  With
  P = I - sum_l x_l x_l^T this leaves a polynomial in the earlier vectors,
  and the recursion ends at k = 0.
- Surfaces: 4 pi r^2, 2 pi rho, and pi rho^2 on e13 for the oriented
  integral of x1 over a circle in a plane x3 = const.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = dict  # flat exponent tuple -> Fraction


def _gamma_half(n: int) -> tuple[Fraction, int]:
    """Gamma(n/2) for n >= 1 as (q, s): q * sqrt(pi)^s, by Gamma(x+1) = x Gamma(x)."""
    q, x = Fraction(1), Fraction(2 - n % 2, 2)  # Gamma(1) = 1, Gamma(1/2) = sqrt(pi)
    while x < Fraction(n, 2):
        q *= x
        x += 1
    return q, n % 2


def sphere_monomial(alpha: tuple[int, ...]) -> tuple[Fraction, int]:
    """Integral of x^alpha over the unit sphere in R^m, m = len(alpha)."""
    m = len(alpha)
    if any(a % 2 for a in alpha):
        return Fraction(0), 0
    num, num_s = Fraction(2), 0
    for a in alpha:
        q, s = _gamma_half(a + 1)
        num *= q
        num_s += s
    den, den_s = _gamma_half(sum(alpha) + m)
    return num / den, num_s - den_s


def stiefel_volume(m: int, k: int) -> tuple[Fraction, int]:
    """Volume of the k-frames in R^m: the product of unit-sphere areas in R^(m-j+1)."""
    q, h = Fraction(1), 0
    for d in range(m - k + 1, m + 1):
        area_q, area_h = sphere_monomial((0,) * d)
        q *= area_q
        h += area_h
    return q, h


class FrameOracle:
    """Exact Haar averages of monomials over orthonormal k-frames in R^m.

    Memoizes per monomial, keyed up to a permutation of the coordinates
    (which the Haar measure does not see).
    """

    def __init__(self, m: int):
        self.m = m
        self._mean: dict[tuple, Fraction] = {}
        self._match: dict[tuple, Poly] = {}

    def mean(self, key: tuple[int, ...]) -> Fraction:
        """Average of the monomial with flat exponent key over k-frames, k = len(key) // m."""
        m = self.m
        k = len(key) // m
        if k == 0:
            return Fraction(1)
        cols = sorted(tuple(key[j * m + i] for j in range(k)) for i in range(m))
        if any(sum(c) % 2 for c in cols):
            return Fraction(0)  # odd under x_i -> -x_i in every vector
        canon = tuple(c[j] for j in range(k) for c in cols)
        hit = self._mean.get(canon)
        if hit is not None:
            return hit
        head, last = canon[:(k - 1) * m], canon[(k - 1) * m:]
        n2 = sum(last)
        out = Fraction(0)
        if n2 % 2 == 0:
            indices = tuple(i for i in range(m) for _ in range(last[i]))
            for mkey, c in self._matchings(k - 1, indices).items():
                out += c * self.mean(tuple(a + b for a, b in zip(head, mkey)))
            d = m - k + 1
            for t in range(n2 // 2):
                out /= d + 2 * t
        self._mean[canon] = out
        return out

    def _projector_entry(self, kprev: int, a: int, b: int) -> Poly:
        """P_ab = delta_ab - sum_l x_{l,a} x_{l,b} as a polynomial in kprev vectors."""
        width = kprev * self.m
        out: Poly = {}
        if a == b:
            out[(0,) * width] = Fraction(1)
        for l in range(kprev):
            e = [0] * width
            e[l * self.m + a] += 1
            e[l * self.m + b] += 1
            out[tuple(e)] = out.get(tuple(e), 0) - 1
        return out

    def _matchings(self, kprev: int, indices: tuple[int, ...]) -> Poly:
        """Sum over perfect matchings of the indices of prod P_ab."""
        memo_key = (kprev, indices)
        hit = self._match.get(memo_key)
        if hit is not None:
            return hit
        if not indices:
            out = {(0,) * (kprev * self.m): Fraction(1)}
        else:
            a, rest = indices[0], indices[1:]
            out = {}
            for pos, b in enumerate(rest):
                sub = self._matchings(kprev, rest[:pos] + rest[pos + 1:])
                out = poly_add(out, poly_mul(self._projector_entry(kprev, a, b), sub))
        self._match[memo_key] = out
        return out

    def integral(self, poly: Poly, k: int) -> tuple[Fraction, int]:
        """Exact integral of a polynomial in k vectors over the k-frames."""
        total = sum((c * self.mean(key) for key, c in poly.items()), Fraction(0))
        if not total:
            return Fraction(0), 0
        vq, vh = stiefel_volume(self.m, k)
        return total * vq, vh


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for key, c in b.items():
        acc = out.get(key, 0) + c
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            acc = out.get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def expand_linear_product(forms: list[list[tuple[int, Fraction]]], width: int) -> Poly:
    """Expand a product of linear forms, each a list of (flat index, coefficient)."""
    out: Poly = {(0,) * width: Fraction(1)}
    for form in forms:
        lin: Poly = {}
        for idx, c in form:
            e = [0] * width
            e[idx] = 1
            lin = poly_add(lin, {tuple(e): c})
        out = poly_mul(out, lin)
    return out


def exact_to_float(value: tuple[Fraction, int]) -> float:
    q, h = value
    return float(q) * math.pi ** (h / 2)


def sphere_area(r: float) -> float:
    return 4.0 * math.pi * r * r


def circle_length(rho: float) -> float:
    return 2.0 * math.pi * rho


def circle_oriented_x1(rho: float) -> float:
    """e13 coefficient of the oriented integral of x1 over a circle of radius rho in a plane x3 = h.

    The unit blade is (x - c)/rho ^ e3 with x1 - c1 = rho cos t and ds = rho dt,
    so the e13 part is int (c1 + rho cos t) cos t rho dt = pi rho^2 and the
    e23 part vanishes.
    """
    return math.pi * rho * rho
