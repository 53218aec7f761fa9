"""Exact integration of polynomials over spheres and Stiefel manifolds.

Integrals are evaluated by applying a finite series of constant-coefficient
differential operators to the integrand and reading off the value at the
origin, so every result is exact: a rational multiple of an integer or
half-integer power of pi.

Sphere: the integral of P over the unit sphere in R^m is
    sum_s  c_{s,m} (Laplacian^s P)(0),   c_{s,nu} = 2 pi^(nu/2) / (4^s s! Gamma(s + nu/2)),
which is finite: every term with 2s > deg P vanishes.

Stiefel: the integral of P(x_1, .., x_k) over orthonormal k-frames is the
composition, for j = k down to 1, of the sphere series in dimension
m - j + 1 with the Laplacian replaced by
    Delta_{x_j} - sum_{l < j} <x_l, d/dx_j>^2,
each factor followed by setting x_j = 0.  The factors do not commute; the
innermost factor treats the last vector variable.  The sphere S^(m-1) is
the manifold of 1-frames, and its series is the last (j = 1) stage, where
the operator is the plain Laplacian: both integrals run through one loop.

For two-column frames an explicit double sum in the operators
A = Delta_x + Delta_y and B = Delta_x Delta_y - <d/dx, d/dy>^2 is provided
as an independent route to the same value.  Each of its terms S(d/dx) P at
the origin is read off through the Fischer pairing
    <S, P> = sum_alpha s_alpha p_alpha alpha!,
one coefficient lookup per monomial instead of a full differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# apply_diffop is no longer called here but stays bound: bench/selftest.py
# checks that the tracer patches cliffint.pizzetti.apply_diffop.
from .polyalg import (ExactScalar, VectorPoly, apply_diffop,  # noqa: F401
                      fischer_pair, gamma_half, pochhammer_half)


@dataclass(frozen=True, slots=True)
class PizzettiResult:
    """Exact value plus bookkeeping about the operator series."""

    value: ExactScalar
    terms_used: int
    truncation_degree: int


def phi_coefficient(s: int, nu: int) -> ExactScalar:
    """Series coefficient c_{s,nu} = 2 pi^(nu/2) / (4^s s! Gamma(s + nu/2))."""
    if s < 0 or nu < 1:
        raise ValueError("need s >= 0 and nu >= 1")
    return ExactScalar(*_series_rational(s, nu))


def surface_area(m: int) -> ExactScalar:
    """Area of the unit sphere in R^m: 2 pi^(m/2) / Gamma(m/2)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return ExactScalar(Fraction(2), m) / gamma_half(m)


@lru_cache(maxsize=256)
def stiefel_volume(m: int, k: int) -> ExactScalar:
    """Volume of the Stiefel manifold of k-frames in R^m (cached; immutable)."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}")
    out = ExactScalar(Fraction(1), 0)
    for j in range(1, k + 1):
        out = out * surface_area(m - j + 1)
    return out


@lru_cache(maxsize=1024)
def _series_rational(s: int, nu: int) -> tuple[Fraction, int]:
    """c_{s,nu} split as (rational part, power h with c = q * pi^(h/2)), cached."""
    g = gamma_half(2 * s + nu)
    q = Fraction(2) / (Fraction(4**s * factorial(s)) * g.q)
    return q, nu - g.h


def sphere_pizzetti_detailed(p: VectorPoly) -> PizzettiResult:
    """Exact sphere integral with series bookkeeping.

    The k = 1 case of the composed Stiefel series.  ``terms_used`` counts
    the nonzero Laplacian powers summed and ``truncation_degree`` is
    2 * (deg P // 2), the last degree the series reaches; later terms
    vanish identically.
    """
    if p.nvars != 1:
        raise ValueError("sphere integrand must use a single vector variable")
    if p.m < 2:
        raise ValueError("need dimension m >= 2")
    value, terms_used = _pizzetti_series(p, p.m, 1)
    return PizzettiResult(value, terms_used, 2 * (p.degree() // 2))


def sphere_pizzetti(p: VectorPoly) -> ExactScalar:
    """Integral of P over the unit sphere in R^m, exactly."""
    return sphere_pizzetti_detailed(p).value


def _tangential_operator(work: VectorPoly, j: int) -> VectorPoly:
    """Apply Delta_{x_j} - sum_{l<j} <x_l, d/dx_j>^2 once.

    Since d/dx_j does not act on x_l for l < j, the square expands to
    sum_{i,i'} x_{l,i} x_{l,i'} d_{j,i} d_{j,i'}; it is applied term by term,
    with weight e(e-1) on the diagonal and 2 e_i e_i' off it.
    """
    m = work.m
    base = (j - 1) * m
    lower = [l * m for l in range(j - 1)]

    def pairs():
        for key, coeff in work.terms.items():
            active = [(i, key[base + i]) for i in range(m) if key[base + i]]
            for t, (i, e) in enumerate(active):
                if e >= 2:
                    weight = coeff * (e * (e - 1))
                    lowered = list(key)
                    lowered[base + i] = e - 2
                    yield tuple(lowered), weight
                    for lb in lower:
                        raised = list(lowered)
                        raised[lb + i] += 2
                        yield tuple(raised), -weight
                for i2, e2 in active[t + 1:]:
                    weight = coeff * (2 * e * e2)
                    lowered = list(key)
                    lowered[base + i] = e - 1
                    lowered[base + i2] = e2 - 1
                    for lb in lower:
                        raised = list(lowered)
                        raised[lb + i] += 1
                        raised[lb + i2] += 1
                        yield tuple(raised), -weight

    return work._sum(pairs())


def _pizzetti_series(p: VectorPoly, m: int, k: int) -> tuple[ExactScalar, int]:
    """The composed series for j = k down to 1, and the last stage's term count.

    In the last stage only x_1 is left: its factor is the sphere series in
    dimension m, each Laplacian power read off at the origin.
    """
    work = p
    total_h = 0
    for j in range(k, 1, -1):
        nu = m - j + 1
        pairs = []
        term = work
        for s in range(work.degree_in(j) // 2 + 1):
            if term.is_zero():
                break  # the operator lowers degree in x_j, later terms vanish
            q, _ = _series_rational(s, nu)
            # setting x_j = 0 commutes with the sum: keep each term's x_j-free part
            pairs += [(key, c * q) for key, c in term.subs_vector_zero(j).terms.items()]
            term = _tangential_operator(term, j)
        total_h += nu - (nu % 2)
        work = VectorPoly.zero(m, k)._sum(pairs)
    total_q = Fraction(0)
    terms_used = 0
    for s in range(work.degree_in(1) // 2 + 1):
        if work.is_zero():
            break  # all later Laplacian powers vanish too
        q, _ = _series_rational(s, m)
        total_q += q * work.eval_zero()
        terms_used += 1
        work = work.laplacian(1)
    return ExactScalar(total_q, total_h + m - (m % 2)), terms_used


def stiefel_pizzetti_composed(p: VectorPoly, m: int, k: int) -> ExactScalar:
    """Integral of P over orthonormal k-frames in R^m by operator composition.

    Factors are applied for j = k down to 1; the factor for vector j is the
    sphere series of dimension m - j + 1 in the modified Laplacian, and is
    followed by substituting x_j = 0 (later factors never reintroduce x_j).
    Requires 1 <= k <= m - 1.
    """
    if p.nvars != k:
        raise ValueError("integrand must use exactly k vector variables")
    if p.m != m:
        raise ValueError("dimension mismatch")
    if not 1 <= k <= m - 1:
        raise ValueError(f"need 1 <= k <= m - 1 = {m - 1}")
    return _pizzetti_series(p, m, k)[0]


@lru_cache(maxsize=256)
def _ab_symbol_power(m: int, a: int, r: int) -> VectorPoly:
    """Symbol (|x|^2 + |y|^2)^a (|x|^2 |y|^2 - <x,y>^2)^r (cached; immutable)."""
    nx = VectorPoly.norm_squared_var(m, 1, 2)
    ny = VectorPoly.norm_squared_var(m, 2, 2)
    xy = VectorPoly.dot_vars(m, 2, 1, 2)
    return (nx + ny) ** a * (nx * ny - xy * xy) ** r


def stiefel2_explicit(p: VectorPoly, m: int) -> ExactScalar:
    """Integral of P(x, y) over orthonormal 2-frames in R^m, explicit series.

    vol * sum_{s <= deg P / 2} sum_{r <= s/2}
        [1 / (4^s (m/2)_s)] [1 / ((m-1)/2)_r] (A^{s-2r}/(s-2r)!) (B^r/r!) P |_0
    where A and B act as constant-coefficient operators and (a)_n is the
    rising factorial.
    """
    if p.nvars != 2:
        raise ValueError("integrand must use exactly two vector variables")
    if p.m != m:
        raise ValueError("dimension mismatch")
    if m < 3:
        raise ValueError("need m >= 3 for two-frames")
    total = Fraction(0)
    for s in range(p.degree() // 2 + 1):
        for r in range(s // 2 + 1):
            val = fischer_pair(_ab_symbol_power(m, s - 2 * r, r), p)
            if val:  # most pairings vanish; build the coefficient only when needed
                total += val / (4**s * pochhammer_half(m, s) * pochhammer_half(m - 1, r)
                                * factorial(s - 2 * r) * factorial(r))
    return stiefel_volume(m, 2) * ExactScalar(total, 0)


def directional_power_closed_form(j: int, k: int, m: int) -> VectorPoly:
    """<d/dx, y>^(2j) applied to |x|^(2k+2j), in closed form.

    Returns the polynomial in (x, y):
        (4^j (k+j)! / Gamma(k+1/2)) * sum_{r=0}^{min(j,k)} (-1)^r C(j,r)
        * Gamma(k+j-r+1/2) / (k-r)! * |y|^(2(j-r)) B^r |x|^(2(k-r))
    with B = |x|^2 |y|^2 - <x,y>^2.
    """
    if j < 0 or k < 0 or m < 1:
        raise ValueError("need j, k >= 0 and m >= 1")
    nx = VectorPoly.norm_squared_var(m, 1, 2)
    ny = VectorPoly.norm_squared_var(m, 2, 2)
    xy = VectorPoly.dot_vars(m, 2, 1, 2)
    b = nx * ny - xy * xy
    lead = Fraction(4**j * factorial(k + j))
    pairs = []
    for r in range(min(j, k) + 1):
        # Gamma(k+j-r+1/2) / Gamma(k+1/2) is the rising factorial (k+1/2)_{j-r}
        coeff = lead * comb(j, r) * pochhammer_half(2 * k + 1, j - r) / factorial(k - r)
        if r % 2:
            coeff = -coeff
        pairs += (ny ** (j - r) * b**r * nx ** (k - r) * coeff).terms.items()
    return VectorPoly.zero(m, 2)._sum(pairs)


def gauss_sum_check(r: int, l: int, k: int, m: int) -> bool:
    """Exact check of the hypergeometric summation used by the two-frame series.

    sum_{j=r}^{l} (-1)^j Gamma(k+j-r+1/2) / ((l-j)! (j-r)! Gamma(k+j+m/2))
      == (-1)^r Gamma(k+1/2) Gamma(l+(m-1)/2)
         / ((l-r)! Gamma(r+(m-1)/2) Gamma(k+l+m/2)).
    """
    if not 0 <= r <= l:
        raise ValueError("need 0 <= r <= l")
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    lhs = ExactScalar(Fraction(0), 0)
    for j in range(r, l + 1):
        term = gamma_half(2 * (k + j - r) + 1)
        term = term / ExactScalar(Fraction(factorial(l - j) * factorial(j - r)), 0)
        term = term / gamma_half(2 * (k + j) + m)
        if j % 2:
            term = -term
        lhs = lhs + term
    rhs = gamma_half(2 * k + 1) * gamma_half(2 * l + m - 1)
    rhs = rhs / (ExactScalar(Fraction(factorial(l - r)), 0)
                 * gamma_half(2 * r + m - 1) * gamma_half(2 * (k + l) + m))
    if r % 2:
        rhs = -rhs
    return lhs == rhs
