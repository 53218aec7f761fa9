"""Reference values computed independently of the library internals.

Everything here is built directly from factorials over Fraction, so
agreement with the library is a meaningful cross-check rather than the
same code evaluated twice.  Values are returned as (q, h) pairs meaning
q * pi^(h/2).
"""

from fractions import Fraction
from math import factorial


def gamma_half_pair(two_a: int) -> tuple[Fraction, int]:
    """Gamma(two_a / 2) as (q, h).

    Even argument: Gamma(n) = (n-1)!.
    Odd argument:  Gamma(t + 1/2) = (2t)! / (4^t t!) * sqrt(pi).
    """
    if two_a <= 0:
        raise ValueError("argument must be positive")
    if two_a % 2 == 0:
        return Fraction(factorial(two_a // 2 - 1)), 0
    t = (two_a - 1) // 2
    return Fraction(factorial(2 * t), 4**t * factorial(t)), 1


def sphere_monomial(alpha: tuple[int, ...], m: int) -> tuple[Fraction, int]:
    """Integral of x^alpha over the unit sphere in R^m.

    Zero unless every exponent is even; otherwise
        2 * prod_i Gamma((alpha_i + 1) / 2) / Gamma((|alpha| + m) / 2).
    """
    if len(alpha) != m:
        raise ValueError("exponent tuple must have length m")
    if any(a < 0 for a in alpha):
        raise ValueError("negative exponent")
    if any(a % 2 for a in alpha):
        return Fraction(0), 0
    num_q, num_h = Fraction(2), 0
    for a in alpha:
        q, h = gamma_half_pair(a + 1)
        num_q *= q
        num_h += h
    den_q, den_h = gamma_half_pair(sum(alpha) + m)
    # denominator pi power never exceeds the numerator's here
    return num_q / den_q, num_h - den_h


def sphere_area_pair(m: int) -> tuple[Fraction, int]:
    """Surface area of the unit sphere in R^m as (q, h)."""
    return sphere_monomial((0,) * m, m)


def stiefel_volume_pair(m: int, k: int) -> tuple[Fraction, int]:
    """prod_{j=1..k} A_{m-j+1} as (q, h)."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    q, h = Fraction(1), 0
    for j in range(1, k + 1):
        aq, ah = sphere_area_pair(m - j + 1)
        q *= aq
        h += ah
    return q, h


def pair_to_float(pair: tuple[Fraction, int]) -> float:
    from math import pi
    q, h = pair
    return float(q) * pi ** (h / 2)


# -- dict-only reference kernels ---------------------------------------------
#
# Polynomials below are plain {exponent tuple: Fraction} dicts with the
# library's flat layout: vector j, coordinate i (both 1-based) at index
# (j-1)*m + (i-1).  Every operator is built from the single-index
# derivative, the slow way the library's fused kernels replace.


def _accumulate(out: dict, key: tuple, value) -> None:
    acc = out.get(key, 0) + value
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def diff_terms(terms: dict, idx: int) -> dict:
    """d/dx_idx of a term dict."""
    out = {}
    for key, c in terms.items():
        if key[idx]:
            new = list(key)
            new[idx] -= 1
            _accumulate(out, tuple(new), c * key[idx])
    return out


def diffop_terms(symbol: dict, terms: dict) -> dict:
    """symbol(d/dx) applied to terms by repeated single-index derivatives."""
    out = {}
    for skey, sc in symbol.items():
        q = terms
        for idx, e in enumerate(skey):
            for _ in range(e):
                q = diff_terms(q, idx)
        for key, c in q.items():
            _accumulate(out, key, sc * c)
    return out


def reflect_terms(terms: dict) -> dict:
    """x -> -x: negate the odd-degree terms."""
    return {k: (-c if sum(k) % 2 else c) for k, c in terms.items()}


def directional_terms(terms: dict, m: int, j: int, l: int) -> dict:
    """<x_l, d/dx_j> = sum_i x_{l,i} d/dx_{j,i}."""
    out = {}
    for i in range(m):
        for key, c in diff_terms(terms, (j - 1) * m + i).items():
            new = list(key)
            new[(l - 1) * m + i] += 1
            _accumulate(out, tuple(new), c)
    return out


def tangential_terms(terms: dict, m: int, j: int) -> dict:
    """Delta_{x_j} - sum_{l<j} <x_l, d/dx_j>^2, the square applied as two passes."""
    out = {}
    for i in range(m):
        idx = (j - 1) * m + i
        for key, c in diff_terms(diff_terms(terms, idx), idx).items():
            _accumulate(out, key, c)
    for l in range(1, j):
        twice = directional_terms(directional_terms(terms, m, j, l), m, j, l)
        for key, c in twice.items():
            _accumulate(out, key, -c)
    return out


# -- blade products ------------------------------------------------------------


def blade_product(a: tuple, b: tuple, square: int) -> tuple[int, tuple]:
    """Sign and blade of g_a g_b for generators with g_j g_j = square.

    Sorting the concatenation a + b (stable, so equal indices end up side by
    side without a swap) costs the sign of that permutation, (-1)^inversions;
    each repeated index then contracts to the scalar ``square``.  The blade
    left over is the symmetric difference.
    """
    seq = list(a) + list(b)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    contractions = len(set(a) & set(b))
    sign = (-1) ** inversions * square ** contractions
    return sign, tuple(sorted(set(a) ^ set(b)))
