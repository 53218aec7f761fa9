"""Clifford-valued polynomial fields and differential forms.

Differentials dx_1, ..., dx_m anticommute among themselves, square to
zero, and commute with the Clifford generators e_j and with polynomial
coefficients.  Both algebras here are subclasses of ``clifford.Terms``,
the sparse blade algebra they share with ``Multivector``, whose base
``polyalg._SparseTerms`` also carries the addition, negation, equality and
hashing of their ``VectorPoly`` coefficients:

- ``CliffordPoly`` maps Clifford blades e_A to polynomial coefficients;
  its product contracts a repeated generator with e_j^2 = -1.
- ``CliffordForm`` maps sorted dx-index tuples to ``CliffordPoly``
  coefficients; its product (``form_mul``) applies the square rule
  dx_j^2 = 0, so a repeated differential kills the term.  The same rule
  gives ``clifford.wedge`` and ``wedge_vectors``.

The module provides the oriented surface-measure forms Psi_{m-k}, the
exterior derivative (differentials multiply from the left), and exact
checkers for the algebraic identities that relate dphi_1 ... dphi_k
Psi_{m-k} to the blade of gradients times the volume form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Sequence

from .clifford import Blade, Multivector, Terms, _mul_blades, dot, wedge, wedge_vectors
from .polyalg import VectorPoly


class CliffordPoly(Terms):
    """Clifford-algebra element whose blade coefficients are polynomials."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, nvars: int = 1) -> "CliffordPoly":
        return cls(m, nvars)

    @classmethod
    def from_poly(cls, poly: VectorPoly, blade: Blade = ()) -> "CliffordPoly":
        return cls(poly.m, poly.nvars, {tuple(blade): poly})

    @classmethod
    def from_scalar(cls, m: int, value, nvars: int = 1) -> "CliffordPoly":
        return cls.from_poly(VectorPoly.constant(m, value, nvars))

    @classmethod
    def basis(cls, m: int, blade: Blade, nvars: int = 1) -> "CliffordPoly":
        return cls.from_poly(VectorPoly.constant(m, 1, nvars), blade)

    @classmethod
    def from_multivector(cls, mv: Multivector, nvars: int = 1) -> "CliffordPoly":
        terms = {b: VectorPoly.constant(mv.m, c, nvars) for b, c in mv.terms.items()}
        return cls(mv.m, nvars, terms)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, VectorPoly)):
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._product(other, -1)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, VectorPoly)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        # numbers and same-shape VectorPolys are scalar fields
        if isinstance(other, (int, Fraction)):
            return CliffordPoly.from_scalar(self.m, other, self.nvars)
        if isinstance(other, VectorPoly):
            other = CliffordPoly.from_poly(other)
        return super()._coerce(other)

    def _scalar_key(self):
        # the scalar coefficient is a VectorPoly, which hashes like its number
        return ()

    def diff(self, i: int, j: int = 1) -> "CliffordPoly":
        """Differentiate every coefficient with respect to x_{j,i}."""
        return self._like({b: d for b, p in self.terms.items() if (d := p.diff(j, i))})

    def eval(self, point: Sequence) -> Multivector:
        return Multivector(self.m, {b: p.eval(point) for b, p in self.terms.items()})


def gradient(phi: VectorPoly, j: int = 1) -> CliffordPoly:
    """The vector field sum_i (d phi / d x_{j,i}) e_i."""
    terms = {}
    for i in range(1, phi.m + 1):
        d = phi.diff(j, i)
        if not d.is_zero():
            terms[(i,)] = d
    return CliffordPoly(phi.m, phi.nvars, terms)


def wedge_gradients(phases: Sequence[VectorPoly]) -> CliffordPoly:
    """grad(phi_1) ^ ... ^ grad(phi_k)."""
    return wedge_vectors([gradient(phi) for phi in phases])


# -- differential forms ----------------------------------------------------


class CliffordForm(Terms):
    """Differential form with Clifford-valued polynomial coefficients."""

    __slots__ = ()
    _generator = "dx"

    @classmethod
    def zero(cls, m: int, nvars: int = 1) -> "CliffordForm":
        return cls(m, nvars)

    @classmethod
    def unit(cls, m: int, nvars: int = 1) -> "CliffordForm":
        """The degree-0 form 1."""
        return cls(m, nvars, {(): CliffordPoly.from_scalar(m, 1, nvars)})

    @classmethod
    def from_coefficient(cls, coeff: CliffordPoly, dx_blade: Blade = ()) -> "CliffordForm":
        return cls(coeff.m, coeff.nvars, {tuple(dx_blade): coeff})

    def scale_left(self, factor) -> "CliffordForm":
        """Multiply every coefficient by a Clifford factor on the left."""
        return self._like({b: p for b, c in self.terms.items() if (p := factor * c)})

    def scale_right(self, factor) -> "CliffordForm":
        return self._scale(factor)


def form_mul(a: CliffordForm, b: CliffordForm) -> CliffordForm:
    """Product of forms: dx parts anticommute, coefficients multiply in order."""
    return a._product(b, 0)


def exterior_derivative(a: CliffordForm, j: int = 1) -> CliffordForm:
    """d(a) with each dx_i entering from the left of the dx blade."""
    def pairs():
        for dxb, coeff in a.terms.items():
            for i in range(1, a.m + 1):
                sign, new = _mul_blades((i,), dxb, 0)
                if sign:
                    d = coeff.diff(i, j)
                    yield new, d if sign > 0 else -d

    return a._sum(pairs())


def d_of_scalar(phi: VectorPoly) -> CliffordForm:
    """The 1-form d phi = sum_i (d phi / dx_i) dx_i."""
    terms = {}
    for i in range(1, phi.m + 1):
        d = phi.diff(1, i)
        if not d.is_zero():
            terms[(i,)] = CliffordPoly.from_poly(d)
    return CliffordForm(phi.m, phi.nvars, terms)


def vector_differential(m: int, nvars: int = 1) -> CliffordForm:
    """The Clifford-valued 1-form dx = sum_i e_i dx_i."""
    return CliffordForm(m, nvars,
                        {(i,): CliffordPoly.basis(m, (i,), nvars) for i in range(1, m + 1)})


@lru_cache(maxsize=256)
def dx_power_normalized(m: int, p: int, nvars: int = 1) -> CliffordForm:
    """(dx)^p / p!, computed by repeated form multiplication (cached; immutable)."""
    if p < 0 or p > m:
        raise ValueError(f"power must lie in 0..{m}")
    out = CliffordForm.unit(m, nvars)
    dx = vector_differential(m, nvars)
    for _ in range(p):
        out = form_mul(out, dx)
    inv = Fraction(1, factorial(p))
    return out.scale_right(inv)


def volume_form(m: int, nvars: int = 1) -> CliffordForm:
    """dV = dx_1 dx_2 ... dx_m."""
    return CliffordForm(m, nvars,
                        {tuple(range(1, m + 1)): CliffordPoly.from_scalar(m, 1, nvars)})


def ell(a: Blade) -> int:
    """Sum of (j_t - t) over the sorted index tuple a."""
    return sum(j - t for t, j in enumerate(sorted(a), start=1))


def ell_sign(a: Blade) -> int:
    """(-1)^ell(a): the sign relating e_M to e_A e_{M minus A} and dV to dx_A dx_{M minus A}."""
    return -1 if ell(a) % 2 else 1


@lru_cache(maxsize=256)
def psi(m: int, k: int, nvars: int = 1) -> CliffordForm:
    """Oriented surface-measure form of codimension k (cached; immutable).

    Psi_{m-k} = sum over |A| = k of (-1)^ell(A) e_A dx_{M minus A}.  In
    particular Psi_m is the volume form and Psi_{m-1} is the outward
    normal times scalar surface measure.
    """
    if not 0 <= k <= m:
        raise ValueError(f"codimension must lie in 0..{m}")
    full = range(1, m + 1)
    terms: dict[Blade, CliffordPoly] = {}
    for a in combinations(full, k):
        rest = tuple(i for i in full if i not in a)
        coeff = CliffordPoly.basis(m, a, nvars) * Fraction(ell_sign(a))
        terms[rest] = coeff
    return CliffordForm(m, nvars, terms)


def dot_vector_form(v: CliffordPoly, a: CliffordForm) -> CliffordForm:
    """Apply the Clifford dot of a vector field to every coefficient."""
    out = {}
    for dxb, coeff in a.terms.items():
        d = dot(v, coeff)
        if not d.is_zero():
            out[dxb] = d
    return CliffordForm(a.m, a.nvars, out)


def dirac_wedge_form(f: VectorPoly, a: CliffordForm) -> CliffordForm:
    """Apply the operator (vector of partials) wedged onto a form, to f.

    Coefficient of dx_B becomes sum_i (d f / dx_i) (e_i ^ c_B).
    """
    def pairs():
        for i in range(1, a.m + 1):
            df = f.diff(1, i)
            if df:
                ei = CliffordPoly.basis(a.m, (i,), a.nvars)
                for dxb, coeff in a.terms.items():
                    yield dxb, wedge(ei, coeff) * df

    return a._sum(pairs())


# -- identity checks -------------------------------------------------------


@dataclass
class CheckResult:
    """Boolean verdict carrying the first differing term on failure."""

    ok: bool
    mismatch: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CheckResult(ok=True)"
        return f"CheckResult(ok=False, mismatch={self.mismatch!r})"


def _compare_forms(lhs: CliffordForm, rhs: CliffordForm) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True)
    dx_blades = sorted(set(lhs.terms) | set(rhs.terms), key=lambda b: (len(b), b))
    zero_cp = CliffordPoly.zero(lhs.m, lhs.nvars)
    for dxb in dx_blades:
        ca = lhs.terms.get(dxb, zero_cp)
        cb = rhs.terms.get(dxb, zero_cp)
        if ca == cb:
            continue
        blades = sorted(set(ca.terms) | set(cb.terms), key=lambda b: (len(b), b))
        zero_p = VectorPoly.zero(lhs.m, lhs.nvars)
        for blade in blades:
            pa = ca.terms.get(blade, zero_p)
            pb = cb.terms.get(blade, zero_p)
            if pa != pb:
                return CheckResult(False, (dxb, blade, pa, pb))
    return CheckResult(False, None)


def check_oriented_measure_product(phases: Sequence[VectorPoly]) -> CheckResult:
    """dphi_1 ... dphi_k Psi_{m-k} equals (grad phi_1 ^ ... ^ grad phi_k) dV."""
    k = len(phases)
    if k == 0:
        raise ValueError("need at least one phase")
    m = phases[0].m
    lhs = psi(m, k, phases[0].nvars)
    for phi in reversed(phases):
        lhs = form_mul(d_of_scalar(phi), lhs)
    rhs = volume_form(m, phases[0].nvars).scale_left(wedge_gradients(phases))
    return _compare_forms(lhs, rhs)


def check_psi_blade_pairing(m: int, k: int) -> CheckResult:
    """(dx)^{m-k}/(m-k)! equals (-1)^{k(k+1)/2} Psi_{m-k} e_M."""
    # nvars spelled out, as the other callers do, so each form is one cache entry
    lhs = dx_power_normalized(m, m - k, 1)
    e_full = CliffordPoly.basis(m, tuple(range(1, m + 1)))
    rhs = psi(m, k, 1).scale_right(e_full)
    if (k * (k + 1) // 2) % 2:
        rhs = -rhs
    return _compare_forms(lhs, rhs)


def check_gradient_contraction(phi: VectorPoly, k: int) -> CheckResult:
    """grad(phi) . (dx)^k/k! equals -dphi (dx)^{k-1}/(k-1)!."""
    m = phi.m
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in 1..{m}")
    lhs = dot_vector_form(gradient(phi), dx_power_normalized(m, k, phi.nvars))
    rhs = -form_mul(d_of_scalar(phi), dx_power_normalized(m, k - 1, phi.nvars))
    return _compare_forms(lhs, rhs)


def check_gradient_blade_volume(phases: Sequence[VectorPoly]) -> CheckResult:
    """Blade of gradients times (dx)^m/m! equals the signed dphi product form.

    grad phi_1 ^ ... ^ grad phi_k (dx)^m/m! ==
    (-1)^{k(k+1)/2} dphi_1 ... dphi_k (dx)^{m-k}/(m-k)!.
    """
    k = len(phases)
    if k == 0:
        raise ValueError("need at least one phase")
    m = phases[0].m
    nv = phases[0].nvars
    lhs = dx_power_normalized(m, m, nv).scale_left(wedge_gradients(phases))
    rhs = dx_power_normalized(m, m - k, nv)
    for phi in reversed(phases):
        rhs = form_mul(d_of_scalar(phi), rhs)
    if (k * (k + 1) // 2) % 2:
        rhs = -rhs
    return _compare_forms(lhs, rhs)


def check_dirac_psi_derivative(m: int, k: int, f: VectorPoly) -> CheckResult:
    """Dirac wedge against Psi_{m-k} equals (-1)^k d(f Psi_{m-k-1}), tested on f."""
    if not 0 <= k <= m - 1:
        raise ValueError(f"k must lie in 0..{m - 1}")
    lhs = dirac_wedge_form(f, psi(m, k, f.nvars))
    rhs = exterior_derivative(psi(m, k + 1, f.nvars).scale_right(f))
    if k % 2:
        rhs = -rhs
    return _compare_forms(lhs, rhs)
