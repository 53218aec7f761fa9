"""Exact polynomial algebra in several vector variables.

A ``VectorPoly`` is a polynomial with rational coefficients in ``nvars``
vector variables x_1, ..., x_nvars, each of dimension ``m``.  Monomials are
keyed by flat exponent tuples of length ``nvars * m``; the component
x_{j,i} (vector j, coordinate i, both 1-based) sits at flat index
``(j-1)*m + (i-1)``.

Constant-coefficient differential operators arise from polynomials by the
substitution x_{j,i} -> d/dx_{j,i} (``DiffOp``).  The module also provides
the adjoint calculus for pairing such operators against test polynomials
through the delta distribution, plus exact scalars of the form
q * pi^(h/2) used by the sphere and Stiefel integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ExpKey = tuple[int, ...]


class VectorPoly:
    """Polynomial with Fraction coefficients in nvars vector variables."""

    __slots__ = ("m", "nvars", "terms")

    def __init__(self, m: int, nvars: int, terms: dict[ExpKey, Fraction] | None = None):
        if m < 1 or nvars < 1:
            raise ValueError("need m >= 1 and nvars >= 1")
        self.m = m
        self.nvars = nvars
        width = m * nvars
        clean: dict[ExpKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != width:
                    raise ValueError(f"exponent key of length {len(key)}, expected {width}")
                if any(e < 0 for e in key):
                    raise ValueError("negative exponent")
                if coeff:
                    clean[tuple(key)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, nvars: int = 1) -> "VectorPoly":
        return cls(m, nvars)

    @classmethod
    def constant(cls, m: int, value, nvars: int = 1) -> "VectorPoly":
        value = Fraction(value)
        return cls(m, nvars, {(0,) * (m * nvars): value} if value else {})

    @classmethod
    def variable(cls, m: int, j: int, i: int, nvars: int = 1) -> "VectorPoly":
        """The coordinate polynomial x_{j,i}."""
        if not 1 <= j <= nvars:
            raise ValueError(f"vector index {j} out of range 1..{nvars}")
        if not 1 <= i <= m:
            raise ValueError(f"coordinate index {i} out of range 1..{m}")
        key = [0] * (m * nvars)
        key[(j - 1) * m + (i - 1)] = 1
        return cls(m, nvars, {tuple(key): Fraction(1)})

    @classmethod
    def monomial(cls, m: int, exponents: Sequence[int], coeff=1, nvars: int = 1) -> "VectorPoly":
        return cls(m, nvars, {tuple(exponents): Fraction(coeff)})

    @classmethod
    def dot_vars(cls, m: int, nvars: int, ja: int, jb: int) -> "VectorPoly":
        """Euclidean inner product <x_ja, x_jb> as a polynomial."""
        out = cls.zero(m, nvars)
        for i in range(1, m + 1):
            out = out + cls.variable(m, ja, i, nvars) * cls.variable(m, jb, i, nvars)
        return out

    @classmethod
    def norm_squared_var(cls, m: int, j: int, nvars: int = 1) -> "VectorPoly":
        return cls.dot_vars(m, nvars, j, j)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        result = VectorPoly.__new__(VectorPoly)
        result.m, result.nvars, result.terms = self.m, self.nvars, out
        return result

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._raw({})
            return self._raw({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[ExpKey, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                acc = out.get(key, 0) + ca * cb
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = VectorPoly.constant(self.m, 1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _coerce(self, other) -> "VectorPoly":
        if isinstance(other, VectorPoly):
            if (other.m, other.nvars) != (self.m, self.nvars):
                raise ValueError("shape mismatch between polynomials")
            return other
        if isinstance(other, (int, Fraction)):
            return VectorPoly.constant(self.m, other, self.nvars)
        raise TypeError(f"cannot combine VectorPoly with {type(other)!r}")

    def _raw(self, terms: dict[ExpKey, Fraction]) -> "VectorPoly":
        result = VectorPoly.__new__(VectorPoly)
        result.m, result.nvars, result.terms = self.m, self.nvars, terms
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = VectorPoly.constant(self.m, other, self.nvars)
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return (self.m, self.nvars) == (other.m, other.nvars) and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def _flat(self, j: int, i: int) -> int:
        return (j - 1) * self.m + (i - 1)

    def diff_index(self, idx: int) -> "VectorPoly":
        out: dict[ExpKey, Fraction] = {}
        for key, coeff in self.terms.items():
            e = key[idx]
            if e:
                new = list(key)
                new[idx] = e - 1
                out[tuple(new)] = coeff * e
        return self._raw(out)

    def diff(self, j: int, i: int) -> "VectorPoly":
        """Partial derivative with respect to x_{j,i}."""
        return self.diff_index(self._flat(j, i))

    def laplacian(self, j: int = 1) -> "VectorPoly":
        """Laplacian in the j-th vector variable."""
        out: dict[ExpKey, Fraction] = {}
        base = (j - 1) * self.m
        for key, coeff in self.terms.items():
            for i in range(self.m):
                e = key[base + i]
                if e >= 2:
                    new = list(key)
                    new[base + i] = e - 2
                    new = tuple(new)
                    acc = out.get(new, 0) + coeff * (e * (e - 1))
                    if acc:
                        out[new] = acc
                    elif new in out:
                        del out[new]
        return self._raw(out)

    def directional(self, j: int, weights: Sequence["VectorPoly | Fraction | int"]) -> "VectorPoly":
        """Apply the first-order operator sum_i w_i d/dx_{j,i}.

        Weights may be polynomials (for operators like <x_l, d/dx_j>) or
        plain rationals.
        """
        if len(weights) != self.m:
            raise ValueError(f"need {self.m} weights")
        out = VectorPoly.zero(self.m, self.nvars)
        for i, w in enumerate(weights, start=1):
            d = self.diff(j, i)
            if d.is_zero():
                continue
            out = out + d * w
        return out

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def degree_in(self, j: int) -> int:
        base = (j - 1) * self.m
        return max((sum(k[base:base + self.m]) for k in self.terms), default=0)

    def eval_zero(self) -> Fraction:
        """Value at the origin: the constant coefficient."""
        return self.terms.get((0,) * (self.m * self.nvars), Fraction(0))

    def subs_vector_zero(self, j: int) -> "VectorPoly":
        """Substitute x_j = 0, dropping every term that involves it."""
        base = (j - 1) * self.m
        out = {k: c for k, c in self.terms.items() if not any(k[base:base + self.m])}
        return self._raw(out)

    def reflect(self) -> "VectorPoly":
        """Substitute x -> -x in every variable: negate odd-degree terms."""
        return self._raw({k: (-c if sum(k) % 2 else c) for k, c in self.terms.items()})

    def eval(self, point: Sequence) -> object:
        """Evaluate at a flat point tuple of length nvars*m."""
        width = self.m * self.nvars
        if len(point) != width:
            raise ValueError(f"point of length {len(point)}, expected {width}")
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for idx, e in enumerate(key):
                if e:
                    term = term * point[idx] ** e
            total = total + term
        return total

    def compose_linear(self, rows: Sequence[Sequence]) -> "VectorPoly":
        """Substitute x_{j,i} -> sum_l rows[i][l] * x_{j,l} in every vector block.

        ``rows`` is an m x m matrix of rationals; the same substitution is
        applied to each vector variable, as when rotating all arguments by
        one orthogonal matrix.
        """
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise ValueError("need an m x m matrix")
        lin: dict[tuple[int, int], VectorPoly] = {}
        for j in range(1, self.nvars + 1):
            for i in range(1, self.m + 1):
                form = VectorPoly.zero(self.m, self.nvars)
                for l in range(1, self.m + 1):
                    c = Fraction(rows[i - 1][l - 1])
                    if c:
                        form = form + VectorPoly.variable(self.m, j, l, self.nvars) * c
                lin[(j, i)] = form
        out = VectorPoly.zero(self.m, self.nvars)
        for key, coeff in self.terms.items():
            term = VectorPoly.constant(self.m, coeff, self.nvars)
            for idx, e in enumerate(key):
                if e:
                    j, i = divmod(idx, self.m)
                    term = term * lin[(j + 1, i + 1)] ** e
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (-sum(k), k)):
            coeff = self.terms[key]
            factors = []
            for idx, e in enumerate(key):
                if e:
                    j, i = divmod(idx, self.m)
                    name = f"x{j + 1}_{i + 1}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            parts.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return " + ".join(parts)


@dataclass(frozen=True)
class DiffOp:
    """Constant-coefficient operator: the symbol with x_{j,i} -> d/dx_{j,i}."""

    symbol: VectorPoly

    def apply(self, p: VectorPoly) -> VectorPoly:
        return apply_diffop(self.symbol, p)


def _check_shapes(symbol: VectorPoly, p: VectorPoly):
    if (symbol.m, symbol.nvars) != (p.m, p.nvars):
        raise ValueError("shape mismatch between operator symbol and argument")


def apply_diffop(symbol: VectorPoly, p: VectorPoly) -> VectorPoly:
    """Apply symbol(d/dx) to p, term by term."""
    _check_shapes(symbol, p)
    out = VectorPoly.zero(p.m, p.nvars)
    for key, coeff in symbol.terms.items():
        q = p
        for idx, e in enumerate(key):
            for _ in range(e):
                q = q.diff_index(idx)
                if q.is_zero():
                    break
            if q.is_zero():
                break
        if not q.is_zero():
            out = out + q * coeff
    return out


def fischer_pair(a: VectorPoly, b: VectorPoly) -> Fraction:
    """Fischer inner product <a, b> = sum_alpha a_alpha b_alpha alpha!.

    Equals (a(d/dx) b)(0): only equal monomials survive differentiation
    followed by evaluation at the origin, so one lookup per term suffices.
    """
    _check_shapes(a, b)
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    total = Fraction(0)
    for key, coeff in small.items():
        other = large.get(key)
        if other is not None:
            total += coeff * other * math.prod(map(math.factorial, key))
    return total


def fischer_commute(r: VectorPoly, q: VectorPoly) -> VectorPoly:
    """Move a polynomial factor across a derivative of delta: q(-d/dx)[r].

    If R(d/dx) acts on the delta distribution, then multiplying by q equals
    acting with the operator whose symbol is this return value:
    R(d)[delta] * q == (q(-d)[R])(d)[delta].
    """
    return apply_diffop(q.reflect(), r)


def delta_pair(r: VectorPoly, test: VectorPoly) -> Fraction:
    """Pairing (R(d/dx)[delta], test) = (R(-d/dx)[test])(0) = <R(-x), test>."""
    return fischer_pair(r.reflect(), test)


@dataclass(frozen=True, slots=True)
class ExactScalar:
    """Exact value q * pi^(h/2) with rational q and integer h >= 0."""

    q: Fraction
    h: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.h < 0:
            raise ValueError("negative power of pi")
        if not self.q and self.h:
            object.__setattr__(self, "h", 0)

    @classmethod
    def rational(cls, value) -> "ExactScalar":
        return cls(Fraction(value), 0)

    def is_zero(self) -> bool:
        return not self.q

    def __add__(self, other):
        other = _exact(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.h != other.h:
            raise ValueError(f"incompatible pi powers: {self.h}/2 vs {other.h}/2")
        return ExactScalar(self.q + other.q, self.h)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ExactScalar(-self.q, self.h)

    def __mul__(self, other):
        other = _exact(other)
        return ExactScalar(self.q * other.q, self.h + other.h if self.q * other.q else 0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _exact(other)
        if not other.q:
            raise ZeroDivisionError("division by exact zero")
        if self.is_zero():
            return ExactScalar(Fraction(0), 0)
        if self.h < other.h:
            raise ValueError(f"pi power underflow: ({self.h} - {other.h})/2 < 0")
        return ExactScalar(self.q / other.q, self.h - other.h)

    def to_float(self) -> float:
        return float(self.q) * math.pi ** (self.h / 2)

    def __str__(self):
        if not self.q:
            return "0"
        if self.h == 0:
            return str(self.q)
        if self.h == 2:
            return f"{self.q} * pi"
        if self.h % 2 == 0:
            return f"{self.q} * pi^{self.h // 2}"
        return f"{self.q} * pi^({self.h}/2)"

    __repr__ = __str__


def _exact(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(Fraction(value), 0)
    raise TypeError(f"cannot coerce {type(value)!r} to ExactScalar")


def gamma_half(two_a: int) -> ExactScalar:
    """Gamma(two_a / 2) for positive integer two_a, as an exact scalar.

    Integer arguments give factorials; half-integer arguments give
    (2t)!/(4^t t!) * sqrt(pi) at t + 1/2.
    """
    if two_a < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_a % 2 == 0:
        return ExactScalar(Fraction(math.factorial(two_a // 2 - 1)), 0)
    t = (two_a - 1) // 2
    return ExactScalar(Fraction(math.factorial(2 * t), 4**t * math.factorial(t)), 1)


def pochhammer_half(two_a: int, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) for a = two_a / 2."""
    out = Fraction(1)
    for t in range(n):
        out *= Fraction(two_a + 2 * t, 2)
    return out
