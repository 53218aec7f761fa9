"""Exact polynomial algebra in several vector variables.

A ``VectorPoly`` is a polynomial with rational coefficients in ``nvars``
vector variables x_1, ..., x_nvars, each of dimension ``m``.  Monomials are
keyed by flat exponent tuples of length ``nvars * m``; the component
x_{j,i} (vector j, coordinate i, both 1-based) sits at flat index
``(j-1)*m + (i-1)``.

``VectorPoly`` shares its addition, negation, equality and hashing with
the blade algebras of ``clifford`` through the base ``_SparseTerms``.  Its
coefficients are always ``Fraction``s.  ``__init__`` validates the terms
callers pass in; the constructors that build their own keys skip it.

Exact arithmetic that builds a polynomial from many small pieces runs on
*forms*: (key, integer numerator) pairs, none zero, over one positive
denominator.  The private ``_int_sum``, ``_int_neg``, ``_int_product``
and ``_int_power`` act on forms in the term order of the ``VectorPoly``
operations they stand for, and ``_over`` builds one Fraction per output
term at the end.  ``_int_product`` is the one polynomial product:
``VectorPoly.product``, and with it ``*``, powers, ``compose_linear`` and
the terms of ``cli``'s parser, which holds every subexpression as a form,
all run through it.  Every other sum of terms in the exact algebras, here
and in ``pizzetti``, ``clifford``, ``exterior`` and ``geomint``, yields
(key, coefficient) pairs into one accumulator, ``_SparseTerms._sum``, so
it is linear in the terms summed; ``_int_sum`` follows its rule.

Constant-coefficient differential operators arise from polynomials by the
substitution x_{j,i} -> d/dx_{j,i} (``apply_diffop``).  The module also
provides the adjoint calculus for pairing such operators against test
polynomials through the delta distribution, plus exact scalars of the form
q * pi^(h/2) used by the sphere and Stiefel integrators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ExpKey = tuple[int, ...]


class _SparseTerms:
    """Sparse sum of terms: a dict from keys to nonzero coefficients.

    The key-agnostic half of the exact algebras: ``VectorPoly`` keys its
    terms by exponent tuples, the blade algebras of ``clifford.Terms`` by
    sorted index tuples.  ``m`` is the dimension and ``nvars`` the number of
    m-vector variables.  No stored coefficient is zero, so equality is plain
    dict equality once an operand of another type is coerced; an operand of
    another shape compares unequal.  Subclasses supply their constructors,
    the coercion of plain numbers and ``__mul__``.
    """

    __slots__ = ("m", "nvars", "terms")

    def _like(self, terms: dict):
        """Same class and shape with the given terms.

        Trusted: the keys are not validated again and no coefficient may be
        zero.
        """
        out = object.__new__(type(self))
        out.m, out.nvars, out.terms = self.m, self.nvars, terms
        return out

    def _scalar_key(self):
        """Key of the scalar term when a scalar equals its plain number, else None."""
        return None

    def _coerce(self, other):
        """``other`` as an element of this algebra, or NotImplemented."""
        if type(other) is not type(self):
            return NotImplemented
        if (other.m, other.nvars) != (self.m, self.nvars):
            raise ValueError(f"shape (m, nvars) mismatch: {(other.m, other.nvars)} "
                             f"!= {(self.m, self.nvars)}")
        return other

    def _scale(self, factor):
        """Every coefficient multiplied by ``factor`` on the right; zero products dropped."""
        return self._like({k: p for k, c in self.terms.items() if (p := c * factor)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _sum(self, pairs, start=None):
        """Same class and shape with the (key, coeff) pairs summed in order.

        Every sum of terms in the exact algebras runs through here.  The sum
        starts from a copy of ``start``'s terms (none when it is None), so
        it takes time linear in the pairs.  A key whose sum cancels is
        deleted where it stands, and a zero coefficient for a new key is not
        stored: Clifford coefficients have zero divisors, so a product of
        two nonzero coefficients may vanish.
        """
        out = dict(start.terms) if start is not None else {}
        get = out.get
        for key, coeff in pairs:
            acc = get(key)
            if acc is None:
                if coeff:
                    out[key] = coeff
            elif acc := acc + coeff:
                out[key] = acc
            else:
                del out[key]
        return self._like(out)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sum(other.terms.items(), self)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            try:
                other = self._coerce(other)
            except ValueError:  # another shape: unequal, not an error
                return False
            if other is NotImplemented:
                return NotImplemented
        return (self.m, self.nvars) == (other.m, other.nvars) and self.terms == other.terms

    def __hash__(self):
        # a scalar that equals its plain number (see __eq__) hashes like it
        key = self._scalar_key()
        if key is not None and set(self.terms) <= {key}:
            return hash(self.terms.get(key, 0))
        return hash((self.m, self.nvars, frozenset(self.terms.items())))


class VectorPoly(_SparseTerms):
    """Polynomial with Fraction coefficients in nvars vector variables."""

    __slots__ = ()

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
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(key)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, nvars: int = 1) -> "VectorPoly":
        return cls(m, nvars)

    @classmethod
    def constant(cls, m: int, value, nvars: int = 1) -> "VectorPoly":
        # __init__ checks the shape; the one key is built here, so it is trusted
        value = Fraction(value)
        return cls(m, nvars)._like({(0,) * (m * nvars): value} if value else {})

    @classmethod
    def variable(cls, m: int, j: int, i: int, nvars: int = 1) -> "VectorPoly":
        """The coordinate polynomial x_{j,i}."""
        if not 1 <= j <= nvars:
            raise ValueError(f"vector index {j} out of range 1..{nvars}")
        if not 1 <= i <= m:
            raise ValueError(f"coordinate index {i} out of range 1..{m}")
        return cls(m, nvars)._like({_unit_key(m * nvars, (j - 1) * m + i - 1): Fraction(1)})

    @classmethod
    def monomial(cls, m: int, exponents: Sequence[int], coeff=1, nvars: int = 1) -> "VectorPoly":
        return cls(m, nvars, {tuple(exponents): Fraction(coeff)})

    @classmethod
    def dot_vars(cls, m: int, nvars: int, ja: int, jb: int) -> "VectorPoly":
        """Euclidean inner product <x_ja, x_jb> as a polynomial."""
        return cls(m, nvars)._like({key: Fraction(1) for key in _dot_keys(m, nvars, ja, jb)})

    @classmethod
    def norm_squared_var(cls, m: int, j: int, nvars: int = 1) -> "VectorPoly":
        return cls.dot_vars(m, nvars, j, j)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def product(factors: Sequence["VectorPoly"]) -> "VectorPoly":
        """Product of one or more factors, in their order: a polynomial,
        then polynomials of its shape or numbers.

        The factors' forms go through ``_int_product``, the left fold of
        ``*``, and the Fractions are built once, at the end; Fractions are
        canonical, so every coefficient equals the term-by-term Fraction
        sum.  The later factors' shapes are checked even when the product
        is zero.
        """
        first, *rest = factors
        if not rest:
            return first
        forms = [_numerators(first.terms)]
        for factor in rest:
            factor = first._coerce(factor)
            if factor is NotImplemented:
                raise TypeError("a product takes polynomials and numbers")
            forms.append(_numerators(factor.terms))
        return first._like(_over(*_int_product(forms)))

    def __mul__(self, other):
        """Product with a number or a polynomial of the same shape."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._like({})
            return self._like({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return VectorPoly.product((self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """The n-th power, n >= 0, by ``_int_power``: equal to repeated
        ``*``, term order included."""
        if n < 0:
            raise ValueError("negative power")
        return self._like(_over(*_int_power(_numerators(self.terms), n, self._scalar_key())))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return VectorPoly.constant(self.m, other, self.nvars)
        return super()._coerce(other)

    def _scalar_key(self):
        return (0,) * (self.m * self.nvars)

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
        return self._like(out)

    def diff(self, j: int, i: int) -> "VectorPoly":
        """Partial derivative with respect to x_{j,i}."""
        return self.diff_index(self._flat(j, i))

    def laplacian(self, j: int = 1) -> "VectorPoly":
        """Laplacian in the j-th vector variable."""
        base = (j - 1) * self.m
        return self._sum((key[:i] + (e - 2,) + key[i + 1:], coeff * (e * (e - 1)))
                         for key, coeff in self.terms.items()
                         for i in range(base, base + self.m) if (e := key[i]) >= 2)

    def directional(self, j: int, weights: Sequence["VectorPoly | Fraction | int"]) -> "VectorPoly":
        """Apply the first-order operator sum_i w_i d/dx_{j,i}.

        Weights may be polynomials (for operators like <x_l, d/dx_j>) or
        plain rationals.
        """
        if len(weights) != self.m:
            raise ValueError(f"need {self.m} weights")
        return self._sum(pair for i, w in enumerate(weights, start=1)
                         if (d := self.diff(j, i)) for pair in (d * w).terms.items())

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
        return self._like(out)

    def reflect(self) -> "VectorPoly":
        """Substitute x -> -x in every variable: negate odd-degree terms."""
        return self._like({k: (-c if sum(k) % 2 else c) for k, c in self.terms.items()})

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
        one orthogonal matrix.  Each term's image is the ``_int_product``
        of its coefficient and the powers of the substituted linear forms,
        each power built once; the images are summed by ``_int_sum``.
        """
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise ValueError("need an m x m matrix")
        m, width = self.m, self.m * self.nvars
        rows = [[Fraction(c) for c in row] for row in rows]
        # the linear form substituted for the flat index j*m + i
        lin = [_numerators({_unit_key(width, j * m + l): c for l, c in enumerate(rows[i]) if c})
               for j in range(self.nvars) for i in range(m)]
        one = self._scalar_key()
        powers: dict[tuple[int, int], tuple[list, int]] = {}

        def image(key, coeff):
            forms = [([(one, coeff.numerator)], coeff.denominator)]
            for idx, e in enumerate(key):
                if e:
                    power = powers.get((idx, e))
                    if power is None:
                        power = powers[(idx, e)] = _int_power(lin[idx], e, one)
                    forms.append(power)
            return _int_product(forms)

        return self._like(_over(*_int_sum([image(key, coeff)
                                           for key, coeff in self.terms.items()])))

    def monomial_text(self, key: ExpKey) -> str:
        """The monomial of exponent key ``key`` as text, e.g. 'x1_2^3*x2_1'; '' for 1."""
        factors = []
        for idx, e in enumerate(key):
            if e:
                j, i = divmod(idx, self.m)
                name = f"x{j + 1}_{i + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (-sum(k), k)):
            coeff = self.terms[key]
            mono = self.monomial_text(key)
            parts.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return " + ".join(parts)


def _unit_key(width: int, *flat: int) -> ExpKey:
    """Exponent key of the product of the components at the flat indices ``flat``."""
    key = [0] * width
    for idx in flat:
        key[idx] += 1
    return tuple(key)


def _dot_keys(m: int, nvars: int, ja: int, jb: int) -> list[ExpKey]:
    """The m distinct keys of <x_ja, x_jb> = sum_i x_{ja,i} x_{jb,i}, in order of i."""
    return [_unit_key(m * nvars, (ja - 1) * m + i, (jb - 1) * m + i) for i in range(m)]


def _numerators(terms: dict) -> tuple[list, int]:
    """Terms as a form: (key, integer numerator) pairs over their least common denominator."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()], den


def _over(nums: list, den: int) -> dict:
    """A form's pairs as terms ``n / den``, one Fraction each."""
    if den == 1:  # Fraction's one-integer path skips the gcd
        return {k: Fraction(n) for k, n in nums}
    return {k: Fraction(n, den) for k, n in nums}


def _int_neg(nums: list) -> list:
    """A form's pairs negated."""
    return [(k, -n) for k, n in nums]


def _int_sum(forms: list) -> tuple[list, int]:
    """The sum of a list of forms, over the lcm of their denominators.

    The pairs are summed in order by the rule of ``_SparseTerms._sum``: a
    key whose sum cancels is deleted where it stands.  Scaling by a common
    denominator keeps a sum zero exactly where the Fraction sum is, so the
    terms come in the order of the left fold of ``+``.
    """
    den = math.lcm(*[d for _, d in forms])
    out: dict[ExpKey, int] = {}
    get = out.get
    for nums, d in forms:
        scale = den // d
        for key, n in nums:
            if scale != 1:
                n *= scale
            acc = get(key)
            if acc is None:
                out[key] = n
            elif acc := acc + n:
                out[key] = acc
            else:
                del out[key]
    return list(out.items()), den


def _int_product(forms: list) -> tuple[list, int]:
    """The product of one or more forms, in their order.

    The denominators multiply.  Where the factor or the running product
    has one term, the other's keys are shifted and its numerators scaled;
    otherwise a double loop runs over the running terms, then the
    factor's, and the zero sums are dropped after each factor, so the terms
    come in the order of the left fold of ``*``.
    """
    add = operator.add
    (nums, den), *rest = forms
    for b, db in rest:
        den *= db
        if not nums or not b:
            nums = []
        elif len(b) == 1:
            (kb, nb), = b
            nums = [(tuple(map(add, ka, kb)), na * nb) for ka, na in nums]
        elif len(nums) == 1:
            (ka, na), = nums
            nums = [(tuple(map(add, ka, kb)), na * nb) for kb, nb in b]
        else:
            out: dict[ExpKey, int] = {}
            get = out.get
            for ka, na in nums:
                for kb, nb in b:
                    key = tuple(map(add, ka, kb))
                    out[key] = get(key, 0) + na * nb
            nums = [(k, n) for k, n in out.items() if n]
    return nums, den


def _int_power(form: tuple[list, int], n: int, one: ExpKey) -> tuple[list, int]:
    """The n-th power of a form, n >= 0; ``one`` is the key of the constant
    term.  A one-term base scales its key and raises its numerator and
    denominator; otherwise ``_int_product`` of n copies."""
    if n == 0:
        return [(one, 1)], 1
    nums, den = form
    if len(nums) == 1:
        (key, num), = nums
        return [(tuple(e * n for e in key), num ** n)], den ** n
    return _int_product([form] * n)


def _check_shapes(symbol: VectorPoly, p: VectorPoly):
    if (symbol.m, symbol.nvars) != (p.m, p.nvars):
        raise ValueError("shape mismatch between operator symbol and argument")


def apply_diffop(symbol: VectorPoly, p: VectorPoly) -> VectorPoly:
    """Apply symbol(d/dx) to p, term by term."""
    _check_shapes(symbol, p)

    def derivative(key):
        q = p
        for idx, e in enumerate(key):
            for _ in range(e):
                q = q.diff_index(idx)
                if q.is_zero():
                    return q
        return q

    return p._sum((k, c * coeff) for key, coeff in symbol.terms.items()
                  for k, c in derivative(key).terms.items())


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
        if not isinstance(self.q, Fraction):
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
