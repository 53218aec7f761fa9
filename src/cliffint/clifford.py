"""Real Clifford algebra with negative-definite signature.

Generators e_1, ..., e_m satisfy e_j e_l + e_l e_j = -2 delta_{jl}, so each
e_j squares to -1 and distinct generators anticommute.  A multivector is a
finite sum over basis blades e_A = e_{j_1} ... e_{j_k} indexed by strictly
increasing tuples A = (j_1 < ... < j_k) of indices from {1, .., m}.  A
vector x = sum_j x_j e_j is the grade-1 multivector ``Multivector.from_vector``.

``Terms`` is the sparse blade algebra shared by ``Multivector`` here and by
``CliffordPoly`` and ``CliffordForm`` in ``exterior``: a dict from blades
to coefficients in some ring, with printing, grade projection and the
blade-by-blade product.  Addition, negation, equality and hashing come
from its base ``polyalg._SparseTerms``, which ``VectorPoly`` shares.  The
algebras differ only in what a repeated generator squares to (the square
rule of ``_mul_blades``): -1 for the Clifford generators e_j, 0 for the
differentials dx_j, whose blades therefore multiply like the exterior
algebra.  ``wedge`` and ``wedge_vectors`` use the same square-0 rule: the
wedge of two elements is their blade product with e_j^2 = 0.

Coefficients are generic ring elements: ``fractions.Fraction`` for exact
work, ``float`` for numerics, polynomials and Clifford polynomials in
``exterior``.  Operations never mix coefficient handling beyond ordinary
arithmetic, and a coefficient is zero exactly when it is false, so every
ring works uniformly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Iterable, Sequence

from .polyalg import _SparseTerms

Blade = tuple[int, ...]


def _mul_blades(a: Blade, b: Blade, square: int) -> tuple[int, Blade]:
    """Product of two basis blades: sign and resulting sorted blade.

    Elements of ``b`` are merged into ``a`` one at a time, counting the
    transpositions needed to keep indices sorted; a repeated index pair
    contracts to ``square``: -1 for e_j e_j, 0 for dx_j dx_j.  A zero sign
    means the product vanishes.
    """
    sign = 1
    out = list(a)
    for j in b:
        pos = len(out)
        while pos > 0 and out[pos - 1] > j:
            pos -= 1
        if (len(out) - pos) % 2:
            sign = -sign
        if pos > 0 and out[pos - 1] == j:
            if not square:
                return 0, ()
            out.pop(pos - 1)
            sign *= square
        else:
            out.insert(pos, j)
    return sign, tuple(out)


def _check_blade(blade: Blade, m: int) -> Blade:
    blade = tuple(blade)
    if any(not 1 <= j <= m for j in blade):
        raise ValueError(f"blade indices must lie in 1..{m}: {blade}")
    if any(blade[i] >= blade[i + 1] for i in range(len(blade) - 1)):
        raise ValueError(f"blade indices must be strictly increasing: {blade}")
    return blade


class Terms(_SparseTerms):
    """Sparse sum of basis blades over a coefficient ring.

    ``terms`` maps sorted index tuples to nonzero coefficients.  ``nvars``
    is the number of m-vector variables of polynomial coefficients, 0 when
    the coefficients are numbers.  Addition, negation, equality and hashing
    come from ``polyalg._SparseTerms``; this class adds blade validation,
    grades, printing and the blade-by-blade product.
    """

    __slots__ = ()
    _generator = "e"

    def __init__(self, m: int, nvars: int = 1, terms: dict | None = None):
        if m < 0:
            raise ValueError("dimension must be nonnegative")
        self.m = m
        self.nvars = nvars
        clean = {}
        if terms:
            for blade, coeff in terms.items():
                if nvars and (coeff.m, coeff.nvars) != (m, nvars):
                    raise ValueError("coefficient shape mismatch")
                blade = _check_blade(blade, m)
                if coeff:
                    clean[blade] = coeff
        self.terms = clean

    def _product(self, other, square: int):
        """Blade-by-blade product; coefficients multiply in order."""
        def pairs():
            for ba, ca in self.terms.items():
                for bb, cb in other.terms.items():
                    sign, blade = _mul_blades(ba, bb, square)
                    if sign:
                        coeff = ca * cb
                        yield blade, coeff if sign > 0 else -coeff

        return self._sum(pairs())

    def grades(self) -> set[int]:
        return {len(blade) for blade in self.terms}

    def grade_project(self, k: int):
        """Grade projection [a]_k."""
        return self._like({b: c for b, c in self.terms.items() if len(b) == k})

    def _named_terms(self):
        """(blade name, coefficient) pairs by grade, then by index; the scalar's name is ''."""
        for blade in sorted(self.terms, key=lambda b: (len(b), b)):
            name = self._generator + "".join(map(str, blade)) if blade else ""
            yield name, self.terms[blade]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for name, coeff in self._named_terms():
            text = f"{coeff}" if isinstance(coeff, (int, Fraction, float)) else f"({coeff})"
            parts.append(f"{text}*{name}" if name else text)
        return " + ".join(parts)


class Multivector(Terms):
    """Element of the real Clifford algebra of dimension ``m``.

    Coefficients are numbers, so ``nvars`` is 0.
    """

    __slots__ = ()

    def __init__(self, m: int, terms: dict[Blade, object] | None = None):
        super().__init__(m, 0, terms)

    @classmethod
    def scalar(cls, m: int, value) -> "Multivector":
        return cls(m, {(): value})

    @classmethod
    def basis(cls, m: int, indices: Iterable[int]) -> "Multivector":
        """Basis blade e_A for a strictly increasing index tuple A."""
        return cls(m, {_check_blade(tuple(indices), m): 1})

    @classmethod
    def from_vector(cls, components: Sequence) -> "Multivector":
        """Grade-1 multivector with the given Euclidean components."""
        m = len(components)
        return cls(m, {(i + 1,): c for i, c in enumerate(components) if c})

    def coefficient(self, blade: Iterable[int]):
        return self.terms.get(tuple(blade), 0)

    def scalar_part(self):
        return self.terms.get((), 0)

    def norm_squared(self):
        """Sum of squared blade coefficients (positive definite)."""
        return sum(c * c for c in self.terms.values())

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, float)):
            return Multivector.scalar(self.m, other)
        return super()._coerce(other)

    def _scalar_key(self):
        return ()

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._product(other, -1)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self


def _as_multivector(a, m: int | None = None) -> Terms:
    if isinstance(a, Terms):
        return a
    if m is not None and isinstance(a, (int, Fraction, float)):
        return Multivector.scalar(m, a)
    raise TypeError(f"expected Multivector, got {type(a)!r}")


def dot(a, b) -> Terms:
    """Inner (dot) product: on grades k and l it is [a b]_{|l-k|}.

    Extended bilinearly over grade components of both arguments.  For a
    vector v against a grade-k element this agrees with (va - (-1)^k av)/2.
    Serves multivectors and Clifford-valued polynomials alike.
    """
    a = _as_multivector(a)
    b = _as_multivector(b, a.m)
    pairs = []
    for k in a.grades():
        ak = a.grade_project(k)
        for l in b.grades():
            pairs += (ak * b.grade_project(l)).grade_project(abs(l - k)).terms.items()
    return a._sum(pairs)


def wedge(a, b) -> Terms:
    """Outer (wedge) product: on grades k and l it is [a b]_{k+l}.

    On blades [e_A e_B]_{|A|+|B|} is nonzero only when A and B are
    disjoint, so this is the blade product with square 0.  Serves
    multivectors and Clifford-valued polynomials alike.
    """
    a = _as_multivector(a)
    b = a._coerce(_as_multivector(b, a.m))
    if b is NotImplemented:
        raise TypeError(f"cannot wedge {type(a).__name__} with another algebra")
    return a._product(b, 0)


def wedge_vectors(vectors: Sequence) -> Multivector:
    """Wedge v_1 ^ ... ^ v_k of grade-1 elements.

    The exterior product of vectors is their antisymmetrised geometric
    product, which is the blade product in which a repeated index squares
    to 0 instead of -1: the dx_j^2 = 0 rule of ``exterior.form_mul``.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    mvs = [_as_multivector(v) for v in vectors]
    for v in mvs:
        if v.grades() not in ({1}, set()):
            raise ValueError("wedge_vectors expects grade-1 arguments")
    return reduce(wedge, mvs)


def _det_fraction(rows: list[list]) -> object:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) if not isinstance(x, float) else x for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col] if isinstance(a[col][col], float) else Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [a[r][c] - factor * a[col][c] for c in range(n)]
    return det


def gram_det(vectors: Sequence):
    """Determinant of the Gram matrix G_{ij} = <v_i, v_j> of grade-1 elements.

    The inner products are plain component sums, independent of the wedge
    and of the Clifford product; the determinant equals the squared blade
    norm of v_1 ^ ... ^ v_k.
    """
    comps = [_grade1_components(v) for v in vectors]
    if not comps:
        raise ValueError("need at least one vector")
    if len({len(c) for c in comps}) > 1:
        raise ValueError("dimension mismatch")
    gram = [[sum(a * b for a, b in zip(u, w)) for w in comps] for u in comps]
    return _det_fraction(gram)


def _grade1_components(a: Multivector) -> list:
    if a.grades() not in ({1}, set()):
        raise ValueError("expected a grade-1 element")
    return [a.terms.get((i,), 0) for i in range(1, a.m + 1)]


def blades_of_grade(m: int, k: int) -> list[Blade]:
    """All sorted index tuples of length k from {1..m}."""
    return [tuple(c) for c in combinations(range(1, m + 1), k)]
