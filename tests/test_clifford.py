import random
from fractions import Fraction

import pytest

from cliffint import (CliffordForm, CliffordPoly, Multivector, VectorPoly,
                      blades_of_grade, dot, gram_det, wedge, wedge_vectors)
from cliffint.clifford import _mul_blades

from oracles import blade_product


def e(m, *idx):
    return Multivector.basis(m, idx)


def rand_mv(m, rng, max_terms=4):
    out = Multivector.scalar(m, 0)
    blades = [b for k in range(m + 1) for b in blades_of_grade(m, k)]
    for _ in range(rng.randint(1, max_terms)):
        out = out + Fraction(rng.randint(-4, 4)) * Multivector.basis(m, rng.choice(blades))
    return out


def test_generators_square_to_minus_one():
    for m in (1, 2, 4):
        for j in range(1, m + 1):
            assert e(m, j) * e(m, j) == Multivector.scalar(m, -1)


def test_generators_anticommute():
    m = 4
    for j in range(1, m + 1):
        for l in range(1, m + 1):
            if j != l:
                assert e(m, j) * e(m, l) + e(m, l) * e(m, j) == Multivector.scalar(m, 0)


def test_triple_product_contracts():
    # e1 e2 e1 = -e1 e1 e2 = e2
    assert e(3, 1) * e(3, 2) * e(3, 1) == e(3, 2)
    assert e(3, 1) * e(3, 2) * e(3, 1) * e(3, 2) == Multivector.scalar(3, -1)


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        a, b, c = (rand_mv(m, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_distributivity_random():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(1, 4)
        a, b, c = (rand_mv(m, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def test_grade_projection_splits_product():
    m = 3
    a = wedge_vectors([Multivector.from_vector([1, 2, 0]), Multivector.from_vector([0, 1, 1])])
    b = Multivector.from_vector([3, 0, -1])
    prod = a * b
    recomposed = Multivector.scalar(m, 0)
    for k in range(m + 1):
        recomposed = recomposed + prod.grade_project(k)
    assert recomposed == prod
    assert prod.grade_project(1) == dot(a, b)
    assert prod.grade_project(3) == wedge(a, b)


def test_vector_dot_is_symmetric_bilinear():
    rng = random.Random(9)
    for _ in range(30):
        m = rng.randint(2, 5)
        u = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        a = Multivector.from_vector(u)
        b = Multivector.from_vector(v)
        # dot of two vectors lands in grade 0 and matches minus the
        # euclidean inner product (generators square to -1)
        expected = -sum(x * y for x, y in zip(u, v))
        assert dot(a, b) == Multivector.scalar(m, expected)
        assert dot(b, a) == dot(a, b)


def test_wedge_grades_and_antisymmetry():
    a = Multivector.from_vector([1, 0, 2])
    b = Multivector.from_vector([0, 3, 1])
    w = wedge(a, b)
    assert w.grades() == {2}
    assert wedge(b, a) == -w
    assert wedge(a, a).is_zero()


def test_wedge_matches_graded_product_definition():
    # sum over grade parts a_k, b_l of [a_k b_l]_{k+l}, from the Clifford product
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 5)
        a, b = rand_mv(m, rng), rand_mv(m, rng)
        want = Multivector.scalar(m, 0)
        for k in a.grades():
            for l in b.grades():
                want = want + (a.grade_project(k) * b.grade_project(l)).grade_project(k + l)
        assert wedge(a, b) == want


def test_wedge_vectors_agrees_with_iterated_wedge():
    rng = random.Random(10)
    # every k <= m up to m = 5, three draws each, with rational entries
    for m, k in [(m, k) for m in range(2, 6) for k in range(1, m + 1)] * 3:
        vs = [Multivector.from_vector([Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                       for _ in range(m)])
              for _ in range(k)]
        step = vs[0]
        for v in vs[1:]:
            step = wedge(step, v)
        assert wedge_vectors(vs) == step


def test_wedge_vectors_vanishes_on_repeats():
    v = Multivector.from_vector([1, 2, 3])
    w = Multivector.from_vector([0, 1, 0])
    assert wedge_vectors([v, w, v]).is_zero()


def test_gram_det_equals_wedge_norm_squared():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(2, 5)
        k = rng.randint(1, min(3, m))
        vs = [Multivector.from_vector([Fraction(rng.randint(-3, 3)) for _ in range(m)])
              for _ in range(k)]
        assert gram_det(vs) == wedge_vectors(vs).norm_squared()


def test_gram_det_known_value():
    vs = [Multivector.from_vector([1, 0, 0]), Multivector.from_vector([0, 2, 0])]
    assert gram_det(vs) == 4
    assert gram_det([Multivector.from_vector([1, 1]), Multivector.from_vector([2, 2])]) == 0


def test_gram_det_rejects_mixed_dimensions():
    # a truncating zip would return a determinant here instead of an error
    with pytest.raises(ValueError):
        gram_det([Multivector.from_vector([1, 0]), Multivector.from_vector([0, 1, 1])])


def test_gram_det_and_wedge_vectors_reject_other_grades():
    v = Multivector.from_vector([1, 2, 0])
    for other in (e(3, 1, 2), Multivector.scalar(3, 1), v + e(3, 1, 2)):
        with pytest.raises(ValueError):
            gram_det([v, other])
        with pytest.raises(ValueError):
            wedge_vectors([v, other])


def test_blades_of_grade_counts():
    from math import comb
    for m in range(1, 6):
        for k in range(m + 1):
            assert len(blades_of_grade(m, k)) == comb(m, k)


def test_scalar_coercion_and_float_coefficients():
    a = 2 * e(2, 1) - 0.5
    assert a.coefficient((1,)) == 2
    assert a.scalar_part() == -0.5
    assert (a - a).is_zero()


def test_blade_index_validation():
    with pytest.raises(ValueError):
        Multivector.basis(2, (3,))
    with pytest.raises(ValueError):
        Multivector.basis(2, (0,))


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        e(2, 1) * e(3, 1)


# -- the shared blade algebra ---------------------------------------------------

@pytest.mark.parametrize("square", [-1, 0])
def test_mul_blades_matches_sorting_reference(square):
    for m in range(5):
        blades = [b for k in range(m + 1) for b in blades_of_grade(m, k)]
        for a in blades:
            for b in blades:
                sign, blade = _mul_blades(a, b, square)
                ref_sign, ref_blade = blade_product(a, b, square)
                assert sign == ref_sign, (a, b)
                if sign:
                    assert blade == ref_blade, (a, b)


def _blade_samples():
    m = 3
    x1 = VectorPoly.variable(m, 1, 1)
    mv = Multivector(m, {(): Fraction(3), (1,): Fraction(2), (1, 3): Fraction(-1, 2)})
    cp = CliffordPoly.basis(m, (2,)) * x1 + CliffordPoly.from_scalar(m, Fraction(1, 3))
    form = CliffordForm(m, 1, {(1,): cp, (2, 3): CliffordPoly.basis(m, (1, 2))})
    return [pytest.param(mv, lambda a, c: a * c, id="Multivector"),
            pytest.param(cp, lambda a, c: a * c, id="CliffordPoly"),
            pytest.param(form, lambda a, c: a.scale_right(c), id="CliffordForm")]


def _terms_samples():
    x11, x22 = VectorPoly.variable(2, 1, 1, nvars=2), VectorPoly.variable(2, 2, 2, nvars=2)
    p = x11 ** 2 * Fraction(3, 2) - x11 * x22 + 5
    return _blade_samples() + [pytest.param(p, lambda a, c: a * c, id="VectorPoly")]


@pytest.mark.parametrize("a,scale", _terms_samples())
def test_terms_contract(a, scale):
    assert (a + (-a)).is_zero() and not (a + (-a))
    assert (a - a) == a + (-a)
    assert scale(a, 0).is_zero()
    doubled = scale(a, 2)
    assert a + a == doubled
    assert hash(a + a) == hash(doubled)
    assert a + doubled - a == doubled and a != doubled
    assert -(-a) == a and hash(-(-a)) == hash(a)


@pytest.mark.parametrize("a,scale", _blade_samples())
def test_blade_terms_grades(a, scale):
    assert (a + a).grades() == a.grades()
    assert sum((a.grade_project(k) for k in a.grades()), scale(a, 0)) == a


def test_scalar_multivector_hashes_like_its_number():
    three = Multivector.scalar(2, 3)
    assert three == 3
    assert len({three, 3}) == 1
    assert {3: "found"}[three] == "found"
    assert {three: "found"}[3] == "found"
    assert {Fraction(3, 2): "found"}[Multivector.scalar(3, 1.5)] == "found"
    assert {0: "found"}[Multivector(2, {})] == "found"
    assert len({Multivector.basis(2, (1,)), 1}) == 2


def test_constant_vectorpoly_hashes_like_its_number():
    three = VectorPoly.constant(3, 3)
    assert three == 3
    assert len({three, 3}) == 1
    assert {3: "found"}[three] == "found"
    assert {VectorPoly.constant(2, Fraction(3, 2), nvars=2): "found"}[Fraction(3, 2)] == "found"
    assert {0: "found"}[VectorPoly.zero(3, 1)] == "found"
    assert len({VectorPoly.variable(3, 1, 1), 1}) == 2
    assert len({VectorPoly.variable(3, 1, 1) + 3, 3}) == 2
