import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcoh.polynomial import (AlgebraError, GeneratorSet, Polynomial,
                                Sq1Table, is_decomposable)
from loopcoh.rings import RingSpec

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)


def zgens():
    return GeneratorSet(("x2", "x4"), (2, 4), Z)


def f2gens():
    return GeneratorSet(("u2", "u3"), (2, 3), F2)


def test_degree_must_be_at_least_two():
    with pytest.raises(AlgebraError):
        GeneratorSet(("x",), (1,), Z)


def test_odd_degree_needs_char_two():
    with pytest.raises(AlgebraError):
        GeneratorSet(("x",), (3,), Z)
    GeneratorSet(("x",), (3,), F2)  # fine over F2


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraError):
        GeneratorSet(("x", "x"), (2, 2), Z)


def test_basis_in_degree_counts():
    gens = zgens()
    # degree 8: x2^4, x2^2 x4, x4^2
    assert len(gens.basis_in_degree(8)) == 3
    assert len(gens.basis_in_degree(3)) == 0
    assert gens.basis_in_degree(0) == [gens.unit_monomial()]


def test_monomial_degree():
    gens = zgens()
    for mono in gens.basis_in_degree(6):
        assert gens.monomial_degree(mono) == 6


def test_product_is_graded():
    gens = zgens()
    x2 = Polynomial.generator(gens, "x2")
    x4 = Polynomial.generator(gens, "x4")
    prod = x2 * x4
    assert prod.degree() == 6
    assert prod.is_homogeneous()


def test_polynomial_arithmetic():
    gens = zgens()
    x2 = Polynomial.generator(gens, "x2")
    assert (x2 + x2) - x2 == x2
    assert (x2 - x2) == Polynomial.zero(gens)


def test_is_decomposable():
    gens = zgens()
    x2 = Polynomial.generator(gens, "x2")
    x4 = Polynomial.generator(gens, "x4")
    assert is_decomposable(x2 * x2)
    assert is_decomposable(x2 * x4 + x2 * x2 * x2)
    assert not is_decomposable(x4)
    assert not is_decomposable(x4 + x2 * x2)


def test_sq1_table_degree_check():
    gens = f2gens()
    u3 = Polynomial.generator(gens, "u3")
    Sq1Table(gens, {"u2": u3})  # degree 2 -> 3: fine
    with pytest.raises(AlgebraError):
        Sq1Table(gens, {"u3": u3})  # degree 3 -> needs degree 4


def test_sq1_requires_char_two():
    gens = zgens()
    with pytest.raises(Exception):
        Sq1Table(gens, {"x2": Polynomial.generator(gens, "x4")})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10))
def test_basis_product_degrees(n, m):
    gens = zgens()
    for a in gens.basis_in_degree(n):
        for b in gens.basis_in_degree(m):
            prod = Polynomial.monomial(gens, a) * Polynomial.monomial(gens, b)
            assert prod.degree() == n + m
            assert prod.is_homogeneous()


@pytest.mark.parametrize("p", [2, 3])
def test_sum_drops_zero_terms(p):
    gens = GeneratorSet(("u2", "w2"), (2, 2), RingSpec.prime_field(p))
    u, w = (Polynomial.generator(gens, n) for n in ("u2", "w2"))
    x = u * u + w * w
    y = Polynomial.monomial(gens, (2, 0), p - 1) + u * w
    total = x + y
    assert total.terms == {(0, 2): 1, (1, 1): 1}
    assert (x + Polynomial.monomial(gens, (0, 2), p - 1)).terms == \
        {(2, 0): 1}
    assert (x - x).is_zero()

