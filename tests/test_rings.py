from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopcoh.rings import RingError, RingSpec, ring_from_name


def test_ring_from_name():
    assert ring_from_name("Z").kind == "integers"
    assert ring_from_name("Q").kind == "rationals"
    f5 = ring_from_name("F5")
    assert f5.kind == "prime_field" and f5.p == 5


def test_ring_from_name_rejects_garbage():
    for bad in ("F4", "F1", "GF2", "R", ""):
        with pytest.raises(RingError):
            ring_from_name(bad)


def test_prime_field_requires_prime():
    with pytest.raises(RingError):
        RingSpec.prime_field(6)


def test_describe():
    assert RingSpec.integers().describe() == "Z"
    assert RingSpec.rationals().describe() == "Q"
    assert RingSpec.prime_field(2).describe() == "F2"


def test_char_and_torsion_flags():
    assert RingSpec.integers().char == 0
    assert RingSpec.prime_field(3).char == 3
    assert RingSpec.prime_field(2).has_two_torsion
    assert not RingSpec.integers().has_two_torsion
    assert not RingSpec.rationals().has_two_torsion
    assert not RingSpec.prime_field(3).has_two_torsion


def test_f2_arithmetic_table():
    f2 = RingSpec.prime_field(2)
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1
    assert f2.neg(1) == 1
    assert f2.inv(1) == 1


def test_rational_normalize():
    q = RingSpec.rationals()
    assert q.normalize(3) == Fraction(3)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_integer_ring_axioms(a, b, c):
    z = RingSpec.integers()
    assert z.add(a, z.add(b, c)) == z.add(z.add(a, b), c)
    assert z.mul(a, z.add(b, c)) == z.add(z.mul(a, b), z.mul(a, c))
    assert z.add(a, z.neg(a)) == z.zero()


@given(st.integers(0, 4), st.integers(0, 4))
def test_f5_field_axioms(a, b):
    f5 = RingSpec.prime_field(5)
    assert f5.sub(f5.add(a, b), b) == a % 5
    if b % 5:
        assert f5.mul(f5.inv(b), b) == f5.one()


def test_division_by_zero_raises():
    with pytest.raises(RingError):
        RingSpec.prime_field(2).inv(0)
