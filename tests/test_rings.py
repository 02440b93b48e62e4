from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopcoh.rings import (PRIME_TEST_BOUND, RingError, RingSpec, is_prime,
                           ring_from_name)


def test_ring_from_name():
    assert ring_from_name("Z").kind == "integers"
    assert ring_from_name("Q").kind == "rationals"
    f5 = ring_from_name("F5")
    assert f5.kind == "prime_field" and f5.p == 5


def test_ring_from_name_rejects_garbage():
    for bad in ("F4", "F1", "GF2", "R", ""):
        with pytest.raises(RingError):
            ring_from_name(bad)
    # "F²" once failed in int() and "F٣" ran as F3: str.isdigit takes
    # digits outside ASCII
    for bad in ("F²", "F٣", "F１３"):
        with pytest.raises(RingError, match="cannot parse ring name"):
            ring_from_name(bad)


def test_large_prime_moduli_are_decided_at_once():
    # 2^61 - 1 is prime: trial division did not finish on it
    assert ring_from_name("F2305843009213693951").p == 2 ** 61 - 1
    assert not is_prime(2 ** 61 + 1)
    # a strong pseudoprime to every prime base up to 37, and a Carmichael
    # number
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3215031751)
    small = [n for n in range(2000)
             if n > 1 and all(n % f for f in range(2, n))]
    assert [n for n in range(2000) if is_prime(n)] == small
    # above the bound Miller-Rabin on these bases is not exact
    with pytest.raises(RingError, match="too large"):
        ring_from_name(f"F{PRIME_TEST_BOUND}")


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


# -- element sums ------------------------------------------------------------

SUM_RINGS = [RingSpec.integers(), RingSpec.rationals(),
             RingSpec.prime_field(5)]


def test_add_into_over_q_stores_a_fraction_even_from_an_int():
    out = RingSpec.rationals().add_into({}, "w", 1)
    assert out == {"w": 1} and type(out["w"]) is Fraction


@pytest.mark.parametrize("ring", SUM_RINGS, ids=["Z", "Q", "F5"])
def test_a_sum_that_cancels_drops_its_key(ring):
    out = {"a": ring.normalize(2), "b": ring.one()}
    assert ring.add_into(out, "a", ring.neg(ring.normalize(2))) is out
    assert out == {"b": 1}
    x = {"b": ring.one(), "c": ring.normalize(3)}
    ring.add_scaled(out, x, ring.neg(ring.one()))
    assert out == {"c": ring.neg(ring.normalize(3))}


@pytest.mark.parametrize("ring", SUM_RINGS, ids=["Z", "Q", "F5"])
def test_add_scaled_by_zero_leaves_out_unchanged(ring):
    out = {"a": ring.normalize(2)}
    ring.add_scaled(out, {"a": ring.one(), "b": ring.normalize(4)},
                    ring.zero())
    assert out == {"a": 2} and type(out["a"]) is type(ring.normalize(2))
