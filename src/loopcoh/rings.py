"""Exact coefficient arithmetic: integers, rationals, prime fields.

Elements are plain Python ints (Z and F_p, the latter stored in [0, p))
or Fractions (Q).  All arithmetic goes through the RingSpec so callers
never touch floating point.  The fractions module is imported only when
a ring operation makes the first Fraction, as it and the decimal and
numbers modules it loads take a good part of the package's import time;
no Z or F_p job uses them, and neither does a Q job whose elimination
runs on ints.
"""
from __future__ import annotations

import operator


class RingError(Exception):
    """Wrong ring for an operation, or an invalid ring description."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly
# below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015); the bases up to 37 alone pass the
# composite 318665857834031151167461
PRIME_TEST_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality of n below PRIME_TEST_BOUND, by deterministic
    Miller-Rabin; RingError above it, where the test is not exact."""
    if n >= PRIME_TEST_BOUND:
        raise RingError(f"modulus {n} is too large to test for primality")
    if n < 2:
        return False
    if n in _BASES:
        return True
    if any(n % a == 0 for a in _BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# fractions.Fraction, bound by _fraction when it makes the first one
Fraction = None


def _fraction(x):
    """Fraction(x); the first call imports the fractions module."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction(x)


def _rational(op):
    """op with its result made a Fraction: a Fraction argument gives one
    already, and only int arguments need the wrapping."""
    def bound(*args):
        c = op(*args)
        return c if type(c) is Fraction else _fraction(c)
    return bound


class RingSpec:
    """One of Z, Q, or F_p with p prime.

    add, sub, mul, neg and is_zero are bound per ring kind when the ring
    is built, so a call does not dispatch on the kind; each returns what
    normalize would make of the plain result: an int over Z, a Fraction
    over Q, an int in [0, p) over F_p."""

    __slots__ = ("kind", "p", "add", "sub", "mul", "neg", "is_zero")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("integers", "rationals", "prime_field"):
            raise RingError(f"unknown ring kind {kind!r}")
        if kind == "prime_field":
            if p is None or not is_prime(p):
                raise RingError(f"prime_field needs a prime, got {p!r}")
        elif p is not None:
            raise RingError(f"{kind} takes no modulus")
        self.kind = kind
        self.p = p
        if kind == "integers":
            self.add, self.sub, self.mul, self.neg = (
                operator.add, operator.sub, operator.mul, operator.neg)
            self.is_zero = operator.not_
        elif kind == "rationals":
            self.add, self.sub, self.mul, self.neg = map(
                _rational, (operator.add, operator.sub, operator.mul,
                            operator.neg))
            self.is_zero = operator.not_
        else:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.neg = lambda a: -a % p
            self.is_zero = lambda a: a % p == 0

    @classmethod
    def integers(cls) -> "RingSpec":
        return cls("integers")

    @classmethod
    def rationals(cls) -> "RingSpec":
        return cls("rationals")

    @classmethod
    def prime_field(cls, p: int) -> "RingSpec":
        return cls("prime_field", p)

    @property
    def is_field(self) -> bool:
        return self.kind != "integers"

    @property
    def char(self) -> int:
        return self.p if self.kind == "prime_field" else 0

    @property
    def has_two_torsion(self) -> bool:
        return self.kind == "prime_field" and self.p == 2

    def zero(self):
        return _fraction(0) if self.kind == "rationals" else 0

    def one(self):
        return _fraction(1) if self.kind == "rationals" else 1

    def normalize(self, x):
        if self.kind == "integers":
            return int(x)
        if self.kind == "rationals":
            return _fraction(x)
        return int(x) % self.p

    def add_into(self, out, key, c):
        """out[key] += c in an element, a dict key -> nonzero
        coefficient, dropping the key when the sum is zero; returns out.
        add normalizes 0 + c as it would zero() + c, so over Q the int 1
        is stored as a Fraction."""
        cur = self.add(out.get(key, 0), c)
        if self.is_zero(cur):
            out.pop(key, None)
        else:
            out[key] = cur
        return out

    def add_scaled(self, out, x, c):
        """out += c * x for elements out and x; returns out."""
        mul = self.mul
        for key, v in x.items():
            self.add_into(out, key, mul(c, v))
        return out

    def inv(self, a):
        if self.kind == "integers":
            if a in (1, -1):
                return a
            raise RingError(f"{a} is not a unit in Z")
        if self.kind == "rationals":
            if a == 0:
                raise RingError("division by zero")
            return 1 / _fraction(a)
        a = a % self.p
        if a == 0:
            raise RingError("division by zero")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "prime_field":
            return f"RingSpec(prime_field({self.p}))"
        return f"RingSpec({self.kind})"

    def describe(self) -> str:
        return {"integers": "Z", "rationals": "Q"}.get(self.kind, f"F{self.p}")


def ring_from_name(name: str) -> RingSpec:
    """Parse ring names used in config files: Z, Q, F2, F3, ..."""
    name = name.strip()
    if name in ("Z", "integers"):
        return RingSpec.integers()
    if name in ("Q", "rationals"):
        return RingSpec.rationals()
    # isdigit alone also takes non-ASCII digits such as "²" or "٣"
    if name.startswith("F") and name[1:].isascii() and name[1:].isdigit():
        return RingSpec.prime_field(int(name[1:]))
    raise RingError(f"cannot parse ring name {name!r}")
