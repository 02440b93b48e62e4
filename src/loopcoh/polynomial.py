"""The input algebra H = S(U): graded polynomial arithmetic and Sq1.

Monomials are exponent tuples aligned with the generator declaration
order.  Everything is 1-reduced: generator degrees are >= 2, and over a
ring with 2-torsion-free arithmetic turned off (anything but F2) all
degrees must be even.
"""
from __future__ import annotations

from operator import mul

from . import LoopcohError
from .rings import RingError, RingSpec

# the most letters whose degree one generator set memoises
LETTER_MEMO_CAP = 1 << 14


class AlgebraError(LoopcohError):
    pass


class _LetterDegrees(dict):
    """letter -> its desuspended degree |m| - 1, filled on first use
    with at most LETTER_MEMO_CAP letters; a letter beyond the cap is
    computed again at each use."""

    def __init__(self, degrees):
        super().__init__()
        self.degrees = degrees

    def __missing__(self, m):
        d = sum(map(mul, m, self.degrees)) - 1
        if len(self) < LETTER_MEMO_CAP:
            self[m] = d
        return d


class GeneratorSet:
    """Ordered polynomial generators with degrees; the order is the one
    used by every deterministic enumeration and by the contraction of the
    resolution."""

    def __init__(self, names, degrees, ring: RingSpec):
        names = list(names)
        degrees = list(degrees)
        if len(names) != len(degrees):
            raise AlgebraError("names and degrees differ in length")
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        for n, d in zip(names, degrees):
            if d < 2:
                raise AlgebraError(
                    f"generator {n} has degree {d}; the algebra must be 1-reduced")
            if d % 2 and not ring.has_two_torsion:
                raise AlgebraError(
                    f"generator {n} has odd degree {d}; over {ring.describe()} "
                    "every degree must be even")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.ring = ring
        self._bases = {}
        self.letter_degrees = _LetterDegrees(self.degrees)

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def __eq__(self, other):
        return (isinstance(other, GeneratorSet) and self.names == other.names
                and self.degrees == other.degrees and self.ring == other.ring)

    def __hash__(self):
        return hash((self.names, self.degrees, self.ring))

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GeneratorSet({gens} over {self.ring.describe()})"

    # -- monomials: exponent tuples --------------------------------------

    def unit_monomial(self):
        return (0,) * len(self.names)

    def generator_monomial(self, i: int):
        m = [0] * len(self.names)
        m[i] = 1
        return tuple(m)

    def monomial_degree(self, mono) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def monomial_str(self, mono) -> str:
        if not any(mono):
            return "1"
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def basis_in_degree(self, n: int):
        """All monomials of degree exactly n, graded-lex ordered; each
        degree is enumerated once per generator set."""
        out = self._bases.get(n)
        if out is None:
            out = self._bases[n] = []

            def rec(i, remaining, prefix):
                if i == len(self.degrees):
                    if remaining == 0:
                        out.append(tuple(prefix))
                    return
                d = self.degrees[i]
                for e in range(remaining // d, -1, -1):
                    rec(i + 1, remaining - e * d, prefix + [e])

            if n >= 0:
                rec(0, n, [])
        return list(out)


class Polynomial:
    """Element of S(U): map monomial -> nonzero coefficient."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms=None):
        self.gens = gens
        ring = gens.ring
        clean = {}
        for mono, c in (terms or {}).items():
            c = ring.normalize(c)
            if c != 0:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, gens):
        return cls(gens)

    @classmethod
    def one(cls, gens):
        return cls(gens, {gens.unit_monomial(): 1})

    @classmethod
    def generator(cls, gens, name):
        return cls(gens, {gens.generator_monomial(gens.index(name)): 1})

    @classmethod
    def monomial(cls, gens, mono, coeff=1):
        return cls(gens, {tuple(mono): coeff})

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {self.gens.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Degree of a homogeneous polynomial (None for zero)."""
        degs = {self.gens.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"non-homogeneous polynomial {self}")
        return degs.pop()

    def __add__(self, other):
        self._check(other)
        ring = self.gens.ring
        return Polynomial(self.gens, ring.add_scaled(dict(self.terms),
                                                     other.terms, ring.one()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        ring = self.gens.ring
        return Polynomial(self.gens, {m: ring.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        ring = self.gens.ring
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.gens, terms)

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.gens != self.gens:
            raise AlgebraError("mixed generator sets in polynomial arithmetic")

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.gens == other.gens
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.gens, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            s = self.gens.monomial_str(m)
            bits.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(bits)


def exponent_sum(mono) -> int:
    return sum(mono)


def is_decomposable(p: Polynomial) -> bool:
    """True iff p lies in the square of the augmentation ideal.

    Every monomial must have exponent sum >= 2; the zero polynomial counts
    as decomposable.
    """
    if not p.is_homogeneous():
        raise AlgebraError("is_decomposable needs a homogeneous polynomial")
    return all(exponent_sum(m) >= 2 for m in p.terms)


class Sq1Table:
    """Images of the generators under Sq1.  Only available over F2."""

    def __init__(self, gens: GeneratorSet, images: dict):
        if not gens.ring.has_two_torsion:
            raise RingError("Sq1 tables exist only over F2")
        self.gens = gens
        self.images = {}
        for name, poly in images.items():
            i = gens.index(name)
            if not isinstance(poly, Polynomial) or poly.gens != gens:
                raise AlgebraError(f"Sq1 image of {name} is not in this algebra")
            if not poly.is_zero() and poly.degree() != gens.degrees[i] + 1:
                raise AlgebraError(
                    f"Sq1({name}) must be homogeneous of degree "
                    f"{gens.degrees[i] + 1}, got degree {poly.degree()}")
            self.images[i] = poly

    def image_of(self, i: int) -> Polynomial:
        return self.images.get(i, Polynomial.zero(self.gens))

