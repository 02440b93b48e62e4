"""Reduced bar construction of a graded polynomial algebra.

Words are tuples of basis monomials of positive degree; the word
[a_1|...|a_p] sits in degree sum(|a_i| - 1), so the bar differential
raises degree by one and H^n(B) is computed cohomologically.  Elements
are dicts word -> coefficient and need not be homogeneous: twisted
products built from a degree-shifting generator table can mix degrees,
and consumers split into homogeneous parts when that matters.
"""
from __future__ import annotations

import itertools
from operator import add

from .hirsch_ops import HirschOpTable
from .polynomial import GeneratorSet


def word_degree(gens, word) -> int:
    return sum(map(gens.letter_degrees.__getitem__, word))


def word_str(gens, word) -> str:
    return "[" + "|".join(gens.monomial_str(m) for m in word) + "]"


def bar_basis(gens: GeneratorSet, degree):
    """All bar words of the given degree, ordered by weight then by the
    monomial order letterwise.  Degree n needs no more than n letters
    since every letter has degree >= 2."""
    words = []
    letters = {d: gens.basis_in_degree(d) for d in range(2, degree + 2)}

    def build(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                words.append(tuple(prefix))
            return
        # each remaining slot consumes at least 1 desuspended degree
        for d in range(2, remaining - (slots - 1) + 2):
            for m in letters[d]:
                prefix.append(m)
                build(prefix, remaining - (d - 1), slots - 1)
                prefix.pop()

    for weight in range(0 if degree == 0 else 1, degree + 1):
        build([], degree, weight)
    return words


def boundary_terms(gens: GeneratorSet, word):
    """The words of d[word] with their signs, as (word, +1 or -1) pairs.

    The product of two monomials of S(U) is the monomial whose exponent
    tuple is the sum of theirs, with coefficient 1, so no polynomial
    arithmetic is needed.  The term merging letters i and i+1 carries
    the sign (-1)^(|a_0|-1 + ... + |a_i|-1).  The terms are distinct
    words, and all of them have the total exponent vector of word."""
    letter_degrees = gens.letter_degrees
    out = []
    e = 0
    for i in range(len(word) - 1):
        e += letter_degrees[word[i]]
        prod = tuple(map(add, word[i], word[i + 1]))
        out.append((word[:i] + (prod,) + word[i + 2:], -1 if e & 1 else 1))
    return out


def bar_differential(gens: GeneratorSet, x):
    """Sum of adjacent products with the usual desuspension signs; the
    internal differential of a polynomial algebra is zero."""
    ring = gens.ring
    out = {}
    for word, coeff in x.items():
        neg = ring.neg(coeff)
        for new, sign in boundary_terms(gens, word):
            ring.add_into(out, new, coeff if sign > 0 else neg)
    return out


def muE_product(table: HirschOpTable, x, y):
    """Product of bar elements induced by the operation table: sum over
    simultaneous splittings of both factors into consecutive blocks, each
    mixed block evaluated through E and each pure block a single letter,
    with Koszul signs on desuspended degrees.  Returns a fresh dict.

    Every table takes the recursion of _factored_product, memoised per
    table (HirschOpTable.products, HirschOpTable.block_terms); the
    shuffle product is the case of a table with no mixed shapes.
    """
    return dict(_factored_product(table, x, y))


def _factored_product(table, x, y):
    """x*y, memoised in table.products; the caller must not change the
    dict returned.

    Every splitting starts with one move: the empty word of either
    factor, a leading letter of x, a leading letter of y, or a mixed
    block of one of table.mixed_shapes() (none for the shuffle product).
    So x*y is the sum over the moves of the move's letter followed by
    the product of what the move leaves.  A move that passes y-letters
    of odd total degree over the rest of x carries the sign
    (-1)^|rest|, so the rests are split by the parity of their
    desuspended degree."""
    key = (frozenset(x.items()), frozenset(y.items()))
    memo = table.products
    out = memo.get(key)
    if out is not None:
        return out
    gens = table.gens
    ring = gens.ring
    out = {}
    x0, y0 = x.get(()), y.get(())
    if x0 is not None:
        ring.add_scaled(out, y, x0)
        x = {w: c for w, c in x.items() if w}
    if y0 is not None:
        ring.add_scaled(out, x, y0)
        y = {w: c for w, c in y.items() if w}
    if x and y:
        one = ring.one()
        for (m,), rest in _heads(x, 1).items():
            _prefix_into(out, m, one, _factored_product(table, rest, y),
                         ring)
        for (m,), rest in _heads(y, 1).items():
            for sign, part in _signed_parts(gens, x, (m,)):
                _prefix_into(out, m, sign,
                             _factored_product(table, part, rest), ring)
        for a, b in table.mixed_shapes():
            y_heads = _heads(y, b)
            for xp, x_rest in _heads(x, a).items():
                for yp, y_rest in y_heads.items():
                    terms = table.block_terms(a, b, xp, yp)
                    if not terms:
                        continue
                    for sign, part in _signed_parts(gens, x_rest, yp):
                        prod = _factored_product(table, part, y_rest)
                        for m, tc in terms:
                            _prefix_into(out, m, ring.mul(sign, tc), prod,
                                         ring)
    memo[key] = out
    return out


def _heads(x, a):
    """The words of x with at least a letters, grouped by their first a
    letters: {prefix: {rest: coeff}}."""
    out = {}
    for w, c in x.items():
        if len(w) >= a:
            out.setdefault(w[:a], {})[w[a:]] = c
    return out


def _signed_parts(gens, x, letters):
    """x as (sign, part) pairs, with sign (-1)^(|letters| |w|) on the
    desuspended degrees of the letters and of each word w of the part."""
    ring = gens.ring
    one = ring.one()
    if word_degree(gens, letters) % 2 == 0:
        return [(one, x)]
    parts = ({}, {})
    for w, c in x.items():
        parts[word_degree(gens, w) % 2][w] = c
    return [(s, p) for s, p in zip((one, ring.neg(one)), parts) if p]


def _prefix_into(out, m, coeff, x, ring):
    """out += coeff * [m | x]."""
    for w, c in x.items():
        ring.add_into(out, (m,) + w, ring.mul(coeff, c))


def canonical_symmetric_cocycle(gens: GeneratorSet, indices):
    """Sum over all orderings of the given generator multiset of the
    corresponding one-letter-per-generator word, with Koszul signs.

    For a set of distinct generators this is a cocycle over any ring; it
    represents the exterior-generator class attached to that subset.
    """
    ring = gens.ring
    letters = [gens.generator_monomial(i) for i in indices]
    degs = [gens.degrees[i] - 1 for i in indices]
    out = {}
    for perm in itertools.permutations(range(len(letters))):
        word = tuple(letters[i] for i in perm)
        # Koszul sign of the permutation on desuspended degrees
        par = 0
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    par += degs[perm[a]] * degs[perm[b]]
        coeff = ring.one() if par % 2 == 0 else ring.neg(ring.one())
        ring.add_into(out, word, coeff)
    return out


def check_chain_map(table: HirschOpTable, weight_pairs, degree_bound):
    """Pairs of basis words of the given (weight_x, weight_y) weights,
    with total degree at most the bound, where the product fails the
    Leibniz identity d(x*y) = dx*y + (-1)^|x| x*dy; returns the
    violating pairs in the order of weight_pairs, then in enumeration
    order (violations are data, not errors)."""
    gens = table.gens
    ring = gens.ring
    one = ring.one()
    minus = ring.neg(one)
    # the words of each degree and weight, listed once, each with its
    # differential; a word of degree degree_bound pairs with none, as
    # every word of weight >= 1 has degree >= 1
    weights = {k for pair in weight_pairs for k in pair}
    words = {}
    for n in range(1, degree_bound):
        for w in bar_basis(gens, n):
            if len(w) in weights:
                words.setdefault((n, len(w)), []).append(
                    (w, bar_differential(gens, {w: one})))
    bad = []
    for weight_x, weight_y in weight_pairs:
        for nx in range(weight_x, degree_bound):
            xs = words.get((nx, weight_x), ())
            # -(-1)^|x|, the coefficient of x*dy in the difference
            sign = minus if nx % 2 == 0 else one
            for ny in range(weight_y, degree_bound - nx + 1):
                ys = words.get((ny, weight_y), ())
                for xw, dx in xs:
                    x = {xw: one}
                    for yw, dy in ys:
                        y = {yw: one}
                        diff = bar_differential(
                            gens, muE_product(table, x, y))
                        ring.add_scaled(diff, muE_product(table, dx, y),
                                        minus)
                        ring.add_scaled(diff, muE_product(table, x, dy),
                                        sign)
                        if diff:
                            bad.append({"left": word_str(gens, xw),
                                        "right": word_str(gens, yw),
                                        "degrees": (nx, ny)})
    return bad
