"""Hirsch operation tables on H and checkers for their defining relations.

The canonical structure built from a Sq1 table has Sq_{1,1} as the
two-sided derivation extension of the generator rule and all higher
operations zero; the higher operations are under-determined, so the
checkers report where the relation instances hold or fail instead of
asserting a completion.

All relation checkers run in characteristic 2.
"""
from __future__ import annotations

import itertools

from .polynomial import (AlgebraError, GeneratorSet, Polynomial, Sq1Table,
                         is_decomposable)
from .rings import RingError


def sq11(a: Polynomial, b: Polynomial, table: Sq1Table) -> Polynomial:
    """Sq_{1,1}: the both-sided derivation extension of the rule sending
    a pair of equal generators to its Sq1 image and distinct generators
    to zero.  In particular Sq_{1,1}(u;u) = Sq1(u) for all u."""
    gens = a.gens
    if gens.ring.char != 2:
        raise RingError("Sq_{1,1} lives over F2 only")
    if b.gens != gens:
        raise AlgebraError("mixed generator sets")
    out = Polynomial.zero(gens)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            for g, (e1, e2) in enumerate(zip(m1, m2)):
                if e1 % 2 == 0 or e2 % 2 == 0:
                    continue
                img = table.image_of(g)
                if img.is_zero():
                    continue
                r1 = list(m1)
                r1[g] = e1 - 1
                r2 = list(m2)
                r2[g] = e2 - 1
                out = out + img * Polynomial.monomial(gens, r1, c1) \
                    * Polynomial.monomial(gens, r2, c2)
    return out


class HirschOpTable:
    """Dispatch table for the operations E_{p,q} acting on H.

    With a Sq1 table, (1,1) is sq11 and everything higher is zero;
    without one, the table is the trivial Hirsch structure whose bar
    product is the plain shuffle.

    A table is immutable once constructed, and two memos rely on that:
    block_terms memoises the mixed blocks, and products holds the
    sub-products bar.muE_product forms on elements, keyed by the pair
    of frozen element item sets.
    """

    def __init__(self, gens: GeneratorSet, sq1: Sq1Table | None = None):
        if sq1 is not None and gens.ring.char != 2:
            raise RingError("the Sq structure exists only over F2")
        self.gens = gens
        self.sq1 = sq1
        self._block_terms = {}
        self.products = {}

    def mixed_shapes(self, p_max, q_max):
        """Shapes (p, q) with 1 <= p <= p_max and 1 <= q <= q_max at
        which some entry can be nonzero; any other mixed shape evaluates
        to zero identically.  Used to prune block enumeration in bar
        products."""
        if self.sq1 is not None and p_max >= 1 and q_max >= 1:
            return [(1, 1)]
        return []

    @classmethod
    def trivial(cls, gens):
        return cls(gens)

    @classmethod
    def sq_structure(cls, gens, sq1):
        if sq1 is None:
            raise AlgebraError("the Sq structure needs a Sq1 table")
        return cls(gens, sq1)

    def _monomial_entry(self, p, q, left_monos, right_monos) -> Polynomial:
        gens = self.gens
        if (p, q) == (1, 1) and self.sq1 is not None:
            return sq11(Polynomial.monomial(gens, left_monos[0]),
                        Polynomial.monomial(gens, right_monos[0]), self.sq1)
        return Polynomial.zero(gens)

    def eval(self, p, q, left, right) -> Polynomial:
        """E_{p,q} on p left and q right arguments, multilinear in each.

        Arguments may be Polynomials or monomial tuples.
        """
        gens = self.gens
        ring = gens.ring
        left = [a if isinstance(a, Polynomial) else Polynomial.monomial(gens, a)
                for a in left]
        right = [b if isinstance(b, Polynomial) else Polynomial.monomial(gens, b)
                 for b in right]
        if len(left) != p or len(right) != q:
            raise AlgebraError(f"E_({p},{q}) got {len(left)}+{len(right)} arguments")
        if (p, q) == (1, 0):
            return left[0]
        if (p, q) == (0, 1):
            return right[0]
        if q == 0 or p == 0:
            return Polynomial.zero(gens)
        out = Polynomial.zero(gens)
        for combo in itertools.product(*(a.terms.items() for a in left + right)):
            coeff = ring.one()
            for _, c in combo:
                coeff = ring.mul(coeff, c)
            monos = [m for m, _ in combo]
            val = self._monomial_entry(p, q, tuple(monos[:p]), tuple(monos[p:]))
            if not val.is_zero():
                out = out + val.scale(coeff)
        return out

    def block_terms(self, p, q, left_monos, right_monos):
        """E_{p,q} on tuples of monomial tuples, as a tuple of
        (monomial, coeff) terms (empty when the value is zero), evaluated
        through eval once per table and argument tuple."""
        key = (p, q, left_monos, right_monos)
        terms = self._block_terms.get(key)
        if terms is None:
            terms = tuple(self.eval(p, q, left_monos, right_monos)
                          .terms.items())
            self._block_terms[key] = terms
        return terms


def _positive_basis(gens, max_degree):
    out = []
    for n in range(2, max_degree + 1):
        out.extend(gens.basis_in_degree(n))
    return out


def _merge(monos, i):
    merged = tuple(a + b for a, b in zip(monos[i], monos[i + 1]))
    return monos[:i] + (merged,) + monos[i + 2:]


def derivation_residual(table, p, q, left_monos, right_monos) -> Polynomial:
    """Right-hand side of the differential formula for E_{p,q} with the
    internal-differential terms dropped (H has d = 0): adjacent merges
    plus the quadratic tail, excluding the extreme splittings."""
    gens = table.gens
    res = Polynomial.zero(gens)
    for i in range(p - 1):
        res = res + table.eval(p - 1, q, _merge(left_monos, i), right_monos)
    for j in range(q - 1):
        res = res + table.eval(p, q - 1, left_monos, _merge(right_monos, j))
    for i in range(p + 1):
        for j in range(q + 1):
            if (i, j) in ((0, 0), (p, q)):
                continue
            head = table.eval(i, j, left_monos[:i], right_monos[:j])
            if head.is_zero():
                continue
            tail = table.eval(p - i, q - j, left_monos[i:], right_monos[j:])
            if tail.is_zero():
                continue
            res = res + head * tail
    return res


def check_derivation_relations(table: HirschOpTable, degree_bound):
    """Evaluate the zero-differential instances of the E_{p,q} boundary
    formula over all basis tuples up to the degree bound; returns the
    violating tuples (violations are data, not errors)."""
    if table.gens.ring.char != 2:
        raise RingError("relation checkers run in characteristic 2 only")
    gens = table.gens
    basis = _positive_basis(gens, degree_bound)
    violations = []
    for p, q in ((2, 1), (1, 2)):
        for monos in itertools.product(basis, repeat=p + q):
            total = sum(gens.monomial_degree(m) for m in monos)
            if total > degree_bound:
                continue
            res = derivation_residual(table, p, q, monos[:p], monos[p:])
            if not res.is_zero():
                violations.append(((p, q), monos, res))
    return violations


def _compositions(total, parts):
    """Weak compositions of `total` into `parts` nonnegative parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _nested_sum(table, outer_is_left, k, l, r, a, b, c):
    """One side of the associativity relation for E-expressions.

    outer_is_left: sum of E_{p,r}(blocks(a,b); c); otherwise
    E_{k,q}(a; blocks(b,c)).
    """
    gens = table.gens
    out = Polynomial.zero(gens)
    if outer_is_left:
        inner_left, inner_right, outer_tail = a, b, c
    else:
        inner_left, inner_right, outer_tail = b, c, a
    n_left, n_right = len(inner_left), len(inner_right)
    for nblocks in range(1, n_left + n_right + 1):
        for ks in _compositions(n_left, nblocks):
            for ls in _compositions(n_right, nblocks):
                if any(ki + li == 0 for ki, li in zip(ks, ls)):
                    continue
                blocks = []
                ai = bi = 0
                zero = False
                for ki, li in zip(ks, ls):
                    val = table.eval(ki, li, inner_left[ai:ai + ki],
                                     inner_right[bi:bi + li])
                    ai += ki
                    bi += li
                    if val.is_zero():
                        zero = True
                        break
                    blocks.append(val)
                if zero:
                    continue
                if outer_is_left:
                    out = out + table.eval(nblocks, r, blocks, outer_tail)
                else:
                    out = out + table.eval(k, nblocks, outer_tail, blocks)
    return out


def associativity_sides(table, k, l, r, a, b, c):
    lhs = _nested_sum(table, True, k, l, r, a, b, c)
    rhs = _nested_sum(table, False, k, l, r, a, b, c)
    return lhs, rhs


def check_associativity_relation(table: HirschOpTable, k, l, r,
                                 degree_bound):
    """Compare the two nested sums of the associativity relation over
    all basis tuples up to the degree bound; returns the argument tuples
    where they differ."""
    if table.gens.ring.char != 2:
        raise RingError("relation checkers run in characteristic 2 only")
    gens = table.gens
    violations = []
    basis = _positive_basis(gens, degree_bound)
    for monos in itertools.product(basis, repeat=k + l + r):
        if sum(gens.monomial_degree(m) for m in monos) > degree_bound:
            continue
        a, b, c = ([Polynomial.monomial(gens, m) for m in part]
                   for part in (monos[:k], monos[k:k + l], monos[k + l:]))
        lhs, rhs = associativity_sides(table, k, l, r, a, b, c)
        if lhs != rhs:
            violations.append(((tuple(map(repr, a)), tuple(map(repr, b)),
                                tuple(map(repr, c))), lhs, rhs))
    return violations


def _shuffles(xs, ys):
    """All interleavings of two tuples, preserving internal order."""
    if not xs:
        yield ys
        return
    if not ys:
        yield xs
        return
    for rest in _shuffles(xs[1:], ys):
        yield (xs[0],) + rest
    for rest in _shuffles(xs, ys[1:]):
        yield (ys[0],) + rest


def _sq_of_shuffles(table, p, q, us, vs, shuffle_left):
    """Sq_{p,q} evaluated on a formal shuffle sum placed in one slot."""
    gens = table.gens
    out = Polynomial.zero(gens)
    if shuffle_left:
        head, tail = us, vs
        for word in _shuffles(head[0], head[1]):
            out = out + table.eval(p, q, list(word), list(tail))
    else:
        head, tail = us, vs
        for word in _shuffles(tail[0], tail[1]):
            out = out + table.eval(p, q, list(head), list(word))
    return out


def specialization_sides(table, a, b, c, u, v):
    """Both sides shared by the associativity- and derivation-style
    constraints on the higher Sq operations, specialized so their left
    hand sides coincide.

    a, b, c: tuples of Polynomials (the associativity instance);
    u, v: tuples of Polynomials (the derivation instance).
    Returns (rhs_assoc, rhs_deriv).
    """
    gens = table.gens
    k, l, r = len(a), len(b), len(c)
    p, q = len(u), len(v)
    full_l, full_r = associativity_sides(table, k, l, r, a, b, c)
    head_l = _sq_of_shuffles(table, k + l, r, (a, b), c, True)
    head_r = _sq_of_shuffles(table, k, l + r, a, (b, c), False)
    rhs_assoc = (full_l + head_l) + (full_r + head_r)  # char 2 subtraction
    rhs_deriv = Polynomial.zero(gens)
    for i in range(p + 1):
        for j in range(q + 1):
            if (i, j) in ((0, 0), (p, q)):
                continue
            head = table.eval(i, j, u[:i], v[:j])
            if head.is_zero():
                continue
            tail = table.eval(p - i, q - j, u[i:], v[j:])
            if not tail.is_zero():
                rhs_deriv = rhs_deriv + head * tail
    return rhs_assoc, rhs_deriv


def check_sq_specialization_cases(table: HirschOpTable, degree_bound):
    """Instantiate the four specialized argument patterns tying the
    associativity constraint to the derivation constraint and report
    whether the two right-hand sides agree (equality is reported, not
    asserted)."""
    if table.gens.ring.char != 2:
        raise RingError("relation checkers run in characteristic 2 only")
    gens = table.gens
    report = []
    gen_polys = [Polynomial.generator(gens, n) for n in gens.names]
    for x, y in itertools.product(gen_polys, repeat=2):
        dx, dy = x.degree(), y.degree()
        if dx + dy > degree_bound:
            continue
        xy = x * y
        # case 1 at p = 3: a = (x); b = c = (xy); u = (x, y, x), v = (xy)
        rhs_a, rhs_d = specialization_sides(
            table, (x,), (xy,), (xy,), (x, y, x), (xy,))
        report.append(("1", (repr(x), repr(y)), rhs_a == rhs_d))
        # case 1': mirrored
        rhs_a, rhs_d = specialization_sides(
            table, (xy,), (xy,), (x,), (xy,), (x, y, x))
        report.append(("1'", (repr(x), repr(y)), rhs_a == rhs_d))
        # case 2: (a; b; c) = (xy; x; x), u = (x, y, x), v = (x)
        rhs_a, rhs_d = specialization_sides(
            table, (xy,), (x,), (x,), (x, y, x), (x,))
        report.append(("2", (repr(x), repr(y)), rhs_a == rhs_d))
        # case 2': (a; b; c) = (x; x; xy), u = (x), v = (x, y, x)
        rhs_a, rhs_d = specialization_sides(
            table, (x,), (x,), (xy,), (x,), (x, y, x))
        report.append(("2'", (repr(x), repr(y)), rhs_a == rhs_d))
    return report


def sq1_decomposability_verdict(gens: GeneratorSet, sq1: Sq1Table):
    """True iff Sq1 of every generator is multiplicatively decomposable
    (the Borel-converse hypothesis for the exterior answer over F2)."""
    witnesses = []
    for i, name in enumerate(gens.names):
        img = sq1.image_of(i)
        if not is_decomposable(img):
            witnesses.append((name, img))
    return not witnesses, witnesses
