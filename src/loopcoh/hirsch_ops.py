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

    Over F2 the only mixed operation that can be nonzero is E_{1,1}:
    with a Sq1 table it is sq11, and every other mixed shape is zero.
    Without one, the table is the trivial Hirsch structure, with no
    mixed shapes: its bar product is the shuffle product, the same
    recursion with no mixed blocks.  So eval has three cases: the
    identity, sq11 and zero.

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

    def mixed_shapes(self):
        """The shapes (p, q), p, q >= 1, at which some entry can be
        nonzero, the only mixed blocks a bar product tries; empty for
        the trivial table."""
        return [(1, 1)] if self.sq1 is not None else []

    def eval(self, p, q, left, right) -> Polynomial:
        """E_{p,q} on p left and q right arguments, multilinear in each:
        the identity at (1,0) and (0,1), sq11 at (1,1) when a Sq1 table
        is set (sq11 is bilinear, so it takes whole polynomials), and
        zero at every other shape.

        Arguments may be Polynomials or monomial tuples.
        """
        if len(left) != p or len(right) != q:
            raise AlgebraError(f"E_({p},{q}) got {len(left)}+{len(right)} arguments")
        gens = self.gens
        if p + q != 1 and ((p, q) != (1, 1) or self.sq1 is None):
            return Polynomial.zero(gens)
        args = [a if isinstance(a, Polynomial) else Polynomial.monomial(gens, a)
                for a in (*left, *right)]
        if p + q == 1:
            return args[0]
        return sq11(args[0], args[1], self.sq1)

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


def _merge(monos, i):
    merged = tuple(a + b for a, b in zip(monos[i], monos[i + 1]))
    return monos[:i] + (merged,) + monos[i + 2:]


def _quadratic_tail(table, u, v):
    """Sum of E(u[:i]; v[:j]) E(u[i:]; v[j:]) over the splittings of
    (u; v) into a head and a tail, neither of them empty."""
    p, q = len(u), len(v)
    out = Polynomial.zero(table.gens)
    for i in range(p + 1):
        for j in range(q + 1):
            if (i, j) in ((0, 0), (p, q)):
                continue
            head = table.eval(i, j, u[:i], v[:j])
            if head.is_zero():
                continue
            tail = table.eval(p - i, q - j, u[i:], v[j:])
            if not tail.is_zero():
                out = out + head * tail
    return out


def derivation_residual(table, p, q, left_monos, right_monos) -> Polynomial:
    """Right-hand side of the differential formula for E_{p,q} with the
    internal-differential terms dropped (H has d = 0): adjacent merges
    plus the quadratic tail, excluding the extreme splittings."""
    res = Polynomial.zero(table.gens)
    for i in range(p - 1):
        res = res + table.eval(p - 1, q, _merge(left_monos, i), right_monos)
    for j in range(q - 1):
        res = res + table.eval(p, q - 1, left_monos, _merge(right_monos, j))
    return res + _quadratic_tail(table, left_monos, right_monos)


def _basis_tuples(gens, length, degree_bound):
    """Tuples of `length` positive-degree basis monomials whose degrees
    sum to at most degree_bound, in itertools.product order."""
    basis = [(m, n) for n in range(2, degree_bound + 1)
             for m in gens.basis_in_degree(n)]
    return [monos for monos, _ in
            _product_within([basis] * length, degree_bound)]


def check_derivation_relations(table: HirschOpTable, degree_bound):
    """Evaluate the zero-differential instances of the E_{p,q} boundary
    formula over all basis tuples up to the degree bound; returns the
    violating tuples (violations are data, not errors)."""
    if table.gens.ring.char != 2:
        raise RingError("relation checkers run in characteristic 2 only")
    violations = []
    for p, q in ((2, 1), (1, 2)):
        for monos in _basis_tuples(table.gens, p + q, degree_bound):
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


def _product_within(arg_lists, budget):
    """The tuples of itertools.product over lists of (item, degree)
    pairs whose degrees sum to at most budget, in product order, each
    with its degree sum.  A candidate is skipped as soon as the slots
    after it cannot fit in what is left of the budget, so no tuple is
    built only to be dropped."""
    if not all(arg_lists):
        return []
    k = len(arg_lists)
    # min_rest[i]: the least degree that slots i, i+1, ... can add
    min_rest = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        min_rest[i] = min_rest[i + 1] + min(n for _, n in arg_lists[i])
    out = []
    combo = [None] * k

    def walk(i, used):
        if i == k:
            out.append((tuple(combo), used))
            return
        rest = min_rest[i + 1]
        for item, n in arg_lists[i]:
            if used + n + rest > budget:
                continue
            combo[i] = item
            walk(i + 1, used + n)

    walk(0, 0)
    return out


def block_splittings(left, right):
    """Every way to cut (left; right) into consecutive blocks, none of
    them empty on both sides, each as a list of (left block, right
    block) pairs: by number of blocks, then by the compositions of
    len(left) and of len(right) in _compositions order."""
    n_left, n_right = len(left), len(right)
    for nblocks in range(1, n_left + n_right + 1):
        for ks in _compositions(n_left, nblocks):
            for ls in _compositions(n_right, nblocks):
                if any(k + l == 0 for k, l in zip(ks, ls)):
                    continue
                blocks = []
                i = j = 0
                for k, l in zip(ks, ls):
                    blocks.append((left[i:i + k], right[j:j + l]))
                    i += k
                    j += l
                yield blocks


def _nested_sum(table, outer_is_left, a, b, c):
    """One side of the associativity relation for E-expressions.

    outer_is_left: sum of E_{p,r}(blocks(a,b); c); otherwise
    E_{k,q}(a; blocks(b,c)).
    """
    out = Polynomial.zero(table.gens)
    for split in block_splittings(*((a, b) if outer_is_left else (b, c))):
        blocks = []
        for bl, br in split:
            val = table.eval(len(bl), len(br), bl, br)
            if val.is_zero():
                break
            blocks.append(val)
        else:
            if outer_is_left:
                out = out + table.eval(len(blocks), len(c), blocks, c)
            else:
                out = out + table.eval(len(a), len(blocks), a, blocks)
    return out


def associativity_sides(table, a, b, c):
    return (_nested_sum(table, True, a, b, c),
            _nested_sum(table, False, a, b, c))


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


def _sq_of_shuffles(table, left, right, shuffle_left):
    """Sq evaluated on a formal shuffle sum placed in one slot: the
    slot (left when shuffle_left, else right) holds a pair of tuples,
    and each of their shuffles fills it in turn."""
    out = Polynomial.zero(table.gens)
    for word in _shuffles(*(left if shuffle_left else right)):
        u, v = (word, right) if shuffle_left else (left, word)
        out = out + table.eval(len(u), len(v), list(u), list(v))
    return out


def specialization_sides(table, a, b, c, u, v):
    """Both sides shared by the associativity- and derivation-style
    constraints on the higher Sq operations, specialized so their left
    hand sides coincide.

    a, b, c: tuples of Polynomials (the associativity instance);
    u, v: tuples of Polynomials (the derivation instance).
    Returns (rhs_assoc, rhs_deriv).
    """
    full_l, full_r = associativity_sides(table, a, b, c)
    head_l = _sq_of_shuffles(table, (a, b), c, True)
    head_r = _sq_of_shuffles(table, a, (b, c), False)
    rhs_assoc = (full_l + head_l) + (full_r + head_r)  # char 2 subtraction
    return rhs_assoc, _quadratic_tail(table, u, v)


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
        # (case, a, b, c, u, v), case 1 at p = 3; 1' and 2' mirror 1, 2
        for case, a, b, c, u, v in (
                ("1", (x,), (xy,), (xy,), (x, y, x), (xy,)),
                ("1'", (xy,), (xy,), (x,), (xy,), (x, y, x)),
                ("2", (xy,), (x,), (x,), (x, y, x), (x,)),
                ("2'", (x,), (x,), (xy,), (x,), (x, y, x))):
            rhs_a, rhs_d = specialization_sides(table, a, b, c, u, v)
            report.append((case, (repr(x), repr(y)), rhs_a == rhs_d))
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
