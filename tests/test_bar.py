import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcoh import bar
from loopcoh.hirsch_ops import HirschOpTable
from loopcoh.homology import BarComplex, RingTable
from loopcoh.polynomial import GeneratorSet, Polynomial, Sq1Table
from loopcoh.rings import RingSpec

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)


def zgens():
    return GeneratorSet(("x2", "x4"), (2, 4), Z)


def f2gens():
    return GeneratorSet(("u2", "u3"), (2, 3), F2)


def sq_table(gens):
    sq1 = Sq1Table(gens, {"u2": Polynomial.generator(gens, "u3")})
    return HirschOpTable(gens, sq1)


def test_bar_basis_degrees_and_weights():
    gens = zgens()
    for n in range(1, 9):
        for w in bar.bar_basis(gens, n):
            assert bar.word_degree(gens, w) == n
            assert all(gens.monomial_degree(m) >= 2 for m in w)


def test_bar_basis_degree_one():
    gens = zgens()
    # only the single letter [x2] has degree 2 - 1 = 1
    assert len(bar.bar_basis(gens, 1)) == 1


def test_bar_differential_squares_to_zero_small():
    for gens in (zgens(), f2gens()):
        ring = gens.ring
        for n in range(1, 9):
            for w in bar.bar_basis(gens, n):
                dd = bar.bar_differential(
                    gens, bar.bar_differential(gens, {w: ring.one()}))
                assert not dd, (gens.names, w)


def test_shuffle_graded_commutative():
    gens = zgens()
    ring = gens.ring
    table = HirschOpTable(gens)
    for nx in range(1, 5):
        for ny in range(1, 5):
            for xw in bar.bar_basis(gens, nx):
                for yw in bar.bar_basis(gens, ny):
                    x = {xw: ring.one()}
                    y = {yw: ring.one()}
                    xy = bar.muE_product(table, x, y)
                    yx = bar.muE_product(table, y, x)
                    sign = ring.one() if (nx * ny) % 2 == 0 \
                        else ring.neg(ring.one())
                    assert xy == ring.add_scaled({}, yx, sign)


def test_shuffle_associative():
    gens = zgens()
    ring = gens.ring
    table = HirschOpTable(gens)
    words = [w for n in range(1, 4) for w in bar.bar_basis(gens, n)]
    for xw, yw, zw in itertools.product(words, repeat=3):
        x, y, z = ({w: ring.one()} for w in (xw, yw, zw))
        lhs = bar.muE_product(table, bar.muE_product(table, x, y), z)
        rhs = bar.muE_product(table, x, bar.muE_product(table, y, z))
        assert lhs == rhs


def test_muE_with_trivial_table_is_shuffle():
    """The trivial table's product against the reference's interleavings
    with their Koszul signs."""
    gens = zgens()
    ring = gens.ring
    table = HirschOpTable(gens)
    for nx in range(1, 5):
        for ny in range(1, 5):
            for xw in bar.bar_basis(gens, nx):
                for yw in bar.bar_basis(gens, ny):
                    x = {xw: ring.one()}
                    y = {yw: ring.one()}
                    assert bar.muE_product(table, x, y) == \
                        reference_muE_product(table, x, y)


def test_shuffle_is_chain_map():
    gens = zgens()
    table = HirschOpTable(gens)
    assert bar.check_chain_map(
        table, ((1, 1), (1, 2), (2, 1), (2, 2)), 7) == []


def test_sq_twisted_chain_map_low_weights():
    table = sq_table(f2gens())
    assert bar.check_chain_map(table, ((1, 1), (1, 2), (2, 1)), 8) == []


def test_sq_twisted_chain_map_breaks_at_weight_two_two():
    table = sq_table(f2gens())
    bad = bar.check_chain_map(table, ((2, 2),), 8)
    assert bad
    # deterministic: same list on a second run
    assert bad == bar.check_chain_map(table, ((2, 2),), 8)


def test_chain_map_reports_in_weight_pair_order():
    # one call over several weight pairs returns what a call per pair
    # would, in the order of the pairs
    table = sq_table(f2gens())
    pairs = ((2, 2), (1, 1), (2, 1), (1, 2))
    assert bar.check_chain_map(table, pairs, 8) == [
        v for pair in pairs for v in bar.check_chain_map(table, (pair,), 8)]


def test_canonical_symmetric_cocycle_is_a_cocycle():
    gens = zgens()
    for subset in ((0,), (1,), (0, 1)):
        el = bar.canonical_symmetric_cocycle(gens, subset)
        assert el
        assert not bar.bar_differential(gens, el)


def reference_muE_product(table, x, y):
    """The twisted product as computed before its operation blocks were
    memoised per table: each word pair keeps its own block cache, keyed
    by the block's position (a, b, i, j), and a finished path expands the
    evaluated blocks termwise into words.  Each path is one interleaving
    of the two words with its Koszul sign, so with no mixed shapes this
    is the shuffle product pair by pair."""
    ring = table.gens.ring
    out = {}
    for xw, xc in x.items():
        for yw, yc in y.items():
            _reference_word_product(table, xw, yw, ring.mul(xc, yc), out)
    return out


def _reference_word_product(table, xw, yw, base, out):
    gens = table.gens
    ring = gens.ring
    p, q = len(xw), len(yw)
    if p == 0:
        ring.add_into(out, yw, base)
        return
    if q == 0:
        ring.add_into(out, xw, base)
        return
    xd = [gens.monomial_degree(m) - 1 for m in xw]
    yd = [gens.monomial_degree(m) - 1 for m in yw]
    xtail = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        xtail[i] = xtail[i + 1] + xd[i]
    mixed_shapes = table.mixed_shapes()
    block_cache = {}

    def emit(letters, coeff):
        expanded = [l.terms.items() if isinstance(l, Polynomial)
                    else (((l, ring.one()),)) for l in letters]
        for combo in itertools.product(*expanded):
            c = coeff
            for _, tc in combo:
                c = ring.mul(c, tc)
            ring.add_into(out, tuple(m for m, _ in combo), c)

    def walk(i, j, letters, par):
        if i == p and j == q:
            emit(letters, base if par % 2 == 0 else ring.neg(base))
            return
        if i < p:
            letters.append(xw[i])
            walk(i + 1, j, letters, par)
            letters.pop()
        if j < q:
            letters.append(yw[j])
            walk(i, j + 1, letters, par + yd[j] * xtail[i])
            letters.pop()
        for a, b in mixed_shapes:
            if i + a > p or j + b > q:
                continue
            key = (a, b, i, j)
            val = block_cache.get(key)
            if val is None:
                val = table.eval(a, b, list(xw[i:i + a]), list(yw[j:j + b]))
                block_cache[key] = val
            if val.is_zero():
                continue
            letters.append(val)
            walk(i + a, j + b, letters, par + sum(yd[j:j + b]) * xtail[i + a])
            letters.pop()

    walk(0, 0, [], 0)


def _sq_table(names, degrees, rule):
    """An F2 Sq-structure table; rule maps a generator to the monomials
    (as name tuples) whose sum is its Sq1 image."""
    gens = GeneratorSet(names, degrees, F2)
    images = {}
    for name, monos in rule.items():
        img = Polynomial.zero(gens)
        for factors in monos:
            term = Polynomial.one(gens)
            for f in factors:
                term = term * Polynomial.generator(gens, f)
            img = img + term
        images[name] = img
    return HirschOpTable(gens, Sq1Table(gens, images))


def _exterior_f2_table():
    return _sq_table(("v2", "w2", "t3", "u3"), (2, 2, 3, 3),
                     {"v2": [("t3",)], "u3": [("v2", "w2")]})


SQ_TABLES = [
    (lambda: _sq_table(("u2", "u3"), (2, 3), {"u2": [("u3",)]}), 10),
    (lambda: _sq_table(("u2", "u5"), (2, 5),
                       {"u5": [("u2", "u2", "u2")]}), 9),
    (_exterior_f2_table, 8),
    # Sq_{1,1}(u3; u3) = v2 w2 + v2^2: blocks with two terms
    (lambda: _sq_table(("v2", "w2", "t3", "u3"), (2, 2, 3, 3),
                       {"v2": [("t3",)],
                        "u3": [("v2", "w2"), ("v2", "v2")]}), 8),
]
SQ_IDS = ["F2[u2,u3] sq1 u2=u3", "F2[u2,u5] sq1 u5=u2^3",
          "F2[v2,w2,t3,u3] sq1 v2=t3 u3=v2w2",
          "F2[v2,w2,t3,u3] sq1 v2=t3 u3=v2w2+v2^2"]


@pytest.mark.parametrize("make_table, max_degree", SQ_TABLES, ids=SQ_IDS)
def test_muE_matches_per_pair_reference_on_ring_table_products(
        make_table, max_degree):
    table = make_table()
    gens = table.gens
    reps = RingTable(make_table(), BarComplex(gens, max_degree)).reps

    def deg(s):
        return sum(gens.degrees[i] - 1 for i in s)

    pairs = [(s1, s2) for s1 in sorted(reps) for s2 in sorted(reps)
             if deg(s1) + deg(s2) <= max_degree]
    assert pairs
    for s1, s2 in pairs:
        assert bar.muE_product(table, reps[s1], reps[s2]) == \
            reference_muE_product(table, reps[s1], reps[s2]), (s1, s2)


def test_the_multi_term_table_has_two_term_blocks():
    table = SQ_TABLES[3][0]()
    u3 = table.gens.generator_monomial(3)
    assert len(table.block_terms(1, 1, (u3,), (u3,))) == 2


@pytest.mark.parametrize("make_table, max_degree", SQ_TABLES, ids=SQ_IDS)
def test_muE_matches_per_pair_reference_on_chain_map_words(make_table,
                                                           max_degree):
    """The products check_chain_map forms, x*y, dx*y and x*dy, for every
    pair of basis words of total degree at most 6."""
    table = make_table()
    gens = table.gens
    ring = gens.ring
    words = [(n, w) for n in range(1, 6) for w in bar.bar_basis(gens, n)]
    for nx, xw in words:
        x = {xw: ring.one()}
        dx = bar.bar_differential(gens, x)
        for ny, yw in words:
            if nx + ny > 6:
                continue
            y = {yw: ring.one()}
            dy = bar.bar_differential(gens, y)
            for a, b in ((x, y), (dx, y), (x, dy)):
                assert bar.muE_product(table, a, b) == \
                    reference_muE_product(table, a, b), (xw, yw)


class _SignedTable(HirschOpTable):
    """A table over Z whose mixed blocks of shapes (1,1), (1,2) and (2,1)
    are the product of their letters minus twice the first letter, so
    that blocks of several shapes, terms and coefficients, and the
    Koszul signs of the twisted product, all show.  It satisfies no
    Hirsch relation; it only exercises the product's bookkeeping."""

    def mixed_shapes(self):
        return [(1, 1), (1, 2), (2, 1)]

    def eval(self, p, q, left, right):
        """The block on monomial tuples, the only arguments block_terms
        and reference_muE_product pass."""
        gens = self.gens
        letters = Polynomial.one(gens)
        for m in (*left, *right):
            letters = letters * Polynomial.monomial(gens, m)
        return letters + Polynomial.monomial(gens, left[0], -2)


def _signed_table():
    return _SignedTable(GeneratorSet(("a2", "b4"), (2, 4), Z))


# the tables with blocks of two terms
TWO_TERM_TABLES = [SQ_TABLES[3][0], _signed_table]
PRODUCT_TABLES = [make for make, _ in SQ_TABLES] + [
    _signed_table,
    lambda: HirschOpTable(GeneratorSet(("x2", "y4"), (2, 4), Q)),
    lambda: HirschOpTable(GeneratorSet(("a2", "b2", "c4"), (2, 2, 4), F3))]
PRODUCT_IDS = SQ_IDS + ["Z[a2,b4] signed blocks", "Q[x2,y4] untwisted",
                        "F3[a2,b2,c4] untwisted"]


@pytest.mark.parametrize("make_table", PRODUCT_TABLES, ids=PRODUCT_IDS)
def test_muE_matches_per_pair_reference_on_non_homogeneous_elements(
        make_table):
    """Elements drawn from the words of degrees 0 to 4.  The test asserts
    that the draws mix degrees of both parities, include the empty word
    and, on TWO_TERM_TABLES, meet blocks with two terms."""
    table = make_table()
    gens = table.gens
    ring = gens.ring
    words = [w for n in range(5) for w in bar.bar_basis(gens, n)]
    coeffs = sorted({ring.normalize(c) for c in (1, -1, 2)} - {0})
    element = st.dictionaries(st.sampled_from(words),
                              st.sampled_from(coeffs), min_size=1,
                              max_size=6)
    met = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(element, element)
    def check(x, y):
        for elt in (x, y):
            if len({bar.word_degree(gens, w) % 2 for w in elt}) == 2:
                met.add("both parities")
            if () in elt:
                met.add("empty word")
        letters = [{m for w in elt for m in w} for elt in (x, y)]
        if any(len(table.block_terms(1, 1, (a,), (b,))) > 1
               for a in letters[0] for b in letters[1]):
            met.add("several terms")
        assert bar.muE_product(table, x, y) == \
            reference_muE_product(table, x, y)

    check()
    assert met >= {"both parities", "empty word"}
    if make_table in TWO_TERM_TABLES:
        assert "several terms" in met


def test_products_are_fresh_and_memoised_per_table():
    """muE_product hands out a new dict each time, and a table's memo
    of sub-products serves that table only."""
    multi = SQ_TABLES[3][0]()
    gens = multi.gens
    v2, w2, t3, u3 = (gens.generator_monomial(i) for i in range(4))
    x = {(u3,): 1, (v2, u3): 1, (t3, w2): 1}
    y = {(u3,): 1, (t3,): 1, (u3, v2): 1}
    expected = reference_muE_product(multi, x, y)
    first = bar.muE_product(multi, x, y)
    assert first == expected
    first.clear()
    first[(u3, u3, u3)] = 1
    assert bar.muE_product(multi, x, y) == expected
    single = SQ_TABLES[2][0]()
    assert single.gens.names == gens.names
    results = [bar.muE_product(t, x, y) for t in (single, multi)]
    assert results[0] == reference_muE_product(single, x, y)
    assert results[1] == expected
    assert results[0] != results[1]


def test_ring_table_evaluates_each_block_once(monkeypatch):
    calls = {}
    evaluate = HirschOpTable.eval

    def counting_eval(self, p, q, left, right):
        key = (id(self), p, q, tuple(left), tuple(right))
        calls[key] = calls.get(key, 0) + 1
        return evaluate(self, p, q, left, right)

    monkeypatch.setattr(HirschOpTable, "eval", counting_eval)
    table = _exterior_f2_table()
    rt = RingTable(table, BarComplex(table.gens, 8))
    assert len(rt.entries) == 190
    assert len(calls) == 16
    assert set(calls.values()) == {1}
