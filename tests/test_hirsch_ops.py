import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcoh.hirsch_ops import (HirschOpTable, block_splittings,
                                check_derivation_relations,
                                check_sq_specialization_cases, sq11,
                                sq1_decomposability_verdict)
from loopcoh.polynomial import GeneratorSet, Polynomial, Sq1Table
from loopcoh.rings import RingSpec
from references import check_associativity_relation
from test_bar import SQ_IDS, SQ_TABLES

F2 = RingSpec.prime_field(2)
Z = RingSpec.integers()


def k_z2_2_gens():
    """Generators u2, u3 with Sq1 u2 = u3."""
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    sq1 = Sq1Table(gens, {"u2": Polynomial.generator(gens, "u3")})
    return gens, sq1


def test_sq11_on_equal_generators_is_sq1():
    gens, sq1 = k_z2_2_gens()
    u2 = Polynomial.generator(gens, "u2")
    u3 = Polynomial.generator(gens, "u3")
    assert sq11(u2, u2, sq1) == u3


def test_sq11_on_distinct_generators_is_zero():
    gens, sq1 = k_z2_2_gens()
    u2 = Polynomial.generator(gens, "u2")
    u3 = Polynomial.generator(gens, "u3")
    assert sq11(u2, u3, sq1) == Polynomial.zero(gens)


def test_sq11_cartan_on_products():
    gens, sq1 = k_z2_2_gens()
    u2 = Polynomial.generator(gens, "u2")
    u3 = Polynomial.generator(gens, "u3")
    # Sq11(u2 u3, u2 u3) = Sq1(u2) u3^2 + u2^2 Sq1(u3)
    assert sq11(u2 * u3, u2 * u3, sq1) == u3 * u3 * u3


def test_sq11_is_symmetric():
    gens, sq1 = k_z2_2_gens()
    u2 = Polynomial.generator(gens, "u2")
    u3 = Polynomial.generator(gens, "u3")
    for a in (u2, u3, u2 * u2, u2 * u3):
        for b in (u2, u3, u2 * u2):
            assert sq11(a, b, sq1) == sq11(b, a, sq1)


def test_sq11_two_sided_derivation():
    gens, sq1 = k_z2_2_gens()
    u2 = Polynomial.generator(gens, "u2")
    u3 = Polynomial.generator(gens, "u3")
    for a in (u2, u3):
        for b in (u2, u3):
            for c in (u2, u3):
                lhs = sq11(a * b, c, sq1)
                rhs = a * sq11(b, c, sq1) + sq11(a, c, sq1) * b
                assert lhs == rhs


def test_identity_and_degenerate_slots():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable(gens, sq1)
    u2 = Polynomial.generator(gens, "u2")
    assert table.eval(1, 0, [u2], []) == u2
    assert table.eval(0, 1, [], [u2]) == u2
    assert table.eval(2, 0, [u2, u2], []) == Polynomial.zero(gens)
    assert table.eval(0, 2, [], [u2, u2]) == Polynomial.zero(gens)


def test_trivial_table_all_higher_ops_vanish():
    gens, _ = k_z2_2_gens()
    table = HirschOpTable(gens)
    u2 = Polynomial.generator(gens, "u2")
    assert table.eval(1, 1, [u2], [u2]) == Polynomial.zero(gens)
    assert table.eval(1, 2, [u2], [u2, u2]) == Polynomial.zero(gens)


def test_value_degree_bookkeeping():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable(gens, sq1)
    u2 = Polynomial.generator(gens, "u2")
    val = table.eval(1, 1, [u2], [u2])
    # |E_{1,1}(a;b)| = |a| + |b| - 1
    assert val.degree() == 3


def test_derivation_relations_21_12_empty():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable(gens, sq1)
    assert check_derivation_relations(table, 8) == []


def test_associativity_111_no_violation_on_small_algebra():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable(gens, sq1)
    assert check_associativity_relation(table, 1, 1, 1, 8) == []


def test_associativity_111_indecomposable_nesting_violations():
    # Sq1 v2 = t3 and Sq1 u3 = v2 w2: nesting Sq11(v2; Sq1 u3) = t3 w2
    # is nonzero while the other association vanishes
    gens = GeneratorSet(("v2", "w2", "t3", "u3"), (2, 2, 3, 3), F2)
    v2, w2, t3, u3 = (Polynomial.generator(gens, n) for n in gens.names)
    sq1 = Sq1Table(gens, {"v2": t3, "u3": v2 * w2})
    table = HirschOpTable(gens, sq1)
    violations = check_associativity_relation(table, 1, 1, 1, 8)
    keys = sorted(v[0] for v in violations)
    assert keys == [(("u3",), ("u3",), ("v2",)),
                    (("v2",), ("u3",), ("u3",))]
    for _, lhs, rhs in violations:
        assert lhs != rhs
        assert (lhs + rhs) == w2 * t3


def test_sq_specialization_cases_report_shape():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable(gens, sq1)
    report = check_sq_specialization_cases(table, 8)
    assert report
    for case, args, agree in report:
        assert case in ("1", "1'", "2", "2'")
        assert isinstance(agree, bool)


def test_sq1_decomposability_verdict():
    gens, sq1 = k_z2_2_gens()
    # Sq1 u2 = u3 is indecomposable
    ok, witnesses = sq1_decomposability_verdict(gens, sq1)
    assert not ok and witnesses

    gens2 = GeneratorSet(("u2", "u5"), (2, 5), F2)
    u2 = Polynomial.generator(gens2, "u2")
    sq1b = Sq1Table(gens2, {"u5": u2 * u2 * u2})
    ok, witnesses = sq1_decomposability_verdict(gens2, sq1b)
    assert ok and not witnesses


def reference_eval(table, p, q, left, right):
    """HirschOpTable.eval as it was before it took whole polynomials:
    every argument expanded into its terms, and E_{p,q} evaluated on
    each tuple of monomials, sq11 at (1,1) with a Sq1 table and zero at
    every other mixed shape."""
    gens = table.gens
    ring = gens.ring
    left = [a if isinstance(a, Polynomial) else Polynomial.monomial(gens, a)
            for a in left]
    right = [b if isinstance(b, Polynomial) else Polynomial.monomial(gens, b)
             for b in right]
    if (p, q) == (1, 0):
        return left[0]
    if (p, q) == (0, 1):
        return right[0]
    out = Polynomial.zero(gens)
    if p == 0 or q == 0 or (p, q) != (1, 1) or table.sq1 is None:
        return out
    for combo in itertools.product(*(a.terms.items() for a in left + right)):
        coeff = ring.one()
        for _, c in combo:
            coeff = ring.mul(coeff, c)
        (m1, _), (m2, _) = combo
        out = out + sq11(Polynomial.monomial(gens, m1),
                         Polynomial.monomial(gens, m2),
                         table.sq1) * \
            Polynomial.monomial(gens, gens.unit_monomial(), coeff)
    return out


EVAL_TABLES = [make for make, _ in SQ_TABLES] + [
    lambda: HirschOpTable(GeneratorSet(("x2", "x4"), (2, 4), Z))]
EVAL_IDS = SQ_IDS + ["Z[x2,x4] trivial"]
SHAPES = [(p, q) for p in range(4) for q in range(4 - p)]


@pytest.mark.parametrize("make_table", EVAL_TABLES, ids=EVAL_IDS)
def test_eval_matches_the_per_monomial_reference(make_table):
    """eval on random multi-term polynomials, and on monomial tuples,
    at every shape with p + q <= 3.  The test asserts that some draw
    gives a nonzero E_{1,1} on arguments of several terms wherever the
    table has a Sq1 table."""
    table = make_table()
    gens = table.gens
    ring = gens.ring
    monos = [m for n in range(2, 7) for m in gens.basis_in_degree(n)]
    coeffs = sorted({ring.normalize(c) for c in (1, -1, 3)} - {0})

    def poly(terms):
        out = Polynomial.zero(gens)
        for m, c in terms.items():
            out = out + Polynomial.monomial(gens, m, c)
        return out

    argument = st.one_of(
        st.sampled_from(monos),
        st.dictionaries(st.sampled_from(monos), st.sampled_from(coeffs),
                        max_size=4).map(poly))
    met = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(argument, min_size=3, max_size=3))
    def check(args):
        for p, q in SHAPES:
            left, right = args[:p], args[p:p + q]
            got = table.eval(p, q, left, right)
            assert got == reference_eval(table, p, q, left, right), (p, q)
            if (p, q) == (1, 1) and not got.is_zero() and all(
                    isinstance(a, Polynomial) and len(a.terms) > 1
                    for a in args[:2]):
                met.add("several terms")

    check()
    if table.sq1 is not None:
        assert "several terms" in met


def reference_splittings(left, right):
    """Every sequence of block sizes (k_i, l_i), none (0, 0), that sums
    to (len(left), len(right)): by number of blocks, then in
    itertools.product order of the k's and of the l's."""
    p, q = len(left), len(right)
    for n in range(1, p + q + 1):
        for ks in itertools.product(range(p + 1), repeat=n):
            if sum(ks) != p:
                continue
            for ls in itertools.product(range(q + 1), repeat=n):
                if sum(ls) != q or (0, 0) in zip(ks, ls):
                    continue
                i = j = 0
                blocks = []
                for k, l in zip(ks, ls):
                    blocks.append((left[i:i + k], right[j:j + l]))
                    i += k
                    j += l
                yield blocks


@pytest.mark.parametrize("p, q", [(p, q) for p in range(4)
                                  for q in range(4)])
def test_block_splittings_lists_every_cut_once_in_order(p, q):
    left = tuple(f"a{i}" for i in range(p))
    right = tuple(f"b{j}" for j in range(q))
    got = list(block_splittings(left, right))
    assert got == list(reference_splittings(left, right))
    assert len({tuple(s) for s in got}) == len(got)
    for split in got:
        assert all(bl or br for bl, br in split)
        assert sum((bl for bl, _ in split), ()) == left
        assert sum((br for _, br in split), ()) == right
    # the cuts with a block empty on one side are listed too
    if p and q:
        assert any(not bl or not br for split in got for bl, br in split)
