import pytest

from loopcoh.hirsch_ops import (HirschOpTable, check_associativity_relation,
                                check_derivation_relations,
                                check_sq_specialization_cases, sq11,
                                sq1_decomposability_verdict)
from loopcoh.polynomial import GeneratorSet, Polynomial, Sq1Table
from loopcoh.rings import RingSpec

F2 = RingSpec.prime_field(2)


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
    table = HirschOpTable.sq_structure(gens, sq1)
    u2 = Polynomial.generator(gens, "u2")
    assert table.eval(1, 0, [u2], []) == u2
    assert table.eval(0, 1, [], [u2]) == u2
    assert table.eval(2, 0, [u2, u2], []) == Polynomial.zero(gens)
    assert table.eval(0, 2, [], [u2, u2]) == Polynomial.zero(gens)


def test_trivial_table_all_higher_ops_vanish():
    gens, _ = k_z2_2_gens()
    table = HirschOpTable.trivial(gens)
    u2 = Polynomial.generator(gens, "u2")
    assert table.eval(1, 1, [u2], [u2]) == Polynomial.zero(gens)
    assert table.eval(1, 2, [u2], [u2, u2]) == Polynomial.zero(gens)


def test_value_degree_bookkeeping():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable.sq_structure(gens, sq1)
    u2 = Polynomial.generator(gens, "u2")
    val = table.eval(1, 1, [u2], [u2])
    # |E_{1,1}(a;b)| = |a| + |b| - 1
    assert val.degree() == 3


def test_derivation_relations_21_12_empty():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable.sq_structure(gens, sq1)
    assert check_derivation_relations(table, 8) == []


def test_associativity_111_no_violation_on_small_algebra():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable.sq_structure(gens, sq1)
    assert check_associativity_relation(table, 1, 1, 1, 8) == []


def test_associativity_111_indecomposable_nesting_violations():
    # Sq1 v2 = t3 and Sq1 u3 = v2 w2: nesting Sq11(v2; Sq1 u3) = t3 w2
    # is nonzero while the other association vanishes
    gens = GeneratorSet(("v2", "w2", "t3", "u3"), (2, 2, 3, 3), F2)
    v2, w2, t3, u3 = (Polynomial.generator(gens, n) for n in gens.names)
    sq1 = Sq1Table(gens, {"v2": t3, "u3": v2 * w2})
    table = HirschOpTable.sq_structure(gens, sq1)
    violations = check_associativity_relation(table, 1, 1, 1, 8)
    keys = sorted(v[0] for v in violations)
    assert keys == [(("u3",), ("u3",), ("v2",)),
                    (("v2",), ("u3",), ("u3",))]
    for _, lhs, rhs in violations:
        assert lhs != rhs
        assert (lhs + rhs) == w2 * t3


def test_sq_specialization_cases_report_shape():
    gens, sq1 = k_z2_2_gens()
    table = HirschOpTable.sq_structure(gens, sq1)
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
