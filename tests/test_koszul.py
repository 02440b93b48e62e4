import pytest

from loopcoh import koszul
from loopcoh.koszul import (OracleError, oracle_dimensions,
                            oracle_small_resolution_check)
from loopcoh.polynomial import GeneratorSet
from loopcoh.rings import RingSpec

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)


def test_one_generator():
    gens = GeneratorSet(("x2",), (2,), Z)
    assert oracle_dimensions(gens, 4) == [1, 1, 0, 0, 0]


def test_two_even_generators():
    gens = GeneratorSet(("x2", "x4"), (2, 4), Z)
    dims = oracle_dimensions(gens, 6)
    # subsets: {}, {y1}, {y3}, {y1 y3}
    assert dims == [1, 1, 0, 1, 1, 0, 0]


def test_two_degree_two_generators():
    gens = GeneratorSet(("x2", "y2"), (2, 2), Q)
    assert oracle_dimensions(gens, 3) == [1, 2, 1, 0]


def test_generating_function_product_formula():
    gens = GeneratorSet(("u2", "u3", "u5"), (2, 3, 5), F2)
    dims = oracle_dimensions(gens, 8)
    # coefficients of (1+t)(1+t^2)(1+t^4)
    poly = [1]
    for d in (1, 2, 4):
        new = poly + [0] * d
        for i, c in enumerate(poly):
            new[i + d] += c
        poly = new
    poly += [0] * (9 - len(poly))
    assert dims == poly[:9]


def test_small_resolution_check_matches_dimensions():
    for names, degs, ring in (
        (("x2",), (2,), Z),
        (("x2",), (2,), F2),
        (("u2", "u3"), (2, 3), F2),
        (("x2", "x4"), (2, 4), Z),
        (("x2", "y2"), (2, 2), Q),
    ):
        gens = GeneratorSet(names, degs, ring)
        got = oracle_small_resolution_check(gens, max_internal=10)
        top = max(got)
        want = oracle_dimensions(gens, top)
        assert got == {n: d for n, d in enumerate(want) if d}


def test_f2_pair_ranks_all_one():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    got = oracle_small_resolution_check(gens, max_internal=8)
    assert [got.get(n, 0) for n in range(4)] == [1, 1, 1, 1]


def test_a_flipped_sign_fails_the_d_squared_check(monkeypatch):
    original = koszul._koszul_differential

    def flipped(gens, homological, internal):
        # negate one entry of d_2 in internal degree 6, the first one
        # with x2 (x) x4 in its domain
        cod, columns = original(gens, homological, internal)
        if (homological, internal) == (2, 6):
            row, c = next(iter(columns[0].items()))
            columns[0][row] = -c
        return cod, columns

    monkeypatch.setattr(koszul, "_koszul_differential", flipped)
    gens = GeneratorSet(("x2", "x4"), (2, 4), Z)
    with pytest.raises(OracleError, match=r"d\^2 != 0 at \(h=2, n=6\)"):
        oracle_small_resolution_check(gens, max_internal=10)


def test_resource_guard():
    gens = GeneratorSet(tuple(f"x{i}" for i in range(5)),
                        (2, 2, 2, 2, 2), Z)
    with pytest.raises(OracleError):
        oracle_small_resolution_check(gens, max_internal=10)
