import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcoh.linalg import (SparseMatrix, _euclidean_smith, _peel_units,
                            rank_over_field, smith_normal_form,
                            solve_in_span, unit_pivots)
from loopcoh.rings import RingSpec
from references import class_coefficients, echelon_rank, in_lattice

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)


def dense(rows, ring):
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0, ring)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.add_entry(i, j, ring.normalize(v))
    return m


def test_add_entry_accumulates():
    m = SparseMatrix(2, 2, Z)
    m.add_entry(0, 0, 2)
    m.add_entry(0, 0, -2)
    assert m.is_zero()


def test_rank_over_field_identity():
    assert rank_over_field(dense([[1, 0], [0, 1]], Q)) == 2
    assert rank_over_field(dense([[1, 1], [1, 1]], F2)) == 1
    assert rank_over_field(dense([[1, 2], [2, 4]], F5)) == 1


def test_rank_over_integers_vs_rationals():
    rows = [[2, 4, 0], [1, 2, 1], [3, 6, 1]]
    assert smith_normal_form(dense(rows, Z))[1] == \
        rank_over_field(dense(rows, Q))


def test_smith_normal_form_diagonal():
    m = dense([[2, 0], [0, 3]], Z)
    diagonal, rank = smith_normal_form(m)
    assert diagonal == (1, 6) and rank == 2


def test_smith_normal_form_torsion():
    # boundary matrix of the real projective plane's 2-cell
    m = dense([[2]], Z)
    diagonal, rank = smith_normal_form(m)
    assert diagonal == (2,) and rank == 1
    assert [d for d in diagonal if d > 1] == [2]


def test_torsion_factors_free_case():
    diagonal, rank = smith_normal_form(dense([[1, 0], [0, 1]], Z))
    assert diagonal == (1, 1) and rank == 2
    assert [d for d in diagonal if d > 1] == []


def solve(m, v, r):
    """solve_in_span of v and r on the unit pivots of m."""
    pivots, residual = unit_pivots(m)
    return solve_in_span(pivots, bool(residual), v, r, m.ring)


def test_a_residual_block_solves_only_what_its_pivots_span():
    # {0: 2} holds no unit, so it is left in the residual
    m = dense([[2, 0], [0, 1]], Z)
    pivots, residual = unit_pivots(m)
    assert [row for row, _, _ in pivots] == [1] and residual == [{0: 2}]
    # in the lattice, but outside what the pivots span: not certified
    assert in_lattice(m.columns(), {0: 2, 1: 1})
    assert solve(m, {0: 2, 1: 1}, None) is None
    assert not in_lattice(m.columns(), {0: 1})
    assert solve(m, {0: 1}, None) is None
    assert solve(m, {1: 3}, None) == 0


def test_solve_in_span():
    # v = column + r
    m = dense([[1], [1]], Q)
    assert repr(solve(m, {0: 1, 1: 2}, {1: 1})) == "Fraction(1, 1)"
    # v - column = r / 2: exact over Q, not over Z
    assert solve(m, {0: 1, 1: 2}, {1: 2}) == Fraction(1, 2)
    assert solve(dense([[1], [1]], Z), {0: 1, 1: 2}, {1: 2}) is None
    assert solve(dense([[1], [0]], Q), {1: 1}, None) is None


def test_unit_pivots_span_the_columns():
    m = dense([[1, 1], [0, 1], [1, 0]], F2)
    pivots, residual = unit_pivots(m)
    assert len(pivots) == 2 and residual == []
    # the sum of the columns, and a vector outside their span
    assert solve(m, {1: 1, 2: 1}, None) == 0
    assert solve(m, {0: 1}, None) is None
    assert solve(m, {0: 1}, {0: 1}) == 1


def test_compose_shapes():
    a = dense([[1, 2]], Z)
    b = dense([[3], [4]], Z)
    c = a.compose(b)
    assert c.entries == {(0, 0): 11}
    with pytest.raises(ValueError):
        b.compose(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 97))
def test_random_integer_rank_matches_rational(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
    assert smith_normal_form(dense(rows, Z))[1] == \
        rank_over_field(dense(rows, Q))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 97))
def test_random_smith_product_is_determinant_like(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    factors, _ = smith_normal_form(dense(rows, Z))
    # each invariant factor divides the next
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.integers(1, 7))
def test_rational_rank_matches_fraction_echelon(seed, n_rows, n_cols):
    rng = random.Random(seed)
    # mostly zeros, small numerators and denominators, some repeated and
    # scaled columns so that ranks below full occur
    cols = []
    for _ in range(n_cols):
        if cols and rng.random() < 0.3:
            scale = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            cols.append([scale * c for c in rng.choice(cols)])
        else:
            cols.append([Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                         if rng.random() < 0.6 else Fraction(0)
                         for _ in range(n_rows)])
    m = SparseMatrix(n_rows, n_cols, Q, {(i, j): c
                                         for j, col in enumerate(cols)
                                         for i, c in enumerate(col) if c})
    assert rank_over_field(m) == echelon_rank(m)


def test_unit_peeling_matches_the_euclidean_reference():
    # entries from a set with non-units, so that some draws leave a
    # residual to the Euclidean loop; the test asserts that some do
    residuals = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n_cols: st.lists(
        st.lists(st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6]),
                 min_size=n_cols, max_size=n_cols),
        min_size=1, max_size=8)))
    def check(rows):
        m = dense(rows, Z)
        residuals.append(bool(_peel_units(m.columns(), 0)[1]))
        diagonal = _euclidean_smith(m.columns())
        assert smith_normal_form(m) == (diagonal, len(diagonal))
        for ring in (Q, F3, F5):
            field_m = dense(rows, ring)
            assert rank_over_field(field_m) == echelon_rank(field_m)

    check()
    assert any(residuals)


def test_block_solve_matches_the_reference():
    # entries from a set with non-units, so that some blocks leave a
    # residual, where the solve may fail to certify what the reference
    # reduces; the test asserts that some do, and that coefficients
    # other than zero and None occur
    residuals = []
    outcomes = set()
    entries = st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from([Z, Q, F2, F3]), st.integers(1, 6),
           st.integers(0, 6), st.data())
    def check(ring, n_rows, n_cols, data):
        def vector():
            return data.draw(st.lists(entries, min_size=n_rows,
                                      max_size=n_rows))

        def sparse(values):
            return {i: ring.normalize(x) for i, x in enumerate(values)
                    if ring.normalize(x) != 0}

        cols = [vector() for _ in range(n_cols)]
        r = data.draw(st.booleans()) and vector()
        # v: a combination of the columns and r, plus noise in some
        # draws, so that parts in and outside the span both occur
        a = [data.draw(entries) for _ in range(n_cols + 1)]
        v = [sum(x * col[i] for x, col in zip(a, cols)) +
             (a[-1] * r[i] if r else 0) for i in range(n_rows)]
        if data.draw(st.booleans()):
            v = [x + y for x, y in zip(v, vector())]
        scale = data.draw(st.sampled_from([1, 2, 3]))
        v = sparse(Fraction(x, scale) if ring == Q else x for x in v)
        r = sparse(r) if r else None
        m = SparseMatrix(n_rows, n_cols, ring,
                         {(i, j): x for j, col in enumerate(cols)
                          for i, x in enumerate(col)})
        pivots, residual = unit_pivots(m)
        got = solve_in_span(pivots, bool(residual), v, r, ring)
        want = class_coefficients(m.columns(), [] if r is None else [r],
                                  v, ring)
        if want is not None:
            want = ring.zero() if r is None else want[0]
        residuals.append(bool(residual))
        outcomes.add("none" if got is None else "zero" if got == 0
                     else "unit" if got in (1, -1) else "other")
        if residual:
            assert got is None or repr(got) == repr(want)
        else:
            assert repr(got) == repr(want)

    check()
    assert any(residuals)
    assert outcomes == {"none", "zero", "unit", "other"}
