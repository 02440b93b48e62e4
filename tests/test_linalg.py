import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from loopcoh.linalg import (_euclidean_smith, _replay, matrix_invariants,
                            rank_over_field, smith_normal_form,
                            solve_in_span, unit_pivots)
from loopcoh.rings import RingSpec
from references import (class_coefficients, echelon_rank, in_lattice,
                        reference_euclidean_smith)

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)


def dense(rows, ring):
    """Fresh columns of the matrix with the given rows, reduced for the
    ring, zeros dropped."""
    return [{i: ring.normalize(row[j]) for i, row in enumerate(rows)
             if ring.normalize(row[j]) != 0}
            for j in range(len(rows[0]) if rows else 0)]


def test_rank_over_field_identity():
    assert rank_over_field(dense([[1, 0], [0, 1]], Q), Q) == 2
    assert rank_over_field(dense([[1, 1], [1, 1]], F2), F2) == 1
    assert rank_over_field(dense([[1, 2], [2, 4]], F5), F5) == 1


def test_rank_over_integers_vs_rationals():
    rows = [[2, 4, 0], [1, 2, 1], [3, 6, 1]]
    assert smith_normal_form(dense(rows, Z))[1] == \
        rank_over_field(dense(rows, Q), Q)


def test_smith_normal_form_diagonal():
    diagonal, rank = smith_normal_form(dense([[2, 0], [0, 3]], Z))
    assert diagonal == (1, 6) and rank == 2


def test_smith_normal_form_torsion():
    # boundary matrix of the real projective plane's 2-cell
    diagonal, rank = smith_normal_form(dense([[2]], Z))
    assert diagonal == (2,) and rank == 1
    assert [d for d in diagonal if d > 1] == [2]


def test_torsion_factors_free_case():
    diagonal, rank = smith_normal_form(dense([[1, 0], [0, 1]], Z))
    assert diagonal == (1, 1) and rank == 2
    assert [d for d in diagonal if d > 1] == []


def solve(rows, ring, v, r):
    """solve_in_span of v and r on the unit pivots of the matrix with the
    given rows."""
    pivots, residual = unit_pivots(dense(rows, ring), ring.char)
    return solve_in_span(pivots, bool(residual), v, r, ring)


def test_a_residual_block_solves_only_what_its_pivots_span():
    # {0: 2} holds no unit, so it is left in the residual
    rows = [[2, 0], [0, 1]]
    pivots, residual = unit_pivots(dense(rows, Z), 0)
    assert [row for row, _, _ in pivots] == [1] and residual == [{0: 2}]
    # in the lattice, but outside what the pivots span: not certified
    assert in_lattice(dense(rows, Z), {0: 2, 1: 1})
    assert solve(rows, Z, {0: 2, 1: 1}, None) is None
    assert not in_lattice(dense(rows, Z), {0: 1})
    assert solve(rows, Z, {0: 1}, None) is None
    assert solve(rows, Z, {1: 3}, None) == 0


def test_solve_in_span():
    # v = column + r
    assert repr(solve([[1], [1]], Q, {0: 1, 1: 2}, {1: 1})) == \
        "Fraction(1, 1)"
    # v - column = r / 2: exact over Q, not over Z
    assert solve([[1], [1]], Q, {0: 1, 1: 2}, {1: 2}) == Fraction(1, 2)
    assert solve([[1], [1]], Z, {0: 1, 1: 2}, {1: 2}) is None
    assert solve([[1], [0]], Q, {1: 1}, None) is None


def test_a_non_unit_singleton_row_is_left_to_the_core():
    # row 0 has one live column, and its entry 2 is no unit over Z: the
    # peel must not pivot there, and the core's pivot at row 1 leaves it
    pivots, residual = unit_pivots([{0: 2, 1: 1}, {1: 1}], 0)
    assert [row for row, _, _ in pivots] == [1] and residual == [{0: 2}]
    assert smith_normal_form([{0: 2, 1: 1}, {1: 1}]) == ((1, 2), 2)


def test_the_core_pivots_the_sparsest_unit_column_at_its_emptiest_row():
    # every row has two or more live columns, so the peel takes nothing.
    # Column 2 is the sparsest but holds no unit over Z; column 1 is the
    # sparsest with one.  Its unit rows are listed 4, 0, 3, with 3, 5
    # and 2 live columns: the pivot is row 3, neither the first listed
    # nor the lowest.
    columns = [{0: 1, 1: 1, 2: 1, 3: 1},
               {4: 1, 0: 1, 3: 1},
               {0: 2, 1: 2},
               {4: 1, 1: 1, 2: 1, 0: -1},
               {4: -1, 2: 1, 1: 1, 0: 1}]
    assert unit_pivots(columns, 0) == (
        [(3, {4: 1, 0: 1}, 1), (2, {1: 1, 4: -1}, 1), (0, {}, 1)],
        [{1: 2}, {4: 2}])


class _Column(dict):
    """A dict column that keeps every entry popped from it, as
    unit_pivots pops each pivot entry from its column."""

    def __init__(self, entries):
        super().__init__(entries)
        self.popped = {}

    def pop(self, i, *default):
        x = super().pop(i, *default)
        self.popped[i] = x
        return x


def test_the_pivot_record_is_triangular_and_spans_the_columns():
    # sparse columns, so that rows with one entry occur and the peel
    # pivots there, and non-units over Z, so that some draws leave a
    # residual; the test asserts that both occur
    singletons = []
    residuals = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([Z, F3, F5]), st.integers(1, 8).flatmap(
        lambda n_cols: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]),
                     min_size=n_cols, max_size=n_cols),
            min_size=1, max_size=8)))
    def check(ring, rows):
        p = ring.char
        columns = dense(rows, ring)
        row_entries = ([c[i] for c in columns if i in c]
                       for i in range(len(rows)))
        singletons.append(any(len(e) == 1 and (p or e[0] in (1, -1))
                              for e in row_entries))
        pivots, residual = unit_pivots(list(map(_Column, columns)), p)
        residuals.append(bool(residual))
        for k, (r, col, inv) in enumerate(pivots):
            # zero in every earlier pivot row
            assert not any(s in col for s, _, _ in pivots[:k])
            assert r not in col
            x = inv * col.popped[r]
            assert (x % p if p else x) == 1
        rows_taken = {r for r, _, _ in pivots}
        assert len(rows_taken) == len(pivots)
        for c in columns:
            rest = _replay(pivots, c, p)
            assert not rows_taken & set(rest)
            # what is left of a column lies in the residual's span
            if p:
                assert not rest
            else:
                assert in_lattice(residual, rest)
        field = ring if p else Q
        assert len(pivots) + len(_euclidean_smith(residual)) == \
            echelon_rank(dense(rows, field), field)

    check()
    assert any(singletons) and any(residuals)


def test_unit_pivots_span_the_columns():
    rows = [[1, 1], [0, 1], [1, 0]]
    pivots, residual = unit_pivots(dense(rows, F2), 2)
    assert len(pivots) == 2 and residual == []
    # the sum of the columns, and a vector outside their span
    assert solve(rows, F2, {1: 1, 2: 1}, None) == 0
    assert solve(rows, F2, {0: 1}, None) is None
    assert solve(rows, F2, {0: 1}, {0: 1}) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 97))
def test_random_integer_rank_matches_rational(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
    assert smith_normal_form(dense(rows, Z))[1] == \
        rank_over_field(dense(rows, Q), Q)


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
    columns = [{i: c for i, c in enumerate(col) if c} for col in cols]
    want = echelon_rank(columns, Q)
    assert rank_over_field(columns, Q) == want


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
        residuals.append(bool(unit_pivots(dense(rows, Z), 0)[1]))
        diagonal = reference_euclidean_smith(dense(rows, Z))
        assert smith_normal_form(dense(rows, Z)) == (diagonal, len(diagonal))
        for ring in (Q, F3, F5):
            assert rank_over_field(dense(rows, ring), ring) == \
                echelon_rank(dense(rows, ring), ring)

    check()
    assert any(residuals)


def _first_step(rows):
    """The branch that the first step of _euclidean_smith takes on the
    integer matrix with the given rows, where the input decides it:
    "remainder" when its pivot, an entry x of least absolute value,
    ties by row and then column, fails to divide an entry of its row or
    column, and "divisibility" when x stands alone in both and fails to
    divide another entry."""
    entries = [(abs(x), i, j, x) for i, row in enumerate(rows)
               for j, x in enumerate(row) if x]
    if not entries:
        return None
    _, i, j, x = min(entries)
    if any(y % x for _, r, k, y in entries if r == i or k == j):
        return "remainder"
    alone = all(r != i and k != j for _, r, k, _ in entries
                if (r, k) != (i, j))
    if alone and any(y % x for _, _, _, y in entries):
        return "divisibility"
    return None


def _matrices(entries):
    return st.integers(1, 6).flatmap(lambda n_cols: st.lists(
        st.lists(st.sampled_from(entries), min_size=n_cols,
                 max_size=n_cols),
        min_size=1, max_size=6))


def test_euclidean_smith_matches_the_row_indexed_reference():
    # entries from a set with non-units, so that some first steps leave
    # a remainder, and matrices with a pivot 2 alone in its row and
    # column above a block of larger entries, so that some first pivots
    # divide not every entry; the test asserts that both occur
    first_steps = set()
    lone = _matrices([0, 0, 3, -3, 4, 6, 9]).map(
        lambda rows: [[2] + [0] * len(rows[0])] + [[0] + r for r in rows])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(_matrices([0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9]), lone))
    def check(rows):
        first_steps.add(_first_step(rows))
        assert _euclidean_smith(dense(rows, Z)) == \
            reference_euclidean_smith(dense(rows, Z))

    check()
    assert {"remainder", "divisibility"} <= first_steps


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
        want = class_coefficients([sparse(col) for col in cols],
                                  [] if r is None else [r], v, ring)
        pivots, residual = unit_pivots([sparse(col) for col in cols],
                                       ring.char)
        got = solve_in_span(pivots, bool(residual), v, r, ring)
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


def _mix(n, rng):
    """A random unimodular n x n matrix and its inverse, as dense rows:
    a product of elementary operations row i += c * row j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
            # the inverse takes the same operation, negated, on columns
            u_inv[k][j] -= c * u_inv[k][i]
    return u, u_inv


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_columns_at_the_pivot_rows_below_change_no_invariant():
    # a chain complex Z^2 -> Z^5 -> Z^3 in random bases, with torsion:
    # d_0 = [e_0, e_1], and d_1 sends e_0 and e_1 to 0, e_2 to 2g_0, e_3
    # to g_1 and e_4 to 3g_1 + g_2.  Dropping from d_1 the columns at the
    # pivot rows of d_0 keeps its invariants; the test asserts that some
    # draws drop both columns over Z
    dropped = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        u, u_inv = _mix(5, rng)
        v, _ = _mix(3, rng)
        d0 = _product(u, [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        d1 = _product(v, _product([[0, 0, 2, 0, 0], [0, 0, 0, 1, 3],
                                   [0, 0, 0, 0, 1]], u_inv))
        assert _product(d1, d0) == [[0, 0]] * 3

        def kept(ring, paired):
            return dense([[x for j, x in enumerate(row) if j not in paired]
                          for row in d1], ring)

        # the rows of d_0's unit pivots, which need not reach both
        # columns over Z and Q
        paired = matrix_invariants(dense(d0, Z), Z)[2]
        dropped.append(len(paired))
        assert smith_normal_form(kept(Z, paired)) == \
            smith_normal_form(dense(d1, Z)) == ((1, 1, 2), 3)
        for ring in (Q, F2, F3):
            # unit pivots, and over F2 the pivot rows of the echelon form
            paired = matrix_invariants(dense(d0, ring), ring)[2]
            assert ring is Q or len(paired) == 2
            want = 2 if ring is F2 else 3
            assert matrix_invariants(kept(ring, paired), ring)[:2] == \
                matrix_invariants(dense(d1, ring), ring)[:2] == (want, ())

    check()
    assert max(dropped) == 2
