"""Exact sparse linear algebra over Z, Q, and prime fields.

A vector is a dict {row index: nonzero entry}, the row indices being
ints >= 0, and a matrix is the list of its columns as such dicts.

One kernel eliminates every matrix outside F2: unit_pivots pivots on
units only, any nonzero residue over F_p and +-1 over Z and over Q.  It
peels first: a row with one live column whose entry there is a unit is
a pivot that clears nothing, so the peel takes it at once, drops the
column, and counts down the rows of that column, in O(nnz) for the
whole peel.  This is the coreduction of Mrozek and Batko, "Coreduction
homology algorithm", Discrete Comput. Geom. 41 (2009).  On the bar
blocks it takes nearly every pivot: no core, what the peel leaves, was
seen above 24 columns on any job, so the core is a plain loop, not a
heap: the sparsest column with a unit first, its pivot taken in the
unit row with the fewest live columns, cleared from the other columns.
Each step is unimodular, so every pivot is an invariant factor 1; what
no unit pivot reaches is left to a Euclidean Smith loop on the columns
(_euclidean_smith), whose body only tests reach: on every block a
command eliminates, the unit pivots take every pivot.  The core, _replay
and the Smith loop share one sparse update, v -= f*w (_subtract).  Ranks
and Smith forms count the pivots; the ring table keeps their record and
replays it on the vectors it solves (solve_in_span).  F2 ranks come from
bit-packed columns (_gf2_pivot_rows).

The record keeps one invariant: a pivot column is zero in the row of
every pivot before it.  Proof: once a pivot takes row r, no live column
has an entry in r.  At a peel pivot, r had one live column, the one
dropped; at a core pivot, r is cleared from every other live column.
After that, the peel only drops columns, and a core step only replaces
a live column ck by ck - f*c with c live, which is zero wherever ck and
c both are.  Every later pivot column is live when it is taken, so it
is zero in r.  _replay, and through it solve_in_span, rely on this, and
so does the bar complex when it drops the columns at pivot rows (see
homology).

matrix_invariants is the one entry point for the bar blocks and,
through rank_over_field and smith_normal_form, the Koszul oracle.
Besides the rank and the invariant factors it returns the pivot rows,
from which the bar complex drops columns of the next differential (see
homology.BarComplex).  composition_failures checks d^2 = 0 for both.
"""
from __future__ import annotations

from . import LoopcohError
from .rings import RingError, RingSpec

DEFAULT_DIMENSION_CAP = 20000


class ResourceCapError(LoopcohError):
    """A matrix exceeded the configured dimension cap."""


# ---------------------------------------------------------------------------
# unit-pivot elimination


def matrix_invariants(columns, ring: RingSpec):
    """(rank, factors, pivot rows) of the columns, which are consumed
    outside F2.  Over Z, factors are the invariant factors > 1 of their
    Smith form; over a field they are ().  The pivot rows are those of
    the unit pivots (unit_pivots), or over F2 those of the echelon form
    (_gf2_pivot_rows); the rank adds the length of the residual's
    Smith form to their number."""
    if ring.char == 2:
        rows = _gf2_pivot_rows(columns)
        return len(rows), (), rows
    pivots, residual = unit_pivots(columns, ring.char)
    rest = _euclidean_smith(residual)
    factors = () if ring.is_field else tuple(d for d in rest if d > 1)
    return len(pivots) + len(rest), factors, {r for r, _, _ in pivots}


def rank_over_field(columns, ring: RingSpec) -> int:
    """Exact rank of the columns over a field (matrix_invariants).
    Outside F2 the columns are consumed."""
    if not ring.is_field:
        raise RingError(f"rank_over_field called over {ring.describe()}")
    return matrix_invariants(columns, ring)[0]


def composition_failures(after, before, p):
    """The indices of the columns of before that after does not send to
    zero (mod p when p is a prime): the nonzero columns of after @
    before, in order."""
    bad = []
    for j, col in enumerate(before):
        out = {}
        for k, c in col.items():
            for i, x in after[k].items():
                out[i] = out.get(i, 0) + c * x
        if any(x % p if p else x for x in out.values()):
            bad.append(j)
    return bad


def _gf2_pivot_rows(columns):
    """The pivot rows of a GF(2) echelon form of the columns, packed
    into Python ints: each reduced column is kept at its lowest bit, so
    its other bits lie above that row.  Their number is the rank."""
    pivots = {}  # pivot row -> bitmask column
    for col in columns:
        x = 0
        for i in col:
            x |= 1 << i
        while x:
            low = (x & -x).bit_length() - 1
            if low in pivots:
                x ^= pivots[low]
            else:
                pivots[low] = x
                break
    # a set, not a view that would keep the bitmask columns alive
    return set(pivots)


def unit_pivots(columns, p):
    """Eliminate columns on unit pivots only: any nonzero residue mod the
    prime p, or +-1 when p is 0 (over Z and over Q).

    The peel comes first.  It counts the live columns of each row and
    keeps the XOR of their indices, which names the one column of a row
    whose count is 1.  It takes such a row as a pivot when its entry is
    a unit, drops that column, counts down the column's rows, and queues
    those left with one live column.  A row whose one entry is no unit
    is left to the core, a plain loop, as cores are small.  It takes the
    sparsest live column with a unit, ties by index, at its unit row
    with the fewest live columns, ties by index; the pivot row is
    cleared from the other live columns, and those left empty go.  Every
    step is unimodular, so the Smith form of the columns is a 1 for
    each pivot plus the Smith form of the residual columns, which hold
    no unit.  Each pivot column is zero in the rows of the pivots
    before it (see the module docstring for the proof).

    Returns (pivots, residual): pivots records (row, column, inverse)
    for each pivot in order, the column without its pivot row and the
    inverse of its pivot entry, as solve_in_span replays them.  The
    columns are consumed."""
    cols = {j: c for j, c in enumerate(columns) if c}
    # the peel: count each row's live columns and XOR their indices
    size = max(map(max, cols.values()), default=-1) + 1
    count = [0] * size
    xor = [0] * size
    for j, c in cols.items():
        for i in c:
            count[i] += 1
            xor[i] ^= j
    queue = [i for i, n in enumerate(count) if n == 1]
    pivots = []
    while queue:
        r = queue.pop()
        if count[r] != 1:
            continue  # its one column went at another row's pivot
        j = xor[r]
        c = cols[j]
        if not (p or c[r] in (1, -1)):
            continue  # a non-unit: the row is left to the core
        del cols[j]
        for i in c:
            count[i] -= 1
            xor[i] ^= j
            if count[i] == 1:
                queue.append(i)
        inv = pow(c.pop(r), -1, p) if p else c.pop(r)
        pivots.append((r, c, inv))
    # the core: a plain loop over the few columns the peel leaves
    while True:
        j = min((j for j, c in cols.items()
                 if p or any(v in (1, -1) for v in c.values())),
                key=lambda j: len(cols[j]), default=None)
        if j is None:
            break
        c = cols.pop(j)
        r = min((i for i, v in c.items() if p or v in (1, -1)),
                key=lambda i: (sum(i in ck for ck in cols.values()), i))
        inv = pow(c.pop(r), -1, p) if p else c.pop(r)
        for k, ck in list(cols.items()):
            if r in ck:
                _subtract(ck, ck.pop(r) * inv, c, p)
                if not ck:
                    del cols[k]
        pivots.append((r, c, inv))
    return pivots, list(cols.values())


def _replay(pivots, v, p):
    """v less the multiples of the pivot columns, taken in pivot order,
    that clear it in each pivot row.  A pivot column is zero in the rows
    of the pivots before it, so the result is the one vector congruent
    to v modulo their span that is zero in every pivot row."""
    v = dict(v)
    for r, col, inv in pivots:
        x = v.pop(r, 0)
        if x:
            _subtract(v, x * inv, col, p)
    return v


def _subtract(v, f, w, p):
    """v -= f*w in place, mod p when p is a prime, dropping the entries
    that cancel; f*w has no entry that is zero (mod p)."""
    for i, x in w.items():
        y = v.get(i, 0) - f * x
        if p:
            y %= p
        if y:
            v[i] = y
        else:
            del v[i]


def solve_in_span(pivots, residual, v, r, ring: RingSpec):
    """The coefficient c with v - c*r in the span of some columns (over
    Z, their lattice), from the pivots unit_pivots found in them;
    residual is true when it left any column.  v and r are replayed on
    the pivots (_replay), giving v' and r'.  c is 0 when v' is zero, and
    otherwise v'/r' at the first row of r', where v' must equal c*r'.

    Returns None when no c is certified: v' is not zero and r is None or
    in the span (r' zero), or v' is no multiple c*r' (over Z, with c an
    integer), or the columns left a residual, which is not searched."""
    v = _replay(pivots, v, ring.char)
    if not v:
        return ring.zero()
    if residual or r is None:
        return None
    r = _replay(pivots, r, ring.char)
    if not r:
        return None
    i = min(r)
    x = v.get(i, 0)
    # over Z a quotient that is not exact fails the comparison
    c = ring.mul(x, ring.inv(r[i])) if ring.is_field else x // r[i]
    return c if v == {i: ring.mul(c, y) for i, y in r.items()} else None


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(columns):
    """Invariant factors of integer columns, which are consumed.

    Returns (diagonal, rank) with diagonal = (d_1, ..., d_r), d_i > 0 and
    d_1 | d_2 | ... | d_r: a 1 for each unit pivot (unit_pivots), then
    the Euclidean Smith form of the residual (matrix_invariants)."""
    rank, factors, _ = matrix_invariants(columns, RingSpec.integers())
    return (1,) * (rank - len(factors)) + factors, rank


def _euclidean_smith(columns):
    """Sorted invariant factors of integer columns, which are consumed,
    by Euclidean steps on the columns alone.  A step pivots on an entry
    x of least absolute value m, at row i and column j, and subtracts
    multiples of column j from the others, leaving remainders of x in
    row i.  When they are zero, row i is x alone, so the row operations
    that clear column j change column j alone, leaving remainders of x
    there.  When those are zero too, |x| is a factor if it divides every
    entry, and so every factor of the rest; if not, row i gains a row r
    holding an entry that x does not divide, less multiples of column j.

    The loop ends: a step that records no factor leaves a nonzero
    remainder of x, so between two factors the least absolute entry
    strictly falls."""
    cols = {j: c for j, c in enumerate(columns) if c}
    factors = []
    while cols:
        _, i, j = min((abs(x), i, j) for j, c in cols.items()
                      for i, x in c.items())
        c = cols[j]
        x = c[i]
        for k, ck in list(cols.items()):
            if k != j and i in ck:
                _subtract(ck, ck[i] // x, c, 0)
                if not ck:
                    del cols[k]
        if any(i in ck for k, ck in cols.items() if k != j):
            continue
        # row i is x alone, so the row operations change column j alone
        cols[j] = c = {r: y % x for r, y in c.items() if y % x}
        c[i] = x
        if len(c) > 1:
            continue
        r = next((r for ck in cols.values() for r, y in ck.items() if y % x),
                 None)
        if r is None:
            factors.append(abs(x))
            del cols[j]
        else:
            # row i += row r, less multiples of column j: row i is zero
            # outside column j, which is zero in row r
            for ck in cols.values():
                if ck.get(r, 0) % x:
                    ck[i] = ck[r] % x
    return tuple(sorted(factors))
