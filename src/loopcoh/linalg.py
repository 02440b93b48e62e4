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
no unit pivot reaches is left to a Euclidean Smith loop.  Ranks and
Smith forms count the pivots; the ring table keeps their record and
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

matrix_invariants is the one entry point for the boundary matrices of
the bar blocks and, through rank_over_field and smith_normal_form, of
the Koszul oracle.  Besides the rank and the invariant factors it
returns the rows its pivots took, which the bar complex uses to drop
columns from the next differential (see homology.BarComplex).
composition_failures checks d^2 = 0 for both, on the bar blocks and on
the Koszul complex.
"""
from __future__ import annotations

from .rings import RingError, RingSpec

DEFAULT_DIMENSION_CAP = 20000


class ResourceCapError(Exception):
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
            if r not in ck:
                continue
            f = ck.pop(r) * inv
            for i, v in c.items():
                x = ck.get(i, 0) - f * v
                if p:
                    x %= p
                if x:
                    ck[i] = x
                else:
                    del ck[i]
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
            f = x * inv
            for i, w in col.items():
                y = v.get(i, 0) - f * w
                if p:
                    y %= p
                if y:
                    v[i] = y
                else:
                    del v[i]
    return v


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
    the Euclidean Smith form of the residual (matrix_invariants).
    """
    rank, factors, _ = matrix_invariants(columns, RingSpec.integers())
    return (1,) * (rank - len(factors)) + factors, rank


def _euclidean_smith(columns):
    """Sorted invariant factors of integer columns, by Euclidean row and
    column operations on any pivot."""
    rows = {}
    cols = {}
    for j, col in enumerate(columns):
        for i, val in col.items():
            rows.setdefault(i, {})[j] = val
            cols.setdefault(j, {})[i] = val

    def set_entry(i, j, val):
        if val:
            rows.setdefault(i, {})[j] = val
            cols.setdefault(j, {})[i] = val
        else:
            if i in rows and j in rows[i]:
                del rows[i][j]
                if not rows[i]:
                    del rows[i]
            if j in cols and i in cols[j]:
                del cols[j][i]
                if not cols[j]:
                    del cols[j]

    def row_op(i1, i2, q):
        # row i2 += q * row i1
        for j, val in list(rows.get(i1, {}).items()):
            set_entry(i2, j, rows.get(i2, {}).get(j, 0) + q * val)

    def col_op(j1, j2, q):
        for i, val in list(cols.get(j1, {}).items()):
            set_entry(i, j2, cols.get(j2, {}).get(i, 0) + q * val)

    diagonal = []
    while rows:
        # pivot: smallest absolute value, ties by position
        _, pi, pj = min((abs(val), i, j)
                        for i in rows for j, val in rows[i].items())
        # clear the pivot row and column
        while True:
            moved = False
            for i in list(cols.get(pj, {})):
                if i == pi:
                    continue
                val = cols[pj][i]
                q = val // rows[pi][pj]
                row_op(pi, i, -q)
                if cols.get(pj, {}).get(i):
                    # remainder smaller than pivot: swap roles
                    pi = i
                    moved = True
                    break
            if moved:
                continue
            for j in list(rows.get(pi, {})):
                if j == pj:
                    continue
                val = rows[pi][j]
                q = val // rows[pi][pj]
                col_op(pj, j, -q)
                if rows.get(pi, {}).get(j):
                    pj = j
                    moved = True
                    break
            if not moved:
                break
        pv = rows[pi][pj]
        # divisibility: the pivot must divide every remaining entry
        offender = next((i for i in rows if i != pi
                         and any(val % pv for val in rows[i].values())),
                        None)
        if offender is not None:
            row_op(offender, pi, 1)
            continue
        diagonal.append(abs(pv))
        set_entry(pi, pj, 0)
    return tuple(sorted(diagonal))
