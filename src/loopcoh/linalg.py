"""Exact sparse linear algebra over Z, Q, and prime fields.

Vectors are dicts {row_index: nonzero coefficient}; matrices store a
sparse entry map keyed (row, col).

One kernel eliminates every matrix outside F2: _peel_units pivots on
units only, any nonzero residue over F_p, +-1 over Z and over Q, whose
columns are first scaled to integers.  The sparsest column goes first,
its pivot taken in the shortest row.  Each step is unimodular, so every
pivot is an invariant factor 1; what no unit pivot reaches is left to a
Euclidean Smith loop.  Ranks and Smith forms count the pivots; the ring
table keeps their record and replays it on the vectors it solves
(solve_in_span).  F2 ranks come from bit-packed columns (_rank_gf2).
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import lcm

from .rings import RingError, RingSpec

DEFAULT_DIMENSION_CAP = 20000


class ResourceCapError(Exception):
    """A matrix exceeded the configured dimension cap."""


class SparseMatrix:
    """Sparse matrix; no explicit zeros are stored.  It takes any size:
    the dimension cap is the caller's policy (BarComplex.check_cap
    refuses a degree before any of its blocks is assembled)."""

    __slots__ = ("n_rows", "n_cols", "ring", "entries", "row_labels", "col_labels")

    def __init__(self, n_rows, n_cols, ring: RingSpec, entries=None,
                 row_labels=None, col_labels=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.ring = ring
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise IndexError(f"entry ({i},{j}) outside {n_rows}x{n_cols}")
            v = ring.normalize(v)
            if v != 0:
                clean[(i, j)] = v
        self.entries = clean
        self.row_labels = row_labels
        self.col_labels = col_labels

    @classmethod
    def from_reduced(cls, n_rows, n_cols, ring: RingSpec, entries,
                     row_labels=None, col_labels=None):
        """Matrix over entries that are already in range, nonzero and
        reduced (residues in [0, p) over F_p), taken without copying.
        Over Q they may be Python ints: an int is an exact rational."""
        m = cls.__new__(cls)
        m.n_rows = n_rows
        m.n_cols = n_cols
        m.ring = ring
        m.entries = entries
        m.row_labels = row_labels
        m.col_labels = col_labels
        return m

    def add_entry(self, i, j, v):
        """Accumulate v into entry (i, j), dropping it if it cancels."""
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i},{j}) outside "
                             f"{self.n_rows}x{self.n_cols}")
        cur = self.ring.add(self.entries.get((i, j), self.ring.zero()), v)
        if self.ring.is_zero(cur):
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = cur

    def columns(self):
        """Columns as dicts, in column order (absent columns are empty)."""
        cols = [dict() for _ in range(self.n_cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if other.n_rows != self.n_cols:
            raise ValueError("shape mismatch in compose")
        out = {}
        cols = self.columns()
        for (k, j), v in other.entries.items():
            for i, w in cols[k].items():
                key = (i, j)
                out[key] = out.get(key, 0) + v * w
        return SparseMatrix(self.n_rows, other.n_cols, self.ring, out)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return (f"SparseMatrix({self.n_rows}x{self.n_cols} over "
                f"{self.ring.describe()}, nnz={len(self.entries)})")


# ---------------------------------------------------------------------------
# unit-pivot elimination


def rank_over_field(m: SparseMatrix) -> int:
    """Exact matrix rank over a field: the number of unit pivots (see
    unit_pivots) plus, over Q, the length of the residual's Smith form."""
    if not m.ring.is_field:
        raise RingError(f"rank_over_field called over {m.ring.describe()}")
    if m.ring.char == 2:
        return _rank_gf2(m)
    pivots, residual = unit_pivots(m)
    return len(pivots) + len(_euclidean_smith(residual))


def _rank_gf2(m: SparseMatrix) -> int:
    """GF(2) rank with columns packed into Python ints."""
    pivots = {}  # pivot row -> bitmask column
    rank = 0
    for col in m.columns():
        x = 0
        for i in col:
            x |= 1 << i
        while x:
            low = (x & -x).bit_length() - 1
            if low in pivots:
                x ^= pivots[low]
            else:
                pivots[low] = x
                rank += 1
                break
    return rank


def _integer_columns(m: SparseMatrix):
    """Columns of a rational matrix, each scaled by the lcm of its
    denominators to integers; scaling a column keeps the rank."""
    cols = m.columns()
    for k, col in enumerate(cols):
        den = lcm(*(c.denominator for c in col.values()))
        if den == 1:
            cols[k] = {i: c.numerator for i, c in col.items()}
        else:
            cols[k] = {i: (c * den).numerator for i, c in col.items()}
    return cols


def unit_pivots(m: SparseMatrix):
    """_peel_units on the columns of m: over F_p with p, over Z as they
    are, over Q scaled to integers."""
    cols = _integer_columns(m) if m.ring.kind == "rationals" \
        else m.columns()
    return _peel_units(cols, m.ring.char)


def _peel_units(columns, p):
    """Eliminate integer columns on unit pivots only: any nonzero residue
    mod the prime p, or +-1 when p is 0.  The sparsest column goes first,
    its pivot taken in the shortest row; the pivot row is cleared from
    the other columns, and the pivot row and column are dropped.  Every
    step is unimodular, so the Smith form of the columns is a 1 for each
    pivot plus the Smith form of the residual columns, which hold no
    unit.  Returns (pivots, residual): pivots records (row, column,
    inverse) for each pivot in order, the column without its pivot row
    and the inverse of its pivot entry, as solve_in_span replays them.
    The columns are consumed."""
    cols = {j: c for j, c in enumerate(columns) if c}
    rows = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    heap = [(len(c), j) for j, c in cols.items()]
    heapify(heap)
    pivots = []
    while heap:
        n, j = heappop(heap)
        c = cols.get(j)
        if c is None or len(c) != n:
            continue  # stale: the column has gone or changed since
        units = [i for i, v in c.items() if p or v in (1, -1)]
        if not units:
            continue  # back on the heap only if another pivot changes it
        r = min(units, key=lambda i: (len(rows[i]), i))
        del cols[j]
        for i in c:
            rows[i].discard(j)
        inv = pow(c.pop(r), -1, p) if p else c.pop(r)
        for k in rows.pop(r):
            ck = cols[k]
            f = ck.pop(r) * inv
            for i, v in c.items():
                x = ck.get(i, 0) - f * v
                if p:
                    x %= p
                if x:
                    if i not in ck:
                        rows[i].add(k)
                    ck[i] = x
                else:
                    del ck[i]
                    rows[i].discard(k)
            if ck:
                heappush(heap, (len(ck), k))
            else:
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


def smith_normal_form(m: SparseMatrix):
    """Invariant factors of an integer matrix.

    Returns (diagonal, rank) with diagonal = (d_1, ..., d_r), d_i > 0 and
    d_1 | d_2 | ... | d_r: a 1 for each unit pivot (unit_pivots), then
    the Euclidean Smith form of the residual.
    """
    if m.ring.kind != "integers":
        raise RingError("smith_normal_form needs the integer ring")
    pivots, residual = unit_pivots(m)
    diagonal = (1,) * len(pivots) + _euclidean_smith(residual)
    return diagonal, len(diagonal)


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
