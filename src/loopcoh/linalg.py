"""Exact sparse linear algebra over Z, Q, and prime fields.

Vectors are dicts {row_index: nonzero coefficient}; matrices store a
sparse entry map keyed (row, col).  Coset representatives are pinned down by a fixed
pivot rule (lowest row index first) so homology-class identity tests are
deterministic.

Ranks and Smith forms pivot on units only (_peel_units): any nonzero
residue over F_p, +-1 over Z and over Q, whose columns are first scaled
to integers.  The sparsest column goes first, its pivot taken in the
shortest row.  Each step is unimodular, so every pivot is an invariant
factor 1; what no unit pivot reaches is left to a Euclidean Smith loop.
F2 is the exception: its ranks come from bit-packed columns (_rank_gf2).
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
# field elimination


def _reduce_against(ring, v, basis):
    """Subtract pivot-row multiples of fully reduced echelon basis from v."""
    v = dict(v)
    for r in sorted(basis):
        c = v.get(r)
        if c:
            for i, w in basis[r].items():
                x = ring.sub(v.get(i, 0), ring.mul(c, w))
                if x == 0:
                    v.pop(i, None)
                else:
                    v[i] = x
    return v

def _echelon_insert(ring, v, basis):
    """Insert v into a reduced column-echelon basis; returns pivot or None."""
    v = _reduce_against(ring, v, basis)
    if not v:
        return None
    piv = min(v)
    inv = ring.inv(v[piv])
    v = {i: ring.mul(inv, w) for i, w in v.items()}
    # keep the basis fully reduced at the new pivot row
    for r, b in basis.items():
        c = b.get(piv)
        if c:
            for i, w in v.items():
                x = ring.sub(b.get(i, 0), ring.mul(c, w))
                if x == 0:
                    b.pop(i, None)
                else:
                    b[i] = x
    basis[piv] = v
    return piv


def column_echelon_basis(m: SparseMatrix):
    """Reduced column-echelon basis {pivot_row: column dict} of the column span."""
    if not m.ring.is_field:
        raise RingError("column_echelon_basis needs a field")
    basis = {}
    for col in m.columns():
        if col:
            _echelon_insert(m.ring, col, basis)
    return basis


def rank_over_field(m: SparseMatrix) -> int:
    """Exact matrix rank over a field, by unit pivots (see _peel_units);
    over Q on the columns scaled to integers, the residual's rank being
    the length of its Smith form."""
    if not m.ring.is_field:
        raise RingError(f"rank_over_field called over {m.ring.describe()}")
    if m.ring.char == 2:
        return _rank_gf2(m)
    if m.ring.kind == "rationals":
        pivots, residual = _peel_units(_integer_columns(m), 0)
        return pivots + len(_euclidean_smith(residual))
    return _peel_units(m.columns(), m.ring.char)[0]


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


def _peel_units(columns, p):
    """Eliminate integer columns on unit pivots only: any nonzero residue
    mod the prime p, or +-1 when p is 0.  The sparsest column goes first,
    its pivot taken in the shortest row; the pivot row is cleared from
    the other columns, and the pivot row and column are dropped.  Every
    step is unimodular, so the Smith form of the columns is a 1 for each
    pivot plus the Smith form of the residual columns, which hold no
    unit.  Returns (pivots, residual); the columns are consumed."""
    cols = {j: c for j, c in enumerate(columns) if c}
    rows = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    heap = [(len(c), j) for j, c in cols.items()]
    heapify(heap)
    pivots = 0
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
        pivots += 1
    return pivots, list(cols.values())


# ---------------------------------------------------------------------------
# integer forms


def _hnf_insert(v, basis):
    """Insert integer column v into a column-style Hermite basis.

    basis maps pivot row -> column dict with positive pivot entry there and
    no nonzero entries above it.
    """
    v = {i: c for i, c in v.items() if c}
    while v:
        r = min(v)
        if r not in basis:
            if v[r] < 0:
                v = {i: -c for i, c in v.items()}
            basis[r] = v
            return
        b = basis[r]
        a, c = b[r], v[r]
        if c % a == 0:
            q = c // a
            v = _int_axpy(v, -q, b)
        else:
            g, x, y = _xgcd(a, c)
            new = _int_combine(x, b, y, v)
            v = _int_combine(a // g, v, -(c // g), b)
            basis[r] = new
    return


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _int_axpy(v, q, w):
    out = dict(v)
    for i, c in w.items():
        x = out.get(i, 0) + q * c
        if x:
            out[i] = x
        else:
            out.pop(i, None)
    return out


def _int_combine(x, v, y, w):
    out = {}
    for i in set(v) | set(w):
        c = x * v.get(i, 0) + y * w.get(i, 0)
        if c:
            out[i] = c
    return out


def hermite_column_basis(m: SparseMatrix):
    """Column-style Hermite basis of the integer column lattice of m."""
    if m.ring.kind != "integers":
        raise RingError("hermite_column_basis needs integer entries")
    basis = {}
    for col in m.columns():
        _hnf_insert(col, basis)
    return basis


def reduce_modulo_image(v, m: SparseMatrix, basis=None):
    """Canonical representative of vector v modulo the column span of m.

    v is a dict or a sequence of length m.n_rows.  Over a field the span is
    the linear column space; over Z it is the column lattice.  Returns
    (representative dict, in_image flag).
    """
    if not isinstance(v, dict):
        if len(v) != m.n_rows:
            raise ValueError(f"vector length {len(v)} != n_rows {m.n_rows}")
        v = {i: c for i, c in enumerate(v) if c}
    else:
        if any(not 0 <= i < m.n_rows for i in v):
            raise ValueError("vector index outside matrix rows")
    ring = m.ring
    v = {i: ring.normalize(c) for i, c in v.items() if ring.normalize(c) != 0}
    if ring.is_field:
        if basis is None:
            basis = column_echelon_basis(m)
        rep = _reduce_against(ring, v, basis)
    elif ring.kind == "integers":
        if basis is None:
            basis = hermite_column_basis(m)
        rep = dict(v)
        for r in sorted(basis):
            c = rep.get(r, 0)
            h = basis[r][r]
            q = c // h  # floor division: entries land in [0, h)
            if q:
                rep = _int_axpy(rep, -q, basis[r])
    else:
        raise RingError(f"reduce_modulo_image over {ring.describe()}")
    return rep, not rep


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: SparseMatrix):
    """Invariant factors of an integer matrix.

    Returns (diagonal, rank) with diagonal = (d_1, ..., d_r), d_i > 0 and
    d_1 | d_2 | ... | d_r: a 1 for each unit pivot of _peel_units, then
    the Euclidean Smith form of the residual.
    """
    if m.ring.kind != "integers":
        raise RingError("smith_normal_form needs the integer ring")
    pivots, residual = _peel_units(m.columns(), 0)
    diagonal = (1,) * pivots + _euclidean_smith(residual)
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


def solve_in_span(columns, v, ring: RingSpec):
    """Solve sum_j x_j * columns[j] = v over a field.

    columns is a list of dict vectors.  Returns the coefficient list or
    None when v is outside the span.  Deterministic: pivots are chosen at
    the lowest row index, columns taken in the given order.
    """
    if not ring.is_field:
        raise RingError("solve_in_span needs a field")
    basis = {}   # pivot row -> (vector, coeff expansion over column indices)
    for j, col in enumerate(columns):
        w = dict(col)
        expr = {j: ring.one()}
        for r in sorted(basis):
            c = w.get(r)
            if c:
                bvec, bexpr = basis[r]
                for i, x in bvec.items():
                    y = ring.sub(w.get(i, 0), ring.mul(c, x))
                    if y == 0:
                        w.pop(i, None)
                    else:
                        w[i] = y
                for i, x in bexpr.items():
                    y = ring.sub(expr.get(i, 0), ring.mul(c, x))
                    if y == 0:
                        expr.pop(i, None)
                    else:
                        expr[i] = y
        if w:
            piv = min(w)
            inv = ring.inv(w[piv])
            w = {i: ring.mul(inv, c) for i, c in w.items()}
            expr = {i: ring.mul(inv, c) for i, c in expr.items()}
            basis[piv] = (w, expr)
    res = {i: ring.normalize(c) for i, c in v.items() if ring.normalize(c) != 0}
    coeffs = {}
    for r in sorted(basis):
        c = res.get(r)
        if c:
            bvec, bexpr = basis[r]
            for i, x in bvec.items():
                y = ring.sub(res.get(i, 0), ring.mul(c, x))
                if y == 0:
                    res.pop(i, None)
                else:
                    res[i] = y
            for i, x in bexpr.items():
                coeffs[i] = ring.add(coeffs.get(i, 0), ring.mul(c, x))
    if res:
        return None
    out = [ring.zero()] * len(columns)
    for i, c in coeffs.items():
        out[i] = c
    return out
