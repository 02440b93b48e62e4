"""Homology of the bar construction: ranks, torsion, the ring table on
canonical representatives, and the exterior/non-exterior verdict.

Every chain group splits into blocks keyed by the total exponent vector
of a word, the sum of its letters' exponent tuples.  The differential
multiplies adjacent letters, which adds their exponent tuples, so it
maps each block of degree n into the block of degree n+1 with the same
vector, and all matrices are computed blockwise.  These blocks refine
the blocks of constant s = n + weight, because s is the internal degree
of the vector.  The boundary matrices hold only +-1 entries.
"""
from __future__ import annotations

import itertools

from . import bar
from .hirsch_ops import HirschOpTable
from .koszul import oracle_dimensions
from .linalg import (SparseMatrix, rank_over_field, reduce_modulo_image,
                     smith_normal_form, solve_in_span)
from .polynomial import GeneratorSet
from .rings import RingSpec


class HomologyError(Exception):
    pass


def _exponent_vector(gens, word):
    return tuple(map(sum, zip(*word))) if word else gens.unit_monomial()


def _basis_by_block(gens, degree):
    """Bar words of the given degree, grouped by total exponent vector."""
    blocks = {}
    for w in bar.bar_basis(gens, degree):
        blocks.setdefault(_exponent_vector(gens, w), []).append(w)
    return blocks


def _block_matrix(gens, dom_words, cod_words):
    """Boundary matrix from one block of degree n to the block of degree
    n+1 with the same exponent vector.  The terms of d[w] are distinct
    words, so every entry is a sign: 1, or -1 reduced for the ring."""
    ring = gens.ring
    minus_one = -1 % ring.char if ring.char else -1
    index = {w: i for i, w in enumerate(cod_words)}
    entries = {}
    for col, w in enumerate(dom_words):
        for out_w, sign in bar.boundary_terms(gens, w):
            entries[(index[out_w], col)] = 1 if sign > 0 else minus_one
    return SparseMatrix.from_reduced(len(cod_words), len(dom_words), ring,
                                     entries, row_labels=cod_words,
                                     col_labels=dom_words)


class BarComplex:
    """Degree-truncated bar complex with cached blockwise boundaries."""

    def __init__(self, gens: GeneratorSet, max_degree):
        self.gens = gens
        self.max_degree = max_degree
        self._blocks = {n: _basis_by_block(gens, n)
                        for n in range(0, max_degree + 2)}
        self._matrices = {}
        self._diagonals = {}

    def dimension(self, n):
        if n < 0 or n > self.max_degree + 1:
            return 0
        return sum(len(ws) for ws in self._blocks[n].values())

    def boundary_blocks(self, n):
        """Matrices of d: C_n -> C_(n+1), one per exponent vector that
        has words in both degrees, in the order of the vectors; d is zero
        on the other blocks of C_n."""
        if n < 0 or n > self.max_degree:
            return []
        cached = self._matrices.get(n)
        if cached is None:
            cached = [_block_matrix(self.gens, dom_words, cod_words)
                      for dom_words, cod_words in self._block_pairs(n)]
            self._matrices[n] = cached
        return cached

    def block_shapes(self, n):
        """(rows, cols) of each matrix boundary_blocks(n) returns, in the
        same order, without building them."""
        if n < 0 or n > self.max_degree:
            return []
        return [(len(cod_words), len(dom_words))
                for dom_words, cod_words in self._block_pairs(n)]

    def _block_pairs(self, n):
        cod = self._blocks[n + 1]
        return [(dom_words, cod[key])
                for key, dom_words in sorted(self._blocks[n].items())
                if key in cod]

    def _smith_diagonals(self, n):
        """Smith diagonal of every block of d: C_n -> C_(n+1),
        computed once and shared by boundary_rank and torsion (Z only)."""
        cached = self._diagonals.get(n)
        if cached is None:
            cached = [smith_normal_form(m)[0]
                      for m in self.boundary_blocks(n)]
            self._diagonals[n] = cached
        return cached

    def boundary_rank(self, n):
        if not self.gens.ring.is_field:
            return sum(len(diag) for diag in self._smith_diagonals(n))
        return sum(rank_over_field(m) for m in self.boundary_blocks(n))

    def torsion(self, n):
        """Torsion of H^n: the invariant factors > 1 of d: C_(n-1) -> C_n,
        taken block by block and sorted.  The group is the sum of the
        cyclic groups they name; a degree with torsion Z/2 + Z/3 lists
        [2, 3], not the single factor 6 of the whole matrix.  Empty over
        a field, and for S(U) over Z always empty: the homology there is
        the free exterior algebra on the desuspended generators."""
        if self.gens.ring.is_field:
            return []
        return sorted(d for diag in self._smith_diagonals(n - 1)
                      for d in diag if d > 1)


def homology_ranks(gens: GeneratorSet, max_degree, cx=None):
    """Per-degree free rank (and torsion over the integers) of the bar
    homology up to max_degree, on the complex cx when given (it must be
    a BarComplex of gens truncated at max_degree)."""
    if cx is None:
        cx = BarComplex(gens, max_degree)
    elif cx.gens != gens or cx.max_degree != max_degree:
        raise HomologyError("bar complex does not match the algebra or "
                            "the degree bound")
    ranks = []
    torsion = {}
    prev_rank = 0
    for n in range(0, max_degree + 1):
        rank_n = cx.boundary_rank(n)
        ranks.append(cx.dimension(n) - rank_n - prev_rank)
        tors = cx.torsion(n)
        if tors:
            torsion[n] = tors
        prev_rank = rank_n
    return {"ranks": ranks, "torsion": torsion}


# ---------------------------------------------------------------------------
# ring structure on canonical representatives

def _subsets_by_degree(gens, max_degree):
    out = {}
    n_gens = len(gens.names)
    for size in range(1, n_gens + 1):
        for subset in itertools.combinations(range(n_gens), size):
            deg = sum(gens.degrees[i] - 1 for i in subset)
            if deg <= max_degree:
                out.setdefault(deg, []).append(subset)
    return out


def _element_vector(words_index, x):
    v = {}
    for w, c in x.items():
        i = words_index.get(w)
        if i is None:
            raise HomologyError(f"word outside enumerated basis: {w!r}")
        v[i] = c
    return v


class RingTable:
    """Products of the canonical exterior classes under a bar product
    induced by an operation table.

    classes: generator subsets (by declared index) with their cocycle
    representatives; entries: (S1, S2) -> dict with the reduced class
    coordinates and any flags raised on the way.
    """

    def __init__(self, table: HirschOpTable, max_degree):
        self.table = table
        self.gens = table.gens
        self.ring = self.gens.ring
        self.max_degree = max_degree
        self.subsets = _subsets_by_degree(self.gens, max_degree)
        self.reps = {}
        for deg, subsets in self.subsets.items():
            for s in subsets:
                self.reps[s] = bar.canonical_symmetric_cocycle(self.gens, s)
        self._solvers = {}
        self._basis_cache = {}
        self.entries = {}
        self._build()

    def _degree_basis(self, n):
        cached = self._basis_cache.get(n)
        if cached is None:
            words = bar.bar_basis(self.gens, n)
            cached = (words, {w: i for i, w in enumerate(words)})
            self._basis_cache[n] = cached
        return cached

    def _reduction_data(self, n):
        """Boundary image columns of degree n plus representative
        columns, for expressing cocycles in terms of classes."""
        cached = self._solvers.get(n)
        if cached is not None:
            return cached
        words, index = self._degree_basis(n)
        ring = self.ring
        image_cols = []
        for w in bar.bar_basis(self.gens, n - 1):
            dv = bar.bar_differential(self.gens, {w: ring.one()})
            if dv:
                image_cols.append(_element_vector(index, dv))
        rep_subsets = self.subsets.get(n, [])
        rep_cols = [_element_vector(index, self.reps[s])
                    for s in rep_subsets]
        cached = (image_cols, rep_subsets, rep_cols)
        self._solvers[n] = cached
        return cached

    def reduce_cocycle(self, x):
        """Class coordinates {subset: coeff} of a cocycle, reduced per
        homogeneous degree; returns (coords, flags)."""
        ring = self.ring
        coords = {}
        flags = []
        for n in bar.element_degrees(self.gens, x):
            if n == 0:
                if x.get((), None):
                    flags.append("degree-0 component")
                continue
            if n > self.max_degree:
                flags.append(f"component above degree cap ({n})")
                continue
            part = bar.homogeneous_part(self.gens, x, n)
            _, index = self._degree_basis(n)
            v = _element_vector(index, part)
            image_cols, rep_subsets, rep_cols = self._reduction_data(n)
            class_coeffs = self._class_coefficients(
                image_cols, rep_cols, v, len(index))
            if class_coeffs is None:
                flags.append(f"cocycle not reducible in degree {n}")
                continue
            for s, c in zip(rep_subsets, class_coeffs):
                if not ring.is_zero(c):
                    coords[s] = c
        return coords, flags

    def _class_coefficients(self, image_cols, rep_cols, v, n_rows):
        """Coefficients of v on the representative columns modulo the
        boundary image; None when v is not in the span (or, over the
        integers, not integrally so)."""
        ring = self.ring
        if ring.is_field:
            sol = solve_in_span(image_cols + rep_cols, v, ring)
            if sol is None:
                return None
            return sol[len(image_cols):]
        rationals = RingSpec.rationals()
        rat_cols = [{i: rationals.normalize(c) for i, c in col.items()}
                    for col in image_cols + rep_cols]
        rat_v = {i: rationals.normalize(c) for i, c in v.items()}
        sol = solve_in_span(rat_cols, rat_v, rationals)
        if sol is None:
            return None
        class_part = sol[len(image_cols):]
        if any(c.denominator != 1 for c in class_part):
            return None
        class_part = [int(c) for c in class_part]
        # certify the remainder lies in the integral boundary lattice
        residual = dict(v)
        for c, col in zip(class_part, rep_cols):
            if c == 0:
                continue
            for i, val in col.items():
                cur = residual.get(i, 0) - c * val
                if cur:
                    residual[i] = cur
                else:
                    residual.pop(i, None)
        if residual:
            entries = {}
            for j, col in enumerate(image_cols):
                for i, val in col.items():
                    entries[(i, j)] = val
            m = SparseMatrix(n_rows, len(image_cols), ring, entries)
            _, in_image = reduce_modulo_image(residual, m)
            if not in_image:
                return None
        return class_part

    def product(self, s1, s2):
        return self.entries.get((s1, s2))

    def _build(self):
        ring = self.ring
        keys = sorted(self.reps)
        for s1 in keys:
            for s2 in keys:
                d1 = sum(self.gens.degrees[i] - 1 for i in s1)
                d2 = sum(self.gens.degrees[i] - 1 for i in s2)
                if d1 + d2 > self.max_degree:
                    continue
                prod = bar.muE_product(self.table, self.reps[s1],
                                       self.reps[s2])
                flags = []
                if bar.bar_differential(self.gens, prod):
                    flags.append("product is not a cocycle")
                    coords = {}
                else:
                    coords, rflags = self.reduce_cocycle(prod)
                    flags.extend(rflags)
                self.entries[(s1, s2)] = {"coords": coords,
                                          "flags": flags}


# ---------------------------------------------------------------------------
# verdict

def _is_unit(ring, c):
    if ring.is_field:
        return not ring.is_zero(c)
    return c in (1, -1)


def exterior_verdict(table: HirschOpTable, max_degree, cx=None):
    """Decide whether the bar homology with the induced product is the
    exterior algebra on the desuspended generators up to max_degree.
    cx is passed on to homology_ranks.

    Returns a report with verdict exterior / not_exterior (with the
    first witness found, in a fixed deterministic order) or inconclusive
    when some ring entry was flagged.
    """
    gens = table.gens
    ring = gens.ring
    ranks = homology_ranks(gens, max_degree, cx)
    oracle = oracle_dimensions(gens, max_degree)
    report = {
        "ranks": ranks["ranks"],
        "oracle": oracle,
        "torsion": ranks["torsion"],
        "flags": [],
        "witness": None,
    }
    for n, (got, want) in enumerate(zip(ranks["ranks"], oracle)):
        if got != want:
            report["verdict"] = "not_exterior"
            report["witness"] = {"kind": "rank", "degree": n,
                                 "rank": got, "oracle": want}
            return report
    if ranks["torsion"]:
        n = min(ranks["torsion"])
        report["verdict"] = "not_exterior"
        report["witness"] = {"kind": "torsion", "degree": n,
                             "factors": ranks["torsion"][n]}
        return report

    rt = RingTable(table, max_degree)
    report["flags"] = sorted(
        {f for e in rt.entries.values() for f in e["flags"]})
    witness = None
    for (s1, s2) in sorted(rt.entries):
        entry = rt.entries[(s1, s2)]
        if entry["flags"]:
            continue
        coords = entry["coords"]
        overlap = set(s1) & set(s2)
        if overlap:
            # squares and overlapping products must vanish
            if coords:
                witness = {"kind": "square" if s1 == s2 else "overlap",
                           "left": s1, "right": s2,
                           "value": {str(k): repr(c)
                                     for k, c in sorted(coords.items())}}
                break
        else:
            union = tuple(sorted(s1 + s2))
            keys = sorted(coords)
            if keys != [union] or not _is_unit(ring, coords[union]):
                witness = {"kind": "product", "left": s1, "right": s2,
                           "expected": union,
                           "value": {str(k): repr(c)
                                     for k, c in sorted(coords.items())}}
                break
    if witness is not None:
        report["verdict"] = "not_exterior"
        report["witness"] = witness
        return report
    # graded commutativity of the table entries
    for (s1, s2) in sorted(rt.entries):
        if (s2, s1) not in rt.entries:
            continue
        a = rt.entries[(s1, s2)]
        b = rt.entries[(s2, s1)]
        if a["flags"] or b["flags"]:
            continue
        d1 = sum(gens.degrees[i] - 1 for i in s1)
        d2 = sum(gens.degrees[i] - 1 for i in s2)
        sign = ring.one() if (d1 * d2) % 2 == 0 \
            else ring.neg(ring.one())
        flipped = {k: ring.mul(sign, c) for k, c in b["coords"].items()}
        if a["coords"] != flipped:
            report["flags"].append(
                f"graded commutativity fails at {s1} x {s2}")
    if report["flags"]:
        report["verdict"] = "inconclusive"
    else:
        report["verdict"] = "exterior"
    return report
