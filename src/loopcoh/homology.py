"""Homology of the bar construction: ranks, torsion, the ring table on
canonical representatives, and the exterior/non-exterior verdict.

Every chain group splits into blocks keyed by the total exponent vector
of a word, the sum of its letters' exponent tuples.  The differential
multiplies adjacent letters, which adds their exponent tuples, so it
maps each block of degree n into the block of degree n+1 with the same
vector, and all matrices are computed blockwise.  These blocks refine
the blocks of constant s = n + weight, because s is the internal degree
of the vector.  The boundary matrices hold only +-1 entries.

The ring table reduces products on the same blocks.  Since d keeps the
vector and every representative lies in one block of one degree, the
span of the boundary image and the representatives is the direct sum of
its block parts, so a cocycle lies in that span (over Z, in that
lattice) exactly when each of its block parts lies in its block's part,
and its class coordinates are those of its parts.
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
    """Degree-truncated bar complex.  Words, boundary blocks and block
    invariants are computed the first time they are needed.  Ranks and
    torsion read only the invariants, which a cache can restore without
    assembling a block; the ring table assembles the blocks it reaches."""

    def __init__(self, gens: GeneratorSet, max_degree):
        self.gens = gens
        self.max_degree = max_degree
        self._blocks = {}
        self._matrices = {}
        self._invariants = {}

    def blocks(self, n):
        """Words of degree n (0 <= n <= max_degree + 1), by exponent
        vector."""
        cached = self._blocks.get(n)
        if cached is None:
            cached = _basis_by_block(self.gens, n)
            self._blocks[n] = cached
        return cached

    def dimension(self, n):
        if n < 0 or n > self.max_degree + 1:
            return 0
        return sum(len(ws) for ws in self.blocks(n).values())

    def boundary_vectors(self, n):
        """The exponent vectors with words in both degrees n and n+1, in
        order: one per matrix of boundary_blocks(n).  d is zero on the
        other blocks of C_n."""
        if n < 0 or n > self.max_degree:
            return []
        cod = self.blocks(n + 1)
        return [key for key in sorted(self.blocks(n)) if key in cod]

    def boundary_blocks(self, n):
        """Matrices of d: C_n -> C_(n+1), one per vector of
        boundary_vectors(n); rows and columns follow the word lists of
        blocks(n + 1) and blocks(n)."""
        cached = self._matrices.get(n)
        if cached is None:
            cached = [_block_matrix(self.gens, dom_words, cod_words)
                      for dom_words, cod_words in self._block_pairs(n)]
            self._matrices[n] = cached
        return cached

    def block_shapes(self, n):
        """(rows, cols) of each matrix boundary_blocks(n) returns, in the
        same order, without building them."""
        return [(len(cod_words), len(dom_words))
                for dom_words, cod_words in self._block_pairs(n)]

    def _block_pairs(self, n):
        return [(self.blocks(n)[key], self.blocks(n + 1)[key])
                for key in self.boundary_vectors(n)]

    def block_invariants(self, n):
        """(rank, factors) of every matrix of boundary_blocks(n), in the
        same order, computed once: over Z from its Smith form, factors
        being the invariant factors > 1; over a field its rank and ()."""
        cached = self._invariants.get(n)
        if cached is None:
            cached = []
            for m in self.boundary_blocks(n):
                if m.ring.is_field:
                    cached.append((rank_over_field(m), ()))
                else:
                    diagonal, rank = smith_normal_form(m)
                    cached.append((rank, tuple(d for d in diagonal if d > 1)))
            self._invariants[n] = cached
        return cached

    def boundary_rank(self, n):
        return sum(rank for rank, _ in self.block_invariants(n))

    def torsion(self, n):
        """Torsion of H^n: the invariant factors > 1 of d: C_(n-1) -> C_n,
        taken block by block and sorted.  The group is the sum of the
        cyclic groups they name; a degree with torsion Z/2 + Z/3 lists
        [2, 3], not the single factor 6 of the whole matrix.  Empty over
        a field, and for S(U) over Z always empty: the homology there is
        the free exterior algebra on the desuspended generators."""
        return sorted(d for _, factors in self.block_invariants(n - 1)
                      for d in factors)


def _complex(gens, max_degree, cx):
    """cx, which must be a BarComplex of gens truncated at max_degree, or
    a new one when cx is None."""
    if cx is None:
        return BarComplex(gens, max_degree)
    if cx.gens != gens or cx.max_degree != max_degree:
        raise HomologyError("bar complex does not match the algebra or "
                            "the degree bound")
    return cx


def homology_ranks(gens: GeneratorSet, max_degree, cx=None):
    """Per-degree free rank (and torsion over the integers) of the bar
    homology up to max_degree, on the complex cx when given (it must be
    a BarComplex of gens truncated at max_degree)."""
    cx = _complex(gens, max_degree, cx)
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
    induced by an operation table, reduced on the blocks of the bar
    complex cx (a BarComplex of the table's generators truncated at
    max_degree; built when not given).

    classes: generator subsets (by declared index) with their cocycle
    representatives; entries: (S1, S2) -> dict with the reduced class
    coordinates and any flags raised on the way.
    """

    def __init__(self, table: HirschOpTable, max_degree, cx=None):
        self.table = table
        self.gens = table.gens
        self.ring = self.gens.ring
        self.max_degree = max_degree
        self.cx = _complex(self.gens, max_degree, cx)
        self.subsets = _subsets_by_degree(self.gens, max_degree)
        self.reps = {}
        # the subset whose representative lies in each (degree, vector)
        # block: its vector is the subset's indicator.  One vector can
        # hold words of several degrees.
        self._rep_of = {}
        n_gens = len(self.gens.names)
        for deg, subsets in self.subsets.items():
            for s in subsets:
                self.reps[s] = bar.canonical_symmetric_cocycle(self.gens, s)
                indicator = tuple(int(i in s) for i in range(n_gens))
                self._rep_of[(deg, indicator)] = s
        self._solvers = {}
        self.entries = {}
        self._build()

    def _reduction_data(self, n):
        """Blocks of degree n by exponent vector: the index of the
        block's words and the matrix of d from degree n-1 into it, for
        expressing cocycles in terms of classes."""
        cached = self._solvers.get(n)
        if cached is not None:
            return cached
        cx = self.cx
        matrices = dict(zip(cx.boundary_vectors(n - 1),
                            cx.boundary_blocks(n - 1)))
        cached = {}
        for key, words in cx.blocks(n).items():
            m = matrices.get(key)
            if m is None:
                m = SparseMatrix.from_reduced(len(words), 0, self.ring, {},
                                              dimension_cap=None)
            cached[key] = ({w: i for i, w in enumerate(words)}, m)
        self._solvers[n] = cached
        return cached

    def reduce_cocycle(self, x):
        """Class coordinates {subset: coeff} of a cocycle, reduced per
        homogeneous degree and, within a degree, per exponent-vector
        block; a degree with a block that does not reduce is flagged and
        contributes no coordinates.  Returns (coords, flags)."""
        ring = self.ring
        parts = {}
        for w, c in x.items():
            n = bar.word_degree(self.gens, w)
            key = _exponent_vector(self.gens, w)
            parts.setdefault(n, {}).setdefault(key, {})[w] = c
        coords = {}
        flags = []
        for n in sorted(parts):
            if n == 0:
                flags.append("degree-0 component")
                continue
            if n > self.max_degree:
                flags.append(f"component above degree cap ({n})")
                continue
            blocks = self._reduction_data(n)
            found = {}
            for key, part in sorted(parts[n].items()):
                # a vector outside the complex has an empty index, so
                # _element_vector raises before m is used
                index, m = blocks.get(key, ({}, None))
                v = _element_vector(index, part)
                s = self._rep_of.get((n, key))
                rep_cols = [] if s is None else \
                    [_element_vector(index, self.reps[s])]
                class_coeffs = self._class_coefficients(m, rep_cols, v)
                if class_coeffs is None:
                    found = None
                    break
                if rep_cols and not ring.is_zero(class_coeffs[0]):
                    found[s] = class_coeffs[0]
            if found is None:
                flags.append(f"cocycle not reducible in degree {n}")
                continue
            coords.update(found)
        return coords, flags

    def _class_coefficients(self, m, rep_cols, v):
        """Coefficients of v on the representative columns modulo the
        column span of the boundary block m; None when v is not in the
        span (or, over the integers, not integrally so)."""
        ring = self.ring
        image_cols = m.columns()
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
    The ranks and the ring table share the bar complex cx (built when
    not given).

    Returns a report with verdict exterior / not_exterior (with the
    first witness found, in a fixed deterministic order) or inconclusive
    when some ring entry was flagged.
    """
    gens = table.gens
    ring = gens.ring
    cx = _complex(gens, max_degree, cx)
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

    rt = RingTable(table, max_degree, cx)
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
