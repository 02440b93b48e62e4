"""Homology of the bar construction: ranks, torsion, the ring table on
canonical representatives, and the exterior/non-exterior verdict.

Every chain group splits into blocks keyed by the total exponent vector
of a word, the sum of its letters' exponent tuples.  The differential
multiplies adjacent letters, which adds their exponent tuples, so it
maps each block of degree n into the block of degree n+1 with the same
vector, and all matrices are computed blockwise.  These blocks refine
the blocks of constant s = n + weight, because s is the internal degree
of the vector.  A boundary matrix is the list of its columns, one dict
{row: entry} per word of the domain, and holds only +-1 entries.

Blocks are listed and assembled on words in integer code, on one table
(_Letters) per bar complex: a letter m is the int sum(m_i * B^i), with
B = (N + 1) // (g - 1) + 1 for the degree bound N and the least
generator degree g.  A letter m adds |m| - 1 >= sum(m_i * (|x_i| - 1))
to a word's degree, so a word of vector v in degree n <= N + 1 has
v_i * (g - 1) <= n, and every exponent is below B.  Every letter of a
word of vector v is <= v in each exponent, and so is the product of two
adjacent letters, whose exponents are the sums of theirs; so adding two
codes never carries a digit past B - 1, and the product letter's code
is the sum of the two codes.  A term of d costs one int addition, and
its sign is a running XOR of the parities of (|m| - 1).

The blocks of one vector v form a chain complex C^*_v, and its
invariants come from one walk up its degrees (BarComplex._walk), which
assembles d_n only on the words that are not pivot rows of d_(n-1).
This keeps the span of the columns of d_n (over Z, their lattice), so
every rank and invariant factor.  Take a pivot of d_(n-1), in row b and
column c, the column as the elimination left it: a combination of
columns of d_(n-1), with integer coefficients over Z, so d_n(c) = 0, and
its entry in row b is a unit.
So d_n(e_b) is a combination of the columns d_n(e_i) for the other rows
i of c.  A unit pivot's column is zero in the pivot rows before it,
peeled or not (linalg.unit_pivots; the proof is in the linalg module
docstring), and every other row of a GF(2) pivot column lies
above its pivot row (linalg._gf2_pivot_rows), so by induction over the
pivots, from the last (or the highest) back, the column of every pivot
row lies in the span of the columns kept.  See Kaczynski, Mrozek and
Slusarek, "Homology computation by reduction of chain complexes" (1998),
and Skoldberg, "Morse theory from an algebraic viewpoint" (2006).

The ring table reduces products on the same blocks.  Since d keeps the
vector and every representative lies in one block of one degree, the
span of the boundary image and the representatives is the direct sum of
its block parts, so a cocycle lies in that span (over Z, in that
lattice) exactly when each of its block parts lies in its block's part,
and its class coordinates are those of its parts.  Each block reached
is factored once on unit pivots (linalg.unit_pivots); a part that its
record cannot certify flags its degree, so the verdict is inconclusive,
never wrong.
"""
from __future__ import annotations

import itertools
from math import comb, prod
from operator import mul

from . import bar
from .hirsch_ops import HirschOpTable, sq1_decomposability_verdict
from .koszul import oracle_dimensions
from .linalg import (DEFAULT_DIMENSION_CAP, ResourceCapError,
                     composition_failures, matrix_invariants, solve_in_span,
                     unit_pivots)
from .polynomial import GeneratorSet


class HomologyError(Exception):
    pass


def _exponent_vector(gens, word):
    return tuple(map(sum, zip(*word))) if word else gens.unit_monomial()


def _vectors(degrees, n):
    """The exponent vectors v with s(v) - |v| <= n, where s(v) is the
    internal degree and |v| the exponent sum: every vector a word of
    degree n can have, since a letter of internal degree d adds d - 1."""
    if not degrees:
        yield ()
        return
    d = degrees[0] - 1
    for e in range(n // d + 1):
        for rest in _vectors(degrees[1:], n - e * d):
            yield (e,) + rest


def _composition_count(v, k):
    """The number of ordered compositions of v into k nonzero parts, by
    inclusion-exclusion over the parts forced to be zero."""
    return sum((-1) ** j * comb(k, j) *
               prod(comb(e + k - j - 1, k - j - 1) for e in v)
               for j in range(k))


def _sub_monomials(gens, rest):
    """The nonzero monomials m <= rest in the letter order of
    bar.bar_basis: by degree, then exponents descending
    lexicographically, as basis_in_degree lists them."""
    return [m for m in sorted(itertools.product(*(range(e, -1, -1)
                                                  for e in rest)),
                              key=gens.monomial_degree) if any(m)]


class _Letters(dict):
    """The bar letters of one bar complex in integer code, as a table
    {rest: [(m, rest - m, exponent sum of rest - m), ...]} listing the
    letters m that can start a word of vector rest, in letter order,
    filled on first use.  parity holds (|m| - 1) mod 2 of every letter
    listed, codes the code of each monomial encode_word has seen, and
    minus_one is -1 reduced for the ring.  Monomial m has the code
    sum(m_i * base**i), and base must exceed every exponent of the
    vectors served (see the module docstring)."""

    def __init__(self, gens, base):
        super().__init__()
        self.gens = gens
        self.base = base
        p = gens.ring.char
        self.minus_one = -1 % p if p else -1
        self.weights = [base ** i for i in range(len(gens.degrees))]
        self.parity = {}
        self.codes = {}

    def encode(self, m):
        return sum(map(mul, m, self.weights))

    def decode(self, code):
        out = []
        for _ in self.weights:
            code, e = divmod(code, self.base)
            out.append(e)
        return tuple(out)

    def encode_word(self, word):
        codes = self.codes
        out = []
        for m in word:
            code = codes.get(m)
            if code is None:
                code = codes[m] = self.encode(m)
            out.append(code)
        return tuple(out)

    def __missing__(self, rest):
        v = self.decode(rest)
        total = sum(v)
        out = []
        for m in _sub_monomials(self.gens, v):
            code = self.encode(m)
            self.parity[code] = self.gens.letter_degrees[m] & 1
            out.append((code, rest - code, total - sum(m)))
        self[rest] = out
        return out


def _block_words(letters, v, k):
    """The words of k letters with total exponent vector v, as tuples of
    letter codes, in the order of bar.bar_basis; letters is the _Letters
    table and v a code."""
    if k < 2:
        return [(v,)] if k else [()]
    out = []

    def build(prefix, rest, k):
        if k == 2:
            # every letter but rest itself leaves a nonzero last letter
            out.extend([prefix + (m, tail)
                        for m, tail, size in letters[rest] if size])
            return
        for m, tail, size in letters[rest]:
            # the k - 1 letters after m are nonzero
            if size >= k - 1:
                build(prefix + (m,), tail, k - 1)

    build((), v, k)
    return out


class _Rows(dict):
    """Row numbers {word: row} that number a word the first time it is
    looked up: the rows of a block whose codomain is not listed."""

    def __missing__(self, word):
        self[word] = row = len(self)
        return row


def _block_matrix(letters, dom_words, rows):
    """Columns of d from one block of degree n to the block of degree n+1
    with the same exponent vector: one per word of dom_words, its rows
    numbered by rows, both coded by the _Letters table letters.  rows is
    {word: row} of the listed codomain, or a _Rows, which numbers each
    merged word the first time it appears and so ends holding the words
    the columns reach, in that order.  The term merging letters i and
    i+1 has the letter code w[i] + w[i+1] and the sign
    (-1)^(|w_0|-1 + ... + |w_i|-1), a running XOR of the table's parity.
    The terms of d[w] are distinct words, so every entry is a sign: 1,
    or the table's minus_one."""
    parity, minus_one = letters.parity, letters.minus_one
    columns = []
    for w in dom_words:
        col = {}
        e = 0
        for i in range(len(w) - 1):
            e ^= parity[w[i]]
            col[rows[w[:i] + (w[i] + w[i + 1],) + w[i + 2:]]] = \
                minus_one if e else 1
        columns.append(col)
    return columns


class BarComplex:
    """Degree-truncated bar complex, worked on one exponent-vector block
    at a time.  Block sizes are counted without listing words; the words
    of a block are enumerated only when its matrix is assembled.

    The orbit lemma.  A permutation sigma of the generators acts on
    exponent tuples, and so letter by letter on words.  It maps the
    words of vector v and k letters one to one onto those of vector
    sigma v and k letters.  Such a word lies in degree s(v) - k, so
    sigma takes degree n of v to degree n + s(sigma v) - s(v) of sigma v.
    sigma commutes with merging two adjacent letters, which adds their
    exponent tuples, so it maps the terms of d(w) onto those of
    d(sigma w).  The term merging letters i and i+1 has the sign
    (-1)^(|w_0|-1 + ... + |w_i|-1), and no permutation changes it: over
    F2 every sign is +1, and elsewhere every generator has even degree
    (GeneratorSet), so every letter has |m| - 1 odd.  So sigma is an
    isomorphism of the length-graded complexes C_v and C_(sigma v): the
    matrix of d from degree n of v has the shape, rank and invariant
    factors of the one from degree n + s(sigma v) - s(v) of sigma v.

    block_invariants eliminates one representative per orbit.  It puts
    the exponents, sorted descending, on the generators taken by
    ascending degree, so the representative r has the least s(r) of its
    orbit.  A member v needs degrees n <= max_degree, with at most |v|
    letters; they are degrees n + s(r) - s(v) <= n of r, with as many
    letters, and r has |r| = |v|.  So the walk up r's own blocks, from
    |r| letters to the bound, serves its whole orbit (_walk).  It lists
    the words of each degree once and assembles d_n without the columns
    at the pivot rows of d_(n-1), which d_n d_(n-1) = 0 puts in the span
    of the others (see the module docstring).  On its last step it lists
    no codomain: the rows are the merged words, numbered as they appear
    (_Rows), as no later step reads them, and the rank and invariant
    factors of a matrix do not depend on the order of its rows or on
    its zero rows.

    The walk, d_squared_failures, boundary_blocks and the ring table
    code their words as int tuples on the complex's one _Letters table,
    whose base exceeds every exponent up to degree max_degree + 1, so a
    merged letter's code is the sum of the two codes; boundary_blocks()
    decodes its words to monomial tuples.
    d_squared_failures checks d^2 = 0 on the same coded blocks, every
    vector's, walking up each block complex.

    Ranks and torsion read only the invariants, which a cache can
    restore without assembling a block; the ring table assembles only
    the blocks it reaches, from their words."""

    def __init__(self, gens: GeneratorSet, max_degree):
        self.gens = gens
        self.max_degree = max_degree
        self._counts = {}
        self._invariants = {}
        self._letters = _Letters(
            gens, (max_degree + 1) // (min(gens.degrees) - 1) + 1)
        # the generators by ascending degree (see the class docstring)
        self._order = sorted(range(len(gens.degrees)),
                             key=gens.degrees.__getitem__)

    def counts(self, n):
        """The number of words of degree n (n >= 0) in each block, by
        exponent vector; a block of vector v has s(v) - n letters.  A
        call for a degree not yet counted lists the vectors once and
        counts every degree up to n, or up to twice the degrees counted
        so far when that is more, but not past max_degree + 1: a caller
        that stops at a low degree, or at the first degree over the cap,
        counts no degree far above it.  The number of compositions
        depends on the exponents only as a multiset, so each (sorted
        exponents, letters) pair is counted once."""
        if n not in self._counts:
            degrees = self.gens.degrees
            top = max(n, min(2 * len(self._counts), self.max_degree + 1))
            by_degree = {m: {} for m in range(top + 1)}
            by_degree[0][self.gens.unit_monomial()] = 1
            compositions = {}
            for v in _vectors(degrees, top):
                s = sum(map(mul, v, degrees))
                exponents = tuple(sorted(v))
                for k in range(max(1, s - top), sum(v) + 1):
                    c = compositions.get((exponents, k))
                    if c is None:
                        c = compositions[exponents, k] = \
                            _composition_count(exponents, k)
                    by_degree[s - k][v] = c
            self._counts = by_degree
        return self._counts[n]

    def _words(self, n, v):
        """The words of degree n with exponent vector v, coded by the
        complex's letter table, in the order of bar.bar_basis; empty
        when there is no such block.  Raises HomologyError above degree
        max_degree + 1, where the table's base no longer bounds the
        exponents."""
        if n > self.max_degree + 1:
            raise HomologyError(
                f"words are coded up to degree {self.max_degree + 1}, "
                f"not {n}")
        if v not in self.counts(n):
            return []
        return _block_words(self._letters, self._letters.encode(v),
                            sum(map(mul, v, self.gens.degrees)) - n)

    def dimension(self, n):
        if n < 0 or n > self.max_degree + 1:
            return 0
        return sum(self.counts(n).values())

    def boundary_vectors(self, n):
        """The exponent vectors with words in both degrees n and n+1, in
        order: one per matrix of boundary_blocks(n).  d is zero on the
        other blocks of C_n."""
        if n < 0 or n > self.max_degree:
            return []
        cod = self.counts(n + 1)
        return [v for v in sorted(self.counts(n)) if v in cod]

    def boundary_blocks(self, n):
        """The matrices of d: C_n -> C_(n+1), one per vector v of
        boundary_vectors(n): each as (the words of degree n + 1 and
        vector v, as monomial tuples, which index its rows, columns),
        one column per word of _words(n, v)."""
        out = []
        decode = self._letters.decode
        for v in self.boundary_vectors(n):
            cod_words = self._words(n + 1, v)
            columns = _block_matrix(self._letters, self._words(n, v),
                                    {w: i for i, w in enumerate(cod_words)})
            out.append(([tuple(map(decode, w)) for w in cod_words], columns))
        return out

    def block_shapes(self, n):
        """(rows, cols) of each matrix of boundary_blocks(n), in the
        same order, without building them."""
        dom, cod = self.counts(n), self.counts(n + 1)
        return [(cod[v], dom[v]) for v in self.boundary_vectors(n)]

    def check_cap(self, n):
        """Raise ResourceCapError when a block of d: C_n -> C_(n+1)
        exceeds the dimension cap, naming the first such block, so that
        a degree is refused as a whole whichever blocks are assembled."""
        for rows, cols in self.block_shapes(n):
            if max(rows, cols) > DEFAULT_DIMENSION_CAP:
                raise ResourceCapError(f"matrix {rows}x{cols} exceeds cap "
                                       f"{DEFAULT_DIMENSION_CAP}")

    def check_caps(self):
        """check_cap for every degree of d up to the bound."""
        for n in range(self.max_degree + 1):
            self.check_cap(n)

    def _representative(self, v):
        out = list(v)
        for i, e in zip(self._order, sorted(v, reverse=True)):
            out[i] = e
        return tuple(out)

    def block_invariants(self, n):
        """(rank, factors) of every matrix of boundary_blocks(n), in the
        same order; the first call computes every degree (_walk)."""
        if n < 0 or n > self.max_degree:
            return []
        if n not in self._invariants:
            self._walk()
        return self._invariants[n]

    def _walk(self):
        """Fill the invariants of every degree up to the bound by one walk
        up the block complex C^*_r of each orbit representative r, after
        checking the cap of every degree; degree n of a member v of the
        orbit reads degree n + s(r) - s(v) of r (see the class
        docstring).  Each degree's words are listed once, as the rows of
        d_(n-1) and the domain of d_n, and d_n is assembled only on the
        words that are not pivot rows of d_(n-1) (see the module
        docstring).  The last step, at the bound or with no words two
        degrees up, lists no codomain: its rows are numbered as the
        merges reach them (_Rows).  The words are int tuples coded by the
        complex's _Letters table, whose base exceeds every exponent of
        the blocks, up to degree max_degree + 1, that the walk lists, so
        merging two letters adds their codes with no carry."""
        top = self.max_degree
        internal = self.gens.monomial_degree
        self.check_caps()
        orbit = {v: self._representative(v) for n in range(top + 1)
                 for v in self.boundary_vectors(n)}
        found = {}
        ring = self.gens.ring
        for r in dict.fromkeys(orbit.values()):
            # the lowest degree of r, with |r| letters
            n = internal(r) - sum(r)
            words = self._words(n, r)
            paired = ()
            while True:
                dom = [w for i, w in enumerate(words) if i not in paired]
                last = n == top or r not in self.counts(n + 2)
                if last:
                    rows = _Rows()
                else:
                    words = self._words(n + 1, r)
                    rows = {w: i for i, w in enumerate(words)}
                rank, factors, paired = matrix_invariants(
                    _block_matrix(self._letters, dom, rows), ring)
                found[n, r] = rank, factors
                if last:
                    break
                n += 1
        for n in range(top + 1):
            self._invariants[n] = [
                found[n + internal(orbit[v]) - internal(v), orbit[v]]
                for v in self.boundary_vectors(n)]

    def d_squared_failures(self):
        """Check d^2 = 0 on every word of degree 1 to the bound, after
        checking the cap of every degree.  Returns the number of words
        checked and the failing words as (degree, word) pairs, each word
        a tuple of monomials, by degree and then in the order of
        bar.bar_basis.

        It walks up the block complex C^*_v of each vector v with words
        in those degrees, on the words coded by the complex's _Letters
        table (the rows of d_(n+1) have the vector v of words in degree
        n, so its base serves them): d_n is assembled (_block_matrix) and
        composed with d_(n+1) (linalg.composition_failures), which is
        kept as d_n of the next degree, so each matrix is assembled once,
        up to d from degree max_degree + 1.  Only the lowest degree's
        words are listed (_block_words).  A word of v in any degree above
        has fewer letters than the exponent sum of v, so one of its
        letters splits in two and it is a merge of a word one degree
        down: the words of each degree above are the rows of d below it,
        numbered as the merges reach them (_Rows), and their number is
        asserted to be the count of the block."""
        top = self.max_degree
        self.check_caps()
        # the lowest degree >= 1 with words of each vector
        low = {}
        for n in range(top, 0, -1):
            low.update(dict.fromkeys(self.counts(n), n))
        letters = self._letters
        p = self.gens.ring.char
        checked = 0
        failures = []
        for v, n in low.items():
            dom = self._words(n, v)
            rows = _Rows()
            d = _block_matrix(letters, dom, rows)
            while dom and n <= top:
                # every word of degree n + 1 merges two letters of one of
                # degree n, so the rows of d are all of them
                cod = list(rows)
                assert len(cod) == self.counts(n + 1).get(v, 0)
                checked += len(dom)
                rows = _Rows()
                d_next = _block_matrix(letters, cod, rows)
                failures.extend((n, tuple(map(letters.decode, dom[j])))
                                for j in composition_failures(d_next, d, p))
                n, dom, d = n + 1, cod, d_next

        def order(failure):
            # bar.bar_basis lists a degree's words by weight, then
            # letterwise by letter degree and exponents descending
            n, word = failure
            return n, len(word), [(self.gens.monomial_degree(m),
                                   [-e for e in m]) for m in word]

        return checked, sorted(failures, key=order)

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


def homology_ranks(cx: BarComplex):
    """Per-degree free rank (and torsion over the integers) of the
    homology of the bar complex cx, up to its degree bound."""
    ranks = []
    torsion = {}
    prev_rank = 0
    for n in range(0, cx.max_degree + 1):
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


def _element_vector(words_index, letters, x):
    v = {}
    for w, c in x.items():
        i = words_index.get(letters.encode_word(w))
        if i is None:
            raise HomologyError(f"word outside enumerated basis: {w!r}")
        v[i] = c
    return v


class RingTable:
    """Products of the canonical exterior classes under a bar product
    induced by an operation table, reduced on the blocks of the bar
    complex cx of the table's generators, up to its degree bound.

    classes: generator subsets (by declared index) with their cocycle
    representatives; pairs: the pairs (S1, S2) of subsets whose degrees
    sum to at most the bound, in sorted order; entries: (S1, S2) -> dict
    with the reduced class coordinates and any flags raised on the way,
    for every pair, in that order.

    An entry is formed, cocycle-checked and reduced the first time it is
    read (entry), and memoised per pair: no entry depends on another, so
    one formed on demand is the one a full table holds, and a caller that
    reads a few entries, as exterior_verdict does up to its witness,
    forms no more.  entries forms those not yet read.
    """

    def __init__(self, table: HirschOpTable, cx: BarComplex):
        if table.gens != cx.gens:
            raise HomologyError("bar complex does not match the algebra")
        self.table = table
        self.gens = table.gens
        self.ring = self.gens.ring
        self.max_degree = cx.max_degree
        self.cx = cx
        self.subsets = _subsets_by_degree(self.gens, self.max_degree)
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
        keys = sorted(self.reps)
        degree = {s: sum(self.gens.degrees[i] - 1 for i in s) for s in keys}
        self.pairs = [(s1, s2) for s1 in keys for s2 in keys
                      if degree[s1] + degree[s2] <= self.max_degree]
        self._entries = {}

    @property
    def entries(self):
        return {pair: self.entry(pair) for pair in self.pairs}

    def entry(self, pair):
        """The entry of the pair (S1, S2): the product of their
        representatives, flagged when it is not a cocycle and otherwise
        reduced (reduce_cocycle); formed on the first read."""
        found = self._entries.get(pair)
        if found is None:
            s1, s2 = pair
            prod = bar.muE_product(self.table, self.reps[s1],
                                   self.reps[s2])
            if bar.bar_differential(self.gens, prod):
                coords, flags = {}, ["product is not a cocycle"]
            else:
                coords, flags = self.reduce_cocycle(prod)
            found = self._entries[pair] = {"coords": coords,
                                           "flags": flags}
        return found

    def _reduction_data(self, n, key):
        """The index of the coded words of the (n, key) block, the
        unit-pivot record of the matrix of d from degree n-1 into it,
        and whether that left a residual (see linalg.unit_pivots); the
        block is factored once, and its index is empty when there is no
        such block."""
        cached = self._solvers.get((n, key))
        if cached is None:
            cx = self.cx
            cx.check_cap(n - 1)
            index = {w: i for i, w in enumerate(cx._words(n, key))}
            columns = _block_matrix(cx._letters, cx._words(n - 1, key),
                                    index)
            pivots, residual = unit_pivots(columns, self.ring.char)
            cached = (index, pivots, bool(residual))
            self._solvers[(n, key)] = cached
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
            found = {}
            for key, part in sorted(parts[n].items()):
                s = self._rep_of.get((n, key))
                c = self._class_coefficient(n, key, part, s)
                if c is None:
                    found = None
                    break
                if s is not None and not ring.is_zero(c):
                    found[s] = c
            if found is None:
                flags.append(f"cocycle not reducible in degree {n}")
                continue
            coords.update(found)
        return coords, flags

    def _class_coefficient(self, n, key, part, s):
        """The coefficient of the class of subset s (None when the block
        holds no representative) in the (n, key) block part of a
        cocycle, modulo the boundaries into that block; None when the
        part does not reduce, as linalg.solve_in_span decides on the
        block's unit-pivot record.  A vector outside the complex has an
        empty index, so _element_vector raises on its words."""
        index, pivots, residual = self._reduction_data(n, key)
        letters = self.cx._letters
        v = _element_vector(index, letters, part)
        rep = None if s is None else _element_vector(index, letters,
                                                     self.reps[s])
        return solve_in_span(pivots, residual, v, rep, self.ring)


# ---------------------------------------------------------------------------
# verdict

def _is_unit(ring, c):
    if ring.is_field:
        return not ring.is_zero(c)
    return c in (1, -1)


def _ring_witness(ring, s1, s2, coords):
    """The witness that the unflagged entry (S1, S2), with class
    coordinates coords, gives against the exterior algebra, or None:
    a square or an overlapping product must vanish, and the product of
    disjoint subsets must be a unit times the class of their union."""
    value = {str(k): repr(c) for k, c in sorted(coords.items())}
    if set(s1) & set(s2):
        if not coords:
            return None
        return {"kind": "square" if s1 == s2 else "overlap",
                "left": s1, "right": s2, "value": value}
    union = tuple(sorted(s1 + s2))
    if sorted(coords) == [union] and _is_unit(ring, coords[union]):
        return None
    return {"kind": "product", "left": s1, "right": s2,
            "expected": union, "value": value}


def exterior_verdict(table: HirschOpTable, cx: BarComplex):
    """Decide whether the bar homology with the induced product is the
    exterior algebra on the desuspended generators, up to the degree
    bound of the bar complex cx of the table's generators.  The ranks
    and the ring table share cx.

    Returns a report with verdict exterior / not_exterior (with the
    first witness found, in a fixed deterministic order) or inconclusive
    when some ring entry was flagged.

    The ring entries are read in the sorted order of their pairs, each
    formed as it is read (RingTable.entry), and the walk stops at the
    first unflagged entry that contradicts the exterior algebra.  No
    entry depends on another, so this is the witness a scan of the full
    table in the same order finds; flags then lists the flags of the
    entries read before it, and a rank or torsion witness, found before
    any entry is formed, lists none.  Only when there is no witness is
    every entry read and graded commutativity checked.  A definite
    verdict is then checked against the paper's theorem
    (_check_theorem).
    """
    report = _verdict(table, cx)
    _check_theorem(table, cx.max_degree, report)
    return report


def _verdict(table, cx):
    gens = cx.gens
    ring = gens.ring
    ranks = homology_ranks(cx)
    oracle = oracle_dimensions(gens, cx.max_degree)
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

    rt = RingTable(table, cx)
    flags = set()
    witness = None
    for pair in rt.pairs:
        entry = rt.entry(pair)
        if entry["flags"]:
            flags.update(entry["flags"])
            continue
        witness = _ring_witness(ring, *pair, entry["coords"])
        if witness is not None:
            break
    report["flags"] = sorted(flags)
    if witness is not None:
        report["verdict"] = "not_exterior"
        report["witness"] = witness
        return report
    # graded commutativity of the table entries
    entries = rt.entries
    for (s1, s2), a in entries.items():
        b = entries.get((s2, s1))
        if b is None or a["flags"] or b["flags"]:
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


def _check_theorem(table, max_degree, report):
    """Raise HomologyError when a definite verdict contradicts the
    theorem of the paper, the converse of Borel's.  Over Z, Q and odd
    F_p the loop cohomology of a polynomial algebra is exterior (no Sq1
    table exists there).  Over F2 it is exterior exactly when Sq1 of
    every generator is decomposable; a generator u whose Sq1 u is not
    has the witness (s^-1 u)^2 = s^-1 Sq1 u != 0 in degree 2|u| - 2,
    which the verdict reaches when that is at most max_degree.  So a
    table with such a generator must give not_exterior, one with none
    that is indecomposable must give exterior, and one whose
    indecomposable Sq1 all lie past the bound is not compared; nor is an
    inconclusive verdict."""
    verdict = report["verdict"]
    if verdict == "inconclusive":
        return
    gens = table.gens
    indecomposable = [] if table.sq1 is None else \
        sq1_decomposability_verdict(gens, table.sq1)[1]
    reached = [(name, image) for name, image in indecomposable
               if 2 * gens.degrees[gens.index(name)] - 2 <= max_degree]
    if reached and verdict != "not_exterior":
        name, image = reached[0]
        raise HomologyError(
            f"the verdict is {verdict}, but Sq1({name}) = {image} is "
            f"indecomposable, so the square of the class of {name} is "
            f"nonzero in degree {2 * gens.degrees[gens.index(name)] - 2}")
    if not indecomposable and verdict != "exterior":
        witness = report["witness"]
        if "left" in witness:
            where = "at " + ", ".join(
                gens.names[i]
                for i in sorted(set(witness["left"] + witness["right"])))
        else:
            where = f"in degree {witness['degree']}"
        raise HomologyError(
            f"the verdict is {verdict}, with a {witness['kind']} witness "
            f"{where}, but Sq1 of every generator is decomposable, so the "
            f"loop cohomology is exterior")
