import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcoh import bar
from loopcoh.config import parse_config
from loopcoh.hirsch_ops import HirschOpTable
from loopcoh.homology import (BarComplex, HomologyError, RingTable,
                              exterior_verdict, homology_ranks)
from loopcoh.koszul import oracle_dimensions
from loopcoh.linalg import (ResourceCapError, rank_over_field,
                            smith_normal_form, solve_in_span, unit_pivots)
from loopcoh.polynomial import GeneratorSet, Polynomial, Sq1Table
from loopcoh.rings import RingSpec
from references import (bar_d_squared_failures, block_words,
                        class_coefficients, echelon_rank,
                        reference_exterior_verdict)
from test_cli import GOLDEN_CONFIGS

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)


def test_ranks_single_even_generator():
    gens = GeneratorSet(("x2",), (2,), Z)
    got = homology_ranks(BarComplex(gens, 8))
    assert got["ranks"] == oracle_dimensions(gens, 8)
    assert got["torsion"] == {}


def test_ranks_f2_pair():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    got = homology_ranks(BarComplex(gens, 8))
    assert got["ranks"] == oracle_dimensions(gens, 8)


def test_ranks_two_degree_two_generators_rational():
    gens = GeneratorSet(("x2", "y2"), (2, 2), Q)
    got = homology_ranks(BarComplex(gens, 6))
    assert got["ranks"] == [1, 2, 1, 0, 0, 0, 0]


def test_bar_complex_dimensions():
    gens = GeneratorSet(("x2",), (2,), Z)
    cx = BarComplex(gens, 6)
    # degree n words: [x2^(a1)|...|x2^(ak)] with sum (2 ai - 1) = n
    assert cx.dimension(0) == 1
    assert cx.dimension(1) == 1
    assert cx.dimension(2) == 1
    assert cx.dimension(3) == 2


def test_a_far_degree_bound_is_refused_without_counting_far_degrees():
    # Q[x2,y2] first exceeds the cap at degree 13, and a bound of 60 is
    # refused there, without counting the degrees up to 61
    cx = BarComplex(GeneratorSet(("x2", "y2"), (2, 2), Q), 60)
    with pytest.raises(ResourceCapError,
                       match="^matrix 22980x6402 exceeds cap 20000$"):
        cx.check_caps()
    assert 61 not in cx._counts


def test_euler_characteristic_is_block_consistent():
    gens = GeneratorSet(("x2", "x4"), (2, 4), Z)
    cx = BarComplex(gens, 6)
    ranks = homology_ranks(BarComplex(gens, 6))["ranks"]
    # alternating sums of dimensions and of homology ranks agree
    chi_dim = sum((-1) ** n * cx.dimension(n) for n in range(7))
    chi_h = sum((-1) ** n * r for n, r in enumerate(ranks))
    boundary_edge = cx.boundary_rank(6)
    assert chi_dim - (-1) ** 6 * 0 == chi_h + (-1) ** 6 * boundary_edge


@pytest.mark.parametrize("ring", [Z, Q, F3])
def test_block_invariants_match_each_block(ring):
    gens = GeneratorSet(("x2", "x4"), (2, 4), ring)
    cx = BarComplex(gens, 6)
    for n in range(7):
        got = cx.block_invariants(n)
        blocks = cx.boundary_blocks(n)
        assert len(got) == len(blocks)
        for (rank, factors), (_, columns) in zip(got, blocks):
            if ring is Z:
                diagonal, want = smith_normal_form(columns)
                assert factors == tuple(d for d in diagonal if d > 1)
            else:
                want = rank_over_field(columns, ring)
                assert factors == ()
            assert rank == want
        assert cx.boundary_rank(n) == sum(r for r, _ in got)


def test_torsion_lists_the_factors_of_every_block():
    # invariants as a cache could hold them: d from degree 2 has two
    # blocks, with invariant factors 2 and 3
    gens = GeneratorSet(("x2", "y2"), (2, 2), Z)
    cx = BarComplex(gens, 4)
    cx._invariants[2] = [(1, (3,)), (2, (2,))]
    assert cx.torsion(3) == [2, 3]
    assert cx.boundary_rank(2) == 3


def test_shuffle_ring_table_is_exterior_integer_pair():
    gens = GeneratorSet(("x2", "x4"), (2, 4), Z)
    table = HirschOpTable(gens)
    verdict = exterior_verdict(table, BarComplex(gens, 8))
    assert verdict["verdict"] == "exterior"
    assert verdict["torsion"] == {}


def test_sq_twisted_square_witness():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    sq1 = Sq1Table(gens, {"u2": Polynomial.generator(gens, "u3")})
    table = HirschOpTable(gens, sq1)
    rt = RingTable(table, BarComplex(gens, 6))
    entry = rt.entries.get(((0,), (0,)))
    # class[u2-bar] squared is class[u3-bar], not zero
    assert entry["coords"] == {(1,): 1}
    assert entry["flags"] == []
    verdict = exterior_verdict(table, BarComplex(gens, 6))
    assert verdict["verdict"] == "not_exterior"
    assert verdict["witness"]["kind"] == "square"


def test_sq_trivial_twist_is_exterior():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    sq1 = Sq1Table(gens, {})
    table = HirschOpTable(gens, sq1)
    verdict = exterior_verdict(table, BarComplex(gens, 8))
    assert verdict["verdict"] == "exterior"
    assert verdict["flags"] == []


def test_sq_decomposable_twist_is_exterior():
    gens = GeneratorSet(("u2", "u5"), (2, 5), F2)
    u2 = Polynomial.generator(gens, "u2")
    sq1 = Sq1Table(gens, {"u5": u2 * u2 * u2})
    table = HirschOpTable(gens, sq1)
    verdict = exterior_verdict(table, BarComplex(gens, 8))
    assert verdict["verdict"] == "exterior"
    assert verdict["flags"] == []


def test_verdict_is_deterministic():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    sq1 = Sq1Table(gens, {"u2": Polynomial.generator(gens, "u3")})
    table = HirschOpTable(gens, sq1)
    a = exterior_verdict(table, BarComplex(gens, 6))
    b = exterior_verdict(table, BarComplex(gens, 6))
    assert a == b


def _unsplit_boundary(gens, n):
    """Columns of the whole-degree matrix of d: C_n -> C_(n+1), one per
    word of degree n, with one row per word of degree n+1, built from
    Polynomial products of adjacent letters."""
    ring = gens.ring
    index = {w: i for i, w in enumerate(bar.bar_basis(gens, n + 1))}
    columns = []
    for w in bar.bar_basis(gens, n):
        col = {}
        e = 0
        for i in range(len(w) - 1):
            e += gens.monomial_degree(w[i]) - 1
            prod = Polynomial.monomial(gens, w[i]) * \
                Polynomial.monomial(gens, w[i + 1])
            for mono, c in prod.terms.items():
                row = index[w[:i] + (mono,) + w[i + 2:]]
                x = ring.add(col.get(row, 0),
                             c if e % 2 == 0 else ring.neg(c))
                if x:
                    col[row] = x
                else:
                    col.pop(row, None)
        columns.append(col)
    return columns


@st.composite
def small_algebras(draw):
    ring = draw(st.sampled_from([Z, Q, F2, F3]))
    # odd degrees need characteristic two
    degrees = [2, 3, 4] if ring == F2 else [2, 4]
    degs = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=3))
    names = tuple(f"g{i}" for i in range(len(degs)))
    return GeneratorSet(names, tuple(sorted(degs)), ring)


@settings(max_examples=40, deadline=None)
@given(small_algebras())
@example(GeneratorSet(("a", "b", "c"), (2, 2, 2), Z))
@example(GeneratorSet(("a", "b", "c"), (2, 2, 2), Q))
@example(GeneratorSet(("a", "b", "c"), (2, 3, 4), F2))
@example(GeneratorSet(("a", "b", "c"), (2, 2, 4), F3))
# a vector a^6 whose exponent is one below the base of the letter codes
@example(GeneratorSet(("a", "b"), (2, 6), Z))
def test_exponent_vector_blocks_match_unsplit_matrix(gens):
    max_degree = 6
    cx = BarComplex(gens, max_degree)
    for n in range(max_degree + 1):
        whole = _unsplit_boundary(gens, n)
        rows = {w: i for i, w in enumerate(bar.bar_basis(gens, n + 1))}
        cols = {w: j for j, w in enumerate(bar.bar_basis(gens, n))}
        # every entry of the whole matrix sits in exactly one block
        seen = [{} for _ in whole]
        for v, (cod_words, columns) in zip(cx.boundary_vectors(n),
                                           cx.boundary_blocks(n)):
            for w, col in zip(block_words(cx, n, v), columns):
                for i, c in col.items():
                    assert rows[cod_words[i]] not in seen[cols[w]]
                    seen[cols[w]][rows[cod_words[i]]] = c
        assert seen == whole
        # slow reference rank: Fraction echelon of the unsplit matrix,
        # read over Q when the ring is Z
        ref_ring = gens.ring if gens.ring.is_field else Q
        assert cx.boundary_rank(n) == echelon_rank(whole, ref_ring)
    got = homology_ranks(cx)
    assert got["ranks"] == oracle_dimensions(gens, max_degree)
    assert got["torsion"] == {}


def _reference_basis_by_block(gens, degree):
    """Bar words of the given degree, grouped by total exponent vector:
    every word from bar_basis, in its order.  This is how BarComplex
    listed its blocks before it counted them and enumerated the words of
    assembled blocks only."""
    blocks = {}
    for w in bar.bar_basis(gens, degree):
        vector = tuple(map(sum, zip(*w))) if w else gens.unit_monomial()
        blocks.setdefault(vector, []).append(w)
    return blocks


def _reference_block_matrix(gens, dom_words, cod_words):
    """Columns of d from dom_words to cod_words, one per domain word,
    from bar_differential."""
    index = {w: i for i, w in enumerate(cod_words)}
    return [{index[out_w]: c for out_w, c in
             bar.bar_differential(gens, {w: gens.ring.one()}).items()}
            for w in dom_words]


def _reference_invariants(columns, ring):
    """(rank, invariant factors > 1) of a copy of the columns."""
    columns = [dict(col) for col in columns]
    if ring.is_field:
        return rank_over_field(columns, ring), ()
    diagonal, rank = smith_normal_form(columns)
    return rank, tuple(d for d in diagonal if d > 1)


def assert_blocks_match_reference(gens, max_degree):
    """Every block of every degree, listed, assembled and eliminated on
    its own, against BarComplex's counts, words, matrices and the
    invariants it copies along each orbit.  The counts are checked up to
    degree max_degree + 2, one past the degrees their first pass counts,
    and the words up to max_degree + 1, the degrees the letter codes
    serve."""
    cx = BarComplex(gens, max_degree)
    blocks = [_reference_basis_by_block(gens, n)
              for n in range(max_degree + 3)]
    for n in range(max_degree + 3):
        assert cx.counts(n) == {v: len(words)
                                for v, words in blocks[n].items()}
    for n in range(max_degree + 2):
        for v, words in blocks[n].items():
            assert block_words(cx, n, v) == words
        assert cx.dimension(n) == sum(map(len, blocks[n].values()))
    for n in range(max_degree + 1):
        vectors = [v for v in sorted(blocks[n]) if v in blocks[n + 1]]
        assert cx.boundary_vectors(n) == vectors
        matrices = [_reference_block_matrix(gens, blocks[n][v],
                                            blocks[n + 1][v])
                    for v in vectors]
        assert cx.block_shapes(n) == [(len(blocks[n + 1][v]),
                                       len(blocks[n][v])) for v in vectors]
        want = [_reference_invariants(m, gens.ring) for m in matrices]
        assert cx.block_invariants(n) == want
        assert cx.boundary_blocks(n) == [(blocks[n + 1][v], m)
                                         for v, m in zip(vectors, matrices)]
        assert cx.torsion(n + 1) == sorted(d for _, fs in want for d in fs)


@st.composite
def algebras_with_repeated_degrees(draw):
    ring = draw(st.sampled_from([Z, Q, F2, F3]))
    # odd degrees need characteristic two; generators of one degree need
    # not be contiguous, and an orbit mixes degrees
    degrees = [2, 3] if ring == F2 else [2, 4]
    degs = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=4))
    names = tuple(f"g{i}" for i in range(len(degs)))
    return GeneratorSet(names, tuple(degs), ring)


@settings(max_examples=30, deadline=None)
@given(algebras_with_repeated_degrees())
@example(GeneratorSet(("a", "b", "c"), (2, 4, 2), Z))
@example(GeneratorSet(("a", "b", "c", "d"), (3, 2, 3, 2), F2))
# letter codes: a vector whose largest exponent is one below the base,
# and generators of mixed degrees
@example(GeneratorSet(("a", "b"), (2, 6), Z))
@example(GeneratorSet(("a", "b", "c"), (2, 2, 4), F3))
def test_orbit_invariants_match_every_block(gens):
    assert_blocks_match_reference(gens, 6)


@pytest.mark.parametrize("gens, max_degree", [
    (GeneratorSet(("x2", "y2"), (2, 2), Q), 9),
    (GeneratorSet(("v2", "w2", "t3", "u3"), (2, 2, 3, 3), F2), 8),
    (GeneratorSet(("a2", "b2", "c2"), (2, 2, 2), Z), 6),
    # orbits that mix generators of different degrees
    (GeneratorSet(("a2", "b6"), (2, 6), Z), 8),
    (GeneratorSet(("a2", "b4"), (2, 4), Z), 9),
    (GeneratorSet(("a2", "b2", "c4"), (2, 2, 4), F3), 7),
    (GeneratorSet(("a2", "b3", "c4"), (2, 3, 4), F2), 8),
    (GeneratorSet(("u2", "u3"), (2, 3), F2), 10),
], ids=["Q[x2,y2]", "F2[v2,w2,t3,u3]", "Z[a2,b2,c2]", "Z[a2,b6]",
        "Z[a2,b4]", "F3[a2,b2,c4]", "F2[a2,b3,c4]", "F2[u2,u3]"])
def test_orbit_invariants_match_every_block_pinned(gens, max_degree):
    assert_blocks_match_reference(gens, max_degree)


def test_words_refuse_degrees_past_the_letter_codes():
    """The letter codes bound the exponents only up to degree
    max_degree + 1; the counts still answer past it."""
    cx = BarComplex(GeneratorSet(("a2", "b6"), (2, 6), Z), 8)
    with pytest.raises(HomologyError):
        cx._words(10, (10, 0))
    assert cx.counts(10)[(10, 0)] == 1


def reference_ring_entries(table, max_degree):
    """The ring table reduced on whole degrees: each homogeneous part of
    a product is solved against every boundary column of its degree,
    from bar_basis and bar_differential, plus every representative of
    that degree.  This is how RingTable reduced before it used the
    exponent-vector blocks of BarComplex."""
    gens = table.gens
    ring = gens.ring

    def deg(s):
        return sum(gens.degrees[i] - 1 for i in s)

    subsets = [s for k in range(1, len(gens.names) + 1)
               for s in itertools.combinations(range(len(gens.names)), k)
               if deg(s) <= max_degree]
    reps = {s: bar.canonical_symmetric_cocycle(gens, s) for s in subsets}
    data = {}

    def degree_data(n):
        if n not in data:
            index = {w: i for i, w in enumerate(bar.bar_basis(gens, n))}
            image = []
            for w in bar.bar_basis(gens, n - 1):
                dw = bar.bar_differential(gens, {w: ring.one()})
                if dw:
                    image.append({index[u]: c for u, c in dw.items()})
            data[n] = (index, image, [s for s in subsets if deg(s) == n])
        return data[n]

    def reduce(x):
        coords, flags = {}, []
        for n in sorted({bar.word_degree(gens, w) for w in x}):
            if n == 0:
                flags.append("degree-0 component")
                continue
            if n > max_degree:
                flags.append(f"component above degree cap ({n})")
                continue
            index, image, rep_subsets = degree_data(n)
            v = {index[w]: c for w, c in x.items()
                 if bar.word_degree(gens, w) == n}
            rep_cols = [{index[w]: c for w, c in reps[s].items()}
                        for s in rep_subsets]
            coeffs = class_coefficients(image, rep_cols, v, ring)
            if coeffs is None:
                flags.append(f"cocycle not reducible in degree {n}")
                continue
            for s, c in zip(rep_subsets, coeffs):
                if not ring.is_zero(c):
                    coords[s] = c
        return coords, flags

    entries = {}
    for s1 in sorted(reps):
        for s2 in sorted(reps):
            if deg(s1) + deg(s2) > max_degree:
                continue
            prod = bar.muE_product(table, reps[s1], reps[s2])
            if bar.bar_differential(gens, prod):
                entries[(s1, s2)] = {"coords": {},
                                     "flags": ["product is not a cocycle"]}
            else:
                coords, flags = reduce(prod)
                entries[(s1, s2)] = {"coords": coords, "flags": flags}
    return entries


def _trivial(ring, *gens):
    names, degrees = zip(*gens)
    return HirschOpTable(GeneratorSet(names, degrees, ring))


def _sq(gens_pairs, rule):
    names, degrees = zip(*gens_pairs)
    gens = GeneratorSet(names, degrees, F2)
    g = {n: Polynomial.generator(gens, n) for n in names}
    images = {}
    for name, factors in rule.items():
        img = Polynomial.one(gens)
        for f in factors:
            img = img * g[f]
        images[name] = img
    return HirschOpTable(gens, Sq1Table(gens, images))


@pytest.mark.parametrize("table, max_degree", [
    (_trivial(Z, ("x2", 2)), 10),
    (_trivial(Z, ("x2", 2), ("x4", 4)), 10),
    (_trivial(Q, ("x2", 2), ("y2", 2)), 10),
    (_trivial(F2, ("u2", 2)), 10),
    (_trivial(F2, ("u2", 2), ("u3", 3)), 10),
    (_sq((("u2", 2), ("u3", 3)), {"u2": ("u3",)}), 10),
    (_trivial(F3, ("x2", 2), ("x4", 4)), 10),
    (_trivial(Z, ("a2", 2), ("b2", 2), ("c4", 4)), 9),
    (_sq((("u2", 2), ("u5", 5)), {"u5": ("u2", "u2", "u2")}), 9),
    # [u3]*[u3] has a part [v2w2] in degree 3 whose exponent vector is
    # that of the degree-2 representative of {v2, w2}
    (_sq((("v2", 2), ("w2", 2), ("t3", 3), ("u3", 3)),
         {"v2": ("t3",), "u3": ("v2", "w2")}), 8),
], ids=["Z[x2]", "Z[x2,x4]", "Q[x2,y2]", "F2[u2]", "F2[u2,u3]",
        "F2[u2,u3] sq1 u2=u3", "F3[x2,x4]", "Z[a2,b2,c4]",
        "F2[u2,u5] sq1 u5=u2^3", "F2[v2,w2,t3,u3] sq1 v2=t3 u3=v2w2"])
def test_block_reduction_matches_whole_degree_reference(table, max_degree):
    assert RingTable(table, BarComplex(table.gens, max_degree)).entries == \
        reference_ring_entries(table, max_degree)


@pytest.mark.parametrize("table, max_degree", [
    (_trivial(Z, ("a2", 2), ("b2", 2), ("c4", 4)), 9),
    (_trivial(Q, ("x2", 2), ("y2", 2)), 10),
    (_sq((("v2", 2), ("w2", 2), ("t3", 3), ("u3", 3)),
         {"v2": ("t3",), "u3": ("v2", "w2")}), 8),
], ids=["Z[a2,b2,c4]", "Q[x2,y2]", "F2[v2,w2,t3,u3] sq1 v2=t3 u3=v2w2"])
def test_ring_table_factors_each_reached_block_once(monkeypatch, table,
                                                    max_degree):
    import loopcoh.homology as homology
    factored = []
    solves = []

    def counted_pivots(*args):
        factored.append(args)
        return unit_pivots(*args)

    def counted_solve(*args):
        solves.append(args)
        return solve_in_span(*args)

    monkeypatch.setattr(homology, "unit_pivots", counted_pivots)
    monkeypatch.setattr(homology, "solve_in_span", counted_solve)
    rt = RingTable(table, BarComplex(table.gens, max_degree))
    assert len(rt.entries) == len(rt.pairs)
    # one factoring per block the solves reached, and more solves
    assert len(factored) == len(rt._solvers) < len(solves)


def test_ring_table_rejects_a_foreign_complex():
    table = HirschOpTable(GeneratorSet(("x2",), (2,), Z))
    other = GeneratorSet(("x2",), (2,), Q)
    with pytest.raises(HomologyError):
        RingTable(table, BarComplex(other, 6))


def test_a_block_that_does_not_reduce_drops_its_whole_degree():
    gens = GeneratorSet(("u2", "u3"), (2, 3), F2)
    rt = RingTable(HirschOpTable(gens), BarComplex(gens, 4))
    u2, u3 = gens.generator_monomial(0), gens.generator_monomial(1)
    # degree 1: the class of {u2}; degree 2: the class of {u3} plus
    # [u2|u2], which is no cocycle and lies in a block with neither a
    # boundary nor a representative
    x = {(u2,): 1, (u3,): 1, (u2, u2): 1}
    assert rt.reduce_cocycle(x) == (
        {(0,): 1}, ["cocycle not reducible in degree 2"])
    assert rt.reduce_cocycle({(u2,): 1, (u3,): 1}) == (
        {(0,): 1, (1,): 1}, [])


def _assert_verdict_matches_reference(table, max_degree):
    """exterior_verdict against the eager reference, which forms every
    entry first: the same verdict, witness, ranks, oracle and torsion,
    and the same flags, except that a not_exterior verdict may list only
    some of them, those raised before its witness."""
    got = exterior_verdict(table, BarComplex(table.gens, max_degree))
    want = reference_exterior_verdict(table,
                                      BarComplex(table.gens, max_degree))
    for key in ("verdict", "witness", "ranks", "oracle", "torsion"):
        assert got[key] == want[key], key
    if got["verdict"] == "not_exterior":
        assert set(got["flags"]) <= set(want["flags"])
    else:
        assert got["flags"] == want["flags"]
    return got, want


# the two tables of criterion 7
CRITERION_7_PAIR = _sq((("u2", 2), ("u3", 3)), {"u2": ("u3",)})
CRITERION_7_FOUR = _sq((("v2", 2), ("w2", 2), ("t3", 3), ("u3", 3)),
                       {"v2": ("t3",), "u3": ("v2", "w2")})


def _golden(name):
    doc = GOLDEN_CONFIGS[name]
    return parse_config(json.dumps(doc)).op_table(), \
        doc["bounds"]["max_degree"]


# w2 before v2: the witness is the overlap ((0, 1), (1,)), the 24th of
# the 190 entries
W2_FIRST = _sq((("w2", 2), ("v2", 2), ("t3", 3), ("u3", 3)),
               {"v2": ("t3",), "u3": ("v2", "w2")})


@pytest.mark.parametrize("table, max_degree", [
    (CRITERION_7_PAIR, 8),
    (CRITERION_7_FOUR, 8),
    (CRITERION_7_FOUR, 5),
    _golden("q-pair"),
    _golden("z-pair"),
    _golden("f2-pair"),
    _golden("f2-four"),
    (W2_FIRST, 8),
    (_trivial(Z, ("x2", 2), ("x4", 4)), 9),
    (_trivial(Z, ("a2", 2), ("b2", 2), ("c4", 4)), 8),
    (_trivial(Q, ("x2", 2), ("y2", 2), ("z4", 4)), 8),
    (_trivial(F3, ("a2", 2), ("b2", 2), ("c4", 4)), 7),
    (_sq((("u2", 2), ("u5", 5)), {"u5": ("u2", "u2", "u2")}), 9),
], ids=["criterion 7 F2[u2,u3]", "criterion 7 F2[v2,w2,t3,u3]",
        "criterion 7 F2[v2,w2,t3,u3] at 5", "golden q-pair",
        "golden z-pair", "golden f2-pair", "golden f2-four",
        "F2[w2,v2,t3,u3]", "Z[x2,x4]", "Z[a2,b2,c4]", "Q[x2,y2,z4]",
        "F3[a2,b2,c4]", "F2[u2,u5] sq1 u5=u2^3"])
def test_verdict_matches_the_eager_reference(table, max_degree):
    _assert_verdict_matches_reference(table, max_degree)


@st.composite
def f2_sq1_tables(draw):
    """An F2 algebra of 2 to 4 generators of degree 2 to 5 with a drawn
    Sq1 table, each image a sum of monomials of degree |u| + 1, and a
    degree bound from 5 to 8."""
    degrees = sorted(draw(st.lists(st.integers(2, 5), min_size=2,
                                   max_size=4)))
    names = tuple(f"{'abcd'[i]}{d}" for i, d in enumerate(degrees))
    gens = GeneratorSet(names, tuple(degrees), F2)
    images = {}
    for name, d in zip(names, degrees):
        monomials = gens.basis_in_degree(d + 1)
        if monomials:
            chosen = draw(st.lists(st.sampled_from(monomials),
                                   unique=True))
            images[name] = sum((Polynomial.monomial(gens, m)
                                for m in chosen), Polynomial.zero(gens))
    return HirschOpTable(gens, Sq1Table(gens, images)), \
        draw(st.integers(5, 8))


@settings(max_examples=40, deadline=None)
@given(f2_sq1_tables())
def test_verdict_matches_the_eager_reference_on_drawn_sq1_tables(drawn):
    _assert_verdict_matches_reference(*drawn)


def _forced_residual(monkeypatch, block):
    """Make the unit-pivot record of the (degree, vector) block read as
    having left a residual, so that a part there that does not vanish
    on the pivots flags its degree."""
    reduction_data = RingTable._reduction_data

    def forced(self, n, key):
        index, pivots, residual = reduction_data(self, n, key)
        return index, pivots, residual or (n, key) == block

    monkeypatch.setattr(RingTable, "_reduction_data", forced)


def test_a_flag_raised_before_the_witness_is_reported(monkeypatch):
    # [w2]*[v2], the second entry, lies in this block, which holds the
    # representative of {w2, v2} and receives no boundary
    _forced_residual(monkeypatch, (2, (1, 1, 0, 0)))
    got, want = _assert_verdict_matches_reference(W2_FIRST, 8)
    assert got["witness"]["left"] == (0, 1)
    assert got["flags"] == want["flags"] == \
        ["cocycle not reducible in degree 2"]


def test_a_flag_raised_after_the_witness_is_not_reported(monkeypatch):
    # only the products of t3 and u3, after the witness, reach this block
    _forced_residual(monkeypatch, (4, (0, 0, 1, 1)))
    got, want = _assert_verdict_matches_reference(W2_FIRST, 8)
    assert got["witness"]["left"] == (0, 1)
    assert got["flags"] == []
    assert want["flags"] == ["cocycle not reducible in degree 4"]


def test_the_verdict_forms_entries_only_up_to_its_witness(monkeypatch):
    formed = []
    entry = RingTable.entry

    def counted(self, pair):
        if pair not in self._entries:
            formed.append(pair)
        return entry(self, pair)

    monkeypatch.setattr(RingTable, "entry", counted)
    rt = RingTable(W2_FIRST, BarComplex(W2_FIRST.gens, 8))
    assert formed == []
    verdict = exterior_verdict(W2_FIRST, BarComplex(W2_FIRST.gens, 8))
    assert verdict["witness"]["kind"] == "overlap"
    assert formed == rt.pairs[:rt.pairs.index(((0, 1), (1,))) + 1]
    formed.clear()
    # the full table holds every pair, in sorted order
    assert list(rt.entries) == sorted(rt.pairs) == rt.pairs
    assert formed == rt.pairs


@pytest.mark.parametrize("max_degree, verdict", [
    (7, "exterior"), (8, "not_exterior")])
def test_an_indecomposable_sq1_decides_from_degree_2u_minus_2(max_degree,
                                                              verdict):
    # the square of the class of u5 lies in degree 8: below it the
    # verdict sees an exterior algebra, which the theorem check allows
    table = _sq((("u5", 5), ("w6", 6)), {"u5": ("w6",)})
    got = exterior_verdict(table, BarComplex(table.gens, max_degree))
    assert got["verdict"] == verdict


def _untwisted_products(monkeypatch):
    # every table multiplies as the shuffle product does
    monkeypatch.setattr(HirschOpTable, "mixed_shapes", lambda self: [])


def _rank_two_off(monkeypatch):
    import loopcoh.homology as homology
    oracle = homology.oracle_dimensions

    def shifted(gens, max_degree):
        out = oracle(gens, max_degree)
        out[2] += 1
        return out

    monkeypatch.setattr(homology, "oracle_dimensions", shifted)


def _first_disjoint_product_lost(monkeypatch):
    entry = RingTable.entry

    def lost(self, pair):
        found = entry(self, pair)
        return {"coords": {}, "flags": []} if pair == ((0,), (1,)) \
            else found

    monkeypatch.setattr(RingTable, "entry", lost)


@pytest.mark.parametrize("table, plant, message", [
    (_sq((("u2", 2), ("u3", 3)), {"u2": ("u3",)}), _untwisted_products,
     r"^the verdict is exterior, but Sq1\(u2\) = u3 is indecomposable, "
     r"so the square of the class of u2 is nonzero in degree 2$"),
    (_trivial(Q, ("x2", 2), ("y2", 2)), _rank_two_off,
     r"^the verdict is not_exterior, with a rank witness in degree 2, "
     r"but Sq1 of every generator is decomposable, so the loop "
     r"cohomology is exterior$"),
    (_trivial(Z, ("x2", 2), ("x4", 4)), _first_disjoint_product_lost,
     r"with a product witness at x2, x4, but"),
    (_sq((("u2", 2), ("u5", 5)), {"u5": ("u2", "u2", "u2")}),
     _first_disjoint_product_lost, r"with a product witness at u2, u5, but"),
], ids=["F2 indecomposable", "Q rank", "Z product", "F2 decomposable"])
def test_a_verdict_against_the_theorem_is_refused(monkeypatch, table, plant,
                                                  message):
    plant(monkeypatch)
    with pytest.raises(HomologyError, match=message):
        exterior_verdict(table, BarComplex(table.gens, 6))


def _job_gens(ring, generators, **extra):
    doc = {"ring": ring,
           "generators": [{"name": n, "degree": d} for n, d in generators]}
    doc.update(extra)
    return parse_config(json.dumps(doc)).gens


D_SQUARED_ALGEBRAS = [
    (_job_gens("Q", [("x2", 2), ("y2", 2)]), 8),
    (_job_gens("Z", [("x2", 2), ("y4", 4)]), 9),
    (_job_gens("F3", [("a2", 2), ("b2", 2), ("c4", 4)]), 7),
    (_job_gens("F2", [("u2", 2), ("u3", 3)], sq1={"u2": "u3"}), 9),
]
D_SQUARED_IDS = ["Q[x2,y2]", "Z[x2,y4]", "F3[a2,b2,c4]",
                 "F2[u2,u3] sq1 u2=u3"]


@pytest.mark.parametrize("gens, max_degree", D_SQUARED_ALGEBRAS,
                         ids=D_SQUARED_IDS)
def test_block_d_squared_matches_the_per_word_check(gens, max_degree):
    checked, failures = BarComplex(gens, max_degree).d_squared_failures()
    assert (checked, failures) == bar_d_squared_failures(gens, max_degree)
    assert failures == []


class _FlippedLetter:
    """The generator set gens with the parity of one letter's degree
    flipped, and its own letter_degrees table: a planted fault that
    bar_differential (through boundary_terms) and the block words
    (through _Letters) both read, and that breaks d^2 = 0 outside
    characteristic 2."""

    def __init__(self, gens, letter):
        self._gens = gens
        self._letter = letter
        self.letter_degrees = self

    def __getitem__(self, m):
        return self._gens.letter_degrees[m] + (m == self._letter)

    def __getattr__(self, name):
        return getattr(self._gens, name)


@pytest.mark.parametrize("gens, max_degree", D_SQUARED_ALGEBRAS[:3],
                         ids=D_SQUARED_IDS[:3])
def test_block_d_squared_finds_the_per_word_failures(gens, max_degree):
    faulty = _FlippedLetter(gens, gens.generator_monomial(0))
    checked, failures = BarComplex(faulty, max_degree).d_squared_failures()
    assert (checked, failures) == bar_d_squared_failures(faulty, max_degree)
    # the failures span several degrees and several blocks of a degree,
    # so their order is tested
    assert len({n for n, _ in failures}) > 1
    assert len({(n, tuple(map(sum, zip(*w)))) for n, w in failures}) > \
        len({n for n, _ in failures})
