"""End-to-end acceptance checks for the loop-space cohomology engine.

Each test covers one numbered acceptance criterion; the terminal summary
hook in conftest.py prints a ``criterion N: PASS``/``FAIL`` scorecard
line per criterion after every run.  Together they exercise homology
ranks against the Koszul oracle, exterior/non-exterior verdicts for
twisted and untwisted products, the resolution differential and its
contraction, the operation relations, the bar-level algebra laws, and
byte-determinism of the command-line cache.
"""

import itertools
import json
import time

from loopcoh import bar, cli, koszul, resolution as res
from loopcoh.hirsch_ops import HirschOpTable, check_derivation_relations
from loopcoh.homology import (BarComplex, RingTable, exterior_verdict,
                              homology_ranks)
from loopcoh.polynomial import GeneratorSet, Polynomial, Sq1Table
from loopcoh.rings import RingSpec
from references import check_associativity_relation

Z = RingSpec.integers()
Q = RingSpec.rationals()
F2 = RingSpec.prime_field(2)

# the five reference coefficient algebras used throughout
RING_FAMILY = [
    (Z, ("x2",), (2,)),
    (Z, ("x2", "x4"), (2, 4)),
    (Q, ("x2", "y2"), (2, 2)),
    (F2, ("u2",), (2,)),
    (F2, ("u2", "u3"), (2, 3)),
]


def _gens(spec):
    ring, names, degs = spec
    return GeneratorSet(names, degs, ring)


def _sq_table_u2u3():
    gens = _gens(RING_FAMILY[4])
    sq1 = Sq1Table(gens, {"u2": Polynomial.generator(gens, "u3")})
    return HirschOpTable(gens, sq1)


def test_criterion_01_ranks_match_oracle_to_degree_ten():
    for spec in RING_FAMILY:
        gens = _gens(spec)
        start = time.monotonic()
        got = homology_ranks(BarComplex(gens, 10))["ranks"]
        elapsed = time.monotonic() - start
        assert got == koszul.oracle_dimensions(gens, 10), gens.names
        assert elapsed <= 60.0, (gens.names, elapsed)


def test_criterion_02_untwisted_product_is_exterior_without_torsion():
    for spec in (RING_FAMILY[0], RING_FAMILY[1], RING_FAMILY[2]):
        gens = _gens(spec)
        verdict = exterior_verdict(HirschOpTable(gens),
                                   BarComplex(gens, 10))
        assert verdict["verdict"] == "exterior", gens.names
        assert verdict["torsion"] == {}, gens.names


def test_criterion_03_indecomposable_twist_gives_nonzero_square():
    table = _sq_table_u2u3()
    rt = RingTable(table, BarComplex(table.gens, 8))
    entry = rt.entries.get(((0,), (0,)))
    # the square of the degree-one class is the degree-two class, not zero
    assert entry["coords"] == {(1,): 1}
    verdict = exterior_verdict(table, BarComplex(table.gens, 8))
    assert verdict["verdict"] == "not_exterior"
    assert verdict["witness"]["kind"] == "square"


def test_criterion_04_trivial_or_decomposable_twist_stays_exterior():
    cases = []
    for spec in (RING_FAMILY[3], RING_FAMILY[4]):
        gens = _gens(spec)
        cases.append(HirschOpTable(gens, Sq1Table(gens, {})))
    gens = GeneratorSet(("u2", "u5"), (2, 5), F2)
    u2 = Polynomial.generator(gens, "u2")
    cases.append(HirschOpTable(
        gens, Sq1Table(gens, {"u5": u2 * u2 * u2})))
    for table in cases:
        verdict = exterior_verdict(table, BarComplex(table.gens, 8))
        assert verdict["verdict"] == "exterior", table.gens.names
        assert verdict["flags"] == [], table.gens.names


def test_criterion_05_resolution_differential_and_hexagon():
    for spec in (RING_FAMILY[1], RING_FAMILY[4]):
        gens = _gens(spec)
        ring = gens.ring
        d = res.Differential(gens)
        basis = res.enumerate_rh_basis(gens, r_min=-3, n_max=12)
        for words in basis.values():
            for word in words:
                dd = d.of_element(d.of_element({word: ring.one()}))
                assert not {w: c for w, c in dd.items()
                            if not ring.is_zero(c)}, \
                    (gens.names, res.word_str(gens, word))
        k = len(gens.names)
        for t in itertools.product(range(k), repeat=3):
            assert res.check_hexagon(res.Differential(gens), *t), \
                (gens.names, t)


def test_criterion_06_contraction_iteration_terminates_within_cap():
    for spec in (RING_FAMILY[1], RING_FAMILY[4]):
        gens = _gens(spec)
        ring = gens.ring
        d = res.Differential(gens)
        basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=10)
        for (r, _n), words in sorted(basis.items()):
            if r not in (-1, -2):
                continue
            for word in words:
                got = res.verify_siteration(d, {word: ring.one()}, 8)
                assert isinstance(got, int) and got <= 8, \
                    (gens.names, r, res.word_str(gens, word), got)


def test_criterion_07_operation_relations():
    # two-generator twisted algebra: every relation holds cleanly
    table = _sq_table_u2u3()
    assert check_derivation_relations(table, 8) == []
    assert check_associativity_relation(table, 1, 1, 1, 8) == []

    # four-generator algebra whose Sq1 nests an indecomposable value
    # inside a decomposable one: the derivation relations still hold,
    # and the (1,1,1) relation fails on exactly two argument triples
    gens = GeneratorSet(("v2", "w2", "t3", "u3"), (2, 2, 3, 3), F2)
    v2, w2, t3, u3 = (Polynomial.generator(gens, n) for n in gens.names)
    sq1 = Sq1Table(gens, {"v2": t3, "u3": v2 * w2})
    table4 = HirschOpTable(gens, sq1)
    assert check_derivation_relations(table4, 8) == []
    violations = check_associativity_relation(table4, 1, 1, 1, 8)
    assert sorted(v[0] for v in violations) == \
        [(("u3",), ("u3",), ("v2",)), (("v2",), ("u3",), ("u3",))]
    for _, lhs, rhs in violations:
        assert lhs != rhs
        assert (lhs + rhs) == w2 * t3


def test_criterion_08_twisted_product_chain_map_boundary():
    table = _sq_table_u2u3()
    for wx, wy in ((1, 1), (1, 2), (2, 1)):
        assert bar.check_chain_map(table, ((wx, wy),), 8) == [], (wx, wy)
    bad = bar.check_chain_map(table, ((2, 2),), 8)
    assert len(bad) == 9
    assert bad[0]["degrees"] == (2, 2)
    # the violation list is deterministic across runs
    assert bad == bar.check_chain_map(table, ((2, 2),), 8)


def _chain_map_ok(table, xw, yw):
    gens = table.gens
    ring = gens.ring
    x = {xw: ring.one()}
    y = {yw: ring.one()}
    lhs = bar.bar_differential(gens, bar.muE_product(table, x, y))
    sign = ring.one() if bar.word_degree(gens, xw) % 2 == 0 \
        else ring.neg(ring.one())
    rhs = ring.add_scaled(
        bar.muE_product(table, bar.bar_differential(gens, x), y),
        bar.muE_product(table, x, bar.bar_differential(gens, y)), sign)
    return lhs == rhs


def _assoc_ok(table, xw, yw, zw):
    ring = table.gens.ring
    x, y, z = ({w: ring.one()} for w in (xw, yw, zw))
    lhs = bar.muE_product(table, bar.muE_product(table, x, y), z)
    rhs = bar.muE_product(table, x, bar.muE_product(table, y, z))
    return lhs == rhs


def _comm_ok(table, xw, yw):
    gens = table.gens
    ring = gens.ring
    x = {xw: ring.one()}
    y = {yw: ring.one()}
    xy = bar.muE_product(table, x, y)
    yx = bar.muE_product(table, y, x)
    nx = bar.word_degree(gens, xw)
    ny = bar.word_degree(gens, yw)
    sign = ring.one() if (nx * ny) % 2 == 0 else ring.neg(ring.one())
    return xy == ring.add_scaled({}, yx, sign)


def _words_to(gens, cap):
    return [w for n in range(1, cap + 1) for w in bar.bar_basis(gens, n)]


def _even_compositions(cap):
    """Compositions of every even total <= cap into even parts >= 2."""
    by_sum = {0: [()]}
    for s in range(2, cap + 1, 2):
        out = []
        for first in range(2, s + 1, 2):
            for rest in by_sum[s - first]:
                out.append((first,) + rest)
        by_sum[s] = out
    return [c for cs in by_sum.values() for c in cs]


def _generic_shape_triples(cap):
    """Triples of letter-degree shapes with combined total degree <= cap.

    Verifying an identity of the shuffle algebra on words made of
    pairwise-distinct generators of the given degrees proves it for
    every word triple with those letter degrees: letters enter the
    shuffle and the bar differential only through their degree and
    through algebra multiplication, both preserved by substituting an
    arbitrary monomial for each generator.
    """
    comps = _even_compositions(cap)
    for cx, cy, cz in itertools.product(comps, repeat=3):
        if sum(cx) + sum(cy) + sum(cz) > cap:
            continue
        if not (cx and cy and cz):
            continue
        degs = cx + cy + cz
        names = tuple("g%d" % i for i in range(len(degs)))
        gens = GeneratorSet(names, degs, Q)
        letters = [tuple(1 if j == i else 0 for j in range(len(degs)))
                   for i in range(len(degs))]
        xw = tuple(letters[:len(cx)])
        yw = tuple(letters[len(cx):len(cx) + len(cy)])
        zw = tuple(letters[len(cx) + len(cy):])
        yield gens, xw, yw, zw


def test_criterion_09_bar_level_algebra_laws():
    # the differential squares to zero through degree twelve everywhere
    for spec in RING_FAMILY:
        gens = _gens(spec)
        ring = gens.ring
        for n in range(1, 13):
            for w in bar.bar_basis(gens, n):
                dd = bar.bar_differential(
                    gens, bar.bar_differential(gens, {w: ring.one()}))
                assert not dd, (gens.names, w)

    # graded commutativity of the shuffle product through degree ten
    for spec in RING_FAMILY:
        gens = _gens(spec)
        table = HirschOpTable(gens)
        words = _words_to(gens, 9)
        degs = {w: bar.word_degree(gens, w) for w in words}
        # for each degree room left, the words that fit it, in order: the
        # pairs of degree <= 10, in the order of the product of words
        fits = {room: [w for w in words if degs[w] <= room]
                for room in {10 - d for d in degs.values()}}
        for xw in words:
            for yw in fits[10 - degs[xw]]:
                assert _comm_ok(table, xw, yw), (gens.names, xw, yw)

    # chain map and associativity: exhaustive through degree ten for
    # the one-generator and mixed-degree algebras; for the rational
    # two-generator algebra exhaustive through degree eight, with the
    # remaining degree-<=10 letter shapes certified on distinct
    # generic letters (see _generic_shape_triples)
    for spec, cap in ((RING_FAMILY[0], 10), (RING_FAMILY[1], 10),
                      (RING_FAMILY[3], 10), (RING_FAMILY[4], 10),
                      (RING_FAMILY[2], 8)):
        gens = _gens(spec)
        table = HirschOpTable(gens)
        words = _words_to(gens, cap - 1)
        degs = {w: bar.word_degree(gens, w) for w in words}
        for xw, yw in itertools.product(words, repeat=2):
            if degs[xw] + degs[yw] > cap:
                continue
            assert _chain_map_ok(table, xw, yw), (gens.names, xw, yw)
        for xw, yw in itertools.product(words, repeat=2):
            nxy = degs[xw] + degs[yw]
            if nxy + 1 > cap:
                continue
            for zw in words:
                if nxy + degs[zw] > cap:
                    continue
                assert _assoc_ok(table, xw, yw, zw), (gens.names, xw, yw, zw)

    for gens, xw, yw, zw in _generic_shape_triples(10):
        table = HirschOpTable(gens)
        assert _chain_map_ok(table, xw, yw), (xw, yw)
        assert _assoc_ok(table, xw, yw, zw), (xw, yw, zw)


def test_criterion_10_cli_reports_are_byte_identical_warm_or_cold():
    import pathlib
    import tempfile
    tmp_path = pathlib.Path(tempfile.mkdtemp(prefix="loopcoh-accept-"))
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "ring": "F2",
        "generators": [{"name": "u2", "degree": 2},
                       {"name": "u3", "degree": 3}],
        "sq1": {"u2": "u3"},
        "bounds": {"max_degree": 8},
    }))
    cache = tmp_path / "cache"
    outputs = []
    for name in ("cold.json", "warm.json"):
        out = tmp_path / name
        code = cli.main(["check-exterior", "--config", str(cfg),
                         "--json", str(out), "--cache-dir", str(cache)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # and a cache-less run agrees with the cached ones
    bare = tmp_path / "bare.json"
    assert cli.main(["check-exterior", "--config", str(cfg),
                     "--json", str(bare)]) == 0
    assert bare.read_bytes() == outputs[0]
