import itertools

import pytest

from loopcoh import resolution as res
from loopcoh.polynomial import GeneratorSet
from loopcoh.rings import RingSpec
from references import rho

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)


def zgens():
    return GeneratorSet(("x2", "x4"), (2, 4), Z)


def f2gens():
    return GeneratorSet(("u2", "u3"), (2, 3), F2)


def test_letter_bidegrees():
    gens = zgens()
    v = res.v_letter(0)
    assert res.letter_bidegree(gens, v) == (0, 2)
    e = res.e_letter(((v,),), ((v,),))
    # E_{1,1} drops resolution degree by one
    assert res.letter_bidegree(gens, e) == (-1, 4)
    c = res.cup_letter((0, 0))
    assert res.letter_bidegree(gens, c) == (-2, 4)
    c3 = res.cup_letter((0, 0, 0))
    assert res.letter_bidegree(gens, c3) == (-4, 6)


def test_make_E_word_identity_collapses():
    gens = zgens()
    v = res.v_letter(0)
    # E_{1,0} = Id: single left argument, no right arguments
    assert res.make_E_word(((v,),), ()) == (v,)
    # E_{p>1,0} = 0
    assert res.make_E_word(((v,), (v,)), ()) is None


def test_differential_squares_to_zero_truncated():
    for gens, cap in ((zgens(), 10), (f2gens(), 9)):
        ring = gens.ring
        d = res.Differential(gens)
        basis = res.enumerate_rh_basis(gens, r_min=-3, n_max=cap)
        for words in basis.values():
            for word in words:
                dd = d.of_element(d.of_element({word: ring.one()}))
                assert not {w: c for w, c in dd.items()
                            if not ring.is_zero(c)}, \
                    res.word_str(gens, word)


def test_rho_vanishes_on_differentials():
    gens = zgens()
    ring = gens.ring
    d = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=8)
    for words in basis.values():
        for word in words:
            img = rho(gens, d.of_element({word: ring.one()}))
            assert img.is_zero()


def test_hexagon_all_triples():
    for gens in (zgens(), f2gens()):
        for t in itertools.product(range(2), repeat=3):
            assert res.check_hexagon(gens, *t), (gens.names, t)


def test_normalize_is_idempotent():
    gens = f2gens()
    ring = gens.ring
    d = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=8)
    for words in basis.values():
        for word in words:
            el = res.normalize_element(d.of_element({word: ring.one()}),
                                       ring)
            assert res.normalize_element(el, ring) == el


def test_contraction_single_cases():
    d = res.Differential(f2gens())
    u2, u3 = res.v_letter(0), res.v_letter(1)
    # ascending pair of degree-0 letters: cup-one insertion
    got = res.contraction_s(d, (u2, u3))
    e = res.e_letter(((u2,),), ((u3,),))
    assert got == {(e,): 1}
    # descending pair: no case applies
    assert res.contraction_s(d, (u3, u2)) == {}
    # iteration with a descent becomes a cup-two cluster
    eop = res.e_letter(((u2,),), ((u2,),))
    got = res.contraction_s(d, (eop,))
    assert got == {(res.cup_letter((0, 0)),): 1}


def test_contraction_inverts_one_summand_of_d():
    gens = zgens()
    ring = gens.ring
    d = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=8)
    for words in basis.values():
        for word in words:
            sx = res.contraction_s(d, word)
            if not sx:
                continue
            (out_word, coeff), = sx.items()
            image = res.normalize_element(
                d.of_element({out_word: coeff}), ring)
            assert image.get(word) == ring.one()


def test_siteration_terminates_low_degrees():
    for gens, cap in ((zgens(), 8), (f2gens(), 8)):
        ring = gens.ring
        d = res.Differential(gens)
        basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=cap)
        for (r, _n), words in sorted(basis.items()):
            if r == 0:
                continue
            for word in words:
                got = res.verify_siteration(d, {word: ring.one()}, 8)
                assert isinstance(got, int), res.word_str(gens, word)


def test_contraction_never_matches_two_cases():
    # contraction_s raises if the three cases overlap; sweeping the
    # truncated basis proves they are mutually exclusive there
    gens = f2gens()
    d = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min=-3, n_max=9)
    for words in basis.values():
        for word in words:
            res.contraction_s(d, word)


# -- letter enumeration against the product-then-filter reference ---------

def reference_rh_letters(gens, r_min=-3, n_max=12):
    """The letter enumeration as it was before degree-budget pruning:
    every argument tuple is built, then filtered by internal degree."""
    if r_min > 0:
        raise res.ResolutionError("r_min must be <= 0")
    letters = {0: [res.v_letter(i) for i in range(len(gens.names))
                   if gens.degrees[i] <= n_max]}

    def words_with(res_target, internal_cap):
        pool = []
        for r in range(0, res_target - 1, -1):
            for l in letters.get(r, []):
                pool.append((r, res.letter_bidegree(gens, l)[1], l))
        out = []

        def build(prefix, res_left, cap_left):
            if prefix and res_left == 0:
                out.append(tuple(prefix))
            for r, n, l in pool:
                if res_left - r < 0 or n > cap_left:
                    continue
                prefix.append(l)
                build(prefix, res_left - r, cap_left - n)
                prefix.pop()

        build([], res_target, internal_cap)
        return out

    for target in range(-1, r_min - 1, -1):
        found = []
        if target % 2 == 0:
            size = -target // 2 + 1
            for combo in itertools.combinations_with_replacement(
                    range(len(gens.names)), size):
                if sum(gens.degrees[i] for i in combo) <= n_max:
                    found.append(res.cup_letter(combo))
        max_arity = -target + 1
        for p in range(1, max_arity):
            for q in range(1, max_arity - p + 1):
                args_res_total = target + (p + q - 1)
                if args_res_total > 0:
                    continue
                for dist in res._compositions(-args_res_total, p + q):
                    arg_lists = []
                    dead = False
                    for r in dist:
                        ws = words_with(-r, n_max)
                        if not ws:
                            dead = True
                            break
                        arg_lists.append(ws)
                    if dead:
                        continue
                    for combo in itertools.product(*arg_lists):
                        internal = sum(res.word_bidegree(gens, w)[1]
                                       for w in combo)
                        if internal > n_max:
                            continue
                        letter = res.e_letter(combo[:p], combo[p:])
                        if res._is_nonnormal(letter):
                            continue
                        found.append(letter)
        letters[target] = found
    return letters


Q = RingSpec.rationals()
ENUMERATION_ALGEBRAS = {
    "Z[x2,x4]": GeneratorSet(("x2", "x4"), (2, 4), Z),
    "F2[u2,u3]": GeneratorSet(("u2", "u3"), (2, 3), F2),
    "Q[x2,y2]": GeneratorSet(("x2", "y2"), (2, 2), Q),
    "F2[v2,w2,t3,u3]": GeneratorSet(("v2", "w2", "t3", "u3"),
                                    (2, 2, 3, 3), F2),
}


# F2[v2,w2,t3,u3] at (-3, 9) would make the reference build 2.3e9
# argument tuples; resolution degree -3 is checked there at (-3, 6)
@pytest.mark.parametrize("name, r_min, n_max", [
    (name, r_min, n_max)
    for name in ENUMERATION_ALGEBRAS
    for r_min, n_max in ((-2, 8), (-3, 9))
    if (name, r_min, n_max) != ("F2[v2,w2,t3,u3]", -3, 9)
] + [("F2[v2,w2,t3,u3]", -3, 6)])
def test_letters_match_product_then_filter_reference(name, r_min, n_max):
    gens = ENUMERATION_ALGEBRAS[name]
    degrees = {}
    got = res.enumerate_rh_letters(gens, r_min, n_max, degrees=degrees)
    assert got == reference_rh_letters(gens, r_min, n_max)
    # the recorded internal degrees are those of letter_bidegree
    assert degrees == {l: res.letter_bidegree(gens, l)[1]
                       for ls in got.values() for l in ls}


def test_letter_counts_pinned():
    got = res.enumerate_rh_letters(f2gens(), r_min=-3, n_max=9)
    assert {r: len(ls) for r, ls in got.items()} == \
        {0: 2, -1: 35, -2: 82, -3: 83}
