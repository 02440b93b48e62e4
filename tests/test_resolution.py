import io
import itertools
import json

import pytest

from loopcoh import resolution as res
from loopcoh.cli import cmd_verify
from loopcoh.config import parse_config
from loopcoh.polynomial import GeneratorSet
from loopcoh.rings import RingError, RingSpec
from references import (reference_case1, reference_case2, reference_case3,
                        reference_normalize_element, reference_rewrite_letter,
                        reference_rh_basis, reference_rh_letters, rho)

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)


def zgens():
    return GeneratorSet(("x2", "x4"), (2, 4), Z)


def f2gens():
    return GeneratorSet(("u2", "u3"), (2, 3), F2)


def qgens():
    return GeneratorSet(("x2", "y2"), (2, 2), RingSpec.rationals())


def f3gens():
    return GeneratorSet(("a2", "b2", "c4"), (2, 2, 4),
                        RingSpec.prime_field(3))


def f2gens_abc():
    return GeneratorSet(("a2", "b2", "c3"), (2, 2, 3), F2)


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
            assert res.check_hexagon(res.Differential(gens), *t), \
                (gens.names, t)


def test_normalize_is_idempotent():
    gens = f2gens()
    ring = gens.ring
    d = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min=-2, n_max=8)
    for words in basis.values():
        for word in words:
            el = res.normalize_element(d.of_element({word: ring.one()}),
                                       gens)
            assert res.normalize_element(el, gens) == el


def test_contraction_single_cases():
    gens = f2gens()
    d = res.Differential(gens)
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
    # the first multi-letter string splits: in the leading left slot, in
    # the leading right slot of an E_{1,q}, and inside a nested letter
    split = res.e_letter(((u2,),), ((u3, u2),))
    for word, want in (
            ((res.e_letter(((u2, u3),), ((u2,),)),), "E21(u2,u3;u2)"),
            ((split,), "E12(u2;u3,u2)"),
            ((res.e_letter(((u3,),), ((split,),)),),
             "E11(u3;E12(u2;u3,u2))")):
        got = res.contraction_s(d, word)
        assert {res.word_str(gens, w): c for w, c in got.items()} == \
            {want: 1}
    # no split in a later right slot or a later left slot, nor after a
    # letter outside W
    outside = res.e_letter(((u2,),), ((u3,), (u2,)))
    assert res.word_str(gens, (outside,)) == "E12(u2;u3,u2)"
    for word in ((res.e_letter(((u2,),), ((u3,), (u2, u3))),),
                 (res.e_letter(((u2,), (u3, u2)), ((u3,),)),),
                 (outside, res.e_letter(((u2, u3),), ((u2,),)))):
        assert res.contraction_s(d, word) == {}, res.word_str(gens, word)


def test_contraction_inverts_one_summand_of_d():
    """w occurs with coefficient one in N(d(s(w))); away from F2 the
    contraction scales s(w) to make it so, over F2 nothing checks it
    but this test."""
    for gens, r_min, n_max in ((zgens(), -2, 8), (f2gens(), -4, 9),
                               (f2gens_abc(), -4, 9)):
        ring = gens.ring
        d = res.Differential(gens)
        basis = res.enumerate_rh_basis(gens, r_min=r_min, n_max=n_max)
        hits = 0
        for words in basis.values():
            for word in words:
                sx = res.contraction_s(d, word)
                if not sx:
                    continue
                (out_word, coeff), = sx.items()
                image = res.normalize_element(
                    d.of_element({out_word: coeff}), gens)
                assert image.get(word) == ring.one(), \
                    (gens.names, res.word_str(gens, word))
                hits += 1
        assert hits, gens.names


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


# -- the Differential's memos --------------------------------------------

@pytest.mark.parametrize("make_gens, r_min, n_max",
                         [(f2gens, -3, 9), (zgens, -3, 10), (qgens, -3, 8),
                          (f3gens, -3, 8)],
                         ids=["F2[u2,u3]", "Z[x2,x4]", "Q[x2,y2]",
                              "F3[a2,b2,c4]"])
def test_a_shared_differential_matches_a_fresh_one_per_word(
        make_gens, r_min, n_max):
    """One Differential serves every word of the basis, its memos filled
    by the words before; a fresh one per word starts from nothing.  The
    values, d^2 and the contractions agree, in key order too, and so
    does the hexagon check on every generator triple once the memos
    are full."""
    gens = make_gens()
    ring = gens.ring
    shared = res.Differential(gens)
    basis = res.enumerate_rh_basis(gens, r_min, n_max)
    for words in basis.values():
        for word in words:
            x = {word: ring.one()}
            fresh = res.Differential(gens)
            dx = shared.of_element(x)
            assert list(dx.items()) == list(fresh.of_element(x).items())
            assert list(shared.of_element(dx).items()) == \
                list(fresh.of_element(fresh.of_element(x)).items())
            assert _outcome(res.contraction_s, shared, word) == \
                _outcome(res.contraction_s, res.Differential(gens), word)
    for t in itertools.product(range(len(gens.names)), repeat=3):
        assert res.check_hexagon(shared, *t) == \
            res.check_hexagon(res.Differential(gens), *t), t


def _outcome(fn, *args):
    """fn(*args) as a list of items, or the error it raises (over Z,
    some words of resolution degree -3 need a shape the normal form
    leaves unsigned)."""
    try:
        return list(fn(*args).items())
    except (res.ResolutionError, RingError) as exc:
        return repr(exc)


def test_changing_a_returned_element_changes_no_later_result():
    gens = f2gens()
    d = res.Differential(gens)
    u2, u3 = res.v_letter(0), res.v_letter(1)
    x = {(res.e_letter(((u2,),), ((u3, u2),)),): 1}
    first = d.of_element(x)
    want = dict(first)
    assert want
    first.clear()
    first[(u3,)] = 1
    assert d.of_element(x) == want


def test_overlapping_contraction_cases_raise_on_every_call(monkeypatch):
    d = res.Differential(f2gens())
    word = (res.v_letter(0), res.v_letter(1))
    # the cup-two case now matches wherever the pair case does
    monkeypatch.setattr(res, "_case2", res._case1)
    for _ in range(2):
        with pytest.raises(res.ResolutionError, match="both match"):
            res.contraction_s(d, word)


# -- the contraction's cases against the one-predicate-per-shape reference --

# five algebras, each with the resolution degree and internal degree
# its basis is enumerated to
FIVE_INPUTS = pytest.mark.parametrize(
    "make_gens, r_min, n_max",
    [(f2gens, -6, 10), (f2gens_abc, -5, 9), (qgens, -4, 9),
     (zgens, -4, 10), (f3gens, -4, 8)],
    ids=["F2[u2,u3]", "F2[a2,b2,c3]", "Q[x2,y2]", "Z[x2,x4]",
         "F3[a2,b2,c4]"])


@FIVE_INPUTS
def test_contraction_cases_match_the_reference(make_gens, r_min, n_max,
                                               monkeypatch):
    """Each case gives the reference's word, None included, on every
    basis word and every word of d of a basis word; the d-image words
    hold shapes the basis lacks, such as an E letter as the left
    argument of a cup-one letter, or an argument string with an E letter
    after its first.  contraction_s then gives the reference's values,
    or raises the same error."""
    gens = make_gens()
    d = res.Differential(gens)
    words = {}
    for basis_words in res.enumerate_rh_basis(gens, r_min, n_max).values():
        for word in basis_words:
            words[word] = None
            words.update(dict.fromkeys(d.of_word(word)))
    cases = (("_case1", reference_case1), ("_case2", reference_case2),
             ("_case3", reference_case3))
    for word in words:
        for name, reference in cases:
            assert getattr(res, name)(word) == reference(word), \
                (name, res.word_str(gens, word))
    got = [_outcome(res.contraction_s, d, word) for word in words]
    for name, reference in cases:
        monkeypatch.setattr(res, name, reference)
    fresh = res.Differential(gens)
    assert got == [_outcome(res.contraction_s, fresh, word) for word in words]


# -- the normal form against the position-path reference ------------------

def _nonnormal_letters(word, found):
    """Add to found every non-normal letter of word, at any depth."""
    for letter in word:
        if letter[0] == "E":
            if res._is_nonnormal(letter):
                found[letter] = None
            for arg in letter[3]:
                _nonnormal_letters(arg, found)


@FIVE_INPUTS
def test_normal_form_matches_the_reference(make_gens, r_min, n_max,
                                           monkeypatch):
    """normalize_element gives the reference's element, or raises the
    same error, on d of every basis word; over Z some words need a
    shape the signed law does not cover.  rewrite_letter gives the
    reference's rewrite, or its error, on every non-normal letter in
    those images and on every letter the normal form rewrites on the
    way."""
    gens = make_gens()
    d = res.Differential(gens)
    rewritten = {}
    rewrite = res.rewrite_letter

    def recording(letter, gens):
        rewritten[letter] = None
        return rewrite(letter, gens)

    monkeypatch.setattr(res, "rewrite_letter", recording)
    images = [d.of_word(word)
              for basis_words in res.enumerate_rh_basis(
                  gens, r_min, n_max).values()
              for word in basis_words]
    for x in images:
        assert _outcome(res.normalize_element, x, gens) == \
            _outcome(reference_normalize_element, x, gens)
    letters = dict(rewritten)
    for x in images:
        for word in x:
            _nonnormal_letters(word, letters)
    assert letters
    for letter in letters:
        assert _outcome(rewrite, letter, gens) == \
            _outcome(reference_rewrite_letter, letter, gens), \
            res.letter_str(gens, letter)


# -- letter enumeration against the product-then-filter reference ---------

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


# -- the basis against the full-pool build --------------------------------

BASIS_ALGEBRAS = ("F2[u2,u3]", "Z[x2,x4]", "Q[x2,y2]")


@pytest.mark.parametrize("name", BASIS_ALGEBRAS)
@pytest.mark.parametrize("r_min, n_max",
                         [(-2, 8), (-3, 9), (-3, 10), (-6, 9)])
def test_basis_matches_the_full_pool_build(name, r_min, n_max):
    gens = ENUMERATION_ALGEBRAS[name]
    letters = res.enumerate_rh_letters(gens, r_min, n_max)
    got = res.enumerate_rh_basis(gens, r_min, n_max)
    want = reference_rh_basis(gens, letters, r_min, n_max)
    assert list(got.items()) == list(want.items())


# below the clamp at -2 the reference lists every letter it can, and
# finds none
@pytest.mark.parametrize("name", BASIS_ALGEBRAS)
@pytest.mark.parametrize("r_min, n_max", [(-4, 4), (-4, 5)])
def test_clamped_basis_matches_the_unclamped_reference(name, r_min, n_max):
    gens = ENUMERATION_ALGEBRAS[name]
    letters = reference_rh_letters(gens, r_min, n_max)
    assert min(r for r, ls in letters.items() if ls) > r_min
    got = res.enumerate_rh_basis(gens, r_min, n_max)
    want = reference_rh_basis(gens, letters, r_min, n_max)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", BASIS_ALGEBRAS)
def test_no_word_lies_below_the_internal_degree_bound(name):
    """At r_min equal to the clamp nothing is cut, and every word of
    resolution degree r has internal degree >= g * (ceil(|r|/2) + 1);
    the deepest words reach the clamp."""
    gens = ENUMERATION_ALGEBRAS[name]
    g = min(gens.degrees)
    n_max = 8
    r_min = -2 * (n_max // g - 1)
    basis = res.enumerate_rh_basis(gens, r_min, n_max)
    assert all(n >= g * (-(r // 2) + 1) for r, n in basis)
    assert min(r for r, _ in basis) == r_min


# -- the one basis a verify job slices ------------------------------------

@pytest.mark.parametrize("make_gens", [f2gens, zgens, qgens, f3gens],
                         ids=["F2[u2,u3]", "Z[x2,x4]", "Q[x2,y2]",
                              "F3[a2,b2,c4]"])
@pytest.mark.parametrize("bound", [0, -1, -3, -6])
def test_one_basis_slices_into_the_bases_of_each_suite(make_gens, bound):
    """verify enumerates once, at min(bound, -2) and internal degree 10:
    its keys with r >= bound are the d^2 suite's basis, and its keys
    with -2 <= r and n <= 8 the contraction suite's, in key order and
    word order.  verify at degree 10 checks exactly those words."""
    gens = make_gens()
    merged = res.enumerate_rh_basis(gens, min(bound, -2), 10)
    d_squared = res.enumerate_rh_basis(gens, bound, 10)
    contraction = res.enumerate_rh_basis(gens, -2, 8)
    assert [(k, ws) for k, ws in merged.items() if k[0] >= bound] == \
        list(d_squared.items())
    assert [(k, ws) for k, ws in merged.items()
            if k[0] >= -2 and k[1] <= 8] == list(contraction.items())
    cfg = parse_config(json.dumps({
        "ring": gens.ring.describe(),
        "generators": [{"name": name, "degree": deg}
                       for name, deg in zip(gens.names, gens.degrees)],
        "bounds": {"max_degree": 10, "max_resolution_degree": bound}}))
    report, _ = cmd_verify(cfg, 10, io.StringIO())
    checked = {s["name"]: s["checked"] for s in report["suites"]}
    assert checked["resolution_d_squared"] == \
        sum(map(len, d_squared.values()))
    assert checked["contraction_iteration"] == \
        sum(len(ws) for (r, _), ws in contraction.items() if r != 0)
