"""Free multiplicative resolution of a polynomial algebra by a tensor
algebra T(V) with E-operation and cup-two generators.

Letters (generators of V) are hashable tuples:
  ("v", i)                  degree-0 polynomial generator i
  ("E", p, q, args)         operation letter; args is a tuple of p+q
                            nonempty words, the first p on the left
  ("C", (i1 <= i2 <= ...))  cup-two cluster of >= 2 degree-0 letters

A word is a tuple of letters; an element is a dict word -> coefficient.
Resolution degree is <= 0, internal degree matches H, and total degree
(their sum) drives all Koszul signs.

Contraction.  W is the set of degree-0 letters, cup clusters, and
right-nested cup-one iterations E_{1,1}(a_1; E_{1,1}(a_2; ... a_n)) of
one-letter arguments whose entries are degree-0 letters or clusters;
_iteration reads such a letter's entries once.  An E^o letter is an
iteration of strictly ascending degree-0 entries, which _case1 tests on
those entries.  An E^op letter is an iteration whose entries ascend in
degree 0 up to a descending pair; _eop_position finds the pair on the
entries, and _tilde merges it into a cluster.  The split promotes the
leading letter of the first multi-letter argument string in a nest to
a slot of its own; _prime finds and builds it in one pass.  Each case
returns the word it rewrites to, or None.

Normal form.  A letter E_{1,r}(E_{k,l}(a; b); c) is not normal, and the
block-composition relation rewrites it.  _rewrite_first tests each
letter of a word before the letter's arguments, and rewrites the first
it finds in the same pass.  Over F2, rewrite_letter sums the relation's
two sides, with the letter's own term cancelled; away from F2 it uses
the signed law of the cup-one composite.
"""
from __future__ import annotations

import itertools

from .hirsch_ops import _compositions, _product_within, block_splittings
from .polynomial import GeneratorSet
from .rings import RingError


class ResolutionError(Exception):
    pass


NORMALIZE_STEP_CAP = 5000


# ---------------------------------------------------------------------------
# letters, words, degrees

def v_letter(i):
    return ("v", i)


def cup_letter(indices):
    idx = tuple(sorted(indices))
    if len(idx) < 2:
        raise ResolutionError("cup clusters need at least 2 entries")
    return ("C", idx)


def e_letter(largs, rargs):
    largs, rargs = tuple(largs), tuple(rargs)
    if not largs or not rargs:
        raise ResolutionError("E letters need arguments on both sides")
    if any(not w for w in largs + rargs):
        raise ResolutionError("empty word argument in E letter")
    return ("E", len(largs), len(rargs), largs + rargs)


def make_E_word(largs, rargs):
    """E applied to word arguments, with the identity and degenerate
    collapses: returns a word, or None when the result is zero."""
    largs, rargs = tuple(largs), tuple(rargs)
    if any(not w for w in largs + rargs):
        return None
    p, q = len(largs), len(rargs)
    if p == 1 and q == 0:
        return largs[0]
    if p == 0 and q == 1:
        return rargs[0]
    if q == 0 or p == 0:
        return None
    return (e_letter(largs, rargs),)


def letter_bidegree(gens: GeneratorSet, letter):
    kind = letter[0]
    if kind == "v":
        return (0, gens.degrees[letter[1]])
    if kind == "C":
        idx = letter[1]
        return (-2 * (len(idx) - 1), sum(gens.degrees[i] for i in idx))
    _, p, q, args = letter
    res = internal = 0
    for w in args:
        r, n = word_bidegree(gens, w)
        res += r
        internal += n
    return (res - (p + q - 1), internal)


def word_bidegree(gens, word):
    res = internal = 0
    for letter in word:
        r, n = letter_bidegree(gens, letter)
        res += r
        internal += n
    return (res, internal)


def word_total_degree(gens, word):
    r, n = word_bidegree(gens, word)
    return r + n


def letter_str(gens, letter):
    kind = letter[0]
    if kind == "v":
        return gens.names[letter[1]]
    if kind == "C":
        return "C(" + ",".join(gens.names[i] for i in letter[1]) + ")"
    _, p, q, args = letter
    def ws(w):
        return ".".join(letter_str(gens, l) for l in w)
    return (f"E{p}{q}(" + ",".join(ws(w) for w in args[:p]) + ";"
            + ",".join(ws(w) for w in args[p:]) + ")")


def word_str(gens, word):
    return ".".join(letter_str(gens, l) for l in word) if word else "1"


# ---------------------------------------------------------------------------
# the differential

class Differential:
    """Differential of the resolution, memoised per letter, per word
    (of_word) and per word's contraction (contraction_s).

    The memos live as long as the Differential: `verify` makes one per
    job and shares it between its three resolution suites, and the
    internal-degree bound of the words the job asks for bounds their
    size.  Each value is stored only once it is complete.  The memoised
    dicts are shared, so callers must not change them; of_element
    returns a fresh dict."""

    def __init__(self, gens: GeneratorSet):
        self.gens = gens
        self.ring = gens.ring
        self._letter_cache = {}
        self._word_cache = {}
        self._s_cache = {}

    def of_letter(self, letter):
        cached = self._letter_cache.get(letter)
        if cached is None:
            kind = letter[0]
            if kind == "v":
                cached = {}
            elif kind == "C":
                cached = self._d_cup(letter)
            else:
                cached = self._d_e(letter)
            self._letter_cache[letter] = cached
        return cached

    def _sign(self, par):
        return self.ring.one() if par % 2 == 0 else self.ring.neg(
            self.ring.one())

    def _d_cup(self, letter):
        """Sum over unshuffles of the multiset into two nonempty parts,
        distinct part-multisets counted once."""
        ring = self.ring
        idx = letter[1]
        out = {}
        n = len(idx)
        seen = set()
        for size in range(1, n):
            for positions in itertools.combinations(range(n), size):
                left = tuple(idx[i] for i in positions)
                right = tuple(idx[i] for i in range(n)
                              if i not in positions)
                if (left, right) in seen:
                    continue
                seen.add((left, right))
                lw = (v_letter(left[0]),) if len(left) == 1 \
                    else (cup_letter(left),)
                rw = (v_letter(right[0]),) if len(right) == 1 \
                    else (cup_letter(right),)
                ring.add_into(out, (e_letter((lw,), (rw,)),), ring.one())
        return out

    def _d_e(self, letter):
        ring = self.ring
        gens = self.gens
        _, p, q, args = letter
        largs, rargs = args[:p], args[p:]
        deg = [word_total_degree(gens, w) - 1 for w in args]
        adeg, bdeg = deg[:p], deg[p:]
        out = {}

        # internal differentials of the argument slots, slot k signed by
        # the shifted degrees before it
        for k in range(p + q):
            da = self.of_element({args[k]: ring.one()})
            if not da:
                continue
            sign = self._sign(sum(deg[:k]))
            for w, c in da.items():
                slots = args[:k] + (w,) + args[k + 1:]
                new = make_E_word(slots[:p], slots[p:])
                if new is not None:
                    ring.add_into(out, new, ring.mul(sign, c))

        # adjacent merges within each side, so not across slot p - 1
        for k in range(p + q - 1):
            if k == p - 1:
                continue
            sign = self._sign(sum(deg[:k + 1]))
            slots = args[:k] + (args[k] + args[k + 1],) + args[k + 2:]
            cut = p - 1 if k < p else p
            new = make_E_word(slots[:cut], slots[cut:])
            if new is not None:
                ring.add_into(out, new, sign)

        # quadratic splittings, extremes excluded
        for i in range(p + 1):
            for j in range(q + 1):
                if (i, j) in ((0, 0), (p, q)):
                    continue
                head = make_E_word(largs[:i], rargs[:j])
                if head is None:
                    continue
                tail = make_E_word(largs[i:], rargs[j:])
                if tail is None:
                    continue
                k_par = sum(bdeg[:j]) * sum(adeg[i:])
                d_par = sum(adeg[:i]) + sum(bdeg[:j])
                sign = ring.neg(self._sign(k_par + d_par))
                ring.add_into(out, head + tail, sign)
        return out

    def of_word(self, word):
        """d of one word, memoised per word; the caller must not change
        the dict returned."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        ring = self.ring
        gens = self.gens
        out = {}
        par = 0
        for i, letter in enumerate(word):
            dl = self.of_letter(letter)
            if dl:
                sign = self._sign(par)
                for w, c in dl.items():
                    ring.add_into(out, word[:i] + w + word[i + 1:],
                                  ring.mul(sign, c))
            r, n = letter_bidegree(gens, letter)
            par += r + n
        self._word_cache[word] = out
        return out

    def of_element(self, x):
        out = {}
        for word, coeff in x.items():
            self.ring.add_scaled(out, self.of_word(word), coeff)
        return out


# ---------------------------------------------------------------------------
# normal form for nested E expressions

def _is_nonnormal(letter):
    """A letter E_{1,r}(w; ...) whose single left argument is a
    one-letter word carrying an E letter can be rewritten by the
    block-composition relation; everything else is normal."""
    if letter[0] != "E":
        return False
    _, p, q, args = letter
    return p == 1 and len(args[0]) == 1 and args[0][0][0] == "E"


def rewrite_letter(letter, gens):
    """Rewrite one non-normal letter via the block-composition relation.

    Over F2 the relation is available for all shapes.  Over other rings
    only the cup-one composite E_{1,1}(E_{1,1}(a;b); c) is supported;
    its signs are pinned by the chain-map condition (and the generator
    degrees are forced even away from F2, so the Koszul factors below
    are constant)."""
    _, p, q, args = letter
    inner = args[0][0]
    _, k, l, inner_args = inner
    aargs, bargs = inner_args[:k], inner_args[k:]
    cargs = args[1:]
    ring = gens.ring
    if ring.char != 2:
        if (k, l) != (1, 1):
            raise RingError(
                "E-normal form away from F2 covers only cup-one composites")
        aw, bw = aargs[0], bargs[0]
        # shifted (desuspended) total-degree parities
        pa, pb, *pcs = [(word_total_degree(gens, w) - 1) % 2
                        for w in (aw, bw) + cargs]
        if pa == 0 or pb == 0:
            raise RingError(
                "E-normal form away from F2 needs odd-shifted inner "
                "arguments (both inner arguments of even total degree)")
        # signed law for E_{1,q}(E_{1,1}(a;b); c_1..c_q) with a, b of
        # even total degree; Koszul signs use the shifted parities
        one = ring.one()
        minus = ring.neg(one)
        out = {}
        for i in range(1, q + 2):          # slot receiving the b-block
            sign = minus if (pb * sum(pcs[:i - 1])) % 2 else one
            for t in range(0, q - i + 2):  # c's absorbed into the block
                if t == 0:
                    block = bw
                else:
                    block = (e_letter((bw,), cargs[i - 1:i - 1 + t]),)
                new_rargs = cargs[:i - 1] + (block,) + cargs[i - 1 + t:]
                ring.add_into(out, (e_letter((aw,), new_rargs),), sign)
        ring.add_into(out, (e_letter((aw, bw), cargs),), minus)
        ring.add_into(out, (e_letter((bw, aw), cargs),),
                      one if (pa * pb) % 2 else minus)
        return out
    # over F2, the splittings of (b; c) under E_{k,blocks}(a; ...) and
    # those of (a; b) under E_{blocks,r}(...; c); the one-block term of
    # the second side is the letter itself, which the last add cancels.
    # No other term equals it: the first side keeps the k arguments a
    # on the left, and the second side's other terms have p >= 2
    one = ring.one()
    out = {}
    for inner, left, right in (((bargs, cargs), aargs, None),
                               ((aargs, bargs), None, cargs)):
        for split in block_splittings(*inner):
            blocks = tuple(make_E_word(bl, br) for bl, br in split)
            if None not in blocks:
                new = e_letter(left or blocks, right or blocks)
                ring.add_into(out, (new,), one)
    return ring.add_into(out, (letter,), one)


def _rewrite_first(word, gens):
    """word with its first non-normal letter rewritten, as an element,
    or None when word is normal.  Each letter is tested before its
    arguments, and the arguments in order."""
    for i, letter in enumerate(word):
        if letter[0] != "E":
            continue
        if _is_nonnormal(letter):
            repl = rewrite_letter(letter, gens)
        else:
            _, p, q, args = letter
            for k, arg in enumerate(args):
                sub = _rewrite_first(arg, gens)
                if sub is not None:
                    break
            else:
                continue
            repl = {}
            for w, c in sub.items():
                slots = args[:k] + (w,) + args[k + 1:]
                repl[(e_letter(slots[:p], slots[p:]),)] = c
        return {word[:i] + w + word[i + 1:]: c for w, c in repl.items()}
    return None


def normalize_element(x, gens):
    """Rewrite until no word contains a non-normal letter; idempotent.
    Each step rewrites the least word, in sorted order, that is not
    normal.  Raises after NORMALIZE_STEP_CAP rewrites, or when a shape
    with unpinned signs occurs away from F2."""
    ring = gens.ring
    work = dict(x)
    steps = 0
    while True:
        for w in sorted(work):
            new = _rewrite_first(w, gens)
            if new is not None:
                break
        else:
            return work
        steps += 1
        if steps > NORMALIZE_STEP_CAP:
            raise ResolutionError(
                f"normalization exceeded {NORMALIZE_STEP_CAP} rewrites; "
                f"offending word: {w!r}")
        ring.add_scaled(work, new, work.pop(w))


# ---------------------------------------------------------------------------
# contraction homotopy

def _iteration(letter):
    """Entries a_1, ..., a_n of a right-nested cup-one iteration
    E_{1,1}(a_1; E_{1,1}(a_2; ... a_n)) with one-letter arguments and
    degree-0 or cup-cluster entries; None when the letter is not one."""
    entries = []
    while letter[0] == "E":
        _, p, q, args = letter
        if (p, q) != (1, 1) or len(args[0]) != 1 or len(args[1]) != 1 \
                or args[0][0][0] == "E":
            return None
        entries.append(args[0][0])
        letter = args[1][0]
    return entries + [letter] if entries else None


def _is_w(letter):
    return letter[0] != "E" or _iteration(letter) is not None


def _eop_position(seq):
    """Index kappa (1-based) of the descending pair of iteration entries
    that start with a strictly ascending degree-0 prefix a_1 < ... <
    a_kappa >= a_{kappa+1}, a cluster a_{kappa+1} counting as descending
    when a_kappa is at least each of its entries; None when the entries
    are not of that shape."""
    kappa = 1
    while (kappa < len(seq) and seq[kappa - 1][0] == "v"
           and seq[kappa][0] == "v" and seq[kappa - 1][1] < seq[kappa][1]):
        kappa += 1
    if kappa == len(seq) or seq[kappa - 1][0] != "v":
        return None
    # a degree-0 successor stopped the ascent, so only a cluster is tested
    nxt = seq[kappa]
    if nxt[0] == "v" or all(seq[kappa - 1][1] >= m for m in nxt[1]):
        return kappa
    return None


def _tilde(seq, kappa):
    """Replace the descending pair of E^op iteration entries by the
    cup-two of its entries, keeping the rest of the iteration
    right-nested; clusters absorb the new entry."""
    nxt = seq[kappa]
    merged = cup_letter((seq[kappa - 1][1],)
                        + ((nxt[1],) if nxt[0] == "v" else nxt[1]))
    entries = seq[:kappa - 1] + [merged] + seq[kappa + 1:]
    rebuilt = entries[-1]
    for l in reversed(entries[:-1]):
        rebuilt = e_letter(((l,),), ((rebuilt,),))
    return rebuilt


def _prime(letter):
    """Split the first multi-letter argument string in the nest,
    promoting its leading letter to a new slot of its operation; None
    when no argument string anywhere in the nest has more than one
    letter, or the shape rules forbid the split.  The string may occupy
    the leading left slot, or the leading right slot of an E_{1,q} whose
    left argument is a single letter in W."""
    if letter[0] != "E":
        return None
    _, p, q, args = letter
    for k, w in enumerate(args):
        if len(w) > 1:
            if k == 0 or (k == 1 and p == 1 and _is_w(args[0][0])):
                slots = args[:k] + ((w[0],), w[1:]) + args[k + 1:]
                cut = p + 1 if k < p else p
                return e_letter(slots[:cut], slots[cut:])
            return None
        # a one-letter string: split inside its letter, or scan on
        inner = _prime(w[0])
        if inner is not None:
            slots = args[:k] + ((inner,),) + args[k + 1:]
            return e_letter(slots[:p], slots[p:])
    return None


def _case1(word):
    """Adjacent cup-one insertion at the first ascent of a weakly
    descending degree-0 prefix, to a greater degree-0 letter or to an
    E^o letter whose entries all exceed the last of the prefix."""
    for k in range(1, len(word)):
        prev, cur = word[k - 1], word[k]
        if prev[0] != "v":
            return None
        if cur[0] == "v":
            if prev[1] >= cur[1]:
                continue
        else:
            seq = _iteration(cur)
            if seq is None or any(l[0] != "v" for l in seq):
                return None
            idx = [prev[1]] + [l[1] for l in seq]
            if any(a >= b for a, b in zip(idx, idx[1:])):
                return None
        for l in word[k + 1:]:
            # cup clusters are excluded alongside E^op iterations: the
            # differential of a cluster regenerates an E^op letter, whose
            # word would give a second preimage of the same insertion
            if l[0] == "C":
                return None
            if l[0] == "E":
                seq = _iteration(l)
                if seq is None or _eop_position(seq) is not None:
                    return None
        new_letter = e_letter(((prev,),), ((cur,),))
        return word[:k - 1] + (new_letter,) + word[k + 1:]
    return None


def _case2(word):
    """Cup-two merge of the first E^op letter, after letters in W and
    followed by letters in W only."""
    for k, letter in enumerate(word):
        if letter[0] != "E":
            continue
        seq = _iteration(letter)
        if seq is None:
            return None
        kappa = _eop_position(seq)
        if kappa is not None:
            if not all(_is_w(l) for l in word[k + 1:]):
                return None
            return word[:k] + (_tilde(seq, kappa),) + word[k + 1:]
    return None


def _case3(word):
    """Split of the first letter that has one, after letters in W."""
    for k, letter in enumerate(word):
        new = _prime(letter)
        if new is not None:
            return word[:k] + (new,) + word[k + 1:]
        if not _is_w(letter):
            return None
    return None


def contraction_s(d: Differential, word):
    """Degree (-1, 0) homotopy on a single word; at most one case may
    apply, otherwise the value is zero.  d is the differential of the
    resolution the word lives in.

    The result is scaled so that the original word occurs in the
    differential of the result with coefficient one (the defining
    property that s inverts one summand of d exactly).

    The value is memoised on d, so the caller must not change the dict
    returned.  A call that raises stores nothing: a word on which two
    cases match raises ResolutionError on every call."""
    cached = d._s_cache.get(word)
    if cached is None:
        cached = d._s_cache[word] = _contraction_value(d, word)
    return cached


def _contraction_value(d: Differential, word):
    gens = d.gens
    results = []
    for tag, fn in (("pair", _case1), ("cup", _case2), ("split", _case3)):
        got = fn(word)
        if got is not None:
            results.append((tag, got))
    if len(results) > 1:
        raise ResolutionError(
            f"contraction cases {[t for t, _ in results]} both match "
            f"word {word_str(gens, word)}")
    if not results:
        return {}
    ring = gens.ring
    out_word = results[0][1]
    if ring.char == 2:
        return {out_word: ring.one()}
    image = normalize_element(d.of_element({out_word: ring.one()}), gens)
    coeff = image.get(word, 0)
    if coeff == 0:
        raise ResolutionError(
            f"contraction image of {word_str(gens, word)} does not hit the "
            "word back under the differential")
    return {out_word: ring.inv(coeff)}


def contraction_element(d: Differential, x):
    out = {}
    for word, coeff in x.items():
        d.ring.add_scaled(out, contraction_s(d, word), coeff)
    return out


def verify_siteration(d: Differential, x, iteration_cap):
    """Smallest n with (sd + ds - Id)^n = 0 on x, or a failure report
    carrying the residual."""
    ring = d.ring
    one = ring.one()
    minus = ring.neg(one)

    def T(y):
        out = contraction_element(d, d.of_element(y))
        ring.add_scaled(out, d.of_element(contraction_element(d, y)), one)
        return ring.add_scaled(out, y, minus)

    cur = dict(x)
    for n in range(1, iteration_cap + 1):
        cur = T(cur)
        cur = normalize_element(cur, d.gens)
        if not cur:
            return n
    return {"failed": True, "cap": iteration_cap, "residual": cur}


# ---------------------------------------------------------------------------
# basis enumeration

def enumerate_rh_letters(gens: GeneratorSet, r_min=-3, n_max=12,
                         degrees=None):
    """Normal-form letters with resolution degree >= r_min and internal
    degree <= n_max, grouped by resolution degree.  Every argument word
    is one letter followed by degree-0 letters (see words_with); letters
    with other argument words are not listed.  When `degrees` is a
    dict, it receives the internal degree of every letter returned.

    No letter or word of resolution degree t has internal degree below
    g * (ceil(|t|/2) + 1), g the least generator degree.  By induction
    over letters:
    - a degree-0 letter has t = 0 and internal degree >= g;
    - a cup cluster of k entries has |t| = 2(k - 1) and internal degree
      >= g*k, the bound;
    - a word of at least one letter has at least the sum of its
      letters' bounds, which is at least the bound of the sum of their
      |t|, as the ceilings add up to at least the ceiling of the sum;
    - an E letter with k = p + q >= 2 argument words of degrees t_i has
      |t| = S + k - 1, S = sum |t_i|, and internal degree at least
      g * (ceil(S/2) + k), which is at least the bound, as
      ceil((S + k - 1)/2) <= ceil(S/2) + k - 1.
    A word fits n_max only if ceil(|t|/2) <= n_max // g - 1, so nothing
    fits below t = -2 * (n_max // g - 1), and r_min is clamped there
    (never above 0): below it the loop over E-letter shapes grows
    without bound and finds nothing."""
    if r_min > 0:
        raise ResolutionError("r_min must be <= 0")
    r_min = max(r_min, min(0, -2 * (n_max // min(gens.degrees) - 1)))
    degree = {} if degrees is None else degrees
    letters = {0: []}
    for i, n in enumerate(gens.degrees):
        if n <= n_max:
            letters[0].append(v_letter(i))
            degree[v_letter(i)] = n
    # words_with(t) reads only the letters of degrees t and 0, which are
    # all built before any later step asks for it, so one memo serves
    # the whole enumeration
    words = {}

    def words_with(res_target):
        """(word, internal degree) pairs with internal degree <= n_max:
        a letter of resolution degree res_target followed by degree-0
        letters, depth first in letter order."""
        cached = words.get(res_target)
        if cached is not None:
            return cached
        out = []

        def extend(word, used):
            out.append((word, used))
            for l in letters[0]:
                if used + degree[l] <= n_max:
                    extend(word + (l,), used + degree[l])

        for l in letters[res_target]:
            extend((l,), degree[l])
        words[res_target] = out
        return out

    for target in range(-1, r_min - 1, -1):
        found = []
        # cup clusters
        if target % 2 == 0:
            size = -target // 2 + 1
            for combo in itertools.combinations_with_replacement(
                    range(len(gens.names)), size):
                n = sum(gens.degrees[i] for i in combo)
                if n <= n_max:
                    letter = cup_letter(combo)
                    found.append(letter)
                    degree[letter] = n
        # E letters over all shapes and argument degree distributions
        max_arity = -target + 1
        for p in range(1, max_arity):
            for q in range(1, max_arity - p + 1):
                args_res_total = target + (p + q - 1)
                if args_res_total > 0:
                    continue
                for dist in _compositions(-args_res_total, p + q):
                    arg_lists = [words_with(-res) for res in dist]
                    for combo, n in _product_within(arg_lists, n_max):
                        letter = e_letter(combo[:p], combo[p:])
                        if _is_nonnormal(letter):
                            continue
                        found.append(letter)
                        degree[letter] = n
        letters[target] = found
    return letters


def enumerate_rh_basis(gens: GeneratorSet, r_min=-3, n_max=12):
    """Per-bidegree monomial basis of the truncated resolution: dict
    (res, internal) -> list of words.  Words are built depth first over
    the letter pool, in pool order; at each (res, internal) reached,
    only the pool entries that still fit are walked, a list filtered
    once per (res, internal) in the pool's order.  Resolution degrees
    below the letters' clamp (see enumerate_rh_letters) hold no
    words."""
    degree = {}
    letters = enumerate_rh_letters(gens, r_min, n_max, degrees=degree)
    pool = [(r, degree[l], l)
            for r in sorted(letters, reverse=True) for l in letters[r]]
    basis = {}
    fits = {}

    def build(prefix, res, internal):
        if prefix:
            basis.setdefault((res, internal), []).append(tuple(prefix))
        here = fits.get((res, internal))
        if here is None:
            here = fits[res, internal] = [
                e for e in pool
                if res + e[0] >= r_min and internal + e[1] <= n_max]
        for r, n, l in here:
            prefix.append(l)
            build(prefix, res + r, internal + n)
            prefix.pop()

    build([], 0, 0)
    return basis


# ---------------------------------------------------------------------------
# hexagon check

def check_hexagon(d: Differential, i, j, k):
    """Compare the differentials, under the job's d, of the two sides of
    the cubic relation on three degree-0 generators; over F2 both are
    normalized first."""
    gens = d.gens
    ring = gens.ring
    one = ring.one()
    minus = ring.neg(one)
    a, b, c = ((v_letter(t),) for t in (i, j, k))
    lhs, rhs = {}, {}
    for side, largs, rargs, coeff in (
            (lhs, (a,), (b, c), one),
            (lhs, (a,), (c, b), minus),
            (lhs, (a,), ((e_letter((b,), (c,)),),), one),
            (rhs, ((e_letter((a,), (b,)),),), (c,), one),
            (rhs, (a, b), (c,), one),
            (rhs, (b, a), (c,), minus)):
        ring.add_into(side, (e_letter(largs, rargs),), coeff)
    dl, dr = d.of_element(lhs), d.of_element(rhs)
    if ring.char == 2:
        dl, dr = normalize_element(dl, gens), normalize_element(dr, gens)
    return dl == dr
