"""Slow references that the tests compare the engine against: a field
echelon, which both ranks a matrix and solves in a column span, a
row-indexed Euclidean Smith form and membership of an integer column
lattice by it, the projection of the resolution onto H, the
resolution's letters and basis without pruning, the bar d^2 check word
by word, the associativity relation of the Hirsch operations over all
basis tuples, the exterior verdict read off a full ring table, and the
argparse parser of the command line."""
import argparse
import itertools

from loopcoh import resolution as res
from loopcoh.bar import bar_basis, bar_differential
from loopcoh.cli import COMMANDS
from loopcoh.config import ascii_int
from loopcoh.hirsch_ops import _basis_tuples, associativity_sides
from loopcoh.homology import RingTable, homology_ranks
from loopcoh.koszul import oracle_dimensions
from loopcoh.polynomial import Polynomial
from loopcoh.rings import RingError, RingSpec

Q = RingSpec.rationals()


def echelon(columns, ring):
    """Column echelon of dict columns over a field: {pivot row: (vector,
    expression)}, each vector scaled to 1 at its pivot row, the lowest
    row it holds, and zero at the pivot rows of the vectors before it;
    its expression writes it as {column index: coefficient}.  Columns
    are taken in order."""
    basis = {}
    for j, col in enumerate(columns):
        w = dict(col)
        expr = {j: ring.one()}
        for r in sorted(basis):
            c = w.get(r)
            if c:
                bvec, bexpr = basis[r]
                _axpy(ring, w, c, bvec)
                _axpy(ring, expr, c, bexpr)
        if w:
            piv = min(w)
            inv = ring.inv(w[piv])
            basis[piv] = ({i: ring.mul(inv, c) for i, c in w.items()},
                          {i: ring.mul(inv, c) for i, c in expr.items()})
    return basis


def _axpy(ring, v, c, w):
    """v -= c * w, in place, dropping the entries that cancel."""
    for i, x in w.items():
        y = ring.sub(v.get(i, 0), ring.mul(c, x))
        if y == 0:
            v.pop(i, None)
        else:
            v[i] = y


def echelon_rank(columns, ring):
    """The rank of dict columns over a field, from their column
    echelon."""
    return len(echelon(columns, ring))


def span_solution(columns, v, ring):
    """Coefficients x with sum_j x_j * columns[j] = v over a field, as a
    list, or None when v is outside the span."""
    basis = echelon(columns, ring)
    res = {i: ring.normalize(c) for i, c in v.items()
           if ring.normalize(c) != 0}
    coeffs = [ring.zero()] * len(columns)
    for r in sorted(basis):
        c = res.get(r)
        if c:
            bvec, bexpr = basis[r]
            _axpy(ring, res, c, bvec)
            for i, x in bexpr.items():
                coeffs[i] = ring.add(coeffs[i], ring.mul(c, x))
    return None if res else coeffs


def in_lattice(columns, v):
    """Whether the integer vector v lies in the lattice the integer
    columns span: adding it to them changes no invariant factor."""
    return reference_euclidean_smith(list(columns) + [v]) == \
        reference_euclidean_smith(columns)


def reference_euclidean_smith(columns):
    """Sorted invariant factors of integer columns, by Euclidean row and
    column operations on any pivot, with every entry kept both in a row
    dict and in a column dict."""
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


def class_coefficients(image_cols, rep_cols, v, ring):
    """Coefficients of v on the representative columns modulo the span
    of the image columns, or None when v is outside the span of both.
    Over Z: solved over Q, then the coefficients must be integers and
    the remainder must lie in the lattice of the image columns."""
    if ring.is_field:
        sol = span_solution(image_cols + rep_cols, v, ring)
        return None if sol is None else sol[len(image_cols):]
    sol = span_solution(
        [{i: Q.normalize(c) for i, c in col.items()}
         for col in image_cols + rep_cols],
        {i: Q.normalize(c) for i, c in v.items()}, Q)
    if sol is None:
        return None
    class_part = sol[len(image_cols):]
    if any(c.denominator != 1 for c in class_part):
        return None
    class_part = [int(c) for c in class_part]
    residual = dict(v)
    for c, col in zip(class_part, rep_cols):
        for i, val in col.items():
            residual[i] = residual.get(i, 0) - c * val
    residual = {i: c for i, c in residual.items() if c}
    if residual and not in_lattice(image_cols, residual):
        return None
    return class_part


def rho(gens, x):
    """The projection of a resolution element to H: a word of degree-0
    letters goes to the product of their generators, and a word with
    any other letter to zero."""
    out = Polynomial.zero(gens)
    for word, coeff in x.items():
        if all(letter[0] == "v" for letter in word):
            exponents = [0] * len(gens.names)
            for letter in word:
                exponents[letter[1]] += 1
            out = out + Polynomial.monomial(gens, exponents, coeff)
    return out


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


def reference_rh_basis(gens, letters, r_min, n_max):
    """The resolution basis over the given letters (a dict resolution
    degree -> letters, as enumerate_rh_letters returns), built as
    enumerate_rh_basis built it before it pruned the pool: every node
    scans the whole pool."""
    pool = [(r, res.letter_bidegree(gens, l)[1], l)
            for r in sorted(letters, reverse=True) for l in letters[r]]
    basis = {}

    def build(prefix, r_now, internal):
        if prefix:
            basis.setdefault((r_now, internal), []).append(tuple(prefix))
        for r, n, l in pool:
            if r_now + r < r_min or internal + n > n_max:
                continue
            prefix.append(l)
            build(prefix, r_now + r, internal + n)
            prefix.pop()

    build([], 0, 0)
    return basis


def bar_d_squared_failures(gens, max_degree):
    """The number of bar words of degree 1 to max_degree and the
    (degree, word) pairs on which d^2 is not zero, by degree and then in
    the order of bar_basis: d is applied twice to each word on its own,
    on monomial tuples (bar_differential)."""
    one = gens.ring.one()
    checked = 0
    failures = []
    for n in range(1, max_degree + 1):
        for w in bar_basis(gens, n):
            checked += 1
            if bar_differential(gens, bar_differential(gens, {w: one})):
                failures.append((n, w))
    return checked, failures


def check_associativity_relation(table, k, l, r, degree_bound):
    """Compare the two nested sums of the associativity relation over
    all basis tuples up to the degree bound; returns the argument tuples
    where they differ."""
    if table.gens.ring.char != 2:
        raise RingError("relation checkers run in characteristic 2 only")
    gens = table.gens
    violations = []
    for monos in _basis_tuples(gens, k + l + r, degree_bound):
        a, b, c = ([Polynomial.monomial(gens, m) for m in part]
                   for part in (monos[:k], monos[k:k + l], monos[k + l:]))
        lhs, rhs = associativity_sides(table, a, b, c)
        if lhs != rhs:
            violations.append(((tuple(map(repr, a)), tuple(map(repr, b)),
                                tuple(map(repr, c))), lhs, rhs))
    return violations


def reference_exterior_verdict(table, cx):
    """homology.exterior_verdict as it was when the ring table formed
    every entry first: every entry built, then the scan of the sorted
    pairs for the first unflagged witness, with the flags of every entry
    reported, and graded commutativity checked when there is none; no
    check against the theorem."""
    gens = cx.gens
    ring = gens.ring
    ranks = homology_ranks(cx)
    oracle = oracle_dimensions(gens, cx.max_degree)
    report = {"ranks": ranks["ranks"], "oracle": oracle,
              "torsion": ranks["torsion"], "flags": [], "witness": None}
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

    entries = RingTable(table, cx).entries
    report["flags"] = sorted({f for e in entries.values()
                              for f in e["flags"]})
    witness = None
    for (s1, s2) in sorted(entries):
        entry = entries[(s1, s2)]
        if entry["flags"]:
            continue
        coords = entry["coords"]
        value = {str(k): repr(c) for k, c in sorted(coords.items())}
        if set(s1) & set(s2):
            # squares and overlapping products must vanish
            if coords:
                witness = {"kind": "square" if s1 == s2 else "overlap",
                           "left": s1, "right": s2, "value": value}
                break
        else:
            union = tuple(sorted(s1 + s2))
            unit = coords.get(union) in (1, -1) if not ring.is_field \
                else not ring.is_zero(coords.get(union, 0))
            if sorted(coords) != [union] or not unit:
                witness = {"kind": "product", "left": s1, "right": s2,
                           "expected": union, "value": value}
                break
    if witness is not None:
        report["verdict"] = "not_exterior"
        report["witness"] = witness
        return report
    for (s1, s2) in sorted(entries):
        if (s2, s1) not in entries:
            continue
        a, b = entries[(s1, s2)], entries[(s2, s1)]
        if a["flags"] or b["flags"]:
            continue
        d1 = sum(gens.degrees[i] - 1 for i in s1)
        d2 = sum(gens.degrees[i] - 1 for i in s2)
        sign = ring.one() if (d1 * d2) % 2 == 0 else ring.neg(ring.one())
        flipped = {k: ring.mul(sign, c) for k, c in b["coords"].items()}
        if a["coords"] != flipped:
            report["flags"].append(
                f"graded commutativity fails at {s1} x {s2}")
    report["verdict"] = "inconclusive" if report["flags"] else "exterior"
    return report


def _max_degree(text):
    try:
        return ascii_int(text)
    except ValueError:
        # argparse's own message for a value int() refuses
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def build_parser():
    """The argparse parser the command line once had."""
    parser = argparse.ArgumentParser(
        prog="loopcoh",
        description="Loop-space cohomology of polynomial algebras: "
                    "ranks, ring structure and exterior-algebra checks.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path to a JSON job description")
    parser.add_argument("--max-degree", type=_max_degree, default=None,
                        help="override the degree bound from the config")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the machine-readable report here")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="override the cache directory from the config")
    return parser
