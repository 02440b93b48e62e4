"""Oracle for loop-space cohomology ranks of a polynomial algebra.

For H = S(U) the answer is an exterior algebra on desuspended
generators, so the rank in degree n is the number of generator subsets
with sum of (deg - 1) equal to n.  oracle_dimensions computes exactly
that; oracle_small_resolution_check corroborates it on small inputs by
building the explicit minimal free resolution S(U) (x) Lambda(U') with
the contraction differential and verifying it is exact and minimal.

This module is deliberately independent of the bar-construction code
path; it shares only the exact linear algebra kernel.
"""
from __future__ import annotations

import itertools

from . import LoopcohError
from .linalg import (composition_failures, rank_over_field,
                     smith_normal_form)
from .polynomial import GeneratorSet


class OracleError(LoopcohError):
    pass


def oracle_dimensions(gens: GeneratorSet, max_degree: int):
    """Rank of the loop cohomology in each degree 0..max_degree: the
    number of generator subsets S with sum over S of (deg - 1) = n."""
    counts = [0] * (max_degree + 1)
    counts[0] = 1
    # coefficients of prod (1 + t^(deg_i - 1))
    for d in gens.degrees:
        shift = d - 1
        for n in range(max_degree, shift - 1, -1):
            counts[n] += counts[n - shift]
    return counts


def _koszul_basis(gens, homological, internal):
    """Basis of S(U) (x) Lambda^homological(U') in the given internal
    degree: pairs (monomial, subset)."""
    out = []
    for subset in itertools.combinations(range(len(gens.names)), homological):
        sdeg = sum(gens.degrees[i] for i in subset)
        rest = internal - sdeg
        if rest < 0:
            continue
        for mono in gens.basis_in_degree(rest):
            out.append((mono, subset))
    return out


def _koszul_differential(gens, homological, internal):
    """(codomain basis, columns) of the contraction sending f (x) x_S to
    sum_i +- x_i f (x) x_(S minus i), from Lambda^h to Lambda^(h-1); its
    entries are 1, or -1 reduced for the ring."""
    p = gens.ring.char
    minus_one = -1 % p if p else -1
    cod = _koszul_basis(gens, homological - 1, internal)
    index = {b: k for k, b in enumerate(cod)}
    columns = []
    for mono, subset in _koszul_basis(gens, homological, internal):
        col = {}
        for pos, i in enumerate(subset):
            new_mono = list(mono)
            new_mono[i] += 1
            row = index[(tuple(new_mono), subset[:pos] + subset[pos + 1:])]
            col[row] = minus_one if pos % 2 else 1
        columns.append(col)
    return cod, columns


def oracle_small_resolution_check(gens: GeneratorSet, max_internal=10):
    """Build the explicit small free resolution of the ground ring over
    S(U) and certify d^2 = 0, exactness in positive internal degree and
    minimality; returns the certified Tor ranks regraded to loop degree.

    Guarded to small inputs: at most 4 generators and internal degree
    at most 12.
    """
    ring = gens.ring
    n_gens = len(gens.names)
    if n_gens > 4:
        raise OracleError("resolution oracle supports at most 4 generators")
    if max_internal > 12:
        raise OracleError("resolution oracle supports internal degree <= 12")
    tor_ranks = {}
    for internal in range(0, max_internal + 1):
        mats = {}
        dims = {}
        for h in range(0, n_gens + 1):
            dims[h] = len(_koszul_basis(gens, h, internal))
        for h in range(1, n_gens + 1):
            mats[h] = _koszul_differential(gens, h, internal)
        # d^2 = 0
        for h in range(2, n_gens + 1):
            if composition_failures(mats[h - 1][1], mats[h][1], ring.char):
                raise OracleError(f"d^2 != 0 at (h={h}, n={internal})")
        # minimality: every entry lands in the augmentation ideal, i.e.
        # connects basis elements whose polynomial parts differ by a
        # generator factor (the target monomial has positive degree)
        for h in range(1, n_gens + 1):
            cod, columns = mats[h]
            for row in itertools.chain.from_iterable(columns):
                mono, _subset = cod[row]
                if sum(mono) == 0:
                    raise OracleError(
                        f"non-minimal entry at (h={h}, n={internal})")
        # exactness in internal degree > 0 via ranks
        ranks = {}
        for h in range(1, n_gens + 1):
            columns = mats[h][1]
            if ring.is_field:
                ranks[h] = rank_over_field(columns, ring)
            else:
                diag, ranks[h] = smith_normal_form(columns)
                if any(d not in (0, 1) for d in diag):
                    raise OracleError(
                        f"non-unimodular image at (h={h}, n={internal})")
        ranks[n_gens + 1] = 0
        if internal > 0:
            for h in range(1, n_gens + 1):
                if dims[h] - ranks[h] - ranks[h + 1] != 0:
                    raise OracleError(
                        f"resolution not exact at (h={h}, n={internal})")
        # homology at h = 0 in internal degree > 0 must also vanish
        if internal > 0:
            h0 = dims[0] - ranks[1]
            # dims[0] counts S(U) monomials; the cokernel of d_1 is the
            # degree-n part of the ground ring viewed through the
            # augmentation, so it must vanish in positive degree
            if h0 != 0:
                raise OracleError(
                    f"augmentation cokernel nonzero in degree {internal}")
        # certified Tor ranks: by minimality Tor_h in internal degree n
        # has rank = number of subsets of size h and degree n
        for h in range(0, n_gens + 1):
            subs = sum(1 for s in itertools.combinations(range(n_gens), h)
                       if sum(gens.degrees[i] for i in s) == internal)
            if subs:
                loop_degree = internal - h
                tor_ranks[loop_degree] = tor_ranks.get(loop_degree, 0) + subs
    return tor_ranks
