"""A fixed piece of pure-Python work that measures how fast the host runs
Python right now.

Shared hosts switch between speed states that last from seconds to
minutes.  On a 2-vCPU virtual machine (Python 3.11.7) the same
`loopcoh ranks` job took 1.9-2.2 s in one state and 3.0-3.4 s in the
other, and a fresh-process run of this reference work moved with it
(0.13-0.15 s against 0.20-0.22 s).  The harness runs the reference work
between consecutive set-ups and jobs, and scales each one's wall time by
REFERENCE_S over the mean of the reference times right before and right
after it: the time it would have taken on a host that runs the reference
work in REFERENCE_S seconds.  The scaled times stay steady across states;
the raw ones are printed beside them.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

# Wall time of reference_work() that scaled times are expressed against;
# about what one in-process run takes in the faster state above.
REFERENCE_S = 0.1


def reference_work():
    """Sparse elimination over Fractions on dict columns: the same mix of
    interpreter, dict and Fraction work as loopcoh's exact linear algebra.
    Returns the rank, so the work cannot be skipped."""
    rng = random.Random(20081004)
    n = 80
    basis = {}
    rank = 0
    for _ in range(n):
        v = {rng.randrange(n): Fraction(rng.choice((-2, -1, 1, 2)))
             for _ in range(6)}
        while v:
            pivot = min(v)
            if pivot not in basis:
                inv = 1 / v[pivot]
                basis[pivot] = {i: c * inv for i, c in v.items()}
                rank += 1
                break
            c = v[pivot]
            for i, x in basis[pivot].items():
                y = v.get(i, 0) - c * x
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return rank


def reference_time():
    """Wall time of one run of the reference work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
