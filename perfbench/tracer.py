"""In-memory span tracer that wraps loopcoh's functions from outside.

Nothing under ``src/`` knows about it: ``install`` replaces the listed
functions and methods with wrappers that open a span on entry, close it on
exit and update counters.  Spans are kept as flat lists and written out
once the job has finished.
"""
from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.counts = collections.Counter()
        self.degrees_reduced = set()
        self.seen_blocks = set()

    def open(self, name, start=None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(_now() if start is None else start)
        self.ends.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = _now()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def dump(self):
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends,
                "counts": dict(self.counts),
                "degrees_reduced": len(self.degrees_reduced)}


# -- result hooks: counters taken where the work happens --------------------

def _count_words(key):
    def hook(tr, args, result):
        tr.counts[key] += len(result)
    return hook


def _count_grouped(key):
    def hook(tr, args, result):
        tr.counts[key] += sum(len(v) for v in result.values())
    return hook


def _block_stats(tr, args, result):
    for m in result:
        if id(m) in tr.seen_blocks:
            continue
        tr.seen_blocks.add(id(m))
        tr.counts["homology.blocks"] += 1
        tr.counts["homology.block_nnz"] += len(m.entries)
        dim = max(m.n_rows, m.n_cols)
        if dim > tr.counts["homology.block_max_dim"]:
            tr.counts["homology.block_max_dim"] = dim
        if m.ring.kind == "integers" and min(m.n_rows, m.n_cols) > 0:
            tr.counts["homology.z_blocks"] += 1


def _contraction_iters(tr, args, result):
    # verify_siteration returns the iteration count, or a failure report
    # after running all iteration_cap iterations
    tr.counts["resolution.contraction_iters"] += (
        result if isinstance(result, int) else result["cap"])


def _degree_reduced(tr, args, result):
    tr.degrees_reduced.add(args[1])


# (module, attribute path, span name, result hook).  Several targets may
# share a span name; their self times are summed.
SPANS = [
    ("loopcoh.config", "parse_config", "config.parse", None),
    ("loopcoh.cli", "_complex_for", "cli.cache_load", None),
    ("loopcoh.bar", "bar_basis", "bar.basis",
     _count_words("bar.basis_words")),
    ("loopcoh.bar", "bar_differential", "bar.differential", None),
    ("loopcoh.bar", "muE_product", "bar.product", None),
    ("loopcoh.bar", "check_chain_map", "bar.chain_map", None),
    ("loopcoh.homology", "BarComplex.__init__", "homology.assembly", None),
    ("loopcoh.homology", "BarComplex.boundary_blocks", "homology.assembly",
     _block_stats),
    ("loopcoh.homology", "RingTable.__init__", "homology.ringtable", None),
    ("loopcoh.homology", "RingTable.reduce_cocycle", "homology.reduce",
     None),
    ("loopcoh.linalg", "rank_over_field", "linalg.rank", None),
    ("loopcoh.linalg", "smith_normal_form", "linalg.smith", None),
    ("loopcoh.linalg", "solve_in_span", "linalg.solve", None),
    ("loopcoh.resolution", "enumerate_rh_letters", "resolution.letters",
     _count_grouped("resolution.letters")),
    ("loopcoh.resolution", "enumerate_rh_basis", "resolution.basis",
     _count_grouped("resolution.basis_words")),
    ("loopcoh.resolution", "Differential.of_element", "resolution.d", None),
    ("loopcoh.resolution", "verify_siteration", "resolution.contraction",
     _contraction_iters),
    ("loopcoh.resolution", "check_hexagon", "resolution.hexagon", None),
    ("loopcoh.hirsch_ops", "HirschOpTable.eval", "hirsch_ops.eval", None),
    ("loopcoh.hirsch_ops", "check_derivation_relations",
     "hirsch_ops.relations", None),
    ("loopcoh.hirsch_ops", "check_sq_specialization_cases",
     "hirsch_ops.relations", None),
]

# (module, attribute path, counter, argument hook): counted, not spanned,
# because they run too often for a span each or have no self time of note.
COUNTS = [
    ("loopcoh.polynomial", "Polynomial.__mul__", "polynomial.mul_calls",
     None),
    ("loopcoh.homology", "RingTable._reduction_data", None,
     _degree_reduced),
]


def _spanned(tr, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        tr.counts[name + "_calls"] += 1
        if hook is not None:
            hook(tr, args, result)
        return result
    return wrapper


def _counted(tr, key, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key is not None:
            tr.counts[key] += 1
        result = fn(*args, **kwargs)
        if hook is not None:
            hook(tr, args, result)
        return result
    return wrapper


def _replace(module_name, path, make):
    """Replace one function or method everywhere loopcoh binds it."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "loopcoh" or name.startswith("loopcoh."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install(tr):
    """Wrap every listed target; loopcoh.cli must already be imported so
    that the names it imported are replaced too."""
    for module_name, path, name, hook in SPANS:
        _replace(module_name, path,
                 lambda fn, n=name, h=hook: _spanned(tr, n, fn, h))
    for module_name, path, key, hook in COUNTS:
        _replace(module_name, path,
                 lambda fn, k=key, h=hook: _counted(tr, k, fn, h))
