"""Batch front door: parse an algebra description, run a command, emit a
text report (with timings) and an optional machine-readable JSON report
(byte-deterministic, no timings).

Exit codes: 0 success, 1 outside the configured bounds or verdict not
computable, 2 internal check failure or invalid input.  Every failure
also writes a JSON report whose "errors" field names it, except a
failure to write that report, which exits 2 with an error line.  A
usage error writes its report too, when --json stands on the line.

The command line is read as argparse reads it, by a parser of its own:
a job then loads neither argparse nor the gettext and locale modules
argparse loads.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import sys
import time

from . import CONVENTION_VERSION
from .bar import check_chain_map
from .config import ConfigError, ascii_int, parse_config
from .hirsch_ops import (check_derivation_relations,
                         check_sq_specialization_cases)
from .homology import (BarComplex, HomologyError, RingTable,
                       exterior_verdict, homology_ranks)
from .koszul import oracle_dimensions
from .linalg import ResourceCapError
from .polynomial import AlgebraError
from .resolution import (Differential, ResolutionError, check_hexagon,
                         enumerate_rh_basis, verify_siteration, word_str)
from .rings import RingError


# ---------------------------------------------------------------------------
# block-invariant cache

def _sha256(data):
    """Hex sha256 of the bytes data.  hashlib is imported here, so that a
    job without a cache does not pay for loading it."""
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _cache_key(cfg, max_degree):
    # the entry layout is part of the key, so that a file written with
    # another layout is never read as this one
    payload = "|".join((cfg.canonical_json(), f"max_degree={max_degree}",
                        f"convention={CONVENTION_VERSION}",
                        "entry=block_invariants"))
    return _sha256(payload.encode("utf-8"))


def _cache_document(path):
    """The JSON document after the digest line of a cache file, or None
    when the sha256 of its bytes as read is not the one on that line."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    if json.loads(header)["sha256"] != _sha256(payload):
        return None
    return json.loads(payload)


def _valid_invariants(entry, shape, is_field):
    """Whether entry is a [rows, cols, rank, factors] list that a block
    of this shape can have: rank at most min(rows, cols), and at most
    rank factors > 1, each dividing the next (none over a field)."""
    rows, cols, rank, factors = entry
    return [rows, cols] == list(shape) and \
        all(type(x) is int for x in [rank] + factors) and \
        0 <= rank <= min(shape) and \
        len(factors) <= (0 if is_field else rank) and \
        all(f > 1 for f in factors) and \
        all(b % a == 0 for a, b in zip(factors, factors[1:]))


def _read_cache(path, cx):
    """The block invariants of cx stored at path, by degree, or None
    when the file is missing or unreadable, does not match its digest,
    or does not fit the blocks of cx."""
    try:
        doc = _cache_document(path)
        if doc is None:
            return None
        invariants = {}
        for n in range(cx.max_degree + 1):
            entries = doc["blocks"][str(n)]
            shapes = cx.block_shapes(n)
            if len(entries) != len(shapes) or not all(
                    _valid_invariants(e, s, cx.gens.ring.is_field)
                    for e, s in zip(entries, shapes)):
                return None
            invariants[n] = [(rank, tuple(factors))
                             for _, _, rank, factors in entries]
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    return invariants


def _write_cache(path, cx):
    """Store the block invariants of cx at path, atomically: a line with
    the sha256 of the payload, then the payload."""
    blocks = {str(n): [[rows, cols, rank, list(factors)]
                       for (rows, cols), (rank, factors) in
                       zip(cx.block_shapes(n), cx.block_invariants(n))]
              for n in range(cx.max_degree + 1)}
    payload = json.dumps({"blocks": blocks}, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    header = json.dumps({"sha256": _sha256(payload)})
    _write_atomic(path, header.encode("utf-8") + b"\n" + payload)


def _write_atomic(path, data):
    """Write the bytes data to path through <path>.tmp and os.replace, so
    that path never holds a partial file; the temporary file is removed
    when the write or the replace fails."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _complex_for(cfg, max_degree):
    """Bar complex with its block invariants restored from the cache
    when a valid entry is there; otherwise they are computed and the
    entry is (re)written.  An entry holds each boundary block's shape,
    rank and invariant factors > 1, so a warm ranks run assembles no
    matrix; ring and check-exterior still assemble the blocks their
    products reach.  Hit or miss never changes any computed value."""
    cx = BarComplex(cfg.gens, max_degree)
    if cfg.cache_dir is None:
        return cx
    os.makedirs(cfg.cache_dir, exist_ok=True)
    path = os.path.join(cfg.cache_dir,
                        _cache_key(cfg, max_degree) + ".jsonl")
    invariants = _read_cache(path, cx)
    if invariants is None:
        _write_cache(path, cx)
    else:
        cx._invariants.update(invariants)
    return cx


# ---------------------------------------------------------------------------
# report plumbing

def _base_report(command, cfg, max_degree):
    return {
        "command": command,
        "convention_version": CONVENTION_VERSION,
        "ring": cfg.ring.describe(),
        "generators": [{"name": n, "degree": d}
                       for n, d in zip(cfg.gens.names, cfg.gens.degrees)],
        "truncation": {"max_degree": max_degree,
                       "max_resolution_degree":
                           cfg.bounds["max_resolution_degree"]},
        "errors": [],
    }


def _error_report(command, errors):
    """The report of a job that stopped before its command ran."""
    return {"command": command, "convention_version": CONVENTION_VERSION,
            "errors": errors}


def _torsion_json(torsion):
    return {str(n): factors for n, factors in torsion.items()}


def _coords_json(coords):
    return {",".join(str(i) for i in s): str(c)
            for s, c in sorted(coords.items())}


def _emit(report, json_path):
    if json_path is None:
        return
    text = json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    _write_atomic(json_path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# commands

def cmd_ranks(cfg, max_degree, out):
    report = _base_report("ranks", cfg, max_degree)
    data = homology_ranks(_complex_for(cfg, max_degree))
    ranks = data["ranks"]
    torsion = _torsion_json(data["torsion"])
    report["ranks"] = ranks
    report["torsion"] = torsion
    out.write("loop-space cohomology ranks over %s, degrees 0..%d\n"
              % (cfg.ring.describe(), max_degree))
    for n, r in enumerate(ranks):
        tors = torsion.get(str(n), [])
        extra = "  torsion %s" % tors if tors else ""
        out.write("  degree %2d  rank %d%s\n" % (n, r, extra))
    return report, 0


def cmd_ring(cfg, max_degree, out):
    report = _base_report("ring", cfg, max_degree)
    table = cfg.op_table()
    rt = RingTable(table, _complex_for(cfg, max_degree))
    entries = []
    for (s1, s2), e in rt.entries.items():
        entries.append({
            "left": list(s1),
            "right": list(s2),
            "coords": _coords_json(e["coords"]),
            "flags": e["flags"],
        })
    report["entries"] = entries
    report["flagged"] = sum(1 for e in entries if e["flags"])
    out.write("ring table: %d products of exterior classes\n"
              % len(entries))
    for e in entries:
        flag = ("  FLAGS: " + "; ".join(e["flags"])) if e["flags"] else ""
        out.write("  %s * %s = %s%s\n"
                  % (e["left"], e["right"], e["coords"] or "0", flag))
    return report, 0


def cmd_check_exterior(cfg, max_degree, out):
    report = _base_report("check-exterior", cfg, max_degree)
    table = cfg.op_table()
    verdict = exterior_verdict(table, _complex_for(cfg, max_degree))
    report["verdict"] = verdict["verdict"]
    report["ranks"] = verdict["ranks"]
    report["oracle"] = verdict["oracle"]
    report["torsion"] = _torsion_json(verdict["torsion"])
    report["flags"] = verdict["flags"]
    report["witness"] = verdict["witness"]
    out.write("verdict: %s\n" % verdict["verdict"])
    if verdict["witness"]:
        out.write("witness: %s\n" % json.dumps(verdict["witness"],
                                               sort_keys=True))
    for f in verdict["flags"]:
        out.write("flag: %s\n" % f)
    code = 1 if verdict["verdict"] == "inconclusive" else 0
    return report, code


def cmd_oracle_compare(cfg, max_degree, out):
    report = _base_report("oracle-compare", cfg, max_degree)
    data = homology_ranks(_complex_for(cfg, max_degree))
    ranks = data["ranks"]
    torsion = _torsion_json(data["torsion"])
    oracle = oracle_dimensions(cfg.gens, max_degree)
    report["ranks"] = ranks
    report["oracle"] = oracle
    report["torsion"] = torsion
    report["all_equal"] = ranks == oracle and not torsion
    out.write("degree  computed  oracle\n")
    for n, (a, b) in enumerate(zip(ranks, oracle)):
        out.write("  %4d  %8d  %6d%s\n"
                  % (n, a, b, "" if a == b else "  MISMATCH"))
    out.write("all_equal: %s\n" % report["all_equal"])
    return report, (0 if report["all_equal"] else 2)


def _suite(name, failures, checked, witnesses=()):
    return {"name": name, "checked": checked, "failures": failures,
            "witnesses": list(witnesses)[:10]}


def cmd_verify(cfg, max_degree, out):
    report = _base_report("verify", cfg, max_degree)
    gens = cfg.gens
    ring = cfg.ring
    suites = []

    # bar differential squares to zero, block by block; this refuses the
    # bounds ranks refuses before any suite lists words
    checked, failures = BarComplex(gens, max_degree).d_squared_failures()
    bad = [{"word": str(w), "degree": n} for n, w in failures]
    suites.append(_suite("bar_d_squared", len(bad), checked, bad))

    # the resolution basis and Differential, shared by the three
    # resolution suites; each (res, internal) key lists the same words
    # whatever the bounds, which only filter letters and prefixes
    bound = cfg.bounds["max_resolution_degree"]
    d = Differential(gens)
    basis = enumerate_rh_basis(gens, r_min=min(bound, -2),
                               n_max=min(max_degree, 10))

    # resolution differential squares to zero
    bad = []
    checked = 0
    for (r, _n), words in basis.items():
        if r < bound:
            continue
        for word in words:
            checked += 1
            dd = d.of_element(d.of_element({word: ring.one()}))
            if any(not ring.is_zero(c) for c in dd.values()):
                bad.append({"word": word_str(gens, word)})
    suites.append(_suite("resolution_d_squared", len(bad), checked, bad))

    # hexagon relation on generator triples
    bad = []
    checked = 0
    for t in itertools.product(range(len(gens.names)), repeat=3):
        if sum(gens.degrees[i] for i in t) > max_degree + 2:
            continue
        checked += 1
        if not check_hexagon(d, *t):
            bad.append({"triple": list(t)})
    suites.append(_suite("hexagon", len(bad), checked, bad))

    # operation-table boundary relations (characteristic 2 only)
    table = cfg.op_table()
    if ring.char == 2:
        rel_bound = min(max_degree, 8)
        viol = check_derivation_relations(table, rel_bound)
        suites.append(_suite("derivation_relations", len(viol),
                             1, [str(v) for v in viol]))
        cases = check_sq_specialization_cases(table, rel_bound)
        mism = [c for c in cases if not c[2]]
        suites.append(_suite("sq_specialization", len(mism), len(cases),
                             [str(c) for c in mism]))

    # product is a chain map at low weights
    cm_bound = min(max_degree, 8)
    bad = check_chain_map(table, ((1, 1), (1, 2), (2, 1)), cm_bound)
    suites.append(_suite("chain_map_low_weight", len(bad), 3,
                         [str(b) for b in bad]))

    # contraction iteration terminates on low resolution degrees
    sit_cap = min(max_degree, 8)
    bad = []
    checked = 0
    for (r, n), words in sorted(basis.items()):
        if not -2 <= r < 0 or n > sit_cap:
            continue
        for word in words:
            checked += 1
            got = verify_siteration(d, {word: ring.one()},
                                    cfg.bounds["iteration_cap"])
            if isinstance(got, dict):
                bad.append({"word": word_str(gens, word)})
    suites.append(_suite("contraction_iteration", len(bad), checked, bad))

    report["suites"] = suites
    failures = sum(s["failures"] for s in suites)
    report["all_passed"] = failures == 0
    for s in suites:
        out.write("%-24s checked %5d  failures %d\n"
                  % (s["name"], s["checked"], s["failures"]))
    out.write("all passed: %s\n" % report["all_passed"])
    return report, (0 if failures == 0 else 2)


COMMANDS = {
    "ranks": cmd_ranks,
    "ring": cmd_ring,
    "check-exterior": cmd_check_exterior,
    "verify": cmd_verify,
    "oracle-compare": cmd_oracle_compare,
}


# ---------------------------------------------------------------------------
# command line

# the usage and help argparse printed for this command line at 80 columns
USAGE = """\
usage: loopcoh [-h] --config CONFIG [--max-degree MAX_DEGREE] [--json OUT]
               [--cache-dir DIR]
               {check-exterior,oracle-compare,ranks,ring,verify}
"""

HELP = USAGE + """
Loop-space cohomology of polynomial algebras: ranks, ring structure and
exterior-algebra checks.

positional arguments:
  {check-exterior,oracle-compare,ranks,ring,verify}

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to a JSON job description
  --max-degree MAX_DEGREE
                        override the degree bound from the config
  --json OUT            write the machine-readable report here
  --cache-dir DIR       override the cache directory from the config
"""

# every option string, in the order prefixes are matched, and the
# argument it sets
_OPTIONS = {"-h": "help", "--help": "help", "--config": "config",
            "--max-degree": "max_degree", "--json": "json",
            "--cache-dir": "cache_dir"}
# a negative number is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg, faults):
    """(argument, explicit value or None) of the option arg names: its
    string, that string with =VALUE, a unique prefix of a long option, or
    -h with text run on; the argument is None for an option the CLI does
    not have.  None when arg is a value: no leading dash, a lone dash, a
    negative number or a blank inside.  An ambiguous prefix adds its
    fault to faults and reads as an unknown option."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in _OPTIONS:
        return _OPTIONS[arg], None
    name, eq, value = arg.partition("=")
    if eq and name in _OPTIONS:
        return _OPTIONS[name], value
    if arg.startswith("--"):
        matches = [o for o in _OPTIONS if o.startswith(name)]
        value = value if eq else None
    else:
        matches = ["-h"] if arg.startswith("-h") else []
        value = arg[2:]
    if len(matches) > 1:
        faults.append(f"ambiguous option: {arg} could match "
                      f"{', '.join(matches)}")
        return None, None
    if matches:
        return _OPTIONS[matches[0]], value
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def parse_args(argv):
    """The arguments of the command line argv, read as argparse reads
    them, and the message of the first fault argparse reports, or None.
    The arguments are a dict of command, config, max_degree (an int),
    json, cache_dir, each None unless given (a repeated option keeps
    its last value), and help.  The walk goes on past a fault, so that
    --json is read wherever it stands; it stops at -h when no fault
    came before.  After "--" every argument is a value."""
    args = dict.fromkeys(("command", "config", "max_degree", "json",
                          "cache_dir"))
    args["help"] = False
    faults = []
    # every argument is classified, and every ambiguous prefix found,
    # before any value is read
    kinds, rest = [], False
    for arg in argv:
        kinds.append(None if rest else "--" if arg == "--"
                     else _option(arg, faults))
        rest = rest or arg == "--"
    command_at = None
    extras = []
    i = 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind == "--":
            # taken with the command's value next to it, or left over
            if command_at not in (None, i - 2):
                extras.append(arg)
            continue
        if kind is None:
            if command_at is not None:
                extras.append(arg)
                continue
            command_at = i - 1
            if arg in COMMANDS:
                args["command"] = arg
            else:
                choices = ", ".join(map(repr, sorted(COMMANDS)))
                faults.append(f"argument command: invalid choice: {arg!r} "
                              f"(choose from {choices})")
            continue
        dest, value = kind
        if dest is None:
            extras.append(arg)
        elif dest == "help":
            if value is not None:
                faults.append("argument -h/--help: ignored explicit "
                              f"argument {value!r}")
            elif not faults:
                args["help"] = True
                return args, None
        else:
            if value is None:
                if i == len(argv) or kinds[i] is not None:
                    option = "--" + dest.replace("_", "-")
                    faults.append(f"argument {option}: expected one argument")
                    continue
                value = argv[i]
                i += 1
            if dest == "max_degree":
                try:
                    value = ascii_int(value)
                except ValueError:
                    faults.append("argument --max-degree: invalid int "
                                  f"value: {value!r}")
                    continue
            args[dest] = value
    missing = [name for name, dest in (("command", "command"),
                                       ("--config", "config"))
               if args[dest] is None]
    if missing:
        faults.append("the following arguments are required: "
                      + ", ".join(missing))
    if extras:
        faults.append("unrecognized arguments: " + " ".join(extras))
    return args, (faults[0] if faults else None)


def _config(args):
    """The job's config with the command-line overrides applied, and its
    degree bound; raises ConfigError when the file cannot be read or
    the job is invalid."""
    try:
        with open(args["config"], "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError([f"{type(exc).__name__}: {exc}"]) from exc
    cfg = parse_config(text)
    if args["cache_dir"] is not None:
        cfg.cache_dir = args["cache_dir"]
    max_degree = args["max_degree"] if args["max_degree"] is not None \
        else cfg.bounds["max_degree"]
    if max_degree < 1:
        raise ConfigError(["max degree must be positive"])
    return cfg, max_degree


def _run(args, out):
    """Run the command args name; returns its report and exit code."""
    try:
        cfg, max_degree = _config(args)
    except ConfigError as exc:
        for p in exc.problems:
            out.write("config error: %s\n" % p)
        return _error_report(args["command"], exc.problems), 2
    t0 = time.perf_counter()
    try:
        report, code = COMMANDS[args["command"]](cfg, max_degree, out)
    except (AlgebraError, HomologyError, OSError, ResolutionError,
            ResourceCapError, RingError) as exc:
        # an OSError comes from making the cache directory or writing
        # its entry
        message = f"{type(exc).__name__}: {exc}"
        out.write("error: %s\n" % message)
        report = _base_report(args["command"], cfg, max_degree)
        report["errors"] = [message]
        return report, 1 if isinstance(exc, ResourceCapError) else 2
    out.write("elapsed: %.2f s\n" % (time.perf_counter() - t0))
    return report, code


def main(argv=None, out=None):
    """Run the command line argv (sys.argv[1:] by default), writing the
    text report to out (sys.stdout by default); returns the exit code.
    -h writes the help and raises SystemExit(0).  A usage error writes
    argparse's usage and error lines to stderr and the JSON report, and
    raises SystemExit(2)."""
    out = out or sys.stdout
    args, fault = parse_args(sys.argv[1:] if argv is None else argv)
    if args["help"]:
        out.write(HELP)
        raise SystemExit(0)
    if fault is None:
        report, code = _run(args, out)
    else:
        sys.stderr.write(f"{USAGE}loopcoh: error: {fault}\n")
        report, code = _error_report(args["command"], [fault]), 2
    try:
        _emit(report, args["json"])
    except OSError as exc:
        out.write("error: cannot write the JSON report: %s\n" % exc)
        code = 2
    if fault is not None:
        raise SystemExit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
