import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from loopcoh import bar
from loopcoh.cli import _cache_key, _read_cache, main, parse_args
from loopcoh.config import parse_config
from loopcoh.homology import BarComplex
from loopcoh.koszul import oracle_dimensions
from loopcoh.linalg import DEFAULT_DIMENSION_CAP
from loopcoh.polynomial import GeneratorSet
from loopcoh.rings import RingSpec
from references import block_words, build_parser


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def z_single(tmp_path, **extra):
    doc = {"ring": "Z",
           "generators": [{"name": "x2", "degree": 2}],
           "bounds": {"max_degree": 6}}
    doc.update(extra)
    return write_config(tmp_path, doc)


def f2_pair(tmp_path):
    return write_config(tmp_path, {
        "ring": "F2",
        "generators": [{"name": "u2", "degree": 2},
                       {"name": "u3", "degree": 3}],
        "sq1": {"u2": "u3"},
        "bounds": {"max_degree": 6},
    })


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def _assert_report(json_path, command, errors):
    report = json.loads(open(json_path).read())
    assert report == {"command": command, "convention_version": 1,
                      "errors": errors}


def test_ranks_exit_zero(tmp_path):
    cfg = z_single(tmp_path)
    json_path = str(tmp_path / "out.json")
    code, text = run(["ranks", "--config", cfg, "--json", json_path])
    assert code == 0
    assert "elapsed" in text
    report = json.loads(open(json_path).read())
    assert report["command"] == "ranks"
    assert report["ranks"][:3] == [1, 1, 0]
    assert report["convention_version"] == 1
    assert "elapsed" not in json.dumps(report)


def test_check_exterior_witness(tmp_path):
    cfg = f2_pair(tmp_path)
    json_path = str(tmp_path / "out.json")
    code, text = run(["check-exterior", "--config", cfg,
                      "--json", json_path])
    assert code == 0
    report = json.loads(open(json_path).read())
    assert report["verdict"] == "not_exterior"
    assert report["witness"]["kind"] == "square"


def test_oracle_compare_all_equal(tmp_path):
    cfg = z_single(tmp_path)
    code, text = run(["oracle-compare", "--config", cfg])
    assert code == 0
    assert "all_equal: True" in text


def test_verify_passes(tmp_path):
    cfg = f2_pair(tmp_path)
    code, text = run(["verify", "--config", cfg])
    assert code == 0
    assert "all passed: True" in text


def test_verify_at_a_deep_resolution_degree_ends_quickly(tmp_path):
    """No resolution word of F2[u2,u3] fits internal degree 9 below
    resolution degree -6, so -40 lists and checks what -6 does."""
    reports = {}
    for r in (-6, -40):
        cfg = write_config(tmp_path, {
            "ring": "F2",
            "generators": [{"name": "u2", "degree": 2},
                           {"name": "u3", "degree": 3}],
            "sq1": {"u2": "u3"},
            "bounds": {"max_degree": 9, "max_resolution_degree": r}},
            name=f"r{-r}.json")
        json_path = str(tmp_path / f"r{-r}.out.json")
        start = time.perf_counter()
        code, _ = run(["verify", "--config", cfg, "--json", json_path])
        assert time.perf_counter() - start < 10
        report = json.loads(open(json_path).read())
        assert report["truncation"].pop("max_resolution_degree") == r
        reports[r] = (code, report)
    assert reports[-40] == reports[-6]


def test_ring_table(tmp_path):
    cfg = f2_pair(tmp_path)
    json_path = str(tmp_path / "out.json")
    code, _ = run(["ring", "--config", cfg, "--json", json_path])
    assert code == 0
    report = json.loads(open(json_path).read())
    squares = [e for e in report["entries"]
               if e["left"] == [0] and e["right"] == [0]]
    assert squares and squares[0]["coords"] == {"1": "1"}


def test_invalid_config_exit_two(tmp_path):
    cfg = write_config(tmp_path, {"ring": "Z", "generators": [
        {"name": "x", "degree": 3}]})
    code, text = run(["ranks", "--config", cfg])
    assert code == 2
    assert "config error" in text


def test_missing_file_exit_two(tmp_path):
    json_path = str(tmp_path / "out.json")
    code, text = run(["ranks", "--config", str(tmp_path / "nope.json"),
                      "--json", json_path])
    assert code == 2
    (message,) = json.loads(open(json_path).read())["errors"]
    assert message.startswith("FileNotFoundError: ")
    _assert_report(json_path, "ranks", [message])
    assert "config error: " + message in text


def test_max_degree_override(tmp_path):
    cfg = z_single(tmp_path)
    json_path = str(tmp_path / "out.json")
    code, _ = run(["ranks", "--config", cfg, "--max-degree", "3",
                   "--json", json_path])
    assert code == 0
    report = json.loads(open(json_path).read())
    assert len(report["ranks"]) == 4
    assert report["truncation"]["max_degree"] == 3


def test_max_degree_takes_ascii_digits_only(tmp_path, capsys):
    # int() reads "٣" as 3, so "--max-degree ٣" once ran to degree 3
    cfg = z_single(tmp_path)
    for bad in ("٣", "３", "1_0"):
        with pytest.raises(SystemExit) as exc:
            run(["ranks", "--config", cfg, "--max-degree", bad])
        assert exc.value.code == 2
        assert f"argument --max-degree: invalid int value: {bad!r}" \
            in capsys.readouterr().err


# command lines for the parser and argparse to read alike: each reads to
# the same values, or fails with the same exit code and error line
ARGV_CASES = [
    ["ranks", "--config", "c.json"],
    ["--config", "c.json", "ranks"],
    ["--json", "o.json", "verify", "--cache-dir", "d", "--config", "c.json",
     "--max-degree", "7"],
    ["ring", "--config=c.json", "--max-degree=5", "--json=o.json",
     "--cache-dir="],
    ["ranks", "--conf", "c.json", "--cache", "d", "--max", "4", "--js=o"],
    ["ranks", "--c", "c.json"],
    ["ranks", "--c=c.json", "--config", "c.json"],
    ["ranks", "--config", "a", "--config", "b", "--max-degree", "3",
     "--max-degree", "4", "--json", "x", "--json", "y"],
    ["ranks", "--config"],
    ["ranks", "--config", "--json", "o.json"],
    ["ranks", "--config", "c.json", "--max-degree"],
    ["ranks", "--config", "c.json", "--bogus"],
    ["ranks", "-x", "--config", "c.json"],
    ["--bogus", "ranks", "--config", "c.json"],
    ["ranks", "--config", "c.json", "extra", "more"],
    ["foo", "--config", "c.json"],
    ["foo", "--max-degree", "٣"],
    [],
    ["ranks"],
    ["--config", "c.json"],
    ["ranks", "--config", "c.json", "--max-degree", "-3"],
    ["ranks", "--config", "c.json", "--max-degree", "٣"],
    ["ranks", "--config", "c.json", "--max-degree", "３"],
    ["ranks", "--config", "c.json", "--max-degree", "1_0"],
    ["ranks", "--config", "c.json", "--max-degree", "-3.5"],
    ["ranks", "--config", "-a b", "--max-degree", "+2"],
    ["--config", "c.json", "--", "ranks"],
    ["--config", "c.json", "ranks", "--", "x"],
    ["ranks", "--config", "c.json", "--", "x"],
    ["ranks", "--config", "--", "c.json"],
    ["-h"],
    ["ranks", "--he", "--bogus"],
    ["--help=x"],
    ["-hx"],
    ["foo", "-h"],
    ["ranks", "--config", "c.json", "--max-degree", "٣", "--help"],
]


@pytest.mark.parametrize("argv", ARGV_CASES,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_the_parser_reads_argv_as_argparse_did(tmp_path, monkeypatch,
                                               capsys, argv):
    # argparse wraps its help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    try:
        expected = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        expected = exc.code
    want = capsys.readouterr()
    args, fault = parse_args(argv)
    if isinstance(expected, dict):
        assert fault is None and not args.pop("help")
        assert args == expected
        return
    with pytest.raises(SystemExit) as exc:
        main(argv, out=sys.stdout)
    got = capsys.readouterr()
    assert exc.value.code == expected
    assert got.err.splitlines()[-1:] == want.err.splitlines()[-1:]
    assert got.out == want.out


def test_a_usage_error_writes_the_json_report(tmp_path, capsys):
    cfg = z_single(tmp_path)
    json_path = str(tmp_path / "out.json")
    fault = "argument --max-degree: invalid int value: '٣'"
    with pytest.raises(SystemExit) as exc:
        run(["ranks", "--config", cfg, "--max-degree", "٣",
             "--json", json_path])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"loopcoh: error: {fault}\n")
    _assert_report(json_path, "ranks", [fault])
    # the command is null when it was never read
    with pytest.raises(SystemExit) as exc:
        run(["--json", json_path, "--config", cfg])
    assert exc.value.code == 2
    _assert_report(json_path, None,
                   ["the following arguments are required: command"])


def test_cold_and_warm_cache_byte_identical(tmp_path):
    cfg = z_single(tmp_path)
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    code1, _ = run(["ranks", "--config", cfg, "--cache-dir", cache,
                    "--json", out1])
    assert code1 == 0
    assert os.listdir(cache)  # the cache was populated
    code2, _ = run(["ranks", "--config", cfg, "--cache-dir", cache,
                    "--json", out2])
    assert code2 == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cache_does_not_change_values(tmp_path):
    cfg = f2_pair(tmp_path)
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    run(["ranks", "--config", cfg, "--json", out1])
    run(["ranks", "--config", cfg, "--cache-dir", cache, "--json", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_ranks_rational_pair_degree_eleven(tmp_path):
    cfg = write_config(tmp_path, {
        "ring": "Q",
        "generators": [{"name": "x2", "degree": 2},
                       {"name": "y2", "degree": 2}],
    })
    json_path = str(tmp_path / "out.json")
    code, _ = run(["ranks", "--config", cfg, "--max-degree", "11",
                   "--json", json_path])
    assert code == 0
    report = json.loads(open(json_path).read())
    gens = GeneratorSet(("x2", "y2"), (2, 2), RingSpec.rationals())
    assert report["ranks"] == oracle_dimensions(gens, 11)
    assert report["torsion"] == {}


def test_check_exterior_fills_the_cache(tmp_path):
    cfg = f2_pair(tmp_path)
    cache = tmp_path / "cache"
    code, _ = run(["check-exterior", "--config", cfg,
                   "--cache-dir", str(cache)])
    assert code == 0
    assert os.listdir(cache)


# the module that defines each error class a command may raise
ERROR_MODULES = {"ResourceCapError": "loopcoh.linalg",
                 "ResolutionError": "loopcoh.resolution",
                 "OSError": "builtins", "RingError": "loopcoh.rings",
                 "HomologyError": "loopcoh.homology",
                 "AlgebraError": "loopcoh.polynomial"}


@pytest.mark.parametrize("name, args, code", [
    ("ResourceCapError", ("boom",), 1),
    ("ResolutionError", ("boom",), 2),
    ("OSError", ("boom",), 2),
    ("RingError", ("boom",), 2),
    ("HomologyError", ("boom",), 2),
    ("AlgebraError", ("boom",), 2),
])
def test_command_errors_exit_with_report(tmp_path, monkeypatch, capsys,
                                         name, args, code):
    import importlib

    import loopcoh.cli as cli
    exc = getattr(importlib.import_module(ERROR_MODULES[name]), name)(*args)

    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(cli, "homology_ranks", fail)
    cfg = z_single(tmp_path)
    json_path = str(tmp_path / "out.json")
    got, text = run(["ranks", "--config", cfg, "--json", json_path])
    assert got == code
    report = json.loads(open(json_path).read())
    assert report["command"] == "ranks"
    assert report["errors"] == [f"{name}: {exc}"]
    assert f"error: {name}: {exc}" in text
    captured = capsys.readouterr()
    assert "Traceback" not in text + captured.out + captured.err


def _corrupt_entry(data):
    # one block gains the invariant factor 5, the digest line left as
    # it was
    return data.replace(b',[]]', b',[5]]', 1)


def _garbage(data):
    return b"not a cache file\n{"


def _deeply_nested(data):
    # a digest line nested past what the JSON decoder follows
    return b"[" * 100000 + b"\n" + data.partition(b"\n")[2]


def _redigested(data, edit):
    """data with edit applied to the [rows, cols, rank, factors] list of
    its first block, under a valid digest of the new payload."""
    doc = json.loads(data.partition(b"\n")[2])
    edit(next(b for _, b in sorted(doc["blocks"].items()) if b)[0])
    payload = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode()
    digest = json.dumps({"sha256": hashlib.sha256(payload).hexdigest()})
    return digest.encode() + b"\n" + payload


def _wrong_shape(data):
    # the first block gains a row
    def edit(block):
        block[0] += 1
    return _redigested(data, edit)


def _rank_too_large(data):
    # the first block's rank exceeds the smaller side of its shape
    def edit(block):
        block[2] = min(block[0], block[1]) + 1
    return _redigested(data, edit)


@pytest.mark.parametrize("corrupt", [_corrupt_entry, _garbage,
                                     _deeply_nested, _wrong_shape,
                                     _rank_too_large])
def test_invalid_cache_entry_is_recomputed(tmp_path, capsys, corrupt):
    cfg = z_single(tmp_path)
    cache = tmp_path / "cache"
    fresh = str(tmp_path / "fresh.json")
    out = str(tmp_path / "out.json")
    args = ["ranks", "--config", cfg, "--max-degree", "4"]
    assert run(args + ["--json", fresh])[0] == 0
    assert run(args + ["--cache-dir", str(cache)])[0] == 0
    (entry,) = cache.iterdir()
    data = entry.read_bytes()
    assert corrupt(data) != data
    entry.write_bytes(corrupt(data))
    code, text = run(args + ["--cache-dir", str(cache), "--json", out])
    assert code == 0
    assert "torsion" not in text
    assert open(out, "rb").read() == open(fresh, "rb").read()
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # the entry was rewritten and is read back as valid
    assert entry.read_bytes() == data
    cx = BarComplex(parse_config(open(cfg).read()).gens, 4)
    assert _read_cache(str(entry), cx) is not None


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_warm_ranks_assembles_and_eliminates_nothing(tmp_path, monkeypatch,
                                                     ring):
    import loopcoh.homology as homology
    cfg = write_config(tmp_path, {
        "ring": ring,
        "generators": [{"name": "x2", "degree": 2},
                       {"name": "y2", "degree": 2}],
        "bounds": {"max_degree": 6}})
    args = ["ranks", "--config", cfg, "--cache-dir", str(tmp_path / "c")]
    cold = str(tmp_path / "cold.json")
    warm = str(tmp_path / "warm.json")
    assert run(args + ["--json", cold])[0] == 0

    def fail(*_args, **_kwargs):
        raise AssertionError("a warm ranks run computed a block")

    for name in ("_block_columns", "matrix_invariants"):
        monkeypatch.setattr(homology, name, fail)
    assert run(args + ["--json", warm])[0] == 0
    assert open(warm, "rb").read() == open(cold, "rb").read()


def test_blocks_are_assembled_once_per_orbit_and_where_products_reach(
        tmp_path, monkeypatch):
    import loopcoh.homology as homology
    doc = {"ring": "F2",
           "generators": [{"name": n, "degree": d} for n, d in
                          (("v2", 2), ("w2", 2), ("t3", 3), ("u3", 3))],
           "sq1": {"v2": "t3", "u3": "v2 w2"},
           "bounds": {"max_degree": 8}}
    cfg = write_config(tmp_path, doc)
    cx = BarComplex(parse_config(json.dumps(doc)).gens, 8)
    assert sum(len(cx.block_shapes(n)) for n in range(9)) == 326
    calls = {"_columns": 0, "_block_columns": 0, "word": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(homology.BarComplex, "_columns")
    counted(homology, "_block_columns")
    counted(homology._Letters, "word")
    tables = []

    class CountedLetters(homology._Letters):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(homology, "_Letters", CountedLetters)
    cache = ["--cache-dir", str(tmp_path / "c")]
    # over F2 any permutation of the four generators is an automorphism,
    # so the 326 boundary blocks fall into 78 orbits, on the block
    # complexes of 37 representatives; the walk up each assembles one
    # block a step, 78 in all, and builds no word
    assert run(["ranks", "--config", cfg] + cache)[0] == 0
    assert calls == {"_columns": 78, "_block_columns": 78, "word": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert run(["ranks", "--config", cfg] + cache)[0] == 0
    assert calls == {"_columns": 0, "_block_columns": 0, "word": 0}
    products = []

    def counted_product(*args):
        products.append(args)
        return product(*args)

    product = bar.muE_product
    monkeypatch.setattr(bar, "muE_product", counted_product)
    # the verdict forms ring entries only up to its witness, the square
    # of the class of v2, which is the first: one product, reduced in one
    # block, whose domain is empty, so that nothing is assembled there.
    # The walk and the ring table code their words on the bar complex's
    # one letter table.
    tables.clear()
    calls.update(dict.fromkeys(calls, 0))
    assert run(["check-exterior", "--config", cfg])[0] == 0
    assert calls == {"_columns": 78 + 1, "_block_columns": 78, "word": 0}
    assert len(products) == 1
    assert len(tables) == 1
    # the full ring table forms all 190 products; they reach 20 blocks,
    # and it builds the matrix into each once, assembling the 8 with a
    # nonempty domain; it ranks the words of the products and builds
    # none.  ring reads no invariants, so there is no walk.
    products.clear()
    calls.update(dict.fromkeys(calls, 0))
    assert run(["ring", "--config", cfg])[0] == 0
    assert calls == {"_columns": 20, "_block_columns": 8, "word": 0}
    assert len(products) == 190


def test_a_verdict_against_the_theorem_exits_two(tmp_path, monkeypatch):
    # without its mixed shapes the twisted product is the shuffle product,
    # and the exterior-f2 algebra would read as exterior; Sq1(v2) = t3 is
    # indecomposable, so the theorem refuses that verdict
    from loopcoh.hirsch_ops import HirschOpTable
    monkeypatch.setattr(HirschOpTable, "mixed_shapes", lambda self: [])
    cfg = write_config(tmp_path, GOLDEN_CONFIGS["f2-four"])
    json_path = str(tmp_path / "out.json")
    code, text = run(["check-exterior", "--config", cfg, "--json",
                      json_path])
    error = ("HomologyError: the verdict is exterior, but Sq1(v2) = t3 is "
             "indecomposable, so the square of the class of v2 is nonzero "
             "in degree 2")
    assert code == 2
    assert json.loads(open(json_path).read())["errors"] == [error]
    assert f"error: {error}" in text


def test_a_word_the_ring_table_cannot_rank_exits_two(tmp_path,
                                                     monkeypatch):
    # a product holding a word with a unit letter, read as a cocycle: its
    # degree and vector name a block, where it is no bar word
    word = ((1, 0), (0, 0), (0, 1))
    monkeypatch.setattr(bar, "muE_product",
                        lambda table, x, y: {word: table.gens.ring.one()})
    monkeypatch.setattr(bar, "bar_differential", lambda gens, x: {})
    cfg = write_config(tmp_path, GOLDEN_CONFIGS["q-pair"])
    json_path = str(tmp_path / "out.json")
    code, text = run(["ring", "--config", cfg, "--json", json_path])
    error = f"HomologyError: word outside enumerated basis: {word!r}"
    assert code == 2
    assert json.loads(open(json_path).read())["errors"] == [error]
    assert f"error: {error}" in text
    assert "Traceback" not in text


Q_PAIR = {"ring": "Q", "generators": [{"name": "x2", "degree": 2},
                                     {"name": "y2", "degree": 2}],
          "bounds": {"max_degree": 6}}


# the modules of the commands that build no ring table
RINGLESS = ["loopcoh.bar", "loopcoh.hirsch_ops", "loopcoh.resolution"]


@pytest.mark.parametrize("command, doc, makes_fractions, unused", [
    ("check-exterior",
     {"ring": "F2",
      "generators": [{"name": n, "degree": d} for n, d in
                     (("v2", 2), ("w2", 2), ("t3", 3), ("u3", 3))],
      "sq1": {"v2": "t3", "u3": "v2 w2"}, "bounds": {"max_degree": 6}},
     False, ["loopcoh.resolution"]),
    ("ranks", dict(Q_PAIR, ring="Z"), False, RINGLESS),
    # its elimination runs on ints
    ("ranks", Q_PAIR, False, RINGLESS),
    ("verify",
     {"ring": "F2", "generators": [{"name": "u2", "degree": 2},
                                   {"name": "u3", "degree": 3}],
      "sq1": {"u2": "u3"}, "bounds": {"max_degree": 6}},
     False, []),
    # the control: the ring table's coordinates are Fractions
    ("ring", Q_PAIR, True, ["loopcoh.resolution"]),
], ids=["F2 check-exterior", "Z ranks", "Q ranks", "F2 verify", "Q ring"])
def test_a_job_loads_only_what_it_runs(tmp_path, command, doc,
                                       makes_fractions, unused):
    # argparse with gettext and locale, fractions with the decimal and
    # numbers modules it loads, and hashlib with OpenSSL are each a good
    # part of the import time of a job, and a command loads the loopcoh
    # modules of no other command; a fresh interpreter runs the command
    # cold and then warm from a cache
    cfg = write_config(tmp_path, doc)
    argv = [command, "--config", cfg, "--cache-dir", str(tmp_path / "c")]
    absent = {"argparse", "gettext", "locale", "fractions", "hashlib",
              "_hashlib", *unused}
    script = ("import io, sys\n"
              "from loopcoh.cli import main\n"
              f"codes = [main({argv!r}, io.StringIO()) for _ in range(2)]\n"
              f"print(codes, sorted(set(sys.modules) & {absent!r}))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = ["fractions"] if makes_fractions else []
    assert out.splitlines()[-1] == f"[0, 0] {loaded}"


@pytest.mark.parametrize("command", ["ranks", "check-exterior", "verify"])
def test_a_block_over_the_cap_is_refused_before_any_is_assembled(
        tmp_path, monkeypatch, command):
    import loopcoh.homology as homology
    # on Q[x2,y2] the first block over the cap is one of d from degree
    # 13; degrees 0 to 12 are within it
    cfg = write_config(tmp_path, {
        "ring": "Q",
        "generators": [{"name": "x2", "degree": 2},
                       {"name": "y2", "degree": 2}],
        "bounds": {"max_degree": 13}})

    def fail(*_args):
        raise AssertionError("a block was assembled or a word ranked")

    monkeypatch.setattr(homology, "_block_columns", fail)
    monkeypatch.setattr(homology._Starts, "__missing__", fail)
    json_path = str(tmp_path / "out.json")
    code, text = run([command, "--config", cfg, "--json", json_path])
    assert code == 1
    error = f"ResourceCapError: matrix 22980x6402 exceeds cap " \
        f"{DEFAULT_DIMENSION_CAP}"
    assert json.loads(open(json_path).read())["errors"] == [error]
    assert f"error: {error}" in text


def test_a_sign_flipped_in_the_block_matrices_fails_bar_d_squared(
        tmp_path, monkeypatch):
    import loopcoh.homology as homology
    original = homology._block_columns

    def flipped(*args):
        # negate one entry of the first column with more than one term
        columns = original(*args)
        for col in columns:
            if len(col) > 1:
                row = min(col)
                col[row] = -col[row]
                break
        return columns

    monkeypatch.setattr(homology, "_block_columns", flipped)
    doc = {"ring": "Q",
           "generators": [{"name": "x2", "degree": 2},
                          {"name": "y2", "degree": 2}],
           "bounds": {"max_degree": 6}}
    cfg = write_config(tmp_path, doc)
    json_path = str(tmp_path / "out.json")
    code, _ = run(["verify", "--config", cfg, "--json", json_path])
    assert code == 2
    suites = {s["name"]: s
              for s in json.loads(open(json_path).read())["suites"]}
    suite = suites.pop("bar_d_squared")
    assert suite["failures"] > 0
    assert {s["failures"] for s in suites.values()} == {0}
    # each witness is a word of its degree, recovered from its index
    cx = BarComplex(parse_config(json.dumps(doc)).gens, 6)
    for witness in suite["witnesses"]:
        n = witness["degree"]
        assert witness["word"] in {str(w) for v in cx.counts(n)
                                   for w in block_words(cx, n, v)}


def test_cache_dir_that_is_a_file_exits_with_report(tmp_path, capsys):
    cfg = z_single(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    json_path = str(tmp_path / "out.json")
    code, text = run(["ranks", "--config", cfg, "--cache-dir",
                      str(blocker), "--json", json_path])
    assert code == 2
    report = json.loads(open(json_path).read())
    (error,) = report["errors"]
    assert error.startswith("FileExistsError: ")
    assert "error: " + error in text
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_undecodable_config_exits_with_report(tmp_path):
    config = tmp_path / "job.json"
    config.write_bytes(b"\xff{}")
    json_path = str(tmp_path / "out.json")
    code, text = run(["ranks", "--config", str(config),
                      "--json", json_path])
    assert code == 2
    (message,) = json.loads(open(json_path).read())["errors"]
    assert message.startswith("UnicodeDecodeError: ")
    _assert_report(json_path, "ranks", [message])
    assert "config error: " + message in text


def test_max_degree_zero_exits_with_report(tmp_path):
    json_path = str(tmp_path / "out.json")
    code, text = run(["oracle-compare", "--config", z_single(tmp_path),
                      "--max-degree", "0", "--json", json_path])
    assert code == 2
    _assert_report(json_path, "oracle-compare",
                   ["max degree must be positive"])
    assert "config error: max degree must be positive" in text


def test_unwritable_json_path_exits_two(tmp_path, capsys):
    json_path = str(tmp_path / "nodir" / "out.json")
    code, text = run(["ranks", "--config", z_single(tmp_path),
                      "--json", json_path])
    assert code == 2
    assert "error: cannot write the JSON report" in text
    assert not os.path.exists(json_path)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_json_path_that_is_a_directory_leaves_no_temp_file(tmp_path):
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    code, text = run(["ranks", "--config", z_single(tmp_path),
                      "--json", str(outdir)])
    assert code == 2
    assert "error: cannot write the JSON report" in text
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_cache_entry_that_is_a_directory_leaves_no_temp_file(tmp_path):
    cache = tmp_path / "cache"
    json_path = str(tmp_path / "out.json")
    args = ["ranks", "--config", z_single(tmp_path), "--max-degree", "4",
            "--cache-dir", str(cache)]
    assert run(args)[0] == 0
    (entry,) = cache.iterdir()
    entry.unlink()
    entry.mkdir()
    code, text = run(args + ["--json", json_path])
    assert code == 2
    (error,) = json.loads(open(json_path).read())["errors"]
    assert error.startswith("IsADirectoryError: ")
    assert list(cache.iterdir()) == [entry]


def test_cache_key_ignores_cache_dir(tmp_path):
    doc = {"ring": "Z", "generators": [{"name": "x2", "degree": 2}],
           "bounds": {"max_degree": 6}}
    plain = parse_config(json.dumps(doc))
    here = parse_config(json.dumps(dict(doc, cache_dir="here")))
    there = parse_config(json.dumps(dict(doc, cache_dir="there")))
    assert _cache_key(plain, 6) == _cache_key(here, 6) == \
        _cache_key(there, 6)
    # a field that changes results still changes the key
    other = parse_config(json.dumps(dict(doc, ring="Q")))
    assert _cache_key(other, 6) != _cache_key(plain, 6)


def test_ring_reads_and_fills_the_cache(tmp_path, capsys):
    cfg = f2_pair(tmp_path)
    cache = tmp_path / "cache"
    fresh = str(tmp_path / "fresh.json")
    out = str(tmp_path / "out.json")
    args = ["ring", "--config", cfg]
    assert run(args + ["--json", fresh])[0] == 0
    expected = open(fresh, "rb").read()
    for _ in ("cold", "warm"):
        assert run(args + ["--cache-dir", str(cache), "--json", out])[0] == 0
        assert open(out, "rb").read() == expected
    (entry,) = cache.iterdir()
    data = entry.read_bytes()
    entry.write_bytes(_corrupt_entry(data))
    assert run(args + ["--cache-dir", str(cache), "--json", out])[0] == 0
    assert open(out, "rb").read() == expected
    assert entry.read_bytes() == data
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# The four benchmark algebras, as perfbench/workloads.py builds them, with
# its plain generator names.
GOLDEN_CONFIGS = {
    "q-pair": {"ring": "Q",
               "generators": [{"name": "x2", "degree": 2},
                              {"name": "y2", "degree": 2}],
               "bounds": {"max_degree": 9}},
    "z-pair": {"ring": "Z",
               "generators": [{"name": "x2", "degree": 2},
                              {"name": "y2", "degree": 2}],
               "bounds": {"max_degree": 8}},
    "f2-pair": {"ring": "F2",
                "generators": [{"name": "u2", "degree": 2},
                               {"name": "u3", "degree": 3}],
                "sq1": {"u2": "u3"},
                "bounds": {"max_degree": 9}},
    "f2-four": {"ring": "F2",
                "generators": [{"name": n, "degree": d} for n, d in
                               (("v2", 2), ("w2", 2), ("t3", 3),
                                ("u3", 3))],
                "sq1": {"v2": "t3", "u3": "v2 w2"},
                "bounds": {"max_degree": 8}},
}

# exit code and sha256 of the --json report of each command on each
# algebra
GOLDEN_REPORTS = {
    ("q-pair", "ranks"): (
        0, "e2da56c9c86a42221a2a5fd6e5af75095a53736b024f7c4d66ba041ee02489be"),
    ("q-pair", "ring"): (
        0, "0c71d7c39db81a9e9a75a25fbde6d4e7212ade81d16add975baa2f870cc828fc"),
    ("q-pair", "check-exterior"): (
        0, "d0abf651442c8bfad6d6202a64e66fe343b0a149baf7c413ae10b3e99d8b9f6b"),
    ("q-pair", "verify"): (
        0, "25c7fa0cbff911baa3aefaf2267bf915d1518b2293b77474ebdc50861bdc42ea"),
    ("q-pair", "oracle-compare"): (
        0, "2040783eff58a8b46ffe6ffc4b27b4f45244f537e2e35537e0f4d3adcb5688f8"),
    ("z-pair", "ranks"): (
        0, "ae9bc0caec2cc1a7a5dc4d950ded6fd75761f76f439f0bc00a8471da7297d4d1"),
    ("z-pair", "ring"): (
        0, "27d4fe1a6c55bcd4b9d0969c56a2962e3e1a3bf979a4e6ef76f7ea19d89d456f"),
    ("z-pair", "check-exterior"): (
        0, "0244c262b06c47181a1e3f204e1228d9d3f32a739a6d4946fdc037a34b6c7d8b"),
    ("z-pair", "verify"): (
        0, "04d684c1bb21a3f02d5017651a7f97b422bcb5b635b825b6b05769e7b4f23dc3"),
    ("z-pair", "oracle-compare"): (
        0, "144f685d221cabcf39b619114ec428f43d090cb0113a42d8b764a6a77d88e4e6"),
    ("f2-pair", "ranks"): (
        0, "f9579884f46cf9240b34e6f7380a655612e65a528f4e838a10e2d54ddf8f6e33"),
    ("f2-pair", "ring"): (
        0, "d68319fc25bb2c445674d1d03e3db6bdce31a8c450221ed567f4ae3a762f02b8"),
    ("f2-pair", "check-exterior"): (
        0, "003b32c202d474b89d7d78ba800bc37928be15d2269154f46f9f68946e12c8df"),
    ("f2-pair", "verify"): (
        0, "148ed9a6d02308fcf1b44618f7176990b62b1446b28cc6be367cdf580c5c8eef"),
    ("f2-pair", "oracle-compare"): (
        0, "5bf9445821d7606abcdb2b2a84756813e4c1fb13cce3a2c0363f1e3c9b1693e8"),
    ("f2-four", "ranks"): (
        0, "3496ea1e2799d691a7afff9c25ac21b6feaf63305ff2ee6f622384e8f65c5754"),
    ("f2-four", "ring"): (
        0, "a9dc8a8006992b506be3c581e6d45290e4c0e7562e432c9ae9dbc96dc6ba6bf6"),
    ("f2-four", "check-exterior"): (
        0, "a0db1b9d6c0f7144517c7682e0e5587b58c7e5fcb2cc38a67554ba5e42dd72a4"),
    ("f2-four", "verify"): (
        2, "36fe6ce636facf7fbed61bd5ee6121292994a5904805da558ed49439d89c48ea"),
    ("f2-four", "oracle-compare"): (
        0, "9eaab3b2f4f27ea0ae93c087823d622713705612c8d7f73848fd3894d4ffd4b8"),
}


def _sha256_file(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.mark.parametrize("algebra, command", sorted(GOLDEN_REPORTS))
def test_reports_match_the_golden_digests(tmp_path, algebra, command):
    cfg = write_config(tmp_path, GOLDEN_CONFIGS[algebra])
    json_path = str(tmp_path / "out.json")
    code, _ = run([command, "--config", cfg, "--json", json_path])
    assert (code, _sha256_file(json_path)) == \
        GOLDEN_REPORTS[(algebra, command)]


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                         ids=["built-in", "3.10 and 3.11", "hashlib"])
def test_the_cache_digest_is_sha256_from_each_source(monkeypatch, blocked):
    import random

    import loopcoh.cli as cli
    from loopcoh import CONVENTION_VERSION
    from loopcoh.cli import _sha256
    # a module set to None in sys.modules raises ImportError on import;
    # the constructor is resolved again for each source
    monkeypatch.setattr(cli, "_new_sha256", None)
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    cfg = parse_config(json.dumps(GOLDEN_CONFIGS["z-pair"]))
    key = "|".join((cfg.canonical_json(), "max_degree=8",
                    f"convention={CONVENTION_VERSION}",
                    "entry=block_invariants")).encode()
    for data in (b"", key, random.Random(7).randbytes(1 << 20)):
        assert _sha256(data) == hashlib.sha256(data).hexdigest()
    assert _cache_key(cfg, 8) == hashlib.sha256(key).hexdigest()
    # with hashlib blocked too, the last fallback is reached and fails
    monkeypatch.setattr(cli, "_new_sha256", None)
    for name in ("_sha2", "_sha256", "hashlib"):
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        _sha256(b"")


def test_the_cache_digest_imports_once_per_process(monkeypatch):
    # on Python 3.10 and 3.11 the first try, _sha2, fails, and a failed
    # import searches sys.path again, so a second digest imports nothing
    import builtins

    import loopcoh.cli as cli
    monkeypatch.setattr(cli, "_new_sha256", None)
    imported = []
    original = builtins.__import__

    def counted(name, *args, **kwargs):
        imported.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    assert cli._sha256(b"") == hashlib.sha256(b"").hexdigest()
    assert imported
    imported.clear()
    assert cli._sha256(b"a") == hashlib.sha256(b"a").hexdigest()
    assert imported == []


def test_cache_entry_matches_the_golden_digest(tmp_path):
    cfg = write_config(tmp_path, GOLDEN_CONFIGS["z-pair"])
    cache = tmp_path / "cache"
    json_path = str(tmp_path / "out.json")
    code, _ = run(["ranks", "--config", cfg, "--cache-dir", str(cache),
                   "--json", json_path])
    (entry,) = cache.iterdir()
    assert (code, _sha256_file(json_path), _sha256_file(str(entry))) == \
        (0, "ae9bc0caec2cc1a7a5dc4d950ded6fd75761f76f439f0bc00a8471da7297d4d1",
         "9937be4e8c9737a392cc1f379c6d1eaaeda1f494186146ea04d72046ab8edb82")
