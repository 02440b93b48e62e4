"""Job configuration: JSON in, validated objects out.

All validation problems are collected and reported together, each with a
path into the document.
"""
from __future__ import annotations

import json
import re

from .hirsch_ops import HirschOpTable
from .polynomial import AlgebraError, GeneratorSet, Polynomial, Sq1Table
from .rings import RingError, ring_from_name


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# the config fields that can change a computed value
RESULT_FIELDS = ("ring", "generators", "sq1", "bounds")

DEFAULT_BOUNDS = {
    "max_degree": 10,
    "max_resolution_degree": -3,
    "iteration_cap": 8,
}


class JobConfig:
    def __init__(self, gens: GeneratorSet, sq1, bounds, cache_dir,
                 raw):
        self.gens = gens
        self.sq1 = sq1
        self.bounds = bounds
        self.cache_dir = cache_dir
        self.raw = raw

    @property
    def ring(self):
        return self.gens.ring

    def op_table(self) -> HirschOpTable:
        return HirschOpTable(self.gens, self.sq1)

    def canonical_json(self) -> str:
        """Stable serialization of the fields that affect results, used
        for cache keys; where the cache lives is not one of them."""
        fields = {k: self.raw[k] for k in RESULT_FIELDS if k in self.raw}
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def ascii_int(text):
    """The integer that text writes with an optional sign and ASCII
    digits; ValueError otherwise.  int() alone also reads other digits,
    such as "٣" for 3, and underscores and surrounding blanks."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_polynomial(gens: GeneratorSet, text, path, problems):
    """Minimal grammar: `+`-separated nonempty products of generator
    names with optional `^` powers; `0` for the zero polynomial."""
    text = text.strip()
    if text in ("0", ""):
        return Polynomial.zero(gens)
    total = Polynomial.zero(gens)
    for term in text.split("+"):
        factors = term.replace("*", " ").split()
        if not factors:
            problems.append(f"{path}: empty term")
            return None
        exponents = [0] * len(gens.names)
        for factor in factors:
            name, caret, power = factor.partition("^")
            if name not in gens.names:
                problems.append(f"{path}: unknown generator {name!r}")
                return None
            if caret and not power:
                problems.append(f"{path}: missing exponent after {name!r}")
                return None
            try:
                e = ascii_int(power) if power else 1
            except ValueError:
                problems.append(f"{path}: bad exponent {power!r}")
                return None
            if e < 1:
                problems.append(f"{path}: exponent must be >= 1")
                return None
            exponents[gens.index(name)] += e
        total = total + Polynomial.monomial(gens, exponents)
    return total


def parse_config(text: str) -> JobConfig:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError: nesting deeper than the decoder can follow
        raise ConfigError([f"malformed JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    problems = []

    ring = None
    ring_name = doc.get("ring")
    if not isinstance(ring_name, str):
        problems.append("ring: required string (Z, Q, or Fp)")
    else:
        try:
            ring = ring_from_name(ring_name)
        except RingError as exc:
            problems.append(f"ring: {exc}")

    gen_items = doc.get("generators")
    names, degrees = [], []
    if not isinstance(gen_items, list) or not gen_items:
        problems.append("generators: required non-empty list")
        gen_items = []
    for k, item in enumerate(gen_items):
        path = f"generators[{k}]"
        if not isinstance(item, dict):
            problems.append(f"{path}: must be an object")
            continue
        name = item.get("name")
        degree = item.get("degree")
        if not isinstance(name, str) or not name:
            problems.append(f"{path}.name: required string")
            name = f"_g{k}"
        # a JSON true or false is a bool, which isinstance counts as an int
        if type(degree) is not int:
            problems.append(f"{path}.degree: required integer")
            degree = 2
        names.append(name)
        degrees.append(degree)

    gens = None
    if ring is not None and names:
        try:
            gens = GeneratorSet(tuple(names), tuple(degrees), ring)
        except (AlgebraError, RingError) as exc:
            problems.append(f"generators: {exc}")

    sq1 = None
    sq1_doc = doc.get("sq1")
    if sq1_doc is not None:
        if ring is not None and ring.char != 2:
            problems.append("sq1: only allowed with ring F2")
        elif not isinstance(sq1_doc, dict):
            problems.append("sq1: must be an object")
        elif gens is not None:
            images = {}
            for name, expr in sorted(sq1_doc.items()):
                path = f"sq1.{name}"
                if name not in gens.names:
                    problems.append(f"{path}: unknown generator")
                    continue
                if not isinstance(expr, str):
                    problems.append(f"{path}: expression must be a string")
                    continue
                poly = parse_polynomial(gens, expr, path, problems)
                if poly is not None:
                    images[name] = poly
            if not problems:
                try:
                    sq1 = Sq1Table(gens, images)
                except (AlgebraError, RingError) as exc:
                    problems.append(f"sq1: {exc}")

    bounds = dict(DEFAULT_BOUNDS)
    bounds_doc = doc.get("bounds", {})
    if not isinstance(bounds_doc, dict):
        problems.append("bounds: must be an object")
        bounds_doc = {}
    for key, value in bounds_doc.items():
        if key not in DEFAULT_BOUNDS:
            problems.append(f"bounds.{key}: unknown bound")
            continue
        if type(value) is not int:
            problems.append(f"bounds.{key}: must be an integer")
            continue
        bounds[key] = value
    if bounds["max_degree"] < 1:
        problems.append("bounds.max_degree: must be positive")
    if bounds["max_resolution_degree"] > 0:
        problems.append("bounds.max_resolution_degree: must be <= 0")
    if bounds["iteration_cap"] < 1:
        problems.append("bounds.iteration_cap: must be positive")

    cache_dir = doc.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        problems.append("cache_dir: must be a string path")
        cache_dir = None

    known = {*RESULT_FIELDS, "cache_dir"}
    for key in doc:
        if key not in known:
            problems.append(f"{key}: unknown field")

    if problems or gens is None:
        raise ConfigError(problems or ["invalid configuration"])
    return JobConfig(gens, sq1, bounds, cache_dir, doc)
