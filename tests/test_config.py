import json

import pytest

from loopcoh.config import ConfigError, DEFAULT_BOUNDS, parse_config


def valid_doc():
    return {
        "ring": "F2",
        "generators": [{"name": "u2", "degree": 2},
                       {"name": "u3", "degree": 3}],
        "sq1": {"u2": "u3"},
        "bounds": {"max_degree": 6},
    }


def test_parse_valid_config():
    cfg = parse_config(json.dumps(valid_doc()))
    assert cfg.ring.describe() == "F2"
    assert cfg.gens.names == ("u2", "u3")
    assert cfg.sq1 is not None
    assert cfg.bounds["max_degree"] == 6
    assert cfg.bounds["iteration_cap"] == DEFAULT_BOUNDS["iteration_cap"]


def test_parse_minimal_integer_config():
    cfg = parse_config(json.dumps({
        "ring": "Z",
        "generators": [{"name": "x", "degree": 2}],
        "bounds": {"max_degree": 10},
    }))
    assert cfg.ring.describe() == "Z"
    assert cfg.sq1 is None


def test_malformed_json():
    with pytest.raises(ConfigError) as exc:
        parse_config("{not json")
    assert "malformed JSON" in exc.value.problems[0]


def test_json_nested_past_the_decoder_is_malformed():
    # the decoder gives up with a RecursionError, not a JSONDecodeError
    with pytest.raises(ConfigError) as exc:
        parse_config("[" * 100000)
    (problem,) = exc.value.problems
    assert problem.startswith("malformed JSON: ")


def test_odd_degree_over_z_rejected():
    doc = {"ring": "Z",
           "generators": [{"name": "x", "degree": 3}]}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("odd degree" in p for p in exc.value.problems)


def test_degree_below_two_rejected():
    doc = {"ring": "Z", "generators": [{"name": "x", "degree": 1}]}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_sq1_requires_f2():
    doc = {"ring": "Z",
           "generators": [{"name": "x", "degree": 2}],
           "sq1": {"x": "x"}}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("sq1" in p for p in exc.value.problems)


def test_sq1_unknown_generator():
    doc = valid_doc()
    doc["sq1"] = {"nope": "u3"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("unknown generator" in p for p in exc.value.problems)


def test_sq1_inhomogeneous_image():
    doc = valid_doc()
    doc["sq1"] = {"u2": "u2"}  # degree 2, needs degree 3
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_sq1_expression_grammar():
    doc = valid_doc()
    doc["generators"].append({"name": "u7", "degree": 7})
    doc["sq1"] = {"u2": "u3", "u7": "u2^4 + u2 u3^2"}
    cfg = parse_config(json.dumps(doc))
    img = cfg.sq1.image_of(2)
    assert img.degree() == 8 and len(img.terms) == 2
    # an empty term is no constant 1, and an empty exponent no power 1
    for expr, problem in (("+", "empty term"), ("u3 + + u3", "empty term"),
                          ("u3^", "missing exponent")):
        doc["sq1"] = {"u2": expr}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert any(p.startswith("sq1.u2: " + problem)
                   for p in exc.value.problems), expr
    # a huge exponent is one monomial, not that many products
    doc["sq1"] = {"u2": "u3^99999999999"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.problems == [
        "sq1: Sq1(u2) must be homogeneous of degree 3, got degree "
        "299999999997"]
    # a repeated factor adds its exponents
    doc["sq1"] = {"u2": "u3", "u7": "u2 u2^3 + u2*u3*u3"}
    assert parse_config(json.dumps(doc)).sq1.image_of(2) == img


def test_problems_are_aggregated_with_paths():
    doc = {"ring": "bogus",
           "generators": [{"name": "x"}, {"degree": 1}],
           "bounds": {"max_degree": 0, "nope": 3},
           "extra": True}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    joined = "\n".join(exc.value.problems)
    assert "ring" in joined
    assert "generators[0].degree" in joined
    assert "generators[1].name" in joined
    assert "bounds.max_degree" in joined
    assert "bounds.nope" in joined
    assert "extra" in joined


def test_unknown_top_level_field():
    doc = valid_doc()
    doc["surprise"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("surprise" in p for p in exc.value.problems)


def test_canonical_json_is_stable():
    a = parse_config(json.dumps(valid_doc()))
    doc = valid_doc()
    # key order in the document must not matter
    reordered = {k: doc[k] for k in reversed(list(doc))}
    b = parse_config(json.dumps(reordered))
    assert a.canonical_json() == b.canonical_json()


def test_sq_overrides_rejected():
    doc = valid_doc()
    doc["sq_overrides"] = {"u2,u2": "u3"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.problems == ["sq_overrides: unknown field"]


def test_weight_cap_bound_rejected():
    doc = valid_doc()
    doc["bounds"]["weight_cap"] = 3
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.problems == ["bounds.weight_cap: unknown bound"]


def test_booleans_are_not_integers():
    # json true is a Python bool, which isinstance counts as an int
    for key in DEFAULT_BOUNDS:
        doc = valid_doc()
        doc["bounds"][key] = True
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == [f"bounds.{key}: must be an integer"]
    doc = valid_doc()
    doc["generators"][0]["degree"] = True
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert "generators[0].degree: required integer" in exc.value.problems


def test_non_ascii_ring_digits_are_rejected():
    for name in ("F²", "F٣"):
        doc = valid_doc()
        doc["ring"] = name
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems[0].startswith(
            "ring: cannot parse ring name")


def test_non_ascii_exponent_digits_are_rejected():
    # int() reads "٤" as 4, so "u2^٤" once parsed as u2^4
    doc = valid_doc()
    doc["generators"].append({"name": "u7", "degree": 7})
    doc["sq1"] = {"u2": "u3", "u7": "u2^4"}
    assert parse_config(json.dumps(doc)).sq1.image_of(2).degree() == 8
    for power in ("٤", "４", "4_0"):
        doc["sq1"] = {"u2": "u3", "u7": "u2^" + power}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == [f"sq1.u7: bad exponent {power!r}"]


def test_sq1_of_an_even_algebra_is_refused_by_degree():
    """In an algebra of even generators every monomial has even degree,
    so no nonzero image reaches the odd degree |u| + 1."""
    doc = {"ring": "F2",
           "generators": [{"name": "a2", "degree": 2},
                          {"name": "b4", "degree": 4}],
           "sq1": {"a2": "a2^2"}}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.problems == [
        "sq1: Sq1(a2) must be homogeneous of degree 3, got degree 4"]
