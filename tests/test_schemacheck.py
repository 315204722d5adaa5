import copy
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sivjp.cli import main
from sivjp.errors import ConfigError
from sivjp.harness import ExperimentConfig, config_schema
from sivjp.schemacheck import KEYWORDS, schema_error

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

# every property of the schema, each with a valid value
FULL = {
    "name": "full",
    "master_seed": 3,
    "output_dir": "out",
    "model": {"potential": "two_well",
              "params": {"a1": 1.0, "a2": 0.5, "values": [0.1, -0.2, 0.3, 0.0]},
              "rho": 2.0, "lambda_min": 1.0},
    "sivjp": {"r": 1.0, "mu0": [0.0, 0.0], "x0": 0.5, "y0": -1, "T": 10.0,
              "record_stride": 1.0, "log_stride": False, "record_t0": 1.0},
    "sweep": {"rhos": [0.5, 1.0], "seeds": 2},
    "flow": {"start": [0.1, 0.0], "T_flow": 1.0, "dt": 0.01},
    "localize": {"N": 2, "delta": 0.2, "T": 10.0, "rho_min": 10.0},
}
NONFINITE = (math.nan, math.inf, -math.inf)


def _subschemas(schema, path=()):
    """(instance path, subschema) for every subschema; list items at index 0."""
    yield path, schema
    for name, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, path + (name,))
    if "items" in schema:
        yield from _subschemas(schema["items"], path + (0,))


def _values(sub):
    """Values probing each keyword of one subschema, on both sides of it."""
    types = sub.get("type", [])
    types = [types] if isinstance(types, str) else types
    out = [True, False, None, "1", [], {}, 1, 1.0, 1.5, -1, 0, 0.0, *NONFINITE]
    if "integer" in types:
        out += [2.0, 2.5, 10**30]
    if "enum" in sub:
        out += list(sub["enum"]) + [float(v) for v in sub["enum"] if not isinstance(v, str)]
        out += [v.upper() for v in sub["enum"] if isinstance(v, str)]
    for key in ("minimum", "exclusiveMinimum", "maximum"):
        if key in sub:
            bound = sub[key]
            out += [bound, float(bound), math.nextafter(bound, -math.inf),
                    math.nextafter(bound, math.inf), -1e-300, 1e-300]
    if "minItems" in sub or "maxItems" in sub or "array" in types:
        out += [[0.0] * k for k in range(5)] + [[0.0, "x"], [math.nan, 0.0], [True, 0.0],
                                                 (0.0, 0.0)]
    if "minLength" in sub:
        out += ["", "x"]
    if "object" in types:
        out += [[("a", 1)], "object"]
    return out


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _with(path, value):
    raw = copy.deepcopy(FULL)
    _set(raw, path, value)
    return raw


def _mutations():
    yield "full", copy.deepcopy(FULL)
    for path, sub in _subschemas(config_schema()):
        if not path:
            continue
        for k, value in enumerate(_values(sub)):
            yield f"{'.'.join(map(str, path))}={value!r}#{k}", _with(path, value)
        if sub.get("additionalProperties") is False:
            raw = copy.deepcopy(FULL)
            _set(raw, path + ("extra",), 1)
            yield f"{'.'.join(map(str, path))}+extra", raw
        for name in sub.get("required", ()):
            raw = copy.deepcopy(FULL)
            node = raw
            for key in path:
                node = node[key]
            del node[name]
            yield f"{'.'.join(map(str, path))}-{name}", raw
    # top level, and several violations at once (best-match choice)
    for name in ("name", "model"):
        raw = copy.deepcopy(FULL)
        del raw[name]
        yield f"-{name}", raw
    yield "extras", {**copy.deepcopy(FULL), "zz": 1, "aa": 2}
    yield "not-an-object", [FULL]
    yield "required-and-extra", {"model": {"potential": "zero"}, "extra": 1}
    raw = copy.deepcopy(FULL)
    raw["sivjp"].update(T=-1.0, r="x", mu0=[1.0], y0=True)
    raw["flow"]["dt"] = math.inf
    yield "siblings", raw
    yield "values-items", _with(("model", "params", "values"), [0.0, "x", math.nan])


CORPUS = dict(_mutations())


@functools.cache
def _reference():
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(config_schema())
    cls.check_schema(config_schema())
    return jsonschema, cls(config_schema())


def _jsonschema_message(raw):
    """The message jsonschema.validate raises for raw, or None; the schema is
    checked once instead of on every call. The messages and the best-match
    order compared against are those of jsonschema 4.26."""
    jsonschema, validator = _reference()
    error = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    return None if error is None else error.message


def test_schema_uses_only_implemented_keywords():
    for path, sub in _subschemas(config_schema()):
        assert set(sub) <= KEYWORDS, (path, set(sub) - KEYWORDS)
        assert sub.get("additionalProperties", False) is False
        assert all(not isinstance(v, (list, dict)) for v in sub.get("enum", ()))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_match_jsonschema(path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert schema_error(raw, config_schema()) == _jsonschema_message(raw) is None


def test_mutation_corpus_matches_jsonschema():
    verdicts = {}
    for label, raw in CORPUS.items():
        ours = schema_error(raw, config_schema())
        assert ours == _jsonschema_message(raw), label
        verdicts[label] = ours is None
    accepted = sum(verdicts.values())
    assert accepted >= 20 and len(verdicts) - accepted >= 200


@pytest.mark.parametrize("path, value, accepted", [
    (("master_seed",), 2.0, True),  # an integral float is an integer
    (("master_seed",), 2.5, False),
    (("master_seed",), True, False),  # a bool is not an integer
    (("master_seed",), -1, False),
    (("sivjp", "y0"), 1.0, True),  # enum compares numbers by value
    (("sivjp", "y0"), True, False),  # but tells True from 1
    (("sivjp", "T"), 0, False),  # exclusiveMinimum at its boundary
    (("sivjp", "T"), 5e-324, True),
    (("sivjp", "T"), math.nan, True),  # NaN passes every bound
    (("flow", "dt"), 0.1, True),
    (("flow", "dt"), math.inf, False),
    (("model", "rho"), True, False),
    (("sivjp", "mu0"), [0.0], False),
    (("sivjp", "mu0"), [0.0, 0.0, 0.0], False),
    (("sivjp", "mu0"), (0.0, 0.0), False),  # only a list is an array
    (("model", "params", "values"), [0.0] * 3, False),
    (("name",), "", False),
    (("model", "potential"), "quartic", False),
    (("sivjp", "x0"), None, True),
])
def test_keyword_cases(path, value, accepted):
    raw = _with(path, value)
    assert (schema_error(raw, config_schema()) is None) is accepted
    assert schema_error(raw, config_schema()) == _jsonschema_message(raw)


def test_rejected_configs_are_config_errors(tmp_path):
    rejected = [raw for raw in CORPUS.values() if schema_error(raw, config_schema())]
    for raw in rejected:
        with pytest.raises(ConfigError, match="rejected by schema"):
            ExperimentConfig.from_dict(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with(("sivjp", "y0"), True)))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "--quiet", "fixed-points"]) == 2


def test_config_loading_does_not_import_jsonschema():
    code = ("import sys, sivjp.cli\n"
            "from sivjp.harness import ExperimentConfig\n"
            f"ExperimentConfig.from_file({str(ROOT / 'configs' / 'flow_demo.json')!r})\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
