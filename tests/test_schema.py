"""The config schema walker against jsonschema, and the CLI's import cost.

runio._schema_errors checks CONFIG_SCHEMA on its own; jsonschema's Draft
2020-12 validator is its oracle here. The one intended difference is the
integer rule: the walker's 'integer' takes only a JSON integer, where
jsonschema also takes a whole-number float such as 4.0.

Each pinned config draws its own mutations from a stream seeded by its
content, so a config added to the pinned set (a new row of test_cli's exit-2
table) adds its draws and leaves every other config's as they were. Each
keyword the schema uses also has one targeted config (TARGETED), so every
keyword is checked whatever the draws reach.
"""
from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hsgas import runio

import test_cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
MUTATIONS_PER_CONFIG = 215  # about 10,000 over the pinned configs
MUTATION_SEED = 20


def pinned_configs() -> list:
    """The configs of tests/test_cli.py (module dicts and the exit-2 table)
    and the benchmark workloads, all read only."""
    out = [v for k, v in vars(test_cli).items() if k.endswith("_CONFIG")]
    table = next(m for m in test_cli.test_schema_violations_exit_2.pytestmark
                 if m.name == "parametrize")
    out += [case[0] for case in table.args[1]]
    out += [json.loads(p.read_text()) for p in WORKLOADS]
    return out


# values that break a key's type or bounds, or pass them
ODD_VALUES = [None, True, False, 0, 1, -1, 2, 7, 1000, 1.5, 0.0, -0.0, 2.0,
              4.0, 1000.0, -3.5, 1e9, math.inf, math.nan, "", "x", "mc",
              "master", "uniform_maxwell", [], [1], [1.0, 2.0, 3.0],
              [1, "a", True], [2.0, 3, 4], [[0.5, [1.0, 0.0, 0.0], 0.6]],
              {}, {"a": 1}, {"n": 8}]
ODD_KEYS = ["extra", "a-b", "1x", "seed", "n", "tol", "probes", "samples",
            *runio.CONFIG_SCHEMA["properties"]]


def _containers(node, out):
    """Every dict and list inside node, node first."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def mutation_rng(config) -> random.Random:
    """The mutation stream of one pinned config, seeded by its content."""
    content = json.dumps(config, sort_keys=True)
    return random.Random(f"{MUTATION_SEED}:{content}")


def mutate(config, rng: random.Random):
    """A deep copy of config with one to three seeded mutations."""
    config = copy.deepcopy(config)

    def odd():
        return copy.deepcopy(rng.choice(ODD_VALUES))

    for _ in range(rng.randint(1, 3)):
        target = rng.choice(_containers(config, []))
        roll = rng.random()
        if isinstance(target, dict):
            keys = list(target)
            if keys and roll < 0.5:
                target[rng.choice(keys)] = odd()
            elif keys and roll < 0.7:
                del target[rng.choice(keys)]
            else:  # an extra key, or a section that may not be a dict
                target[rng.choice(ODD_KEYS)] = odd()
        elif target:
            i = rng.randrange(len(target))
            if roll < 0.6:
                target[i] = odd()
            elif roll < 0.8:
                target.append(odd())
            else:
                del target[i:]
        else:
            target.append(odd())
    return config


def _oracle_lines(validator, config) -> list:
    """jsonschema's errors, formatted and sorted as validate_config does."""
    return [f"{e.json_path}: {e.message}" for e in
            sorted(validator.iter_errors(config), key=lambda e: e.json_path)]


def _beyond_schema(config) -> list:
    """What validate_config adds to the schema's lines."""
    if not isinstance(config, dict):
        return []
    out = (runio._section_errors(config) + runio._unread_key_errors(config)
           + runio._md_snapshot_errors(config))
    if isinstance(config.get("pdf"), dict):
        out += runio._pdf_key_errors(config["pdf"])
    return out


def _is_integer_rule(line: str) -> bool:
    """A line only the walker's integer rule gives: a whole float's."""
    head, sep, tail = line.partition(" is not of type 'integer'")
    value = head.split(": ", 1)[-1]
    try:
        return (bool(sep) and not tail and "." in value
                and float(value).is_integer())
    except ValueError:
        return False


# message fragment of each keyword the schema uses
KEYWORD_MESSAGES = {
    "type": "is not of type", "const": "was expected",
    "enum": "is not one of", "required": "is a required property",
    "additionalProperties": "Additional properties are not allowed",
    "minItems": "is too short", "maxItems": "is too long",
    "minLength": "should be non-empty",
    "minimum": "is less than the minimum of",
    "maximum": "is greater than the maximum of",
    "exclusiveMinimum": "is less than or equal to the minimum of",
    "exclusiveMaximum": "is greater than or equal to the maximum of",
}


def _ops(**keys) -> dict:
    return {"schema_version": 1, "experiment": "ops", **keys}


# keyword -> a config that breaks the schema through that keyword
TARGETED = {
    "type": _ops(seed="7"),
    "const": {**_ops(), "schema_version": 2},
    "enum": _ops(ops={"flavor": "neither"}),
    "required": {"schema_version": 1},
    "additionalProperties": _ops(extra=1),
    "minItems": _ops(pdf={"family": "tilted_exponential", "tilt": [1.0]}),
    "maxItems": _ops(pdf={"family": "tilted_exponential",
                          "tilt": [1.0, 0.0, 0.0, 0.0]}),
    "minLength": _ops(output_dir=""),
    "minimum": _ops(seed=-1),
    "maximum": _ops(seed=2 ** 63),
    "exclusiveMinimum": _ops(model={"n": 8, "sigma": 0.05, "box": 0.0}),
    "exclusiveMaximum": _ops(pdf={"family": "sinusoidal_maxwell",
                                  "alpha": 1.0}),
}


def test_the_walker_gives_jsonschemas_lines_apart_from_the_integer_rule():
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    strict_integer = base.TYPE_CHECKER.redefine(
        "integer",
        lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    stock = base(runio.CONFIG_SCHEMA)
    strict = jsonschema.validators.extend(
        base, type_checker=strict_integer)(runio.CONFIG_SCHEMA)

    pinned = pinned_configs()
    mutations = []
    for config in pinned:
        rng = mutation_rng(config)
        mutations += [mutate(config, rng)
                      for _ in range(MUTATIONS_PER_CONFIG)]
    configs = pinned + list(TARGETED.values()) + mutations
    invalid, integer_rule = 0, 0
    for config in configs:
        lines = runio.validate_config(config)
        expected = _oracle_lines(strict, config)
        assert lines == expected + _beyond_schema(config), config
        # the strict oracle adds only whole-float integer lines to stock's
        kept = [line for line in expected if not _is_integer_rule(line)]
        assert kept == _oracle_lines(stock, config), config
        integer_rule += len(kept) < len(expected)
        invalid += bool(expected)
    # each keyword's targeted config breaks it, and the mutations reach the
    # integer rule
    assert TARGETED.keys() == KEYWORD_MESSAGES.keys()
    for keyword, config in TARGETED.items():
        assert any(KEYWORD_MESSAGES[keyword] in line
                   for line in _oracle_lines(strict, config)), keyword
    assert invalid > len(mutations) // 2
    assert integer_rule > 100


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {}}},
    {"type": "object", "additionalProperties": True},
    {"properties": {"n": {"type": "integer", "multipleOf": 2}}},
], ids=["patternProperties", "additionalProperties-true", "nested"])
def test_a_keyword_the_walker_does_not_know_raises(schema):
    with pytest.raises(ValueError, match="is not implemented"):
        list(runio._schema_errors({"n": 4}, schema, "$"))


def test_validate_config_runs_without_importing_jsonschema():
    # a fresh process: the test process may hold jsonschema as the oracle
    script = (
        "import sys\n"
        "from hsgas import cli\n"
        "codes = [cli.main(['validate-config', '--config', p])\n"
        "         for p in sys.argv[1:]]\n"
        "print(codes, 'jsonschema' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, WORKLOADS)], env=env,
        check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == f"{[0] * len(WORKLOADS)} False"
