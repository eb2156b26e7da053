"""BENCHMARK.json against the benchmark's own tables, and the span arithmetic."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import layers
import run
import spans
from conftest import BENCH

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", ["wall_s", "a.b-c_9", "9x"])
def test_name_grammar_accepts(name):
    assert NAME.match(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65])
def test_name_grammar_rejects(name):
    assert not NAME.match(name)


def test_every_metric_name_and_unit_follow_the_grammar():
    names = ([w["name"] for w in SPEC["workloads"]] + sorted(E2E)
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_end_to_end_metrics_carry_bounds():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_runner_and_have_configs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(layers.ALL) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        config = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
        assert config["experiment"] == run.WORKLOADS[name][0]


def test_every_layer_metric_says_what_it_should_move():
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers.MOVES)
    for name, moves in layers.MOVES.items():
        assert moves.moves in E2E, name
        assert moves.workloads and set(moves.workloads) <= set(run.WORKLOADS)


def test_every_reported_metric_has_a_unit():
    assert set(run.UNITS) == E2E | set(layers.MOVES)


def test_every_span_gives_inclusive_and_self_time():
    for span in layers.SPANS:
        assert f"{span}.s" in layers.MOVES
        assert f"{span}.self_s" in layers.MOVES


# span tree used below (times in seconds):
#   a [0, 10]
#     b [1, 4]
#       c [2, 3]
#     b [5, 6]
#   d [11, 12]
TREE = [
    ["a", 0.0, 10.0, -1, {}],
    ["b", 1.0, 4.0, 0, {"points": 3}],
    ["c", 2.0, 3.0, 1, {"acceptance": 0.2}],
    ["b", 5.0, 6.0, 0, {"points": 5}],
    ["d", 11.0, 12.0, -1, {"peak_mb": 7.0}],
]


def test_self_time_subtracts_the_children():
    assert spans.self_times(TREE) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_aggregate_sums_times_and_combines_counts():
    agg = spans.aggregate(TREE + [["c", 7.0, 8.0, 0, {"acceptance": 0.4}]],
                          ["a", "b", "c", "d", "e"])
    assert agg["a.s"] == 10.0 and agg["a.self_s"] == 5.0
    assert agg["b.s"] == 4.0 and agg["b.self_s"] == 3.0
    assert agg["b.calls"] == 2 and agg["b.points"] == 8
    assert agg["c.acceptance"] == pytest.approx(0.3)
    assert agg["d.peak_mb"] == 7.0
    assert agg["e.s"] == 0.0 and agg["e.calls"] == 0


def test_nested_spans_of_one_name_count_once():
    tree = [["x", 0.0, 4.0, -1, {}], ["x", 1.0, 2.0, 0, {}]]
    agg = spans.aggregate(tree, ["x"])
    assert agg["x.s"] == 4.0 and agg["x.self_s"] == 4.0


def test_coverage_counts_only_top_level_spans_inside_the_window():
    assert spans.coverage(TREE, 2.0, 12.0) == pytest.approx(9.0 / 10.0)


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()

    def inner(x, scale=2):
        return x * scale

    inner_w = tracer.wrap(inner, "inner", lambda a, r: {"out": r + a["scale"]})
    outer_w = tracer.wrap(lambda: inner_w(3) + inner_w(1, scale=5), "outer")
    assert outer_w() == 11
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, {}), ("inner", 0, {"out": 8}),
                     ("inner", 0, {"out": 10})]


def test_derive_combines_counts_and_forms_ratios():
    agg = {"collision.operator_scan.s": 1.0, "collision.moment_audit.s": 3.0,
           "collision.operator_scan.kernel_points": 100,
           "collision.moment_audit.kernel_points": 700,
           "relax.homogeneous_relax.s": 6.0,
           "relax.homogeneous_relax.steps": 3,
           "md.run.s": 2.0, "md.run.events": 5000}
    m = layers.derive(agg)
    assert set(m) == set(layers.MOVES)
    assert m["collision.kernel_points"] == 800
    assert m["collision.kernel_points_per_s"] == 200.0
    assert m["relax.steps"] == 3 and m["relax.s_per_step"] == 2.0
    assert m["md.run.events_per_s"] == 2500.0
    assert layers.derive({})["md.run.events_per_s"] == 0.0


def test_memory_is_traced_on_the_first_call_only():
    tracer = spans.Tracer()
    alloc = tracer.wrap(lambda: bytearray(2**21), "alloc", memory=True)
    alloc()
    alloc()
    first, second = tracer.spans
    assert first[4]["peak_mb"] >= 2.0
    assert "peak_mb" not in second[4]


def test_kernel_points_follow_the_quadrature_spec():
    from hsgas.quadrature import QuadratureSpec

    quad = QuadratureSpec(velocity_nodes=8, angle_nodes=8)
    audit = layers._audit_points({"quad": quad, "outer_nodes": 10}, None)
    assert audit == {"kernel_points": 10 ** 3 * 8 ** 3 * 8}
    scan = layers._scan_points({"quad": quad, "probes": [0, 1]}, None)
    assert scan == {"kernel_points": 2 * 2 * 8 ** 3 * 8}


def test_csv_digests_are_compared_with_the_first_recorded(tmp_path):
    store = tmp_path / "digests" / "w-seed7-abc.json"
    assert run.same_csvs(store, {"a.csv": "1"})
    assert run.same_csvs(store, {"a.csv": "1"})
    assert not run.same_csvs(store, {"a.csv": "2"})
    assert not run.same_csvs(store, {})


def test_source_key_follows_the_program_source(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    code = tmp_path / "src" / "pkg" / "mod.py"
    code.write_text("x = 1\n")
    config = tmp_path / "config.json"
    config.write_text("{}")
    key = run.source_key(tmp_path, config)
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"0")
    assert run.source_key(tmp_path, config) == key
    code.write_text("x = 2\n")
    assert run.source_key(tmp_path, config) != key


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "md-bulk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
