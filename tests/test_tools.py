"""The tools' own contract: the bench pairing core, the options, the configs.

No CI runs the scripts under tools/, so this is their only guard.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402
import same_bytes  # noqa: E402


def test_pairs_alternate_and_summarise_per_pair(capsys):
    values = {"base": iter([1.0, 2.0, 3.0, 4.0]),
              "src": iter([2.0, 2.0, 6.0, 2.0])}
    order = []

    def run(side):
        order.append(side)
        return {"t": next(values[side]), "digest": "same"}

    runs = bench.pair_runs(run, 4)
    # base runs first in even pairs, src in odd ones
    assert order == ["base", "src", "src", "base"] * 2
    out = bench.compare(runs)
    assert out["digests"] == {"digest": "same"}
    assert out["pair_ratio_src_over_base"] == {"t": [2.0, 1.0, 2.0, 0.5]}
    # src lower only in the last pair: the tie counts for neither tree
    assert out["pairs_lower"] == {"t": 1}
    assert out["median_pair_ratio"] == {"t": 1.5}
    assert out["figures"]["base"]["t"] == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0,
        "spread": 1.2, "runs": [1.0, 2.0, 3.0, 4.0]}
    assert out["figures"]["src"]["t"]["median"] == 2.0
    assert capsys.readouterr().err.count("\n") == 8


def test_a_digest_that_differs_stops_the_comparison():
    runs = {"src": [{"t": 1.0, "digest": "a"}],
            "base": [{"t": 1.0, "digest": "b"}]}
    with pytest.raises(SystemExit, match="digest differs"):
        bench.compare(runs)


@pytest.mark.parametrize("args", [["bench.py", *layer, "--help"] for layer in
                                  ([], ["md"], ["k1"], ["kernel"], ["cli"])]
                         + [["same_bytes.py", "--help"]],
                         ids=["bench", "md", "k1", "kernel", "cli",
                              "same_bytes"])
def test_help_exits_0(args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / args[0]),
                          *args[1:]], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ")


def test_same_bytes_loads_every_workload_and_test_config():
    workloads = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
    assert workloads
    expected = {f"workload.{p.stem}": json.loads(p.read_text())
                for p in workloads}
    expected.update({f"test_cli.{name}": value
                     for name, value in vars(test_cli).items()
                     if name.endswith("_CONFIG")})
    assert same_bytes.configs() == expected


def test_relative_difference_names_the_largest_field(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y,tag\n1.0,2.0,p\n3.0,-0.0,q\nnan,inf,r\n")
    b.write_text("x,y,tag\n1.0,2.000000000000001,p\n3.0000000000000004,0.0,q\n"
                 "nan,inf,r\n")
    rel, field = same_bytes.relative_difference(a, b)
    assert (rel, field) == ((2.000000000000001 - 2.0) / 2.000000000000001,
                            "1/1")
    assert same_bytes.relative_difference(a, a) == (0.0, None)
    b.write_text("x,y,tag\n1.0,2.0,p\n3.0,-0.0,Q\nnan,inf,r\n")
    assert same_bytes.relative_difference(a, b) == (math.inf, "2/2")


def test_relative_difference_walks_report_json(tmp_path):
    a, b = tmp_path / "a" / "report.json", tmp_path / "b" / "report.json"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_text(json.dumps({"audit": {"res": [1.0, 2.0], "ok": True},
                             "n": 4}))
    b.write_text(json.dumps({"audit": {"res": [1.0, 2.5], "ok": True},
                             "n": 4}))
    assert same_bytes.relative_difference(a, b) == (0.2, "/audit/res/1")
    b.write_text(json.dumps({"audit": {"res": [1.0, 2.0], "ok": False},
                             "n": 4}))
    assert same_bytes.relative_difference(a, b) == (math.inf, "/audit/ok")
    b.write_text(json.dumps({"audit": {"res": [1.0], "ok": True}, "n": 4}))
    assert same_bytes.relative_difference(a, b) == (math.inf, "/audit/res/1")


def test_same_bytes_records_an_unknown_subcommand_as_exit_2(tmp_path):
    # a config for a subcommand this tree lacks must not end the run
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    (configs / "a_gone.json").write_text(
        json.dumps({**test_cli.K1_CONFIG, "experiment": "gone"}))
    (configs / "b_k1.json").write_text(json.dumps(test_cli.K1_CONFIG))
    digests = same_bytes.run_all(configs, out)
    for seed in same_bytes.SEEDS:
        assert digests[f"a_gone.seed{seed}/exit"] == "2"
        assert not any(k.startswith(f"a_gone.seed{seed}/") and
                       not k.endswith("/exit") for k in digests)
        assert digests[f"b_k1.seed{seed}/exit"] == "0"
        assert f"b_k1.seed{seed}/k1_field.csv" in digests
        assert f"b_k1.seed{seed}/report.json" in digests


def test_same_bytes_names_the_tree_that_lacks_an_output(monkeypatch, capsys,
                                                         tmp_path):
    digests = {"src": {"r/exit": "0", "r/a.csv": "x", "r/b.csv": "y",
                       "r/new.csv": "z"},
               "base": {"r/exit": "0", "r/a.csv": "x", "r/b.csv": "w",
                        "r/old.csv": "v"}}
    monkeypatch.setattr(same_bytes, "child",
                        lambda tree, *args: digests[tree.name])
    (tmp_path / "src").mkdir()
    (tmp_path / "base").mkdir()
    rc = same_bytes.main(["--src", str(tmp_path / "src"),
                          "--base", str(tmp_path / "base")])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "equal  r/a.csv", "differs  r/b.csv", "equal  r/exit",
        "only in src  r/new.csv", "only in base  r/old.csv",
        "3 of 5 outputs differ"]


def test_field_moves_read_error_columns_against_their_row_value(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("n,raw_value,raw_error,rescaled_value,rescaled_error,tag\n"
                 "20,2.0,1e-09,-4.0,3e-10,p\n40,1.0,1e-09,1.0,1e-09,q\n")
    b.write_text("n,raw_value,raw_error,rescaled_value,rescaled_error,tag\n"
                 "20,2.0,1.5e-09,-4.0,3e-10,p\n40,1.0,1e-09,1.25,1e-09,Q\n")
    assert same_bytes.field_moves(a, b) == [
        ("1/2", (1.5e-09 - 1e-09) / 1.5e-09, (1.5e-09 - 1e-09) / 2.0, "1/1"),
        ("2/3", 0.2, None, None),
        ("2/5", math.inf, None, None)]
    # an error column moves against the larger of its two row values
    b.write_text("n,raw_value,raw_error,rescaled_value,rescaled_error,tag\n"
                 "20,2.0,1e-09,-8.0,5e-10,p\n40,1.0,1e-09,1.0,1e-09,q\n")
    moves = same_bytes.field_moves(a, b)
    assert [m[0] for m in moves] == ["1/3", "1/4"]
    assert moves[1][2:] == ((5e-10 - 3e-10) / 8.0, "1/3")
    assert same_bytes.field_moves(a, a) == []


def test_field_moves_read_residuals_against_their_scale(tmp_path):
    a, b = tmp_path / "a" / "report.json", tmp_path / "b" / "report.json"
    a.parent.mkdir()
    b.parent.mkdir()

    def report(mass, momentum, scale, raw_error):
        return json.dumps({
            "audits": {"master": {"residuals": {"mass": mass, "p": momentum},
                                  "scales": {"mass": scale, "p": 1.0},
                                  "worst_relative": 0.5}},
            "entries": [{"raw_value": 4.0, "raw_error": raw_error}]})

    a.write_text(report(2e-18, 0.0, 0.15, 1e-9))
    b.write_text(report(5e-18, 0.0, 0.25, 1e-9))
    assert same_bytes.field_moves(a, b) == [
        ("/audits/master/residuals/mass", 0.6, (5e-18 - 2e-18) / 0.25,
         "/audits/master/scales/mass"),
        ("/audits/master/scales/mass", 0.4, None, None)]
    # a residual that leaves one output counts inf on both readings
    b.write_text(json.dumps({"audits": {"master": {
        "residuals": {"mass": 2e-18}, "scales": {"mass": 0.15, "p": 1.0},
        "worst_relative": 0.5}},
        "entries": [{"raw_value": 4.0, "raw_error": 3e-9}]}))
    assert same_bytes.field_moves(a, b) == [
        ("/audits/master/residuals/p", math.inf, math.inf,
         "/audits/master/scales/p"),
        ("/entries/0/raw_error", (3e-9 - 1e-9) / 3e-9, (3e-9 - 1e-9) / 4.0,
         "/entries/0/raw_value")]
    # the worst residual over its scale moves against 1
    b.write_text(a.read_text().replace('"worst_relative": 0.5',
                                       '"worst_relative": 0.75'))
    assert same_bytes.field_moves(a, b) == [
        ("/audits/master/worst_relative", (0.75 - 0.5) / 0.75, 0.25, 1.0)]


def test_same_bytes_lists_each_moved_field(monkeypatch, capsys, tmp_path):
    rows = {"src": "C_value,C_error\n2.0,1.5e-10\n",
            "base": "C_value,C_error\n2.0,1e-10\n"}

    def child(tree, script, configs, out):
        (Path(out) / "r").mkdir(parents=True)
        (Path(out) / "r" / "ops.csv").write_text(rows[tree.name])
        return {"r/exit": "0", "r/ops.csv": tree.name}

    monkeypatch.setattr(same_bytes, "child", child)
    for side in rows:
        (tmp_path / side).mkdir()
    assert same_bytes.main(["--src", str(tmp_path / "src"),
                            "--base", str(tmp_path / "base")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "equal  r/exit",
        "differs  r/ops.csv  max relative 0.333 at 1/1",
        "    1/1  relative 0.333  scaled 2.5e-11 by 1/0",
        "1 of 2 outputs differ"]
