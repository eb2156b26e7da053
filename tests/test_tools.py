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
