"""CLI contract: exit codes, artifact lists, byte-identical CSVs, schema."""
from __future__ import annotations

import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from hsgas import bg, cli, occupation, pdfs, runio
from hsgas.seeding import MAX_SEED, derive_rng, derive_seedseq

WORKLOADS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads")
    .glob("*.json"))

K1_CONFIG = {
    "schema_version": 1, "experiment": "k1", "seed": 3,
    "model": {"n": 8, "sigma": 0.05, "box": 1.0},
    "k1": {"grid_nodes": 2, "samples_per_node": 20_000},
}

CHAOS_CONFIG = {
    "schema_version": 1, "experiment": "chaos", "seed": 3,
    "sequence": {"c": 0.2, "box": 1.0, "ns": [20, 40, 80, 160]},
    "k1": {"grid_nodes": 2, "samples_per_node": 100_000},
    "bg": {"tuple_count": 2, "samples": 20_000},
}


OPS_CONFIG = {
    "schema_version": 1, "experiment": "ops", "seed": 3,
    "model": {"n": 8, "sigma": 0.05, "box": 1.0},
    "k1": {"grid_nodes": 2, "samples_per_node": 20_000},
    "ops": {"probes": 1},
    "quadrature": {"velocity_nodes": 8, "angle_nodes": 8},
}

# a family whose density moves with position: the master reads its partner
# at each contact point r2
OPS_TILTED_CONFIG = {
    "schema_version": 1, "experiment": "ops", "seed": 3,
    "model": {"n": 8, "sigma": 0.05, "box": 1.0},
    "pdf": {"family": "tilted_exponential", "tilt": [1.0, 0.0, 0.0]},
    "k1": {"grid_nodes": 2, "samples_per_node": 20_000},
    "ops": {"probes": 1},
    "quadrature": {"velocity_nodes": 8, "angle_nodes": 8},
}

RELAX_CONFIG = {
    "schema_version": 1, "experiment": "relax", "seed": 3,
    "model": {"n": 50, "sigma": 0.05, "box": 1.0},
    "pdf": {"family": "velocity_mixture",
            "components": [[0.5, [1.0, 0.0, 0.0], 0.6],
                           [0.5, [-1.0, 0.0, 0.0], 0.6]]},
    "relax": {"grid_nodes": 10, "dt": 0.05, "t_end": 0.1},
}

KS_CONFIG = {
    "schema_version": 1, "experiment": "ks", "seed": 3,
    "model": {"n": 8, "sigma": 0.05, "box": 1.0},
    "k1": {"grid_nodes": 2, "samples_per_node": 20_000},
    "ks": {"tuple_count": 2, "samples": 20_000},
}

MD_CONFIG = {
    "schema_version": 1, "experiment": "md", "seed": 3,
    "model": {"n": 8, "sigma": 0.05, "box": 1.0},
    "md": {"t_end": 0.5, "snapshots": 12},
}

BG_SWEEP_CONFIG = {
    "schema_version": 1, "experiment": "bg-sweep", "seed": 3,
    "sequence": {"c": 0.2, "box": 1.0, "ns": [20, 40, 80, 160]},
    "k1": {"grid_nodes": 2, "samples_per_node": 100_000},
}

NONCOMM_CONFIG = {
    "schema_version": 1, "experiment": "noncomm", "seed": 3,
    "sequence": {"c": 0.2, "box": 1.0, "ns": [20, 40]},
    "pdf": {"family": "tilted_exponential", "tilt": [1.0, 0.0, 0.0]},
    "k1": {"grid_nodes": 2, "samples_per_node": 20_000, "tol": 0.01},
    "quadrature": {"angle_nodes": 26},
}

def run_cli(tmp_path, config, name, command=None):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / name
    rc = cli.main([command or config["experiment"], "--config", str(path),
                   "--out", str(out)])
    return rc, out


def test_one_experiment_registry():
    # the table drives the schema's enum, the subparsers and the runners
    props = runio.CONFIG_SCHEMA["properties"]
    assert props["experiment"]["enum"] == list(runio.EXPERIMENTS)
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command")
    assert list(sub.choices) == [*runio.EXPERIMENTS, "validate-config"]
    runners = {name for name in vars(cli) if name.startswith("_run_")}
    assert runners == {cli.runner(name).__name__
                       for name in runio.EXPERIMENTS}
    # every section of the schema is read by some subcommand, and each
    # subcommand's geometry comes first
    assert set(runio.SECTIONS) == {k for k, v in props.items()
                                   if v.get("type") == "object"}
    for experiment in runio.EXPERIMENTS.values():
        assert experiment.sections[0] in ("model", "sequence")
        assert set(experiment.pdf_families) <= set(pdfs.FAMILIES)


@pytest.mark.parametrize("config",
                         [K1_CONFIG, KS_CONFIG, CHAOS_CONFIG, OPS_CONFIG,
                          RELAX_CONFIG, MD_CONFIG, BG_SWEEP_CONFIG,
                          NONCOMM_CONFIG],
                         ids=["k1", "ks", "chaos", "ops", "relax", "md",
                              "bg-sweep", "noncomm"])
def test_run_lists_its_artifacts_and_repeats_its_csvs(tmp_path, config):
    rc, out = run_cli(tmp_path, config, "a")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = sorted(p.name for p in out.iterdir()
                     if p.name != "manifest.json")
    assert manifest["artifacts"] == on_disk
    assert manifest["config"] == config
    # a host fact: in the manifest, never in report.json
    assert manifest["versions"]["usable_cpus"] == runio.usable_cpus() >= 1
    assert "usable_cpus" not in (out / "report.json").read_text()
    csvs = [name for name in on_disk if name.endswith(".csv")]
    assert csvs

    rc, again = run_cli(tmp_path, config, "b")
    assert rc == 0
    for name in csvs:
        assert (out / name).read_bytes() == (again / name).read_bytes()


@pytest.mark.parametrize("config, command, named", [
    ({**K1_CONFIG, "threads": 2}, None, "'threads'"),
    ({**CHAOS_CONFIG, "bg": {**CHAOS_CONFIG["bg"], "probes": 4}}, None,
     "$.bg: Additional properties are not allowed ('probes'"),
    ({**CHAOS_CONFIG, "bg": {"oracle_samples": 0}}, None,
     "$.bg: Additional properties are not allowed ('oracle_samples'"),
    ({**K1_CONFIG, "k1": {**K1_CONFIG["k1"], "grid": 2}}, None, "'grid'"),
    ({**K1_CONFIG, "extra": 1}, None, "'extra'"),
    (K1_CONFIG, "ks", "$.experiment"),
    ({**OPS_CONFIG, "ops": {"rho2_form": "geometric_mean"}}, None,
     "$.ops.rho2_form"),
    ({**RELAX_CONFIG, "relax": {**RELAX_CONFIG["relax"], "phi_nodes": 8}},
     None, "'phi_nodes'"),
    ({**MD_CONFIG, "md": {**MD_CONFIG["md"], "record_cap": 10}}, None,
     "'record_cap'"),
    ({**KS_CONFIG, "ks": {**KS_CONFIG["ks"], "probes": 4}}, None,
     "$.ks: Additional properties are not allowed ('probes'"),
    ({**BG_SWEEP_CONFIG, "k1": {**BG_SWEEP_CONFIG["k1"], "probes": 4}}, None,
     "$.k1: Additional properties are not allowed ('probes'"),
    ({**NONCOMM_CONFIG,
      "sequence": {**NONCOMM_CONFIG["sequence"], "sigma": 0.1}}, None,
     "'sigma'"),
    ({**K1_CONFIG, "pdf": {"family": "sinusoidal_maxwell", "alpha": -0.3}},
     None, "$.pdf.alpha: -0.3 is less than the minimum of 0"),
    ({**K1_CONFIG, "pdf": {"family": "uniform_maxwell",
                           "tilt": [5.0, 0.0, 0.0]}}, None,
     "$.pdf.tilt: family 'uniform_maxwell' takes no key 'tilt'"),
    ({**RELAX_CONFIG, "pdf": {"family": "velocity_mixture"}}, None,
     "$.pdf: family 'velocity_mixture' needs key 'components'"),
    ({**K1_CONFIG, "pdf": {"family": "tabulated"}}, None,
     "$.pdf: family 'tabulated' needs key 'path'"),
    ({**K1_CONFIG, "pdf": {"family": ["uniform_maxwell"]}}, None,
     "$.pdf.family: ['uniform_maxwell'] is not one of"),
    ({**K1_CONFIG, "relax": RELAX_CONFIG["relax"],
      "quadrature": OPS_CONFIG["quadrature"]}, None,
     ("$.relax: subcommand 'k1' does not read section 'relax'",
      "$.quadrature: subcommand 'k1' does not read section 'quadrature'")),
    ({k: v for k, v in K1_CONFIG.items() if k != "model"}, None,
     "$: subcommand 'k1' needs section 'model'"),
    ({**BG_SWEEP_CONFIG, "model": K1_CONFIG["model"]}, None,
     "$.model: subcommand 'bg-sweep' does not read section 'model'"),
    ({**MD_CONFIG, "pdf": {"family": "tilted_exponential",
                           "tilt": [5.0, 0.0, 0.0]}}, None,
     "$.pdf.family: subcommand 'md' takes only family 'uniform_maxwell'"),
    ({**NONCOMM_CONFIG,
      "quadrature": {"angle_nodes": 26, "velocity_nodes": 40}}, None,
     "$.quadrature.velocity_nodes: subcommand 'noncomm' does not read key "
     "'velocity_nodes'"),
    ({**OPS_CONFIG, "ops": {"flavor": "boltzmann"}}, None,
     "$.k1: not read, as ops.flavor 'boltzmann'"),
    ({**{k: v for k, v in OPS_CONFIG.items() if k != "k1"},
      "ops": {"flavor": "boltzmann", "rho2_form": "hat_product"}}, None,
     "$.ops.rho2_form: not read, as ops.flavor 'boltzmann'"),
    ({**{k: v for k, v in OPS_CONFIG.items() if k != "k1"},
      "ops": {"flavor": "boltzmann"},
      "quadrature": {**OPS_CONFIG["quadrature"], "position_nodes": 4}}, None,
     "$.quadrature.position_nodes: not read, as ops.flavor 'boltzmann'"),
    ({**MD_CONFIG, "md": {**MD_CONFIG["md"], "windows": 4}}, None,
     "$.md: Additional properties are not allowed ('windows'"),
    ({**MD_CONFIG, "md": {"max_events": 100, "snapshots": 12}}, None,
     "$.md.t_end: needed, as md.snapshots are taken up to it"),
    ({**MD_CONFIG, "md": {"t_end": 0.5, "snapshots": 1}}, None,
     "$.md.snapshots: 1 is too few, as measure needs 2"),
    ({**MD_CONFIG, "md": {"t_end": 0.5, "snapshots": 0,
                          "equilibration_fraction": 0.3}}, None,
     "$.md.equilibration_fraction: not read, as md.snapshots is 0"),
    ({**RELAX_CONFIG, "relax": {**RELAX_CONFIG["relax"], "cfl": 0.2}}, None,
     "$.relax.cfl: not read, as relax.dt fixes the time step"),
    # an integer key takes only a JSON integer, never a whole-number float
    ({**K1_CONFIG, "k1": {**K1_CONFIG["k1"], "grid_nodes": 2.0}}, None,
     "$.k1.grid_nodes: 2.0 is not of type 'integer'"),
    ({**RELAX_CONFIG, "relax": {**RELAX_CONFIG["relax"], "grid_nodes": 8.0}},
     None, "$.relax.grid_nodes: 8.0 is not of type 'integer'"),
    ({**MD_CONFIG, "md": {**MD_CONFIG["md"], "snapshots": 4.0}}, None,
     "$.md.snapshots: 4.0 is not of type 'integer'"),
    ({**K1_CONFIG, "seed": 3.0}, None, "$.seed: 3.0 is not of type 'integer'"),
], ids=["threads", "bg.probes", "bg.oracle_samples", "unknown-nested",
        "unknown-top", "mismatch", "rho2_form", "relax.phi_nodes", "md.record_cap", "ks.probes",
        "bg-sweep.k1.probes", "noncomm.sequence.sigma", "pdf.alpha-negative",
        "pdf.tilt-on-uniform", "pdf.components-missing", "pdf.path-missing",
        "pdf.family-list", "k1.relax-and-quadrature", "k1.no-model",
        "bg-sweep.model", "md.pdf-family",
        "noncomm.quadrature.velocity_nodes", "ops.boltzmann.k1",
        "ops.boltzmann.rho2_form", "ops.boltzmann.position_nodes",
        "md.windows-unknown", "md.snapshots-without-t_end",
        "md.snapshots-one",
        "md.equilibration_fraction-without-snapshots", "relax.cfl-with-dt",
        "k1.grid_nodes-float", "relax.grid_nodes-float",
        "md.snapshots-float", "seed-float"])
def test_schema_violations_exit_2(tmp_path, capsys, config, command, named):
    rc, out = run_cli(tmp_path, config, "bad", command)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ")
    for name in (named,) if isinstance(named, str) else named:
        assert name in err
    assert not out.exists()


def test_seed_option_is_checked_as_the_config_seed(tmp_path, capsys):
    # a root seed is a 63-bit integer: larger ones would share streams
    rc, out = run_cli(tmp_path, {**K1_CONFIG, "seed": 2 ** 63}, "big")
    assert rc == 2
    assert capsys.readouterr().err == (
        "schema error: $.seed: 9223372036854775808 is greater than the "
        "maximum of 9223372036854775807\n")
    assert not out.exists()
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(K1_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["k1", "--config", str(path), "--out", str(out),
                   "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "schema error: $.seed: -1 is less than the minimum of 0\n")
    assert not out.exists()
    # the seed that ran is the config's seed in the manifest
    rc = cli.main(["k1", "--config", str(path), "--out", str(out),
                   "--seed", "5"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["root_seed"] == manifest["config"]["seed"] == 5


def test_entropy_is_no_subcommand(tmp_path, capsys):
    # the subcommand and its experiment are gone: both are config errors
    path = tmp_path / "entropy.json"
    path.write_text(json.dumps({**K1_CONFIG, "experiment": "entropy"}),
                    encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["entropy", "--config", str(path)])
    assert exc.value.code == 2
    assert "invalid choice: 'entropy'" in capsys.readouterr().err
    assert cli.main(["validate-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: $.experiment: 'entropy' is not one of")


def test_seeds_outside_63_bits_raise_rather_than_wrap():
    assert derive_rng(MAX_SEED, "a").random() != derive_rng(0, "a").random()
    for seed in (-1, 2 ** 63):
        with pytest.raises(ValueError, match="outside"):
            derive_seedseq(seed, "a")


def test_k1_with_a_missing_table_exits_1_and_names_the_layer(
        tmp_path, capsys):
    config = {**K1_CONFIG,
              "pdf": {"family": "tabulated",
                      "path": str(tmp_path / "absent.csv")}}
    rc, _ = run_cli(tmp_path, config, "absent")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[pdfs]: ")
    assert "absent.csv" in err


def test_ks_separation_beyond_the_bulk_exits_1_and_names_the_key(
        tmp_path, capsys):
    # 30 sigma is longer than the diagonal of the box the pairs must fit in
    config = {**KS_CONFIG, "ks": {**KS_CONFIG["ks"], "separation_factor": 30}}
    rc, _ = run_cli(tmp_path, config, "far")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[occupation]: ")
    assert "ks.separation_factor" in err


@pytest.mark.parametrize("ns, why", [
    ([4, 8, 16, 32], "leaves no bulk"),
    ([8, 16, 32, 64], "exceed the diagonal"),
], ids=["margin", "diagonal"])
def test_chaos_pairs_beyond_the_bulk_exit_1_and_name_the_key(
        tmp_path, capsys, ns, why):
    # the smallest N sets sigma_max, and with it the pairs' geometry
    config = {**CHAOS_CONFIG,
              "sequence": {**CHAOS_CONFIG["sequence"], "ns": ns}}
    rc, out = run_cli(tmp_path, config, "dense")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[occupation]: ")
    assert why in err
    assert "sequence.ns" in err
    assert not (out / "report.json").exists()


def test_noncomm_reads_its_quadrature_section(tmp_path):
    csvs = []
    for nodes in (26, 80):
        config = {**NONCOMM_CONFIG, "quadrature": {"angle_nodes": nodes}}
        rc, out = run_cli(tmp_path, config, f"angles{nodes}")
        assert rc == 0
        csvs.append((out / "noncomm.csv").read_bytes())
    assert csvs[0] != csvs[1]


def test_quadrature_keys_are_the_spec_fields():
    # the schema, and each subcommand's admitted keys, name QuadratureSpec
    schema = runio.CONFIG_SCHEMA["properties"]["quadrature"]["properties"]
    assert set(schema) == set(runio.QUADRATURE_KEYS)
    for experiment in runio.EXPERIMENTS.values():
        assert set(experiment.quadrature_keys) <= set(schema)


def test_pdf_schema_is_read_from_the_family_registry():
    schema = runio.CONFIG_SCHEMA["properties"]["pdf"]["properties"]
    assert schema["family"]["enum"] == list(pdfs.FAMILIES)
    taken = {k for fam in pdfs.FAMILIES for k in pdfs.family_keys(fam)[0]}
    assert set(schema) == taken | {"family"}


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_workloads_pass_the_schema(path):
    assert runio.validate_config(json.loads(path.read_text())) == []


@pytest.mark.parametrize("md, names", [
    ({"t_end": 5.0, "max_events": 20, "snapshots": 12},
     ("of 12 snapshots", "md.max_events", "md.t_end")),
], ids=["stopped-early"])
def test_md_short_of_snapshots_exits_1_and_names_the_keys(tmp_path, capsys,
                                                          md, names):
    rc, _ = run_cli(tmp_path, {**MD_CONFIG, "md": md}, "short")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[md]: ")
    for name in names:
        assert name in err


def test_short_sequence_exits_1_and_names_its_key(tmp_path, capsys):
    # three entries can never give the four resolved rows a rate fit needs
    config = {**BG_SWEEP_CONFIG,
              "sequence": {**BG_SWEEP_CONFIG["sequence"], "ns": [20, 40, 80]}}
    rc, _ = run_cli(tmp_path, config, "short")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[bg]: only 3 of 3 rows are resolved")
    assert "sequence.ns" in err


def test_relax_reports_offsets_kept_per_step(tmp_path):
    rc, out = run_cli(tmp_path, RELAX_CONFIG, "relax")
    assert rc == 0
    # the lattice's final f is not written: no claim reads it
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "relax_trace.csv", "report.json"]
    report = json.loads((out / "report.json").read_text())
    used = report["info"]["offsets_used"]
    assert len(used) == report["steps"] == 2
    assert all(0 < k <= 2 * report["info"]["table_size"] for k in used)


def test_relax_blow_up_exits_1_and_names_the_time_step(tmp_path, capsys):
    config = {**RELAX_CONFIG, "relax": {"grid_nodes": 10, "dt": 50.0,
                                        "t_end": 50.0}}
    rc, _ = run_cli(tmp_path, config, "blowup")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[relax]: negative density")
    # the step is fixed by relax.dt, so the message names dt, not cfl
    assert "reduce the time step (dt)" in err


def test_chaos_honours_k1_tol(tmp_path, capsys):
    # the sample meets the default tol (1e-3) but not a 1e-5 Monte Carlo
    # error; the solver must see the configured tol and refuse
    config = {**CHAOS_CONFIG, "k1": {**CHAOS_CONFIG["k1"], "tol": 1e-5}}
    rc, _ = run_cli(tmp_path, config, "tight")
    assert rc == 1
    err = capsys.readouterr().err
    assert "raise k1.samples_per_node" in err
    # the tag names the layer that raised, not the subcommand
    assert err.startswith("error[occupation]: ")


SWEEP_CONFIGS = {"bg-sweep": BG_SWEEP_CONFIG, "chaos": CHAOS_CONFIG,
                 "noncomm": NONCOMM_CONFIG}


def _log_solves(monkeypatch, forks, log, **override):
    """bg's solve_k1, logging each solve's pid and the forks seen after it.

    A forked half logs to the same file, so the log sees both processes;
    override replaces solve arguments on the last sequence entry.
    """
    def solve_k1(model, pdf, **k1):
        if override and model.n == max(CHAOS_CONFIG["sequence"]["ns"]):
            k1 = {**k1, **override}
        field = occupation.solve_k1(model, pdf, **k1)
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {len(forks)}\n")
        return field

    monkeypatch.setattr(bg, "solve_k1", solve_k1)


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix == ".csv" or p.name == "report.json"}


@pytest.mark.parametrize("sweep", SWEEP_CONFIGS)
def test_a_sweep_splits_its_entries_with_the_bytes_of_one_process(
        tmp_path, monkeypatch, forks, sweep):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    config = SWEEP_CONFIGS[sweep]
    solves = len(config["sequence"]["ns"]) + (sweep == "chaos")  # control
    outputs, logs = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(runio, "usable_cpus", lambda n=cpus: n)
        logs[cpus] = tmp_path / f"solves{cpus}.txt"
        _log_solves(monkeypatch, forks, logs[cpus])
        rc, out = run_cli(tmp_path, config, f"cpus{cpus}")
        assert rc == 0
        outputs[cpus] = _outputs(out)
        assert len(forks) == cpus - 1  # the sweep's one fork, on 2 CPUs
    assert outputs[1] == outputs[2]
    assert "report.json" in outputs[2]
    for cpus, log in logs.items():
        lines = [line.split() for line in log.read_text().splitlines()]
        assert len(lines) == solves
        # each solve ran whole in one process: none forked inside a half
        assert {count for _, count in lines} == {str(cpus - 1)}
        assert len({pid for pid, _ in lines}) == cpus
        assert str(os.getpid()) in {pid for pid, _ in lines}
    forks.assert_none_left()


@pytest.mark.parametrize("sweep", SWEEP_CONFIGS)
def test_a_process_running_threads_sweeps_without_forking(
        tmp_path, monkeypatch, forks, sweep):
    monkeypatch.setattr(runio, "usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rc, _ = run_cli(tmp_path, SWEEP_CONFIGS[sweep], "threaded")
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert rc == 0 and forks == []


def test_a_failed_last_entry_names_the_layer_that_raised(
        tmp_path, monkeypatch, capsys, forks):
    # only the last entry misses its tol; on 2 CPUs the forked half runs it
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(runio, "usable_cpus", lambda n=cpus: n)
        _log_solves(monkeypatch, forks, tmp_path / "solves.txt", tol=1e-7)
        rc, out = run_cli(tmp_path, CHAOS_CONFIG, f"cpus{cpus}")
        assert rc == 1
        assert not (out / "report.json").exists()
        errors[cpus] = capsys.readouterr().err
    assert len(forks) == (1 if hasattr(os, "fork") else 0)
    forks.assert_none_left()
    tag = "error[occupation]: "
    assert errors[1].startswith(tag) and errors[2].startswith(tag)
    original = errors[1][len(tag):].strip()
    assert original.startswith("occupation ")
    if forks:
        assert errors[2] == (f"{tag}bg._sweep: the forked half failed "
                             f"(RuntimeError: {original})\n")
    else:
        assert errors[2] == errors[1]


def test_k1_report_carries_the_picard_history(tmp_path):
    rc, out = run_cli(tmp_path, K1_CONFIG, "k1")
    assert rc == 0
    solver = json.loads((out / "report.json").read_text())["solver"]
    history = solver["sup_change_history"]
    assert len(history) == solver["iterations"] > 1
    assert history[-1] == solver["sup_change"]


def test_md_stops_at_the_last_event_after_max_events(tmp_path):
    # max_events is reached long before t_end; the state must stay at the
    # last event instead of streaming through pending events to t_end
    config = {**MD_CONFIG, "md": {"t_end": 5.0, "max_events": 20}}
    rc, out = run_cli(tmp_path, config, "capped")
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["audits"]["events"] == 20
    assert report["n_pair"] + report["n_wall"] == 20
    assert report["t_final"] < 5.0


def test_md_report_carries_the_scheduler_diagnostics(tmp_path):
    # the scheduler's counts are deterministic, so report.json repeats
    rc, out = run_cli(tmp_path, MD_CONFIG, "a")
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    diag = report["diagnostics"]
    assert sorted(diag) == ["compactions", "peak_heap", "stale_pops"]
    assert all(isinstance(v, int) for v in diag.values())
    # every particle starts with at least one wall event queued
    assert diag["peak_heap"] >= MD_CONFIG["model"]["n"]
    assert diag["stale_pops"] > 0 and diag["compactions"] == 0
    rc, again = run_cli(tmp_path, MD_CONFIG, "b")
    assert rc == 0
    assert ((out / "report.json").read_bytes()
            == (again / "report.json").read_bytes())


@pytest.mark.parametrize("cell, text", [
    (True, "1"), (np.bool_(False), "0"), (3, "3"), (np.int64(3), "3"),
    (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
    (math.inf, "inf"), (math.nan, "nan"), ("pair", "pair"),
])
def test_csv_cells_format_exactly(cell, text):
    assert runio._format_cell(cell) == text


def test_ops_both_flavors_equal_the_one_flavor_runs(tmp_path):
    # one kernel pass serves both flavors without moving a byte of either,
    # whether the master shares the local partner factors (uniform) or reads
    # its partner at r2 (tilted)
    for family, base in (("uniform", OPS_CONFIG),
                         ("tilted", OPS_TILTED_CONFIG)):
        runs = {}
        for flavor in ("both", "master", "boltzmann"):
            config = {**base, "ops": {**base["ops"], "flavor": flavor}}
            if flavor == "boltzmann":  # boltzmann alone reads no k1 section
                del config["k1"]
            rc, runs[flavor] = run_cli(tmp_path, config, f"{family}-{flavor}")
            assert rc == 0
        both = json.loads((runs["both"] / "report.json").read_text())
        assert sorted(both["audits"]) == ["boltzmann", "master"]
        for flavor in ("master", "boltzmann"):
            name = f"ops_{flavor}.csv"
            assert ((runs["both"] / name).read_bytes()
                    == (runs[flavor] / name).read_bytes())
            alone = json.loads((runs[flavor] / "report.json").read_text())
            assert list(alone["audits"]) == [flavor]
            assert both["audits"][flavor] == alone["audits"][flavor]
    # the moment audit's forked half of the rows is reaped before ops exits
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ops_runs_and_echoes_the_product_pair_form(tmp_path):
    config = {**OPS_CONFIG,
              "ops": {"probes": 1, "flavor": "master",
                      "rho2_form": "hat_product"}}
    rc, out = run_cli(tmp_path, config, "product")
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rho2_form"] == "hat_product"
    assert list(report["audits"]) == ["master"]


@pytest.mark.parametrize("config", [
    {**K1_CONFIG, "k1": {"grid_nodes": 2, "samples_per_node": 2_000}},
    KS_CONFIG,
    # eight spheres fill the histogram thinly, so its k1 is noisier
    {**CHAOS_CONFIG, "k1": {**CHAOS_CONFIG["k1"], "tol": 0.01}},
], ids=["k1", "ks", "chaos"])
def test_the_md_histogram_runs_as_a_tabulated_pdf(tmp_path, config):
    # the histogram.csv that md writes is the tabulated family's format
    rc, md_out = run_cli(tmp_path, MD_CONFIG, "md")
    assert rc == 0
    pdf = {"family": "tabulated", "path": str(md_out / "histogram.csv")}
    rc, out = run_cli(tmp_path, {**config, "pdf": pdf}, "tabulated")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["pdf"] == pdf
    assert all((out / name).exists() for name in manifest["artifacts"])
