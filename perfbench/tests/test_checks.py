"""Each correctness check passes on a consistent artifact set and trips when
one value is tampered with."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks


def _write(out: Path, report: dict, csvs: dict, config: dict | None = None):
    out.mkdir(parents=True, exist_ok=True)
    for name, text in csvs.items():
        (out / name).write_text(text)
    (out / "report.json").write_text(json.dumps(report))
    manifest = {"artifacts": sorted(list(csvs) + ["report.json"]),
                "config": config or {}}
    (out / "manifest.json").write_text(json.dumps(manifest))


def _md(out: Path):
    _write(out,
           {"audits": {"worst_pair_gap": 0.0, "max_contact_residual": 1e-17,
                       "events": 2}},
           {"events.csv": "t,kind,i,j_or_face,KE_delta,Px_delta,Py_delta,"
                          "Pz_delta\n0.5,wall,0,1,0,0,0,0\n"
                          "0.7,pair,0,1,0,0,0,0\n",
            "final_state.csv": "i,x,y,z,vx,vy,vz\n0,0.1,0.1,0.1,1,0,0\n"
                               "1,0.9,0.9,0.9,0,-1,0\n"},
           {"model": {"n": 2, "sigma": 0.015, "box": 1.0}})


def _ops(out: Path):
    header = "x,y,z,vx,vy,vz,C_value,C_error,gain,loss\n"
    audit = {"residuals": {"mass": 1e-17, "energy": -2e-17},
             "scales": {"mass": 0.5, "energy": 1.5}}
    _write(out,
           {"audits": {"master": audit, "boltzmann": audit}},
           {"ops_master.csv": header + "0.5,0.5,0.5,1,0,0,-0.0151,1e-6,"
                                       "0.1049,0.12\n",
            "ops_boltzmann.csv": header + "0.5,0.5,0.5,1,0,0,-0.0112,1e-6,"
                                          "0.1088,0.12\n"})


def _chaos(out: Path):
    entries = [{"n": n, "value": v, "error": 1e-5}
               for n, v in ((20, 9e-4), (40, 5e-4), (80, 3e-4))]
    _write(out,
           {"decreasing": True, "info": {"control_max_abs": 0.0},
            "entries": entries},
           {"chaos.csv": "n,epsilon,sigma,value,error\n20,1,1,0.0009,1e-05\n"})


def _relax(out: Path):
    _write(out,
           {"mass_drift_rel": 1e-15, "entropy_final": 3.3335,
            "l1_to_moment_matched_maxwellian": 0.7027},
           {"relax_trace.csv": "t,entropy,mass\n0,3.2955,1\n0.05,3.31,1\n"
                               "0.1,3.3335,1\n"})


FIXTURES = {"md-bulk": _md, "ops-beams": _ops, "chaos-sweep": _chaos,
            "relax-beams": _relax}


def _setup(tmp_path, workload):
    out = tmp_path / "out"
    FIXTURES[workload](out)
    ref = (checks.reference_from(workload, out)
           if workload in checks.REFERENCES else None)
    return out, ref


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _edit_json(path: Path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload", sorted(FIXTURES))
def test_consistent_artifacts_pass(tmp_path, workload):
    out, ref = _setup(tmp_path, workload)
    assert checks.check(workload, out, ref) == []


@pytest.mark.parametrize("workload", sorted(FIXTURES))
def test_a_file_missing_from_the_manifest_trips(tmp_path, workload):
    out, ref = _setup(tmp_path, workload)
    (out / "stray.csv").write_text("x\n1\n")
    assert checks.check(workload, out, ref)


@pytest.mark.parametrize("workload", sorted(FIXTURES))
def test_a_missing_report_trips(tmp_path, workload):
    out, ref = _setup(tmp_path, workload)
    (out / "report.json").unlink()
    assert checks.check(workload, out, ref)


@pytest.mark.parametrize("workload", sorted(checks.REFERENCES))
def test_a_missing_reference_trips(tmp_path, workload):
    out, _ = _setup(tmp_path, workload)
    assert checks.check(workload, out, None)


TAMPER = [
    ("md-bulk", lambda o: _edit(o / "events.csv", "0.7,pair,0,1,0",
                                "0.7,pair,0,1,1")),
    ("md-bulk", lambda o: _edit_json(o / "report.json",
                                     lambda r: r["audits"].update(
                                         worst_pair_gap=-1e-6))),
    ("md-bulk", lambda o: _edit_json(o / "report.json",
                                     lambda r: r["audits"].update(
                                         max_contact_residual=1e-6))),
    ("md-bulk", lambda o: _edit_json(o / "report.json",
                                     lambda r: r["audits"].pop("events"))),
    ("ops-beams", lambda o: _edit(o / "ops_master.csv", "0.1049", "0.1048")),
    ("ops-beams", lambda o: _edit(o / "ops_boltzmann.csv", "-0.0112",
                                  "-0.0113")),
    ("ops-beams", lambda o: _edit_json(
        o / "report.json",
        lambda r: r["audits"]["master"]["residuals"].update(energy=1e-6))),
    ("ops-beams", lambda o: _edit_json(
        o / "report.json", lambda r: r["audits"].pop("boltzmann"))),
    ("chaos-sweep", lambda o: _edit_json(
        o / "report.json", lambda r: r.update(decreasing=False))),
    ("chaos-sweep", lambda o: _edit_json(
        o / "report.json", lambda r: r["info"].update(control_max_abs=1e-9))),
    ("chaos-sweep", lambda o: _edit_json(
        o / "report.json", lambda r: r["entries"][1].update(value=7e-4))),
    ("chaos-sweep", lambda o: _edit_json(
        o / "report.json", lambda r: r.pop("entries"))),
    ("relax-beams", lambda o: _edit(o / "relax_trace.csv", "3.31", "3.21")),
    ("relax-beams", lambda o: _edit_json(
        o / "report.json", lambda r: r.update(mass_drift_rel=1e-9))),
    ("relax-beams", lambda o: _edit_json(
        o / "report.json", lambda r: r.update(entropy_final=3.3336))),
    ("relax-beams", lambda o: _edit_json(
        o / "report.json", lambda r: r.pop("l1_to_moment_matched_maxwellian"))),
]


@pytest.mark.parametrize("workload,tamper", TAMPER)
def test_a_tampered_artifact_trips(tmp_path, workload, tamper):
    out, ref = _setup(tmp_path, workload)
    tamper(out)
    assert checks.check(workload, out, ref)


def test_one_changed_csv_digit_changes_the_digests(tmp_path):
    a, _ = _setup(tmp_path / "a", "relax-beams")
    b, _ = _setup(tmp_path / "b", "relax-beams")
    assert checks.csv_digests(a) == checks.csv_digests(b)
    _edit(b / "relax_trace.csv", "3.2955", "3.2956")
    assert checks.csv_digests(a) != checks.csv_digests(b)
