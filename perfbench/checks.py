"""Correctness checks on one child's artifacts.

`check(workload, out_dir, reference)` returns a list of failure messages,
empty when the run is correct. A missing file or report key is a failure,
not a crash. The checks:

- every workload: the manifest's artifact list names exactly the files on
  disk (`csv_digests` then lets the caller compare CSV bodies across runs
  of one commit, which must be byte-identical);
- md-bulk: no overlap, exact contact at every pair event, and kinetic
  energy conserved over the event log;
- ops-beams: C, gain and loss of every probe and the moment-audit residuals
  of each flavour match the stored reference for the seed to 1e-9 relative
  (the quadrature is deterministic; the tolerance admits only a different
  summation order);
- chaos-sweep: the defect decreases along the sequence, the point-particle
  control is exactly zero, and every entry is within 4 combined standard
  errors of the reference;
- relax-beams: mass conserved, entropy never decreasing, final entropy and
  L1 distance within 1e-9 relative of the reference.

The wall-rate prediction is not gated: its known excluded-volume error is
reported as a ratio by the caller instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
CHAOS_SIGMAS = 4.0


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float, scale: float | None = None) -> bool:
    return abs(value - ref) <= REL_TOL * (abs(ref) if scale is None else scale)


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


def _check_manifest(out: Path, report: dict) -> list:
    manifest = json.loads((out / "manifest.json").read_text())
    listed = set(manifest["artifacts"]) | {"manifest.json"}
    on_disk = {p.name for p in out.iterdir()}
    if listed != on_disk:
        return [f"manifest lists {sorted(listed)} but the directory holds "
                f"{sorted(on_disk)}"]
    return []


def _check_md(out: Path, report: dict, ref) -> list:
    fails = []
    sigma = json.loads((out / "manifest.json").read_text())[
        "config"]["model"]["sigma"]
    audits = report["audits"]
    if not audits["worst_pair_gap"] >= -1e-9 * sigma:
        fails.append(f"overlap: worst_pair_gap {audits['worst_pair_gap']}")
    if not audits["max_contact_residual"] <= 1e-8 * sigma:
        fails.append("pair events off contact: max_contact_residual "
                     f"{audits['max_contact_residual']}")
    events = _read_csv(out / "events.csv")
    de = math.fsum(float(r["KE_delta"]) for r in events)
    ke = 0.5 * math.fsum(float(r["vx"]) ** 2 + float(r["vy"]) ** 2
                         + float(r["vz"]) ** 2
                         for r in _read_csv(out / "final_state.csv"))
    if not abs(de) <= 1e-9 * ke:
        fails.append(f"kinetic energy drift {de} against final energy {ke}")
    if audits["events"] != len(events):
        fails.append("events.csv does not hold one row per event")
    return fails


def _check_ops(out: Path, report: dict, ref) -> list:
    fails = []
    for flavor, want in ref.items():
        rows = _read_csv(out / f"ops_{flavor}.csv")
        if len(rows) != len(want["probes"]):
            fails.append(f"{flavor}: {len(rows)} probes, reference has "
                         f"{len(want['probes'])}")
            continue
        for k, (row, probe) in enumerate(zip(rows, want["probes"])):
            for key in ("C_value", "gain", "loss"):
                if not _close(float(row[key]), probe[key]):
                    fails.append(f"{flavor} probe {k} {key} {row[key]} != "
                                 f"reference {probe[key]!r}")
        audit = report["audits"][flavor]
        for key, res in want["residuals"].items():
            if not _close(audit["residuals"][key], res, audit["scales"][key]):
                fails.append(f"{flavor} audit residual {key} "
                             f"{audit['residuals'][key]!r} != reference "
                             f"{res!r}")
    return fails


def _check_chaos(out: Path, report: dict, ref) -> list:
    fails = []
    if report["decreasing"] is not True:
        fails.append("factorization defect does not decrease along the "
                     "sequence")
    if report["info"]["control_max_abs"] != 0.0:
        fails.append("point-particle control is not exactly zero: "
                     f"{report['info']['control_max_abs']}")
    entries = report["entries"]
    if [e["n"] for e in entries] != [e["n"] for e in ref["entries"]]:
        return fails + ["sequence differs from the reference"]
    for got, want in zip(entries, ref["entries"]):
        band = CHAOS_SIGMAS * math.hypot(got["error"], want["error"])
        if not abs(got["value"] - want["value"]) <= band:
            fails.append(f"n={got['n']}: defect {got['value']} is more than "
                         f"{CHAOS_SIGMAS:g} standard errors from the "
                         f"reference {want['value']}")
    return fails


def _check_relax(out: Path, report: dict, ref) -> list:
    fails = []
    if not report["mass_drift_rel"] <= 1e-12:
        fails.append(f"mass drift {report['mass_drift_rel']}")
    entropy = [float(r["entropy"]) for r in _read_csv(out / "relax_trace.csv")]
    if any(b < a for a, b in zip(entropy, entropy[1:])):
        fails.append("entropy decreases along the trace")
    for key in ("entropy_final", "l1_to_moment_matched_maxwellian"):
        if not _close(report[key], ref[key]):
            fails.append(f"{key} {report[key]!r} != reference {ref[key]!r}")
    return fails


CHECKS = {
    "md-bulk": _check_md,
    "ops-beams": _check_ops,
    "chaos-sweep": _check_chaos,
    "relax-beams": _check_relax,
}


def check(workload: str, out_dir, reference) -> list:
    """Failure messages for one child's output directory (empty: correct)."""
    out = Path(out_dir)
    if workload in REFERENCES and reference is None:
        return ["no stored reference for this seed"]
    try:
        report = json.loads((out / "report.json").read_text())
        return (_check_manifest(out, report)
                + CHECKS[workload](out, report, reference))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _ops_reference(out: Path, report: dict) -> dict:
    ref = {}
    for flavor in ("master", "boltzmann"):
        rows = _read_csv(out / f"ops_{flavor}.csv")
        ref[flavor] = {
            "probes": [{k: float(r[k]) for k in ("C_value", "gain", "loss")}
                       for r in rows],
            "residuals": report["audits"][flavor]["residuals"],
        }
    return ref


def _chaos_reference(out: Path, report: dict) -> dict:
    return {"entries": [{k: e[k] for k in ("n", "value", "error")}
                        for e in report["entries"]]}


def _relax_reference(out: Path, report: dict) -> dict:
    return {k: report[k]
            for k in ("entropy_final", "l1_to_moment_matched_maxwellian")}


REFERENCES = {
    "ops-beams": _ops_reference,
    "chaos-sweep": _chaos_reference,
    "relax-beams": _relax_reference,
}


def reference_from(workload: str, out_dir) -> dict:
    """The values `check` compares against, read from a trusted run."""
    out = Path(out_dir)
    report = json.loads((out / "report.json").read_text())
    return REFERENCES[workload](out, report)
