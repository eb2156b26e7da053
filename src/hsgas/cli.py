"""Command-line orchestration: one subcommand per experiment.

The subcommands are the entries of runio.EXPERIMENTS, and the runner of
subcommand <name> is _run_<name> here (dashes become underscores). Every
experiment reads a JSON config validated against the versioned schema in
runio, which admits only the sections its runner reads and requires its
geometry section (model or sequence). Section keys go straight to the
library functions, whose signatures hold the defaults; a key the config
leaves out is not passed at all. Every experiment derives all randomness
from the single root seed, writes its CSV and JSON artifacts into the
output directory, and finishes with a manifest echoing the config. CSV
bodies are byte-identical across reruns of the same config; wall-clock
lives only in the manifest.

Exit codes: 0 success, 1 runtime failure inside an experiment, 2 config or
schema violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .geometry import HardSphereModel, uniform_admissible_sample
from .pdfs import build_family
from .quadrature import QuadratureSpec
from .runio import (
    EXPERIMENTS,
    artifact_path,
    build_manifest,
    raising_module,
    read_json,
    resolve_out_dir,
    validate_config,
    write_csv,
    write_json,
)
from .seeding import derive_child_seed


def _model_from(config: dict) -> HardSphereModel:
    m = config["model"]
    return HardSphereModel(n=m["n"], sigma=float(m["sigma"]),
                           box=float(m["box"]))


def _sequence_args(config: dict):
    s = config["sequence"]
    return float(s["c"]), float(s["box"]), s["ns"]


def _pdf_from(config: dict, box: float):
    spec = config.get("pdf", {"family": "uniform_maxwell"})
    return build_family(spec, box)


def _quad_from(config: dict) -> QuadratureSpec:
    return QuadratureSpec(**config.get("quadrature", {}))


def _given(section: dict, *keys, **renamed) -> dict:
    """The keys a section holds, as keyword arguments (renamed: param=key).

    A key the section leaves out is not passed: the library default holds.
    """
    names = {**{k: k for k in keys}, **renamed}
    return {p: section[k] for p, k in names.items() if k in section}


def _k1_field(config, model, pdf, seed, *labels, coarse=False):
    """solve_k1 on the config's k1 section, seeded by the labels.

    k1 keeps solve_k1's defaults; ks and ops use the field only as
    importance weights and pass coarse=True for occupation.COARSE_K1.
    """
    from .occupation import COARSE_K1, solve_k1

    k1 = config.get("k1", {})
    if coarse:
        k1 = {**COARSE_K1, **k1}
    return solve_k1(model, pdf, seed=derive_child_seed(seed, "cli", *labels),
                    **k1)


def _write_entries(out_dir, name, entries, columns):
    """A sweep's per-entry rows as a CSV with the given columns."""
    write_csv(artifact_path(out_dir, name), columns,
              [[e[c] for c in columns] for e in entries])
    return [name]


# ---------------------------------------------------------------------------
# experiment runners: each returns (artifact names, report dict)


def _run_k1(config, seed, out_dir):
    from .occupation import hat_normalization

    model = _model_from(config)
    pdf = _pdf_from(config, model.box)
    field = _k1_field(config, model, pdf, seed, "k1")
    field.to_csv(artifact_path(out_dir, "k1_field.csv"))
    report = {
        "sup_abs_k1_minus_1": field.sup_abs_deviation(),
        "hat_normalization": hat_normalization(model, pdf, field),
        "solver": field.info,
    }
    return ["k1_field.csv"], report


def _run_ks(config, seed, out_dir):
    from .occupation import PairMisfit, contact_pair_tuples, estimate_ks

    model = _model_from(config)
    pdf = _pdf_from(config, model.box)
    p = config.get("ks", {})
    field = _k1_field(config, model, pdf, seed, "ks", "k1", coarse=True)
    try:
        tuples = contact_pair_tuples(
            model, pdf, p.get("tuple_count", 20),
            derive_child_seed(seed, "cli", "ks", "tuples"),
            **_given(p, "separation_factor"))
    except PairMisfit as exc:
        exc.args = (f"{exc}; lower ks.separation_factor or model.sigma",)
        raise
    positions = [np.stack([pt.r for pt in tp]) for tp in tuples]
    occ = estimate_ks(model, pdf, positions,
                      seed=derive_child_seed(seed, "cli", "ks", "mc"),
                      k1_field=field, **_given(p, "samples"))
    rows = []
    for pts, ks, err in zip(occ.points, occ.ks_values, occ.mc_error):
        rows.append(list(pts[0]) + list(pts[1]) + [float(ks), float(err)])
    write_csv(artifact_path(out_dir, "ks_pairs.csv"),
              ["x1", "y1", "z1", "x2", "y2", "z2", "ks", "stderr"], rows)
    report = {
        "s": occ.s,
        "sup_abs_ks_minus_1": float(np.abs(occ.ks_values - 1.0).max()),
        "max_mc_error": float(occ.mc_error.max()),
        "info": occ.info,
    }
    return ["ks_pairs.csv"], report


# ops.rho2_form names the pair form at contact; the ContactOccupancy mode
# computes it: k2 itself, or the product k1(r1) k1(r2)
_PAIR_MODES = {"pair_over_k1sq": "insertion", "hat_product": "product"}


def _run_ops(config, seed, out_dir):
    from .bg import bulk_phase_probes
    from .collision import FLAVORS, moment_audit, operator_scan
    from .occupation import ContactOccupancy

    model = _model_from(config)
    pdf = _pdf_from(config, model.box)
    quad = _quad_from(config)
    p = config.get("ops", {})
    flavor = p.get("flavor", "both")
    flavors = tuple(fl for fl in FLAVORS if flavor in (fl, "both"))
    report = {"audits": {}}
    occ = None
    if "master" in flavors:  # the only kernel that reads k1 and rho2_form
        field = _k1_field(config, model, pdf, seed, "ops", "k1", coarse=True)
        rho2_form = p.get("rho2_form", "pair_over_k1sq")
        occ = ContactOccupancy(model, field, mode=_PAIR_MODES[rho2_form])
        report["rho2_form"] = rho2_form
    probes = bulk_phase_probes(model, pdf, p.get("probes", 12),
                               derive_child_seed(seed, "cli", "ops", "probes"))
    header = ["x", "y", "z", "vx", "vy", "vz", "C_value", "C_error",
              "gain", "loss"]
    scans = operator_scan(model, pdf, probes, quad, flavors, pair_occ=occ)
    # audit cost scales as outer^3 * inner^3 * angles; cap the inner kernel
    # grid and use the compact Gauss-Hermite outer moment rule
    audit_quad = replace(quad, velocity_nodes=min(quad.velocity_nodes, 14),
                         angle_nodes=min(quad.angle_nodes, 75))
    audits = moment_audit(model, pdf, probes[0][0], audit_quad, flavors,
                          pair_occ=occ, outer_nodes=10)
    artifacts = []
    for fl in flavors:
        name = f"ops_{fl}.csv"
        write_csv(artifact_path(out_dir, name), header, scans[fl])
        artifacts.append(name)
        report["audits"][fl] = {
            "residuals": audits[fl].residuals,
            "scales": audits[fl].scales,
            "worst_relative": audits[fl].worst_relative(),
            "velocity_nodes": audit_quad.velocity_nodes,
            "angle_nodes": audit_quad.angle_nodes,
            "outer_nodes": 10,
        }
    return artifacts, report


def _run_md(config, seed, out_dir):
    from .md import enskog_frequency_prediction, measure, run
    from .md import near_contact_pair_prediction, wall_rate_prediction

    model = _model_from(config)
    p = config.get("md", {})
    v_th = _pdf_from(config, model.box).v_th
    t_end = p.get("t_end")
    max_events = p.get("max_events")
    snapshots = p.get("snapshots", 0)
    snap_times = None
    if snapshots:
        eq = p.get("equilibration_fraction", 0.2)
        snap_times = np.linspace(eq * t_end, t_end, snapshots)
    config0 = uniform_admissible_sample(
        model, derive_child_seed(seed, "cli", "md", "init"), v_th=v_th)
    traj = run(model, config0, t_end=t_end, max_events=max_events,
               snapshot_times=snap_times, v_th_ref=v_th,
               **_given(p, "audit_every"))
    if len(traj.snapshots) < snapshots:
        raise ValueError(
            f"the run stopped at t={traj.t_final:.6g} after "
            f"{len(traj.snapshots)} of {snapshots} snapshots; raise "
            "md.max_events or lower md.t_end")
    traj.to_event_csv(artifact_path(out_dir, "events.csv"))
    final = traj.config
    rows = [[i] + list(final.positions[i]) + list(final.velocities[i])
            for i in range(model.n)]
    write_csv(artifact_path(out_dir, "final_state.csv"),
              ["i", "x", "y", "z", "vx", "vy", "vz"], rows)
    artifacts = ["events.csv", "final_state.csv"]
    report = {
        "t_final": traj.t_final, "n_pair": traj.n_pair,
        "n_wall": traj.n_wall, "audits": traj.audits,
        "diagnostics": traj.diagnostics,
    }
    if snapshots:
        obs = measure(traj)
        obs.tabulated.to_csv(artifact_path(out_dir, "histogram.csv"))
        artifacts.append("histogram.csv")
        enskog = enskog_frequency_prediction(model, T=obs.temperature)
        shell_pred, shell_err, _ = near_contact_pair_prediction(model)
        report["measurement"] = {
            "temperature": obs.temperature,
            "axis_second_moments": list(obs.axis_second_moments),
            "speed4_ratio": obs.speed4_ratio,
            "pair_rate_per_particle": obs.pair_rate_per_particle,
            "wall_rate_per_particle": obs.wall_rate_per_particle,
            "enskog_prediction": enskog,
            "wall_rate_prediction": wall_rate_prediction(
                model, T=obs.temperature),
            "shell_mean": obs.shell_mean, "shell_se": obs.shell_se,
            "shell_prediction": shell_pred,
            "shell_prediction_error": shell_err,
            "underpopulated_fraction": obs.underpopulated_fraction,
            "flags": obs.flags,
        }
    return artifacts, report


def _run_bg_sweep(config, seed, out_dir):
    from .bg import sweep_k1

    c, box, ns = _sequence_args(config)
    rep = sweep_k1(c, box, ns, pdf=_pdf_from(config, box), seed=seed,
                   **config.get("k1", {}))
    return (_write_entries(out_dir, "k1_sweep.csv", rep.entries,
                           ["n", "epsilon", "sigma", "value", "error"]),
            asdict(rep))


def _run_noncomm(config, seed, out_dir):
    from .bg import noncommutativity_report

    c, box, ns = _sequence_args(config)
    rep = noncommutativity_report(c, box, ns, _pdf_from(config, box),
                                  quad=_quad_from(config), seed=seed,
                                  **config.get("k1", {}))
    return (_write_entries(out_dir, "noncomm.csv", rep.entries,
                           ["n", "epsilon", "sigma", "raw_value",
                            "raw_error", "rescaled_value", "rescaled_error",
                            "sup_abs_k1_minus_1"]),
            asdict(rep))


def _run_chaos(config, seed, out_dir):
    from .bg import chaos_sweep

    c, box, ns = _sequence_args(config)
    rep = chaos_sweep(c, box, ns, pdf=_pdf_from(config, box), seed=seed,
                      **config.get("bg", {}), **config.get("k1", {}))
    return (_write_entries(out_dir, "chaos.csv", rep.entries,
                           ["n", "epsilon", "sigma", "value", "error",
                            "sup_abs_k2_minus_1"]),
            asdict(rep))


def _run_relax(config, seed, out_dir):
    from .relax import (
        VelocityLattice,
        homogeneous_relax,
        initial_from_pdf,
        l1_distance,
        moment_matched_maxwellian,
    )

    model = _model_from(config)
    pdf = _pdf_from(config, model.box)
    p = config.get("relax", {})
    lattice = VelocityLattice(**_given(p, "v_max", nodes="grid_nodes"))
    f0 = initial_from_pdf(lattice, pdf)
    res = homogeneous_relax(model, f0, lattice, t_end=p.get("t_end", 1.0),
                            **_given(p, "cfl", "dt", "stride"))
    rows = [[res.times[k], res.entropy[k], res.mass[k],
             res.momentum[k][0], res.momentum[k][1], res.momentum[k][2],
             res.energy[k]] for k in range(len(res.times))]
    write_csv(artifact_path(out_dir, "relax_trace.csv"),
              ["t", "entropy", "mass", "px", "py", "pz", "energy"], rows)
    target = moment_matched_maxwellian(lattice, res.f)
    report = {
        "steps": res.steps,
        "entropy_initial": float(res.entropy[0]),
        "entropy_final": float(res.entropy[-1]),
        "mass_drift_rel": float(abs(res.mass[-1] / res.mass[0] - 1.0)),
        "l1_to_moment_matched_maxwellian": l1_distance(
            lattice, res.f, target) / float(res.mass[-1]),
        "info": {**res.info, "offsets_used": res.offsets_used},
    }
    return ["relax_trace.csv"], report


def runner(name: str):
    """The function that runs subcommand `name` of runio.EXPERIMENTS."""
    return globals()["_run_" + name.replace("-", "_")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsgas",
        description="hard-sphere kinetic-theory experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*EXPERIMENTS, "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config)")
    return parser


def _error_origin(exc: BaseException, command: str) -> str:
    """The package layer that raised exc (runio.raising_module).

    Errors raised by the runners in this module name the subcommand.
    """
    module = raising_module(exc, skip=__name__)
    return module.split(".")[-1] if module else command


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = read_json(args.config)
    except (OSError, ValueError) as exc:
        print(f"error[config]: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(config, dict):
        config = {**config, "seed": args.seed}
    errors = validate_config(config)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        return 2
    if args.command == "validate-config":
        print("config is valid")
        return 0
    if config["experiment"] != args.command:
        print(f"schema error: $.experiment: config names "
              f"{config['experiment']!r} but the subcommand is "
              f"{args.command!r}", file=sys.stderr)
        return 2
    seed = config["seed"]
    out_dir = resolve_out_dir(args.out or config.get("output_dir", "out"))
    t0 = time.time()
    try:
        artifacts, report = runner(args.command)(config, seed, out_dir)
    except Exception as exc:
        print(f"error[{_error_origin(exc, args.command)}]: {exc}",
              file=sys.stderr)
        return 1
    write_json(artifact_path(out_dir, "report.json"), report)
    manifest = build_manifest(config, seed=seed,
                              artifacts=artifacts + ["report.json"],
                              wall_clock_s=time.time() - t0)
    write_json(artifact_path(out_dir, "manifest.json"), manifest)
    print(f"wrote {', '.join(artifacts + ['report.json', 'manifest.json'])} "
          f"to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
