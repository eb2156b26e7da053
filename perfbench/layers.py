"""The layers the traced run measures, and what each metric should move.

Every traced function is named by the span it records. A span gives two
metrics, `<span>.s` (inclusive seconds) and `<span>.self_s` (seconds not
covered by its child spans). Counts come from the arguments and return
values of the wrapped calls; derived metrics are ratios of counts and span
times of the same child.

`MOVES` records, for each per-layer metric, the end-to-end metric it should
move and the workloads where its layer runs; `BENCHMARK.json` holds its unit
and direction. On every other workload the metric reads 0 and an
optimisation of that layer predicts no change there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

ALL = ("md-bulk", "ops-beams", "chaos-sweep", "relax-beams")


def _kernel_points_per_probe(quad) -> int:
    """v2 nodes x hemisphere nodes of one deterministic kernel evaluation."""
    from hsgas.quadrature import hemisphere_rule

    if quad.mode == "mc":
        return quad.velocity_nodes ** 3
    return quad.velocity_nodes ** 3 * hemisphere_rule(quad.angle_nodes)[4]


def _scan_points(a, result) -> dict:
    # operator_scan evaluates every probe on the rule and on its coarsened
    # companion (the nested error estimate)
    quad = a["quad"]
    per_probe = _kernel_points_per_probe(quad)
    if quad.mode != "mc":
        per_probe += _kernel_points_per_probe(quad.coarsened())
    return {"kernel_points": len(a["probes"]) * per_probe}


def _audit_points(a, result) -> dict:
    quad = a["quad"]
    outer = quad.velocity_nodes if a["outer_nodes"] is None else a["outer_nodes"]
    return {"kernel_points": int(outer) ** 3 * _kernel_points_per_probe(quad)}


def _points(arg):
    import numpy as np

    def count(a, result) -> dict:
        return {"points": int(np.asarray(a[arg]).size // 3)}
    return count


def _relax_counts(a, result) -> dict:
    used = result.offsets_used
    table = result.info["table_size"]
    kept = sum(used) / (len(used) * 2 * table) if used and table else 0.0
    return {"steps": result.steps, "offsets_kept_frac": kept}


@dataclass(frozen=True)
class Target:
    """One traced callable: `owner` is a module or `module:Class` path."""

    owner: str
    attr: str
    span: str
    count: Callable | None = None   # (bound arguments, result) -> {name: n}
    memory: bool = False            # record the tracemalloc peak of the call


TARGETS = (
    Target("hsgas.runio", "validate_config", "runio.validate_config"),
    Target("hsgas.runio", "write_csv", "runio.write_csv",
           lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    Target("hsgas.geometry", "uniform_admissible_sample",
           "geometry.uniform_admissible_sample"),
    Target("hsgas.md", "run", "md.run",
           lambda a, r: {"events": r.audits["events"]}),
    Target("hsgas.md", "measure", "md.measure"),
    Target("hsgas.md", "enskog_frequency_prediction", "md.predictions"),
    Target("hsgas.md", "near_contact_pair_prediction", "md.predictions"),
    Target("hsgas.md", "wall_rate_prediction", "md.predictions"),
    Target("hsgas.occupation", "solve_k1", "occupation.solve_k1",
           lambda a, r: {"iterations": r.info["iterations"]}, memory=True),
    Target("hsgas.occupation", "estimate_ks", "occupation.estimate_ks",
           lambda a, r: {"tuples": len(a["tuples"])}),
    Target("hsgas.occupation", "correlation_delta",
           "occupation.correlation_delta"),
    Target("hsgas.occupation", "wall_conditioned_positions",
           "occupation.wall_conditioned_positions",
           lambda a, r: {"acceptance": r[1]}),
    Target("hsgas.occupation:OccupationField", "interp", "occupation.interp",
           _points("r")),
    Target("hsgas.occupation:ContactOccupancy", "g_contact",
           "occupation.g_contact", _points("n21")),
    Target("hsgas.occupation", "hat_normalization",
           "occupation.hat_normalization"),
    Target("hsgas.collision", "operator_scan", "collision.operator_scan",
           _scan_points),
    Target("hsgas.collision", "moment_audit", "collision.moment_audit",
           _audit_points),
    Target("hsgas.relax", "homogeneous_relax", "relax.homogeneous_relax",
           _relax_counts),
    Target("hsgas.bg", "chaos_sweep", "bg.chaos_sweep"),
)

SPANS = tuple(dict.fromkeys(t.span for t in TARGETS))


@dataclass(frozen=True)
class Moves:
    """The end-to-end metric a layer metric should move, and where it runs.

    Units and directions are in `BENCHMARK.json`, not here.
    """

    moves: str
    workloads: tuple


_SPAN_MOVES = {
    "runio.validate_config": ("setup_s", ALL),
    "runio.write_csv": ("wall_s", ("md-bulk", "relax-beams")),
    "geometry.uniform_admissible_sample": ("wall_s", ("md-bulk",)),
    "md.run": ("wall_s", ("md-bulk",)),
    "md.measure": ("wall_s", ("md-bulk",)),
    "md.predictions": ("wall_s", ("md-bulk",)),
    "occupation.solve_k1": ("wall_s", ("chaos-sweep", "ops-beams")),
    "occupation.estimate_ks": ("wall_s", ("chaos-sweep",)),
    "occupation.correlation_delta": ("wall_s", ("chaos-sweep",)),
    "occupation.wall_conditioned_positions": ("wall_s",
                                              ("chaos-sweep", "ops-beams")),
    "occupation.interp": ("wall_s", ("ops-beams", "chaos-sweep")),
    "occupation.g_contact": ("wall_s", ("ops-beams",)),
    "occupation.hat_normalization": ("wall_s", ("ops-beams", "chaos-sweep")),
    "collision.operator_scan": ("wall_s", ("ops-beams",)),
    "collision.moment_audit": ("wall_s", ("ops-beams",)),
    "relax.homogeneous_relax": ("wall_s", ("relax-beams",)),
    "bg.chaos_sweep": ("wall_s", ("chaos-sweep",)),
}

MOVES = {}
for _span, (_e2e, _wl) in _SPAN_MOVES.items():
    MOVES[f"{_span}.s"] = MOVES[f"{_span}.self_s"] = Moves(_e2e, _wl)
MOVES.update({
    "runio.write_csv.bytes": Moves("wall_s", ("md-bulk", "relax-beams")),
    "md.run.events_per_s": Moves("wall_s", ("md-bulk",)),
    "occupation.solve_k1.calls": Moves("wall_s",
                                       ("chaos-sweep", "ops-beams")),
    "occupation.solve_k1.iterations": Moves("wall_s",
                                            ("chaos-sweep", "ops-beams")),
    "occupation.solve_k1.peak_mb": Moves("peak_rss_mb",
                                         ("chaos-sweep", "ops-beams")),
    "occupation.estimate_ks.tuples": Moves("wall_s", ("chaos-sweep",)),
    "occupation.wall_conditioned_positions.acceptance": Moves(
        "wall_s", ("chaos-sweep", "ops-beams")),
    "occupation.interp.points": Moves("wall_s", ("ops-beams", "chaos-sweep")),
    "occupation.g_contact.points": Moves("wall_s", ("ops-beams",)),
    "collision.kernel_points": Moves("wall_s", ("ops-beams",)),
    "collision.kernel_points_per_s": Moves("wall_s", ("ops-beams",)),
    "relax.steps": Moves("wall_s", ("relax-beams",)),
    "relax.s_per_step": Moves("wall_s", ("relax-beams",)),
    "relax.offsets_kept_frac": Moves("wall_s", ("relax-beams",)),
    "trace.overhead_s": Moves("wall_s", ALL),
    "trace.coverage": Moves("wall_s", ALL),
})


def derive(agg: dict) -> dict:
    """The metrics of `MOVES` from one child's `spans.aggregate` output.

    Counts recorded on a span keep the span's name, except that the two
    collision spans share `collision.kernel_points` and the relax counts
    drop the function name; ratios use counts and times of the same child.
    """
    m = {k: agg.get(k, 0) for k in MOVES}
    kernel_s = (m["collision.operator_scan.s"]
                + m["collision.moment_audit.s"])
    m["collision.kernel_points"] = (
        agg.get("collision.operator_scan.kernel_points", 0)
        + agg.get("collision.moment_audit.kernel_points", 0))
    m["relax.steps"] = agg.get("relax.homogeneous_relax.steps", 0)
    m["relax.offsets_kept_frac"] = agg.get(
        "relax.homogeneous_relax.offsets_kept_frac", 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m["md.run.events_per_s"] = ratio(agg.get("md.run.events", 0),
                                     m["md.run.s"])
    m["collision.kernel_points_per_s"] = ratio(m["collision.kernel_points"],
                                               kernel_s)
    m["relax.s_per_step"] = ratio(m["relax.homogeneous_relax.s"],
                                  m["relax.steps"])
    return m
