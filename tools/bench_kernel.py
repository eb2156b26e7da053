"""Layer figures of the collision kernel: moment-audit seconds per flavour set.

    python3 tools/bench_kernel.py --src src --base /path/to/parent/src

At the ops-beams workload's model, pdf, k1 budget, quadrature and seed (read
from `perfbench/workloads/ops-beams.json`) each child solves k1 once and then
times the moment audit that `hsgas ops` runs at its first probe, with the
same 10-node outer rule: master alone, boltzmann alone, and both flavours.
A tree that evaluates one flavour per kernel pass runs "both" as the two
one-flavour audits in turn, as its `hsgas ops` did. Each child runs every
variant ROUNDS times, interleaved, and reports the least wall and the least
CPU time of each.

`points_per_s.<set>` counts the kernel points (outer v1 x v2 x angle) of one
flavour times the flavours in the set, per second, so the three sets are on
one scale. `cpu_s.<set>` is the CPU time (user plus system) the audit took
in the child and in any process it forked and reaped (RUSAGE_SELF plus
RUSAGE_CHILDREN), so a kernel that splits its rows between two cores shows
its wall time falling while its CPU time stays.

Children of the two trees alternate, one at a time, with one BLAS/OpenMP
thread, and the order within each pair alternates too. One entry is appended
to `BENCH_kernel.json` at the repository root: both src digests, the host,
the seed, per tree and figure the median, min, max and spread of the
children, and the src/base ratio of every median. The child, digest and
append harness is the one of `tools/bench_md.py`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from bench_md import append, child, host, src_digest, summarize

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = ROOT / "perfbench" / "workloads" / "ops-beams.json"
OUT = ROOT / "BENCH_kernel.json"
OUTER_NODES = 10  # the outer moment rule of hsgas ops
SETS = {"master": ("master",), "boltzmann": ("boltzmann",),
        "joint": ("master", "boltzmann")}
ROUNDS = 2  # timings of each set per child; the child keeps the fastest
PAIRS = 5   # children per tree


def measure() -> dict:
    """One child's figures, in this process."""
    # imported here: the child finds hsgas on the PYTHONPATH of --src
    from hsgas import cli, collision
    from hsgas.bg import bulk_phase_probes
    from hsgas.occupation import ContactOccupancy
    from hsgas.quadrature import hemisphere_rule
    from hsgas.seeding import derive_child_seed

    config = json.loads(WORKLOAD.read_text())
    seed = config["seed"]
    model = cli._model_from(config)
    pdf = cli._pdf_from(config, model.box)
    quad = cli._quad_from(config)
    field = cli._k1_field(config, model, pdf, seed, "ops", "k1", coarse=True)
    occ = ContactOccupancy(model, field)
    r1 = bulk_phase_probes(model, pdf, config["ops"]["probes"],
                           derive_child_seed(seed, "cli", "ops",
                                             "probes"))[0][0]
    # a tree without FLAVORS takes one flavour name per moment_audit call
    joint = hasattr(collision, "FLAVORS")

    def audit(flavors):
        for arg in [flavors] if joint else flavors:
            collision.moment_audit(model, pdf, r1, quad, arg, pair_occ=occ,
                                   outer_nodes=OUTER_NODES)

    def cpu_seconds():
        return sum(ru.ru_utime + ru.ru_stime for ru in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN)))

    seconds = {name: [] for name in SETS}
    cpu = {name: [] for name in SETS}
    for _ in range(ROUNDS):
        for name, flavors in SETS.items():
            c0, t0 = cpu_seconds(), time.perf_counter()
            audit(flavors)
            seconds[name].append(time.perf_counter() - t0)
            cpu[name].append(cpu_seconds() - c0)
    points = (OUTER_NODES ** 3 * quad.velocity_nodes ** 3
              * hemisphere_rule(quad.angle_nodes)[4])
    figures = {}
    for name, flavors in SETS.items():
        best = min(seconds[name])
        figures[f"audit_s.{name}"] = best
        figures[f"cpu_s.{name}"] = min(cpu[name])
        figures[f"points_per_s.{name}"] = points * len(flavors) / best
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, help="directory holding hsgas/")
    ap.add_argument("--base", type=Path,
                    help="the src directory of the tree to compare against")
    ap.add_argument("--label", default="", help="name of the tree measured")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if args.src is None or args.base is None:
        ap.error("--src and --base are required")
    trees = {"src": args.src.resolve(), "base": args.base.resolve()}
    runs = {side: [] for side in trees}
    for k in range(PAIRS):
        order = ("base", "src") if k % 2 == 0 else ("src", "base")
        for side in order:
            runs[side].append(child(trees[side], __file__))
            print(f"pair {k + 1}/{PAIRS} {side}: {json.dumps(runs[side][-1])}",
                  file=sys.stderr)
    figures = {side: summarize(r) for side, r in runs.items()}
    ratios = {name: figures["src"][name]["median"]
              / figures["base"][name]["median"] for name in figures["src"]}
    entry = {
        "label": args.label,
        "src_digest": src_digest(trees["src"]),
        "base_digest": src_digest(trees["base"]),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(), "pairs": PAIRS, "rounds": ROUNDS,
        "seeds": {"workload": json.loads(WORKLOAD.read_text())["seed"]},
        "setup": {"workload": WORKLOAD.name, "outer_nodes": OUTER_NODES},
        "figures": figures,
        "ratio_src_over_base": ratios,
    }
    append(OUT, entry)
    for name, ratio in ratios.items():
        print(f"{name}: src {figures['src'][name]['median']:.4g}, "
              f"base {figures['base'][name]['median']:.4g}, "
              f"ratio {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
