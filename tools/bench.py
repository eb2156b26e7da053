"""Paired layer figures of two checkouts, appended to BENCH_<layer>.json.

    python3 tools/bench.py <layer> --src <checkout> --base <parent checkout>

The layers, each one measure function:

- md: `geometry.uniform_admissible_sample` seconds, then `md.run` events/s
  from that sample at `audit_every` 0, 100 and 1, for N = 200 and 1000
  along N sigma^2 = 0.2 (box 1);
- k1: `occupation.solve_k1` on the four chaos-sweep entries, seeded as
  `bg.chaos_sweep` seeds them, and on the ops-beams model, seeded as
  `hsgas ops` seeds it (models, pdf and budget from `perfbench/workloads/`),
  one child per model: wall, CPU and peak RSS, and a digest of the field's
  values and stderr, which must be the same in every run of both trees;
- kernel: the moment audit that `hsgas ops` runs at its first probe of the
  ops-beams workload, with its 10-node outer rule, for master alone,
  boltzmann alone and both flavours: the least wall and CPU time of
  `ROUNDS` timings in one child, kernel points (outer v1 x v2 x angle
  x flavours) per second, and the master/boltzmann ratios of the wall and
  CPU times;
- cli: one `perfbench/run.py --trace 0` run of `--workload` in the
  checkout: `wall_s`, `setup_s`, `cpu_s` and `peak_rss_mb`. The two
  checkout paths must have the same length, since a path's length moves
  what the program's imports and outputs cost.

A pair is one run of each tree; base runs first in even pairs and src in
odd ones, so a drift of the host's speed falls on both trees alike. Every
measure runs in a fresh child that imports `hsgas` from its checkout's
`src/`, with one BLAS/OpenMP thread, one child at a time. CPU time counts
the child and every process it forked and reaped (RUSAGE_SELF plus
RUSAGE_CHILDREN), and peak RSS is the larger of the child's own and that of
its largest reaped child, so work split over two processes shows its wall
time falling while its CPU time and summed memory do not.

One entry is appended to `BENCH_<layer>.json` at the root of this checkout,
after the earlier ones: both src digests, the host, the setup, per tree and
figure the median, quartiles, min, max, spread (max - min) / median and
runs, and per figure the src/base ratio of each pair, the number of pairs
in which src reads lower (`pairs_lower`) and the median pair ratio. A
host's speed drifts over hours, so compare trees only within one entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
PAIRS = 5  # pairs of md, k1 and kernel runs; cli takes --pairs
MD = {"c": 0.2, "box": 1.0, "ns": [200, 1000], "v_th": 1.0,
      "sample_seed": 0,
      # events per md.run call, by audit_every (a full audit per event is slow)
      "events_by_audit_every": {0: 2000, 100: 2000, 1: 200}}
OUTER_NODES = 10  # the outer moment rule of hsgas ops
FLAVOR_SETS = {"master": ("master",), "boltzmann": ("boltzmann",),
               "joint": ("master", "boltzmann")}
ROUNDS = 2  # kernel timings of each flavour set per child; the least is kept
CLI_METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
SETUP = {"md": MD, "k1": {"workloads": ["chaos-sweep", "ops-beams"]},
         "kernel": {"workload": "ops-beams", "outer_nodes": OUTER_NODES,
                    "rounds": ROUNDS}}


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def measure_md() -> dict:
    """Sampler seconds and MD events/s at N = 200 and 1000."""
    # imported here: the child finds hsgas on the PYTHONPATH of its tree
    from hsgas.geometry import HardSphereModel, uniform_admissible_sample
    from hsgas.md import run

    figures = {}
    for n in MD["ns"]:
        model = HardSphereModel(n=n, sigma=math.sqrt(MD["c"] / n),
                                box=MD["box"])
        t0 = time.perf_counter()
        config = uniform_admissible_sample(model, MD["sample_seed"],
                                           v_th=MD["v_th"])
        figures[f"sampler_s.n{n}"] = time.perf_counter() - t0
        for audit_every, events in MD["events_by_audit_every"].items():
            t0 = time.perf_counter()
            traj = run(model, config, max_events=events,
                       audit_every=audit_every, v_th_ref=MD["v_th"])
            seconds = time.perf_counter() - t0
            assert traj.audits["events"] == events
            figures[f"md_events_per_s.n{n}.audit{audit_every}"] = (
                events / seconds)
    return figures


def k1_models() -> list:
    """The k1 layer's model names: chaos.n<N> per chaos-sweep entry, ops."""
    chaos = json.loads((WORKLOADS / "chaos-sweep.json").read_text())
    return [f"chaos.n{n}" for n in chaos["sequence"]["ns"]] + ["ops"]


def measure_k1(name: str) -> dict:
    """solve_k1 wall, CPU, peak RSS and field digest of one model."""
    from hsgas import cli
    from hsgas.bg import build_sequence
    from hsgas.occupation import COARSE_K1, solve_k1
    from hsgas.seeding import derive_child_seed

    workload = "ops-beams" if name == "ops" else "chaos-sweep"
    config = json.loads((WORKLOADS / f"{workload}.json").read_text())
    if name == "ops":  # the model section, seeded by cli._k1_field
        model = cli._model_from(config)
        k1_seed = derive_child_seed(config["seed"], "cli", "ops", "k1")
    else:  # one entry of bg.chaos_sweep's sequence
        n = int(name.removeprefix("chaos.n"))
        seq = config["sequence"]
        model = next(m for m in build_sequence(seq["c"], seq["box"],
                                               seq["ns"]) if m.n == n)
        k1_seed = derive_child_seed(config["seed"], "bg", "chaos", n)
    pdf = cli._pdf_from(config, model.box)

    c0, t0 = cpu_seconds(), time.perf_counter()
    field = solve_k1(model, pdf, seed=k1_seed,
                     **{**COARSE_K1, **config.get("k1", {})})
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {f"wall_s.{name}": wall, f"cpu_s.{name}": cpu,
            f"peak_rss_mb.{name}": peak_kb / 1024.0,
            f"digest.{name}": hashlib.sha256(
                field.values.tobytes() + field.stderr.tobytes()).hexdigest()}


def measure_kernel() -> dict:
    """The ops-beams moment audit per flavour set."""
    from hsgas import cli, collision
    from hsgas.bg import bulk_phase_probes
    from hsgas.occupation import ContactOccupancy
    from hsgas.quadrature import hemisphere_rule
    from hsgas.seeding import derive_child_seed

    config = json.loads((WORKLOADS / "ops-beams.json").read_text())
    seed = config["seed"]
    model = cli._model_from(config)
    pdf = cli._pdf_from(config, model.box)
    quad = cli._quad_from(config)
    field = cli._k1_field(config, model, pdf, seed, "ops", "k1", coarse=True)
    occ = ContactOccupancy(model, field)
    r1 = bulk_phase_probes(model, pdf, config["ops"]["probes"],
                           derive_child_seed(seed, "cli", "ops",
                                             "probes"))[0][0]
    seconds = {name: [] for name in FLAVOR_SETS}
    cpu = {name: [] for name in FLAVOR_SETS}
    for _ in range(ROUNDS):
        for name, flavors in FLAVOR_SETS.items():
            c0, t0 = cpu_seconds(), time.perf_counter()
            collision.moment_audit(model, pdf, r1, quad, flavors,
                                   pair_occ=occ, outer_nodes=OUTER_NODES)
            seconds[name].append(time.perf_counter() - t0)
            cpu[name].append(cpu_seconds() - c0)
    points = (OUTER_NODES ** 3 * quad.velocity_nodes ** 3
              * hemisphere_rule(quad.angle_nodes)[4])
    figures = {}
    for name, flavors in FLAVOR_SETS.items():
        figures[f"audit_s.{name}"] = min(seconds[name])
        figures[f"cpu_s.{name}"] = min(cpu[name])
        figures[f"points_per_s.{name}"] = (points * len(flavors)
                                           / min(seconds[name]))
    for figure in ("audit_s", "cpu_s"):
        figures[f"master_over_boltzmann.{figure}"] = (
            figures[f"{figure}.master"] / figures[f"{figure}.boltzmann"])
    return figures


def measure_cli(workload: str, seconds: str, seed: str) -> dict:
    """The end-to-end metrics of one perfbench/run.py --trace 0 run."""
    # the child runs in the checkout's root, whose src/ run.py imports
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{Path.cwd()}: {workload} failed {result['failed']} of "
                 f"{result['attempted']} children")
    return {k: result["metrics"][k]["value"] for k in CLI_METRICS}


MEASURES = {"md": measure_md, "k1": measure_k1, "kernel": measure_kernel,
            "cli": measure_cli}


def child(tree: Path, script: str, *args: str) -> dict:
    """The JSON that `script --child *args` prints as its last line, run in
    the checkout tree with hsgas from tree/src and one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, script, "--child", *args], cwd=tree,
                         env=env, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def pair_runs(run, pairs: int) -> dict:
    """{side: [run(side) of each pair]}; base runs first in even pairs."""
    runs = {"src": [], "base": []}
    for k in range(pairs):
        for side in ("base", "src") if k % 2 == 0 else ("src", "base"):
            runs[side].append(run(side))
            print(f"pair {k + 1}/{pairs} {side}: "
                  f"{json.dumps(runs[side][-1])}", file=sys.stderr)
    return runs


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (max(values) - min(values)) / med,
            "runs": values}


def compare(runs: dict) -> dict:
    """The entry's digests, figures and per-pair ratios of pair_runs' runs.

    Per figure: each pair's src/base ratio, the pairs in which src reads
    lower (a tie counts for neither tree) and the median of the ratios. A
    string figure is a digest of the work done: it must be the same in
    every run of both trees, and the comparison stops otherwise.
    """
    every = runs["src"] + runs["base"]
    digests = {k: v for k, v in every[0].items() if isinstance(v, str)}
    for k, v in digests.items():
        if any(r[k] != v for r in every):
            sys.exit(f"{k} differs between runs: the trees did other work")
    names = [k for k in every[0] if k not in digests]
    ratios = {k: [s[k] / b[k] for s, b in zip(runs["src"], runs["base"])]
              for k in names}
    return {"digests": digests,
            "figures": {side: {k: summarize([r[k] for r in rs])
                               for k in names} for side, rs in runs.items()},
            "pair_ratio_src_over_base": ratios,
            "pairs_lower": {k: sum(r < 1 for r in rs)
                            for k, rs in ratios.items()},
            "median_pair_ratio": {k: statistics.median(rs)
                                  for k, rs in ratios.items()}}


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="layer", required=True)
    trees = argparse.ArgumentParser(add_help=False)
    trees.add_argument("--src", type=Path, required=True,
                       help="root of the checkout measured")
    trees.add_argument("--base", type=Path, required=True,
                       help="root of the checkout to compare against")
    trees.add_argument("--label", default="", help="name of the comparison")
    for layer in MEASURES:
        sub.add_parser(layer, parents=[trees],
                       help=MEASURES[layer].__doc__)
    p = sub.choices["cli"]
    p.add_argument("--workload", required=True,
                   help="a workload of perfbench/run.py")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="--seconds of each benchmark run")
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed of every run")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(MEASURES[argv[1]](*argv[2:])))
        return 0
    args = parser().parse_args(argv)
    trees = {"src": args.src.resolve(), "base": args.base.resolve()}
    setup, pairs, parts = SETUP.get(args.layer), PAIRS, [[]]
    if args.layer == "cli":
        if len(str(trees["src"])) != len(str(trees["base"])):
            sys.exit(f"checkout paths of different lengths: {trees['src']} "
                     f"and {trees['base']}")
        setup = {"workload": args.workload, "seconds": args.seconds,
                 "seed": args.seed}
        pairs, parts = args.pairs, [[args.workload, str(args.seconds),
                                     str(args.seed)]]
    elif args.layer == "k1":
        parts = [[name] for name in k1_models()]

    def run(side):
        out = {}
        for part in parts:
            out.update(child(trees[side], __file__, args.layer, *part))
        return out

    entry = {
        "label": args.label, "layer": args.layer,
        "src_digest": src_digest(trees["src"] / "src"),
        "base_digest": src_digest(trees["base"] / "src"),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(), "pairs": pairs, "setup": setup,
        **compare(pair_runs(run, pairs)),
    }
    out = ROOT / f"BENCH_{args.layer}.json"
    log = json.loads(out.read_text()) if out.exists() else []
    out.write_text(json.dumps([*log, entry], indent=1) + "\n")
    for name, ratios in entry["pair_ratio_src_over_base"].items():
        src, base = (entry["figures"][side][name] for side in trees)
        print(f"{name}: src {src['median']:.4g} [{src['q1']:.4g}, "
              f"{src['q3']:.4g}], base {base['median']:.4g} "
              f"[{base['q1']:.4g}, {base['q3']:.4g}], src/base "
              f"{min(ratios):.3f}-{max(ratios):.3f} (median "
              f"{entry['median_pair_ratio'][name]:.3f}), src lower in "
              f"{entry['pairs_lower'][name]}/{pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
