"""Layer figures of the k1 solver: solve_k1 seconds, CPU and peak RSS.

    python3 tools/bench_k1.py --src src --base /path/to/parent/src

Times `occupation.solve_k1` on the models of two benchmark workloads, with
their pdf, k1 budget and seeds (read from `perfbench/workloads/`): the four
entries of the chaos-sweep sequence (N = 20, 40, 80, 160), each seeded as
`bg.chaos_sweep` seeds it, and the ops-beams model, seeded as `hsgas ops`
seeds it. Each child imports `hsgas` from one tree and solves one model once.
It reports the wall time, the CPU time (user plus system) of the child and
of any process it forked and reaped (RUSAGE_SELF plus RUSAGE_CHILDREN), and
the peak RSS, the larger of the child's own and that of its largest reaped
child (a forked half holds its own pages), so a solver that splits its
nodes between two processes shows its wall time falling while its CPU time
and its summed memory do not. The child also hashes the field's values and
stderr, and the run stops if the two trees' hashes differ.

Children of the two trees alternate, one at a time, with one BLAS/OpenMP
thread, and the order within each pair alternates too. One entry is appended
to `BENCH_k1.json` at the repository root: both src digests, the host, the
seeds, per tree and figure the median, min, max and spread of the children,
and the src/base ratio of every median. The child, digest and append
harness is the one of `tools/bench_md.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from bench_md import append, child, host, src_digest, summarize

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
OUT = ROOT / "BENCH_k1.json"
PAIRS = 5  # children per tree and model


def models() -> dict:
    """name -> (workload config, labels the model and seed are built from)."""
    chaos = json.loads((WORKLOADS / "chaos-sweep.json").read_text())
    out = {f"chaos.n{n}": ("chaos-sweep.json", n)
           for n in chaos["sequence"]["ns"]}
    out["ops"] = ("ops-beams.json", None)
    return out


def measure(name: str) -> dict:
    """Solve one model once in this process; its figures and field hash."""
    # imported here: the child finds hsgas on the PYTHONPATH of --src
    from hsgas import cli
    from hsgas.bg import build_sequence
    from hsgas.occupation import COARSE_K1, solve_k1
    from hsgas.seeding import derive_child_seed

    workload, n = models()[name]
    config = json.loads((WORKLOADS / workload).read_text())
    seed = config["seed"]
    k1 = {**COARSE_K1, **config.get("k1", {})}
    if n is None:  # hsgas ops: the model section, seeded by cli._k1_field
        model = cli._model_from(config)
        pdf = cli._pdf_from(config, model.box)
        k1_seed = derive_child_seed(seed, "cli", "ops", "k1")
    else:  # one entry of bg.chaos_sweep's sequence
        sequence = config["sequence"]
        seq = build_sequence(sequence["c"], sequence["box"], sequence["ns"])
        model = next(m for m in seq if m.n == n)
        pdf = cli._pdf_from(config, model.box)
        k1_seed = derive_child_seed(seed, "bg", "chaos", n)

    def cpu_seconds():
        return sum(ru.ru_utime + ru.ru_stime for ru in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN)))

    c0, t0 = cpu_seconds(), time.perf_counter()
    field = solve_k1(model, pdf, seed=k1_seed, **k1)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    digest = hashlib.sha256(field.values.tobytes()
                            + field.stderr.tobytes()).hexdigest()
    return {"figures": {f"wall_s.{name}": wall, f"cpu_s.{name}": cpu,
                        f"peak_rss_mb.{name}": peak_kb / 1024.0},
            "digest": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, help="directory holding hsgas/")
    ap.add_argument("--base", type=Path,
                    help="the src directory of the tree to compare against")
    ap.add_argument("--label", default="", help="name of the tree measured")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0
    if args.src is None or args.base is None:
        ap.error("--src and --base are required")
    trees = {"src": args.src.resolve(), "base": args.base.resolve()}
    runs = {side: [{} for _ in range(PAIRS)] for side in trees}
    for k in range(PAIRS):
        order = ("base", "src") if k % 2 == 0 else ("src", "base")
        for name in models():
            digests = {}
            for side in order:
                out = child(trees[side], __file__, name)
                runs[side][k].update(out["figures"])
                digests[side] = out["digest"]
                print(f"pair {k + 1}/{PAIRS} {name} {side}: "
                      f"{json.dumps(out['figures'])}", file=sys.stderr)
            if digests["src"] != digests["base"]:
                sys.exit(f"{name}: the two trees solved different fields")
    figures = {side: summarize(r) for side, r in runs.items()}
    ratios = {name: figures["src"][name]["median"]
              / figures["base"][name]["median"] for name in figures["src"]}
    config = {name: json.loads((WORKLOADS / name).read_text())
              for name in ("chaos-sweep.json", "ops-beams.json")}
    entry = {
        "label": args.label,
        "src_digest": src_digest(trees["src"]),
        "base_digest": src_digest(trees["base"]),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(), "pairs": PAIRS,
        "seeds": {name: c["seed"] for name, c in config.items()},
        "setup": {name: c["k1"] for name, c in config.items()},
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
