"""End-to-end figures of two checkouts: the benchmark's four metrics, paired.

    python3 tools/bench_cli.py --src <checkout> --base <parent checkout> \
        --workload md-bulk --pairs 10 --seconds 30

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` from the
root of each checkout (each imports `hsgas` from its own `src/`), one run
at a time. A pair is one run of each tree at the same seed; the side that
runs first alternates from pair to pair, so a drift of the host's speed
falls on both trees alike. The two checkout paths must have the same
length, since a path's length moves what the program's imports and
outputs cost. One entry is appended to `BENCH_cli.json` at the repository
root: both src digests, the host, the seeds, per tree and metric the
median, quartiles, min, max and spread of the runs, and per pair the
src/base ratio of `wall_s`, `setup_s`, `cpu_s` and `peak_rss_mb`. The
digest, host, summary and append harness is the one of
`tools/bench_md.py`. The run stops if a run of the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_md import append, host, src_digest, summarize

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_cli.json"
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run in checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, check=True, capture_output=True,
        text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} failed {result['failed']} of "
                 f"{result['attempted']} children")
    return {k: result["metrics"][k]["value"] for k in METRICS}


def quartiles(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, required=True,
                    help="root of the checkout measured")
    ap.add_argument("--base", type=Path, required=True,
                    help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True,
                    help="a workload of perfbench/run.py")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="--seconds of each benchmark run")
    ap.add_argument("--seed", type=int, default=0,
                    help="benchmark seed of every run")
    ap.add_argument("--label", default="", help="name of the comparison")
    args = ap.parse_args(argv)
    trees = {"src": args.src.resolve(), "base": args.base.resolve()}
    if len(str(trees["src"])) != len(str(trees["base"])):
        ap.error(f"checkout paths of different lengths: {trees['src']} "
                 f"and {trees['base']}")
    runs = {side: [] for side in trees}
    for k in range(args.pairs):
        order = ("base", "src") if k % 2 == 0 else ("src", "base")
        for side in order:
            runs[side].append(bench(trees[side], args.workload, args.seed,
                                    args.seconds))
            print(f"pair {k + 1}/{args.pairs} {side}: "
                  f"{json.dumps(runs[side][-1])}", file=sys.stderr)
    figures = {side: summarize(r) for side, r in runs.items()}
    for side, figs in figures.items():
        for fig in figs.values():
            fig.update(quartiles(fig["runs"]))
    ratios = {m: [s[m] / b[m] for s, b in zip(runs["src"], runs["base"])]
              for m in METRICS}
    entry = {
        "label": args.label,
        "src_digest": src_digest(trees["src"] / "src"),
        "base_digest": src_digest(trees["base"] / "src"),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(), "workload": args.workload, "pairs": args.pairs,
        "seconds": args.seconds, "seeds": [args.seed] * args.pairs,
        "first_in_pair": ["base" if k % 2 == 0 else "src"
                          for k in range(args.pairs)],
        "figures": figures,
        "pair_ratio_src_over_base": ratios,
    }
    append(OUT, entry)
    for m in METRICS:
        src, base = figures["src"][m], figures["base"][m]
        lower = sum(r < 1.0 for r in ratios[m])
        print(f"{m}: src {src['median']:.4g} [{src['q1']:.4g}, "
              f"{src['q3']:.4g}], base {base['median']:.4g} "
              f"[{base['q1']:.4g}, {base['q3']:.4g}], src lower in "
              f"{lower}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
