"""Benchmark of the `hsgas` CLI: four pinned workloads, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`.
Every run of the program is a fresh child process (`perfbench/child.py`)
with one BLAS/OpenMP thread, started only after the previous one ended. A
run of the benchmark:

1. starts `SETUP_PROBES + 1` children that only import and validate the
   config (`hsgas validate-config`); the first compiles bytecode and warms
   the file cache and is not counted, the rest are set-up samples;
2. runs the workload until the next child would end after `--seconds`
   (always at least once). With `--trace 1` the first half of the time
   runs plain children and the second half traced ones (at least one of
   each);
3. checks every child's artifacts (`checks.py`), and that its CSV bodies
   are byte-identical to those of the first child that ran the same
   program source, workload and seed in this checkout, in this run or an
   earlier one (`.perfbench_out/csv-digests/`).

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count the children, and `metrics` holds medians over them, the
end-to-end metrics with `--trace 0` and the per-layer ones with `--trace 1`.
Lines before it show every child and the machine. Outputs go to
`.perfbench_out/` in the checkout.

The program's seed is `SEED_BASE + (--seed mod SEED_POOL)`, so every seed
the benchmark can be given has a stored reference in `references.json`
(`make_references.py` writes it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

# workload -> (CLI subcommand, modules its runner imports)
WORKLOADS = {
    "md-bulk": ("md", ("hsgas.md",)),
    "ops-beams": ("ops", ("hsgas.bg", "hsgas.collision", "hsgas.occupation")),
    "chaos-sweep": ("chaos", ("hsgas.bg",)),
    "relax-beams": ("relax", ("hsgas.relax",)),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SEED_BASE = 7        # --seed 0 runs the program at seed 7
SEED_POOL = 16
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    kind: str            # probe | plain | traced
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    started: float       # time.monotonic() at spawn
    dir: Path
    failures: list = field(default_factory=list)


def program_seed(seed: int) -> int:
    return SEED_BASE + seed % SEED_POOL


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def spawn(argv, env, run_dir: Path, kind: str, trace: bool,
          imports=()) -> Child:
    """Run one child to its end; wall time, rusage and set-up from outside."""
    run_dir.mkdir(parents=True)
    marks = run_dir / "marks.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--marks", str(marks)]
    cmd += [a for m in imports for a in ("--import", m)]
    if trace:
        cmd += ["--spans", str(run_dir / "spans.json")]
    cmd += ["--", *argv]
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=run_dir)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        status = ru = None
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(kind=kind, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                  peak_rss_mb=ru.ru_maxrss / 1024.0, setup_s=float("nan"),
                  started=t0, dir=run_dir)
    if proc.returncode != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-400:]
        child.failures.append(f"exit code {proc.returncode}: {tail.strip()}")
    try:
        child.setup_s = json.loads(marks.read_text())["setup_done"] - t0
    except (OSError, KeyError, ValueError):
        child.failures.append("child recorded no set-up mark")
    return child


def source_key(root: Path, config: Path) -> str:
    """Digest of the program's source tree and the workload's config."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    h.update(config.read_bytes())
    return h.hexdigest()[:16]


def same_csvs(store: Path, digests: dict) -> bool:
    """Whether `digests` equal the CSV digests first recorded in `store`.

    The first child to reach `store` writes it; every later child with the
    same store is compared with that one.
    """
    try:
        return json.loads(store.read_text()) == digests
    except FileNotFoundError:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_name(store.name + ".tmp")
        tmp.write_text(json.dumps(digests, sort_keys=True))
        tmp.replace(store)
        return True


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "child_threads": {k: "1" for k in THREAD_VARS},
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, plain) -> dict:
    """Per-layer medians over the traced children, plus overhead/coverage."""
    per_child = []
    for c in traced:
        recorded = json.loads((c.dir / "spans.json").read_text())
        agg = spans.aggregate(recorded, layers.SPANS)
        m = layers.derive(agg)
        m["trace.coverage"] = spans.coverage(
            recorded, c.started + c.setup_s, c.started + c.wall_s)
        per_child.append(m)
    out = {k: median([m[k] for m in per_child]) for k in layers.MOVES}
    out["trace.overhead_s"] = (median([c.wall_s for c in traced])
                               - median([c.wall_s for c in plain]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hsgas" / "cli.py").is_file():
        print(f"error: no src/hsgas in {root}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    command, imports = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    config = HERE / "workloads" / f"{args.workload}.json"
    refs = json.loads((HERE / "references.json").read_text())
    ref_by_seed = refs.get(args.workload, {})
    reference = ref_by_seed.get(str(seed), ref_by_seed.get("*"))
    out_root = (root / ".perfbench_out"
                / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    env = child_env(root)
    env_info = machine()
    print(f"# {args.workload}: hsgas {command} seed {seed}; "
          + ", ".join(f"{k}={v}" for k, v in env_info.items()))

    children = []

    def run(kind, argv, trace=False) -> Child:
        d = out_root / f"{len(children):03d}-{kind}"
        c = spawn(argv, env, d, kind, trace, imports)
        if kind != "probe" and not c.failures:
            c.failures += checks.check(args.workload, d / "out", reference)
        children.append(c)
        print(f"{kind:6s} wall {c.wall_s:8.4f} s  cpu {c.cpu_s:8.4f} s  "
              f"rss {c.peak_rss_mb:7.1f} MB  setup {c.setup_s:.4f} s"
              + ("" if not c.failures else f"  FAILED: {c.failures}"))
        return c

    t_start = time.monotonic()
    for _ in range(SETUP_PROBES + 1):
        run("probe", ["validate-config", "--config", str(config),
                      "--seed", str(seed)])
    workload_argv = [command, "--config", str(config), "--out", "out",
                     "--seed", str(seed)]

    def phase(kind, deadline):
        walls = []
        while True:
            walls.append(run(kind, workload_argv, kind == "traced").wall_s)
            if time.monotonic() + median(walls) > deadline:
                return

    end = t_start + args.seconds
    if args.trace:
        phase("plain", t_start + args.seconds / 2.0)
        phase("traced", end)
    else:
        phase("plain", end)

    work = [c for c in children if c.kind != "probe"]
    store = (root / ".perfbench_out" / "csv-digests"
             / f"{args.workload}-seed{seed}-{source_key(root, config)}.json")
    for c in work:
        if not c.failures and not same_csvs(
                store, checks.csv_digests(c.dir / "out")):
            c.failures.append("CSV bodies differ from the first run of this "
                              "source, workload and seed")
    failed = sum(1 for c in children if c.failures)
    plain = [c for c in work if c.kind == "plain" and not c.failures]
    if args.trace:
        traced = [c for c in work if c.kind == "traced" and not c.failures]
        metrics = layer_metrics(traced, plain) if traced and plain else {}
    else:
        setups = [c.setup_s for c in children[1:] if not c.failures]
        metrics = {
            "wall_s": median([c.wall_s for c in plain]),
            "setup_s": median(setups),
            "cpu_s": median([c.cpu_s for c in plain]),
            "peak_rss_mb": median([c.peak_rss_mb for c in plain]),
        }
    if args.workload == "md-bulk":
        print(md_note(out_root))
    for c in work:
        if not c.failures:
            shutil.rmtree(c.dir / "out", ignore_errors=True)
    for k in sorted(metrics):
        print(f"{k:52s} {metrics[k]:.6g} {UNITS[k]}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }
    summary = dict(result, workload=args.workload, seed=args.seed,
                   program_seed=seed, machine=env_info,
                   children=[{"kind": c.kind, "wall_s": c.wall_s,
                              "cpu_s": c.cpu_s, "setup_s": c.setup_s,
                              "peak_rss_mb": c.peak_rss_mb,
                              "failures": c.failures} for c in children])
    (out_root / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(result))
    return 0


def md_note(out_root: Path) -> str:
    """Event count and measured / predicted wall rate, never gated.

    The event count is set by the seed and the dynamics, not by speed, so
    it is printed rather than reported as a metric.
    """
    for report in sorted(out_root.glob("*/out/report.json")):
        r = json.loads(report.read_text())
        m = r.get("measurement", {})
        if m.get("wall_rate_prediction"):
            ratio = m["wall_rate_per_particle"] / m["wall_rate_prediction"]
            return (f"# md events: {r['audits']['events']}; wall rate "
                    f"measured / ideal-gas prediction: {ratio:.4f}")
    return "# md events and wall rate ratio: no report kept"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
