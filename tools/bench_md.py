"""Layer figures of the MD side: the admissible sampler and MD events/s.

    python3 tools/bench_md.py --src src --label HEAD

For N = 200 and N = 1000 along N sigma^2 = 0.2 (box 1) it times
`geometry.uniform_admissible_sample` and then `md.run` from that sample for
a fixed number of events at `audit_every` 0, 100 and 1. Every repeat runs
in a fresh child that imports `hsgas` from `--src`, one child at a time,
with one BLAS/OpenMP thread. Seeds are fixed, so every repeat does the same
work. One entry is appended to `BENCH_md.json` at the repository root: the
src digest, the host, the seeds, and per figure the median, min, max and
relative spread (max - min) / median of the repeats. Times move between
sessions, so compare two trees by running this on each, alternately, in
one session.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

C = 0.2
BOX = 1.0
NS = (200, 1000)
SAMPLE_SEED = 0
V_TH = 1.0
# events per md.run call, by audit_every (a full audit per event is slow)
EVENTS = {0: 2000, 100: 2000, 1: 200}
REPEATS = 3  # children per run; the entry records each repeat's figures
OUT = Path(__file__).resolve().parents[1] / "BENCH_md.json"


def measure() -> dict:
    """One repeat of every figure, in this process."""
    # imported here: the child finds hsgas on the PYTHONPATH of --src
    from hsgas.geometry import HardSphereModel, uniform_admissible_sample
    from hsgas.md import run

    figures = {}
    for n in NS:
        model = HardSphereModel(n=n, sigma=math.sqrt(C / n), box=BOX)
        t0 = time.perf_counter()
        config = uniform_admissible_sample(model, SAMPLE_SEED, v_th=V_TH)
        figures[f"sampler_s.n{n}"] = time.perf_counter() - t0
        for audit_every, events in EVENTS.items():
            t0 = time.perf_counter()
            traj = run(model, config, max_events=events,
                       audit_every=audit_every, v_th_ref=V_TH)
            seconds = time.perf_counter() - t0
            assert traj.audits["events"] == events
            figures[f"md_events_per_s.n{n}.audit{audit_every}"] = (
                events / seconds)
    return figures


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host() -> dict:
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


def child(src: Path, script: str = __file__, *args: str) -> dict:
    """The JSON that `script --child *args` prints, run with hsgas from src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, script, "--child", *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        out[name] = {"median": med, "min": min(values), "max": max(values),
                     "spread": (max(values) - min(values)) / med,
                     "runs": values}
    return out


def append(path: Path, entry: dict) -> None:
    """Append one entry to the JSON list held in path."""
    log = json.loads(path.read_text()) if path.exists() else []
    log.append(entry)
    path.write_text(json.dumps(log, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, help="directory holding hsgas/")
    ap.add_argument("--label", default="", help="name of the tree measured")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if args.src is None:
        ap.error("--src is required")
    src = args.src.resolve()
    runs = []
    for k in range(REPEATS):
        runs.append(child(src))
        print(f"repeat {k + 1}/{REPEATS}: {json.dumps(runs[-1])}",
              file=sys.stderr)
    entry = {
        "label": args.label, "src_digest": src_digest(src),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(), "repeats": REPEATS,
        "seeds": {"uniform_admissible_sample": SAMPLE_SEED},
        "setup": {"c": C, "box": BOX, "ns": list(NS), "v_th": V_TH,
                  "events_by_audit_every": EVENTS},
        "figures": summarize(runs),
    }
    append(OUT, entry)
    for name, fig in entry["figures"].items():
        print(f"{name}: median {fig['median']:.4g} "
              f"(spread {fig['spread']:.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
