"""Write `references.json`: the values each checked workload must reproduce.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are trusted. For every program
seed the benchmark can use (see `run.SEED_POOL`) it runs the workload once
through `child.py` and stores what `checks.reference_from` extracts.
`relax-beams` draws no random numbers, so it is run once and stored under
the key "*", which matches every seed. Rerun only for a change that is meant
to alter the outputs, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def main(argv) -> int:
    root = Path.cwd()
    names = argv or sorted(checks.REFERENCES)
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    scratch = root / ".perfbench_out" / "references"
    env = run.child_env(root)
    for name in names:
        command, imports = run.WORKLOADS[name]
        seeds = (["*"] if name == "relax-beams"
                 else [str(run.SEED_BASE + k) for k in range(run.SEED_POOL)])
        refs[name] = {}
        for key in seeds:
            seed = run.SEED_BASE if key == "*" else int(key)
            d = scratch / f"{name}-{seed}"
            shutil.rmtree(d, ignore_errors=True)
            argv_ = [command, "--config",
                     str(HERE / "workloads" / f"{name}.json"),
                     "--out", "out", "--seed", str(seed)]
            child = run.spawn(argv_, env, d, "plain", False, imports)
            if child.failures:
                print(f"{name} seed {seed}: {child.failures}", file=sys.stderr)
                return 1
            refs[name][key] = checks.reference_from(name, d / "out")
            print(f"{name} seed {key}: {child.wall_s:.2f} s", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
