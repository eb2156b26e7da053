"""Byte identity of two trees' outputs: every CSV and report.json.

    python3 tools/same_bytes.py --src <checkout> --base <parent checkout>

Runs the configs in `perfbench/workloads/` and the module-level `*_CONFIG`
dicts of `tests/test_cli.py`, all read from this checkout, at program seeds
7 and 8 (`--seed`) on both checkouts, each tree in one fresh child that
imports `hsgas` from its `src/` (the child of `tools/bench.py`).
It prints one line per output file, `equal`, `differs`, `only in src` or
`only in base`, with the exit code of each run among them, and exits 1 if
any is not equal. A subcommand that only one tree has exits 2 in the other,
so its outputs show on one side only. A differing CSV or `report.json` also
shows its largest relative difference over the numeric fields and the field
where it occurs (`relative_difference`). The manifests are left out: they
carry the wall clock.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from bench import child

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 8)


def configs() -> dict:
    """name -> config: the benchmark workloads and the CLI tests' configs."""
    out = {f"workload.{p.stem}": json.loads(p.read_text())
           for p in sorted((ROOT / "perfbench" / "workloads").glob("*.json"))}
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_CONFIG")):
            out[f"test_cli.{node.targets[0].id}"] = ast.literal_eval(
                node.value)
    return out


def run_all(config_dir: Path, out_dir: Path) -> dict:
    """In this process: every config at every seed -> {path: digest}."""
    # imported here: the child finds hsgas on the PYTHONPATH of its tree
    from hsgas import cli

    digests = {}
    for path in sorted(config_dir.glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        for seed in SEEDS:
            run = f"{path.stem}.seed{seed}"
            try:
                rc = cli.main([experiment, "--config", str(path),
                               "--out", str(out_dir / run),
                               "--seed", str(seed)])
            except SystemExit as exc:  # argparse: a subcommand this tree lacks
                rc = exc.code
            digests[f"{run}/exit"] = str(rc)
            for f in sorted((out_dir / run).glob("*")):
                if f.suffix == ".csv" or f.name == "report.json":
                    digests[f"{run}/{f.name}"] = hashlib.sha256(
                        f.read_bytes()).hexdigest()
    return digests


def _fields(path: Path) -> dict:
    """field -> value of an output: CSV cells by row/column, report.json
    leaves by their key path."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return {f"{i}/{j}": cell for i, row in enumerate(csv.reader(f))
                    for j, cell in enumerate(row)}
    out = {}

    def walk(node, key):
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, child in items:
                walk(child, f"{key}/{k}")
        else:
            out[key] = node
    walk(json.loads(path.read_text()), "")
    return out


def _number(value):
    """value as a float, or None for a field that is not a number."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_difference(a: Path, b: Path) -> tuple:
    """(largest |x - y| / max(|x|, |y|), its field) over two outputs' fields.

    Equal numbers count 0, NaN against NaN included. A field present in only
    one output, or a non-numeric field that differs, counts inf.
    """
    fa, fb = _fields(a), _fields(b)
    worst, where = 0.0, None
    for key in sorted(fa.keys() | fb.keys()):
        if key not in fa or key not in fb:
            rel = math.inf
        elif fa[key] == fb[key]:
            continue
        else:
            x, y = _number(fa[key]), _number(fb[key])
            if x is None or y is None:
                rel = math.inf
            elif x == y or math.isnan(x) and math.isnan(y):
                rel = 0.0  # the same number written differently
            else:
                rel = abs(x - y) / max(abs(x), abs(y))
                rel = math.inf if math.isnan(rel) else rel
        if rel > worst:
            worst, where = rel, key
    return worst, where


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(run_all(*map(Path, argv[1:]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--base", type=Path, required=True,
                    help="checkout of its parent")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        config_dir = Path(tmp) / "configs"
        config_dir.mkdir()
        for name, config in configs().items():
            (config_dir / f"{name}.json").write_text(json.dumps(config))
        digests = {}
        for side in ("src", "base"):
            tree = getattr(args, side).resolve()
            print(f"running {len(list(config_dir.iterdir()))} configs x "
                  f"{len(SEEDS)} seeds on {tree}", file=sys.stderr)
            digests[side] = child(tree, __file__, str(config_dir),
                                  str(Path(tmp) / side))
        differs = 0
        for name in sorted(digests["src"].keys() | digests["base"].keys()):
            src, base = (digests[side].get(name) for side in ("src", "base"))
            if src == base:
                verdict = "equal"
            elif src is None or base is None:
                verdict = f"only in {'base' if src is None else 'src'}"
            else:
                verdict = "differs"
            differs += verdict != "equal"
            line = f"{verdict}  {name}"
            files = [Path(tmp) / side / name for side in ("src", "base")]
            if verdict == "differs" and all(f.is_file() for f in files):
                rel, field = relative_difference(*files)
                line += f"  max relative {rel:.3g} at {field}"
            print(line)
    print(f"{differs} of {len(digests['src'].keys() | digests['base'].keys())}"
          " outputs differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
