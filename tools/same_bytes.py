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
where it occurs (`relative_difference`), then one indented line per field
that differs (`field_moves`): its relative move and, for a field judged
against another (`SCALE_OF`: an audit residual against its scale, an error
column against its row's value), its move over that field's magnitude. The
manifests are left out: they carry the wall clock.
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


# a field whose move is judged against another field of the same output: a
# key path segment (report.json) or a CSV column named on the left is read
# against the one named on the right, at the same place (ops' moment audits,
# ops' and noncomm's error columns); a number on the right is the scale
# itself (an audit's worst residual is already a residual over its scale)
SCALE_OF = {
    "residuals": "scales",
    "worst_relative": 1.0,
    "C_error": "C_value",
    "raw_error": "raw_value",
    "rescaled_error": "rescaled_value",
}


def _scale_key(key: str, fields: dict):
    """The key of the field that key's move is judged against, the scale
    itself where SCALE_OF gives a number, or None."""
    if not key.startswith("/"):  # a CSV cell: row/column
        row, col = key.split("/")
        name = SCALE_OF.get(fields.get(f"0/{col}"))
        if row == "0" or name is None:
            return None
        cols = [k.split("/")[1] for k, v in fields.items()
                if k.startswith("0/") and v == name]
        return f"{row}/{cols[0]}" if cols else None
    parts = key.split("/")
    if isinstance(SCALE_OF.get(parts[-1]), float):
        return SCALE_OF[parts[-1]]
    scaled = [SCALE_OF.get(p, p) for p in parts]
    return "/".join(scaled) if scaled != parts else None


def _relative(x, y) -> float:
    """|x - y| / max(|x|, |y|) of two field values: equal numbers 0 (NaN
    against NaN included), a missing field or a differing non-number inf."""
    x, y = _number(x), _number(y)
    if x is None or y is None:
        return math.inf
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0  # the same number written differently
    rel = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(rel) else rel


def field_moves(a: Path, b: Path) -> list:
    """[(field, relative move, scaled move, scale field)] for each field in
    which two outputs differ, in key order.

    The scaled move is |x - y| over the larger magnitude of the scale field
    (SCALE_OF) in the two outputs, or over SCALE_OF's number in its place,
    and None with the scale field for a field judged on its own.
    """
    fa, fb = _fields(a), _fields(b)
    out = []
    for key in sorted(fa.keys() | fb.keys()):
        if key in fa and key in fb and fa[key] == fb[key]:
            continue
        rel = _relative(fa.get(key), fb.get(key))
        scale_key = _scale_key(key, fa if key in fa else fb)
        scaled = None
        if scale_key is not None:
            x, y = _number(fa.get(key)), _number(fb.get(key))
            if isinstance(scale_key, float):
                scale = scale_key
            else:
                sx, sy = (_number(f.get(scale_key)) for f in (fa, fb))
                scale = None if None in (sx, sy) else max(abs(sx), abs(sy))
            if rel == 0.0:
                scaled = 0.0
            elif None in (x, y, scale) or not scale > 0:
                scaled = math.inf
            else:
                scaled = abs(x - y) / scale
        out.append((key, rel, scaled, scale_key))
    return out


def relative_difference(a: Path, b: Path) -> tuple:
    """(largest |x - y| / max(|x|, |y|), its field) over two outputs' fields.

    Equal numbers count 0, NaN against NaN included. A field present in only
    one output, or a non-numeric field that differs, counts inf.
    """
    worst, where = 0.0, None
    for key, rel, _, _ in field_moves(a, b):
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
                for key, rel, scaled, scale_key in field_moves(*files):
                    line += f"\n    {key}  relative {rel:.3g}"
                    if scale_key is not None:
                        line += f"  scaled {scaled:.3g} by {scale_key}"
            print(line)
    print(f"{differs} of {len(digests['src'].keys() | digests['base'].keys())}"
          " outputs differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
