"""Artifact IO: deterministic CSV/JSON writers, config schema, manifests.

CSV bodies are the determinism contract: floats print at full round-trip
precision ("%.17g"), rows are written in a fixed order, and nothing
machine-specific (timestamps, wall clock) enters them. Manifests carry the
reproduction metadata instead; their wall-clock field is excluded from any
byte-identity claim.

The config schema, CONFIG_SCHEMA, is checked by a walker of its own
(_schema_errors), which gives jsonschema's Draft 2020-12 messages without
importing it; its one stricter rule is that an integer key takes only a
JSON integer, never a whole-number float such as 4.0.
"""

from __future__ import annotations

import contextvars
import json
import math
import numbers
import operator
import os
import pickle
import platform
import signal
import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pdfs import FAMILIES, UniformMaxwellian, family_keys
from .quadrature import QuadratureSpec
from .seeding import MAX_SEED

SCHEMA_VERSION = 1
QUADRATURE_KEYS = tuple(f.name for f in fields(QuadratureSpec))


class Experiment(NamedTuple):
    """What one subcommand's runner reads from its config."""

    sections: tuple            # the geometry section (required) first
    pdf_families: tuple = tuple(FAMILIES)
    quadrature_keys: tuple = QUADRATURE_KEYS


# the one table of subcommands: the schema's experiment enum, the CLI's
# subparsers and its runners (cli._run_<name>) all read it, and a config
# may hold only the sections and quadrature keys its subcommand reads
EXPERIMENTS = {
    "k1": Experiment(("model", "pdf", "k1")),
    "ks": Experiment(("model", "pdf", "k1", "ks")),
    "ops": Experiment(("model", "pdf", "k1", "ops", "quadrature")),
    # md starts from the uniform admissible law; it reads only pdf.v_th
    "md": Experiment(("model", "pdf", "md"), (UniformMaxwellian.family_tag,)),
    "bg-sweep": Experiment(("sequence", "pdf", "k1")),
    # l1_k1_contact_integral reads a sphere rule and Z1's position rule
    "noncomm": Experiment(("sequence", "pdf", "k1", "quadrature"),
                          quadrature_keys=("angle_nodes", "position_nodes")),
    "chaos": Experiment(("sequence", "pdf", "k1", "bg")),
    "relax": Experiment(("model", "pdf", "relax")),
}
SECTIONS = tuple(dict.fromkeys(s for e in EXPERIMENTS.values()
                               for s in e.sections))


def _format_cell(x) -> str:
    # most cells are floats; np.float64 is a float subclass
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows with a header line; full float precision, LF newlines."""
    path = Path(path)
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


def write_json(path, obj) -> None:
    """Sorted-key, indented JSON; numpy scalars and arrays made plain."""
    Path(path).write_text(
        json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# config schema


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_SEED = {"type": "integer", "minimum": 0, "maximum": MAX_SEED}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "experiment", "seed"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": _SEED,
        "output_dir": {"type": "string", "minLength": 1},
        "model": {
            "type": "object",
            "required": ["n", "sigma", "box"],
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "sigma": _NONNEG,
                "box": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "sequence": {
            "type": "object",
            "required": ["c", "box", "ns"],
            "properties": {
                "c": _POSITIVE,
                "box": _POSITIVE,
                "ns": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 2,
                },
            },
            "additionalProperties": False,
        },
        "pdf": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "v_th": _POSITIVE,
                "u0": {"type": "array", "items": {"type": "number"},
                       "minItems": 3, "maxItems": 3},
                "shear_rate": {"type": "number"},
                "tilt": {"type": "array", "items": {"type": "number"},
                         "minItems": 3, "maxItems": 3},
                "alpha": {"type": "number",
                          "minimum": 0, "exclusiveMaximum": 1},
                "phase": {"type": "number"},
                "axis": {"type": "integer", "minimum": 0, "maximum": 2},
                "components": {"type": "array"},
                "path": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "v_max": {"type": "number", "minimum": 4},
                "velocity_nodes": {"type": "integer", "minimum": 8},
                "angle_nodes": {"type": "integer", "minimum": 8},
                "position_nodes": {"type": "integer", "minimum": 2},
                "mode": {"enum": ["deterministic", "mc"]},
                "seed": _SEED,
            },
            "additionalProperties": False,
        },
        "k1": {
            "type": "object",
            "properties": {
                "grid_nodes": {"type": "integer", "minimum": 2},
                "samples_per_node": {"type": "integer", "minimum": 1000},
                "tol": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "ks": {
            "type": "object",
            "properties": {
                "tuple_count": {"type": "integer", "minimum": 1},
                "separation_factor": {"type": "number",
                                      "exclusiveMinimum": 1},
                "samples": {"type": "integer", "minimum": 1000},
            },
            "additionalProperties": False,
        },
        "ops": {
            "type": "object",
            "properties": {
                "probes": {"type": "integer", "minimum": 1},
                "rho2_form": {"enum": ["pair_over_k1sq", "hat_product"]},
                "flavor": {"enum": ["master", "boltzmann", "both"]},
            },
            "additionalProperties": False,
        },
        "md": {
            "type": "object",
            "properties": {
                "t_end": _POSITIVE,
                "max_events": {"type": "integer", "minimum": 1},
                "snapshots": {"type": "integer", "minimum": 0},
                "equilibration_fraction": {"type": "number", "minimum": 0,
                                           "maximum": 0.9},
                "audit_every": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "relax": {
            "type": "object",
            "properties": {
                "t_end": _POSITIVE,
                "grid_nodes": {"type": "integer", "minimum": 8},
                "v_max": _POSITIVE,
                "cfl": _POSITIVE,
                "dt": _POSITIVE,
                "stride": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "bg": {
            "type": "object",
            "properties": {
                "tuple_count": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1000},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _pdf_key_errors(pdf: dict) -> list:
    """Keys the chosen family does not take, and required keys it lacks."""
    family = pdf.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        return []  # the schema's enum already names it
    keys, required = family_keys(family)
    out = [f"$.pdf.{k}: family {family!r} takes no key {k!r} "
           f"(it takes {', '.join(keys)})"
           for k in pdf if k != "family" and k not in keys]
    out += [f"$.pdf: family {family!r} needs key {k!r}"
            for k in required if k not in pdf]
    return out


def _section_errors(config: dict) -> list:
    """What the subcommand does not read, or its geometry if missing."""
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        return []  # the schema's enum already names it
    sections, families, quad_keys = EXPERIMENTS[name]
    out = [f"$.{s}: subcommand {name!r} does not read section {s!r} "
           f"(it reads {', '.join(sections)})"
           for s in SECTIONS if s in config and s not in sections]
    if sections[0] not in config:
        out.append(f"$: subcommand {name!r} needs section {sections[0]!r}")
    quad = config.get("quadrature")
    if "quadrature" in sections and isinstance(quad, dict):
        out += [f"$.quadrature.{k}: subcommand {name!r} does not read key "
                f"{k!r} (it reads {', '.join(quad_keys)})"
                for k in quad if k not in quad_keys]
    pdf = config.get("pdf")
    family = pdf.get("family") if isinstance(pdf, dict) else None
    if isinstance(family, str) and family in FAMILIES \
            and family not in families:
        out.append(f"$.pdf.family: subcommand {name!r} takes only family "
                   f"{', '.join(map(repr, families))}, not {family!r}")
    return out


def _unread_key_errors(config: dict) -> list:
    """Keys that the values of other keys leave unread."""
    sections = {s: v for s, v in config.items() if isinstance(v, dict)}
    given = set(config) | {f"{s}.{k}" for s, v in sections.items() for k in v}
    name = config.get("experiment")
    paths = ()
    if name == "ops" and sections.get("ops", {}).get("flavor") == "boltzmann":
        paths = ("k1", "ops.rho2_form", "quadrature.position_nodes")
        why = "ops.flavor 'boltzmann' runs no master kernel"
    elif name == "md" and not sections.get("md", {}).get("snapshots"):
        paths = ("md.equilibration_fraction",)
        why = "md.snapshots is 0 or absent, so nothing is measured"
    elif name == "relax" and "relax.dt" in given:
        paths, why = ("relax.cfl",), "relax.dt fixes the time step"
    return [f"$.{p}: not read, as {why}" for p in paths if p in given]


def _md_snapshot_errors(config: dict) -> list:
    """md's snapshot rules: their times need md.t_end, measure needs 2."""
    md = config.get("md")
    if config.get("experiment") != "md" or not isinstance(md, dict):
        return []
    snapshots = md.get("snapshots", 0)
    if not _TYPES["integer"](snapshots) or snapshots < 1:
        return []  # none taken, or the schema already names the value
    out = []
    if snapshots == 1:
        out.append("$.md.snapshots: 1 is too few, as measure needs 2; set "
                   "0 to measure nothing")
    if "t_end" not in md:
        out.append("$.md.t_end: needed, as md.snapshots are taken up to it")
    return out


# the instance kinds the schema's "type" names; integer is strict (see below)
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: (isinstance(x, numbers.Number)
                         and not isinstance(x, bool)),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}
# bound keyword: (the number breaks it, the message's words)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le,
                         "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "is greater than or equal to the maximum of"),
}
# size keyword: (type, the length breaks it, edge, message at edge, else)
_SIZES = {
    "minItems": ("array", operator.lt, 1, "should be non-empty",
                 "is too short"),
    "maxItems": ("array", operator.gt, 0, "is expected to be empty",
                 "is too long"),
    "minLength": ("string", operator.lt, 1, "should be non-empty",
                  "is too short"),
}


def _same(a, b) -> bool:
    """JSON equality of scalars: a bool equals only a bool."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _schema_errors(value, schema: dict, path: str):
    """(json path, message) for each keyword of schema that value breaks.

    Walks the keywords CONFIG_SCHEMA uses in the schema's own order, with
    the messages and order of jsonschema's Draft 2020-12 validator, apart
    from one rule: 'integer' admits only a JSON integer (an int, never a
    bool), not a whole-number float such as 4.0. "$schema" is skipped, and
    any other keyword raises ValueError.
    """
    for key, arg in schema.items():
        if key == "$schema":
            continue
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "const":
            if not _same(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if not any(_same(value, each) for each in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            breaks, words = _BOUNDS[key]
            if _TYPES["number"](value) and breaks(value, arg):
                yield path, f"{value!r} {words} {arg!r}"
        elif key in _SIZES:
            kind, breaks, edge, at_edge, words = _SIZES[key]
            if _TYPES[kind](value) and breaks(len(value), arg):
                yield path, f"{value!r} {at_edge if arg == edge else words}"
        elif key == "items":
            for i, item in enumerate(value if _TYPES["array"](value) else ()):
                yield from _schema_errors(item, arg, f"{path}[{i}]")
        elif key == "required":
            for name in arg if _TYPES["object"](value) else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in arg.items() if _TYPES["object"](value) else ():
                if name in value:
                    yield from _schema_errors(value[name], sub,
                                              f"{path}.{name}")
        elif key == "additionalProperties" and arg is False:
            extra = sorted((k for k in value
                            if k not in schema.get("properties", {})),
                           key=str) if _TYPES["object"](value) else []
            if extra:
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} "
                             "unexpected)")
        else:
            raise ValueError(f"schema keyword {key!r}: {arg!r} is not "
                             "implemented")


def validate_config(config: dict) -> list:
    """Schema violations as '<json path>: <message>' strings (empty = valid).

    The schema lines come from _schema_errors, a walker over CONFIG_SCHEMA,
    sorted by path; they are jsonschema's Draft 2020-12 lines except that
    an integer key takes only a JSON integer, so 4.0 is "not of type
    'integer'". Beyond the schema, the config must hold its subcommand's
    geometry section and no section or quadrature key the subcommand does
    not read (EXPERIMENTS) or that the values of other keys leave unread,
    md.snapshots must be 0 or at least 2 and then needs md.t_end,
    and the pdf section must name a family the subcommand admits and hold
    exactly the keys that family's factory takes (pdfs.family_keys).
    """
    out = [f"{path}: {message}" for path, message in
           sorted(_schema_errors(config, CONFIG_SCHEMA, "$"),
                  key=lambda e: e[0])]
    if isinstance(config, dict):
        out += _section_errors(config)
        out += _unread_key_errors(config)
        out += _md_snapshot_errors(config)
        if isinstance(config.get("pdf"), dict):
            out += _pdf_key_errors(config["pdf"])
    return out


# ---------------------------------------------------------------------------
# output layout


def resolve_out_dir(out_dir) -> Path:
    path = Path(out_dir).resolve()
    path.mkdir(parents=True, exist_ok=True)
    return path


def artifact_path(out_dir: Path, name: str) -> Path:
    """Join and refuse anything that escapes the output directory."""
    out_dir = Path(out_dir).resolve()
    p = (out_dir / name).resolve()
    if not p.is_relative_to(out_dir):
        raise ValueError(f"artifact name {name!r} escapes the output dir")
    return p


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set inside either half of split_work, so a nested call stays in its process
_IN_HALF = contextvars.ContextVar("split_work_half", default=False)


def split_work(n: int, work, layer: str):
    """work(lo, hi, gather) over the items [0, n), in one process or two.

    With two or more usable CPUs the process forks once: it runs
    work(0, cut, gather) and the child work(cut, n, gather), cut = (n + 1)
    // 2. gather(x) returns the list of both halves' x in item order, in
    both processes, so both can go on from the same whole; each gather
    swaps the halves' x pickled through two pipes (the first half writes,
    then reads, so no gather deadlocks), and pickling keeps every bit of a
    float64. In one process work(0, n, gather) runs and gather(x) returns
    [x]. Returns the first half's (or the one) result.

    One process runs when n < 2, on one usable CPU, without os.fork, while
    other threads run (a fork copies only the calling thread) and inside
    either half of another split_work. The child leaves by os._exit, so it
    runs no exit handler and flushes no inherited buffer. Its error reaches
    the parent as a RuntimeError naming layer, whose raised_in attribute
    holds the hsgas module that raised in the child (raising_module). The
    parent reaps the child whatever happens, killing it first when its own
    half fails.
    """
    if (n < 2 or _IN_HALF.get() or not hasattr(os, "fork")
            or usable_cpus() < 2 or threading.active_count() > 1):
        return work(0, n, lambda x: [x])
    cut = (n + 1) // 2
    down_read, down_write = os.pipe()  # first half -> second half
    up_read, up_write = os.pipe()      # second half -> first half
    pid = os.fork()
    if pid == 0:
        _IN_HALF.set(True)
        status = 1
        try:
            os.close(down_write)
            os.close(up_read)
            with (os.fdopen(down_read, "rb") as down,
                  os.fdopen(up_write, "wb", buffering=0) as up):
                def gather(x):
                    first = pickle.load(down)
                    _send(up, ("ok", x))
                    return [first, x]

                try:
                    work(cut, n, gather)
                    status = 0
                except BaseException as exc:  # the parent reports it
                    _send(up, ("error", (f"{type(exc).__name__}: {exc}",
                                         raising_module(exc))))
        finally:
            os._exit(status)
    os.close(down_read)
    os.close(up_write)
    status = None
    try:
        with (os.fdopen(up_read, "rb") as up,
              os.fdopen(down_write, "wb", buffering=0) as down):
            def gather(x):
                try:
                    _send(down, x)
                except BrokenPipeError:
                    pass  # the child has left; its message says why
                return [x, _receive(up, layer)]

            token = _IN_HALF.set(True)
            try:
                result = work(0, cut, gather)
            finally:
                _IN_HALF.reset(token)
            down.close()  # a child still waiting for a gather reads EOF
            if up.peek(1):
                _receive(up, layer)  # a message after the last gather
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{layer}: the forked half failed "
                           f"(exit code {code})")
    return result


def _send(pipe, message):
    """Write message pickled, whole, to an unbuffered pipe."""
    view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[pipe.write(view):]


def _receive(pipe, layer):
    """The second half's x from its next message; raises on its error."""
    try:
        tag, x = pickle.load(pipe)
    except EOFError:
        tag, x = "error", ("it ended before sending its half", "")
    if tag != "ok":
        text, module = x
        error = RuntimeError(f"{layer}: the forked half failed ({text})")
        error.raised_in = module
        raise error
    return x


def raising_module(exc: BaseException, skip: str = "") -> str:
    """The hsgas module that raised exc; '' when no hsgas frame did.

    That is the innermost frame of exc's traceback whose module is in the
    package and is not skip, or, for the error of a forked half of
    split_work, the module that raised in the child.
    """
    if getattr(exc, "raised_in", ""):
        return exc.raised_in
    module = ""
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith(f"{__package__}.") and name != skip:
            module = name
        tb = tb.tb_next
    return module


def build_manifest(config: dict, *, seed: int, artifacts,
                   wall_clock_s: float) -> dict:
    """Reproduction metadata. wall_clock_s is informational, not deterministic."""
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "config": _jsonable(config),
        "root_seed": int(seed),
        "artifacts": sorted(str(a) for a in artifacts),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "usable_cpus": usable_cpus(),
        },
        "wall_clock_s": float(wall_clock_s),
        "written_at_unix": int(time.time()),
    }
