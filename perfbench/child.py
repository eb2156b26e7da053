"""One child process of the benchmark: runs `hsgas.cli.main` once.

    python3 perfbench/child.py --marks FILE [--spans FILE] \
        [--import MODULE ...] -- <hsgas arguments>

Before calling the CLI it imports the package and the workload's modules,
so that `setup_s` covers them. It records in `--marks` the monotonic time at
which `validate_config` returned: the end of set-up. With `--spans` it wraps
the layer functions listed in `layers.TARGETS` and writes the spans there
when the run ends; without it, the only wrapper is the one that records the
set-up mark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# every module that binds a traced function at import time
TRACE_IMPORTS = ("hsgas.cli", "hsgas.bg", "hsgas.collision", "hsgas.md",
                 "hsgas.occupation", "hsgas.relax")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--marks", required=True)
    p.add_argument("--spans")
    p.add_argument("--import", dest="imports", action="append", default=[])
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else \
        args.cli_args

    imports = list(args.imports)
    if args.spans:
        imports += TRACE_IMPORTS
    for name in ["hsgas.cli"] + imports:
        importlib.import_module(name)
    import hsgas.cli

    tracer = None
    if args.spans:
        from layers import TARGETS
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)

    marks = {}
    validate = hsgas.cli.validate_config

    def marked_validate(config):
        try:
            return validate(config)
        finally:
            marks["setup_done"] = time.monotonic()

    hsgas.cli.validate_config = marked_validate
    rc = hsgas.cli.main(cli_args)
    marks["cli_done"] = time.monotonic()
    Path(args.marks).write_text(json.dumps(marks))
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return rc


if __name__ == "__main__":
    sys.exit(main())
