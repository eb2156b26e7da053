"""Every function, class and method of the package has a reader in it.

The scan parses src/hsgas/*.py and collects the top-level functions and
classes and the methods of each class (dunders excepted). A definition is
reached when some ast.Name or ast.Attribute anywhere in the package spells
its name. That is a floor, not a proof: the scan cannot tell apart two
definitions of one name, and it counts a reader that is itself unreached.
It finds a definition that nothing names, which is what a deleted caller
leaves behind.

A second scan finds a defaulted parameter that no call in the package
passes, by position, by keyword or through ** (a starred argument passes
every position): a switch that only a test throws. Calls are matched to
definitions by name, with the same floor.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hsgas"

# definitions kept without a reader in the package, each with its reason
UNREACHED = {
    "collision.boltzmann_op": "per-probe API; tests use it as the reference",
    "collision.master_op": "per-probe API; tests use it as the reference",
    "md.wall_contact_rate_prediction": "the md report's next prediction "
                                       "(ROADMAP A)",
    "occupation.ContactOccupancy.g_contact": "the benchmark traces it",
}
# cli.runner dispatches subcommand <name> to cli._run_<name> by its name
DISPATCHED_PREFIX = "cli._run_"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scan():
    """(qualified name -> name of every definition, every name spelled)."""
    defs, spelled = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defs.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                spelled.add(node.id)
            elif isinstance(node, ast.Attribute):
                spelled.add(node.attr)
    return defs, spelled


def test_every_definition_has_a_reader():
    defs, spelled = _scan()
    unreached = sorted(q for q, name in defs.items()
                       if name not in spelled and q not in UNREACHED
                       and not q.startswith(DISPATCHED_PREFIX))
    assert unreached == [], (
        "nothing in src/hsgas names these; give each a caller or delete "
        f"it: {unreached}")


def test_the_kept_list_is_current():
    # an entry that is gone or has gained a reader leaves the list
    defs, spelled = _scan()
    stale = sorted(q for q in UNREACHED
                   if q not in defs or defs[q] in spelled)
    assert stale == []
    assert any(q.startswith(DISPATCHED_PREFIX) for q in defs)


# defaulted parameters that no call in the package passes, kept with their
# reasons: the command line's argv comes from sys.argv, and each family
# factory's keys arrive from a config as FAMILIES[family](box=box, **params)
UNPASSED = {"cli.main": ("argv",)}


def _family_factories():
    from hsgas.pdfs import FAMILIES

    out = set()
    for factory in FAMILIES.values():
        name = (f"{factory.__qualname__}.__init__"
                if isinstance(factory, type) else factory.__qualname__)
        out.add(f"{factory.__module__.rpartition('.')[2]}.{name}")
    return out


def _defaulted(fn):
    """(name, positional index or None) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls(tree):
    """(callee name, positions passed, keywords passed, passes **) per call.

    A call to cls inside a class is a call to that class. A starred
    argument passes every position.
    """
    out = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "cls" and cls is not None:
                name = cls
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, float("inf") if starred else len(node.args),
                        {k.arg for k in node.keywords if k.arg is not None},
                        any(k.arg is None for k in node.keywords)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def _unpassed():
    """Qualified name -> defaulted parameters that no call passes."""
    defs, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += _calls(tree)

        def collect(body, prefix, cls):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    collect(node.body, f"{prefix}.{node.name}", node.name)
                elif isinstance(node, _FUNCTIONS):
                    # a method's first parameter is self or cls
                    callee = cls if node.name == "__init__" else node.name
                    defs.append((f"{prefix}.{node.name}", callee,
                                 int(cls is not None), _defaulted(node)))
                    collect(node.body, f"{prefix}.{node.name}", None)

        collect(tree.body, path.stem, None)
    exempt = set(UNREACHED) | _family_factories()
    out = {}
    for qual, callee, offset, params in defs:
        if qual in exempt:
            continue
        # super().__init__ calls some class's constructor
        names = ({callee, "__init__"} if qual.endswith(".__init__")
                 else {callee})
        mine = [c for c in calls if c[0] in names]
        unpassed = tuple(
            p for p, i in params
            if p not in UNPASSED.get(qual, ())
            and not any(p in kw or splat
                        or (i is not None and i - offset < n)
                        for _, n, kw, splat in mine))
        if unpassed:
            out[qual] = unpassed
    return out


def test_every_default_is_passed_by_some_caller():
    # a default that only a test overrides is a switch the program never
    # throws: make it a constant, or give it a caller in the package
    assert _unpassed() == {}
