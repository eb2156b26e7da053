"""Every function, class and method of the package has a reader in it.

The scan parses src/hsgas/*.py and collects the top-level functions and
classes and the methods of each class (dunders excepted). A definition is
reached when some ast.Name or ast.Attribute anywhere in the package spells
its name. That is a floor, not a proof: the scan cannot tell apart two
definitions of one name, and it counts a reader that is itself unreached.
It finds a definition that nothing names, which is what a deleted caller
leaves behind.
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
