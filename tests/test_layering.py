"""Layering: no module of horolab reaches into a sibling's private names.

A name with a leading underscore is private to its module.  A sibling that
imports one, or reads one off the module object, depends on a detail the
owner may change without notice, so the rule is checked on the source.
"""

import ast
from pathlib import Path

import horolab

PACKAGE = Path(horolab.__file__).parent


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """`module:line name` for every sibling private name that path imports
    or reads as an attribute of a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, modules = [], set()  # modules: local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "horolab":
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                if node.module in (None, "horolab"):  # from . import measures
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("horolab.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_a_sibling_private_name():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_reads(path)]
    assert found == []


def test_the_rule_sees_both_kinds_of_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import measures as _measures\n"
        "from .automorphic import _live_end, hecke_range\n"
        "r = _measures._support_radius(m) + _measures.support_radius(m)\n"
        "s = _measures.__name__\n"
    )
    assert private_reads(src) == ["mod.py:2 _live_end", "mod.py:3 _measures._support_radius"]
