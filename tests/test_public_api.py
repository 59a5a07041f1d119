"""Every public function or class that only tests use is listed in the README.

A public name here is a top-level ``def`` or ``class`` in ``src/steinkit``
whose name does not start with an underscore.  It counts as used when some
program file refers to it: a name, an attribute or an import in any Python
file under ``src/``, ``scripts/`` or ``clibench/`` other than a test, a string
constant that is exactly the name (the clibench tracer patches functions by
name), or an entry point in ``pyproject.toml``.  Names mentioned in
docstrings and comments do not count.  The README section "Public functions
that only tests call" gives a keep-or-delete line for each name that is not
used, and for no other.

No module of the package imports an underscore name from another of its
modules, or reads one off an imported package module: a name that two
modules share is public.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steinkit"
SECTION = "## Public functions that only tests call"


def _program_files():
    for top in ("src", "scripts", "clibench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _referenced_names():
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    names.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return names


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def _readme_list():
    text = (ROOT / "README.md").read_text()
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    # each bullet names its functions before the dash that starts its reason
    heads = (bullet.split(" — ", 1)[0] for bullet in section.split("\n- ")[1:])
    return {name for head in heads for name in re.findall(r"`(\w+\.\w+)`", head)}


def test_readme_lists_exactly_the_public_names_only_tests_use():
    used = _referenced_names()
    unused = {qualified for qualified, name in _public_definitions() if name not in used}
    listed = _readme_list()
    assert unused == listed, {"unused but not listed": sorted(unused - listed),
                              "listed but used elsewhere or gone": sorted(listed - unused)}


def _private_cross_module_uses(path):
    """``module.name`` for every underscore name that ``path`` imports from,
    or reads off, another steinkit module."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> steinkit module bound by ``from . import x``
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("steinkit")):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if not source or source == "steinkit":
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = {path.stem: uses for path in sorted(PACKAGE.glob("*.py")) if (uses := _private_cross_module_uses(path))}
    assert not found, found
