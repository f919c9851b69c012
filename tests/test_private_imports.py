"""No kcontract module or script reaches into another module's private names,
and no package module imports scipy (a test-only dependency)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kcontract"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _source(node: ast.ImportFrom):
    """'kcontract' for the package itself, the module name for one of its
    modules, None for anything else."""
    if node.level == 1:
        return node.module or "kcontract"
    if node.module == "kcontract" or (node.module or "").startswith("kcontract."):
        return node.module.removeprefix("kcontract.")
    return None


def private_uses(path):
    """Private names path imports from, or reads off, another kcontract module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> the kcontract module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source(node)
            if source == "kcontract":
                modules.update({a.asname or a.name: a.name for a in node.names
                                if a.name in MODULES})
            elif source is not None and source != path.stem:
                yield from (f"from {source} import {a.name}" for a in node.names
                            if _private(a.name))
        elif isinstance(node, ast.Import):
            modules.update({a.asname: a.name.removeprefix("kcontract.") for a in node.names
                            if a.asname and a.name.startswith("kcontract.")})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, path.stem) != path.stem):
            yield f"{node.value.id}.{node.attr}"


def test_files_found():
    assert PACKAGE / "cli.py" in FILES and "reproduce" in MODULES


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_cross_module_access(path):
    assert list(private_uses(path)) == []


def imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert [m for m in imported_modules(path) if m.split(".")[0] == "scipy"] == []
