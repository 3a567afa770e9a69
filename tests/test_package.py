"""The package surface: what `corplex` exports, and that each public
function or class in `src/corplex` is reached by the package or documented
as a library call."""

import ast
import re
import types
from pathlib import Path

import pytest

import corplex

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "corplex"
REMOVED = {
    "textpipe": "filter_punctuation",
    "posstats": "format_tagged",
    "controversy": "score_pages",
    "readability": "text_fog",
}


def documented_calls():
    """The README's "Library use" section, up to its list of removed names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return section.split("\nRemoved ", 1)[0]


class TestAll:
    def test_public_names_only(self):
        names = corplex.__all__
        assert len(names) == len(set(names))
        assert not [n for n in names if n.startswith("_")]
        assert not [n for n in names if isinstance(getattr(corplex, n), types.ModuleType)]

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from corplex import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(corplex.__all__)

    def test_each_name_stated_once(self):
        text = (SRC / "__init__.py").read_text(encoding="utf-8")
        code = text.split('"""', 2)[2]  # after the module docstring
        stated = {n: len(re.findall(rf"\b{n}\b", code)) for n in corplex.__all__}
        assert {n: k for n, k in stated.items() if k != 1} == {}

    @pytest.mark.parametrize("module,name", sorted(REMOVED.items()))
    def test_removed_names_are_gone(self, module, name):
        assert name not in corplex.__all__
        assert not hasattr(corplex, name)
        assert not hasattr(getattr(corplex, module), name)


def test_no_unreached_public_code():
    """Every public top-level function or class in src/corplex is referenced
    by name from a module of the package (its own included, __init__ not),
    or named in the README's "Library use" section."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    documented = documented_calls()
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and not re.search(rf"\b{node.name}\b", documented)
    ]
    assert unreached == []


def test_no_module_imports_multiprocessing():
    """The package forks through one helper of its own, never a pool."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                importers.append(path.name)
    assert importers == []
