"""Packaging metadata and the public namespace."""

import ast
import importlib
import importlib.util
import tomllib
from pathlib import Path

import discordkit

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "discordkit"


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert discordkit.__version__ == project["version"]


def test_all_is_sorted_unique_and_resolves():
    names = discordkit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(discordkit, name), name


def test_every_name_the_bench_traces_resolves():
    # bench/spans.py wraps these names by lookup, so a deleted or renamed one
    # would make every traced bench run fail
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for table in (spans.LAYERS, spans.SAMPLING):
        for module, names in table.items():
            layer = importlib.import_module(f"discordkit.{module}")
            for name in names:
                assert callable(getattr(layer, name, None)), f"{module}.{name}"


def _defined_names(node) -> list[str]:
    """Names a module-level statement binds: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node) -> set[str]:
    """Names a statement reads, as a variable or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_every_private_module_name_is_read_in_src():
    # a helper a refactor leaves unused fails no behaviour test, so each
    # private name must be read somewhere in src outside its own definition
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_read_names(node) for _, node in statements]
    private, orphans = 0, []
    for k, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            if name.startswith("_") and not name.startswith("__"):
                private += 1
                if not any(name in read for j, read in enumerate(reads) if j != k):
                    orphans.append(f"{module}:{name}")
    assert private > 0
    assert orphans == []
