"""Packaging metadata and the public namespace."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import discordkit

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"
SRC = ROOT / "src" / "discordkit"


def _project_field(name: str) -> str:
    """A string field of pyproject.toml's [project] table, read with a
    regular expression: ``tomllib`` exists only from Python 3.11, and the
    project supports 3.10."""
    text = PYPROJECT.read_text(encoding="utf-8")
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return re.search(rf'^{name}\s*=\s*"([^"]*)"', table, re.M).group(1)


def test_version_matches_pyproject():
    assert discordkit.__version__ == _project_field("version")


# standard-library modules newer than Python 3.10, with the release that added them
_NEWER_STDLIB = {"tomllib": (3, 11)}


def test_sources_stay_within_the_declared_python_floor():
    # every module of src/ and tests/ must parse under the grammar of the
    # requires-python floor and import no standard module added after it
    declared = re.fullmatch(r">=(\d+)\.(\d+)", _project_field("requires-python"))
    floor = (int(declared[1]), int(declared[2]))
    too_new = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            too_new += [
                f"{path.name}: {module}" for module in modules
                if _NEWER_STDLIB.get(module.split(".")[0], floor) > floor
            ]
    assert too_new == []


def test_readme_notes_only_the_current_version():
    # older release notes live in CHANGES.md and git; the README states the
    # current contract and the changes of this version alone
    headings = [
        line for line in README.read_text(encoding="utf-8").splitlines()
        if re.match(r"## (API c|C)hanges in ", line)
    ]
    assert headings == [f"## Changes in {discordkit.__version__}"]


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


_MATH_LOGS = {"log", "log2", "log10", "log1p"}


def _math_logs(tree) -> list[str]:
    """Every use of a logarithm of the ``math`` module in ``tree``: an
    import of one, or an attribute of ``math`` (or an alias of it) read,
    called or not."""
    aliases = {"math"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math" and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name in _MATH_LOGS | {"*"}]
        elif (isinstance(node, ast.Attribute) and node.attr in _MATH_LOGS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_src_takes_no_logarithm_from_math():
    # every t log2 t must come from density._xlog2 (np.log2): math.log2
    # differs from np.log2 in the last bit on some inputs, so a float log
    # next to the kernel would break the Newton model's bit-for-bit value.
    # math.sqrt stays allowed: it is correctly rounded, like np.sqrt
    uses = {
        path.name: _math_logs(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in uses.items() if found} == {}
    # the scan sees each form it forbids
    probe = "import math\nimport math as m\nfrom math import log1p\nmath.log2(2.0)\nf = m.log\nmath.log10\n"
    assert len(_math_logs(ast.parse(probe))) == 4
    assert _math_logs(ast.parse("import math\nmath.sqrt(2.0)\nnp.log2(2.0)\n")) == []
