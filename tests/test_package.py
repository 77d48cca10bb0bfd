"""Packaging metadata and the public namespace."""

import importlib
import importlib.util
import tomllib
from pathlib import Path

import discordkit

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
