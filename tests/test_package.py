"""Packaging metadata and the public namespace."""

import tomllib
from pathlib import Path

import discordkit

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
