"""The README's reference tables list exactly what the code defines."""

import argparse
from dataclasses import fields
from pathlib import Path

import yaml

from lsgnn.cli import build_parser
from lsgnn.harness import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _table_after(marker: str) -> list[list[str]]:
    """The cells of the first Markdown table after `marker`, header and rule
    rows dropped, backticks stripped."""
    lines = README[README.index(marker):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_readme_lists_every_config_key_with_its_default():
    documented = {key: yaml.safe_load(default) for key, default, *_ in _table_after("Keys and defaults:")}
    defined = {f.name: f.default for f in fields(ExperimentConfig)}
    assert list(documented) == list(defined)
    for key, default in defined.items():
        assert (type(documented[key]), documented[key]) == (type(default), default), key


def test_readme_lists_every_command():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    documented = [row[0] for row in _table_after("## Commands")]
    assert sorted(documented) == sorted(sub.choices)
