"""The README's reference tables list exactly what the code defines."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from lsgnn import graph, localsim, model, synthetic
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


def test_readme_states_the_rule_of_every_config_key():
    documented = {key: accepts for key, _, accepts, *_ in _table_after("Keys and defaults:")}
    assert list(documented) == [f.name for f in fields(ExperimentConfig)]
    for key, accepts in documented.items():
        assert accepts == ExperimentConfig.RULES.get(key, (None, "any"))[1], key


def test_readme_lists_every_command():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    documented = [row[0] for row in _table_after("## Commands")]
    assert sorted(documented) == sorted(sub.choices)


# Each block size the README quotes: the phrase around it, with the number
# as its group, the unit the phrase counts in, and the constant it names.
_BLOCK_SIZES = {
    "text lines": (r"a block of (\S+) KiB of lines", 1024, graph._BLOCK_BYTES),
    "inference rows": (r"in fixed blocks of (\S+) selected rows", 1, model._BLOCK_ROWS),
    "inference map": (r"holds one \((\S+), `hidden_dim`\) channel map", 1, model._BLOCK_ROWS),
    "Adam entries": (r"in blocks of (\S+) entries", 1, model._ADAM_BLOCK),
    "gathered floats": (r"at most (\S+) gathered floats", 1, localsim._CHUNK),
    "generator pairs": (r"in blocks of (\S+) pairs", 1, synthetic._PAIR_BLOCK),
}


@pytest.mark.parametrize("case", _BLOCK_SIZES)
def test_readme_quotes_each_block_size(case):
    phrase, unit, constant = _BLOCK_SIZES[case]
    quoted = re.findall(phrase, " ".join(README.split()))
    assert quoted, phrase
    assert [int(q.replace(",", "")) * unit for q in quoted] == [constant] * len(quoted)
