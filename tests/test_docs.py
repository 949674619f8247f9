"""README.md stays true to the code: its example config parses, its
configuration notes name every reserved key, its CLI table lists the
subcommands the parser has, its recipe table lists the recipes the CLI
has and its library layout lists the package's modules."""

import argparse
import re
from pathlib import Path

from dualsync.cli import RECIPES, build_parser
from dualsync.config import RESERVED_KEYS, parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_example_config_parses_to_the_defaults():
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    example = parse_config(block).values
    defaults = parse_config("").values
    differing = {k for k in defaults if example[k] != defaults[k]}
    assert differing == {"sweep.key", "sweep.values"}
    assert example["sweep.key"] == "channel.snr_db"


def test_configuration_names_every_reserved_key():
    section = README.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    prose = section.split("```", 2)[2]
    assert [k for k in RESERVED_KEYS if f"`{k}`" not in prose] == []


def test_cli_table_lists_every_subcommand():
    section = README.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `([\w-]+)` ", section, re.M)
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(subparsers.choices)


def test_recipe_table_lists_every_recipe():
    section = README.split("### Demonstration recipes", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| (fig\d+) ", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(RECIPES) | {"fig14"}


def test_library_layout_lists_every_module():
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", section, re.M)
    modules = {p.stem for p in (ROOT / "src" / "dualsync").glob("*.py")} - {"__init__"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules
