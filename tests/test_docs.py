"""README.md stays true to the code: its example config parses, its
configuration notes name every retired key, its CLI table lists the
subcommands the parser has and the files of each `cli.COMMANDS` row, its
CSV schemas name every header the CLI writes, its recipe table lists the
recipes the CLI has, its library layout lists the package's modules and
its oracle notes name every public oracle of tests/oracles.py."""

import argparse
import inspect
import re
from pathlib import Path

import oracles
from dualsync import cli
from dualsync.cli import COMMANDS, RECIPES, build_parser
from dualsync.config import RETIRED_KEYS, parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_example_config_parses_to_the_defaults():
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    example = parse_config(block).values
    defaults = parse_config("").values
    differing = {k for k in defaults if example[k] != defaults[k]}
    assert differing == {"sweep.key", "sweep.values"}
    assert example["sweep.key"] == "channel.snr_db"


def test_configuration_names_every_retired_key():
    section = README.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    prose = section.split("```", 2)[2]
    assert [k for k in RETIRED_KEYS if f"`{k}`" not in prose] == []


def test_cli_table_lists_every_subcommand():
    section = README.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `([\w-]+)` ", section, re.M)
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(subparsers.choices)
    # a COMMANDS row names its files, psd.csv beside simulate's time series
    # and fit-noise's verification PSDs
    rows = dict(re.findall(r"^\| `([\w-]+)` +\|(.*)$", section, re.M))
    beside = {"simulate": {"psd.csv"}, "fit-noise": {"psd_master.csv", "psd_follower.csv"}}
    for command, (_, files) in COMMANDS.items():
        named = set(re.findall(r"`(\w+\.csv)`", rows[command]))
        assert named == set(files.values()) | beside.get(command, set()), command


def test_recipe_table_lists_every_recipe():
    section = README.split("### Demonstration recipes", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| (fig\d+) ", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(RECIPES)


def test_library_layout_lists_every_module():
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", section, re.M)
    modules = {p.stem for p in (ROOT / "src" / "dualsync").glob("*.py")} - {"__init__"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules


def test_oracle_notes_name_every_public_oracle():
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    notes = section.split("oracles run only in the tests", 1)[1]
    public = [name for name, obj in vars(oracles).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == oracles.__name__]
    assert "reference_loop" in public
    assert [name for name in public if f"`{name}`" not in notes] == []


def test_csv_schemas_name_every_header(tmp_path, monkeypatch):
    headers = set()
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, comment, header, columns: headers.add(", ".join(header)))
    short = "[run]\nduration_s = 0.2\n[output]\npsd_block_len = 32\npsd_n_blocks = 8\n"
    configs = {
        "simulate": short + "emit_psd = on\n",
        "bode": "", "delay-margin": "", "fit-noise": short,
        "sweep": short + "[sweep]\nkey = run.seed\nvalues = 1, 2\n",
    }
    for command, text in configs.items():
        path = tmp_path / f"{command}.cfg"
        path.write_text(text)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command),
                         "--quiet"]) == 0
    assert cli.main(["reproduce", "fig14", "--out", str(tmp_path / "fig14"), "--quiet"]) == 0
    cli._emit(parse_config(short), jumps=str(tmp_path / "jumps.csv"))
    section = README.split("### CSV schemas", 1)[1].split("\n### ", 1)[0]
    prose = " ".join(section.split())
    assert len(headers) == 8  # one layout per CSV kind
    assert [h for h in sorted(headers) if f"`{h}`" not in prose] == []
