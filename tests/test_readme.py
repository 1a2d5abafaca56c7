"""README.md's command table against the command table of the CLI, cli.COMMANDS."""

import pathlib
import re

from micz9 import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _command_table():
    """The rows of the README table headed | command | other flags |, as (commands, flags cell)."""
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if re.fullmatch(r"\|\s*command\s*\|\s*other flags\s*\|", line):
            break
    else:
        raise AssertionError("README.md has no | command | other flags | table")
    next(lines)  # the |---|---| line
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        _, commands, flags, _ = re.split(r"(?<!\\)\|", line)  # \| is a pipe inside a cell
        assert re.fullmatch(r"(\s*`[a-z\d]+`,?)+\s*", commands), line  # only backticked names
        rows.append((re.findall(r"`([^`]*)`", commands), flags))
    return rows


def test_the_readme_command_table_names_each_command_and_flag_of_the_cli():
    rows = _command_table()
    named = [command for commands, _ in rows for command in commands]
    assert sorted(named) == sorted(cli.COMMANDS)  # each command in exactly one row
    for commands, cell in rows:
        # an item like "`--a-min` and `--a-max` (both required)" says "required" of each flag
        items = re.split(r",\s+(?![^(]*\))", cell)
        flags = {flag for item in items for flag in re.findall(r"--[\w-]+", item)}
        required = {flag for item in items if "required" in item
                    for flag in re.findall(r"--[\w-]+", item)}
        for command in commands:
            table = cli.COMMANDS[command][2]
            own = {flag for flag in table if flag not in cli._SECTOR}
            assert flags == own, command
            assert required == {flag for flag in own if table[flag][2] is ...}, command
