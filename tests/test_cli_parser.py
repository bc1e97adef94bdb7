"""Pin the ``eppi`` command surface: every subcommand, and for each of its
arguments the option strings, destination, default, choices, whether it is
required, its action kind and whether it is hidden from ``--help``.

A refactor of the parser (shared option groups, helpers) must leave this
table unchanged -- that is how it shows it dropped or renamed no flag.
Regenerate ``data/cli_options.json`` only for a deliberate CLI change::

    PYTHONPATH=src python tests/test_cli_parser.py
"""

import argparse
import json
import os

from repro.cli import _build_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_options.json")


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _describe(action: argparse.Action) -> dict:
    choices = action.choices
    return {
        "options": list(action.option_strings),
        "default": action.default,
        "choices": list(choices) if choices is not None else None,
        "required": action.required,
        "nargs": action.nargs,
        "action": type(action).__name__,
        "hidden": action.help == argparse.SUPPRESS,
    }


def parser_table(parser=None, prefix: str = "") -> dict:
    """``{"<command path>": {dest: argument}}`` for every (sub)command.

    Keyed by destination, so declaration order (which only moves lines in
    ``--help``) is free to change."""
    parser = parser or _build_parser()
    table = {
        prefix: {
            a.dest: _describe(a)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        }
    }
    for name, child in _subparsers(parser).items():
        table.update(parser_table(child, f"{prefix} {name}".strip()))
    return table


def test_every_subcommand_keeps_its_options():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert parser_table() == golden


def test_every_leaf_command_has_a_handler():
    """Each leaf subcommand dispatches somewhere (no orphaned parser)."""
    def leaves(parser, path=()):
        children = _subparsers(parser)
        if not children:
            yield path, parser
        for name, child in children.items():
            yield from leaves(child, path + (name,))

    for path, parser in leaves(_build_parser()):
        if path:
            assert callable(parser.get_default("func")), " ".join(path)


if __name__ == "__main__":
    # One line per argument, so a diff of the golden names the flag.
    commands = []
    for command, arguments in sorted(parser_table().items()):
        rows = ",\n".join(
            f"  {json.dumps(dest)}: {json.dumps(argument, sort_keys=True)}"
            for dest, argument in sorted(arguments.items())
        )
        commands.append(f" {json.dumps(command)}: {{\n{rows}\n }}" if rows
                        else f" {json.dumps(command)}: {{}}")
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(commands) + "\n}\n")
    print(f"wrote {GOLDEN}")
