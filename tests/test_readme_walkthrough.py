"""The README's offline walkthrough, run as written, and every documented
``eppi`` line parsed.

Every ``eppi generate|construct|snapshot|update`` line of the README's
bash blocks (``\\`` continuations joined, comments dropped) runs in README
order in one empty directory: generate -> construct -> snapshot inspect
-> update init/append/apply/compact -> snapshot diff.  The test drives
them in process through :func:`repro.cli.main`; run as a script, this
file drives the installed ``eppi`` console script instead::

    python tests/test_readme_walkthrough.py

The lines that need a live fleet (``serve``, ``provider``, ``loadgen``,
``supervisor``, ``fleet``, ``replica``, ``redteam``) cannot run here, so
every ``eppi`` line of README.md and docs/API.md is at least parsed by
the real argument parser: a flag the CLI no longer has fails the suite.
"""

import os
import shlex
import subprocess
import sys
import tempfile

import pytest

from repro.cli import _build_parser, main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
DOCS = (README, os.path.join(ROOT, "docs", "API.md"))
OFFLINE = ("generate", "construct", "snapshot", "update")


def eppi_lines(path: str) -> list[list[str]]:
    """Every ``eppi`` command in the bash blocks of ``path``, as argv
    lists in order (a trailing ``&`` dropped)."""
    commands, in_bash, pending = [], False, ""
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("```"):
                in_bash = line == "```bash"
                continue
            if not in_bash:
                continue
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            argv, pending = shlex.split(pending, comments=True), ""
            if argv[-1:] == ["&"]:
                argv.pop()
            if argv[:1] == ["eppi"] and len(argv) > 1:
                commands.append(argv)
    return commands


def walkthrough(readme: str = README) -> list[list[str]]:
    """The README's offline ``eppi`` commands, as argv lists, in order."""
    return [argv for argv in eppi_lines(readme) if argv[1] in OFFLINE]


def test_walkthrough_covers_the_update_pipeline():
    steps = [
        " ".join(argv[1:3] if argv[1] in ("snapshot", "update") else argv[1:2])
        for argv in walkthrough()
    ]
    assert steps == [
        "generate", "construct", "snapshot inspect",
        "update init", "update append", "update append", "update apply",
        "update compact", "snapshot diff",
    ]


@pytest.mark.parametrize(
    "argv",
    [argv for path in DOCS for argv in eppi_lines(path)],
    ids=lambda argv: " ".join(argv[1:3]),
)
def test_every_documented_command_parses(argv, capsys):
    try:
        _build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err.strip()}")


def test_every_doc_has_commands_to_check():
    assert all(eppi_lines(path) for path in DOCS)


def test_walkthrough_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in walkthrough():
        assert main(argv[1:]) == 0, " ".join(argv)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for argv in walkthrough():
            print("$", shlex.join(argv), flush=True)
            if subprocess.run(argv, cwd=workdir).returncode != 0:
                sys.exit(1)
