"""The README's offline walkthrough, run as written.

Every ``eppi generate|construct|snapshot|update`` line of the README's
bash blocks (``\\`` continuations joined, comments dropped) runs in README
order in one empty directory: generate -> construct -> snapshot
build/inspect -> update init/append/apply/compact -> snapshot diff.  The
test drives them in process through :func:`repro.cli.main`; run as a
script, this file drives the installed ``eppi`` console script instead::

    python tests/test_readme_walkthrough.py
"""

import os
import shlex
import subprocess
import sys
import tempfile

from repro.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
OFFLINE = ("generate", "construct", "snapshot", "update")


def walkthrough(readme: str = README) -> list[list[str]]:
    """The README's offline ``eppi`` commands, as argv lists, in order."""
    commands, in_bash, pending = [], False, ""
    with open(readme) as fh:
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
            if argv[:1] == ["eppi"] and len(argv) > 1 and argv[1] in OFFLINE:
                commands.append(argv)
    return commands


def test_walkthrough_covers_the_update_pipeline():
    steps = [
        " ".join(argv[1:3] if argv[1] in ("snapshot", "update") else argv[1:2])
        for argv in walkthrough()
    ]
    assert steps == [
        "generate", "construct", "snapshot build", "snapshot inspect",
        "update init", "update append", "update append", "update apply",
        "update compact", "snapshot diff",
    ]


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
