"""The README's library sketch runs against the current API, and every
command of its "CLI" block is a row of the table of CLI cases.

Run as a script, the checks import whichever ffgeom is importable, so from
a directory outside the checkout they check an installed package.
"""

import re
import shlex
from pathlib import Path

import cli_cases

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading, language):
    """The first ``language`` code block of the README section ``heading``."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    exec(compile(code_block("Library sketch", "python"), str(README), "exec"), {})


def test_cli_block_commands_are_rows():
    argvs = [row.argv for row in cli_cases.ROWS]
    commands = [shlex.split(line) for line in code_block("CLI", "sh").splitlines()]
    assert commands and all(command[0] == "ffgeom" for command in commands)
    assert [command for command in commands if command[1:] not in argvs] == []


if __name__ == "__main__":
    test_library_sketch_runs()
    test_cli_block_commands_are_rows()
