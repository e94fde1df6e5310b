"""The README's library sketch runs against the current API.

Run as a script, the check imports whichever ffgeom is importable, so from
a directory outside the checkout it checks an installed package.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch():
    """The code block of the README's "Library sketch" section."""
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    exec(compile(library_sketch(), str(README), "exec"), {})


if __name__ == "__main__":
    test_library_sketch_runs()
