"""The documented entry points run exactly as written.

README's Quickstart block and the package docstring's quick tour are
the first code a reader copies; each is extracted verbatim and executed
here, so a renamed or removed API fails this test instead of the
reader.
"""

import re
import textwrap
from pathlib import Path

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_quickstart() -> str:
    text = README.read_text()
    section = text.split("## Quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README Quickstart has no python block"
    return match.group(1)


def docstring_tour() -> str:
    lines = repro.__doc__.split("Quick tour::", 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line)
    code = textwrap.dedent("\n".join(block)).strip()
    assert code, "package docstring has no quick tour"
    return code + "\n"


def test_readme_quickstart_runs(capsys):
    exec(compile(readme_quickstart(), "README.md", "exec"), {})
    assert "system status" in capsys.readouterr().out


def test_docstring_tour_runs(capsys):
    exec(compile(docstring_tour(), "repro/__init__.py", "exec"), {})
    assert capsys.readouterr().out.strip()
