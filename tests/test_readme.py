"""README's Quickstart and Public API code blocks run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under README's ``## section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


@pytest.mark.parametrize("section", ["Quickstart", "Public API"])
def test_readme_block_runs(section, capsys):
    exec(compile(python_block(section), f"README.md ({section})", "exec"),
         {"__name__": "readme"})
    assert capsys.readouterr().out
