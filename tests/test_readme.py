"""README's Quickstart and Public API code blocks run as written, and its
pass table lists `repro.PASSES`."""

import pathlib
import re

import pytest

import repro

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


def test_pass_table_lists_repro_passes_in_order():
    text = README.read_text(encoding="utf-8")
    table = text.split("\n| Pass | Default |", 1)[1].split("\n\n", 1)[0]
    names = tuple(re.findall(r"^\| `(\w+)` \|", table, re.M))
    assert names == tuple(repro.PASSES)
