"""README's ```python blocks run as written against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)


def _run(block: str, label: str) -> None:
    exec(compile(block, f"README.md: {label}", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_every_python_block_runs(index):
    _run(BLOCKS[index], f"python block {index}")


def test_the_library_use_block_runs(capsys):
    section = TEXT.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    _run(block, "Library use")
    assert capsys.readouterr().out.startswith("answered ")
