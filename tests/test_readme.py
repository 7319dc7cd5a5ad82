"""README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md: Library use", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("answered ")
