"""The README's library quick start runs and prints what it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "expected exactly one python block in the README"
    return blocks[0]


def test_quick_start_output_matches_its_comments():
    code = python_block()
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected, "the quick start documents no output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
