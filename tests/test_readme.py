"""The README's library quick start and its `xcond` command lines run and
print what they document."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from xcond import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", TEXT, re.M | re.S)  # (language, body)
SH_BLOCKS = [body for lang, body in BLOCKS if lang == "sh"]
C4 = "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"


def python_block():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
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


def plain_block(first_line):
    (block,) = [body for lang, body in BLOCKS if not lang and body.startswith(first_line)]
    return block


def xcond_lines():
    """The argument list of every distinct `xcond ...` line of the sh
    blocks, `$ ` prompt and `# ...` comment stripped."""
    lines = {}
    for block in SH_BLOCKS:
        for line in block.splitlines():
            words = shlex.split(line.removeprefix("$ "), comments=True)
            if words and words[0] == "xcond":
                lines[tuple(words[1:])] = None
    return [list(argv) for argv in lines]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the input files the README names."""
    (tmp_path / "ideal.txt").write_text(plain_block("vars:"), encoding="utf-8")
    (tmp_path / "p4.graph").write_text(plain_block("v1 v2"), encoding="utf-8")
    (tmp_path / "c4.graph").write_text(C4, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_readme_lines_cover_the_report_commands():
    commands = {argv[0] for argv in xcond_lines()}
    assert commands == {"gb", "rees", "verify-family", "binomial-edge", "cycle-complex", "powers"}


@pytest.mark.parametrize("argv", xcond_lines(), ids=" ".join)
def test_command_line_exits_zero(readme_dir, capsys, argv):
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_wrapped_example_is_the_real_stdout(readme_dir, capsys):
    (block,) = [b for b in SH_BLOCKS if b.startswith("$ ")]
    prompt, *wrapped = block.splitlines()
    assert cli.main(shlex.split(prompt.removeprefix("$ "))[1:]) == 0
    assert capsys.readouterr().out.strip() == "".join(line.strip() for line in wrapped)
