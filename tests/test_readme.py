"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 2
    for got, comment in zip(printed, expected):
        # a comment may add context after the value, as in "[0.5 ...] at r = 0.5"
        assert got and (comment == got or comment.startswith(got + " ")), (got, comment)
