"""The README's "Library use" block runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S)[1]
    # the comment line under each print is the line it prints
    expected = re.findall(r"^print\(.*\n# (.*)$", block, re.M)
    assert len(expected) == block.count("\nprint(")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
