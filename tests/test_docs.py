"""The README's library examples run, and the package exports what it lists."""

import contextlib
import io
import re
from pathlib import Path

import coexlink

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the blocks build on each other, so they run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python example"
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for number, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_every_export_resolves():
    missing = [name for name in coexlink.__all__ if not hasattr(coexlink, name)]
    assert missing == []
