"""The README's Python examples run as written.

Every fenced ```python block of README.md is executed in order in one
namespace (a later block may use names an earlier one defined), so an
example that no longer matches the library fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        code = compile(block, f"README.md python block {i}", "exec")
        with contextlib.redirect_stdout(io.StringIO()):
            exec(code, namespace)
