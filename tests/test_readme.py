"""The README's library example runs as written."""
from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    code = section[start : section.index("```", start)]
    exec(compile(code, "README.md#library", "exec"), {})
