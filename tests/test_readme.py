"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["err"] < 1e-6
