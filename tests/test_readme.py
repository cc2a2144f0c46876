"""The README's library example runs and prints what it shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "(node axis 0 1 (leaf 1) (node axis 0 3 (leaf 2) (leaf 1)))",
        "0.0",
    ]
