"""The library example in README.md runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    excluded, is_power = out.getvalue().splitlines()
    assert ast.literal_eval(excluded)[:2] == ["absorption_congruence", "incidence_pairing"]
    assert is_power == "False"
