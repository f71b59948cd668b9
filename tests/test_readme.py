"""Claims of README.md: the library example prints what its comments say, and the package
holds no assert."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    excluded, is_power = out.getvalue().splitlines()
    assert ast.literal_eval(excluded)[:2] == ["absorption_congruence", "incidence_pairing"]
    assert is_power == "False"


def test_package_holds_no_assert():
    # Soundness checks raise SoundnessError, so they also run under python -O.
    modules = sorted((ROOT / "src" / "edskit").glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
