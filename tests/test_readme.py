"""Claims of README.md: the library example prints what its comments say, the Command line
section names exactly the parser's options, the package holds no assert and never lifts the
interpreter's int-digit limit."""

import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

from edskit.cli import build_parser

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


def test_package_never_lifts_the_int_digit_limit():
    # Large integers print through eds._decimal, and nothing reads them back.
    modules = sorted((ROOT / "src" / "edskit").glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "set_int_max_str_digits" in (
            getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)
        )
    ]
    assert found == []


def _parser_options():
    """Every option string of the parser and of each subcommand, --help left out."""
    top = build_parser()
    parsers = [top] + [
        sub
        for action in top._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    return {
        option
        for parser in parsers
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for option in action.option_strings
    }


def test_readme_command_line_names_exactly_the_parser_options():
    # Case-sensitive, so a removed --L-rho or a misspelt --b cannot stay in the docs.
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    options = _parser_options()
    assert "--B" in options and "--tuple-file" in options
    assert named - options == set(), "flags the parser does not take"
    assert options - named == set(), "options the section does not name"
