"""Every demo script runs to completion and writes nothing to stderr, the
README's Library tour runs and shows the values its comments state, and the
README names every option of every subcommand."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gptforge import cli

ROOT = Path(__file__).resolve().parents[1]


def _subcommand_options():
    """``"subcommand option"`` and the option's strings (``-o``,
    ``--output``) for every non-help option of the CLI."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [pytest.param(action.option_strings,
                         id=f"{name} {action.option_strings[-1]}")
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)]


def _library_tour():
    """The first python block after the README's "## Library tour" heading."""
    text = (ROOT / "README.md").read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start:tour.index("```", start)]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_library_tour():
    code = _library_tour()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        try:  # only comments that are Python literals state a value
            want = ast.literal_eval(comment.strip())
            ast.parse(expr.strip(), mode="eval")
        except (SyntaxError, ValueError):
            continue
        got = eval(expr.strip(), namespace)
        if isinstance(want, float):
            want = pytest.approx(want)
        assert got == want, line
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("strings", _subcommand_options())
def test_readme_names_option(strings):
    # one of the option's strings, as a whole token: --t-grid does not
    # count for --t, nor -o for -o1
    text = (ROOT / "README.md").read_text()
    assert any(re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", text)
               for s in strings), f"README.md names none of {strings}"
