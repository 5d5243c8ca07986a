"""The README's examples and CLI table hold for the code.

The quick start runs as written: each top-level expression whose line ends
in a comment with numbers (a ``print`` gives its arguments) must end in those
numbers at 3 decimals. The subcommand table names exactly the options of
each subcommand's parser.
"""

import argparse
import ast
import io
import re
import tokenize
from pathlib import Path

from qotepolicy import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def _comments(source):
    """Line number -> comment text, for every comment in a block."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string for tok in tokens if tok.type == tokenize.COMMENT}


def _flat_numbers(value):
    """Every number in a value, depth first, as floats."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in _flat_numbers(item)]
    return []


def _quick_start_checks():
    """(comment, expected numbers, the value's last numbers) per commented expression."""
    namespace = {"print": lambda *args: args}
    checks = []
    for block in _python_blocks(README):
        comments = _comments(block)
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            expected = [float(n) for n in NUMBER.findall(comments.get(stmt.end_lineno, ""))]
            if expected:
                found = _flat_numbers(value)[-len(expected):]
                checks.append((comments[stmt.end_lineno], expected, found))
    return checks


def test_the_quick_start_prints_its_commented_results():
    checks = _quick_start_checks()
    assert len(checks) == 5, checks
    for comment, expected, found in checks:
        assert [f"{v:.3f}" for v in found] == [f"{v:.3f}" for v in expected], comment


def _readme_flags():
    """Subcommand -> the set of flags its row of the README's CLI table names."""
    cli_section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", cli_section, flags=re.M)
    return {name: set(re.findall(r"`(--[a-z-]+)`", flags)) for name, flags in rows}


def _parser_flags():
    """Subcommand -> the set of long options its parser takes, help aside."""
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, sub in subparsers.choices.items()
    }


def test_the_cli_table_names_every_option_of_every_subcommand():
    readme = _readme_flags()
    assert set(readme) == {"bounds", "policy", "simulate", "tables", "owl"}
    assert readme == _parser_flags()
