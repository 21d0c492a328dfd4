"""The library's defaulted function parameters and its line count, counted and
pinned, so that a new knob (or a removed one) and code growth show in review:
change the figure in the same change that changes the count."""

import ast
from pathlib import Path

import bitdiff

DEFAULTED_PARAMETERS = 29
# `wc -l src/bitdiff/*.py`: an upper bound, lowered as code is deleted
SOURCE_LINES = 3571

SOURCES = sorted(Path(bitdiff.__file__).parent.glob("*.py"))


def test_defaulted_parameter_count():
    count = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count == DEFAULTED_PARAMETERS


def test_source_line_count():
    assert sum(path.read_bytes().count(b"\n") for path in SOURCES) <= SOURCE_LINES
