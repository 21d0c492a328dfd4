"""The library's defaulted function parameters, counted by AST and pinned, so
that a new knob (or a removed one) shows in review: change the figure in the
same change that changes the count."""

import ast
from pathlib import Path

import bitdiff

DEFAULTED_PARAMETERS = 29


def test_defaulted_parameter_count():
    count = 0
    for path in sorted(Path(bitdiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count == DEFAULTED_PARAMETERS
