"""Package postconditions raise package errors; ``python -O`` strips
``assert`` statements, so the package source may not contain any."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fincascade"


def test_package_source_has_no_bare_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
