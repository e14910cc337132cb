"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "latkit").glob("*.py"))


def test_sources_found():
    assert "cli.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statement(path):
    """``python -O`` strips ``assert`` statements, so a check the program
    relies on must raise by itself; ``check_invariants`` raises
    ``AssertionError`` explicitly and is not an ``assert`` statement."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == []
