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


def _reads_command(node) -> bool:
    """``x.command``, ``getattr(x, "command", ...)`` or ``x["command"]``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "command"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "getattr":
        return any(isinstance(a, ast.Constant) and a.value == "command"
                   for a in node.args)
    return isinstance(node, ast.Subscript) \
        and isinstance(node.slice, ast.Constant) \
        and node.slice.value == "command"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_nothing_reads_the_command_attribute(path):
    """``main`` parses a command line that names a subcommand with that
    command's parser alone, whose namespace has no ``command``: nothing in
    the library may read it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree)
            if _reads_command(node)] == []
