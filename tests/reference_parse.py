"""Frozen reference: the lattice-file parser as ``latkit.cli`` had it while
it read every data line afresh, kept as test code only.

``parse_lattice_file`` is copied unchanged; the differential test requires
the library's parser, which reads a repeated line once per file, to return
the same ``(d, m, rows)`` with the same entry types on every file, or to
raise ``LatticeFileError`` with the same message.
"""

from __future__ import annotations

from typing import Optional

from latkit.cli import LatticeFileError, _literal


def parse_lattice_file(text: str) -> tuple[int, int, list[tuple]]:
    """Parse header 'd m' plus m rows of d rational literals; each entry is
    an ``int`` for an integer literal and a ``Fraction`` otherwise."""
    header: Optional[tuple[int, int]] = None
    header_line = 1
    rows: list[tuple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            try:
                d, m = map(int, tokens)
            except ValueError:
                raise LatticeFileError(
                    line_no, "header must be two integers 'd m'")
            if d < 1 or m < 0:      # m = 0: the zero lattice, no rows
                raise LatticeFileError(line_no, "header requires d>=1, m>=0")
            header, header_line = (d, m), line_no
            continue
        d, m = header
        if len(tokens) != d:
            raise LatticeFileError(
                line_no, f"expected {d} entries, got {len(tokens)}")
        try:
            try:    # one int pass, or _literal per token if int rejects one
                if not line.isascii() or "_" in line:
                    raise ValueError
                rows.append(tuple(map(int, tokens)))
            except ValueError:
                rows.append(tuple(map(_literal, tokens)))
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeFileError(line_no, f"bad rational literal: {exc}")
        if len(rows) > m:
            raise LatticeFileError(line_no, f"more than {m} data rows")
    if header is None:
        raise LatticeFileError(1, "missing header line 'd m'")
    if len(rows) != header[1]:
        raise LatticeFileError(
            header_line,
            f"header promises {header[1]} rows, file has {len(rows)}")
    return header[0], header[1], rows
