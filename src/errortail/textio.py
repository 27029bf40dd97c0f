"""The package's text formats: commented CSV tables and ``key = value`` files.

A table is optional ``# key=value`` comment lines recording how the file was
produced, one header line, then one comma-separated row per line. Both
readers skip blank lines and ``#`` comments and name the line of each error.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np


def _content(fh) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def write_table(
    path, header: str, rows: Iterable[str], comments: dict | None = None
) -> None:
    """Write ``# key=value`` comment lines, the header, then one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _numeric(line: str) -> bool:
    try:
        list(map(float, line.split(",")))
    except ValueError:
        return False
    return True


def read_table(path, header: str) -> tuple[list[int], np.ndarray]:
    """Line numbers and the (rows, columns) values of a table with this header.

    Rejects a missing or different header, a row with the wrong number of
    fields, a field that is not a decimal number, and a table without rows;
    of several faulty rows, the first is named.
    """
    commas = header.count(",")
    with open(path, "r", encoding="utf-8") as fh:
        content = _content(fh)
        lineno, line = next(content, (0, None))
        if line is None:
            raise ValueError(f"{path}: missing {header!r} header")
        if line != header:
            raise ValueError(
                f"{path}: line {lineno}: expected header {header!r}, got {line!r}"
            )
        linenos, lines = [], []
        for lineno, line in content:
            linenos.append(lineno)
            lines.append(line)
    if not lines:
        raise ValueError(f"{path}: no rows below the {header!r} header")
    # rows before the first with the wrong field count
    end = next((i for i, line in enumerate(lines) if line.count(",") != commas), len(lines))
    fields = chain.from_iterable(line.split(",") for line in lines[:end])
    try:
        values = np.fromiter(map(float, fields), float, count=end * (commas + 1))
    except ValueError:
        bad = next(i for i in range(end) if not _numeric(lines[i]))
        raise ValueError(
            f"{path}: line {linenos[bad]}: non-numeric field in {lines[bad]!r}"
        ) from None
    if end < len(lines):
        raise ValueError(
            f"{path}: line {linenos[end]}: expected {commas + 1} comma-separated values, "
            f"got {lines[end].count(',') + 1}"
        )
    return linenos, values.reshape(end, commas + 1)


def read_key_values(path) -> dict[str, str]:
    """``key = value`` pairs of a file; rejects a line without ``=`` and a key
    given twice."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _content(fh):
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'key = value', got {line!r}"
                )
            if key in pairs:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs
