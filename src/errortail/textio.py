"""The package's text formats: commented CSV tables and ``key = value`` files.

A table is optional ``# key=value`` comment lines recording how the file was
produced, one header line, then one comma-separated row per line. Both
readers skip blank lines and ``#`` comments and name the line of each error.

Tables cross between Python objects and arrays one block of ``BLOCK_ROWS``
rows at a time: the reader holds one block of lines as strings, and the
writers (through :func:`block_rows`) one block of rows as Python floats. So
a table's Python-object memory does not grow with its length; only its
arrays do.
"""

from __future__ import annotations

from itertools import chain, compress, islice
from typing import Iterable, Iterator

import numpy as np

BLOCK_ROWS = 8_192  # rows held as Python objects at once, reading or writing


def _content(fh) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def block_rows(array: np.ndarray) -> Iterator:
    """The rows of ``array`` as ``tolist`` gives them, converted one block of
    ``BLOCK_ROWS`` rows at a time."""
    starts = range(0, len(array), BLOCK_ROWS)
    return chain.from_iterable(array[i : i + BLOCK_ROWS].tolist() for i in starts)


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


def _convert_block(path, linenos: np.ndarray, rows: list[str], commas: int) -> np.ndarray:
    """The (rows, commas + 1) values of one block of rows at these line
    numbers; an error names the first faulty row."""
    # rows before the first with the wrong field count
    end = next((i for i, row in enumerate(rows) if row.count(",") != commas), len(rows))
    fields = chain.from_iterable(row.split(",") for row in rows[:end])
    try:
        values = np.fromiter(map(float, fields), float, count=end * (commas + 1))
    except ValueError:
        bad = next(i for i in range(end) if not _numeric(rows[i]))
        raise ValueError(
            f"{path}: line {linenos[bad]}: non-numeric field in {rows[bad]!r}"
        ) from None
    if end < len(rows):
        raise ValueError(
            f"{path}: line {linenos[end]}: expected {commas + 1} comma-separated values, "
            f"got {rows[end].count(',') + 1}"
        )
    return values.reshape(end, commas + 1)


def read_table(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Line numbers and the (rows, columns) values of a table with this header.

    Rejects a missing or different header, a row with the wrong number of
    fields, a field that is not a decimal number, and a table without rows;
    of several faulty rows, the first is named. Lines are converted one
    block of ``BLOCK_ROWS`` at a time, and the line numbers come back as
    one integer array.
    """
    commas = header.count(",")
    linenos, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        lineno, line = next(_content(fh), (0, None))
        if line is None:
            raise ValueError(f"{path}: missing {header!r} header")
        if line != header:
            raise ValueError(
                f"{path}: line {lineno}: expected header {header!r}, got {line!r}"
            )
        # _content read no further than the header, so the rows follow
        while lines := [raw.strip() for raw in islice(fh, BLOCK_ROWS)]:
            is_row = [text != "" and text[0] != "#" for text in lines]
            rows = list(compress(lines, is_row))
            if rows:
                numbers = lineno + 1 + np.flatnonzero(is_row)
                values.append(_convert_block(path, numbers, rows, commas))
                linenos.append(numbers)
            lineno += len(lines)
    if not values:
        raise ValueError(f"{path}: no rows below the {header!r} header")
    return np.concatenate(linenos), np.concatenate(values)


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
