"""The package's text formats: commented CSV tables and ``key = value`` files.

A table is optional ``# key=value`` comment lines recording how the file was
produced, one header line, then one comma-separated row per line. Both
readers skip blank lines and ``#`` comments and name the line of each error.
Config files, fit files and the report's sections are ``key = value`` text,
read by :func:`read_fields` and written by :func:`key_value_text`.

numpy's C reader (``np.loadtxt``) parses a table's rows into one array, one
line at a time, and no line number is kept per row: a check on the values
that names a row looks its line up with :func:`line_of`. The writers
(through :func:`block_rows`) hold one block of ``BLOCK_ROWS`` rows as Python
floats at a time. So a table's Python-object memory does not grow with its
length; only its arrays do.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

BLOCK_ROWS = 8_192  # rows held as Python objects at once when writing


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
    """Write ``# key=value`` comment lines, the header, then one row per line.

    A comment whose key or value holds a line break is rejected before the
    file is opened: its second line would be read as the header.
    """
    comments = [f"{key}={value}" for key, value in (comments or {}).items()]
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"a comment must fit on one line, got {comment!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def read_table(path, header: str) -> np.ndarray:
    """The (rows, columns) values of a table with this header, parsed by
    ``np.loadtxt``.

    Rejects a missing or different header, a row with the wrong number of
    fields, a field that numpy's parser does not read as a number (it is
    stricter than ``float``: ``1_000`` is not a number), and a table without
    rows; of several faulty rows, the first is named. numpy takes the rows
    one line at a time, so the line it stopped on is the faulty one.
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
        lineno, line = last = next(content, (lineno, None))
        if line is None:
            raise ValueError(f"{path}: no rows below the {header!r} header")

        def rows() -> Iterator[str]:
            nonlocal last
            for last in chain([last], content):
                yield last[1]

        if line.count(",") == commas:
            try:
                return np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                lineno, line = last
    if line.count(",") != commas:
        raise ValueError(
            f"{path}: line {lineno}: expected {commas + 1} comma-separated values, "
            f"got {line.count(',') + 1}"
        )
    raise ValueError(f"{path}: line {lineno}: non-numeric field in {line!r}")


def line_of(path, row: int) -> int:
    """The line number of data row ``row`` (from 0) of a table, found by
    reading the file again: only an error that names a row needs it."""
    with open(path, "r", encoding="utf-8") as fh:
        return next(islice(_content(fh), row + 1, None))[0]


def parse_widths(text: str) -> tuple[int, ...]:
    """Layer widths written as comma-separated integers, e.g. ``5,64,1``."""
    return tuple(int(w) for w in text.split(","))


# the parser of a ``key = value`` file's value, by the annotation of its field
PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": parse_widths}


def read_fields(path, parsers: dict, required: Iterable[str], kind: str) -> dict:
    """The ``key = value`` pairs of a file, each value parsed by ``parsers[key]``.
    Names the first faulty line (no ``=``, a key given twice or not in
    ``parsers``, a value its parser rejects), then the ``required`` keys missing."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _content(fh):
            key, sep, text = map(str.strip, line.partition("="))
            if not sep:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'key = value', got {line!r}"
                )
            if key in values:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            if key not in parsers:
                raise ValueError(f"{path}: unknown {kind} key {key!r}")
            try:
                values[key] = parsers[key](text)
            except ValueError:
                raise ValueError(f"{path}: field {key!r}: cannot parse value {text!r}") from None
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"{path}: missing {kind} fields: {', '.join(missing)}")
    return values


def key_value_text(pairs: dict) -> str:
    """One ``key = value`` line per pair, the value as ``f"{value}"`` writes
    it (for a float, its ``repr``)."""
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())
