"""The package's text formats: commented CSV tables and ``key = value`` files.

A table is optional ``# key=value`` comment lines recording how the file was
produced, one header line, then one comma-separated row per line. Both
readers skip blank lines and ``#`` comments and name the line of each error.
"""

from __future__ import annotations

from typing import Iterable, Iterator


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


def read_table(path, header: str) -> Iterator[tuple[int, list[float]]]:
    """Yield (line number, values) for each row of a table with this header.

    Rejects a missing or different header, a row with the wrong number of
    fields, a field that is not a decimal number, and a table without rows.
    """
    columns = header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content(fh)
        lineno, line = next(lines, (0, None))
        if line is None:
            raise ValueError(f"{path}: missing {header!r} header")
        if line != header:
            raise ValueError(
                f"{path}: line {lineno}: expected header {header!r}, got {line!r}"
            )
        header_lineno = lineno
        for lineno, line in lines:
            fields = line.split(",")
            if len(fields) != columns:
                raise ValueError(
                    f"{path}: line {lineno}: expected {columns} comma-separated values, "
                    f"got {len(fields)}"
                )
            try:
                values = list(map(float, fields))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric field in {line!r}"
                ) from None
            yield lineno, values
    if lineno == header_lineno:
        raise ValueError(f"{path}: no rows below the {header!r} header")


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
