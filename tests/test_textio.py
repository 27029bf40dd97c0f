"""Every text reader rejects malformed input, naming the line or the field."""

import re

import pytest

from errortail.cli import _read_fit_file
from errortail.experiment import FIGURE_HEADER, load_config
from errortail.pricing import PRICED_CSV_HEADER, read_priced_csv
from errortail.tail import read_error_csv
from errortail.textio import BLOCK_ROWS, read_table, write_table


def read_figure_csv(path):
    """A figure CSV read as the tests read it: the table under ``FIGURE_HEADER``."""
    return read_table(path, FIGURE_HEADER)


# reader, header, one valid row
TABLES = [
    (read_priced_csv, PRICED_CSV_HEADER, "1.0,12.0,0.02,0.0,0.2,3.5"),
    (read_error_csv, "error", "0.5"),
    (read_figure_csv, FIGURE_HEADER, "1.0,0.1,0.0,0.2,0.1,0.5,0.3"),
]
# reader, a valid file body that sets k
KEY_VALUE_FILES = [
    (_read_fit_file, "n = 10\nk = 2\nu = 1.0\nxstar_hat = 2.0\ngamma_hat = -0.5\n"),
    (load_config, "config_version = 1\nk = 3\n"),
]


def _cases():
    for reader, header, row in TABLES:
        name = reader.__name__
        bad_row = row.rsplit(",", 1)[0] + ",oops" if "," in row else "oops"
        yield pytest.param(
            reader, f"# origin=test\n\n{header}\n{row}\n{bad_row}\n", "line 5: non-numeric",
            id=f"{name}-malformed-row",
        )
        yield pytest.param(
            reader, f"{header}\n{row},7\n", "line 2: expected",
            id=f"{name}-extra-column",
        )
        yield pytest.param(
            reader, f"# origin=test\nwrong\n{row}\n", "line 2: expected header",
            id=f"{name}-wrong-header",
        )
        yield pytest.param(
            reader, "# origin=test\n\n", "missing", id=f"{name}-missing-header"
        )
        yield pytest.param(reader, f"{header}\n", "no rows", id=f"{name}-no-rows")
        # of two structural faults, the one higher in the file is named
        yield pytest.param(
            reader, f"{header}\n{row}\n{bad_row}\n{row},7\n", "line 3: non-numeric",
            id=f"{name}-non-numeric-above-extra-column",
        )
        yield pytest.param(
            reader, f"{header}\n{row},7\n{bad_row}\n", "line 2: expected",
            id=f"{name}-extra-column-above-non-numeric",
        )
        # the same two faults in blocks 2 and 3 of BLOCK_ROWS rows
        block = f"{row}\n" * BLOCK_ROWS
        yield pytest.param(
            reader, f"{header}\n{block}{row}\n{bad_row}\n{block}{row},7\n",
            f"line {BLOCK_ROWS + 3}: non-numeric",
            id=f"{name}-non-numeric-in-block-2-above-extra-column-in-block-3",
        )
        yield pytest.param(
            reader, f"{header}\n{block}{row},7\n{block}{bad_row}\n",
            f"line {BLOCK_ROWS + 2}: expected",
            id=f"{name}-extra-column-in-block-2-above-non-numeric-in-block-3",
        )
    for reader, body in KEY_VALUE_FILES:
        name = reader.__name__
        lines = body.count("\n")
        yield pytest.param(
            reader, f"# comment\n{body}no pair here\n", f"line {lines + 2}: expected",
            id=f"{name}-malformed-line",
        )
        yield pytest.param(
            reader, f"{body}\nk = 4\n", f"line {lines + 2}: duplicate key 'k'",
            id=f"{name}-duplicate-key",
        )
        yield pytest.param(
            reader, re.sub("^k = .*$", "k = two", body, flags=re.M),
            "field 'k': cannot parse value 'two'", id=f"{name}-bad-value",
        )
    # a fit file holds TailFit's fields only, and its sigma_u is the derived scale
    fit_body = KEY_VALUE_FILES[0][1]
    yield pytest.param(
        _read_fit_file, f"{fit_body}gama_hat = 7\n", "unknown fit key 'gama_hat'$",
        id="_read_fit_file-unknown-key",
    )
    yield pytest.param(
        _read_fit_file, f"{fit_body}sigma_u = 123.0\n",
        r"sigma_u = 123\.0 is not the derived 0\.5$", id="_read_fit_file-contradicting-sigma-u",
    )
    # ... and its fields pass TailFit's rules
    for old, new, message, case in (
        ("k = 2", "k = 10", r"need 1 <= k < n, got k=10, n=10$", "k-not-below-n"),
        ("gamma_hat = -0.5", "gamma_hat = 0.5", "gamma_hat must be negative, got 0.5$",
         "nonnegative-shape"),
        ("xstar_hat = 2.0", "xstar_hat = 1.0", "xstar_hat must exceed the threshold u$",
         "endpoint-at-threshold"),
    ):
        yield pytest.param(
            _read_fit_file, fit_body.replace(old, new), message, id=f"_read_fit_file-{case}"
        )
    # of several faults, the one on the earlier line is named, and a missing key last
    yield pytest.param(
        _read_fit_file, "n = 10\nk = 2\nshape = -0.5\nk = 3\n", "unknown fit key 'shape'$",
        id="_read_fit_file-unknown-key-above-duplicate-and-missing-fields",
    )
    yield pytest.param(
        _read_fit_file, "n = 10\nk = two\n", "field 'k': cannot parse value 'two'$",
        id="_read_fit_file-bad-value-above-missing-fields",
    )
    yield pytest.param(
        _read_fit_file, "n = 10\nk = 2\n", "missing fit fields: u, xstar_hat, gamma_hat$",
        id="_read_fit_file-missing-fields",
    )
    yield pytest.param(
        load_config, "config_version = 2\nk = 3\n", r"unsupported config_version \(expected 1\)$",
        id="load_config-unsupported-version",
    )
    yield pytest.param(
        load_config, "k = 3\n", "missing config fields: config_version$",
        id="load_config-missing-version",
    )
    yield pytest.param(
        load_config, "mystery = 3\n", "unknown config key 'mystery'$",
        id="load_config-unknown-key-above-missing-version",
    )
    for price, case in (("nan", "bad-price"), ("-0.5", "negative-price")):
        yield pytest.param(
            read_priced_csv, f"{PRICED_CSV_HEADER}\n1.0,12.0,0.02,0.0,0.2,{price}\n",
            f"line 2: price must be finite and nonnegative, got {price}",
            id=f"read_priced_csv-{case}",
        )
    for value, case in (("nan", "nan"), ("-0.5", "negative"), ("inf", "infinite")):
        yield pytest.param(
            read_error_csv, f"error\n0.5\n{value}\n",
            f"line 3: error values must be finite and nonnegative, got {value}$",
            id=f"read_error_csv-{case}-error",
        )
    # numpy's parser, stricter than float(), takes no underscore and no
    # non-ASCII digit
    for value, case in (("1_000", "underscore"), ("\u0661", "arabic-indic-digit")):
        yield pytest.param(
            read_error_csv, f"error\n0.5\n{value}\n", "line 3: non-numeric",
            id=f"read_error_csv-{case}",
        )
    # a structural fault is named before a range fault above it
    yield pytest.param(
        read_error_csv, "error\n-1.0\noops\n", "line 3: non-numeric",
        id="read_error_csv-non-numeric-below-negative",
    )


@pytest.mark.parametrize("reader, text, message", list(_cases()))
def test_reader_names_the_offending_line(reader, text, message, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        reader(path)


@pytest.mark.parametrize("comments", [
    pytest.param({"model": "m\nx.json"}, id="newline-in-value"),
    pytest.param({"model": "m\rx.json"}, id="carriage-return-in-value"),
    pytest.param({"mo\ndel": "m.json"}, id="newline-in-key"),
])
def test_writer_rejects_a_comment_that_breaks_the_line(comments, tmp_path):
    # the text after the break would be read as the header
    path = tmp_path / "table.csv"
    (key, value), = comments.items()
    message = f"a comment must fit on one line, got {f'{key}={value}'!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_table(path, "error", ["0.5"], {"ok": 1, **comments})
    assert not path.exists()
