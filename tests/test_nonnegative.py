"""One rule for finite, nonnegative values, with one message, through every
caller: the priced CSV's prices, the error CSV, ``ErrorSample`` and the
levels of ``gpd_cdf``."""

import math
import re

import numpy as np
import pytest

from errortail.gpd import GpdParams, gpd_cdf
from errortail.pricing import PRICED_CSV_HEADER, read_priced_csv, write_priced_csv
from errortail.rng import check_nonnegative
from errortail.tail import ErrorSample, read_error_csv

VALID_TERMS = (1.0, 12.0, 0.02, 0.0, 0.2)
OFFENDERS = [pytest.param(v, id=repr(v)) for v in (math.nan, math.inf, -1.0)]


def message(label: str, name: str, value: float) -> str:
    """The shared form, anchored at both ends."""
    return f"^{re.escape(f'{label}: {name} must be finite and nonnegative, got {value}')}$"


def _write_priced(path, value):
    write_priced_csv(path, [VALID_TERMS] * 3, [0.5, value, 2.0])


def _read_priced(path, value):
    rows = "".join(f"{','.join(map(repr, VALID_TERMS))},{p!r}\n" for p in (0.5, value))
    path.write_text(f"# note\n{PRICED_CSV_HEADER}\n{rows}", encoding="utf-8")
    read_priced_csv(path)


def _read_errors(path, value):
    path.write_text(f"error\n0.5\n\n{value!r}\n", encoding="utf-8")
    read_error_csv(path)


# caller, the label of the offending row, the name of the values
CALLERS = [
    pytest.param(_write_priced, lambda path: "row 1", "price", id="write_priced_csv"),
    pytest.param(_read_priced, lambda path: f"{path}: line 4", "price", id="read_priced_csv"),
    pytest.param(_read_errors, lambda path: f"{path}: line 4", "error values", id="read_error_csv"),
    # the row is counted in the caller's order, before the sample is sorted
    pytest.param(
        lambda path, value: ErrorSample([3.0, value, 1.0]), lambda path: "row 1", "error values",
        id="ErrorSample",
    ),
    pytest.param(
        lambda path, value: gpd_cdf(GpdParams(-0.5, 1.0), [0.5, value]), lambda path: "row 1",
        "x", id="gpd_cdf",
    ),
    pytest.param(
        lambda path, value: gpd_cdf(GpdParams(0.0, 1.0), value), lambda path: "row 0", "x",
        id="gpd_cdf-scalar",
    ),
]


@pytest.mark.parametrize("value", OFFENDERS)
@pytest.mark.parametrize("call, label, name", CALLERS)
def test_every_caller_names_the_first_offender(call, label, name, value, tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=message(label(path), name, value)):
        call(path, value)


def test_the_rule_returns_a_float_array_and_keeps_zero():
    values = check_nonnegative("x", [0, 2, 0.5])
    assert values.dtype == float
    assert values.tolist() == [0.0, 2.0, 0.5]
    assert check_nonnegative("x", -0.0).ndim == 0


def test_first_offender_in_flat_order():
    values = np.array([[1.0, 2.0], [math.inf, -1.0]])
    with pytest.raises(ValueError, match=message("cell 2", "level", math.inf)):
        check_nonnegative("level", values, lambda row: f"cell {row}")
