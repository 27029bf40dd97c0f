"""The data path holds one block of rows as Python objects at a time.

The sampler, ``contract_terms`` and the CSV writers cross between Python
objects and arrays in blocks of ``textio.BLOCK_ROWS`` rows, and
``read_table`` hands its lines to numpy's reader one at a time. Frozen
copies of the whole-table conversions they replaced are the bit-identity
oracles. ``tracemalloc`` bounds the memory each call needs beyond its
result; every bound sits between the call as it is and the whole-table one
it replaced (for the rule on an array, the fancy-index copy it replaced):

| call | rows | now | bound | whole-table |
|---|---|---|---|---|
| ``sample_uniform`` | 32,768 | 1.6 MB | 3.5 MB | 6.0 MB |
| ``contract_terms`` of a list | 100,000 | 1.0 MB | 6 MB | 13.6 MB |
| ``contract_terms`` of an array | 100,000 | 1.0 MB | 1.5 MB | 3.5 MB |
| ``write_priced_csv`` of a list | 32,768 | 3.7 MB | 5.5 MB | 9.7 MB |
| ``read_table``, priced file | 32,768 | 0.3 MB | 4.5 MB | 6.0 MB |
| ``read_table``, error file | 32,768 | 0.03 MB | 2 MB | 2.8 MB |
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from errortail.pricing import (
    C_TEST,
    C_TRAIN,
    PRICED_CSV_HEADER,
    CONTRACT_FIELDS,
    OptionContract,
    contract_terms,
    price_contracts,
    sample_uniform,
    write_priced_csv,
)
from errortail.rng import generator
from errortail.tail import ErrorSample, read_error_csv, write_error_csv
from errortail.textio import BLOCK_ROWS, read_table

MB = 1e6
ROWS = 100_000
EDGE_ROWS = 2 * BLOCK_ROWS + 37  # two whole blocks and a partial one
VALID_TERMS = (1.0, 12.0, 0.02, 0.0, 0.2)


def whole_table_sample(box, count, seed):
    """``sample_uniform`` as it was before the blocks: per-row lists of one
    whole-table ``tolist``. Kept frozen as the bit-identity reference."""
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    points = lower + (upper - lower) * generator(seed).random((count, 5))
    return list(map(OptionContract._make, points.tolist()))


def whole_table_priced_csv(terms, prices) -> str:
    rows = "".join(
        f"{k!r},{t!r},{r!r},{q!r},{vol!r},{p!r}\n"
        for (k, t, r, q, vol), p in zip(terms.tolist(), prices.tolist())
    )
    return f"{PRICED_CSV_HEADER}\n{rows}"


def fancy_index_first_fault(terms):
    """The first offending (row, column) of ``contract_terms`` as it was found
    through a fancy-index copy of the K, T and vol columns. Kept frozen as the
    reference for the mask-based rule."""
    bad = ~np.isfinite(terms)
    bad[:, [0, 1, 4]] |= ~(terms[:, [0, 1, 4]] > 0.0)
    faults = np.argwhere(bad)
    return tuple(faults[0]) if faults.size else None


def traced_extra(call):
    """The result of ``call()`` and the bytes it allocated at its peak beyond
    those it still holds on return (its result), as ``tracemalloc`` counts."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - held
    finally:
        tracemalloc.stop()


class TestBitIdentity:
    @pytest.mark.parametrize("count", [1, 37, BLOCK_ROWS, EDGE_ROWS])
    def test_sampler_and_conversion_match_the_whole_table_versions(self, count):
        contracts = sample_uniform(C_TRAIN, count, seed=31)
        reference = whole_table_sample(C_TRAIN, count, seed=31)
        assert contracts == reference
        assert all(type(c) is OptionContract for c in contracts)
        terms = contract_terms(contracts)
        assert np.array_equal(terms, np.asarray(reference, dtype=float))
        assert terms.dtype == float and terms.flags.c_contiguous

    def test_priced_csv_bytes_match_per_row_formatting(self, tmp_path):
        contracts = sample_uniform(C_TEST, EDGE_ROWS, seed=32)
        prices = price_contracts(contracts, steps=2)
        path = tmp_path / "priced.csv"
        write_priced_csv(path, contracts, prices)
        expected = whole_table_priced_csv(np.asarray(contracts, dtype=float), prices)
        assert path.read_text() == expected

    def test_error_csv_bytes_match_per_row_formatting(self, tmp_path):
        sample = ErrorSample(generator(33).exponential(size=EDGE_ROWS))
        path = tmp_path / "errors.csv"
        write_error_csv(path, sample, comments={"origin": "test"})
        rows = "".join(f"{v!r}\n" for v in sample.values.tolist())
        assert path.read_text() == f"# origin=test\nerror\n{rows}"

    def test_read_error_csv_names_the_line_of_a_row_below_comments(self, tmp_path):
        values = generator(34).random(EDGE_ROWS)
        lines = ["# origin=test", "error"]
        for i, value in enumerate(values.tolist()):
            if i % 5000 == 0:  # comments and blanks straddle the block edges
                lines += ["", "# between rows"]
            lines.append(repr(value))
        path = tmp_path / "errors.csv"
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(read_table(path, "error")[:, 0], values)
        lines[-1] = "-0.5"  # a range fault in the last row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {len(lines)}: error values must be"):
            read_error_csv(path)


class TestContractTerms:
    @pytest.mark.parametrize("size", [4, 6])
    def test_names_a_row_without_five_terms(self, size):
        short = (VALID_TERMS * 2)[:size]
        rows = [VALID_TERMS] * 3 + [short] + [VALID_TERMS]
        with pytest.raises(ValueError, match=f"^row 3: expected 5 terms, got {size}$"):
            contract_terms(rows)
        with pytest.raises(ValueError, match=f"^line 5: expected 5 terms, got {size}$"):
            contract_terms(rows, lambda row: f"line {row + 2}")

    @pytest.mark.parametrize(
        "contracts",
        [list(VALID_TERMS), None, "abcde", ["abcde"], np.asarray(VALID_TERMS), 1.0],
        ids=["1-d-list", "None", "string", "list-of-string", "1-d-array", "scalar"],
    )
    def test_rejects_what_is_not_rows_of_terms(self, contracts):
        with pytest.raises((ValueError, TypeError)):
            contract_terms(contracts)

    def test_an_empty_list_is_the_empty_array(self):
        # no contracts is one input: [] prices as an empty (0, 5) array does
        assert contract_terms([]).shape == (0, 5)
        prices = price_contracts([], steps=10)
        assert prices.shape == (0,)
        assert np.array_equal(prices, price_contracts(np.empty((0, 5)), steps=10))

    @pytest.mark.parametrize("seed", range(8))
    def test_names_the_fault_the_fancy_index_rule_found(self, seed):
        g = generator(50 + seed)
        terms = np.asarray(whole_table_sample(C_TRAIN, 200, seed=seed), dtype=float)
        faults = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324]
        for _ in range(3):
            terms[g.integers(200), g.integers(5)] = faults[g.integers(len(faults))]
        want = fancy_index_first_fault(terms)
        if want is None:
            assert contract_terms(terms) is terms
            return
        row, col = want
        value = float(terms[row, col])
        rule = "finite" if not math.isfinite(value) else "positive"
        message = f"row {row}: {CONTRACT_FIELDS[col]} must be {rule}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            contract_terms(terms)

    def test_array_and_rows_give_the_same_bits(self):
        terms = np.asarray(whole_table_sample(C_TRAIN, 50, seed=35), dtype=float)
        assert np.array_equal(contract_terms(terms), contract_terms(terms.tolist()))
        assert np.array_equal(contract_terms(terms), contract_terms(tuple(map(tuple, terms))))


class TestMemoryBounds:
    """Memory a call needs beyond its result, at 100k rows for the list
    conversion and at four blocks for the others: tracing costs a few
    microseconds per allocation, and those make several per row."""

    FOUR_BLOCKS = 4 * BLOCK_ROWS

    @pytest.fixture(scope="class")
    def contracts(self):
        return sample_uniform(C_TEST, ROWS, seed=36)

    @pytest.fixture(scope="class")
    def files(self, contracts, tmp_path_factory):
        where = tmp_path_factory.mktemp("tables")
        terms = contract_terms(contracts)
        prices = terms[:, 0]  # any nonnegative column stands in for prices
        head = slice(self.FOUR_BLOCKS)
        write_priced_csv(where / "priced.csv", terms[head], prices[head])
        write_error_csv(where / "errors.csv", ErrorSample(terms[head, 2]))
        return where

    def test_sampler(self):
        rows = self.FOUR_BLOCKS
        contracts, extra = traced_extra(lambda: sample_uniform(C_TEST, rows, seed=36))
        assert len(contracts) == rows
        assert extra < 3.5 * MB

    def test_rule_of_an_array(self, contracts):
        terms = contract_terms(contracts)
        checked, extra = traced_extra(lambda: contract_terms(terms))
        assert checked is terms
        assert extra < 1.5 * MB

    def test_conversion_of_a_list(self, contracts):
        terms, extra = traced_extra(lambda: contract_terms(contracts))
        assert terms.shape == (ROWS, 5)
        assert extra < 5 * MB

    def test_write_priced_csv(self, contracts, tmp_path):
        # terms in eighths are quick to format; the memory does not depend
        # on the values
        eighths = np.round(contract_terms(contracts[: self.FOUR_BLOCKS]) * 8) / 8
        head = list(map(OptionContract._make, eighths.tolist()))
        prices = np.ones(len(head))
        _, extra = traced_extra(lambda: write_priced_csv(tmp_path / "p.csv", head, prices))
        assert extra < 5.5 * MB

    @pytest.mark.parametrize(
        "name, header, rows, bound",
        [
            ("priced.csv", PRICED_CSV_HEADER, FOUR_BLOCKS, 4.5 * MB),
            ("errors.csv", "error", FOUR_BLOCKS, 2 * MB),
        ],
    )
    def test_read_table(self, files, name, header, rows, bound):
        table, extra = traced_extra(lambda: read_table(files / name, header))
        assert table.shape == (rows, header.count(",") + 1)
        assert extra < bound
