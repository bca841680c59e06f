"""The shared input checks: a count is an integer (booleans refused) at
or above a least value; a word holds integer symbols of its alphabet."""

import numpy as np
import pytest

from macexp.errors import ValidationError, check_count, check_symbols


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)],
                         ids=["int", "int64", "uint8"])
def test_integer_counts_at_or_above_the_least_pass(value):
    check_count("trials", value, 3)


@pytest.mark.parametrize("value, message", [
    (2, "must be >= 3"),
    (np.int64(-1), "must be >= 3"),
    (3.0, "must be an integer"),
    (np.float64(4.0), "must be an integer"),
    (True, "must be an integer"),
    (np.bool_(True), "must be an integer"),
    ("4", "must be an integer"),
], ids=["below", "int64_below", "float", "float64", "bool", "numpy_bool",
        "text"])
def test_other_counts_are_refused(value, message):
    with pytest.raises(ValidationError, match=f"^trials {message}$"):
        check_count("trials", value, 3)


@pytest.mark.parametrize("values", [
    [0, 2, 1], np.asarray([2, 0], dtype=np.uint8),
    np.asarray([[1, 0], [2, 2]], dtype=np.int32), np.zeros(0, dtype=np.int64),
], ids=["list", "uint8", "matrix", "empty"])
def test_integer_symbols_of_the_alphabet_pass_as_int64(values):
    got = check_symbols(values, 3, "word")
    assert got.dtype == np.int64
    assert got.tolist() == np.asarray(values).tolist()


@pytest.mark.parametrize("values, message", [
    ([0, 3], "contains symbols outside its alphabet"),
    (np.asarray([-1, 0], dtype=np.int8), "contains symbols outside its alphabet"),
    ([0.0, 1.0], "must hold integer symbols"),
    ([0.9, 1.7], "must hold integer symbols"),
    ([True, False], "must hold integer symbols"),
    (["0"], "must hold integer symbols"),
], ids=["past_the_end", "negative", "whole_floats", "floats", "bools", "text"])
def test_other_symbols_are_refused(values, message):
    with pytest.raises(ValidationError, match=f"^word {message}$"):
        check_symbols(values, 3, "word")
