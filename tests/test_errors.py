"""The shared count check: integers only, booleans refused, a least value."""

import numpy as np
import pytest

from macexp.errors import ValidationError, check_count


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
