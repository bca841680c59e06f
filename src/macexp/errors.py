"""Exception types shared across the package, and the count and symbol
checks."""

import numpy as np


class ValidationError(ValueError):
    """Raised when an input object violates a documented contract."""


class ConstructionError(RuntimeError):
    """Raised when a random construction cannot satisfy its requirements
    (e.g. a codebook request larger than the available type class)."""


class ScaleGuardError(RuntimeError):
    """Raised when a request exceeds the desk-scale enumeration guards
    instead of letting the process thrash."""


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (``bool`` included) or is
    below ``least``.  An integer is a value Python takes as an index, as
    every ``numbers.Integral`` is; asking for ``__index__`` is several
    times cheaper than the abstract class test, and every ``Alphabet``
    runs this check."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


def check_symbols(values, size: int, what: str) -> np.ndarray:
    """``values`` as an int64 array, refused unless they are integers (not
    ``bool``) and every one is a symbol 0..size-1 of the alphabet."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"{what} must hold integer symbols")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValidationError(f"{what} contains symbols outside its alphabet")
    return arr.astype(np.int64)
