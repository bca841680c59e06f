"""Exception types shared across the package, and the count check."""

import numbers


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
    below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
