"""The rules every public integer and real parameter follows, applied once
where the value enters the library; it loads only math."""

import math


def _number(value, name: str) -> None:
    """Raise ValueError unless ``value`` is real: it has __float__, which a str
    (that float() parses) and a complex lack, and is no numpy complex scalar."""
    dtype = getattr(value, "dtype", None)  # of a numpy scalar
    if not hasattr(value, "__float__") or getattr(dtype, "kind", "") == "c":
        raise ValueError(f"{name} must be a real number")


def integer(value, name: str, least=-math.inf, most=math.inf) -> int:
    """``value`` as an int, for an integral value of any numeric type with
    least <= value <= most; any other value raises ValueError naming it."""
    _number(value, name)
    try:
        n = int(value)
    except (ValueError, OverflowError):  # a nan or an infinity of any type
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer")
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    if n > most:
        raise ValueError(f"{name} must be <= {most}")
    return n


def real(value, name: str, least=-math.inf, most=math.inf, *, strict=False) -> float:
    """``value`` as a float, for a finite real value of any numeric type with
    least <= value <= most, and value > least when ``strict``; any other
    value raises ValueError naming it."""
    _number(value, name)
    try:
        x = float(value)
    except (OverflowError, ValueError):  # an int past the float range, a signaling nan
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    if x < least or strict and x == least:
        raise ValueError(f"{name} must be {'>' if strict else '>='} {least}")
    if x > most:
        raise ValueError(f"{name} must be <= {most}")
    return x
