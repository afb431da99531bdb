"""The rules every public integer and real parameter follows; it loads only math."""

import math


def _number(value, name: str):
    """``value``, if it is a real number: it has __float__, which a str (that
    float() parses) and a complex lack, and is no numpy complex scalar."""
    dtype = getattr(value, "dtype", None)  # of a numpy scalar
    if not hasattr(value, "__float__") or getattr(dtype, "kind", "") == "c":
        raise ValueError(f"{name} must be a real number")
    return value


def integer(value, name: str, least=-math.inf, most=math.inf) -> int:
    """``value`` as an int, for an integral value of any numeric type with
    least <= value <= most; any other value raises ValueError naming it."""
    if _number(value, name) < least:
        raise ValueError(f"{name} must be >= {least}")
    if value > most:
        raise ValueError(f"{name} must be <= {most}")
    # int-like (np.int64 too) is integral, and float() would overflow a huge one
    try:
        integral = hasattr(value, "__index__") or float(value).is_integer()
    except OverflowError:  # a Fraction past the float range
        integral = int(value) == value
    if not integral:
        raise ValueError(f"{name} must be an integer")
    return int(value)


def real(value, name: str, least=-math.inf, most=math.inf, *, strict=False) -> float:
    """``value`` as a float, for a finite real value of any numeric type with
    least <= value <= most, and value > least when ``strict``; any other
    value raises ValueError naming it."""
    try:
        x = float(_number(value, name))
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    if x < least or strict and x == least:
        raise ValueError(f"{name} must be {'>' if strict else '>='} {least}")
    if x > most:
        raise ValueError(f"{name} must be <= {most}")
    return x
