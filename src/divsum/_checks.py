"""The rule every public integer parameter follows; this module loads nothing."""


def integer(value, name: str, least, most) -> int:
    """``value`` as an int, for an integral value of any numeric type with
    least <= value <= most; any other value raises ValueError naming it."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    if value > most:
        raise ValueError(f"{name} must be <= {most}")
    # int-like (np.int64 too) is integral, and float() would overflow a huge one
    if not (hasattr(value, "__index__") or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer")
    return int(value)
