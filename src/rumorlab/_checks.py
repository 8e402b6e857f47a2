"""The one check for an input that must be a whole number."""


def integer(name, x, least):
    """int(x) for an integer-valued number x >= least; ValueError otherwise,
    also for None, NaN and the infinities."""
    if x is None or not float(x).is_integer() or x < least:
        raise ValueError(f"need integer {name} >= {least}, got {x}")
    return int(x)
