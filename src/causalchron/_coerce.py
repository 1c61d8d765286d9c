"""Config values checked against, and converted to, the types their fields and parameters declare,
and checked against the ranges their functions allow."""

from __future__ import annotations

import math
import numbers
import os
import typing
from typing import Any, Callable, Mapping


def coerce(hint: object, value: object, what: str) -> object:
    """``value`` as the declared type ``hint``, or a ValueError naming ``what``.

    Understands bool, int, float, str, ``X | None`` and tuples (given as lists
    or tuples); any other class must match as it is.  An int is a valid float,
    so a JSON ``1`` means ``1.0``, an integral float a valid int, and a bool
    neither; floats must be finite, and a path is a valid str.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and (args[-1] is Ellipsis or len(value) == len(args)):
            items = args[:1] * len(value) if args[-1] is Ellipsis else args
            return tuple(coerce(h, v, what) for h, v in zip(items, value))
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is int and isinstance(value, numbers.Integral):
        return int(value)
    elif hint in (int, float) and isinstance(value, numbers.Real) and math.isfinite(value):
        if hint is float or float(value).is_integer():
            return hint(value)
    elif hint is str and isinstance(value, os.PathLike):
        return os.fspath(value)
    elif isinstance(hint, type) and hint not in (int, float) and isinstance(value, hint):
        return value
    raise ValueError(f"{what} must be {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")


def check_ranges(
    ranges: Mapping[str, tuple[Callable[[Any], bool], str]], values: Mapping[str, object], what: str = ""
) -> None:
    """Raise a ValueError naming the first key of ``values`` whose value fails its test.

    ``ranges`` maps a key to (test, what a value must be); keys it lacks are not checked.
    """
    for key, value in values.items():
        if key in ranges and not ranges[key][0](value):
            raise ValueError(f"{what}{key!r} must be {ranges[key][1]}, got {value!r}")
