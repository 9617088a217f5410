"""Exception types raised by the toolkit, and the type check configs share."""

import math
import numbers
from typing import Any, get_args, get_type_hints


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DataError(ToolkitError):
    """Invalid dataset contents, shapes, or labels."""


class KernelError(ToolkitError):
    """Kernel evaluation or embedding failure (e.g. degenerate spectrum)."""


class SolverError(ToolkitError):
    """Infeasible or failed dual optimization."""


class ConfigError(ToolkitError):
    """Inconsistent training or experiment configuration."""


class PersistenceError(ToolkitError):
    """Model or report file cannot be read or written."""


# A float (int) field takes any real (integral) number but a bool.
_NUMBERS = {float: numbers.Real, int: numbers.Integral}


def field_types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field of cls and the types it accepts; Optional[X] accepts X and None."""
    hints = get_type_hints(cls)
    return {name: get_args(hint) or (hint,) for name, hint in hints.items()}


def typed(name: str, value: Any, types: tuple[type, ...], error: type) -> Any:
    """value as the first of types that accepts it; else error naming name and value.

    float and int accept any non-bool real and integral number and cast
    to it, so 2 becomes 2.0 and 2.9 is no int; a float must be finite.
    Every other type accepts only its own instances.
    """
    for t in types:
        number = _NUMBERS.get(t)
        if number is None:
            if isinstance(value, t):
                return value
        elif isinstance(value, number) and not isinstance(value, bool):
            try:
                value = t(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if t is float and not math.isfinite(value):
                raise error(f"{name} must be finite, got {value!r}")
            return value
    names = " or ".join("None" if t is type(None) else t.__name__ for t in types)
    raise error(f"{name} must be {names}, got {value!r}")


def coerce_fields(obj: Any, types: dict[str, tuple[type, ...]], error: type) -> None:
    """Replace each field of the frozen dataclass obj by its typed value.

    A value whose type is the field's first type, a float only when
    finite, is kept as it is: the common case, and the one the check must
    not slow down.
    """
    for name, accepted in types.items():
        value = getattr(obj, name)
        kind = type(value)
        if kind is not accepted[0] or (kind is float and not math.isfinite(value)):
            object.__setattr__(obj, name, typed(name, value, accepted, error))
