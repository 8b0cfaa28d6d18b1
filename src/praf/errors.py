"""The one error praf reports about its input, and the one reader of the
JSON input files: every loader states its file's shape and calls read_json.

A PrafError is a fault in what praf was given to read or write (an input
file, a cache entry, the output directory) and ends the command with exit 2,
naming it; a check inside praf that no input can fail raises ValueError, so
its traceback shows a fault in praf itself."""

import json
import math
import reprlib
from pathlib import Path

NUMBER = (int, float)


class PrafError(Exception):
    """A fault in praf's input; ``locator`` names the bad part of an input
    file, such as ``records[2].policy_url``."""

    def __init__(self, message: str, locator: str | None = None):
        self.message, self.locator = message, locator
        super().__init__(f"{message} (at {locator})" if locator else message)


def check_shape(value, shape, where: str, locator: str = "") -> None:
    """Raise PrafError naming ``where`` (the file), the locator and the value
    of the first part of parsed JSON ``value`` that does not fit ``shape``.

    A shape is a type or a tuple of types (``None`` for null; a bool is not
    a number, and a number must be finite), a set of allowed values, ``[s]``
    for an array of ``s``, a list of several shapes for an array of exactly
    those, or a dict of field shapes for an object of exactly those fields,
    where a name ending in ``?`` may be absent.
    """
    def fail(expected: str):
        raise PrafError(f"{where}: expected {expected}, not {reprlib.repr(value)}", locator or None)

    if isinstance(shape, dict):
        if not isinstance(value, dict):
            fail("an object")
        names = {name.removesuffix("?"): name for name in shape}
        for key in [*names, *(key for key in value if key not in names)]:
            at = f"{locator}.{key}" if locator else key
            if key not in names:
                raise PrafError(f"{where}: unknown field {key!r}", at)
            if key in value:
                check_shape(value[key], shape[names[key]], where, at)
            elif key == names[key]:
                raise PrafError(f"{where}: missing field {key!r}", at)
    elif isinstance(shape, list):
        if not isinstance(value, list) or len(shape) > 1 and len(value) != len(shape):
            fail(f"an array of {len(shape)}" if len(shape) > 1 else "an array")
        for i, item in enumerate(value):
            check_shape(item, shape[i] if len(shape) > 1 else shape[0], where, f"{locator}[{i}]")
    elif isinstance(shape, set):
        if isinstance(value, (list, dict)) or value not in shape:
            fail(f"one of {sorted(shape, key=str)}")
    else:
        types = shape if isinstance(shape, tuple) else (shape,)
        # Parsed JSON holds no subclasses, so a bool is not taken for an int.
        if (type(value) not in types and not (value is None and None in types)
                or type(value) is float and not math.isfinite(value)):
            fail(" or ".join("null" if t is None else t.__name__ for t in types))


def read_json(path, shape, what: str):
    """The JSON file ``what`` at ``path``, checked against ``shape``. Raises
    PrafError naming the file when there is none, when it cannot be read as
    UTF-8 JSON or when it does not fit the shape."""
    path = Path(path)
    if not path.exists():
        raise PrafError(f"{what} not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable (a directory, say), not UTF-8, not JSON
        raise PrafError(f"{what} {path} is not readable UTF-8 JSON: {exc}") from exc
    check_shape(data, shape, f"{what} {path}")
    return data


class EmptyAfterExtraction(PrafError):
    """HTML extraction produced no visible text."""
