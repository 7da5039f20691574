"""Package-wide exception types, and the JSON reading every file reader
shares (:func:`load_json`, :func:`check_fields`)."""

import json


def load_json(text: str):
    """``json.loads(text)``; a document nested too deep to decode is a
    ``ValueError``, as a malformed one is, not a ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def fits(value, like, interval: str = "") -> bool:
    """Whether a JSON value has the type of its example ``like`` (a float
    takes an int, a bool is no int, a list's items fit its first item, an
    empty list takes any list) and lies, or each of its items lies, in
    ``interval``, written ``"[lo, hi)"`` and so on; ``""`` is no bound."""
    if isinstance(like, list):
        return isinstance(value, list) and (not like or all(fits(v, like[0], interval) for v in value))
    if type(value) is not type(like) and (type(value), type(like)) != (int, float):
        return False
    if not interval:
        return True
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    return (lo < value if interval[0] == "(" else lo <= value) and (
        value < hi if interval[-1] == ")" else value <= hi)


def check_fields(obj, schema: dict, what: str) -> dict:
    """``obj`` itself, when it is a JSON object whose every key in ``schema``
    is present and :func:`fits` its ``(like, interval)``; otherwise a
    ``ValueError`` naming ``what`` and the first key that is missing or
    does not fit."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r:.60}")
    for key, (like, interval) in schema.items():
        if key not in obj:
            raise ValueError(f"{what} key {key!r} is missing")
        if not fits(obj[key], like, interval):
            bound = f" in {interval}" if interval else ""
            raise ValueError(f"{what} key {key!r} must be like {like!r}{bound}, got {obj[key]!r:.60}")
    return obj


class NoisyNetError(Exception):
    """Base class for errors raised by this package."""


class CapExceeded(NoisyNetError):
    """Exact enumeration would exceed the configured budget."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class TreeCapExceeded(CapExceeded):
    """Materializing a decision tree would exceed the node cap."""


class UndersizedCell(NoisyNetError):
    """A tessellation cell holds fewer nodes than the decomposition needs."""


class EmptyS2(NoisyNetError):
    """The transmission filter removed every candidate cell."""
