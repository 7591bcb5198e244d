"""The one reader of every input document: plan files, node configs, the
handshake, catalogs, calibrations and model options. `parse` is the one
`json.loads` of their text. It owns each field's presence and kind, and the
bounds its format states. A refusal is a `FieldError` whose message starts
with the field's path, built only then."""

import json
import math
import reprlib


class FieldError(ValueError):
    """A field that is missing or not of its kind."""


def _name(path: tuple) -> str:  # ("layers", 3, "out_ranges") -> "layers[3].out_ranges"
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:] or "the document"


_SHOWN = 80  # characters of a refused value a message prints
_REPR = reprlib.Repr()  # cuts deep nesting, long lists and strings before writing them
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother, _REPR.maxlong = 4, _SHOWN, _SHOWN, _SHOWN


def _shown(value) -> str:
    text = _REPR.repr(value)
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def check(value, kind: tuple, *path):
    """`value` if it is of `kind`, a (description, test) pair."""
    if not kind[1](value):
        raise FieldError(f"{_name(path)} must be {kind[0]}, got {_shown(value)}")
    return value


def one_of(*options: str) -> tuple:
    return f"one of {', '.join(options)}", lambda v: v in options


INT = "an int", lambda v: type(v) is int  # a bool is an int to Python, not to a document
COUNT = "an int >= 0", lambda v: type(v) is int and v >= 0
POSITIVE_INT = "an int >= 1", lambda v: type(v) is int and v >= 1
NUMBER = "a number", lambda v: type(v) in (int, float) and v == v  # NaN is not
DURATION = "a positive finite number", lambda v: type(v) in (int, float) and 0 < v < math.inf
STRING = "a non-empty string", lambda v: type(v) is str and v != ""
ADDRESS = "host:port", lambda v: type(v) is str and ":" in v and (
    (port := v.rpartition(":")[2]).isascii() and port.isdigit() and int(port) <= 65535)
PAIR = "a pair of ints", lambda v: (
    type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is int)
LIST = "a list", lambda v: type(v) is list
OBJECT = "an object", lambda v: type(v) is dict


class Fields:
    """One object of a document, `path` from its root; `keys` is the kind of its keys."""

    def __init__(self, doc, *path, keys: tuple | None = None):
        self.doc, self.path = check(doc, OBJECT, *path), path
        for key in doc if keys else ():
            check(key, keys, *path, key)

    def get(self, key: str, kind: tuple | None = None, default=...):
        """Field `key` of `kind` (any without one); if absent, `default` unless that is `...`."""
        if key in self.doc:
            return self.doc[key] if kind is None else check(self.doc[key], kind, *self.path, key)
        if default is ...:
            raise FieldError(f"{_name(self.path + (key,))} is missing")
        return default

    def object(self, key: str, default=..., keys: tuple | None = None):
        value = self.get(key, OBJECT, default)
        return value if value is default else Fields(value, *self.path, key, keys=keys)

    def objects(self, key: str, keys: tuple | None = None) -> list:
        return [Fields(v, *self.path, key, i, keys=keys) for i, v in enumerate(self.get(key, LIST))]


def parse(text: str) -> Fields:
    """The JSON object `text` holds. Text that is not JSON raises `json`'s
    own `ValueError`; a document nested deeper than the parser recurses is
    a `FieldError`, not a `RecursionError`."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise FieldError(f"{_name(())} is nested too deeply") from None
    return Fields(doc)
