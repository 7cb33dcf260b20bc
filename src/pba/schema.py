"""Checking a JSON value against a declared kind.

``walk`` checks a value against a ``Kind``, fills in the defaults of its
objects and builds it; the first bad or unknown key fails with a
``ConfigParseError`` located at its path.  ``pba.analysis`` declares the
``pba-analysis/1`` document with it, and ``pba.cli`` checks its numeric
flags with the same kinds, without loading the analysis stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import ConfigParseError, PbaError


@dataclass(frozen=True)
class Kind:
    """What a checked value must be, for ``walk``.

    ``name`` is ``number``, ``whole`` (at least ``minimum``, if set),
    ``choice`` (one of ``choices``), ``bool``, ``file`` (a file name in the
    output directory), ``array`` or ``map`` (names to values) of ``item``,
    ``object``, ``either`` (``item[0]`` for a string, else ``item[1]``) or
    ``removed``.  An object's ``keys`` map to (kind, default): ``REQUIRED``
    must be given, ``None`` may be absent, and any other default is read as
    if given.  A JSON null is absent; a kind of ``None`` takes any value.
    ``build`` makes the checked value into what the config holds, and a
    ``PbaError`` or ``ValueError`` it raises is reported at the value.  A
    ``pinned`` value reports every error inside it at its own location.
    """

    name: str
    keys: Mapping[str, tuple] | None = None
    item: "Kind | tuple | None" = None
    choices: tuple = ()
    minimum: int | None = None
    build: Callable | None = None
    pinned: bool = False


REQUIRED = object()
REMOVED = Kind("removed")
# Kinds that a config key and a command-line flag share.
SEED = Kind("whole", minimum=0)
GRID = Kind("whole", minimum=2)

_SEPARATORS = frozenset(filter(None, ("/", os.sep, os.altsep)))


def _fail(path: str, pin: str | None, message: str):
    raise ConfigParseError(f"{path or 'config'} {message}", location=pin or path or "config")


def walk(kind: Kind | None, value, path: str = "", pin: str | None = None):
    """``value``, found at ``path``, checked against ``kind``, its defaults
    filled in, and built; a ``ConfigParseError`` at the first bad or unknown
    key, located at ``pin`` when that is set."""
    if kind is None:
        return value
    what = kind.name
    pin = pin or (path if kind.pinned else None)
    if what == "either":
        return walk(kind.item[isinstance(value, Mapping)], value, path, pin)
    if what == "removed":
        _fail(path, pin, "was removed; delete it")
    if what in ("number", "whole"):
        whole = what == "whole"
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or whole and isinstance(value, float) and not value.is_integer()
        ):
            _fail(path, pin, f"must be {'a whole number' if whole else 'a number'}, got {value!r}")
        value = int(value) if whole else float(value)
        if kind.minimum is not None and value < kind.minimum:
            _fail(path, pin, f"must be at least {kind.minimum}, got {value}")
    elif what == "choice" and (not isinstance(value, str) or value not in kind.choices):
        _fail(path, pin, f"must be one of {list(kind.choices)}, got {value!r}")
    elif what == "bool" and not isinstance(value, bool):
        _fail(path, pin, f"must be true or false, got {value!r}")
    elif what == "file" and (not isinstance(value, str) or value in ("", ".", "..") or _SEPARATORS & set(value)):
        _fail(path, pin, f"must be a file name without a path separator, got {value!r}")
    elif what == "array":
        if not isinstance(value, (list, tuple)):
            _fail(path, pin, f"must be an array, got {value!r}")
        value = [walk(kind.item, v, f"{path}[{i}]", pin) for i, v in enumerate(value)]
    elif what in ("map", "object"):
        if not isinstance(value, Mapping):
            _fail(path, pin, f"must be an object, got {value!r}")
        if what == "map":
            value = {k: walk(kind.item, v, f"{path}.{k}", pin) for k, v in value.items()}
        else:
            value = _walk_keys(kind, value, path, pin)
    if kind.build is None:
        return value
    try:
        return kind.build(value)
    except ConfigParseError:
        raise
    except (PbaError, ValueError) as exc:
        raise ConfigParseError(str(exc), location=pin or path) from exc


def _walk_keys(kind: Kind, value: Mapping, path: str, pin: str | None) -> dict:
    """The object ``value`` with each of ``kind.keys`` walked in order, or
    given its default; then its first unknown key, if any, is refused."""
    out = {}
    for key, (sub, default) in kind.keys.items():
        child = f"{path}.{key}" if path else key
        given = default if value.get(key) is None else value[key]
        if given is REQUIRED:
            _fail(child, pin, "is required")
        out[key] = None if given is None else walk(sub, given, child, pin)
    for key in value:
        if key not in kind.keys:
            known = ", ".join(k for k, (sub, _) in kind.keys.items() if sub is not REMOVED)
            _fail(f"{path}.{key}" if path else key, pin, f"is not a key of {path or 'the config'}, which takes {known}")
    return out
