"""The one reader and writer of JSON config sections.

A section is a dataclass that inherits :class:`Config`; its field annotations
are its schema (README "Example configs" gives the JSON each type takes).
``from_dict`` raises ValidationError naming the field for a non-object, an
unknown or missing key or a value of the wrong JSON type, then runs the
section's range-only ``validate()``. Values are kept as given, except that a
list read into a tuple field becomes a tuple, so ``to_dict`` echoes its input.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

from .errors import ValidationError

_BAD = object()   # _take's "does not fit"
_type_hints = functools.cache(typing.get_type_hints)   # resolved once per section class


class Config:
    """Base of the config sections; subclasses are dataclasses."""

    def validate(self):
        return self

    @classmethod
    def from_dict(cls, d, what: str | None = None):
        """The section read from the JSON object ``d``; ``what`` names it in
        error messages (default: the class name)."""
        what = what or cls.__name__
        if not isinstance(d, dict):
            raise ValidationError(f"{what} must be a JSON object, "
                                  f"got {json.dumps(d, default=repr)}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ValidationError(f"{what} has unknown field(s) {unknown}")
        missing = [repr(name) for name, f in fields.items() if name not in d
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ValidationError(f"{what} lacks field(s) {', '.join(missing)}")
        hints = _type_hints(cls)
        kwargs = {name: _take(value, hints[name], f"{what} field {name!r}: {name}")
                  for name, value in d.items()}
        for name, value in kwargs.items():
            if value is _BAD:
                raise ValidationError(f"{what} field {name!r} must be of type {fields[name].type}, "
                                      f"got {json.dumps(d[name], default=repr)}")
        return cls(**kwargs).validate()

    def to_dict(self) -> dict:
        """``dataclasses.asdict`` with tuples as lists."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


def _take(value, tp, what: str):
    """``value`` read as type ``tp``, or _BAD when it does not fit; ``what``
    names the value, ``what[i]`` an item of a list or tuple, and a section
    type reads ``value`` as the section ``what section``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return next((v for v in (_take(value, a, what) for a in args) if v is not _BAD), _BAD)
    if origin in (tuple, list):
        if type(value) is not list or (origin is tuple and len(value) != len(args)):
            return _BAD
        items = [_take(v, a, f"{what}[{i}]") for i, (v, a) in
                 enumerate(zip(value, args if origin is tuple else args * len(value)))]
        return _BAD if any(v is _BAD for v in items) else origin(items)
    if isinstance(tp, type) and issubclass(tp, Config):
        return tp.from_dict(value, f"{what} section")
    if tp is float:
        return value if type(value) in (int, float) and math.isfinite(value) else _BAD
    return value if type(value) is tp else _BAD
