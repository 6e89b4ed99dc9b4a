"""The one reader and writer of JSON sections: configs, the dataset manifest
and model containers.

A section is a dataclass that inherits :class:`Config`; its field annotations
are its schema (README "Example configs", "Data format" and "Model
containers"). Besides JSON's types a field may be a ``dict[str, X]``, a
:data:`Vector` or :data:`Matrix` (a finite float64 array, as nested lists) or
an :data:`AnyFloat` (a number that may be NaN or infinite). An
:func:`optional` field may be absent, and is then None and left out of
``to_dict``; a :func:`diagnostic` field is never read or written, its key
unknown to JSON; a field with a ``"key"`` in its metadata has that JSON key.
``from_dict`` raises ValidationError naming the field for a non-object, an
unknown or missing key or a value of the wrong JSON type, then runs the
section's ``validate()``, prefixing its ValidationError with the section's
name. Values are kept as given, except that a list read into a tuple field
becomes a tuple and one read into an array field an array, so ``to_dict``
echoes its input.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

import numpy as np

from .errors import ValidationError

Vector = typing.Annotated[np.ndarray, 1]
Matrix = typing.Annotated[np.ndarray, 2]
AnyFloat = typing.Annotated[float, "NaN and infinities allowed"]

_BAD = object()   # _take's "does not fit"
_type_hints = functools.cache(   # resolved once per section class
    lambda cls: typing.get_type_hints(cls, include_extras=True))


def optional(**kwargs):
    """A field JSON may leave out: None then, and left out of ``to_dict`` while None."""
    return dataclasses.field(default=None, metadata={"optional": True}, **kwargs)


def diagnostic(default):
    """A field JSON never holds (a fit's record of its work), keyword-only."""
    return dataclasses.field(default=default, kw_only=True, metadata={"diagnostic": True})


def json_fields(section) -> dict:
    """The fields of a section or section class by JSON key, diagnostics left out."""
    return {f.metadata.get("key", f.name): f for f in dataclasses.fields(section)
            if not f.metadata.get("diagnostic")}


class Config:
    """Base of the sections; subclasses are dataclasses."""

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
        fields = json_fields(cls)
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ValidationError(f"{what} has unknown field(s) {unknown}")
        missing = [repr(key) for key, f in fields.items() if key not in d
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ValidationError(f"{what} lacks field(s) {', '.join(missing)}")
        hints, kwargs = _type_hints(cls), {}
        for key, value in d.items():
            f = fields[key]
            kwargs[f.name] = _take(value, hints[f.name], f"{what} field {key!r}: {key}")
            if kwargs[f.name] is _BAD:
                got = json.dumps(value, default=repr)   # cut short: it may be a weight array
                raise ValidationError(f"{what} field {key!r} must be of type {f.type}, "
                                      f"got {got if len(got) <= 80 else got[:76] + ' ...'}")
        try:
            return cls(**kwargs).validate()
        except ValidationError as exc:
            raise ValidationError(f"{what}: {exc}") from None

    def to_dict(self) -> dict:
        """The section as JSON data, the inverse of ``from_dict``."""
        hints = _type_hints(type(self))
        return {key: _give(getattr(self, f.name), hints[f.name])
                for key, f in json_fields(self).items()
                if not (f.metadata.get("optional") and getattr(self, f.name) is None)}


def _take(value, tp, what: str):
    """``value`` read as type ``tp``, or _BAD when it does not fit; ``what``
    names the value, ``what[i]`` an item of a list, tuple or dict, and a
    section type reads ``value`` as the section ``what section``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:   # before a section alternative raises
            return None
        return next((v for v in (_take(value, a, what) for a in args) if v is not _BAD), _BAD)
    if origin in (tuple, list):
        if type(value) is not list or (origin is tuple and len(value) != len(args)):
            return _BAD
        items = [_take(v, a, f"{what}[{i}]") for i, (v, a) in
                 enumerate(zip(value, args if origin is tuple else args * len(value)))]
        return _BAD if any(v is _BAD for v in items) else origin(items)
    if origin is dict:
        if type(value) is not dict:
            return _BAD
        items = {k: _take(v, args[1], f"{what}[{k!r}]") for k, v in value.items()}
        return _BAD if any(v is _BAD for v in items.values()) else items
    if tp in (float, AnyFloat):
        return value if type(value) in (int, float) and (
            tp is AnyFloat or math.isfinite(value)) else _BAD
    if origin is typing.Annotated:   # an array of args[1] dimensions, in one numpy call
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError, OverflowError):
            return _BAD
        # numpy reads a true or false among numbers as 1 or 0, so look for one.
        if arr.dtype.kind not in "if" or arr.ndim != args[1] or any(
                bool in map(type, row) for row in (value if args[1] == 2 else [value])):
            return _BAD
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} holds a NaN or infinity")
        return arr.astype(float, copy=False)
    if isinstance(tp, type) and issubclass(tp, Config):
        return tp.from_dict(value, f"{what} section")
    return value if type(value) is tp else _BAD


def _give(value, tp):
    """``value``, of type ``tp``, as JSON data: sections become objects,
    tuples and arrays lists; a union is ``X | None``."""
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and value is not None:
        return _give(value, args[0])
    if origin in (tuple, list):
        return [_give(v, a) for v, a in zip(value, args if origin is tuple else args * len(value))]
    if origin is dict:
        return {k: _give(v, args[1]) for k, v in value.items()}
    return value
