"""Properties of the one config reader (hlstm.config) over every section class."""

import dataclasses
import importlib
import json
import pkgutil
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlstm
from hlstm.baselines import BaselineSettings
from hlstm.config import Config
from hlstm.dataset import Manifest, PixelEntry
from hlstm.errors import ValidationError
from hlstm.experiments import HindcastConfig, Split, SplitSpec
from hlstm.lstm import DROPOUT_VARIANTS, DropoutSpec
from hlstm.synthetic import NOISE_KINDS, SyntheticConfig
from hlstm.training import LOSS_DIVISORS, OPTIMIZERS, Features, TrainingConfig

SECTIONS = [DropoutSpec, TrainingConfig, Features, BaselineSettings, SyntheticConfig,
            SplitSpec, Split, HindcastConfig, PixelEntry, Manifest]
# Valid values are drawn around these instances; they give the sections with
# required fields their values.
BASES = {SplitSpec: lambda: SplitSpec("spatial_subsample"),
         Split: lambda: Split(["px_0_0"], ["px_0_1"], (0, 10), (10, 20),
                              SplitSpec("spatial_subsample")),
         PixelEntry: lambda: PixelEntry("px_0_0", 0, 0, "px_0_0.csv"),
         Manifest: lambda: Manifest(1, 2, "2000-01-01", 10, ["precip"], ["a0"],
                                    [PixelEntry("px_0_0", 0, 0, "px_0_0.csv", [0.5])])}
# str fields whose valid values are a fixed set
CHOICES = {"variant": DROPOUT_VARIANTS, "optimizer": OPTIMIZERS,
           "loss_divisor": LOSS_DIVISORS, "noise_kind": NOISE_KINDS,
           "kind": ("temporal", "spatial_subsample", "regional_holdout")}
SCALARS = {bool: st.booleans(), int: st.integers(0, 8), str: st.text(max_size=6),
           float: st.one_of(st.floats(0.0, 0.9), st.just(0)), type(None): st.none()}
# a value of each JSON type; a float field also takes an integer
JSON_VALUES = {"null": st.none(), "bool": st.booleans(), "int": st.integers(),
               "float": st.floats(allow_nan=False, allow_infinity=False),
               "str": st.text(max_size=6), "list": st.lists(st.integers(), max_size=3),
               "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


def is_union(tp):
    return typing.get_origin(tp) in (typing.Union, types.UnionType)


def values(tp, name):
    """Values of type ``tp`` for the field ``name``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_union(tp):
        return st.one_of([values(a, name) for a in args])
    if origin is tuple:
        return st.tuples(*[values(a, name) for a in args])
    if origin is list:
        return st.lists(values(args[0], name), max_size=3)
    if issubclass(tp, Config):
        return sections(tp)
    return st.sampled_from(CHOICES[name]) if name in CHOICES else SCALARS[tp]


def sections(cls):
    """Valid instances of ``cls``: its base with up to three fields redrawn."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]

    def build(changes):
        try:
            return dataclasses.replace(BASES.get(cls, cls)(), **changes).validate()
        except ValidationError:
            return None

    return (st.lists(st.sampled_from(names), max_size=3, unique=True)
            .flatmap(lambda chosen: st.fixed_dictionaries(
                {name: values(hints[name], name) for name in chosen}))
            .map(build).filter(lambda x: x is not None))


def json_kinds(tp):
    """The JSON types a field of type ``tp`` takes."""
    if is_union(tp):
        return set().union(*map(json_kinds, typing.get_args(tp)))
    if typing.get_origin(tp) in (tuple, list):
        return {"list"}
    if issubclass(tp, Config):
        return {"object"}
    return {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"},
            type(None): {"null"}}[tp]


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_round_trip_through_json_is_exact(cls, data):
    section = data.draw(sections(cls))
    text = json.dumps(section.to_dict())
    back = cls.from_dict(json.loads(text))
    assert back == section
    assert json.dumps(back.to_dict()) == text


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_a_value_of_another_json_type_is_named(cls, data):
    doc = data.draw(sections(cls)).to_dict()
    name = data.draw(st.sampled_from(sorted(doc)))
    wrong = sorted(set(JSON_VALUES) - json_kinds(typing.get_type_hints(cls)[name]))
    doc[name] = data.draw(st.sampled_from(wrong).flatmap(JSON_VALUES.get))
    with pytest.raises(ValidationError, match=f"'{name}'"):
        cls.from_dict(doc)


@pytest.mark.parametrize("porosity", [[0.45], [0.4, 0.45, 0.5]], ids=["short", "long"])
def test_a_list_of_another_length_is_named(porosity):
    with pytest.raises(ValidationError, match="'porosity'"):
        SyntheticConfig.from_dict({"porosity": porosity})


def test_sections_list_every_config_subclass():
    """A new section joins the properties above by being added to SECTIONS."""
    for module in pkgutil.iter_modules(hlstm.__path__):
        importlib.import_module(f"hlstm.{module.name}")
    found, todo = set(), [Config]
    while todo:
        subclasses = set(todo.pop().__subclasses__()) - found
        found |= subclasses
        todo += subclasses
    assert {cls for cls in found if cls.__module__.startswith("hlstm.")} == set(SECTIONS)
