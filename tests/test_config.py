"""Properties of the one config reader (hlstm.config) over every section class."""

import dataclasses
import importlib
import json
import math
import pkgutil
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlstm
from hlstm.baselines import ArModel, BaselineSettings, FfnnModel, LassoModel
from hlstm.config import AnyFloat, Config, json_fields
from hlstm.dataset import Manifest, NormalizationStats, PixelEntry
from hlstm.errors import ValidationError
from hlstm.experiments import HindcastConfig, Split, SplitSpec
from hlstm.lstm import DROPOUT_VARIANTS, DropoutSpec, LstmWeights
from hlstm.modelio import (
    MODEL_KINDS,
    ArPixels,
    Envelope,
    LassoPayload,
    LstmGates,
    LstmPayload,
    NnPayload,
    NnPixels,
    PointPayload,
)
from hlstm.synthetic import NOISE_KINDS, SyntheticConfig
from hlstm.training import LOSS_DIVISORS, OPTIMIZERS, Features, TrainingConfig

SECTIONS = [DropoutSpec, TrainingConfig, Features, BaselineSettings, SyntheticConfig,
            SplitSpec, Split, HindcastConfig, PixelEntry, Manifest, NormalizationStats,
            Envelope, LstmGates, LstmPayload, LassoModel, FfnnModel, ArModel, LassoPayload,
            NnPayload, PointPayload, NnPixels, ArPixels]
# Valid values are drawn around these instances; they give the sections with
# required fields their values.
BASES = {SplitSpec: lambda: SplitSpec("spatial_subsample"),
         Split: lambda: Split(["px_0_0"], ["px_0_1"], (0, 10), (10, 20),
                              SplitSpec("spatial_subsample")),
         PixelEntry: lambda: PixelEntry("px_0_0", 0, 0, "px_0_0.csv"),
         Manifest: lambda: Manifest(1, 2, "2000-01-01", 10, ["precip"], ["a0"],
                                    [PixelEntry("px_0_0", 0, 0, "px_0_0.csv", [0.5])]),
         NormalizationStats: lambda: NormalizationStats(["precip"], np.array([0.5]),
                                                        np.array([1.5]), []),
         Envelope: lambda: Envelope("hlstm-v1", "lasso", "0.1.0", {"beta0": 0.5}),
         LstmGates: lambda: LstmGates(**dict(LstmWeights(1, 2, 1).named_arrays())),
         LstmPayload: lambda: LstmPayload.of((LstmWeights(1, 2, 1), []), ["precip"], None,
                                             None),
         LassoModel: lambda: LassoModel(0.5, np.array([0.25]), 0.01, True),
         FfnnModel: lambda: FfnnModel(np.zeros((1, 1)), np.zeros(1), np.ones(1), 0.5, 1, 0.0,
                                      False),
         ArModel: lambda: ArModel(0.5, np.zeros(0), np.array([0.25]), 0),
         LassoPayload: lambda: LassoPayload(0.5, np.array([0.25]), 0.01, True, ["precip"],
                                            None),
         NnPayload: lambda: NnPayload(np.zeros((1, 1)), np.zeros(1), np.ones(1), 0.5, 1, 0.0,
                                      False, ["precip"], None),
         PointPayload: lambda: PointPayload({"px_0_0": BASES[LassoPayload]()}, ["precip"],
                                            None),
         NnPixels: lambda: NnPixels({"px_0_0": BASES[NnPayload]()}, ["precip"], None),
         ArPixels: lambda: ArPixels({"px_0_0": BASES[ArModel]()}, ["precip"], None)}
# str fields whose valid values are a fixed set
CHOICES = {"variant": DROPOUT_VARIANTS, "optimizer": OPTIMIZERS,
           "loss_divisor": LOSS_DIVISORS, "noise_kind": NOISE_KINDS,
           "kind": ("temporal", "spatial_subsample", "regional_holdout", *MODEL_KINDS)}
SCALARS = {bool: st.booleans(), int: st.integers(0, 8), str: st.text(max_size=6),
           float: st.one_of(st.floats(0.0, 0.9), st.just(0)), type(None): st.none(),
           AnyFloat: st.floats(), dict: st.dictionaries(st.text(max_size=3), st.integers(),
                                                         max_size=2)}
# a value of each JSON type; a float field also takes an integer
JSON_VALUES = {"null": st.none(), "bool": st.booleans(), "int": st.integers(),
               "float": st.floats(allow_nan=False, allow_infinity=False),
               "str": st.text(max_size=6), "list": st.lists(st.integers(), max_size=3),
               "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


def is_union(tp):
    return typing.get_origin(tp) in (typing.Union, types.UnionType)


def is_array(tp):
    return typing.get_origin(tp) is typing.Annotated and typing.get_args(tp)[0] is np.ndarray


def key_types(cls):
    """The field types of ``cls`` by JSON key, array annotations kept."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {key: hints[f.name] for key, f in json_fields(cls).items()}


def values(tp, name):
    """Values of type ``tp`` for the field ``name``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_union(tp):
        return st.one_of([values(a, name) for a in args])
    if origin is tuple:
        return st.tuples(*[values(a, name) for a in args])
    if origin is list:
        return st.lists(values(args[0], name), max_size=3)
    if origin is dict:
        return st.dictionaries(st.text(max_size=3), values(args[1], name), max_size=2)
    if is_array(tp):   # a float64 array of 1 or 2 dimensions; -0.0 and subnormals included
        rows = st.lists(st.floats(-1e300, 1e300), max_size=3)
        if typing.get_args(tp)[1] == 2:
            rows = st.integers(0, 3).flatmap(lambda n: st.lists(
                st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n),
                min_size=1, max_size=3))
        return rows.map(lambda x: np.array(x, dtype=float))
    if tp is not AnyFloat and issubclass(tp, Config):
        return sections(tp)
    return st.sampled_from(CHOICES[name]) if name in CHOICES else SCALARS[tp]


def same(a, b) -> bool:
    """``a == b``, with arrays compared bit for bit (dtype and shape
    included), a NaN equal to a NaN and sections compared by their JSON fields."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in json_fields(a).values())
    if isinstance(a, (list, tuple, dict)):
        keys = list(a) if isinstance(a, dict) else range(len(a))
        return (type(a) is type(b) and len(a) == len(b)
                and (not isinstance(a, dict) or a.keys() == b.keys())
                and all(same(a[k], b[k]) for k in keys))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def sections(cls):
    """Valid instances of ``cls``: its base with up to three JSON fields redrawn."""
    hints = typing.get_type_hints(cls, include_extras=True)
    names = [f.name for f in json_fields(cls).values()]

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
    if typing.get_origin(tp) in (tuple, list) or is_array(tp):
        return {"list"}
    if typing.get_origin(tp) is dict or tp is dict or issubclass(tp, Config):
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
    assert same(back, section)
    assert json.dumps(back.to_dict()) == text


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_a_value_of_another_json_type_is_named(cls, data):
    doc = data.draw(sections(cls)).to_dict()
    name = data.draw(st.sampled_from(sorted(doc)))
    wrong = sorted(set(JSON_VALUES) - json_kinds(key_types(cls)[name]))
    doc[name] = data.draw(st.sampled_from(wrong).flatmap(JSON_VALUES.get))
    with pytest.raises(ValidationError, match=f"'{name}'"):
        cls.from_dict(doc)


@pytest.mark.parametrize("items", [["0.5"], [True, False], [None], [[0.5]], [{"a": 1}],
                                   [0.5, "0.5"], [0.5, [0.5]], 0.5],
                         ids=["str", "bools", "null", "nested", "object", "mixed_str",
                              "ragged", "number"])
def test_an_array_of_other_items_is_named(items):
    doc = BASES[NormalizationStats]().to_dict()
    doc["mean"] = items
    with pytest.raises(ValidationError, match="field 'mean' must be of type Vector"):
        NormalizationStats.from_dict(doc)


@pytest.mark.parametrize("porosity", [[0.45], [0.4, 0.45, 0.5]], ids=["short", "long"])
def test_a_list_of_another_length_is_named(porosity):
    with pytest.raises(ValidationError, match="'porosity'"):
        SyntheticConfig.from_dict({"porosity": porosity})


def test_a_long_value_is_cut_short_in_the_message():
    with pytest.raises(ValidationError, match=r"'porosity' .*, got \[0, 1, 2, .{50,} \.\.\.$"):
        SyntheticConfig.from_dict({"porosity": list(range(1000))})


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
