"""Tests for ``repro.wire``: the one strict codec every spec class uses.

Three contracts:

* **decode rules**: the fixed rule set, checked on a small local
  dataclass (required fields, unknown fields, bool is not int, int
  widens to float, str is not a sequence, optional, nested, ``object``);
* **strictness per class**: for every wire class, a wrong-typed field
  raises ``ConfigurationError`` naming the field, where the hand-rolled
  codecs used to coerce it silently (``bool("false")`` is ``True``);
* **round trip**: for Hypothesis-generated valid instances of every
  wire type, ``from_dict(to_dict(x)) == x`` and ``to_json`` is stable
  byte for byte across a decode/encode cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.analysis.outcome import SuccessCriteria
from repro.errors import ConfigurationError
from repro.scenarios import names as scenario_names
from repro.scenarios.spec import SCENARIO_KINDS, ScenarioSpec
from repro.scenarios.sweep import ScenarioSweepSpec
from repro.service.spec import CHANNEL_NAMES, SweepSpec
from repro.synth import (
    CandidateProgram,
    GeneratorConfig,
    OracleConfig,
    SearchConfig,
    Segment,
)
from repro.synth.search import Finding
from repro.wire import Wire
from tests.test_synth_properties import _candidates, _segments


# ----------------------------------------------------------------------
# the decode rules, on a local dataclass
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Nested(Wire):
    depth: int = 0


@dataclass(frozen=True)
class Sample(Wire):
    name: str
    count: int = 0
    rate: float = 0.0
    flag: bool = False
    tags: tuple[str, ...] = ()
    values: Sequence[object] = field(default_factory=list)
    weights: Mapping[str, float] = field(default_factory=dict)
    note: str | None = None
    inner: Nested | None = None
    payload: object = None


@dataclass(frozen=True)
class Unsupported(Wire):
    members: set[int] = field(default_factory=set)


class TestDecodeRules:
    def test_round_trip_in_field_order(self):
        sample = Sample(
            name="p", count=2, rate=0.5, flag=True, tags=("a",),
            values=[1, "x"], weights={"w": 1.5}, note="n",
            inner=Nested(3), payload={"k": [1, None]},
        )
        payload = sample.to_dict()
        assert list(payload) == [
            "name", "count", "rate", "flag", "tags", "values", "weights",
            "note", "inner", "payload",
        ]
        assert payload["tags"] == ["a"] and payload["inner"] == {"depth": 3}
        assert Sample.from_dict(payload) == sample
        assert Sample.from_json(sample.to_json()) == sample

    def test_canonical_json_is_sorted_and_compact(self):
        assert Nested(1).to_json() == '{"depth":1}'
        assert wire.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_fields_without_defaults_are_required(self):
        with pytest.raises(ConfigurationError, match=r"sample missing required field\(s\) \['name'\]"):
            Sample.from_dict({})

    def test_unknown_fields_are_refused(self):
        with pytest.raises(ConfigurationError, match=r"unknown sample field\(s\) \['colour'\]"):
            Sample.from_dict({"name": "p", "colour": "red"})

    def test_payload_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            Sample.from_dict(["name"])

    def test_bool_is_never_an_int(self):
        with pytest.raises(ConfigurationError, match="'count' must be an int"):
            Sample.from_dict({"name": "p", "count": True})

    def test_float_is_never_an_int(self):
        with pytest.raises(ConfigurationError, match="'count'"):
            Sample.from_dict({"name": "p", "count": 2.0})

    def test_int_widens_to_float(self):
        decoded = Sample.from_dict({"name": "p", "rate": 2})
        assert decoded.rate == 2.0 and type(decoded.rate) is float
        with pytest.raises(ConfigurationError, match="'rate'"):
            Sample.from_dict({"name": "p", "rate": False})

    def test_only_true_and_false_are_bools(self):
        for value in ("false", 0, 1, None):
            with pytest.raises(ConfigurationError, match="'flag' must be a bool"):
                Sample.from_dict({"name": "p", "flag": value})

    def test_str_is_never_a_sequence(self):
        with pytest.raises(ConfigurationError, match="'tags' must be an array"):
            Sample.from_dict({"name": "p", "tags": "abc"})
        with pytest.raises(ConfigurationError, match="'values' must be an array"):
            Sample.from_dict({"name": "p", "values": "246"})

    def test_tuple_and_sequence_containers(self):
        decoded = Sample.from_dict(
            {"name": "p", "tags": ["a", "b"], "values": (1, 2)}
        )
        assert decoded.tags == ("a", "b")
        assert decoded.values == [1, 2]
        with pytest.raises(ConfigurationError, match=r"'tags\[1\]' must be a string"):
            Sample.from_dict({"name": "p", "tags": ["a", 2]})

    def test_mappings_need_string_keys_and_typed_values(self):
        assert Sample.from_dict({"name": "p", "weights": {"w": 1}}).weights == {
            "w": 1.0
        }
        with pytest.raises(ConfigurationError, match="'weights'"):
            Sample.from_dict({"name": "p", "weights": {1: 1.0}})
        with pytest.raises(ConfigurationError, match=r"'weights\[w\]' must be a number"):
            Sample.from_dict({"name": "p", "weights": {"w": "heavy"}})

    def test_optional_accepts_none_or_the_type(self):
        assert Sample.from_dict({"name": "p", "note": None}).note is None
        with pytest.raises(ConfigurationError, match="'note'"):
            Sample.from_dict({"name": "p", "note": 5})

    def test_nested_errors_name_the_path(self):
        assert Sample.from_dict({"name": "p", "inner": {"depth": 2}}).inner == (
            Nested(2)
        )
        with pytest.raises(ConfigurationError, match=r"nested field 'inner\.depth'"):
            Sample.from_dict({"name": "p", "inner": {"depth": "2"}})
        with pytest.raises(ConfigurationError, match=r"unknown nested field\(s\) \['x'\] at 'inner'"):
            Sample.from_dict({"name": "p", "inner": {"x": 1}})

    def test_object_means_any_json_value(self):
        for value in (None, 1, 1.5, "s", True, [1, [2]], {"a": {"b": None}}):
            assert Sample.from_dict({"name": "p", "payload": value}).payload == value
        for value in ({1, 2}, {1: "a"}, [object()]):
            with pytest.raises(ConfigurationError, match="'payload' must be a JSON value"):
                Sample.from_dict({"name": "p", "payload": value})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="invalid sample JSON"):
            Sample.from_json("{")

    def test_hints_resolve_once_per_class(self):
        assert wire._class_decoder(Sample) is wire._class_decoder(Sample)

    def test_unsupported_hints_fail_loudly(self):
        with pytest.raises(TypeError, match="unsupported wire type"):
            Unsupported.from_dict({})

    def test_unencodable_values_are_refused(self):
        with pytest.raises(ConfigurationError, match="cannot encode"):
            Sample(name="p", payload={1, 2}).to_dict()


# ----------------------------------------------------------------------
# strictness, per wire class
# ----------------------------------------------------------------------
_SEGMENT = {"kind": "std", "dsb_set": 28, "count": 4, "misaligned": False,
            "lcp_sets": 5}
_CANDIDATE = {"probe": [_SEGMENT], "encode": [_SEGMENT], "decoy_stride": 19,
              "iterations": 1}
_SCENARIO = {"name": "n", "kind": "channel", "title": "t",
             "machine": "Gold 6226", "criteria": {"max_error_rate": 0.2}}
_FINDING = {"candidate": _CANDIDATE, "minimized": _CANDIDATE,
            "fingerprint": "dsb", "shrink_steps": 3, "undefended": {},
            "defenses": {}}

#: (class, a valid payload, field, a wrong-typed value, match).
_WRONG_TYPES = [
    (Segment, {}, "misaligned", "false", "misaligned"),
    (Segment, {}, "dsb_set", True, "dsb_set"),
    (Segment, {}, "kind", 1, "kind"),
    (CandidateProgram, _CANDIDATE, "decoy_stride", "19", "decoy_stride"),
    (CandidateProgram, _CANDIDATE, "probe", "std", "probe"),
    (CandidateProgram, _CANDIDATE, "encode", [{**_SEGMENT, "count": 4.0}],
     r"encode\[0\]\.count"),
    (OracleConfig, {}, "bits", 32.9, "bits"),
    (OracleConfig, {}, "machine", None, "machine"),
    (SuccessCriteria, {"max_error_rate": 0.1}, "min_accuracy", True,
     "min_accuracy"),
    (SuccessCriteria, {"max_error_rate": 0.1}, "min_kbps", "5", "min_kbps"),
    (SweepSpec, {"grid": {"d": [2]}}, "grid", {"d": 5}, "grid"),
    (SweepSpec, {"grid": {"d": [2]}}, "grid", {"d": "246"}, "grid"),
    (SweepSpec, {"grid": {"d": [2]}}, "bits", "8", "bits"),
    (SweepSpec, {"grid": {"d": [2]}}, "label", 7, "label"),
    (ScenarioSweepSpec, {"scenario": "frontal",
                         "grid": {"steps_per_branch": [3]}}, "trials", "2",
     "trials"),
    (ScenarioSweepSpec, {"scenario": "frontal",
                         "grid": {"steps_per_branch": [3]}}, "grid",
     {"steps_per_branch": 3}, "grid"),
    (ScenarioSpec, _SCENARIO, "trials", 2.0, "trials"),
    (ScenarioSpec, _SCENARIO, "params", ["bits"], "params"),
    (ScenarioSpec, _SCENARIO, "criteria", {"max_error_rate": "low"},
     "max_error_rate"),
    (GeneratorConfig, {}, "iterations", "6", "iterations"),
    (GeneratorConfig, {}, "lcp_rate", "0.2", "lcp_rate"),
    (SearchConfig, {}, "generator", {"lcp_rate": "high"}, r"generator\.lcp_rate"),
    (SearchConfig, {}, "defenses", {"mitigations": []}, "defenses"),
    (SearchConfig, {}, "budget", "64", "budget"),
    (Finding, _FINDING, "shrink_steps", "3", "shrink_steps"),
    (Finding, _FINDING, "defenses", {"lsd": 1}, "defenses"),
]


@pytest.mark.parametrize(
    "cls, base, name, value, match",
    _WRONG_TYPES,
    ids=[f"{case[0].__name__}.{case[2]}={case[3]!r}" for case in _WRONG_TYPES],
)
def test_wrong_typed_field_is_refused(cls, base, name, value, match):
    # The base payload itself decodes; only the one field is wrong.
    cls.from_dict(base)
    with pytest.raises(ConfigurationError, match=match):
        cls.from_dict({**base, name: value})


# ----------------------------------------------------------------------
# round trip, for every wire type
# ----------------------------------------------------------------------
_names = st.text(min_size=1, max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0)
_json_scalars = st.none() | st.booleans() | st.integers() | _floats | st.text(
    max_size=8
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_json_objects = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)
_grids = st.dictionaries(
    _names, st.lists(_json_scalars, min_size=1, max_size=4), min_size=1,
    max_size=3,
)

_kbps = st.floats(0.0, 1e6)
# At least one threshold must be set: one branch per first-set field.
_criteria = st.one_of(
    st.builds(SuccessCriteria, min_accuracy=_unit,
              max_error_rate=st.none() | _unit, min_kbps=st.none() | _kbps),
    st.builds(SuccessCriteria, max_error_rate=_unit,
              min_kbps=st.none() | _kbps),
    st.builds(SuccessCriteria, min_kbps=_kbps),
)

_generator_configs = st.builds(
    GeneratorConfig,
    max_probe_segments=st.integers(1, 4),
    max_encode_segments=st.integers(1, 4),
    max_blocks=st.integers(1, 12),
    contend_bias=_unit,
    lcp_rate=_unit,
    misalign_rate=_unit,
    iterations=st.lists(st.integers(1, 200), min_size=1, max_size=4).map(tuple),
)

_WIRE_TYPES = {
    "Segment": _segments,
    "CandidateProgram": _candidates,
    "SuccessCriteria": _criteria,
    "ScenarioSpec": st.builds(
        ScenarioSpec,
        name=_names,
        kind=st.sampled_from(SCENARIO_KINDS),
        title=st.text(max_size=12),
        machine=_names,
        criteria=_criteria,
        trials=st.integers(1, 10),
        base_seed=st.integers(0, 2**32),
        params=_json_objects,
    ),
    "SweepSpec": st.builds(
        SweepSpec,
        grid=_grids,
        machine=_names,
        channel=st.sampled_from(CHANNEL_NAMES),
        variant=_names,
        bits=st.integers(1, 256),
        trials=st.integers(1, 8),
        base_seed=st.integers(0, 2**32),
        priority=st.integers(-5, 5),
        label=st.none() | st.text(max_size=8),
    ),
    "ScenarioSweepSpec": st.builds(
        ScenarioSweepSpec,
        scenario=st.sampled_from(scenario_names()),
        grid=_grids,
        trials=st.integers(1, 8),
        base_seed=st.integers(0, 2**32),
        priority=st.integers(-5, 5),
        label=st.none() | st.text(max_size=8),
    ),
    "GeneratorConfig": _generator_configs,
    "OracleConfig": st.builds(
        OracleConfig,
        machine=_names,
        bits=st.integers(1, 256),
        training_bits=st.integers(4, 64),
    ),
    "SearchConfig": st.builds(
        SearchConfig,
        seed=st.integers(0, 2**32),
        budget=st.integers(1, 512),
        batch_size=st.integers(1, 32),
        machine=_names,
        bits=st.integers(1, 256),
        training_bits=st.integers(4, 64),
        mutation_rate=_unit,
        max_findings=st.integers(1, 8),
        shrink_budget=st.integers(0, 128),
        defenses=st.lists(_json_objects, max_size=3).map(tuple),
        generator=_generator_configs,
    ),
    "Finding": st.builds(
        Finding,
        candidate=_candidates,
        minimized=_candidates,
        fingerprint=st.text(max_size=12),
        shrink_steps=st.integers(0, 96),
        undefended=_json_objects,
        defenses=st.dictionaries(_names, _json_objects, max_size=3),
    ),
}


def test_every_wire_class_has_a_round_trip_strategy():
    wire_classes = {cls.__name__ for cls, *_ in _WRONG_TYPES}
    assert wire_classes == set(_WIRE_TYPES)


@pytest.mark.parametrize("name", sorted(_WIRE_TYPES))
def test_round_trip_is_identity_and_bytes_are_stable(name):
    @given(value=_WIRE_TYPES[name])
    @settings(max_examples=40, deadline=None)
    def check(value):
        cls = type(value)
        payload = value.to_dict()
        # Plain JSON all the way down: survives a text round trip as is.
        assert json.loads(json.dumps(payload)) == payload
        assert cls.from_dict(payload) == value
        text = value.to_json()
        assert cls.from_json(text) == value
        assert cls.from_json(text).to_json() == text

    check()
