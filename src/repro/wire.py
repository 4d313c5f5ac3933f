"""The one strict JSON codec for frozen spec dataclasses and wire frames.

Everything that crosses a process boundary as JSON — sweep and scenario
submissions, scenario specs and their success criteria, synthesised
genomes and the synthesiser's configs — is a frozen dataclass, and this
module is the codec for all of them:

* :func:`to_dict` encodes a dataclass to plain JSON values in field
  order (nested dataclasses and mappings become objects, tuples and
  lists become arrays);
* :func:`from_dict` decodes a mapping into a dataclass, nested ones
  included, from the class's type hints — resolved once per class and
  cached;
* :func:`canonical_json` renders the one canonical text form (sorted
  keys, no whitespace), so equal values are equal bytes.

Decoding is strict and has no options:

* a field without a default is required;
* an unknown, missing or wrong-typed field raises
  :class:`~repro.errors.ConfigurationError` naming the field;
* a ``bool`` is never accepted as an ``int``;
* an ``int`` is accepted for a ``float`` field and widened to ``float``;
* a ``str`` is never accepted as a sequence;
* the supported hints are ``bool``, ``int``, ``float``, ``str``, nested
  dataclasses, ``tuple[X, ...]`` (decodes to a tuple), ``Sequence[X]``
  (decodes to a list), ``Mapping[str, X]`` (decodes to a dict),
  ``X | None``, and ``object`` — any JSON value, kept as it is.

Range and vocabulary checks stay in each class's ``__post_init__``,
which decoding runs like any other construction.  :class:`Wire` mixes
the codec into a class as ``to_dict``/``from_dict``/``to_json``/
``from_json`` methods.

The same rules type the JSONL frames of the sweep service and the
cluster fabric.  A :class:`Frame` subclass is a frozen dataclass whose
class attributes name its discriminator: ``key`` (``"op"``, ``"type"``
or ``"event"``) and ``tag`` (``"submit"``, ``"point-result"``, ...).
:func:`encode_frame` writes one line with the tag first, then the
fields in declaration order, leaving out optional fields that are
``None``; :func:`decode_frame` looks the tag up in a
:func:`frame_table` and decodes the rest strictly, raising the
caller's protocol error.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import re
import types
import typing
from typing import Any, Callable, ClassVar, Mapping, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "Frame",
    "Wire",
    "canonical_json",
    "decode_frame",
    "encode_frame",
    "frame_table",
    "from_dict",
    "send_frame",
    "to_dict",
]

T = TypeVar("T")

#: ``decode(value, path) -> value``; ``path`` locates the value in errors.
_Decoder = Callable[[Any, str], Any]

_SCALARS = (str, int, float, bool, type(None))


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def canonical_json(payload: Any) -> str:
    """The canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def to_dict(obj: Any) -> dict:
    """Plain-JSON form of dataclass instance ``obj``, in field order."""
    return {name: _encode(getattr(obj, name)) for name in _field_names(type(obj))}


def _encode(value: Any) -> Any:
    if isinstance(value, _SCALARS):
        return value
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, Mapping):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    raise ConfigurationError(
        f"cannot encode {type(value).__name__} as JSON: {value!r}"
    )


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
class _Mismatch(Exception):
    """A wrong-typed value; the enclosing class decoder names its field."""

    def __init__(self, path: str, expected: str, value: Any) -> None:
        super().__init__(path)
        self.path = path
        self.expected = expected
        self.value = value


def from_dict(cls: type[T], payload: Any) -> T:
    """Decode ``payload`` into dataclass ``cls`` (rules in module doc)."""
    return _class_decoder(cls)(payload, "")


def _label(cls: type) -> str:
    """``CandidateProgram`` -> ``"candidate program"`` for messages."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()


def _at(path: str) -> str:
    return f" at {path!r}" if path else ""


@functools.cache
def _class_decoder(cls: type) -> _Decoder:
    label = _label(cls)
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = tuple(
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )

    def decode(payload: Any, path: str) -> Any:
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{label}{_at(path)} must be an object, got {payload!r}"
            )
        unknown = sorted(str(key) for key in payload if key not in decoders)
        if unknown:
            raise ConfigurationError(
                f"unknown {label} field(s) {unknown}{_at(path)}"
            )
        missing = [name for name in required if name not in payload]
        if missing:
            raise ConfigurationError(
                f"{label} missing required field(s) {missing}{_at(path)}"
            )
        prefix = f"{path}." if path else ""
        try:
            kwargs = {
                key: decoders[key](value, prefix + key)
                for key, value in payload.items()
            }
        except _Mismatch as exc:
            raise ConfigurationError(
                f"{label} field {exc.path!r} must be {exc.expected}, "
                f"got {exc.value!r}"
            ) from None
        return cls(**kwargs)

    return decode


def _decoder(hint: Any) -> _Decoder:
    """Compile one resolved type hint into a decoder."""
    if hint is object:
        return _decode_json
    if hint in _LEAVES:
        return _LEAVES[hint]
    if dataclasses.is_dataclass(hint):
        # Looked up per call, not here, so classes may nest in any order.
        return lambda value, path: _class_decoder(hint)(value, path)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and (
        type(None) in args
    ):
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value, path: None if value is None else inner(value, path)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _decoder(args[0])
        return lambda value, path: tuple(_array(item, value, path))
    if origin is collections.abc.Sequence and len(args) == 1:
        item = _decoder(args[0])
        return lambda value, path: _array(item, value, path)
    if origin is collections.abc.Mapping and len(args) == 2 and args[0] is str:
        item = _decoder(args[1])
        return lambda value, path: _object(item, value, path)
    raise TypeError(f"unsupported wire type {hint!r}")


def _decode_bool(value: Any, path: str) -> bool:
    if value is True or value is False:
        return value
    raise _Mismatch(path, "a bool", value)


def _decode_int(value: Any, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Mismatch(path, "an int", value)


def _decode_float(value: Any, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise _Mismatch(path, "a number", value)


def _decode_str(value: Any, path: str) -> str:
    if isinstance(value, str):
        return value
    raise _Mismatch(path, "a string", value)


_LEAVES: dict[Any, _Decoder] = {
    bool: _decode_bool,
    int: _decode_int,
    float: _decode_float,
    str: _decode_str,
}


def _array(item: _Decoder, value: Any, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise _Mismatch(path, "an array", value)
    return [item(entry, f"{path}[{index}]") for index, entry in enumerate(value)]


def _object(item: _Decoder, value: Any, path: str) -> dict:
    if not isinstance(value, Mapping) or not all(
        isinstance(key, str) for key in value
    ):
        raise _Mismatch(path, "an object with string keys", value)
    return {key: item(entry, f"{path}[{key}]") for key, entry in value.items()}


def _decode_json(value: Any, path: str) -> Any:
    if _is_json(value):
        return value
    raise _Mismatch(path, "a JSON value", value)


def _is_json(value: Any) -> bool:
    if isinstance(value, _SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_json(item) for item in value)
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _is_json(item) for key, item in value.items()
        )
    return False


# ----------------------------------------------------------------------
# the mixin
# ----------------------------------------------------------------------
class Wire:
    """Mixin: the codec above as methods of a frozen dataclass."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """Plain-JSON form, in field order."""
        return to_dict(self)

    def to_json(self) -> str:
        """Canonical JSON text (byte-identical for equal values)."""
        return canonical_json(to_dict(self))

    @classmethod
    def from_dict(cls: type[T], payload: Any) -> T:
        """Strictly decode a mapping (unknown/missing/wrong-typed raise)."""
        return from_dict(cls, payload)

    @classmethod
    def from_json(cls: type[T], text: str) -> T:
        """Strictly decode JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid {_label(cls)} JSON: {exc}") from exc
        return from_dict(cls, payload)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
class Frame:
    """Base of the typed JSONL frames (subclasses are frozen dataclasses)."""

    __slots__ = ()

    #: Discriminator key: ``"op"``, ``"type"`` or ``"event"``.
    key: ClassVar[str]
    #: Discriminator value, e.g. ``"submit"`` or ``"point-result"``.
    tag: ClassVar[str]


F = TypeVar("F", bound=Frame)


def frame_table(*classes: type[F]) -> dict[str, type[F]]:
    """``{tag: class}`` lookup for :func:`decode_frame` (one shared key)."""
    if len({cls.key for cls in classes}) != 1:
        raise TypeError(f"frame classes disagree on their key: {classes}")
    return {cls.tag: cls for cls in classes}


def encode_frame(frame: Frame) -> bytes:
    """One JSONL line: the tag, then the fields in declaration order.

    An optional field (default ``None``) that is ``None`` is left out,
    so an absent optional key stays absent on the wire; a required
    field that may be ``None`` is written as ``null``.
    """
    optional = _optional_fields(type(frame))
    payload = {frame.key: frame.tag}
    for name in _field_names(type(frame)):
        value = getattr(frame, name)
        if value is not None or name not in optional:
            payload[name] = _encode(value)
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


@functools.cache
def _optional_fields(cls: type) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(cls) if f.default is None)


def decode_frame(
    table: Mapping[str, type[F]],
    payload: Any,
    error: Callable[[str], Exception] = ConfigurationError,
) -> F:
    """Strictly decode one frame (a JSON line or a parsed object).

    An undecodable line, a non-object, a missing or unknown tag, and an
    unknown, missing or wrong-typed field all raise ``error(message)``.
    """
    key = next(iter(table.values())).key
    if isinstance(payload, (bytes, str)):
        try:
            payload = json.loads(payload)
        except ValueError as exc:
            raise error(f"undecodable frame: {exc}") from None
    if not isinstance(payload, Mapping) or key not in payload:
        raise error(f"frame must be a JSON object with a {key!r} tag")
    fields = dict(payload)
    tag = fields.pop(key)
    cls = table.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise error(f"unknown {key} {tag!r}")
    try:
        return from_dict(cls, fields)
    except ConfigurationError as exc:
        raise error(str(exc)) from None


async def send_frame(writer: Any, frame: Frame) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain it."""
    writer.write(encode_frame(frame))
    await writer.drain()
