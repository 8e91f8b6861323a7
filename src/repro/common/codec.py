"""One strict JSON codec for the frozen artifact dataclasses.

Scenarios, fault plans, cluster topologies, shard jobs/results and the
cluster report are replay artifacts: a dump must rebuild the identical
object anywhere, and a key this version does not understand must be an
error, never silently dropped.  :class:`JsonCodec` derives both directions
from ``dataclasses.fields()`` and the field annotations, so a field can no
longer be left out of the JSON form.

Decoding is strict:

- unknown keys are a :class:`ConfigError`; a key may be absent only if its
  field has a default;
- ``int`` rejects bools and floats, ``float`` accepts ints (converted),
  ``bool`` and ``str`` accept only themselves;
- ``Tuple[X, ...]`` and fixed-length tuples are built from lists,
  ``Optional[X]`` accepts ``None`` and ``Dict[str, V]`` types its values;
- nested dataclasses recurse (through their own ``from_json`` when they
  are codec classes, so hooks apply at every depth);
- the constructor runs last, so ``__post_init__`` still judges every value.

Encoding emits every field by name; ``dumps()`` sorts keys and uses compact
separators, so equal objects dump to identical bytes.

A class whose JSON shape is not its field list overrides ``to_json`` or
``from_json`` and calls ``JsonCodec.to_json(self)`` / :func:`decode` for the
rest.  Hooks call these explicitly: zero-argument ``super()`` raises
``TypeError`` inside ``slots=True`` dataclasses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from typing import Any, Mapping, Tuple, Type, TypeVar

from repro.common.errors import ConfigError

T = TypeVar("T")

_NONE = type(None)


def require_int(value: Any, what: str) -> int:
    """An actual int: bools and floats are type errors, not coercions."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def require_number(value: Any, what: str) -> float:
    """An int or a float (never a bool), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, resolved annotation, required)`` per field, resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def encode(value: Any) -> Any:
    """The JSON form of one field value."""
    if isinstance(value, JsonCodec):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return JsonCodec.to_json(value)
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    return value


def decode(cls: Type[T], obj: Any) -> T:
    """Build dataclass ``cls`` from its JSON object, strictly."""
    name = cls.__name__
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
    schema = _schema(cls)
    allowed = [field for field, _, _ in schema]
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{name} has unknown key(s) {unknown}; expected a subset of {sorted(allowed)}"
        )
    kwargs = {}
    for field, hint, required in schema:
        if field in obj:
            kwargs[field] = _value(hint, obj[field], f"{name}.{field}")
        elif required:
            raise ConfigError(f"{name} is missing required key {field!r}")
    return cls(**kwargs)


def _value(hint: Any, value: Any, what: str) -> Any:
    """Check and convert one JSON value against a field annotation."""
    if hint is Any:
        return value
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        args = typing.get_args(hint)
        if value is None and _NONE in args:
            return None
        (inner,) = [arg for arg in args if arg is not _NONE]  # Optional[X] only
        return _value(inner, value, what)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{what} must be a list, got {value!r}")
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{what} must have {len(args)} entries, got {len(value)}")
        return tuple(
            _value(arg, item, f"{what}[{i}]") for i, (arg, item) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{what} must be a JSON object, got {value!r}")
        key_hint, value_hint = typing.get_args(hint)
        return {
            _value(key_hint, key, f"{what} key"): _value(value_hint, item, f"{what}[{key!r}]")
            for key, item in value.items()
        }
    if hint is int:
        return require_int(value, what)
    if hint is float:
        return require_number(value, what)
    if hint is bool or hint is str:
        if not isinstance(value, hint):
            raise ConfigError(f"{what} must be a {hint.__name__}, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        if issubclass(hint, JsonCodec):
            return hint.from_json(value)
        return decode(hint, value)
    raise TypeError(f"{what}: no JSON decoding for annotation {hint!r}")


class JsonCodec:
    """Mixin for frozen dataclasses: field-driven ``to_json``/``from_json``,
    byte-stable ``dumps``/``loads`` and a ``content_id`` hash."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json(cls: Type[T], obj: Any) -> T:
        return decode(cls, obj)

    def dumps(self) -> str:
        """Byte-stable canonical form: equal objects dump identically."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def loads(cls: Type[T], text: str) -> T:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cls.__name__} JSON does not parse: {exc}") from exc
        return cls.from_json(obj)  # type: ignore[attr-defined]

    def content_id(self) -> str:
        """Content hash of the canonical dump (the artifact's identity)."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()[:12]
