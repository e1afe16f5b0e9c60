"""Typed configs read from JSON documents: frozen dataclasses whose
``from_json`` rejects, naming the problem, a non-object document, an unknown
or missing key, and a value that does not fit the field's annotation."""

from __future__ import annotations

import dataclasses
import enum
import json
import types
import typing
from contextlib import contextmanager

from .errors import ConfigError


def read_json(path):
    """The JSON document at ``path``; a file that cannot be read or does not
    parse is a ``ConfigError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a JSON document ({exc})") from None


@contextmanager
def output_to(path):
    """An ``OSError`` raised in the block, such as a missing parent directory
    of ``path``, becomes a ``ConfigError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` indented by 2, keys sorted, newline-terminated."""
    with output_to(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class JsonConfig:
    """Base of the frozen config dataclasses: parse from and write to JSON."""

    @classmethod
    def from_json(cls, doc, where: str | None = None):
        where = where or cls.__name__
        if not isinstance(doc, dict):
            raise ConfigError(f"{where} must be a JSON object, not {type(doc).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in doc:
            if key not in fields:
                raise ConfigError(f"{where}: unknown key {key!r}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, f in fields.items():
            if name in doc:
                kwargs[name] = _value(doc[name], hints[name], f"{where}.{name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing key {name!r}")
        return cls(**kwargs)

    def to_json(self) -> dict:
        """The JSON document ``from_json`` reads back: arrays as lists, enums as values."""
        return _json(dataclasses.asdict(self))


def _json(value):
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value


def _value(value, hint, where: str):
    """``value`` checked against ``hint``: a scalar type (an int fits a float,
    a bool only bool), an enum, ``X | None``, ``tuple[X, ...]`` or a config."""
    if typing.get_origin(hint) is types.UnionType:
        if value is None:
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if dataclasses.is_dataclass(hint):
        return hint.from_json(value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a JSON array, not {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_value(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"{where} must be one of {[e.value for e in hint]}, "
                              f"not {value!r}") from None
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {hint.__name__}, not {value!r}")
    return value
