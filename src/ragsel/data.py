"""Shared record types and JSONL plumbing used across the package."""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import types
from dataclasses import dataclass, fields
from functools import cache
from operator import methodcaller
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import RagselError


T = TypeVar("T")

# One encoder for every per-row JSON line, since `json.dumps` with a keyword
# builds a new encoder per call; it writes what `json.dumps(row, ensure_ascii=False)` writes.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


class MalformedRecordError(RagselError):
    """A JSONL line is not a JSON object, lacks a field, or holds a value its loader cannot use."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class FieldTypeError(TypeError):
    """A JSON value whose type does not match its Record field. `path` names
    the field, dotted through nested records, outermost first."""

    def __init__(self, expected: str, value: Any, *path: str):
        super().__init__(expected, value)
        self.path = list(path)
        self.expected = expected
        self.got = (
            "null" if value is None
            else "object" if isinstance(value, dict)
            else "an int too large for a float" if type(value) is int and not _fits_float(value)
            else type(value).__name__
        )

    def __str__(self) -> str:
        return f"field {'.'.join(self.path)!r} must be {self.expected}, got {self.got}"


R = TypeVar("R", bound="Record")


class Record:
    """Base for the dataclasses that are written to and read from JSON objects.

    One codec, planned once per class from the field annotations. `to_dict`
    gives every field in declaration order: a nested Record (alone, optional
    or in a list) as its own `to_dict`, a tuple as a list, anything else as
    it is. `from_dict` reads back exactly what `to_dict` writes. Every key is
    required whatever the field's default, and a missing one is a KeyError
    naming it. Each value must match its annotation, one of `str`, `int`
    (not bool), `float` (a float, or an int a float can hold), `list[str]`,
    `tuple[str, str]` (a JSON list of two), a nested Record, or `X | None`,
    or FieldTypeError names the field. A class with a field of another type
    encodes but cannot be decoded. `from_dict` passes the fields to the
    constructor by position, so every field must be an `__init__` parameter.
    """

    __slots__ = ()  # so a `@dataclass(slots=True)` subclass has no instance dict

    def to_dict(self) -> dict:
        return {
            name: getattr(self, name) if encode is None else encode(getattr(self, name))
            for name, encode, _decode in _plan(type(self))
        }

    @classmethod
    def from_dict(cls: type[R], obj: dict) -> R:
        values = []  # by position: cheaper than keywords
        for name, _encode, decode in _plan(cls):
            value = obj[name]
            try:
                values.append(decode(value))
            except FieldTypeError as exc:
                exc.path.insert(0, name)
                raise
            except KeyError as exc:  # a key missing inside a nested record
                raise KeyError(f"{name}.{exc.args[0]}") from None
        return cls(*values)


def _fits_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _checked(expected: str, ok: Callable[[Any], bool], convert: Callable[[Any], Any] | None = None):
    def decode(value):
        if not ok(value):
            raise FieldTypeError(expected, value)
        return value if convert is None else convert(value)

    return decode


def _optional(decode_inner: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def decode(value):
        if value is None:
            return None
        try:
            return decode_inner(value)
        except FieldTypeError as exc:
            if not exc.path:  # the value itself, not a field nested in it
                exc.expected += " or null"
            raise

    return decode


def _undecodable(hint: Any) -> Callable[[Any], Any]:
    def decode(value):
        raise NotImplementedError(f"Record cannot decode a field of type {hint!r}")

    return decode


# isinstance, not `type(x) is str`: JSON yields no str subclass, and map() over it beats a generator.
_is_str = str.__instancecheck__

_DECODERS = {
    str: _checked("str", lambda v: type(v) is str),
    int: _checked("int", lambda v: type(v) is int),
    float: _checked("float", lambda v: type(v) is float or type(v) is int and _fits_float(v)),
    list[str]: _checked("list of str", lambda v: type(v) is list and all(map(_is_str, v))),
    tuple[str, str]: _checked(
        "list of 2 str", lambda v: type(v) is list and len(v) == 2 and all(map(_is_str, v)), tuple
    ),
}


def _codec(hint: Any) -> tuple[Callable[[Any], Any] | None, Callable[[Any], Any]]:
    """(encode, decode) for one field annotation; encode is None where the
    value is written as it is."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        encode, decode = _codec(args[0] if args[1] is type(None) else args[1])
        return (None if encode is None else lambda v: None if v is None else encode(v)), _optional(decode)
    if isinstance(hint, type) and issubclass(hint, Record):
        return methodcaller("to_dict"), _checked("object", lambda v: type(v) is dict, hint.from_dict)
    if origin is list and isinstance(args[0], type) and issubclass(args[0], Record):
        return _encode_records, _undecodable(hint)
    return list if origin is tuple else None, _DECODERS.get(hint) or _undecodable(hint)


def _encode_records(records: list[Record]) -> list[dict]:
    return [record.to_dict() for record in records]


@cache
def _plan(cls: type[Record]) -> tuple[tuple[str, Callable[[Any], Any] | None, Callable[[Any], Any]], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, *_codec(hints[f.name])) for f in fields(cls))


@dataclass(slots=True)
class QAPair(Record):
    """A query with its golden answer(s); aliases are alternative accepted strings."""

    id: str
    question: str
    golden_answers: list[str]


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, record) for each non-blank line; line numbers are 1-based."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise MalformedRecordError(line_no, "record is not an object")
            yield line_no, obj


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one JSON object per line, whole or not at all (`write_atomic`);
    returns the number of rows written."""
    return write_atomic(path, (encode_json(row) + "\n" for row in rows))


def write_atomic(path: str | Path, lines: Iterable[str]) -> int:
    """Write the lines to a temporary sibling, then rename it over `path`, so
    a crash mid-write leaves no file at `path` rather than part of the text,
    and a file already there as it was. The file gets the same permissions a
    plain write would give it. Returns the number of lines written."""
    tmp = temp_sibling(Path(path))
    n = 0
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            for n, line in enumerate(lines, start=1):
                fh.write(line)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return n


def temp_sibling(path: Path) -> Path:
    """A fresh hidden name beside `path`, to build what is renamed to it."""
    return path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"


def iter_records(path: str | Path, parse: Callable[[dict], T]) -> Iterator[T]:
    """`parse` applied to each record of a JSONL file, one at a time: the one
    decoder of every JSONL input. A line `parse` cannot use is a
    MalformedRecordError naming the line: a missing field (`KeyError`) or a
    bad value (`TypeError`, `ValueError`).
    """
    for line_no, obj in read_jsonl(path):
        try:
            record = parse(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(line_no, decode_failure(exc)) from exc
        yield record


def read_records(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """Every record of a JSONL file, decoded by `iter_records`."""
    return list(iter_records(path, parse))


def decode_failure(exc: KeyError | TypeError | ValueError) -> str:
    """Why a record could not be decoded: a missing field or a bad value."""
    return f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def load_qa_file(path: str | Path) -> list[QAPair]:
    """Load a QA JSONL file with fields id, question, golden_answers.

    A gold alias that normalizes to nothing ("", "The", "?") is refused: an
    unparsed, empty answer would match it exactly.
    """
    from .evaluation import normalize  # avoids a module cycle

    seen: set[str] = set()

    def parse(obj: dict) -> QAPair:
        golds = obj.get("golden_answers", [""])  # from_dict names a missing key
        if not isinstance(golds, list) or not golds:
            raise ValueError("golden_answers must be a non-empty list")
        qa = QAPair.from_dict(obj)
        for gold in qa.golden_answers:
            if not normalize(gold):
                raise ValueError(f"golden answer {gold!r} is empty once normalized")
        if qa.id in seen:
            raise ValueError(f"duplicate qa id {qa.id!r}")
        seen.add(qa.id)
        return qa

    return read_records(path, parse)


def stable_hash_int(*parts: Any) -> int:
    """Deterministic 64-bit integer derived from the string forms of the parts.

    Used to derive per-item RNG seeds so results do not depend on batch order
    or on the process hash seed.
    """
    key = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
