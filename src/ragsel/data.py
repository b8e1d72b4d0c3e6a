"""Shared record types and JSONL plumbing used across the package."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import RagselError


T = TypeVar("T")


class MalformedRecordError(RagselError):
    """A JSONL line is not a JSON object, lacks a field, or holds a value its loader cannot use."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


@dataclass
class QAPair:
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
    """Write one JSON object per line; returns the number of rows written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
            n += 1
    return n


def read_records(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to each record of a JSONL file, the one reader of every
    JSONL input. A line `parse` cannot use is a MalformedRecordError naming the
    line: a missing field (`KeyError`) or a bad value (`TypeError`, `ValueError`).
    """
    records = []
    for line_no, obj in read_jsonl(path):
        try:
            records.append(parse(obj))
        except KeyError as exc:
            raise MalformedRecordError(line_no, f"missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise MalformedRecordError(line_no, str(exc)) from exc
    return records


def load_qa_file(path: str | Path) -> list[QAPair]:
    """Load a QA JSONL file with fields id, question, golden_answers."""
    seen: set[str] = set()

    def parse(obj: dict) -> QAPair:
        qid, question, golds = str(obj["id"]), obj["question"], obj["golden_answers"]
        if not isinstance(golds, list) or not golds:
            raise ValueError("golden_answers must be a non-empty list")
        if qid in seen:
            raise ValueError(f"duplicate qa id {qid!r}")
        seen.add(qid)
        return QAPair(id=qid, question=str(question), golden_answers=[str(g) for g in golds])

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
