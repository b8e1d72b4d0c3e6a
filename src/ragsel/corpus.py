"""Passage collections: ingest JSONL records into an on-disk corpus directory.

A corpus directory holds the normalized records (`passages.jsonl`) and a
byte offset per passage id for O(1) lookup (`offsets.json`). Token counts
belong to the index, which is the one place that tokenizes. The directory is
built at a hidden sibling and renamed into place by `data.staged`, so it is
there whole or not at all. Once ingested a corpus is immutable; any number of
readers may open it concurrently.
"""

from __future__ import annotations

import functools
import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .data import FieldTypeError, MalformedRecordError, encode_json, read_jsonl, staged
from .errors import RagselError

PASSAGES_FILE = "passages.jsonl"
OFFSETS_FILE = "offsets.json"
PASSAGE_CACHE_SIZE = 4096  # decoded passages one handle keeps


class CorpusError(RagselError):
    pass


class DuplicatePassageError(CorpusError):
    def __init__(self, passage_id: str):
        super().__init__(f"duplicate passage id {passage_id!r}")


class EmptyTextError(CorpusError):
    def __init__(self, ordinal: int, passage_id: str):
        super().__init__(f"record {ordinal} (id {passage_id!r}): text is empty after trimming")
        self.ordinal = ordinal


class PassageNotFoundError(CorpusError):
    def __init__(self, passage_id: str):
        super().__init__(f"no passage with id {passage_id!r}")


@dataclass(frozen=True)
class Passage:
    """One retrievable text unit. `text` is stored byte-identically as given."""

    id: str
    title: str
    text: str


class Corpus:
    """Read handle over an ingested corpus directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        offsets_path = self.root / OFFSETS_FILE
        if not offsets_path.exists():
            raise CorpusError(f"{self.root} is not a corpus directory (missing {OFFSETS_FILE})")
        try:
            offsets: dict[str, int] = json.loads(offsets_path.read_text(encoding="utf-8"))
            _check_offsets(offsets)
        except ValueError as exc:  # bad JSON, bad UTF-8 or a bad shape
            raise CorpusError(f"{self.root} holds an unreadable {OFFSETS_FILE} "
                              f"({type(exc).__name__}: {exc}); ingest the passages again") from exc
        # offsets.json lists ids in file order, so record i spans
        # bounds[i]:bounds[i + 1], the last one ending at the file's end.
        self._ordinal = {pid: i for i, pid in enumerate(offsets)}
        fd = os.open(self.root / PASSAGES_FILE, os.O_RDONLY)
        weakref.finalize(self, os.close, fd)
        bounds = [*offsets.values(), os.fstat(fd).st_size]
        # A file cut short, mid-line or at a line end, shows at its tail.
        if offsets:
            last, size = bounds[-2:]
            if not (last < size and os.pread(fd, 1, size - 1) == b"\n"):
                raise CorpusError(f"{self.root} holds a {PASSAGES_FILE} that ends inside or before its "
                                  "last passage; ingest the passages again")
        # Bound to the descriptor and bounds, not to self, so the cache holds
        # no reference back to the handle and a dropped handle closes at once.
        self._read = functools.lru_cache(maxsize=PASSAGE_CACHE_SIZE)(functools.partial(_read_record, fd, bounds))

    def __len__(self) -> int:
        return len(self._ordinal)

    def get(self, passage_id: str) -> Passage:
        i = self._ordinal.get(passage_id)
        if i is None:
            raise PassageNotFoundError(passage_id)
        title, text = self._read(i)
        # The caller's id (the index's own string), not a decoded copy.
        return Passage(id=passage_id, title=title, text=text)

    def __iter__(self) -> Iterator[Passage]:
        """Every passage in file order, read past the cache."""
        with open(self.root / PASSAGES_FILE, "rb") as fh:
            for i, (pid, line) in enumerate(zip(self._ordinal, fh)):
                title, text = _decode_record(line, i)
                yield Passage(id=pid, title=title, text=text)

    def input_files(self) -> list[Path]:
        """The files a run reads when it opens this corpus (for manifests)."""
        return [self.root / name for name in (PASSAGES_FILE, OFFSETS_FILE)]


def _check_offsets(offsets) -> None:
    """offsets.json maps each id to the byte offset of its line, ascending in file order."""
    if not isinstance(offsets, dict):
        raise ValueError(f"{OFFSETS_FILE} is not a JSON object")
    previous = -1
    for pid, start in offsets.items():
        if type(start) is not int or start <= previous:
            raise ValueError(f"passage {pid!r} has offset {start!r}, not an int above {previous}")
        previous = start


def _read_record(fd: int, bounds: list[int], i: int) -> tuple[str, str]:
    """The (title, text) of record i."""
    # pread keeps no file position, so threads may share the descriptor.
    start, end = bounds[i], bounds[i + 1]
    return _decode_record(os.pread(fd, end - start, start), i)


def _decode_record(line: bytes, i: int) -> tuple[str, str]:
    """The (title, text) of record i's stored line; a CorpusError when the
    line is not a JSON object with a string text (and title, if any)."""
    try:
        record = json.loads(line)
    except ValueError:  # bad JSON or bad UTF-8
        record = None
    if not (isinstance(record, dict) and isinstance(record.get("text"), str)
            and isinstance(record.get("title", ""), str)):
        raise CorpusError(f"passage record {i + 1} of {PASSAGES_FILE} is not a JSON object with a string "
                          "text; ingest the passages again")
    return record.get("title", ""), record["text"]


def ingest(source: str | Path | Iterable[dict], out_dir: str | Path) -> Corpus:
    """Persist a stream of passage records and return a read handle.

    `source` is either a path to a JSONL file of {"id", "title"?, "text"}
    records or an iterable of such dicts. Each value is a string; a title may
    also be null or absent, and reads as "".

    Ingest is single-writer: it fails rather than amend an existing corpus.
    `out_dir` must be missing or an empty directory. The corpus is built in a
    hidden sibling and renamed into place (`data.staged`), so a failed ingest
    leaves nothing at `out_dir` and a retry starts clean.
    """
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise CorpusError(f"{out} is not an empty directory; ingest will not write into it")
    out.parent.mkdir(parents=True, exist_ok=True)
    with staged(out) as root:
        root.mkdir()
        _write_corpus(source, root)
    return Corpus(out)


def _write_corpus(source: str | Path | Iterable[dict], root: Path) -> None:
    records = read_jsonl(source) if isinstance(source, (str, Path)) else enumerate(source, start=1)
    offsets: dict[str, int] = {}
    position = 0
    with open(root / PASSAGES_FILE, "wb") as fh:
        for ordinal, record in records:
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise MalformedRecordError(ordinal, "record must carry id and text fields")
            pid, title, text = record["id"], record.get("title"), record["text"]
            if not isinstance(pid, str):
                raise MalformedRecordError(ordinal, str(FieldTypeError("str", pid, "id")))
            if not (title is None or isinstance(title, str)):
                raise MalformedRecordError(ordinal, str(FieldTypeError("str or null", title, "title")))
            if not isinstance(text, str):
                raise MalformedRecordError(ordinal, str(FieldTypeError("str", text, "text")))
            if not text.strip():
                raise EmptyTextError(ordinal, pid)
            if pid in offsets:
                raise DuplicatePassageError(pid)
            line = encode_json({"id": pid, "title": title or "", "text": text})
            encoded = line.encode("utf-8") + b"\n"
            offsets[pid] = position
            fh.write(encoded)
            position += len(encoded)
    (root / OFFSETS_FILE).write_text(json.dumps(offsets), encoding="utf-8")
