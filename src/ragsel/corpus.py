"""Passage collections: ingest JSONL records into an on-disk corpus directory.

A corpus directory holds the normalized records (`passages.jsonl`), a byte
offset per passage id for O(1) lookup (`offsets.json`), and token statistics
(`stats.json`). Once ingested a corpus is immutable; any number of readers
may open it concurrently.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .data import MalformedRecordError, read_jsonl
from .errors import RagselError

PASSAGES_FILE = "passages.jsonl"
OFFSETS_FILE = "offsets.json"
STATS_FILE = "stats.json"


class CorpusError(RagselError):
    pass


class DuplicatePassageError(CorpusError):
    def __init__(self, passage_id: str):
        super().__init__(f"duplicate passage id {passage_id!r}")
        self.passage_id = passage_id


class EmptyTextError(CorpusError):
    def __init__(self, ordinal: int, passage_id: str):
        super().__init__(f"record {ordinal} (id {passage_id!r}): text is empty after trimming")
        self.ordinal = ordinal


MalformedPassageError = MalformedRecordError


class PassageNotFoundError(CorpusError):
    def __init__(self, passage_id: str):
        super().__init__(f"no passage with id {passage_id!r}")
        self.passage_id = passage_id


@dataclass(frozen=True)
class Passage:
    """One retrievable text unit. `text` is stored byte-identically as given."""

    id: str
    title: str
    text: str


@dataclass(frozen=True)
class CorpusStats:
    passage_count: int
    total_tokens: int

    @property
    def avg_doc_len(self) -> Fraction:
        """Mean tokens per passage, exact; 0 for an empty corpus."""
        if self.passage_count == 0:
            return Fraction(0)
        return Fraction(self.total_tokens, self.passage_count)


class Corpus:
    """Read handle over an ingested corpus directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        offsets_path = self.root / OFFSETS_FILE
        if not offsets_path.exists():
            raise CorpusError(f"{self.root} is not a corpus directory (missing {OFFSETS_FILE})")
        offsets: dict[str, int] = json.loads(offsets_path.read_text(encoding="utf-8"))
        raw = json.loads((self.root / STATS_FILE).read_text(encoding="utf-8"))
        self._stats = CorpusStats(
            passage_count=raw["passage_count"], total_tokens=raw["total_tokens"]
        )
        # offsets.json lists ids in file order, so record i spans
        # bounds[i]:bounds[i + 1], the last one ending at the file's end.
        self._ordinal = {pid: i for i, pid in enumerate(offsets)}
        fd = os.open(self.root / PASSAGES_FILE, os.O_RDONLY)
        weakref.finalize(self, os.close, fd)
        self._fd = fd
        self._bounds = [*offsets.values(), os.fstat(fd).st_size]

    @property
    def stats(self) -> CorpusStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._ordinal)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._ordinal

    def ids(self) -> list[str]:
        return list(self._ordinal)

    def get(self, passage_id: str) -> Passage:
        i = self._ordinal.get(passage_id)
        if i is None:
            raise PassageNotFoundError(passage_id)
        # pread keeps no file position, so threads may share the descriptor.
        start, end = self._bounds[i], self._bounds[i + 1]
        record = json.loads(os.pread(self._fd, end - start, start))
        return Passage(id=record["id"], title=record.get("title", ""), text=record["text"])

    def __iter__(self) -> Iterator[Passage]:
        for _line_no, record in read_jsonl(self.root / PASSAGES_FILE):
            yield Passage(id=record["id"], title=record.get("title", ""), text=record["text"])

    def input_files(self) -> list[Path]:
        """The files a run reads when it opens this corpus (for manifests)."""
        return [self.root / name for name in (PASSAGES_FILE, OFFSETS_FILE, STATS_FILE)]


def ingest(source: str | Path | Iterable[dict], out_dir: str | Path) -> Corpus:
    """Persist a stream of passage records and return a read handle.

    `source` is either a path to a JSONL file of {"id", "title"?, "text"}
    records or an iterable of such dicts. The stored token statistics count
    with the retrieval tokenizer, so stats and index always agree on token
    counts.

    Ingest is single-writer: it fails rather than amend an existing corpus.
    """
    from .retrieval import tokenize  # avoids a module cycle

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    passages_path = out / PASSAGES_FILE
    if passages_path.exists():
        raise CorpusError(f"{out} already contains a corpus; ingest will not overwrite it")

    if isinstance(source, (str, Path)):
        records: Iterable[tuple[int, dict]] = read_jsonl(source)
    else:
        records = ((i, rec) for i, rec in enumerate(source, start=1))

    offsets: dict[str, int] = {}
    total_tokens = 0
    position = 0
    with open(passages_path, "wb") as fh:
        for ordinal, record in records:
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise MalformedPassageError(ordinal, "record must carry id and text fields")
            pid = str(record["id"])
            text = record["text"]
            if not isinstance(text, str) or not text.strip():
                raise EmptyTextError(ordinal, pid)
            if pid in offsets:
                raise DuplicatePassageError(pid)
            title = str(record.get("title", "") or "")
            line = json.dumps({"id": pid, "title": title, "text": text}, ensure_ascii=False)
            encoded = line.encode("utf-8") + b"\n"
            offsets[pid] = position
            fh.write(encoded)
            position += len(encoded)
            total_tokens += len(tokenize(text))

    stats = CorpusStats(passage_count=len(offsets), total_tokens=total_tokens)
    (out / OFFSETS_FILE).write_text(json.dumps(offsets), encoding="utf-8")
    avg = stats.avg_doc_len
    (out / STATS_FILE).write_text(
        json.dumps(
            {
                "passage_count": stats.passage_count,
                "total_tokens": stats.total_tokens,
                "avg_doc_len": [avg.numerator, avg.denominator],
            }
        ),
        encoding="utf-8",
    )
    return Corpus(out)
