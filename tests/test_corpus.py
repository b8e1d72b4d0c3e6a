import builtins
import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from ragsel.corpus import (
    Corpus,
    CorpusError,
    DuplicatePassageError,
    EmptyTextError,
    MalformedPassageError,
    PassageNotFoundError,
    ingest,
)
from ragsel.retrieval import tokenize


def test_ingest_counts_records(tmp_path):
    handle = ingest(
        [
            {"id": "p1", "text": "one two"},
            {"id": "p2", "text": "three"},
            {"id": "p3", "title": "t", "text": "four five six"},
        ],
        tmp_path / "c",
    )
    assert len(handle) == 3
    assert handle.stats.passage_count == 3


def test_duplicate_id_rejected_with_offender(tmp_path):
    with pytest.raises(DuplicatePassageError) as excinfo:
        ingest([{"id": "p1", "text": "a"}, {"id": "p1", "text": "b"}], tmp_path / "c")
    assert "p1" in str(excinfo.value)


def test_empty_text_rejected_with_ordinal(tmp_path):
    with pytest.raises(EmptyTextError) as excinfo:
        ingest([{"id": "p1", "text": "ok"}, {"id": "p2", "text": "   "}], tmp_path / "c")
    assert excinfo.value.ordinal == 2


def test_malformed_line_rejected_with_line_number(tmp_path):
    src = tmp_path / "passages.jsonl"
    src.write_text('{"id": "p1", "text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedPassageError) as excinfo:
        ingest(src, tmp_path / "c")
    assert excinfo.value.line_no == 2


def test_get_round_trip(tmp_path):
    handle = ingest([{"id": "p1", "text": "apple pie"}], tmp_path / "c")
    assert handle.get("p1").text == "apple pie"


def test_get_missing_id(tmp_path):
    handle = ingest([{"id": "p1", "text": "apple pie"}], tmp_path / "c")
    with pytest.raises(PassageNotFoundError):
        handle.get("missing")


def test_round_trip_preserves_multibyte_text(tmp_path):
    text = "Österreich – die „Alpenrepublik“ 🌍 naïve façade 日本語テキスト"
    handle = ingest([{"id": "p1", "title": "tïtle", "text": text}], tmp_path / "c")
    got = handle.get("p1")
    assert got.text == text
    assert got.text.encode("utf-8") == text.encode("utf-8")
    assert got.title == "tïtle"
    reopened = Corpus(tmp_path / "c")
    assert reopened.get("p1").text == text


def _mixed_corpus(tmp_path):
    rng = random.Random(7)
    alphabet = "abc xyz Ö – „“ 🌍 ï ç 日本語"
    records = [
        {
            "id": f"p{i}",
            "title": f"t{i}" if i % 3 else "",
            "text": "".join(rng.choices(alphabet, k=rng.randint(1, 80))) + ".",
        }
        for i in range(60)
    ]
    return ingest(records, tmp_path / "c")


def test_get_matches_a_sequential_read_of_every_record(tmp_path):
    handle = _mixed_corpus(tmp_path)
    expected = list(handle)
    assert [handle.get(p.id) for p in expected] == expected


def test_get_from_eight_threads_at_once(tmp_path):
    handle = _mixed_corpus(tmp_path)
    expected = {p.id: p for p in handle}
    orders = [random.Random(seed).sample(list(expected), len(expected)) * 20 for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda ids: [(pid, handle.get(pid)) for pid in ids], orders, timeout=30))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(passage == expected[pid] for pid, passage in got)


def test_get_opens_no_file(tmp_path, monkeypatch):
    handle = _mixed_corpus(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("get opened a file")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "open", refuse)
    for i in range(100):
        assert handle.get(f"p{i % 60}").id == f"p{i % 60}"


def test_stats_match_brute_force(tmp_path):
    records = [
        {"id": f"p{i}", "text": f"word{i} " * (i + 1) + "shared tail"} for i in range(7)
    ]
    handle = ingest(records, tmp_path / "c")
    expected_tokens = sum(len(tokenize(r["text"])) for r in records)
    assert handle.stats.total_tokens == expected_tokens
    assert handle.stats.avg_doc_len * handle.stats.passage_count == expected_tokens


def test_empty_corpus_stats(tmp_path):
    handle = ingest([], tmp_path / "c")
    assert handle.stats.passage_count == 0
    assert handle.stats.avg_doc_len == 0


def test_ingest_order_independent(tmp_path):
    records = [{"id": f"p{i}", "text": f"text number {i} with filler"} for i in range(5)]
    forward = ingest(records, tmp_path / "fwd")
    backward = ingest(list(reversed(records)), tmp_path / "bwd")
    assert forward.stats == backward.stats
    for record in records:
        assert forward.get(record["id"]) == backward.get(record["id"])


def test_ingest_refuses_to_overwrite(tmp_path):
    ingest([{"id": "p1", "text": "a"}], tmp_path / "c")
    with pytest.raises(Exception):
        ingest([{"id": "p2", "text": "b"}], tmp_path / "c")


def test_ingest_into_an_empty_directory(tmp_path):
    (tmp_path / "c").mkdir()
    assert len(ingest([{"id": "p1", "text": "a"}], tmp_path / "c")) == 1


def test_ingest_refuses_a_non_empty_directory(tmp_path):
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "notes.txt").write_text("mine")
    with pytest.raises(CorpusError, match="not an empty directory"):
        ingest([{"id": "p1", "text": "a"}], tmp_path / "c")
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["notes.txt"]


def test_failed_ingest_leaves_nothing_behind(tmp_path):
    with pytest.raises(EmptyTextError):
        ingest([{"id": "p1", "text": "ok"}, {"id": "p2", "text": " "}], tmp_path / "c")
    assert list(tmp_path.iterdir()) == []
    assert len(ingest([{"id": "p1", "text": "ok"}], tmp_path / "c")) == 1


def test_stats_file_is_exact_rational(tmp_path):
    handle = ingest(
        [{"id": "p1", "text": "one two three"}, {"id": "p2", "text": "four five"}],
        tmp_path / "c",
    )
    raw = json.loads((tmp_path / "c" / "stats.json").read_text())
    num, den = raw["avg_doc_len"]
    assert (num, den) == (5, 2)
    assert handle.stats.avg_doc_len == handle.stats.total_tokens / handle.stats.passage_count
