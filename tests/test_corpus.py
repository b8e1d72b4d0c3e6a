import builtins
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import ragsel.corpus as corpus_module
from ragsel.corpus import (
    Corpus,
    CorpusError,
    DuplicatePassageError,
    EmptyTextError,
    PassageNotFoundError,
    ingest,
)
from ragsel.data import MalformedRecordError, write_jsonl


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
    with pytest.raises(MalformedRecordError) as excinfo:
        ingest(src, tmp_path / "c")
    assert excinfo.value.line_no == 2


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": None, "text": "apple pie"}, "field 'id' must be str, got null"),
        ({"id": 5, "text": "tart"}, "field 'id' must be str, got int"),
        ({"id": "a", "title": 7, "text": "tart"}, "field 'title' must be str or null, got int"),
        ({"id": "a", "text": 5}, "field 'text' must be str, got int"),
        ({"id": "a", "text": ["apple"]}, "field 'text' must be str, got list"),
    ],
    ids=["id-null", "id-int", "title-int", "text-int", "text-list"],
)
def test_a_value_that_is_not_a_string_is_malformed(tmp_path, record, message):
    src = tmp_path / "passages.jsonl"
    write_jsonl(src, [{"id": "p1", "text": "ok"}, record])
    with pytest.raises(MalformedRecordError) as excinfo:
        ingest(src, tmp_path / "c")
    assert str(excinfo.value) == f"line 2: {message}"
    assert not (tmp_path / "c").exists()


def test_a_null_or_absent_title_reads_as_empty(tmp_path):
    handle = ingest([{"id": "a", "title": None, "text": "x"}, {"id": "b", "text": "y"}], tmp_path / "c")
    assert [passage.title for passage in handle] == ["", ""]


def test_get_round_trip(tmp_path):
    handle = ingest([{"id": "p1", "text": "apple pie"}], tmp_path / "c")
    assert handle.get("p1").text == "apple pie"


def test_get_missing_id(tmp_path):
    handle = ingest([{"id": "p1", "text": "apple pie"}], tmp_path / "c")
    with pytest.raises(PassageNotFoundError):
        handle.get("missing")


@pytest.mark.parametrize(
    "name, content",
    [
        ("offsets.json", '{"p1": 0, "p2'),
        ("passages.jsonl", '{"id": "p1", "title": "", "text": "apple pie"}\n{"id": "p2", "ti'),
        ("passages.jsonl", '{"id": "p1", "title": "", "text": "apple pie"}\n'),
        ("offsets.json", '{"p1": 0, "p2": "47"}'),
        ("offsets.json", "[0, 47]"),
    ],
    ids=["offsets-cut", "passages-cut-mid-line", "passages-cut-at-line-end", "offsets-string-offset",
         "offsets-list"],
)
def test_open_refuses_an_undecodable_file(tmp_path, name, content):
    ingest([{"id": "p1", "text": "apple pie"}, {"id": "p2", "text": "tart"}], tmp_path / "c")
    (tmp_path / "c" / name).write_text(content)
    with pytest.raises(CorpusError, match="ingest the passages again"):
        Corpus(tmp_path / "c")


def _same_length(line: bytes, old: bytes, new: bytes) -> bytes:
    assert len(old) == len(new)
    return line.replace(old, new, 1)


@pytest.mark.parametrize(
    "damage",
    [
        lambda line: _same_length(line, b'"', b"'"),
        lambda line: _same_length(line, b'"title"', b'"title '),
        lambda line: _same_length(line, b"tart", b"t\xffrt"),
        lambda line: b"0".ljust(len(line) - 1) + b"\n",
        lambda line: _same_length(line, b'"text"', b'"texx"'),
        lambda line: _same_length(line, b'"tart"', b"123456"),
        lambda line: _same_length(line, b'"title": ""', b'"title": 0 '),
    ],
    ids=["quote", "cut-key", "bad-utf8", "not-an-object", "text-renamed", "text-a-number", "title-a-number"],
)
def test_a_damaged_record_mid_file_is_a_corpus_error(tmp_path, damage):
    """The edit keeps every offset and the file's tail, so the corpus still opens."""
    ingest([{"id": f"p{i}", "text": text} for i, text in enumerate(["apple pie", "tart", "cake"], 1)], tmp_path / "c")
    path = tmp_path / "c" / "passages.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = damage(lines[1])
    path.write_bytes(b"".join(lines))
    handle = Corpus(tmp_path / "c")
    assert (handle.get("p1").text, handle.get("p3").text) == ("apple pie", "cake")
    message = "passage record 2 of passages.jsonl is not a JSON object .*; ingest the passages again"
    with pytest.raises(CorpusError, match=message):
        handle.get("p2")
    with pytest.raises(CorpusError, match=message):
        list(handle)


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


def test_a_second_read_equals_the_first_and_keeps_the_callers_id(tmp_path):
    handle = _mixed_corpus(tmp_path)
    ids = [f"p{i}" for i in range(len(handle))]
    first = [handle.get(pid) for pid in ids]
    for pid, passage in zip(ids, first):
        same_id = pid.encode().decode()  # an equal string, but another object
        again = handle.get(same_id)
        assert again == passage
        assert again.id is same_id


def test_a_dropped_handle_closes_its_descriptor(tmp_path, monkeypatch):
    _mixed_corpus(tmp_path)
    opened = []
    real_open = os.open

    def spy_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(os, "open", spy_open)
    handle = Corpus(tmp_path / "c")
    monkeypatch.undo()
    [fd] = opened
    for _ in range(2):
        assert all(handle.get(f"p{i}").text for i in range(len(handle)))
    os.fstat(fd)
    del handle
    with pytest.raises(OSError):
        os.fstat(fd)


def test_the_passage_cache_stays_within_its_bound(tmp_path, monkeypatch):
    expected = list(_mixed_corpus(tmp_path))
    monkeypatch.setattr(corpus_module, "PASSAGE_CACHE_SIZE", 16)
    handle = Corpus(tmp_path / "c")
    for _ in range(2):
        assert [handle.get(p.id) for p in expected] == expected
        assert handle._read.cache_info().currsize == 16


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


def test_empty_corpus_stats(tmp_path):
    handle = ingest([], tmp_path / "c")
    assert len(handle) == 0
    assert list(handle) == []


def test_ingest_order_independent(tmp_path):
    records = [{"id": f"p{i}", "text": f"text number {i} with filler"} for i in range(5)]
    forward = ingest(records, tmp_path / "fwd")
    backward = ingest(list(reversed(records)), tmp_path / "bwd")
    assert len(forward) == len(backward)
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


def test_ingest_writes_passages_and_offsets_only(tmp_path):
    handle = ingest([{"id": "p1", "text": "apple pie"}], tmp_path / "c")
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["offsets.json", "passages.jsonl"]
    assert handle.input_files() == [tmp_path / "c" / "passages.jsonl", tmp_path / "c" / "offsets.json"]


@pytest.mark.parametrize(
    "content",
    [
        '{"passage_count": 2, "total_tokens": 3, "avg_doc_len": [3, 2]}',
        '{"passage_count',
        '{"passage_count": "2", "total_tokens": "3", "avg_doc_len": [3, 2]}',
    ],
    ids=["valid", "cut", "string-counts"],
)
def test_an_older_stats_file_is_ignored(tmp_path, content):
    """Older releases also wrote stats.json; such a corpus still opens, and
    the file is neither read nor listed among the corpus's inputs."""
    ingest([{"id": "p1", "text": "apple pie"}, {"id": "p2", "text": "tart"}], tmp_path / "c")
    (tmp_path / "c" / "stats.json").write_text(content)
    handle = Corpus(tmp_path / "c")
    assert [p.text for p in handle] == ["apple pie", "tart"]
    assert handle.get("p2").text == "tart"
    assert "stats.json" not in [p.name for p in handle.input_files()]
