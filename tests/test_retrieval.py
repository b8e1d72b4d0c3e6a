import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import make_corpus
from ragsel.corpus import ingest
from ragsel.retrieval import (
    Bm25Index,
    EmbeddingBackendError,
    EmbeddingClient,
    EmptyCorpusError,
    IndexFormatError,
    RetrievalConfig,
    INDEX_VERSION,
    build_index,
    index_files,
    tokenize,
)


class TestTokenize:
    def test_separator_splitting(self):
        assert tokenize("Ctrl+Shift+T") == ["ctrl", "shift", "t"]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize("The Express, The Telegraph") == ["the", "express", "the", "telegraph"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode_alphanumerics(self):
        assert tokenize("café #42 naïve") == ["café", "42", "naïve"]


def brute_force_bm25(docs: dict[str, list[str]], query_tokens: list[str], k1: float, b: float):
    """Independent reference scorer: recomputes df/N/avgdl from token lists."""
    n_docs = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n_docs
    df: Counter = Counter()
    for toks in docs.values():
        df.update(set(toks))
    scores = {}
    for pid, toks in docs.items():
        tf = Counter(toks)
        score = 0.0
        for term in query_tokens:
            if df[term] == 0 or tf[term] == 0:
                continue
            idf = math.log(1 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf[term] * (k1 + 1.0) / (tf[term] + k1 * (1 - b + b * len(toks) / avgdl))
        scores[pid] = score
    return scores


def scores_by_id(index, query):
    """Every positive BM25 score for the query, by passage id; a passage that
    scores 0 is absent."""
    return dict(index.retrieve(query, index.N).hits)


def _edit_header(index_dir, **fields):
    path = index_dir / "index.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def brute_force_rank(docs, query, k1, b, top_k):
    scores = brute_force_bm25(docs, tokenize(query), k1, b)
    ranked = sorted(((p, s) for p, s in scores.items() if s > 0), key=lambda x: (-x[1], x[0]))
    return ranked[:top_k]


class TestBm25:
    def test_index_counts_docs(self, tiny_corpus):
        index = build_index(tiny_corpus)
        assert index.N == 3

    def test_empty_corpus_rejected(self, tmp_path):
        empty = ingest([], tmp_path / "empty")
        with pytest.raises(EmptyCorpusError):
            build_index(empty)

    def test_score_zero_when_term_absent(self, tiny_corpus):
        index = build_index(tiny_corpus)
        assert scores_by_id(index, "zzz") == {}
        assert "doc2" not in scores_by_id(index, "apple")

    def test_hand_evaluated_scores(self, tiny_corpus):
        # docs: "apple apple pie" / "apple tart" / "banana bread",
        # k1=1.2, b=0.75, N=3, df(apple)=2, avgdl=7/3.
        index = build_index(tiny_corpus)
        idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))  # ln(1.6)
        doc0 = idf * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * (3 / (7 / 3))))
        doc1 = idf * 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * (2 / (7 / 3))))
        scores = scores_by_id(index, "apple")
        assert scores["doc0"] == pytest.approx(doc0, rel=1e-12)
        assert scores["doc1"] == pytest.approx(doc1, rel=1e-12)
        assert scores["doc0"] > scores["doc1"] > 0.0
        assert "doc2" not in scores

    def test_single_doc_corpus_positive_score(self, tmp_path):
        corpus = make_corpus(tmp_path, [{"id": "only", "text": "solo document"}])
        index = build_index(corpus)
        assert scores_by_id(index, "solo document")["only"] > 0.0

    def test_retrieve_matches_brute_force(self, tiny_corpus):
        index = build_index(tiny_corpus)
        result = index.retrieve("apple", 2)
        docs = {"doc0": tokenize("apple apple pie"), "doc1": tokenize("apple tart"),
                "doc2": tokenize("banana bread")}
        assert result.hits == brute_force_rank(docs, "apple", 1.2, 0.75, 2)
        assert [pid for pid, _ in result.hits] == ["doc0", "doc1"]

    def test_retrieve_absent_term_empty(self, tiny_corpus):
        index = build_index(tiny_corpus)
        assert index.retrieve("zzz", 5).hits == []

    def test_retrieve_no_padding_beyond_positive_scores(self, tiny_corpus):
        index = build_index(tiny_corpus)
        hits = index.retrieve("apple", 10).hits
        assert [pid for pid, _ in hits] == ["doc0", "doc1"]  # doc2 scores 0, excluded

    def test_tie_break_by_ascending_id(self, tmp_path):
        corpus = make_corpus(
            tmp_path,
            [
                {"id": "b", "text": "same words here"},
                {"id": "a", "text": "same words here"},
                {"id": "c", "text": "same words here"},
            ],
        )
        index = build_index(corpus)
        assert [pid for pid, _ in index.retrieve("same words", 3).hits] == ["a", "b", "c"]

    def test_permutation_of_corpus_gives_identical_results(self, tmp_path):
        records = [
            {"id": f"d{i}", "text": f"token{i % 4} token{(i + 1) % 4} filler{i}"} for i in range(8)
        ]
        index_a = build_index(make_corpus(tmp_path, records, "fwd"))
        rng = random.Random(1)
        shuffled = records[:]
        rng.shuffle(shuffled)
        index_b = build_index(make_corpus(tmp_path, shuffled, "perm"))
        for query in ("token0", "token1 token2", "filler3 token3", "absent"):
            assert index_a.retrieve(query, 8).to_json() == index_b.retrieve(query, 8).to_json()

    def test_retrieve_deterministic_bytes(self, tiny_corpus):
        index = build_index(tiny_corpus)
        first = index.retrieve("apple pie", 5).to_json()
        second = build_index(tiny_corpus).retrieve("apple pie", 5).to_json()
        assert first == second

    def test_monotone_in_term_frequency_at_equal_length(self, tmp_path):
        # Equal-length docs; doc "high" repeats the query term strictly more.
        corpus = make_corpus(
            tmp_path,
            [
                {"id": "high", "text": "target target target pad1 pad2"},
                {"id": "low", "text": "target pad3 pad4 pad5 pad6"},
                {"id": "other", "text": "unrelated words entirely here now"},
            ],
        )
        index = build_index(corpus)
        scores = scores_by_id(index, "target")
        assert scores["high"] > scores["low"] > 0.0
        assert "other" not in scores

    def test_save_load_round_trip(self, tiny_corpus, tmp_path):
        index = build_index(tiny_corpus)
        index.save(tmp_path / "idx")
        loaded = Bm25Index.load(tmp_path / "idx")
        assert loaded.retrieve("apple", 3).to_json() == index.retrieve("apple", 3).to_json()
        assert loaded.corpus_path == str(tiny_corpus.root)

    def test_index_directory_layout(self, tiny_corpus, tmp_path):
        build_index(tiny_corpus).save(tmp_path / "idx")
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == sorted(
            p.name for p in index_files(tmp_path / "idx")
        )
        header = json.loads((tmp_path / "idx" / "index.json").read_text())
        assert header["version"] == INDEX_VERSION == 2
        assert header["ids"] == ["doc0", "doc1", "doc2"]
        assert sorted(header["terms"]) == ["apple", "banana", "bread", "pie", "tart"]

    def test_load_refuses_version_one(self, tmp_path):
        (tmp_path / "index.json").write_text(
            json.dumps(
                {
                    "format": "ragsel-bm25-index",
                    "version": 1,
                    "k1": 1.2,
                    "b": 0.75,
                    "corpus_path": None,
                    "doc_len": {"doc0": 1},
                    "postings": {"apple": {"doc0": 1}},
                }
            )
        )
        with pytest.raises(IndexFormatError, match="version 1.*ragsel index build"):
            Bm25Index.load(tmp_path)

    def test_load_refuses_missing_array(self, tiny_corpus, tmp_path):
        build_index(tiny_corpus).save(tmp_path / "idx")
        (tmp_path / "idx" / "rows.npy").unlink()
        with pytest.raises(IndexFormatError, match="rows.npy.*ragsel index build"):
            Bm25Index.load(tmp_path / "idx")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda idx: (idx / "index.json").write_bytes((idx / "index.json").read_bytes()[:-5]),
            lambda idx: (idx / "index.json").write_text(
                json.dumps({k: v for k, v in json.loads((idx / "index.json").read_text()).items() if k != "ids"})
            ),
            lambda idx: (idx / "rows.npy").write_bytes(b"junk\n"),
            lambda idx: (idx / "rows.npy").write_bytes((idx / "rows.npy").read_bytes()[:-3]),
            lambda idx: _edit_header(idx, k1="x"),
            lambda idx: _edit_header(idx, ids="012"),  # as long as the three ids, so sizes agree
            lambda idx: np.save(idx / "rows.npy", np.load(idx / "rows.npy").astype(np.float64)),
            lambda idx: _edit_header(idx, corpus_path=5),
        ],
        ids=[
            "header-cut", "header-without-ids", "rows-junk", "rows-cut", "k1-text", "ids-not-list", "rows-float64",
            "corpus-path-int",
        ],
    )
    def test_load_refuses_an_undecodable_file(self, tiny_corpus, tmp_path, damage):
        build_index(tiny_corpus).save(tmp_path / "idx")
        damage(tmp_path / "idx")
        with pytest.raises(IndexFormatError, match="ragsel index build"):
            Bm25Index.load(tmp_path / "idx")

    def test_load_rejects_unknown_format(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(IndexFormatError):
            Bm25Index.load(tmp_path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(b=1.5)
        with pytest.raises(ValueError):
            RetrievalConfig(k1=0)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_config_rejects_a_non_finite_k1(self, k1):
        # A NaN k1 used to build an index whose every query returned no hits.
        with pytest.raises(ValueError, match="k1 must be finite"):
            RetrievalConfig(k1=k1)


class TestBm25Oracle:
    def test_random_corpora_match_brute_force(self, tmp_path):
        # Small-scale version; the acceptance suite runs the 100-corpus sweep.
        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(25)]
        for trial in range(10):
            n_docs = rng.randint(2, 40)
            records = [
                {"id": f"d{i:03d}", "text": " ".join(rng.choices(vocab, k=rng.randint(1, 15)))}
                for i in range(n_docs)
            ]
            corpus = make_corpus(tmp_path, records, f"c{trial}")
            index = build_index(corpus)
            docs = {r["id"]: tokenize(r["text"]) for r in records}
            for _ in range(5):
                query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
                top_k = rng.randint(1, 10)
                assert index.retrieve(query, top_k).hits == brute_force_rank(
                    docs, query, 1.2, 0.75, top_k
                )

    def test_repeated_query_tokens_and_ties_at_the_cut(self, tmp_path):
        # Every text repeats under several ids, so equal scores straddle the
        # top-k boundary; queries repeat tokens, which count once per use.
        rng = random.Random(5)
        vocab = ["w0", "w1", "w2", "w3"]
        boundary_ties = 0
        for trial in range(8):
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 5))) for _ in range(4)]
            records = [{"id": f"d{i:02d}", "text": rng.choice(texts)} for i in range(rng.randint(8, 16))]
            index = build_index(make_corpus(tmp_path, records, f"t{trial}"))
            docs = {r["id"]: tokenize(r["text"]) for r in records}
            for _ in range(4):
                query = " ".join(rng.choices(vocab[:2], k=3) + rng.choices(vocab, k=2))
                full = brute_force_rank(docs, query, 1.2, 0.75, len(records))
                for top_k in range(1, len(full) + 1):
                    assert index.retrieve(query, top_k).hits == full[:top_k]
                    if top_k < len(full) and full[top_k - 1][1] == full[top_k][1]:
                        boundary_ties += 1
        assert boundary_ties > 0

    def test_ten_thousand_passage_build_is_fast(self, tmp_path):
        # Non-binding desk target: a 10^4-passage corpus indexes in seconds.
        import time

        rng = random.Random(0)
        vocab = [f"v{i}" for i in range(500)]
        records = [
            {"id": f"d{i:05d}", "text": " ".join(rng.choices(vocab, k=12))} for i in range(10_000)
        ]
        corpus = make_corpus(tmp_path, records, "big")
        start = time.monotonic()
        index = build_index(corpus)
        elapsed = time.monotonic() - start
        assert index.N == 10_000
        assert elapsed < 10.0
        assert index.retrieve("v1 v2 v3", 5).hits


class TestImpacts:
    """Per-posting term scores, computed once per index and summed per query."""

    def _corpus(self, tmp_path, name="c"):
        # "every" occurs in every passage (df = N); the rest follow a skewed draw.
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(15)]
        texts = [["every"] + rng.choices(vocab, range(15, 0, -1), k=rng.randint(0, 25)) for _ in range(60)]
        records = [{"id": f"d{i:03d}", "text": " ".join(text)} for i, text in enumerate(texts)]
        return make_corpus(tmp_path, records, name), {r["id"]: tokenize(r["text"]) for r in records}, vocab

    def test_score_equals_brute_force_with_a_term_in_every_passage(self, tmp_path):
        corpus, docs, vocab = self._corpus(tmp_path)
        index = build_index(corpus)
        assert len(index.postings.rows[index.postings.span("every")]) == index.N
        rng = random.Random(3)
        for _ in range(40):
            # Repeated tokens count once per use; "absent" occurs in no passage.
            query_tokens = rng.choices(["every", "absent", *vocab[:6]], k=rng.randint(1, 5))
            query_tokens *= rng.randint(1, 3)
            rng.shuffle(query_tokens)
            expected = brute_force_bm25(docs, query_tokens, 1.2, 0.75)
            query = " ".join(query_tokens)
            assert scores_by_id(index, query) == {pid: s for pid, s in expected.items() if s > 0}
            assert index.retrieve(query, 7).hits == brute_force_rank(docs, query, 1.2, 0.75, 7)

    def test_loaded_index_has_identical_impacts(self, tmp_path):
        corpus, _docs, vocab = self._corpus(tmp_path)
        built = build_index(corpus)
        built.save(tmp_path / "idx")
        loaded = Bm25Index.load(tmp_path / "idx")
        assert "impacts" not in vars(loaded)  # computed on first use, not by load
        assert loaded.impacts.dtype == np.float64 and len(loaded.impacts) == len(loaded.postings.rows)
        assert np.array_equal(loaded.impacts, built.impacts)
        for query in ["every", "w0 w1 w0", " ".join(vocab), "absent"]:
            assert loaded.retrieve(query, 5).to_json() == built.retrieve(query, 5).to_json()


class TestDenseRetrieve:
    def test_endpoint_failure_carries_cause(self, monkeypatch):
        monkeypatch.setattr("ragsel.llm.time.sleep", lambda _seconds: None)
        client = EmbeddingClient("http://127.0.0.1:1/v1/embeddings", timeout=0.2)
        with pytest.raises(EmbeddingBackendError, match="unreachable"):
            client.embed(["query"])
