import json
import math
import random
from collections import Counter

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
    UnknownPassageError,
    INDEX_VERSION,
    build_index,
    dense_retrieve,
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
        assert index.score("zzz", "doc0") == 0.0
        assert index.score("apple", "doc2") == 0.0

    def test_score_unknown_passage(self, tiny_corpus):
        index = build_index(tiny_corpus)
        with pytest.raises(UnknownPassageError):
            index.score("apple", "nope")

    def test_hand_evaluated_scores(self, tiny_corpus):
        # docs: "apple apple pie" / "apple tart" / "banana bread",
        # k1=1.2, b=0.75, N=3, df(apple)=2, avgdl=7/3.
        index = build_index(tiny_corpus)
        idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))  # ln(1.6)
        doc0 = idf * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * (3 / (7 / 3))))
        doc1 = idf * 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * (2 / (7 / 3))))
        assert index.score("apple", "doc0") == pytest.approx(doc0, rel=1e-12)
        assert index.score("apple", "doc1") == pytest.approx(doc1, rel=1e-12)
        assert index.score("apple", "doc0") > index.score("apple", "doc1") > 0.0

    def test_single_doc_corpus_positive_score(self, tmp_path):
        corpus = make_corpus(tmp_path, [{"id": "only", "text": "solo document"}])
        index = build_index(corpus)
        assert index.score("solo document", "only") > 0.0

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
        assert index.score("target", "high") > index.score("target", "low") > 0.0

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

    def test_load_rejects_unknown_format(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(IndexFormatError):
            Bm25Index.load(tmp_path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(b=1.5)
        with pytest.raises(ValueError):
            RetrievalConfig(k1=0)


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


def _toy_vector(text: str) -> list[float]:
    return [
        float(len(text) % 7 + 1),
        float(sum(ord(c) for c in text) % 11),
        float(ord(text[0]) % 5) if text else 0.0,
        1.0,
    ]


def _embedding_handler(path, payload):
    return 200, {"embeddings": [_toy_vector(t) for t in payload["input"]]}


class TestDenseRetrieve:
    def test_identical_vector_ranks_first_with_sim_one(self, http_stub, tmp_path):
        http_stub.set_handler(_embedding_handler)
        corpus = make_corpus(
            tmp_path,
            [{"id": "a", "text": "alpha beta"}, {"id": "b", "text": "totally different text"}],
        )
        client = EmbeddingClient(http_stub.url)
        result = dense_retrieve(client, corpus, "alpha beta", top_k=2)
        assert result.retriever_tag == "dense"
        assert result.hits[0][0] == "a"
        assert result.hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_give_zero(self, http_stub, tmp_path):
        table = {"xx": [1.0, 0.0], "yy": [0.0, 1.0]}

        def handler(path, payload):
            return 200, {"embeddings": [table[t] for t in payload["input"]]}

        http_stub.set_handler(handler)
        corpus = make_corpus(tmp_path, [{"id": "p", "text": "xx"}])
        client = EmbeddingClient(http_stub.url)
        result = dense_retrieve(client, corpus, "yy", top_k=1)
        assert result.hits[0] == ("p", 0.0)

    def test_ranking_matches_brute_force_cosine(self, http_stub, tmp_path):
        http_stub.set_handler(_embedding_handler)
        records = [{"id": f"p{i}", "text": f"passage number {i} body"} for i in range(4)]
        corpus = make_corpus(tmp_path, records)
        client = EmbeddingClient(http_stub.url)
        query = "which passage"
        result = dense_retrieve(client, corpus, query, top_k=4)

        qv = _toy_vector(query)
        sims = {}
        for r in records:
            pv = _toy_vector(r["text"])
            dot = sum(a * b for a, b in zip(qv, pv))
            sims[r["id"]] = dot / (
                math.sqrt(sum(a * a for a in qv)) * math.sqrt(sum(b * b for b in pv))
            )
        expected = sorted(sims.items(), key=lambda item: (-item[1], item[0]))
        assert [pid for pid, _ in result.hits] == [pid for pid, _ in expected]
        for (pid, sim), (_, want) in zip(result.hits, expected):
            assert sim == pytest.approx(want, abs=1e-12)

    def test_cache_avoids_reembedding_passages(self, http_stub, tmp_path):
        http_stub.set_handler(_embedding_handler)
        corpus = make_corpus(tmp_path, [{"id": f"p{i}", "text": f"text {i}"} for i in range(3)])
        client = EmbeddingClient(http_stub.url, model_tag="toy")
        cache = tmp_path / "emb_cache"
        dense_retrieve(client, corpus, "first query", top_k=2, cache_dir=cache)
        hits_before = http_stub.hits
        dense_retrieve(client, corpus, "second query", top_k=2, cache_dir=cache)
        # Only the new query goes over the wire the second time.
        assert http_stub.hits == hits_before + 1
        assert http_stub.requests[-1]["input"] == ["second query"]

    def test_dimension_mismatch_detected(self, http_stub, tmp_path):
        http_stub.set_handler(_embedding_handler)
        corpus = make_corpus(tmp_path, [{"id": "p0", "text": "some text"}])
        client = EmbeddingClient(http_stub.url, model_tag="toy")
        cache = tmp_path / "emb_cache"
        cache.mkdir()
        import hashlib

        digest = hashlib.sha256(b"toy:p0").hexdigest()
        (cache / f"{digest}.json").write_text(
            json.dumps({"passage_id": "p0", "model_tag": "toy", "embedding": [1.0, 2.0]})
        )
        with pytest.raises(EmbeddingBackendError, match="dimension mismatch"):
            dense_retrieve(client, corpus, "query", top_k=1, cache_dir=cache)

    def test_endpoint_failure_carries_cause(self, tmp_path, monkeypatch):
        monkeypatch.setattr("ragsel.llm.time.sleep", lambda _seconds: None)
        corpus = make_corpus(tmp_path, [{"id": "p0", "text": "some text"}])
        client = EmbeddingClient("http://127.0.0.1:1/v1/embeddings", timeout=0.2)
        with pytest.raises(EmbeddingBackendError, match="unreachable"):
            dense_retrieve(client, corpus, "query", top_k=1)
