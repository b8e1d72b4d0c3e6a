"""Top-K passage retrieval: an Okapi BM25 inverted index, plus a dense
retriever backed by an external embedding endpoint.

The BM25 variant is fixed so results are bit-stable across machines:

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
    tf part = tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avgdl))

summed over the query tokens in order (a repeated query token contributes
once per occurrence). This idf form is never negative, so every score is
>= 0 and is 0 exactly when no query term occurs in the document. Documents
scoring 0 are excluded from results rather than padded.

Scoring is term-at-a-time over CSR postings (`Postings`): each query token
adds its term into one float64 score vector, so every passage's score is
the same sequence of IEEE operations as the per-document formula. An index
directory holds `index.json` (format, version, k1, b, passage ids, terms)
and one `.npy` file per array in `INDEX_ARRAYS`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import RagselError
from .llm import StatusError, TransportError, _post_json

INDEX_FILE = "index.json"
INDEX_FORMAT = "ragsel-bm25-index"
INDEX_VERSION = 2
INDEX_ARRAYS = ("term_ptr", "rows", "tfs", "doc_len")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into runs of Unicode alphanumerics.

    Everything else (punctuation, symbols, underscore, whitespace) separates
    tokens. No stemming, no stopword removal.
    """
    return _TOKEN_RE.findall(text.lower())


class RetrievalError(RagselError):
    pass


class EmptyCorpusError(RetrievalError):
    pass


class UnknownPassageError(RetrievalError):
    def __init__(self, passage_id: str):
        super().__init__(f"passage {passage_id!r} is not in the index")
        self.passage_id = passage_id


class IndexFormatError(RetrievalError):
    pass


class EmbeddingBackendError(RetrievalError):
    """The embedding endpoint failed or returned vectors we cannot use."""


@dataclass(frozen=True)
class RetrievalConfig:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class RetrievalResult:
    query: str
    hits: list[tuple[str, float]]  # (passage_id, score), best first
    retriever_tag: str  # "bm25" | "dense"

    def to_json(self) -> str:
        return json.dumps(
            {"query": self.query, "hits": [[pid, s] for pid, s in self.hits], "retriever_tag": self.retriever_tag},
            ensure_ascii=False,
        )


class Postings:
    """Term-at-a-time CSR postings over a list of token lists ("rows").

    Term t's rows are `rows[term_ptr[t]:term_ptr[t + 1]]`, ascending, with the
    matching counts in `tfs`; `lengths` holds each row's token count. Terms are
    numbered in order of first occurrence.
    """

    def __init__(self, terms: list[str], term_ptr: np.ndarray, rows: np.ndarray, tfs: np.ndarray,
                 lengths: np.ndarray):
        self.terms = terms
        self.term_ptr = term_ptr
        self.rows = rows
        self.tfs = tfs
        self.lengths = lengths
        self._term_id = {term: t for t, term in enumerate(terms)}

    @classmethod
    def build(cls, token_lists: Sequence[list[str]]) -> "Postings":
        n = len(token_lists)
        vocab: dict[str, int] = {}
        term_of = np.fromiter(
            (vocab.setdefault(tok, len(vocab)) for toks in token_lists for tok in toks), dtype=np.int64
        )
        lengths = np.fromiter((len(toks) for toks in token_lists), dtype=np.int32, count=n)
        keys, tfs = np.unique(term_of * n + np.repeat(np.arange(n), lengths), return_counts=True)
        term_ptr = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=len(vocab)), out=term_ptr[1:])
        return cls(list(vocab), term_ptr, (keys % n).astype(np.int32), tfs.astype(np.int32), lengths)

    def get(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(rows, counts) of one term, or None when no row holds it."""
        t = self._term_id.get(term)
        if t is None:
            return None
        lo, hi = self.term_ptr[t], self.term_ptr[t + 1]
        return self.rows[lo:hi], self.tfs[lo:hi]

    def dots(self, counts: dict[str, int]) -> np.ndarray:
        """Dot product of a term-count vector with every row's count vector.

        Float64, but exact: every value is an integer sum far below 2**53.
        """
        rows, weights = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int64)]
        for term, count in counts.items():
            hit = self.get(term)
            if hit is not None:
                rows.append(hit[0])
                weights.append(hit[1] * count)
        return np.bincount(np.concatenate(rows), np.concatenate(weights), minlength=len(self.lengths))


def top_k_positions(scores: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores, best first, equal scores by ascending rank."""
    n = len(scores)
    if 0 < k < n:
        kth = np.partition(scores, n - k)[n - k]
        keep = np.flatnonzero(scores >= kth)
    else:
        keep = np.arange(n)
    return keep[np.lexsort((rank[keep], -scores[keep]))[:k]]


class Bm25Index:
    """Immutable inverted index over passage text (titles are not indexed).

    Rows are passages in ascending id order, so a row number is also the
    passage's tie-break rank.
    """

    def __init__(self, k1: float, b: float, ids: list[str], postings: Postings,
                 corpus_path: str | None = None):
        self.k1 = k1
        self.b = b
        self.ids = ids
        self.postings = postings
        self.corpus_path = corpus_path
        self.N = len(ids)
        dl = postings.lengths
        self.avgdl = int(dl.sum()) / self.N if self.N else 0.0
        # The same IEEE operations, in the same order, as the formula above.
        self.norms = self.k1 * ((1.0 - self.b) + (self.b * dl) / self.avgdl) if self.avgdl else np.zeros(self.N)

    def _scores(self, query_tokens: list[str]) -> np.ndarray:
        scores = np.zeros(self.N)
        for term in query_tokens:
            hit = self.postings.get(term)
            if hit is None:
                continue
            rows, tf = hit
            df = len(rows)
            idf = math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))
            scores[rows] += idf * tf * (self.k1 + 1.0) / (tf + self.norms[rows])
        return scores

    def score(self, query: str, passage_id: str) -> float:
        """BM25 score of one passage for a query; 0 iff no query term occurs."""
        row = bisect.bisect_left(self.ids, passage_id)
        if row == self.N or self.ids[row] != passage_id:
            raise UnknownPassageError(passage_id)
        return float(self._scores(tokenize(query))[row])

    def retrieve(self, query: str, top_k: int) -> RetrievalResult:
        """Top-k positive-scoring passages, best first, ties by ascending id."""
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        scores = self._scores(tokenize(query))
        rows = np.flatnonzero(scores > 0.0)
        best = rows[top_k_positions(scores[rows], rows, top_k)]
        return RetrievalResult(
            query=query, hits=[(self.ids[r], float(scores[r])) for r in best], retriever_tag="bm25"
        )

    def save(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        p = self.postings
        for name, array in zip(INDEX_ARRAYS, (p.term_ptr, p.rows, p.tfs, p.lengths)):
            np.save(out / f"{name}.npy", array, allow_pickle=False)
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "corpus_path": self.corpus_path,
            "ids": self.ids,
            "terms": p.terms,
        }
        path = out / INDEX_FILE
        path.write_text(json.dumps(header, ensure_ascii=False), encoding="utf-8")
        return path

    @classmethod
    def load(cls, index_dir: str | Path) -> "Bm25Index":
        path = Path(index_dir) / INDEX_FILE
        if not path.exists():
            raise IndexFormatError(f"{index_dir} does not contain {INDEX_FILE}")
        header = json.loads(path.read_text(encoding="utf-8"))
        if header.get("format") != INDEX_FORMAT:
            raise IndexFormatError(f"unrecognized index format {header.get('format')!r}")
        rebuild = "; rebuild it with `ragsel index build`"
        if header.get("version") != INDEX_VERSION:
            raise IndexFormatError(
                f"index version {header.get('version')!r} is not supported "
                f"(this release reads version {INDEX_VERSION}){rebuild}"
            )
        arrays = []
        for file in index_files(index_dir)[1:]:
            if not file.exists():
                raise IndexFormatError(f"{index_dir} is missing {file.name}{rebuild}")
            arrays.append(np.load(file, allow_pickle=False))
        term_ptr, rows, tfs, lengths = arrays
        ids, terms = header["ids"], header["terms"]
        if not (len(term_ptr) == len(terms) + 1 and len(rows) == len(tfs) == term_ptr[-1]
                and len(lengths) == len(ids)):
            raise IndexFormatError(f"{index_dir} holds arrays of inconsistent sizes{rebuild}")
        return cls(
            k1=header["k1"],
            b=header["b"],
            ids=ids,
            postings=Postings(terms, term_ptr, rows, tfs, lengths),
            corpus_path=header.get("corpus_path"),
        )


def index_files(index_dir: str | Path) -> list[Path]:
    """Every file `Bm25Index.load` reads: the JSON header, then the arrays."""
    root = Path(index_dir)
    return [root / INDEX_FILE] + [root / f"{name}.npy" for name in INDEX_ARRAYS]


def build_index(corpus: Corpus, config: RetrievalConfig | None = None) -> Bm25Index:
    """Build the inverted index from an ingested corpus."""
    config = config or RetrievalConfig()
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot index an empty corpus")
    docs = sorted(((passage.id, tokenize(passage.text)) for passage in corpus), key=itemgetter(0))
    return Bm25Index(
        k1=config.k1,
        b=config.b,
        ids=[pid for pid, _tokens in docs],
        postings=Postings.build([tokens for _pid, tokens in docs]),
        corpus_path=str(corpus.root),
    )


class EmbeddingClient:
    """HTTP client for an embedding endpoint, over `llm._post_json` with its
    default retry policy; every failure raises EmbeddingBackendError.

    Wire format: POST {"input": [str], "model": tag} -> {"embeddings": [[float]]}.
    Auth is a bearer token read from the environment variable named by
    `api_key_env`, when set.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_tag: str = "default",
        api_key_env: str | None = None,
        timeout: float = 30.0,
    ):
        self.endpoint_url = endpoint_url
        self.model_tag = model_tag
        self.api_key_env = api_key_env
        self.timeout = timeout

    def embed(self, texts: list[str]) -> list[list[float]]:
        body = {"input": texts, "model": self.model_tag}
        try:
            payload = _post_json(self.endpoint_url, body, api_key_env=self.api_key_env, timeout=self.timeout)
        except TransportError as exc:
            raise EmbeddingBackendError(f"embedding endpoint unreachable: {exc}") from exc
        except StatusError as exc:
            raise EmbeddingBackendError(f"embedding endpoint failed: {exc}") from exc
        vectors = payload.get("embeddings") if isinstance(payload, dict) else None
        if not isinstance(vectors, list) or not all(
            isinstance(vec, list) and all(type(x) in (int, float) and math.isfinite(x) for x in vec)
            for vec in vectors
        ):
            raise EmbeddingBackendError("embedding endpoint returned a malformed payload")
        if len(vectors) != len(texts):
            raise EmbeddingBackendError(
                f"embedding endpoint returned {len(vectors)} vectors for {len(texts)} inputs"
            )
        return [[float(x) for x in vec] for vec in vectors]


def _cache_path(cache_dir: Path, model_tag: str, passage_id: str) -> Path:
    digest = hashlib.sha256(f"{model_tag}:{passage_id}".encode("utf-8")).hexdigest()
    return cache_dir / f"{digest}.json"


def _passage_vectors(
    client: EmbeddingClient, corpus: Corpus, cache_dir: str | Path | None
) -> dict[str, list[float]]:
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
    vectors: dict[str, list[float]] = {}
    missing: list[str] = []
    for pid in corpus.ids():
        if cache is not None:
            path = _cache_path(cache, client.model_tag, pid)
            if path.exists():
                vectors[pid] = json.loads(path.read_text(encoding="utf-8"))["embedding"]
                continue
        missing.append(pid)
    if missing:
        texts = []
        for pid in missing:
            passage = corpus.get(pid)
            # Titles help disambiguation, so they are embedded when present.
            texts.append(f"{passage.title}\n{passage.text}" if passage.title else passage.text)
        embedded = client.embed(texts)
        for pid, vec in zip(missing, embedded):
            vectors[pid] = vec
            if cache is not None:
                _cache_path(cache, client.model_tag, pid).write_text(
                    json.dumps({"passage_id": pid, "model_tag": client.model_tag, "embedding": vec}),
                    encoding="utf-8",
                )
    return vectors


def dense_retrieve(
    client: EmbeddingClient,
    corpus: Corpus,
    query: str,
    top_k: int,
    cache_dir: str | Path | None = None,
) -> RetrievalResult:
    """Cosine-similarity top-k over endpoint embeddings of the whole corpus.

    Passage vectors are cached on disk keyed by (model tag, passage id) when a
    cache directory is given; only the query is embedded on later calls.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    vectors = _passage_vectors(client, corpus, cache_dir)
    query_vec = np.asarray(client.embed([query])[0], dtype=float)
    qnorm = float(np.linalg.norm(query_vec))
    scored: list[tuple[str, float]] = []
    for pid, vec in vectors.items():
        pvec = np.asarray(vec, dtype=float)
        if pvec.shape != query_vec.shape:
            raise EmbeddingBackendError(
                f"dimension mismatch: passage {pid!r} has {pvec.shape[0]} dims, query has {query_vec.shape[0]}"
            )
        pnorm = float(np.linalg.norm(pvec))
        sim = float(np.dot(query_vec, pvec) / (qnorm * pnorm)) if qnorm > 0 and pnorm > 0 else 0.0
        scored.append((pid, sim))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return RetrievalResult(query=query, hits=scored[:top_k], retriever_tag="dense")
