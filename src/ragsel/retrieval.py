"""Top-K passage retrieval with an Okapi BM25 inverted index.

The BM25 variant is fixed so results are bit-stable across machines:

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
    tf part = tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avgdl))

summed over the query tokens in order (a repeated query token contributes
once per occurrence). This idf form is never negative, so every score is
>= 0 and is 0 exactly when no query term occurs in the document. Documents
scoring 0 are excluded from results rather than padded.

Each posting's term score ("impact", idf times the tf part) is computed once
per index, on first use, with the formula's IEEE operations in its order.
Queries are scored a block at a time, at most `SCORE_BUDGET` scores per block:
one float64 `np.bincount` of every query's term impacts over CSR postings
(`Postings`), query b's at bins `row + b * N`, in query-token order, so every
passage's score is the same sequence of additions as the per-document
formula, whatever the block. Impacts are not stored: an index directory holds
`index.json` (format, version, k1, b, passage ids, terms) and one `.npy` file
per array in `INDEX_ARRAYS`.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter, lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus
from .errors import RagselError

INDEX_FILE = "index.json"
INDEX_FORMAT = "ragsel-bm25-index"
INDEX_VERSION = 2
INDEX_ARRAYS = {"term_ptr": np.int64, "rows": np.int32, "tfs": np.int32, "doc_len": np.int32}  # name -> dtype
SCORE_BUDGET = 2**15  # scores per block of queries in Bm25Index.retrieve_many

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


class IndexFormatError(RetrievalError):
    pass


@dataclass(frozen=True)
class RetrievalConfig:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError(f"k1 must be finite and > 0, got {self.k1!r}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class RetrievalResult:
    query: str
    hits: list[tuple[str, float]]  # (passage_id, score), best first
    retriever_tag: str  # "bm25"

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

    def row_sums(self, token_lists: Sequence[list[str]], weights: np.ndarray) -> np.ndarray:
        """Float64 sums of per-posting `weights` by row, one row of sums per
        token list: each token adds its term's weights to the rows that hold
        it, in token order, all in one `np.bincount` (list b's at bins
        `row + b * len(lengths)`). A token that no row holds adds nothing."""
        n, term_id, ptr = len(self.lengths), self._term_id, self.term_ptr
        if len(token_lists) == 1:
            # One list (mining's rows; retrieve_many's blocks over more than
            # SCORE_BUDGET // 2 passages) copies its postings by slices: for
            # long posting lists, contiguous copies beat the position-array
            # gather below. Same sums, in the same order.
            spans = [slice(ptr[t], ptr[t + 1]) for t in map(term_id.get, token_lists[0]) if t is not None]
            rows = np.concatenate([_NO_ROWS, *(self.rows[span] for span in spans)])
            values = np.concatenate([_NO_WEIGHTS, *(weights[span] for span in spans)])
            return np.bincount(rows, values, minlength=n)[None]
        # Many lists (retrieve_many's blocks over fewer passages) gather every
        # token's postings through one position array: fewer NumPy calls.
        terms, owners = [], []  # each known token's term, and the first bin of its list
        for b, tokens in enumerate(token_lists):
            known = [t for t in map(term_id.get, tokens) if t is not None]
            terms += known
            owners += [b * n] * len(known)
        terms = np.array(terms, dtype=np.intp)
        stops = ptr[terms + 1]
        sizes = stops - ptr[terms]
        # Every token's postings, one token after another: start + 0, 1, ..., size - 1.
        where = np.arange(sizes.sum())
        where += np.repeat(stops - np.cumsum(sizes), sizes)
        values, bins = weights[where], self.rows[where]
        del where  # one posting-sized array fewer alive during the bincount
        # Bins are int32 like `rows`: a caller keeps lists times rows below 2**31.
        bins += np.repeat(np.array(owners, dtype=np.int32), sizes)
        return np.bincount(bins, values, minlength=len(token_lists) * n).reshape(len(token_lists), n)


_NO_ROWS = np.empty(0, dtype=np.int32)
_NO_WEIGHTS = np.empty(0)
_LEAST_POSITIVE = float(np.nextafter(0.0, 1.0))  # scores > 0 are scores >= this


def _queries_per_block(n_passages: int) -> int:
    """How many queries `Bm25Index.retrieve_many` scores at once over
    n_passages: as many as `SCORE_BUDGET` scores hold, and at least one."""
    return max(1, SCORE_BUDGET // max(n_passages, 1))


def top_k_positions(scores: np.ndarray, rank: np.ndarray | None, k: int,
                    least: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k highest scores that are at least `least`, best first,
    equal scores by ascending rank (by column when rank is None). Returns the
    (row, column) pairs as two arrays, row by row."""
    n = scores.shape[1]
    if 0 < k < n:
        least = np.maximum(np.partition(scores, n - k, axis=1)[:, n - k, None], least)
    pos = np.flatnonzero(scores >= least)
    rows, cols = np.divmod(pos, n)
    neg = -scores.ravel()[pos]
    # lexsort is stable and pos ascends, so without a rank equal scores keep column order.
    order = np.lexsort((neg, rows) if rank is None else (rank[cols], neg, rows))
    rows, cols = rows[order], cols[order]
    if len(rows) > k:  # else no row holds more than k
        best = np.arange(len(rows)) - np.searchsorted(rows, rows) < k
        rows, cols = rows[best], cols[best]
    return rows, cols


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

    @cached_property
    def impacts(self) -> np.ndarray:
        """Each posting's term score, aligned with `postings.rows`:
        `idf * tf * (k1 + 1.0) / (tf + norm)`, the formula's operations in its order."""
        p = self.postings
        df = np.diff(p.term_ptr)
        dfs, df_of_term = np.unique(df, return_inverse=True)
        # math.log once per distinct df: np.log may differ from it in the last bit.
        idf = np.array([math.log(1.0 + (self.N - d + 0.5) / (d + 0.5)) for d in dfs.tolist()])
        # In place, so at most two posting-sized arrays are alive at once.
        impacts = np.repeat(idf[df_of_term], df)
        impacts *= p.tfs
        impacts *= self.k1 + 1.0
        denominators = self.norms[p.rows]
        denominators += p.tfs
        impacts /= denominators
        return impacts

    def retrieve_many(self, queries: Iterable[str], top_k: int) -> Iterator[RetrievalResult]:
        """`retrieve` for each query, in order. Takes `_queries_per_block(N)`
        queries at a time from `queries`, scores them together, and yields
        their results before it takes the next block."""
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        queries, step = iter(queries), _queries_per_block(self.N)
        while block := list(islice(queries, step)):
            scores = self.postings.row_sums([tokenize(query) for query in block], self.impacts)
            rows, cols = top_k_positions(scores, None, top_k, _LEAST_POSITIVE)
            # Cut into hit lists in Python: NumPy calls cost more than they save on a one-query block.
            rows, cols = rows.tolist(), cols.tolist()
            hits = [(self.ids[c], float(scores[r, c])) for r, c in zip(rows, cols)]
            bounds = [bisect_left(rows, b) for b in range(len(block) + 1)]
            for query, a, b in zip(block, bounds, bounds[1:]):
                yield RetrievalResult(query=query, hits=hits[a:b], retriever_tag="bm25")

    def retrieve(self, query: str, top_k: int) -> RetrievalResult:
        """Top-k positive-scoring passages, best first, ties by ascending id."""
        return next(self.retrieve_many([query], top_k))

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
        rebuild = "; rebuild it with `ragsel index build`"
        try:
            header = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise IndexFormatError(f"{path} is not a JSON index header ({exc}){rebuild}") from exc
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != INDEX_FORMAT:
            raise IndexFormatError(f"unrecognized index format {fmt!r}")
        if header.get("version") != INDEX_VERSION:
            raise IndexFormatError(
                f"index version {header.get('version')!r} is not supported "
                f"(this release reads version {INDEX_VERSION}){rebuild}"
            )
        arrays = []
        for file, dtype in zip(index_files(index_dir)[1:], INDEX_ARRAYS.values()):
            if not file.exists():
                raise IndexFormatError(f"{index_dir} is missing {file.name}{rebuild}")
            try:
                array = np.load(file, allow_pickle=False)
            except (ValueError, EOFError) as exc:
                raise IndexFormatError(f"{file} is not a readable array ({exc}){rebuild}") from exc
            if array.ndim != 1 or array.dtype != dtype:
                raise IndexFormatError(f"{file} is not a 1-D {np.dtype(dtype)} array{rebuild}")
            arrays.append(array)
        term_ptr, rows, tfs, lengths = arrays
        try:
            k1, b, ids, terms = (header[key] for key in ("k1", "b", "ids", "terms"))
            RetrievalConfig(k1, b)
        except KeyError as exc:
            raise IndexFormatError(f"{path} lacks the field {exc}{rebuild}") from exc
        except (TypeError, ValueError) as exc:  # TypeError: a k1 or b that is not a number
            raise IndexFormatError(f"{path} holds a bad k1 or b ({exc}){rebuild}") from exc
        if not (_all_str(ids) and _all_str(terms)):
            raise IndexFormatError(f"{path} holds ids or terms that are not lists of strings{rebuild}")
        if not ids:  # build_index refuses an empty corpus, so no index it wrote is empty
            raise IndexFormatError(f"{path} indexes no passages{rebuild}")
        corpus_path = header.get("corpus_path")
        if not isinstance(corpus_path, (str, type(None))):
            raise IndexFormatError(f"{path} holds a corpus_path that is not a string{rebuild}")
        if not (len(term_ptr) == len(terms) + 1 and len(rows) == len(tfs) == term_ptr[-1]
                and len(lengths) == len(ids)):
            raise IndexFormatError(f"{index_dir} holds arrays of inconsistent sizes{rebuild}")
        # Viewed as unsigned, a negative row is at least 2**31, so one max()
        # finds a row outside [0, N) on either side.
        if not (term_ptr[0] == 0 and (term_ptr[1:] >= term_ptr[:-1]).all()
                and (rows.size == 0 or rows.view(np.uint32).max() < len(ids)) and lengths.min(initial=0) >= 0):
            raise IndexFormatError(f"{index_dir} holds an out-of-range term_ptr, rows or doc_len value{rebuild}")
        if not all(map(lt, ids, ids[1:])):
            raise IndexFormatError(f"{path} holds ids that do not strictly ascend{rebuild}")
        postings = Postings(terms, term_ptr, rows, tfs, lengths)
        if len(postings._term_id) != len(terms):  # a repeated term would find only its last postings
            raise IndexFormatError(f"{path} holds a term listed more than once{rebuild}")
        return cls(k1, b, ids, postings, corpus_path)


def _all_str(values: object) -> bool:
    return type(values) is list and set(map(type, values)) <= {str}


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

