"""Expand the preference dataset with mined hard negatives: for each query,
find the K most similar other queries and adopt both of their responses as
extra negatives, giving up to 2K+1 training pairs per instance. Similarity
is the cosine between the queries' token-count vectors, scored over shared
CSR postings (`retrieval.Postings`) a block of queries per call, as many as
`Bm25Index.retrieve_many` puts in one block.

Each pair's prompt is the selection prompt used at inference
(pipeline.select_prompt), with the chosen and rejected responses as its two
candidates in a per-pair random order. A pair keeps its question, not its
prompt, and augment_dataset renders each instance's two responses once, so
every pair that uses a response shares one string. It emits an instance's
pairs one after another, so the export encodes each of those strings once
per instance. A mined negative whose answer normalizes equal to the
instance's positive is dropped rather than kept as a self-contradictory pair.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FieldTypeError, Record, stable_hash_int
from .errors import RagselError
from .evaluation import normalize
from .pipeline import render_response, select_prompt, select_question
from .retrieval import Postings, _queries_per_block, tokenize, top_k_positions
from .rgp import PreferenceInstance

ORDER_CHOSEN_FIRST = "chosen_first"
ORDER_REJECTED_FIRST = "rejected_first"

ORIGIN_OWN_NEGATIVE = "own_negative"
ORIGIN_NEIGHBOR_POSITIVE = "neighbor_positive"
ORIGIN_NEIGHBOR_NEGATIVE = "neighbor_negative"


class AugmentError(RagselError):
    pass


class UnresolvedNeighborError(AugmentError):
    def __init__(self, query_id: str):
        super().__init__(f"neighbor query id {query_id!r} is not in the dataset")
        self.query_id = query_id


@dataclass
class NeighborSet:
    query_id: str
    neighbors: list[tuple[str, float]]  # (query_id, similarity), best first


@dataclass(slots=True)
class DpoPair(Record):
    """A preference pair. Its row holds `prompt`, the selection prompt for
    `query` with chosen and rejected in the recorded order, in place of
    `query`; `from_dict` reads the question back out of it and refuses a
    prompt that is not exactly that rendering."""

    query: str  # the instance's question
    chosen: str
    rejected: str
    order: str  # chosen_first | rejected_first
    negative_origin: str  # own_negative | neighbor_positive | neighbor_negative
    source_query_ids: tuple[str, str]  # (instance query, negative's origin query)

    @property
    def candidates(self) -> tuple[str, str]:
        """Chosen and rejected in the order the prompt shows them."""
        if self.order == ORDER_CHOSEN_FIRST:
            return self.chosen, self.rejected
        return self.rejected, self.chosen

    @property
    def prompt(self) -> str:
        return select_prompt(self.query, *self.candidates)

    # Record's methods are named, not reached through super(): a slotted
    # dataclass is a new class, which zero-argument super() does not know.
    def to_dict(self) -> dict:
        row = {"prompt": self.prompt, **Record.to_dict(self)}
        del row["query"]
        return row

    @classmethod
    def from_dict(cls, obj: dict) -> "DpoPair":
        prompt = obj["prompt"]
        if type(prompt) is not str:
            raise FieldTypeError("str", prompt, "prompt")
        pair = Record.from_dict.__func__(cls, {**obj, "query": ""})
        query = select_question(prompt, *pair.candidates)
        if query is None:
            # The reverse order is tried only to tell the two faults apart.
            if select_question(prompt, *reversed(pair.candidates)) is not None:
                raise ValueError(f"recorded order says {pair.order} but prompt disagrees")
            raise ValueError("prompt is not the selection prompt with chosen and rejected in its candidate slots")
        pair.query = query
        return pair


def _count_vector(text: str) -> Counter:
    return Counter(tokenize(text))


def _cosine_counts(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 0.0
    dot = sum(count * b[token] for token, count in a.items())
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


def similarity(query_a: str, query_b: str) -> float:
    """Cosine between the two queries' token-count vectors, as mine_neighbors scores them."""
    return _cosine_counts(_count_vector(query_a), _count_vector(query_b))


def mine_neighbors(dataset: Sequence[PreferenceInstance], k: int) -> dict[str, NeighborSet]:
    """For every instance, the k most similar OTHER queries by `similarity`.

    Ties break by ascending query id; an instance never neighbors itself,
    even when another instance repeats its query text verbatim. Each
    neighbor list has min(k, M-1) entries.
    """
    if k < 1:
        raise AugmentError("k must be >= 1")
    ids = [inst.query_id for inst in dataset]
    if len(set(ids)) != len(ids):
        raise AugmentError("dataset carries duplicate query ids")

    m = len(dataset)
    tokens = [tokenize(inst.query) for inst in dataset]
    postings = Postings.build(tokens)
    # Integer squared norms, so sqrt rounds exactly as in _cosine_counts. A
    # query with no tokens dots 0 with every query, and a positive dot has two
    # non-zero norms, so a norm of 0 read as 1 changes no cosine.
    norms = np.sqrt(np.bincount(postings.rows, postings.tfs * postings.tfs, minlength=m))
    norms[norms == 0] = 1.0
    id_rank = np.empty(m, dtype=np.int64)
    id_rank[sorted(range(m), key=ids.__getitem__)] = np.arange(m)
    k = min(k, m - 1)
    step = _queries_per_block(m)  # as many rows per scorer call as retrieve_many scores
    out: dict[str, NeighborSet] = {}
    for start in range(0, m, step):
        block = range(start, min(start + step, m))
        # Exact in float64: every dot product is an integer sum far below 2**53.
        sims = postings.row_sums(tokens[start:block.stop], postings.tfs)
        sims /= norms[start:block.stop, None] * norms
        sims[np.arange(len(block)), block] = -np.inf
        # k < m and every other query scores >= 0, so each row has exactly k.
        rows, cols = top_k_positions(sims, id_rank, k, -np.inf)
        hits = list(zip(map(ids.__getitem__, cols.tolist()), sims[rows, cols].tolist()))
        for r, i in enumerate(block):
            out[ids[i]] = NeighborSet(query_id=ids[i], neighbors=hits[r * k:(r + 1) * k])
    return out


def _rendered(instance: PreferenceInstance) -> tuple[str, str]:
    """The instance's positive and negative responses, rendered."""
    return (
        render_response(instance.positive.answer, instance.positive.explanation),
        render_response(instance.negative.answer, instance.negative.explanation),
    )


def _negative_pool(
    instance: PreferenceInstance,
    neighbors: NeighborSet | None,
    lookup: dict[str, PreferenceInstance],
) -> list[tuple[PreferenceInstance, int, str]]:
    """Own negative first, then each neighbor's positive and negative in rank
    order, each as (its instance, 0 for the positive or 1 for the negative,
    origin)."""
    pool = [(instance, 1, ORIGIN_OWN_NEGATIVE)]
    if neighbors is not None:
        for neighbor_id, _sim in neighbors.neighbors:
            other = lookup.get(neighbor_id)
            if other is None:
                raise UnresolvedNeighborError(neighbor_id)
            pool.append((other, 0, ORIGIN_NEIGHBOR_POSITIVE))
            pool.append((other, 1, ORIGIN_NEIGHBOR_NEGATIVE))
    return pool


def expand(
    instance: PreferenceInstance,
    neighbors: NeighborSet | None,
    lookup: dict[str, PreferenceInstance],
    order_seed: int,
    rendered: dict[str, tuple[str, str]] | None = None,
) -> list[DpoPair]:
    """Turn one instance into one DPO pair per surviving negative.

    With a full set of K neighbors and no collisions that is 2K+1 pairs; a
    negative whose answer normalizes equal to the positive is skipped. Each
    pair's presentation order is an independent coin from order_seed, and its
    prompt embeds chosen and rejected verbatim in that order. `rendered` maps
    a query id to its instance's `_rendered` responses; without it, expand
    renders the ones it uses.
    """
    pool = _negative_pool(instance, neighbors, lookup)
    if rendered is None:
        rendered = {source.query_id: _rendered(source) for source, _slot, _origin in pool}
    positive_text = rendered[instance.query_id][0]
    positive_norm = normalize(instance.positive.answer)
    rng = random.Random(order_seed)
    pairs: list[DpoPair] = []
    for source, slot, origin in pool:
        if normalize((source.positive, source.negative)[slot].answer) == positive_norm:
            continue
        chosen_first = rng.random() < 0.5
        pairs.append(
            DpoPair(
                query=instance.query,
                chosen=positive_text,
                rejected=rendered[source.query_id][slot],
                order=ORDER_CHOSEN_FIRST if chosen_first else ORDER_REJECTED_FIRST,
                negative_origin=origin,
                source_query_ids=(instance.query_id, source.query_id),
            )
        )
    return pairs


@dataclass
class AugmentReport(Record):
    instances: int = 0
    pairs: int = 0
    own_negative: int = 0
    neighbor_positive: int = 0
    neighbor_negative: int = 0
    collision_dropped: int = 0
    chosen_first: int = 0
    rejected_first: int = 0


def augment_dataset(
    dataset: Sequence[PreferenceInstance],
    k: int,
    order_seed: int,
) -> tuple[list[DpoPair], AugmentReport]:
    """Expand every instance, in input order, and report the breakdown.

    k=0 skips neighbor mining entirely and emits just the instance's own
    pair. Per-instance order seeds derive from (order_seed, query_id), so the
    output does not depend on dataset order beyond the order of emission.
    """
    if not dataset:
        raise AugmentError("dataset must be non-empty")
    lookup = {inst.query_id: inst for inst in dataset}
    if len(lookup) != len(dataset):
        raise AugmentError("dataset carries duplicate query ids")
    neighbor_map: dict[str, NeighborSet] = {}
    if k > 0 and len(dataset) > 1:
        neighbor_map = mine_neighbors(dataset, k)

    rendered = {inst.query_id: _rendered(inst) for inst in dataset}
    pairs: list[DpoPair] = []
    collision_dropped = 0
    for instance in dataset:
        neighbors = neighbor_map.get(instance.query_id)
        seed = stable_hash_int(order_seed, instance.query_id)
        expanded = expand(instance, neighbors, lookup, order_seed=seed, rendered=rendered)
        possible = 1 + 2 * len(neighbors.neighbors) if neighbors is not None else 1
        collision_dropped += possible - len(expanded)
        pairs.extend(expanded)
    # Each pair's origin and order are the names of the report's counts.
    counts = Counter(pair.negative_origin for pair in pairs) + Counter(pair.order for pair in pairs)
    report = AugmentReport(instances=len(dataset), pairs=len(pairs), collision_dropped=collision_dropped, **counts)
    return pairs, report
