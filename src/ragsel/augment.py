"""Expand the preference dataset with mined hard negatives: for each query,
find the K most similar other queries and adopt both of their responses as
extra negatives, giving up to 2K+1 training pairs per instance. Similarity
is the cosine between the queries' token-count vectors, scored over shared
CSR postings (`retrieval.Postings`).

Each pair renders the selection prompt used at inference
(pipeline.select_prompt), with the chosen and rejected responses as its two
candidates in a per-pair random order. A mined negative whose answer
normalizes equal to the instance's positive is dropped rather than kept as a
self-contradictory pair.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Record, stable_hash_int
from .errors import RagselError
from .evaluation import normalize
from .pipeline import render_response, select_prompt
from .retrieval import Postings, tokenize, top_k_positions
from .rgp import PreferenceInstance, Response

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
    prompt: str  # the rendered selection prompt, holding both responses
    chosen: str
    rejected: str
    order: str  # chosen_first | rejected_first
    negative_origin: str  # own_negative | neighbor_positive | neighbor_negative
    source_query_ids: tuple[str, str]  # (instance query, negative's origin query)


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
    # Integer squared norms, so sqrt rounds exactly as in _cosine_counts.
    norms = np.sqrt(np.bincount(postings.rows, postings.tfs * postings.tfs, minlength=m))
    id_rank = np.empty(m, dtype=np.int64)
    id_rank[sorted(range(m), key=ids.__getitem__)] = np.arange(m)
    k = min(k, m - 1)
    out: dict[str, NeighborSet] = {}
    for i in range(m):
        dots = postings.dots(Counter(tokens[i]))
        sims = np.divide(dots, norms[i] * norms, out=np.zeros(m), where=dots > 0)
        sims[i] = -np.inf
        best = top_k_positions(sims, id_rank, k)
        out[ids[i]] = NeighborSet(query_id=ids[i], neighbors=[(ids[j], float(sims[j])) for j in best])
    return out


def _negative_pool(
    instance: PreferenceInstance,
    neighbors: NeighborSet | None,
    lookup: dict[str, PreferenceInstance],
) -> list[tuple[Response, str, str]]:
    """Own negative first, then each neighbor's positive and negative in rank order."""
    pool: list[tuple[Response, str, str]] = [
        (instance.negative, ORIGIN_OWN_NEGATIVE, instance.query_id)
    ]
    if neighbors is not None:
        for neighbor_id, _sim in neighbors.neighbors:
            other = lookup.get(neighbor_id)
            if other is None:
                raise UnresolvedNeighborError(neighbor_id)
            pool.append((other.positive, ORIGIN_NEIGHBOR_POSITIVE, neighbor_id))
            pool.append((other.negative, ORIGIN_NEIGHBOR_NEGATIVE, neighbor_id))
    return pool


def expand(
    instance: PreferenceInstance,
    neighbors: NeighborSet | None,
    lookup: dict[str, PreferenceInstance],
    order_seed: int,
) -> list[DpoPair]:
    """Turn one instance into one DPO pair per surviving negative.

    With a full set of K neighbors and no collisions that is 2K+1 pairs; a
    negative whose answer normalizes equal to the positive is skipped. Each
    pair's presentation order is an independent coin from order_seed, and the
    prompt embeds chosen and rejected verbatim in that order.
    """
    positive_text = render_response(instance.positive.answer, instance.positive.explanation)
    positive_norm = normalize(instance.positive.answer)
    rng = random.Random(order_seed)
    pairs: list[DpoPair] = []
    for negative, origin, origin_id in _negative_pool(instance, neighbors, lookup):
        if normalize(negative.answer) == positive_norm:
            continue
        negative_text = render_response(negative.answer, negative.explanation)
        chosen_first = rng.random() < 0.5
        first, second = (
            (positive_text, negative_text) if chosen_first else (negative_text, positive_text)
        )
        pairs.append(
            DpoPair(
                prompt=select_prompt(instance.query, first, second),
                chosen=positive_text,
                rejected=negative_text,
                order=ORDER_CHOSEN_FIRST if chosen_first else ORDER_REJECTED_FIRST,
                negative_origin=origin,
                source_query_ids=(instance.query_id, origin_id),
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

    report = AugmentReport(instances=len(dataset))
    pairs: list[DpoPair] = []
    for instance in dataset:
        neighbors = neighbor_map.get(instance.query_id)
        expanded = expand(
            instance, neighbors, lookup, order_seed=stable_hash_int(order_seed, instance.query_id)
        )
        possible = 1 + 2 * len(neighbors.neighbors) if neighbors is not None else 1
        report.collision_dropped += possible - len(expanded)
        for pair in expanded:
            report.pairs += 1
            if pair.negative_origin == ORIGIN_OWN_NEGATIVE:
                report.own_negative += 1
            elif pair.negative_origin == ORIGIN_NEIGHBOR_POSITIVE:
                report.neighbor_positive += 1
            else:
                report.neighbor_negative += 1
            if pair.order == ORDER_CHOSEN_FIRST:
                report.chosen_first += 1
            else:
                report.rejected_first += 1
        pairs.extend(expanded)
    return pairs, report
