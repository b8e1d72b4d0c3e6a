import sys
import tracemalloc

import pytest

from ragsel.augment import (
    AugmentError,
    NeighborSet,
    ORDER_CHOSEN_FIRST,
    ORDER_REJECTED_FIRST,
    ORIGIN_NEIGHBOR_NEGATIVE,
    ORIGIN_NEIGHBOR_POSITIVE,
    ORIGIN_OWN_NEGATIVE,
    UnresolvedNeighborError,
    augment_dataset,
    expand,
    mine_neighbors,
    similarity,
)
from ragsel.retrieval import _queries_per_block
from ragsel.rgp import PreferenceInstance, Response


def _instance(qid, question, positive="good", negative="bad"):
    return PreferenceInstance(
        query_id=qid,
        query=question,
        golden=positive,
        positive=Response(answer=positive, explanation=f"{qid} positive why"),
        negative=Response(answer=negative, explanation=f"{qid} negative why"),
        positive_source="internal",
        n_passages=1,
        judge_tag="lexical",
    )


class TestSimilarity:
    def test_identical_strings(self):
        assert similarity("who wrote hamlet", "who wrote hamlet") == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_strings(self):
        assert similarity("alpha beta", "gamma delta") == 0.0

    def test_hand_cosine(self):
        value = similarity("who wrote hamlet", "who wrote macbeth")
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetric(self):
        a, b = "some words here now", "words here again"
        assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-15)

    def test_empty_string_is_orthogonal(self):
        assert similarity("", "anything") == 0.0


class TestMineNeighbors:
    def test_m_minus_one_cap(self):
        dataset = [_instance(f"q{i}", f"question {i}") for i in range(3)]
        neighbor_map = mine_neighbors(dataset, k=5)
        assert all(len(ns.neighbors) == 2 for ns in neighbor_map.values())

    def test_self_never_listed_even_with_duplicate_text(self):
        dataset = [
            _instance("q0", "identical question text"),
            _instance("q1", "identical question text"),
            _instance("q2", "something else entirely"),
        ]
        neighbor_map = mine_neighbors(dataset, k=2)
        for qid, ns in neighbor_map.items():
            assert qid not in [nid for nid, _s in ns.neighbors]
        assert neighbor_map["q0"].neighbors[0][0] == "q1"
        assert neighbor_map["q0"].neighbors[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_ranking(self):
        questions = [
            "who wrote hamlet",
            "who wrote macbeth",
            "capital of france",
            "capital city of spain",
            "first man on the moon",
            "who wrote king lear",
            "tallest mountain on earth",
            "capital of peru",
            "deepest ocean trench on earth",
            "who painted the mona lisa",
        ]
        dataset = [_instance(f"q{i:02d}", q) for i, q in enumerate(questions)]
        neighbor_map = mine_neighbors(dataset, k=2)
        for inst in dataset:
            sims = [
                (other.query_id, similarity(inst.query, other.query))
                for other in dataset
                if other.query_id != inst.query_id
            ]
            sims.sort(key=lambda item: (-item[1], item[0]))
            assert neighbor_map[inst.query_id].neighbors == sims[:2]

    def test_duplicate_ids_rejected(self):
        dataset = [_instance("q0", "a"), _instance("q0", "b")]
        with pytest.raises(AugmentError, match="duplicate"):
            mine_neighbors(dataset, k=1)

    def test_brute_force_oracle_at_scale(self):
        import random

        rng = random.Random(8)
        words = [f"w{i}" for i in range(12)]  # small vocab forces ties
        dataset = [
            _instance(f"q{i:03d}", " ".join(rng.choices(words, k=rng.randint(1, 5))))
            for i in range(80)
        ]
        neighbor_map = mine_neighbors(dataset, k=3)
        for inst in dataset:
            sims = [
                (other.query_id, similarity(inst.query, other.query))
                for other in dataset
                if other.query_id != inst.query_id
            ]
            sims.sort(key=lambda item: (-item[1], item[0]))
            assert neighbor_map[inst.query_id].neighbors == sims[:3]

    def test_brute_force_oracle_with_empty_and_duplicate_queries(self):
        import math
        import random

        rng = random.Random(11)
        words = [f"w{i}" for i in range(6)]
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 4))) for _ in range(8)] + ["", "?!"]
        dataset = [_instance(f"q{i:03d}", rng.choice(texts)) for i in range(40)]
        assert {"", "?!"} <= {inst.query for inst in dataset}
        for k in (3, len(dataset) - 1, len(dataset) + 5):
            neighbor_map = mine_neighbors(dataset, k=k)
            for inst in dataset:
                sims = [
                    (other.query_id, similarity(inst.query, other.query))
                    for other in dataset
                    if other.query_id != inst.query_id
                ]
                sims.sort(key=lambda item: (-item[1], item[0]))
                got = neighbor_map[inst.query_id].neighbors
                assert got == sims[:k]
                assert all(not math.isnan(sim) for _qid, sim in got)
                if not inst.query.strip("?!"):
                    assert {sim for _qid, sim in got} == {0.0}

    def test_brute_force_oracle_across_block_edges(self):
        """Mining scores a block of rows per call: the lists match the oracle
        over several blocks and a ragged last one, with an empty query and a
        repeated text on either side of a block edge, and ties across blocks."""
        import random

        rng = random.Random(35)
        m = 300
        step = _queries_per_block(m)
        assert m // step >= 2 and m % step  # at least three blocks, the last one short
        words = [f"w{i}" for i in range(5)]  # small vocab: ties cross blocks
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 4))) for _ in range(m)]
        texts[step - 2], texts[step + 1] = "", "?!"
        texts[step - 1] = texts[step] = texts[2 * step] = "w0 w1 w1"
        ids = [f"q{i:03d}" for i in range(m)]
        rng.shuffle(ids)  # id order, the tie-break, is not row order
        dataset = [_instance(qid, text) for qid, text in zip(ids, texts)]
        neighbor_map = mine_neighbors(dataset, k=4)
        for inst in dataset:
            sims = [
                (other.query_id, similarity(inst.query, other.query))
                for other in dataset
                if other.query_id != inst.query_id
            ]
            sims.sort(key=lambda item: (-item[1], item[0]))
            assert neighbor_map[inst.query_id].neighbors == sims[:4]


class TestExpand:
    def _trio(self):
        a = _instance("qa", "alpha question", positive="alpha pos", negative="alpha neg")
        b = _instance("qb", "beta question", positive="beta pos", negative="beta neg")
        c = _instance("qc", "gamma question", positive="gamma pos", negative="gamma neg")
        lookup = {inst.query_id: inst for inst in (a, b, c)}
        neighbors = NeighborSet(query_id="qa", neighbors=[("qb", 0.5), ("qc", 0.25)])
        return a, neighbors, lookup

    def test_full_neighbors_give_2k_plus_1(self):
        instance, neighbors, lookup = self._trio()
        pairs = expand(instance, neighbors, lookup, order_seed=0)
        assert len(pairs) == 5
        origins = [p.negative_origin for p in pairs]
        assert origins.count(ORIGIN_OWN_NEGATIVE) == 1
        assert origins.count(ORIGIN_NEIGHBOR_POSITIVE) == 2
        assert origins.count(ORIGIN_NEIGHBOR_NEGATIVE) == 2

    def test_k_zero_gives_single_pair(self):
        instance, _neighbors, lookup = self._trio()
        pairs = expand(instance, None, lookup, order_seed=0)
        assert len(pairs) == 1
        assert pairs[0].negative_origin == ORIGIN_OWN_NEGATIVE

    def test_collision_with_positive_dropped(self):
        instance, neighbors, lookup = self._trio()
        lookup["qb"] = _instance("qb", "beta question", positive="Alpha Pos.", negative="beta neg")
        pairs = expand(instance, neighbors, lookup, order_seed=0)
        assert len(pairs) == 4  # 2K with one collision dropped
        assert all(p.rejected != p.chosen for p in pairs)

    def test_unresolved_neighbor_names_the_id(self):
        instance, neighbors, lookup = self._trio()
        del lookup["qc"]
        with pytest.raises(UnresolvedNeighborError, match="qc"):
            expand(instance, neighbors, lookup, order_seed=0)

    def test_prompt_embeds_both_responses_in_recorded_order(self):
        instance, neighbors, lookup = self._trio()
        for pair in expand(instance, neighbors, lookup, order_seed=3):
            chosen_at = pair.prompt.find(pair.chosen)
            rejected_at = pair.prompt.find(pair.rejected)
            assert chosen_at >= 0 and rejected_at >= 0
            if pair.order == ORDER_CHOSEN_FIRST:
                assert chosen_at < rejected_at
            else:
                assert rejected_at < chosen_at
            assert instance.query in pair.prompt

    def test_chosen_is_always_the_instances_positive(self):
        instance, neighbors, lookup = self._trio()
        rendered = "Explanation: qa positive why\nAnswer: alpha pos"
        for pair in expand(instance, neighbors, lookup, order_seed=9):
            assert pair.chosen == rendered
            assert pair.source_query_ids[0] == "qa"


class TestAugmentDataset:
    def _dataset(self, n, k_words=3):
        return [
            _instance(
                f"q{i:03d}",
                " ".join(f"word{(i + j) % (n + 2)}" for j in range(k_words)),
                positive=f"pos {i}",
                negative=f"neg {i}",
            )
            for i in range(n)
        ]

    def test_a_pair_retains_fewer_bytes_than_its_prompt(self):
        """A pair keeps its question, and its responses are strings shared by
        every pair that uses them, so what augment_dataset keeps per pair is
        less than the prompt the pair renders."""
        dataset = self._dataset(60)
        augment_dataset(dataset, 3, order_seed=0)  # loads the template, fills the normalize cache
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            pairs, _report = augment_dataset(dataset, 3, order_seed=0)
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        prompt_bytes = sum(sys.getsizeof(pair.prompt) for pair in pairs) / len(pairs)
        assert retained / len(pairs) < prompt_bytes

    def test_three_instances_k1_gives_nine(self):
        pairs, report = augment_dataset(self._dataset(3), k=1, order_seed=0)
        assert len(pairs) == 9
        assert report.pairs == 9
        assert report.collision_dropped == 0
        assert report.own_negative == 3

    def test_k_zero_no_mining(self):
        pairs, report = augment_dataset(self._dataset(4), k=0, order_seed=0)
        assert len(pairs) == 4
        assert report.neighbor_positive == report.neighbor_negative == 0

    def test_equal_seeds_equal_output(self):
        first, _ = augment_dataset(self._dataset(5), k=2, order_seed=42)
        second, _ = augment_dataset(self._dataset(5), k=2, order_seed=42)
        assert [p.to_dict() for p in first] == [p.to_dict() for p in second]

    def test_report_totals_cross_check(self):
        pairs, report = augment_dataset(self._dataset(6), k=2, order_seed=1)
        assert report.pairs == len(pairs)
        assert report.pairs == (
            report.own_negative + report.neighbor_positive + report.neighbor_negative
        )
        assert report.chosen_first + report.rejected_first == report.pairs

    def test_order_balance_at_scale(self):
        pairs, report = augment_dataset(self._dataset(250), k=2, order_seed=2026)
        assert len(pairs) >= 1000
        fraction = report.chosen_first / report.pairs
        assert 0.45 <= fraction <= 0.55

    def test_no_degenerate_pairs_property(self):
        from ragsel.evaluation import normalize

        pairs, _ = augment_dataset(self._dataset(20), k=3, order_seed=5)
        for pair in pairs:
            assert normalize(pair.chosen) != normalize(pair.rejected)

    def test_empty_dataset_rejected(self):
        with pytest.raises(AugmentError):
            augment_dataset([], k=1, order_seed=0)
