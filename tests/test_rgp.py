import itertools
import json
import random
from unittest import mock

import pytest

from conftest import CountingIndex, make_corpus
from ragsel import retrieval
from ragsel.data import QAPair
from ragsel.llm import ScriptedBackend
from ragsel.pipeline import CandidateResponse, PromptSet, SOURCE_INTERNAL, SOURCE_RETRIEVAL
from ragsel.retrieval import build_index
from ragsel.rgp import (
    MAX_PASSAGES,
    CandidateBundle,
    JudgeError,
    Judgment,
    build,
    filter_instance,
    generate_candidates,
    judge,
    load_instances,
    save_instances,
)


class TestJudgeLexical:
    def test_case_insensitive_equality(self):
        assert judge("practice", ["Practice"]) is True

    def test_wrong_answer(self):
        assert judge("California", ["Dwight D Eisenhower"]) is False

    def test_containment_after_normalization(self):
        assert judge("the Kensington and Chelsea borough", ["Kensington and Chelsea (borough)"]) is True

    def test_alias_list(self):
        assert judge("stagecoach", ["Stagecoaches", "stagecoach"]) is True

    def test_empty_candidate_is_incorrect(self):
        assert judge("", ["anything"]) is False

    def test_empty_golds_rejected(self):
        with pytest.raises(Exception):
            judge("x", [])


class TestJudgeLlm:
    def test_yes_verdict(self):
        backend = ScriptedBackend({"candidate answer: practice": "Yes"})
        assert judge("practice", ["Practice"], mode="llm", backend=backend) is True

    def test_no_verdict_with_noise(self):
        backend = ScriptedBackend({"candidate answer: california": "no, they differ."})
        assert judge("California", ["Eisenhower"], mode="llm", backend=backend) is False

    def test_unparseable_verdict_raises(self):
        backend = ScriptedBackend({"candidate answer: x": "absolutely unclear"})
        with pytest.raises(JudgeError):
            judge("x", ["y"], mode="llm", backend=backend)


def _bundle(internal_answer, grounded_answer, qa_id="q1", golds=("gold",)):
    qa = QAPair(id=qa_id, question=f"question {qa_id}", golden_answers=list(golds))
    return CandidateBundle(
        qa=qa,
        internal=CandidateResponse(internal_answer, f"expl-i-{qa_id}", SOURCE_INTERNAL, "raw"),
        grounded=CandidateResponse(grounded_answer, f"expl-g-{qa_id}", SOURCE_RETRIEVAL, "raw"),
        n_passages_used=2,
    )


class TestFilter:
    def test_internal_correct_grounded_wrong(self):
        instance = filter_instance(_bundle("gold", "dross"), Judgment(True, False, "lexical"))
        assert instance is not None
        assert instance.positive_source == SOURCE_INTERNAL
        assert instance.positive.answer == "gold"
        assert instance.negative.answer == "dross"

    def test_grounded_correct_internal_wrong(self):
        instance = filter_instance(_bundle("dross", "gold"), Judgment(False, True, "lexical"))
        assert instance is not None
        assert instance.positive_source == SOURCE_RETRIEVAL

    def test_both_correct_dropped(self):
        assert filter_instance(_bundle("gold", "gold two"), Judgment(True, True, "lexical")) is None

    def test_both_wrong_dropped(self):
        assert filter_instance(_bundle("a", "b"), Judgment(False, False, "lexical")) is None

    def test_normalized_equal_answers_dropped_despite_disagreement(self):
        bundle = _bundle("The Gold.", "gold")
        assert filter_instance(bundle, Judgment(True, False, "llm")) is None

    def test_truth_table_over_randomized_judgments(self):
        rng = random.Random(7)
        kept = 0
        expected = 0
        for i in range(1000):
            verdicts = (rng.random() < 0.5, rng.random() < 0.5)
            bundle = _bundle(f"answer {i} alpha", f"answer {i} beta", qa_id=f"q{i}")
            if filter_instance(bundle, Judgment(*verdicts, judge_tag="lexical")) is not None:
                kept += 1
            expected += int(verdicts[0] != verdicts[1])
        assert kept == expected


def _fixture(tmp_path, n=6):
    records = [
        {"id": f"d{i}", "text": f"marker{i} text holds gadget {i} value"} for i in range(1, n + 1)
    ]
    corpus = make_corpus(tmp_path, records)
    index = build_index(corpus)
    qa = [
        QAPair(id=f"q{i}", question=f"What about marker{i}?", golden_answers=[f"gadget {i}"])
        for i in range(1, n + 1)
    ]
    return corpus, index, qa


def _script(n, internal_right, grounded_right):
    script = {}
    for i in range(1, n + 1):
        ia = f"gadget {i}" if i in internal_right else f"bogus internal {i}"
        ga = f"gadget {i}" if i in grounded_right else f"bogus grounded {i}"
        script[f"using your own knowledge&&marker{i}"] = f"Explanation: memory {i}. Answer: {ia}"
        script[f"using the passages&&marker{i}"] = f"Explanation: passages {i}. Answer: {ga}"
    return ScriptedBackend(script)


def _hits(index, qa):
    """The hits `build` hands generate_candidates for one item."""
    return index.retrieve(qa.question, MAX_PASSAGES).hits


class TestGenerateCandidates:
    def test_seed_fixes_passage_count(self, tmp_path):
        # Every passage shares the query term, so all 5 are retrievable and
        # the seeded draw alone decides how many enter the prompt.
        records = [{"id": f"d{i}", "text": f"shared topic plus detail{i}"} for i in range(5)]
        corpus = make_corpus(tmp_path, records, "shared")
        index = build_index(corpus)
        qa = QAPair(id="q1", question="shared topic?", golden_answers=["whatever"])
        seen = {}

        class Spy:
            tag = "spy"

            def complete(self, request):
                if "passages" in request.user_prompt.lower():
                    seen["rag_prompt"] = request.user_prompt
                return "Explanation: e. Answer: a"

        target = next(s for s in itertools.count() if random.Random(s).randint(1, 5) == 3)
        bundle = generate_candidates(qa, _hits(index, qa), corpus, Spy(), PromptSet.default(), target)
        assert bundle.n_passages_used == 3
        assert "[3]" in seen["rag_prompt"] and "[4]" not in seen["rag_prompt"]

    def test_draw_capped_by_available_passages(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path)
        backend = _script(6, {1}, {1})
        target = next(s for s in itertools.count() if random.Random(s).randint(1, 5) == 3)
        bundle = generate_candidates(qa[0], _hits(index, qa[0]), corpus, backend, PromptSet.default(), target)
        assert bundle.n_passages_used == 1  # only one passage matches marker1

    def test_fields_come_from_script(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path)
        backend = _script(6, {1}, set())
        bundle = generate_candidates(qa[0], _hits(index, qa[0]), corpus, backend, PromptSet.default(), 0)
        assert bundle.usable
        assert bundle.internal.answer == "gadget 1"
        assert bundle.grounded.answer == "bogus grounded 1"

    def test_equal_seeds_equal_bundles(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path)
        backend = _script(6, {1, 2}, {2, 3})
        first = generate_candidates(qa[1], _hits(index, qa[1]), corpus, backend, PromptSet.default(), 99)
        second = generate_candidates(qa[1], _hits(index, qa[1]), corpus, backend, PromptSet.default(), 99)
        assert first == second

    def test_generation_error_marks_bundle_unusable(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path)
        backend = ScriptedBackend({"nothing matches": "irrelevant"})
        bundle = generate_candidates(qa[0], _hits(index, qa[0]), corpus, backend, PromptSet.default(), 0)
        assert not bundle.usable
        assert "ScriptMissError" in bundle.error


def _blocks_fixture(tmp_path, n_qa=10):
    """Every passage shares two question words, so each question has all 8
    passages as hits and the seeded draw decides how many it sees. Question
    i's own passage (item i % 8) ranks first, and its grounded answer is
    right only when that passage is in its prompt."""
    records = [{"id": f"d{j}", "text": f"shared topic item{j} {'detail ' * j}gadget {j}"} for j in range(8)]
    corpus = make_corpus(tmp_path, records, "blocks")
    qa = [QAPair(id=f"q{i:02d}", question=f"shared topic item{i % 8} key{i:02d}?",
                 golden_answers=[f"gadget {i % 8}"]) for i in range(n_qa)]
    script = {}
    for i in range(n_qa):
        own = f"gadget {i % 8}"
        script[f"using your own knowledge&&key{i:02d}"] = f"Explanation: m. Answer: {own if i % 2 else 'no'}"
        script[f"using the passages&&key{i:02d}"] = "Explanation: p. Answer: no"
        script[f"using the passages&&key{i:02d}&&{own}"] = f"Explanation: p. Answer: {own}"
    return corpus, build_index(corpus), qa, script


class TestBuildRetrievesInBlocks:
    def _build(self, index, corpus, qa, script, cap):
        backend = ScriptedBackend(script)
        backend.max_in_flight = cap  # an in-process backend that runs `cap` items at once
        instances, report = build(qa, index, corpus, backend, PromptSet.default(), seed=3)
        return json.dumps([inst.to_dict() for inst in instances]), json.dumps(report.to_dict())

    @pytest.mark.parametrize("cap", [1, 4])
    def test_build_scores_its_questions_in_blocks(self, tmp_path, cap):
        corpus, index, qa, script = _blocks_fixture(tmp_path)
        with mock.patch.object(retrieval, "SCORE_BUDGET", index.N):  # one question per block
            expected = self._build(index, corpus, qa, script, 1)
        counting = CountingIndex(index)
        with mock.patch.object(retrieval, "SCORE_BUDGET", 3 * index.N):  # three questions per block
            got = self._build(counting, corpus, qa, script, cap)
        assert (counting.retrieves, counting.many_calls) == (0, 1)
        # Blocks of three, each taken only once the one before it is used up.
        assert "".join(counting.events) == "qqqrrr" * 3 + "qr"
        assert got == expected
        instances, report = map(json.loads, got)
        # Every grounded answer saw its own passage: the even items are kept, retrieval-positive.
        assert report["kept_positive_retrieval"] == 5 and report["both_correct"] == 5
        assert len({inst["meta"]["n_passages"] for inst in instances}) > 1


class TestBuild:
    def test_truth_table_fixture_keeps_two(self, tmp_path):
        # q1: internal right only; q2: grounded right only; q3: both; q4: neither.
        corpus, index, qa = _fixture(tmp_path, n=4)
        backend = _script(4, internal_right={1, 3}, grounded_right={2, 3})
        instances, report = build(qa, index, corpus, backend, PromptSet.default(), seed=5)
        assert len(instances) == 2
        assert {inst.positive_source for inst in instances} == {SOURCE_INTERNAL, SOURCE_RETRIEVAL}
        assert report.kept == 2
        assert report.both_correct == 1
        assert report.both_incorrect == 1
        assert report.kept_positive_internal == 1
        assert report.kept_positive_retrieval == 1
        assert report.total == 4

    def test_empty_qa_set(self, tmp_path):
        corpus, index, _qa = _fixture(tmp_path)
        backend = ScriptedBackend({})
        instances, report = build([], index, corpus, backend, PromptSet.default())
        assert instances == []
        assert report.total == 0
        assert report.kept == 0

    def test_retained_instances_rejudge_consistently(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path, n=6)
        backend = _script(6, internal_right={1, 2, 5}, grounded_right={2, 3, 4})
        instances, _report = build(qa, index, corpus, backend, PromptSet.default(), seed=1)
        assert instances, "fixture should keep at least one instance"
        for inst in instances:
            assert judge(inst.positive.answer, [inst.golden]) is True
            assert judge(inst.negative.answer, [inst.golden]) is False

    def test_quarantine_on_judge_error(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path, n=1)
        script = {
            "using your own knowledge&&marker1": "Explanation: m. Answer: gadget 1",
            "using the passages&&marker1": "Explanation: p. Answer: bogus 1",
            "candidate answer": "shrug",
        }
        backend = ScriptedBackend(script)
        instances, report = build(
            qa, index, corpus, backend, PromptSet.default(), judge_mode="llm"
        )
        assert instances == []
        assert report.quarantined == 1
        assert "verdict" in report.quarantine_reasons[0]

    def test_judge_backend_failure_is_quarantined(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path, n=3)
        # Answers both candidate prompts of every item, but not the judge prompt.
        backend = _script(3, internal_right={1}, grounded_right={2})
        instances, report = build(qa, index, corpus, backend, PromptSet.default(), judge_mode="llm")
        assert instances == []
        assert report.quarantined == report.total == 3
        assert [r.split(": ")[:2] for r in report.quarantine_reasons] == [
            ["q1", "ScriptMissError"], ["q2", "ScriptMissError"], ["q3", "ScriptMissError"]
        ]

    def test_build_deterministic_files(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path, n=5)
        backend = _script(5, internal_right={1, 4}, grounded_right={2, 4})
        first, _ = build(qa, index, corpus, backend, PromptSet.default(), seed=11)
        second, _ = build(qa, index, corpus, backend, PromptSet.default(), seed=11)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_instances(first, path_a)
        save_instances(second, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_instances_round_trip(self, tmp_path):
        corpus, index, qa = _fixture(tmp_path, n=4)
        backend = _script(4, internal_right={1}, grounded_right={2})
        instances, _ = build(qa, index, corpus, backend, PromptSet.default(), seed=3)
        path = tmp_path / "instances.jsonl"
        save_instances(instances, path)
        assert load_instances(path) == instances
