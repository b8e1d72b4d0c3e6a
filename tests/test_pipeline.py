import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingIndex, make_corpus
from ragsel import retrieval
from ragsel.augment import ORDER_CHOSEN_FIRST, expand
from ragsel.corpus import Passage
from ragsel.data import QAPair
from ragsel.llm import ScriptedBackend
from ragsel.pipeline import (
    CHOSEN_NEITHER,
    MODE_LLM_ONLY,
    MODE_SELF_SELECT,
    MODE_STANDARD_RAG,
    MODES,
    ORDER_INTERNAL_FIRST,
    ORDER_RETRIEVAL_FIRST,
    PromptSet,
    PromptTemplateError,
    ResponseParseError,
    SOURCE_INTERNAL,
    SOURCE_RETRIEVAL,
    audit_selection,
    gen_llm_answer,
    gen_retrieved_answer,
    load_records,
    load_template,
    parse_response,
    render_passages,
    render_response,
    run_dataset,
    save_records,
    select,
    select_prompt,
)
from ragsel.retrieval import build_index
from ragsel.rgp import JUDGE_LLM, PreferenceInstance, Response, judge


class TestParseResponse:
    def test_explanation_then_answer(self):
        explanation, answer = parse_response(
            "Explanation: In ancient Greek philosophy, the term praxis refers to the "
            "application or practice of... Answer: practice"
        )
        assert answer == "practice"
        assert explanation.startswith("In ancient Greek philosophy")

    def test_answer_only(self):
        assert parse_response("Answer: X") == ("", "X")

    def test_last_marker_wins(self):
        explanation, answer = parse_response("Explanation: A. Answer: B. Answer: C")
        assert answer == "C"
        assert explanation == "A. Answer: B."

    def test_case_insensitive_markers(self):
        assert parse_response("EXPLANATION: why\nANSWER: yes") == ("why", "yes")

    def test_surrounding_punctuation_trimmed(self):
        assert parse_response("Answer: \"California.\"")[1] == "California"

    def test_missing_marker_raises(self):
        with pytest.raises(ResponseParseError):
            parse_response("no marker anywhere in this text")

    def test_empty_answer_raises(self):
        with pytest.raises(ResponseParseError):
            parse_response("Explanation: something. Answer: ...")


_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


class TestRenderParseIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        answer=st.lists(_WORD, min_size=1, max_size=4).map(" ".join),
        explanation=st.lists(_WORD, min_size=0, max_size=8).map(" ".join),
    )
    def test_round_trip(self, answer, explanation):
        parsed_explanation, parsed_answer = parse_response(render_response(answer, explanation))
        assert parsed_answer == answer
        assert parsed_explanation == explanation


class TestPromptSet:
    def test_default_templates_load(self):
        prompts = PromptSet.default()
        assert prompts.llm_only_prompt("q?") == load_template("llm_only").replace("{question}", "q?")
        assert prompts.fewshot_examples == []

    def test_placeholder_validation(self):
        # Each packaged template uses exactly the placeholders its callers fill.
        found = {
            name: set(re.findall(r"\{(\w+)\}", load_template(name)))
            for name in ("llm_only", "rag", "select", "judge")
        }
        assert found == {
            "llm_only": {"question"},
            "rag": {"question", "passages"},
            "select": {"question", "candidate_1", "candidate_2"},
            "judge": {"golden", "candidate"},
        }

    def test_fewshot_must_be_zero_or_three(self):
        with pytest.raises(PromptTemplateError):
            PromptSet(fewshot_examples=[None])  # length 1

    def test_fewshot_prompt_carries_three_blocks(self):
        prompts = PromptSet.default(shots=3)
        prompt = prompts.llm_only_prompt("the real question?")
        for exemplar in prompts.fewshot_examples:
            assert exemplar.question in prompt
        assert prompt.count("Question:") == 4  # 3 exemplars + the query itself
        assert len(prompts.fewshot_examples) == 3

    def test_fewshot_applies_to_rag_prompt_but_not_selection(self):
        prompts = PromptSet.default(shots=3)
        rag = prompts.rag_prompt("q?", _passages(2))
        selectp = select_prompt("q?", "cand one", "cand two")
        for exemplar in prompts.fewshot_examples:
            assert exemplar.question in rag
            assert exemplar.question not in selectp


def _passages(n, prefix="p", words=6):
    return [
        Passage(id=f"{prefix}{i}", title="", text=" ".join(f"w{i}x{j}" for j in range(words)))
        for i in range(1, n + 1)
    ]


class TestRenderPassages:
    def test_rank_order_numbering(self):
        lines = render_passages(_passages(3)).splitlines()
        assert lines[0].startswith("[1] ")
        assert lines[2].startswith("[3] ")

    def test_title_in_parentheses_when_present(self):
        passage = Passage(id="a", title="A Title", text="body text")
        assert render_passages([passage]) == "[1] (A Title) body text"
        untitled = Passage(id="a", title="", text="body text")
        assert render_passages([untitled]) == "[1] body text"


class TestGenLlmAnswer:
    def test_fig_style_reply_parses(self):
        backend = ScriptedBackend(
            {"ctrl+shift+t": "Explanation: Reopens the last closed tab. Answer: New tab"}
        )
        candidate = gen_llm_answer(backend, PromptSet.default(), "What does Ctrl+Shift+T do?")
        assert candidate.answer == "New tab"
        assert candidate.explanation == "Reopens the last closed tab."
        assert candidate.source == SOURCE_INTERNAL
        assert candidate.parse_ok

    def test_parse_failure_flags_candidate(self):
        backend = ScriptedBackend({"q1": "I refuse to follow the format"})
        candidate = gen_llm_answer(backend, PromptSet.default(), "q1")
        assert not candidate.parse_ok
        assert candidate.answer == ""
        assert candidate.raw_text == "I refuse to follow the format"


def _corpus_of(tmp_path, passages):
    return make_corpus(tmp_path, [{"id": p.id, "title": p.title, "text": p.text} for p in passages])


def _hits(passages):
    return [(p.id, float(len(passages) - rank)) for rank, p in enumerate(passages)]


class _Spy:
    tag = "spy"

    def __init__(self):
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.user_prompt)
        return "Explanation: from passages. Answer: ok"


class TestGenRetrievedAnswer:
    def test_prompt_lists_passages_in_rank_order(self, tmp_path):
        passages = _passages(5)
        ranked = passages[2:] + passages[:2]  # hit order, not corpus order
        spy = _Spy()
        candidate, used = gen_retrieved_answer(
            spy, PromptSet.default(), "q?", _hits(ranked), _corpus_of(tmp_path, passages)
        )
        assert candidate.source == SOURCE_RETRIEVAL
        assert used == [p.id for p in ranked]
        assert spy.prompts == [PromptSet.default().rag_prompt("q?", ranked)]
        positions = [spy.prompts[0].index(p.text) for p in ranked]
        assert positions == sorted(positions)

    def test_no_hits_gives_none_with_zero_backend_calls(self, tmp_path):
        spy = _Spy()
        assert gen_retrieved_answer(spy, PromptSet.default(), "q?", [], _corpus_of(tmp_path, _passages(2))) is None
        assert spy.prompts == []

    def test_budget_truncates_lowest_ranked(self, tmp_path):
        rendered = []

        class CountingPrompts(PromptSet):
            def rag_prompt(self, question, passages):
                rendered.append(len(passages))
                return super().rag_prompt(question, passages)

        passages = _passages(5, words=30)
        budget = len(PromptSet.default().rag_prompt("q?", passages[:3]))
        spy = _Spy()
        _cand, used = gen_retrieved_answer(
            spy, CountingPrompts(), "q?", _hits(passages), _corpus_of(tmp_path, passages), budget=budget
        )
        assert used == [p.id for p in passages[:3]]
        assert spy.prompts == [PromptSet.default().rag_prompt("q?", passages[:3])]
        assert rendered == [5, 4, 3]  # the prompt sent is the last one rendered, not rendered again

    def test_budget_never_drops_below_one(self, tmp_path):
        prompts = PromptSet.default()
        passages = _passages(3, words=50)
        spy = _Spy()
        _cand, used = gen_retrieved_answer(
            spy, prompts, "q?", _hits(passages), _corpus_of(tmp_path, passages), budget=10
        )
        assert used == [passages[0].id]
        assert spy.prompts == [prompts.rag_prompt("q?", passages[:1])]


@pytest.fixture
def candidate_pair(tmp_path):
    internal = gen_llm_answer(
        ScriptedBackend({"llm probe": "Explanation: from memory. Answer: New tab"}),
        PromptSet.default(),
        "llm probe",
    )
    passages = _passages(1)
    grounded = gen_retrieved_answer(
        ScriptedBackend({"rag probe": "Explanation: from passages. Answer: T"}),
        PromptSet.default(),
        "rag probe",
        _hits(passages),
        _corpus_of(tmp_path, passages),
    )[0]
    return internal, grounded


class TestSelect:
    def test_selector_restating_internal_answer(self, candidate_pair):
        internal, grounded = candidate_pair
        selector = ScriptedBackend(
            {"two candidate responses": "Explanation: Reopens the tab. Answer: New tab"}
        )
        record = select(
            selector, "What does Ctrl+Shift+T do?", internal, grounded, 0,
            item_id="q1", passages_used=["p1"],
        )
        assert record.chosen_source == SOURCE_INTERNAL
        assert record.final_answer == "New tab"
        assert record.passages_used == ["p1"]

    def test_reply_matching_neither_is_flagged(self, candidate_pair):
        internal, grounded = candidate_pair
        selector = ScriptedBackend({"two candidate responses": "Answer: Zebra stripes"})
        record = select(selector, "q?", internal, grounded, 0)
        assert record.chosen_source == CHOSEN_NEITHER
        assert record.selector_raw == "Answer: Zebra stripes"

    def test_containment_fallback(self, candidate_pair):
        internal, grounded = candidate_pair
        selector = ScriptedBackend(
            {"two candidate responses": "Answer: the shortcut opens a New Tab right away"}
        )
        record = select(selector, "q?", internal, grounded, 0)
        assert record.chosen_source == SOURCE_INTERNAL
        assert record.final_answer == internal.answer

    def test_order_seed_flips_presentation_not_choice(self, candidate_pair):
        internal, grounded = candidate_pair
        # Keyed on candidate content ("new tab"), not position.
        selector = ScriptedBackend(
            {"two candidate responses&&new tab": "Explanation: Reopens. Answer: New tab"}
        )
        orders = {}
        for seed in range(16):
            record = select(selector, "q?", internal, grounded, seed)
            orders[record.presentation_order] = record.chosen_source
        assert set(orders) == {ORDER_INTERNAL_FIRST, ORDER_RETRIEVAL_FIRST}
        assert set(orders.values()) == {SOURCE_INTERNAL}

    def test_presentation_order_is_uniformish(self):
        flips = [random.Random(seed).random() < 0.5 for seed in range(200)]
        assert 0.35 < sum(flips) / len(flips) < 0.65


class TestOneSelectionPrompt:
    def test_select_and_expand_send_select_prompt_of_their_ordered_candidates(self, candidate_pair):
        internal, grounded = candidate_pair
        sent = []

        class Spy:
            tag = "spy"

            def complete(self, request):
                sent.append(request.user_prompt)
                return "Answer: New tab"

        for seed in range(8):
            record = select(Spy(), "q?", internal, grounded, seed)
            first, second = (
                (internal, grounded) if record.presentation_order == ORDER_INTERNAL_FIRST else (grounded, internal)
            )
            assert sent.pop() == select_prompt(
                "q?", render_response(first.answer, first.explanation), render_response(second.answer, second.explanation)
            )

        instance = PreferenceInstance(
            query_id="q1", query="who?", golden="good",
            positive=Response(answer="good", explanation="right"),
            negative=Response(answer="bad", explanation="wrong"),
            positive_source=SOURCE_INTERNAL, n_passages=1, judge_tag="lexical",
        )
        for seed in range(8):
            (pair,) = expand(instance, None, {"q1": instance}, order_seed=seed)
            first, second = (
                (pair.chosen, pair.rejected) if pair.order == ORDER_CHOSEN_FIRST else (pair.rejected, pair.chosen)
            )
            assert pair.prompt == select_prompt("who?", first, second)

    def test_a_value_holding_a_placeholder_is_inserted_as_it_is(self):
        """Each placeholder is filled once: a question naming a candidate slot
        is sent as asked, and a gold answer naming the candidate slot is not
        replaced by the candidate, so the judge never compares it with itself."""
        sent = []

        class Spy:
            tag = "spy"

            def complete(self, request):
                sent.append(request.user_prompt)
                return "Yes"

        prompt = select_prompt("what is {candidate_2}?", "A1", "B2")
        assert "\nQuestion: what is {candidate_2}?\n" in prompt
        assert prompt.endswith("Candidate 1:\nA1\n\nCandidate 2:\nB2\n")
        judge("X", ["{candidate}"], mode=JUDGE_LLM, backend=Spy())
        assert "Accepted answers: {candidate}\nCandidate answer: X\n" in sent.pop()


def _desk_fixture(tmp_path):
    records = [
        {"id": f"d{i}", "text": f"marker{i} holds the value gadget {i}"} for i in range(1, 4)
    ]
    corpus = make_corpus(tmp_path, records)
    index = build_index(corpus)
    qa = [QAPair(id=f"q{i}", question=f"What about marker{i}?", golden_answers=[f"gadget {i}"]) for i in range(1, 4)]
    script = {}
    for i in range(1, 4):
        # Internal arm right on q1 only; grounded arm right on q1 and q2.
        internal_answer = f"gadget {i}" if i == 1 else f"bogus {i}"
        grounded_answer = f"gadget {i}" if i <= 2 else f"bogus {i}"
        script[f"using your own knowledge&&marker{i}"] = (
            f"Explanation: memory for marker{i}. Answer: {internal_answer}"
        )
        script[f"using the passages&&marker{i}"] = (
            f"Explanation: passages for marker{i}. Answer: {grounded_answer}"
        )
        script[f"two candidate responses&&marker{i}&&gadget {i}"] = (
            f"Explanation: picking the right one. Answer: gadget {i}"
        )
        script[f"two candidate responses&&marker{i}"] = (
            f"Explanation: both look wrong. Answer: bogus {i}"
        )
    backend = ScriptedBackend(script)
    return corpus, index, qa, backend


def _blocks_fixture(tmp_path, n_qa=10):
    """Question i asks about topic i, which passage d{i} holds for i < 8;
    the last two questions find no passage. The memory answer is right on
    the odd items, the grounded one always, and the selector picks it."""
    records = [{"id": f"d{j}", "text": f"topic{j} holds the value gadget {j}"} for j in range(8)]
    corpus = make_corpus(tmp_path, records, "blocks")
    qa = [QAPair(id=f"q{i:02d}", question=f"What about topic{i} key{i:02d}?", golden_answers=[f"gadget {i}"])
          for i in range(n_qa)]
    script = {}
    for i in range(n_qa):
        script[f"using your own knowledge&&key{i:02d}"] = \
            f"Explanation: memory. Answer: {f'gadget {i}' if i % 2 else 'bogus'}"
        script[f"using the passages&&key{i:02d}"] = f"Explanation: passages. Answer: gadget {i}"
        script[f"two candidate responses&&key{i:02d}"] = f"Explanation: pick. Answer: gadget {i}"
    return corpus, build_index(corpus), qa, script


class TestRunRetrievesInBlocks:
    def _run(self, mode, index, corpus, qa, script, cap):
        backend = ScriptedBackend(script)
        backend.max_in_flight = cap  # an in-process backend that runs `cap` items at once
        records = run_dataset(mode, qa, backend, PromptSet.default(), index=index, corpus=corpus, order_seed=3)
        return json.dumps([record.to_dict() for record in records])

    @pytest.mark.parametrize("cap", [1, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_run_scores_its_questions_in_blocks(self, tmp_path, mode, cap):
        corpus, index, qa, script = _blocks_fixture(tmp_path)
        with mock.patch.object(retrieval, "SCORE_BUDGET", index.N):  # one question per block
            expected = self._run(mode, index, corpus, qa, script, 1)
        counting = CountingIndex(index)
        with mock.patch.object(retrieval, "SCORE_BUDGET", 3 * index.N):  # three questions per block
            got = self._run(mode, counting, corpus, qa, script, cap)
        if mode == MODE_LLM_ONLY:
            assert (counting.retrieves, counting.many_calls, counting.events) == (0, 0, [])
        else:
            assert (counting.retrieves, counting.many_calls) == (0, 1)
            # Blocks of three, each taken only once the one before it is used up.
            assert "".join(counting.events) == "qqqrrr" * 3 + "qr"
        assert got == expected
        records = json.loads(got)
        assert not any(record["error"] for record in records)
        if mode != MODE_LLM_ONLY:
            assert [record["passages_used"] for record in records] == [[f"d{i}"] for i in range(8)] + [[], []]


class TestRunDataset:
    def test_llm_only_contract(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(MODE_LLM_ONLY, qa[:2], backend, PromptSet.default())
        assert len(records) == 2
        assert all(r.grounded is None for r in records)
        assert all(r.passages_used == [] for r in records)
        assert [r.id for r in records] == ["q1", "q2"]

    def test_standard_rag_contract(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(
            MODE_STANDARD_RAG, qa, backend, PromptSet.default(), index=index, corpus=corpus
        )
        assert all(r.internal is None for r in records)
        assert all(r.final_answer == r.grounded.answer for r in records)
        assert records[0].passages_used == ["d1"]

    def test_self_select_picks_the_correct_candidate(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(
            MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus
        )
        assert records[0].final_answer == "gadget 1"
        assert records[1].final_answer == "gadget 2"
        assert records[1].chosen_source == SOURCE_RETRIEVAL
        assert records[2].final_answer == "bogus 3"

    def test_per_item_errors_do_not_abort_batch(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        bad = qa + [QAPair(id="qX", question="unknown topic entirely", golden_answers=["?"])]
        records = run_dataset(MODE_LLM_ONLY, bad, backend, PromptSet.default())
        assert len(records) == 4
        assert records[3].error is not None
        assert records[3].id == "qX"

    def test_empty_retrieval_falls_back_without_passages(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        extra_script = ScriptedBackend(
            {
                "using your own knowledge&&offtopic": "Explanation: memory. Answer: fallback",
            }
        )
        records = run_dataset(
            MODE_STANDARD_RAG,
            [QAPair(id="q9", question="offtopic zzz", golden_answers=["fallback"])],
            extra_script,
            PromptSet.default(),
            index=index,
            corpus=corpus,
        )
        assert records[0].passages_used == []
        assert records[0].final_answer == "fallback"

    def test_audit_counts_neither(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(
            MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus
        )
        audit = audit_selection(records)
        assert audit["n"] == 3
        assert audit["neither"] == 0
        assert audit["neither_fraction"] == 0.0

    def test_records_round_trip_through_jsonl(self, tmp_path):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(
            MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus
        )
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        loaded = load_records(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_save_failing_partway_leaves_no_file_and_an_existing_one_as_it_was(self, tmp_path, disk_full_on_write):
        corpus, index, qa, backend = _desk_fixture(tmp_path)
        records = run_dataset(
            MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus
        )
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(OSError, match="No space left"):
            save_records(records, out / "records.jsonl")
        assert list(out.iterdir()) == []
        (out / "records.jsonl").write_bytes(b'{"earlier": "run"}\n')
        with pytest.raises(OSError, match="No space left"):
            save_records(records, out / "records.jsonl")
        assert [p.name for p in out.iterdir()] == ["records.jsonl"]
        assert (out / "records.jsonl").read_bytes() == b'{"earlier": "run"}\n'
