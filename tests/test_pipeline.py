import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from ragsel.corpus import Passage
from ragsel.data import QAPair
from ragsel.llm import ScriptedBackend
from ragsel.pipeline import (
    CHOSEN_NEITHER,
    MODE_LLM_ONLY,
    MODE_SELF_SELECT,
    MODE_STANDARD_RAG,
    ORDER_INTERNAL_FIRST,
    ORDER_RETRIEVAL_FIRST,
    PromptSet,
    PromptTemplateError,
    ResponseParseError,
    SOURCE_INTERNAL,
    SOURCE_RETRIEVAL,
    audit_selection,
    fit_passages,
    gen_llm_answer,
    gen_rag_answer,
    load_records,
    parse_response,
    render_passages,
    render_response,
    run_dataset,
    save_records,
    select,
)
from ragsel.retrieval import build_index


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
        assert "{question}" in prompts.llm_only_template
        assert prompts.fewshot_examples == []

    def test_placeholder_validation(self):
        with pytest.raises(PromptTemplateError):
            PromptSet(
                llm_only_template="no placeholder at all",
                rag_template="{question} {passages}",
                select_template="{question} {candidate_1} {candidate_2}",
            )
        with pytest.raises(PromptTemplateError):
            PromptSet(
                llm_only_template="{question} {extra}",
                rag_template="{question} {passages}",
                select_template="{question} {candidate_1} {candidate_2}",
            )

    def test_fewshot_must_be_zero_or_three(self):
        prompts = PromptSet.default()
        with pytest.raises(PromptTemplateError):
            PromptSet(
                llm_only_template=prompts.llm_only_template,
                rag_template=prompts.rag_template,
                select_template=prompts.select_template,
                fewshot_examples=[None],  # length 1
            )

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
        selectp = prompts.select_prompt("q?", "cand one", "cand two")
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


class TestGenRagAnswer:
    def test_prompt_lists_passages_in_rank_order(self):
        seen = {}

        class Spy:
            tag = "spy"

            def complete(self, request):
                seen["prompt"] = request.user_prompt
                return "Explanation: from passages. Answer: ok"

        passages = _passages(5)
        candidate, used = gen_rag_answer(Spy(), PromptSet.default(), "q?", passages)
        assert candidate.source == SOURCE_RETRIEVAL
        assert used == [p.id for p in passages]
        prompt = seen["prompt"]
        positions = [prompt.index(f"[{k}]") for k in range(1, 6)]
        assert positions == sorted(positions)

    def test_zero_passages_is_a_precondition_error(self):
        backend = ScriptedBackend({"q": "Answer: x"})
        with pytest.raises(Exception, match="at least one passage"):
            gen_rag_answer(backend, PromptSet.default(), "q", [])

    def test_budget_truncates_lowest_ranked(self):
        prompts = PromptSet.default()
        passages = _passages(5, words=30)
        budget = len(prompts.rag_prompt("q?", passages[:3]))
        backend = ScriptedBackend({"q": "Answer: x"})
        _cand, used = gen_rag_answer(backend, prompts, "q?", passages, budget=budget)
        assert used == [p.id for p in passages[:3]]

    def test_budget_never_drops_below_one(self):
        prompts = PromptSet.default()
        passages = _passages(3, words=50)
        assert [p.id for p in fit_passages(prompts, "q?", passages, budget=10)] == [passages[0].id]


def _candidate_pair():
    internal = gen_llm_answer(
        ScriptedBackend({"llm probe": "Explanation: from memory. Answer: New tab"}),
        PromptSet.default(),
        "llm probe",
    )
    grounded = gen_rag_answer(
        ScriptedBackend({"rag probe": "Explanation: from passages. Answer: T"}),
        PromptSet.default(),
        "rag probe",
        _passages(1),
    )[0]
    return internal, grounded


class TestSelect:
    def test_selector_restating_internal_answer(self):
        internal, grounded = _candidate_pair()
        selector = ScriptedBackend(
            {"two candidate responses": "Explanation: Reopens the tab. Answer: New tab"}
        )
        record = select(
            selector, PromptSet.default(), "What does Ctrl+Shift+T do?", internal, grounded, 0,
            item_id="q1", passages_used=["p1"],
        )
        assert record.chosen_source == SOURCE_INTERNAL
        assert record.final_answer == "New tab"
        assert record.passages_used == ["p1"]

    def test_reply_matching_neither_is_flagged(self):
        internal, grounded = _candidate_pair()
        selector = ScriptedBackend({"two candidate responses": "Answer: Zebra stripes"})
        record = select(selector, PromptSet.default(), "q?", internal, grounded, 0)
        assert record.chosen_source == CHOSEN_NEITHER
        assert record.selector_raw == "Answer: Zebra stripes"

    def test_containment_fallback(self):
        internal, grounded = _candidate_pair()
        selector = ScriptedBackend(
            {"two candidate responses": "Answer: the shortcut opens a New Tab right away"}
        )
        record = select(selector, PromptSet.default(), "q?", internal, grounded, 0)
        assert record.chosen_source == SOURCE_INTERNAL
        assert record.final_answer == internal.answer

    def test_order_seed_flips_presentation_not_choice(self):
        internal, grounded = _candidate_pair()
        # Keyed on candidate content ("new tab"), not position.
        selector = ScriptedBackend(
            {"two candidate responses&&new tab": "Explanation: Reopens. Answer: New tab"}
        )
        prompts = PromptSet.default()
        orders = {}
        for seed in range(16):
            record = select(selector, prompts, "q?", internal, grounded, seed)
            orders[record.presentation_order] = record.chosen_source
        assert set(orders) == {ORDER_INTERNAL_FIRST, ORDER_RETRIEVAL_FIRST}
        assert set(orders.values()) == {SOURCE_INTERNAL}

    def test_presentation_order_is_uniformish(self):
        flips = [random.Random(seed).random() < 0.5 for seed in range(200)]
        assert 0.35 < sum(flips) / len(flips) < 0.65


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
