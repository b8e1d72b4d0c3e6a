"""The candidate stage shared by `ragsel run` and `rgp build`.

Byte pins on the acceptance desk scenario hold every output of both callers
to the SHA-256 it had before they shared one stage; the remaining tests cover
the stage's edges: empty retrieval, prompt budgets, per-item errors, and the
module-global lookup that `rgp.build` makes for each item.
"""

import hashlib
import json

import pytest

from conftest import make_corpus
from ragsel import rgp
from ragsel.cli import main as cli_main
from ragsel.data import QAPair, stable_hash_int
from ragsel.llm import ScriptedBackend
from ragsel.pipeline import (
    MODE_LLM_ONLY,
    MODE_SELF_SELECT,
    MODE_STANDARD_RAG,
    SOURCE_INTERNAL,
    PromptSet,
    gen_llm_answer,
    gen_retrieved_answer,
    run_dataset,
    select,
)
from ragsel.retrieval import build_index
from test_acceptance import _desk_files

# Recorded before the two callers shared one stage.
PINNED_SHA256 = {
    "llm-only": "9ab548dcd7800a1606b867c8da9d561989b608275767a901dc0f75591b5f36ee",
    "standard-rag": "99b2a29d88e2c542b337600539d0271e5c056b420d6173c461068f304ae1ce21",
    "self-select": "75154e610b3a400a2e6498b2339925ee66b0894ba304fab36f23b16b7d97f37d",
    "rgp-build": "955defd97ce2b571c96e76e094f0ea95b965ac85726564352da4502a06f63844",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_desk_outputs_match_pinned_digests(tmp_path, capsys):
    qa_path, script_path, index_dir = _desk_files(tmp_path)
    common = ["--qa", str(qa_path), "--index", str(index_dir), "--script", str(script_path)]
    got = {}
    for mode in ("llm-only", "standard-rag", "self-select"):
        out = tmp_path / f"{mode}.jsonl"
        assert cli_main(["run", "--mode", mode, *common, "--seed", "17", "--out", str(out)]) == 0
        got[mode] = _sha256(out)
    out = tmp_path / "rgp-build.jsonl"
    argv = ["rgp", "build", *common, "--judge", "lexical", "--seed", "21", "--out", str(out)]
    assert cli_main(argv) == 0
    got["rgp-build"] = _sha256(out)
    assert got == PINNED_SHA256
    report = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]
    assert json.dumps(report) == json.dumps(
        {
            "total": 10,
            "kept": 5,
            "kept_positive_internal": 2,
            "kept_positive_retrieval": 3,
            "both_correct": 4,
            "both_incorrect": 1,
            "collision_dropped": 0,
            "quarantined": 0,
            "quarantine_reasons": [],
            "judge_tag": "lexical",
        }
    )


def _shared_topic(tmp_path, n=5):
    records = [{"id": f"d{i}", "text": f"shared topic plus detail{i}"} for i in range(n)]
    corpus = make_corpus(tmp_path, records, "shared")
    return corpus, build_index(corpus)


class TestGenRetrievedAnswer:
    def test_no_hits_returns_none_without_a_call(self, tmp_path):
        corpus, index = _shared_topic(tmp_path)
        backend = ScriptedBackend({})  # any call would raise ScriptMissError
        assert gen_retrieved_answer(backend, PromptSet.default(), "offtopic zzz", index, corpus, 5) is None

    def test_run_dataset_passes_its_budget_to_the_stage(self, tmp_path):
        corpus, index = _shared_topic(tmp_path)
        prompts = PromptSet.default()
        backend = ScriptedBackend({"using the passages": "Explanation: e. Answer: a"})
        ranked = [corpus.get(pid) for pid, _s in index.retrieve("shared topic?", 5).hits]
        budget = len(prompts.rag_prompt("shared topic?", ranked[:3]))
        qa = [QAPair(id="q1", question="shared topic?", golden_answers=["a"])]
        records = run_dataset(
            MODE_STANDARD_RAG, qa, backend, prompts, index=index, corpus=corpus, budget=budget
        )
        assert records[0].passages_used == [p.id for p in ranked[:3]]


def test_self_select_with_empty_retrieval_uses_memory_twice(tmp_path):
    corpus, index = _shared_topic(tmp_path)
    backend = ScriptedBackend(
        {
            "using your own knowledge&&offtopic": "Explanation: memory. Answer: fallback",
            "two candidate responses&&offtopic": "Explanation: same. Answer: fallback",
        }
    )
    qa = [QAPair(id="q9", question="offtopic zzz", golden_answers=["fallback"])]
    (record,) = run_dataset(
        MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus
    )
    assert record.error is None
    assert record.passages_used == []
    assert record.grounded.source == SOURCE_INTERNAL
    assert record.final_answer == "fallback"


class _Spy:
    """Records every prompt sent to the wrapped backend."""

    tag = "spy"

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.user_prompt)
        return self.inner.complete(request)


def test_self_select_with_empty_retrieval_asks_memory_once(tmp_path):
    corpus, index = _shared_topic(tmp_path)
    prompts = PromptSet.default()
    scripted = ScriptedBackend(
        {
            "using your own knowledge&&offtopic": "Explanation: memory. Answer: fallback",
            "two candidate responses&&offtopic": "Explanation: same. Answer: fallback",
        }
    )
    spy = _Spy(scripted)
    qa = QAPair(id="q9", question="offtopic zzz", golden_answers=["fallback"])
    (record,) = run_dataset(MODE_SELF_SELECT, [qa], spy, prompts, index=index, corpus=corpus)
    assert len(spy.prompts) == 2
    assert spy.prompts[0] == prompts.llm_only_prompt(qa.question)
    assert "Candidate 2:" in spy.prompts[1]
    # The same record as a separate memory-only call for the grounded slot gives.
    internal = gen_llm_answer(scripted, prompts, qa.question)
    grounded = gen_llm_answer(scripted, prompts, qa.question)
    expected = select(scripted, prompts, qa.question, internal, grounded, stable_hash_int(0, qa.id), item_id=qa.id)
    assert json.dumps(record.to_dict()) == json.dumps(expected.to_dict())


def test_per_item_error_record_in_full():
    backend = ScriptedBackend({"nothing matches": "irrelevant"})
    qa = [QAPair(id="qX", question="unknown topic", golden_answers=["?"])]
    (record,) = run_dataset(MODE_LLM_ONLY, qa, backend, PromptSet.default())
    assert record.error.startswith("ScriptMissError: ")
    assert record.to_dict() == {
        "id": "qX",
        "query": "unknown topic",
        "internal": None,
        "grounded": None,
        "final_answer": "",
        "final_explanation": "",
        "chosen_source": "neither",
        "presentation_order": "internal_first",
        "passages_used": [],
        "selector_raw": "",
        "error": record.error,
    }


def test_build_calls_generate_candidates_through_the_module_attribute(tmp_path, monkeypatch):
    corpus, index = _shared_topic(tmp_path)
    backend = ScriptedBackend(
        {
            "using your own knowledge": "Explanation: m. Answer: right",
            "using the passages": "Explanation: p. Answer: wrong",
        }
    )
    qa = [QAPair(id=f"q{i}", question="shared topic?", golden_answers=["right"]) for i in range(3)]
    expected, _ = rgp.build(qa, index, corpus, backend, PromptSet.default(), seed=4)
    seen = []
    original = rgp.generate_candidates

    def counting(qa_item, *args, **kwargs):
        seen.append(qa_item.id)
        return original(qa_item, *args, **kwargs)

    monkeypatch.setattr(rgp, "generate_candidates", counting)
    instances, report = rgp.build(qa, index, corpus, backend, PromptSet.default(), seed=4)
    assert seen == ["q0", "q1", "q2"]
    assert [i.to_dict() for i in instances] == [i.to_dict() for i in expected]
    assert report.kept == 3
