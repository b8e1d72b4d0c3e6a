"""The candidate stage shared by `ragsel run` and `rgp build`.

Byte pins on the acceptance desk scenario hold every output of both callers
to the SHA-256 it had before they shared one stage; the remaining tests cover
the stage's edges: empty retrieval, prompt budgets, per-item errors, the
module-global lookup that `rgp.build` makes for each item, and the pool that
runs items side by side over HTTP.
"""

import hashlib
import json
import threading

import pytest

from conftest import chat_body, make_corpus
from ragsel import rgp
from ragsel.cli import main as cli_main
from ragsel.data import QAPair, stable_hash_int
from ragsel.llm import GenRequest, HttpBackend, ScriptedBackend
from ragsel.pipeline import (
    MODE_LLM_ONLY,
    MODE_SELF_SELECT,
    MODE_STANDARD_RAG,
    SOURCE_INTERNAL,
    PromptSet,
    _map_items,
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
        assert gen_retrieved_answer(
            backend, PromptSet.default(), "offtopic zzz", index.retrieve("offtopic zzz", 5).hits, corpus
        ) is None

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
    expected = select(scripted, qa.question, internal, grounded, stable_hash_int(0, qa.id), item_id=qa.id)
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


_ONE_ITEM_SCRIPT = {
    "using your own knowledge": "Explanation: m. Answer: right",
    "using the passages": "Explanation: p. Answer: wrong",
    "two candidate responses": "Explanation: s. Answer: right",
}


def test_in_process_backend_keeps_the_serial_call_order(tmp_path):
    corpus, index = _shared_topic(tmp_path)
    prompts = PromptSet.default()
    qa = QAPair(id="q1", question="shared topic?", golden_answers=["right"])
    spy = _Spy(ScriptedBackend(_ONE_ITEM_SCRIPT))
    (record,) = run_dataset(MODE_SELF_SELECT, [qa], spy, prompts, index=index, corpus=corpus)
    rag_prompt = prompts.rag_prompt(qa.question, [corpus.get(pid) for pid in record.passages_used])
    assert spy.prompts[:2] == [rag_prompt, prompts.llm_only_prompt(qa.question)]
    assert "Candidate 2:" in spy.prompts[2] and len(spy.prompts) == 3

    spy.prompts.clear()
    hits = index.retrieve(qa.question, rgp.MAX_PASSAGES).hits
    bundle = rgp.generate_candidates(qa, hits, corpus, spy, prompts, rng_seed=5)
    used = [corpus.get(pid) for pid, _s in index.retrieve(qa.question, bundle.n_passages_used).hits]
    assert spy.prompts == [prompts.llm_only_prompt(qa.question), prompts.rag_prompt(qa.question, used)]


def _serve_script(http_stub, backend: ScriptedBackend, delay: float = 0.0) -> None:
    """Answer each chat request as the scripted backend would."""

    def handler(path, payload):
        return 200, chat_body(backend.complete(GenRequest(user_prompt=payload["messages"][-1]["content"])))

    http_stub.set_handler(handler, delay)


def test_http_outputs_are_byte_identical_at_every_in_flight_cap(tmp_path, http_stub, monkeypatch):
    qa_path, script_path, index_dir = _desk_files(tmp_path)
    _serve_script(http_stub, ScriptedBackend.from_jsonl(script_path))
    common = ["--qa", str(qa_path), "--index", str(index_dir), "--endpoint", http_stub.url]
    hits = {}
    for cap in (1, 2, 8):
        monkeypatch.setenv("SELECTOR_RAG_MAX_IN_FLIGHT", str(cap))
        before = http_stub.hits
        out = tmp_path / f"self-select-{cap}.jsonl"
        assert cli_main(["run", "--mode", "self-select", *common, "--seed", "17", "--out", str(out)]) == 0
        assert _sha256(out) == PINNED_SHA256["self-select"]
        out = tmp_path / f"rgp-build-{cap}.jsonl"
        argv = ["rgp", "build", *common, "--judge", "lexical", "--seed", "21", "--out", str(out)]
        assert cli_main(argv) == 0
        assert _sha256(out) == PINNED_SHA256["rgp-build"]
        hits[cap] = http_stub.hits - before
    assert hits[1] == hits[2] == hits[8] == 10 * 3 + 10 * 2


def _pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("ragsel-item")]


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_items_are_in_flight_together_only_above_one_in_flight(tmp_path, http_stub, cap):
    corpus, index = _shared_topic(tmp_path)
    _serve_script(http_stub, ScriptedBackend(_ONE_ITEM_SCRIPT), delay=0.05)
    backend = HttpBackend(http_stub.url, "m", max_in_flight=cap)
    qa = [QAPair(id=f"q{i}", question="shared topic?", golden_answers=["right"]) for i in range(4)]
    records = run_dataset(MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus)
    assert [(r.id, r.error, r.final_answer) for r in records] == [(f"q{i}", None, "right") for i in range(4)]
    assert http_stub.hits == 12
    # One request per item at a time, so 4 in flight needs 4 items in flight.
    assert http_stub.peak_in_flight == cap
    assert _pool_threads() == []  # the pool is shut down before run_dataset returns


def test_pool_submits_at_most_twice_its_size_ahead_of_the_consumer():
    drawn = []

    def items():
        for i in range(100):
            drawn.append(i)
            yield i

    class TwoAtOnce:
        max_in_flight = 2

    results = _map_items(lambda i: i * i, items(), TwoAtOnce())
    assert next(results) == 0
    assert len(drawn) == 4
    assert list(results) == [i * i for i in range(1, 100)]
    assert _pool_threads() == []


def test_pool_keeps_input_order_and_per_item_errors_when_later_items_finish_first(tmp_path, http_stub):
    corpus, index = _shared_topic(tmp_path)
    scripted = ScriptedBackend(_ONE_ITEM_SCRIPT)
    words = ["zero", "one", "two", "three"]

    def handler(path, payload):
        prompt = " ".join(payload["messages"][-1]["content"].lower().split())
        if "item one" in prompt and "using your own knowledge" in prompt:
            return 400, {}
        if "item two" in prompt and "two candidate responses" in prompt:
            return 404, {}
        return 200, chat_body(scripted.complete(GenRequest(user_prompt=prompt)))

    def delay(payload):
        # The earlier the item, the slower its replies: item zero finishes last.
        prompt = payload["messages"][-1]["content"]
        return next(0.1 * (3 - i) for i, w in enumerate(words) if f"item {w}" in prompt)

    http_stub.set_handler(handler, delay)
    backend = HttpBackend(http_stub.url, "m", max_retries=0, max_in_flight=4)
    qa = [QAPair(id=f"q{i}", question=f"shared topic item {w}?", golden_answers=["right"]) for i, w in enumerate(words)]
    records = run_dataset(MODE_SELF_SELECT, qa, backend, PromptSet.default(), index=index, corpus=corpus)
    last_item = http_stub.requests[-1]["messages"][-1]["content"]
    assert "item zero" in last_item  # the first item did finish last
    assert [r.id for r in records] == ["q0", "q1", "q2", "q3"]
    assert [r.error for r in records] == [
        None,
        f"StatusError: HTTP 400 from {http_stub.url}",
        f"StatusError: HTTP 404 from {http_stub.url}",
        None,
    ]
    assert records[0].final_answer == records[3].final_answer == "right"

    instances, report = rgp.build(qa, index, corpus, backend, PromptSet.default(), seed=4)
    assert [i.query_id for i in instances] == ["q0", "q2", "q3"]
    assert report.quarantine_reasons == [f"q1: StatusError: HTTP 400 from {http_stub.url}"]


@pytest.mark.parametrize("cap", [1, 4])
def test_when_both_requests_fail_the_serial_error_is_recorded(tmp_path, http_stub, cap):
    corpus, index = _shared_topic(tmp_path)

    def handler(path, payload):
        # 400 for the memory-only prompt, 404 for the passage prompt.
        return (400 if "using your own knowledge" in payload["messages"][-1]["content"] else 404), {}

    http_stub.set_handler(handler)
    backend = HttpBackend(http_stub.url, "m", max_retries=0, max_in_flight=cap)
    qa = QAPair(id="q1", question="shared topic?", golden_answers=["right"])
    (record,) = run_dataset(MODE_SELF_SELECT, [qa], backend, PromptSet.default(), index=index, corpus=corpus)
    assert record.error == f"StatusError: HTTP 404 from {http_stub.url}"
    hits = index.retrieve(qa.question, rgp.MAX_PASSAGES).hits
    bundle = rgp.generate_candidates(qa, hits, corpus, backend, PromptSet.default(), rng_seed=5)
    assert bundle.error == f"StatusError: HTTP 400 from {http_stub.url}"
