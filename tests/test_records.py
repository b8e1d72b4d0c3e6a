"""The one record codec, `data.Record`: what `to_dict` writes, what
`from_dict` reads back, and how it rejects a value of the wrong type."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsel.augment import AugmentReport, DpoPair
from ragsel.data import MalformedRecordError, load_qa_file, write_jsonl
from ragsel.dpo import ExportSummary, load_logprob_file
from ragsel.evaluation import ItemMetrics, MetricReport
from ragsel.manifest import RunManifest
from ragsel.pipeline import CandidateResponse, SelectionRecord, load_records
from ragsel.rgp import BuildReport, PreferenceInstance, Response


def _examples():
    internal = CandidateResponse("Paris", "I recall it", "internal", "Explanation: I recall it\nAnswer: Paris")
    grounded = CandidateResponse("", "", "retrieval", "no marker — ünïcode")
    per_item = [ItemMetrics("q1", 1, 1.0, 1), ItemMetrics("q2", 0, 0.5, 0)]
    return {
        "selection": SelectionRecord(
            "q1", "Capital of France?", internal, grounded, "Paris", "I recall it",
            "internal", "retrieval_first", ["p2", "p9"], "Answer: Paris", None,
        ),
        "selection-error": SelectionRecord("q2", "Who?", error="ScriptMissError: no match"),
        "instance": PreferenceInstance(
            "q1", "Capital of France?", "Paris", Response("Paris", "why"), Response("Lyon", "because"),
            "internal", 3, "lexical", 7,
        ),
        "instance-no-seed": PreferenceInstance(
            "q2", "Who?", "Ann", Response("Ann", ""), Response("Bo", "x"), "retrieval", 1, "llm"
        ),
        "pair": DpoPair(
            "Question: q\nCandidate 1: a\nCandidate 2: b", "a", "b", "chosen_first", "neighbor_negative",
            ("q1", "q7"),
        ),
        "augment-report": AugmentReport(2, 5, 2, 2, 1, 0, 3, 2),
        "build-report": BuildReport(4, 1, 1, 0, 1, 1, 0, 1, ["q4: no passages retrieved"], "lexical"),
        "metric-report": MetricReport(0.5, 0.75, 0.5, 2, per_item),
        "export-summary": ExportSummary(3, {"own_negative": 1, "neighbor_positive": 2}, "out/train.jsonl"),
        "manifest": RunManifest(
            "ragsel run", {"top_k": 5}, {"seed": 7}, {"qa.jsonl": "ab12"}, "0.1.0", "2026-01-01T00:00:00+00:00"
        ),
    }


# json.dumps(x.to_dict(), ensure_ascii=False) of each example, as the
# hand-written to_dict methods that Record replaced wrote it.
LAYOUT = {
    'selection': (
        r'{"id": "q1", "query": "Capital of France?", "internal": {"answer": "Paris",'
        r' "explanation": "I recall it", "source": "internal",'
        r' "raw_text": "Explanation: I recall it\nAnswer: Paris"}, "grounded": {"answer": "",'
        r' "explanation": "", "source": "retrieval", "raw_text": "no marker — ünïcode"},'
        r' "final_answer": "Paris", "final_explanation": "I recall it",'
        r' "chosen_source": "internal", "presentation_order": "retrieval_first",'
        r' "passages_used": ["p2", "p9"], "selector_raw": "Answer: Paris", "error": null}'
    ),
    'selection-error': (
        r'{"id": "q2", "query": "Who?", "internal": null, "grounded": null, "final_answer": "",'
        r' "final_explanation": "", "chosen_source": "neither",'
        r' "presentation_order": "internal_first", "passages_used": [], "selector_raw": "",'
        r' "error": "ScriptMissError: no match"}'
    ),
    'instance': (
        r'{"query": "Capital of France?", "golden": "Paris", "positive": {"answer": "Paris",'
        r' "explanation": "why"}, "negative": {"answer": "Lyon", "explanation": "because"},'
        r' "positive_source": "internal", "meta": {"n_passages": 3, "judge_tag": "lexical",'
        r' "seed": 7, "query_id": "q1"}}'
    ),
    'instance-no-seed': (
        r'{"query": "Who?", "golden": "Ann", "positive": {"answer": "Ann", "explanation": ""},'
        r' "negative": {"answer": "Bo", "explanation": "x"}, "positive_source": "retrieval",'
        r' "meta": {"n_passages": 1, "judge_tag": "llm", "seed": null, "query_id": "q2"}}'
    ),
    'pair': (
        r'{"prompt": "Question: q\nCandidate 1: a\nCandidate 2: b", "chosen": "a",'
        r' "rejected": "b", "order": "chosen_first", "negative_origin": "neighbor_negative",'
        r' "source_query_ids": ["q1", "q7"]}'
    ),
    'augment-report': (
        r'{"instances": 2, "pairs": 5, "own_negative": 2, "neighbor_positive": 2,'
        r' "neighbor_negative": 1, "collision_dropped": 0, "chosen_first": 3,'
        r' "rejected_first": 2}'
    ),
    'build-report': (
        r'{"total": 4, "kept": 1, "kept_positive_internal": 1, "kept_positive_retrieval": 0,'
        r' "both_correct": 1, "both_incorrect": 1, "collision_dropped": 0, "quarantined": 1,'
        r' "quarantine_reasons": ["q4: no passages retrieved"], "judge_tag": "lexical"}'
    ),
    'metric-report': (
        r'{"em": 0.5, "f1": 0.75, "acc": 0.5, "n": 2, "per_item": [{"item_id": "q1", "em": 1,'
        r' "f1": 1.0, "acc": 1}, {"item_id": "q2", "em": 0, "f1": 0.5, "acc": 0}]}'
    ),
    'export-summary': (
        r'{"total": 3, "by_origin": {"own_negative": 1, "neighbor_positive": 2},'
        r' "path": "out/train.jsonl"}'
    ),
    'manifest': (
        r'{"command_line": "ragsel run", "config": {"top_k": 5}, "seeds": {"seed": 7},'
        r' "input_digests": {"qa.jsonl": "ab12"}, "artifact_version": "0.1.0",'
        r' "created_at": "2026-01-01T00:00:00+00:00"}'
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUT))
def test_layout_is_byte_identical_to_the_hand_written_one(name):
    assert json.dumps(_examples()[name].to_dict(), ensure_ascii=False) == LAYOUT[name]


_text = st.text(max_size=12)
_candidates = st.builds(CandidateResponse, _text, _text, _text, _text)
_responses = st.builds(Response, _text, _text)
_records = st.one_of(
    st.builds(
        SelectionRecord,
        _text,
        _text,
        st.none() | _candidates,
        st.none() | _candidates,
        _text,
        _text,
        _text,
        _text,
        st.lists(_text, max_size=3),
        _text,
        st.none() | _text,
    ),
    st.builds(
        PreferenceInstance,
        _text,
        _text,
        _text,
        _responses,
        _responses,
        _text,
        st.integers(),
        _text,
        st.none() | st.integers(),
    ),
    st.builds(DpoPair, _text, _text, _text, _text, _text, st.tuples(_text, _text)),
)


@settings(max_examples=300, deadline=None)
@given(_records)
def test_from_dict_reads_back_what_to_dict_writes(record):
    line = json.dumps(record.to_dict(), ensure_ascii=False)
    assert type(record).from_dict(json.loads(line)) == record


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("instance", {"golden": 5}, "field 'golden' must be str, got int"),
        (
            "instance",
            {"positive": {"answer": 5, "explanation": ""}},
            "field 'positive.answer' must be str, got int",
        ),
        ("instance", {"negative": []}, "field 'negative' must be object, got list"),
        ("instance", {"meta": {"n_passages": True}}, "field 'meta.n_passages' must be int, got bool"),
        ("instance", {"meta": {"query_id": 7}}, "field 'meta.query_id' must be str, got int"),
        ("instance", {"meta": {"seed": "7"}}, "field 'meta.seed' must be int or null, got str"),
        ("instance", {"meta": []}, "field 'meta' must be object, got list"),
        ("selection", {"final_answer": None}, "field 'final_answer' must be str, got null"),
        ("selection", {"internal": "Paris"}, "field 'internal' must be object or null, got str"),
        ("selection", {"passages_used": ["p1", 2]}, "field 'passages_used' must be list of str, got list"),
        ("selection", {"error": 0}, "field 'error' must be str or null, got int"),
        (
            "pair",
            {"source_query_ids": ["q1", "q2", "q3"]},
            "field 'source_query_ids' must be list of 2 str, got list",
        ),
    ],
)
def test_a_value_of_the_wrong_type_names_its_field(name, change, message):
    with pytest.raises(TypeError) as excinfo:
        type(_examples()[name]).from_dict({**json.loads(LAYOUT[name]), **change})
    assert str(excinfo.value) == message


_INSTANCE = json.loads(LAYOUT["instance"])
_SELECTION = json.loads(LAYOUT["selection"])


def test_a_key_missing_from_a_nested_record_names_its_path():
    with pytest.raises(KeyError) as excinfo:
        SelectionRecord.from_dict({**_SELECTION, "grounded": {"answer": "x"}})
    assert excinfo.value.args[0] == "grounded.explanation"


def test_meta_keys_that_are_absent_read_as_their_defaults():
    obj = {key: value for key, value in _INSTANCE.items() if key != "meta"}
    instance = PreferenceInstance.from_dict({**obj, "meta": {"seed": 4}})
    assert (instance.n_passages, instance.judge_tag, instance.seed, instance.query_id) == (0, "", 4, "")
    assert PreferenceInstance.from_dict(obj).seed is None


def test_a_results_line_without_passages_used_is_a_missing_field(tmp_path):
    path = tmp_path / "results.jsonl"
    write_jsonl(path, [{key: value for key, value in _SELECTION.items() if key != "passages_used"}])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_records(path)
    assert str(excinfo.value) == "line 1: missing field 'passages_used'"


def test_a_record_with_a_field_of_another_type_encodes_but_does_not_decode():
    report = _examples()["metric-report"]
    with pytest.raises(NotImplementedError):
        MetricReport.from_dict(report.to_dict())


_LOGPROBS = {
    "pair_id": "p1",
    "logp_policy_chosen": -1.5,
    "logp_ref_chosen": -2.0,
    "logp_policy_rejected": -3.0,
    "logp_ref_rejected": -2.5,
}
_QA = {"id": "q1", "question": "Who?", "golden_answers": ["x"]}


@pytest.mark.parametrize(
    "load, row, message",
    [
        (
            load_logprob_file,
            {**_LOGPROBS, "logp_ref_chosen": "-1.5"},
            "field 'logp_ref_chosen' must be float, got str",
        ),
        (
            load_logprob_file,
            {**_LOGPROBS, "logp_policy_chosen": -(10**400)},
            "field 'logp_policy_chosen' must be float, got an int too large for a float",
        ),
        (load_logprob_file, {**_LOGPROBS, "pair_id": 1}, "field 'pair_id' must be str, got int"),
        (load_qa_file, {**_QA, "id": 5, "question": None}, "field 'id' must be str, got int"),
        (load_qa_file, {**_QA, "question": None}, "field 'question' must be str, got null"),
        (
            load_qa_file,
            {**_QA, "golden_answers": ["x", 2]},
            "field 'golden_answers' must be list of str, got list",
        ),
        (load_qa_file, {**_QA, "golden_answers": []}, "golden_answers must be a non-empty list"),
        (load_qa_file, {**_QA, "golden_answers": "x"}, "golden_answers must be a non-empty list"),
        (load_qa_file, {**_QA, "golden_answers": ["x", ""]}, "golden answer '' is empty once normalized"),
        (load_qa_file, {**_QA, "golden_answers": ["The"]}, "golden answer 'The' is empty once normalized"),
        (load_qa_file, {**_QA, "golden_answers": ["a"]}, "golden answer 'a' is empty once normalized"),
        (load_qa_file, {**_QA, "golden_answers": [" ?! "]}, "golden answer ' ?! ' is empty once normalized"),
    ],
)
def test_qa_and_logprob_lines_are_type_checked(tmp_path, load, row, message):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [row])
    with pytest.raises(MalformedRecordError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"line 1: {message}"


def test_logprobs_given_as_json_integers_read_as_floats(tmp_path):
    path = tmp_path / "lp.jsonl"
    write_jsonl(path, [{**_LOGPROBS, "logp_ref_chosen": -2}])
    (record,) = load_logprob_file(path)
    assert type(record.logp_ref_chosen) is float and record.logp_ref_chosen == -2.0
