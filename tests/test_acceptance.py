"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` to see one line per criterion.
"""

import json
import math
import random
import time

import pytest

from conftest import make_corpus
from ragsel.augment import augment_dataset, mine_neighbors
from ragsel.cli import main as cli_main
from ragsel.data import QAPair
from ragsel.dpo import DpoConfig, LogProbRecord, pair_loss
from ragsel.evaluation import evaluate
from ragsel.llm import ScriptedBackend
from ragsel.pipeline import (
    MODE_LLM_ONLY,
    MODE_SELF_SELECT,
    MODE_STANDARD_RAG,
    PromptSet,
    SelectionRecord,
    run_dataset,
)
from ragsel.retrieval import build_index, tokenize
from ragsel.rgp import CandidateBundle, Judgment, PreferenceInstance, Response, filter_instance
from ragsel.pipeline import CandidateResponse, SOURCE_INTERNAL, SOURCE_RETRIEVAL
from test_retrieval import brute_force_rank


def _ok(n, text):
    print(f"ACCEPTANCE PASS [{n}/8] {text}")


# --- Criterion 1: metric oracle suite ---------------------------------------

# (item, prediction, golds, em, f1, acc) — f1 values hand-derived from token
# overlap counts; see each comment.
HAND_SCORED = [
    # overlap 3 of pred 3 / gold 4 -> P=1, R=3/4, F1=6/7
    ("i01", "Kensington and Chelsea", ["Kensington and Chelsea (borough)"], 0, 6 / 7, 0),
    # case-only difference
    ("i02", "practice", ["Practice"], 1, 1.0, 1),
    # article + punctuation stripped on both sides
    ("i03", "The Answer.", ["answer"], 1, 1.0, 1),
    # pred 7 tokens after dropping "the", gold 2; overlap 2 -> F1 = 4/9; gold
    # contained in pred -> acc 1
    ("i04", "in the context of television ratings peak viewing", ["Television Ratings"], 0, 4 / 9, 1),
    # disjoint
    ("i05", "California", ["Dwight D Eisenhower"], 0, 0.0, 0),
    # verbatim
    ("i06", "Stagecoaches", ["Stagecoaches"], 1, 1.0, 1),
    # alias list, first alias matches
    ("i07", "new tab", ["New tab", "reopen tab"], 1, 1.0, 1),
    # empty prediction
    ("i08", "", ["Stagecoaches"], 0, 0.0, 0),
    # articles removed everywhere -> exact
    ("i09", "the turn of the screw", ["The Turn of the Screw"], 1, 1.0, 1),
    # pred 2 tokens, gold 1; overlap 1 -> P=1/2, R=1, F1=2/3; contains gold
    ("i10", "Paris France", ["Paris"], 0, 2 / 3, 1),
]


def _plain_record(item_id, answer):
    return SelectionRecord(
        id=item_id,
        query="q",
        internal=None,
        grounded=None,
        final_answer=answer,
        final_explanation="",
        chosen_source="internal",
        presentation_order="internal_first",
        passages_used=[],
    )


def test_criterion_1_metric_oracle_suite():
    start = time.monotonic()
    records = [_plain_record(item_id, pred) for item_id, pred, _g, _e, _f, _a in HAND_SCORED]
    qa = [QAPair(id=item_id, question="q", golden_answers=golds) for item_id, _p, golds, _e, _f, _a in HAND_SCORED]
    report = evaluate(records, qa)

    for item, (_, _, _, em, f1_val, acc) in zip(report.per_item, HAND_SCORED):
        assert item.em == em, item.item_id
        assert item.f1 == pytest.approx(f1_val, abs=1e-9), item.item_id
        assert item.acc == acc, item.item_id

    assert report.em == 0.5
    assert report.acc == 0.7
    assert report.f1 == pytest.approx(439 / 630, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"metric oracle suite: 10 hand-scored items, aggregates exact ({elapsed:.2f}s)")


# --- Criterion 2: BM25 oracle equivalence -----------------------------------


def test_criterion_2_bm25_oracle_equivalence(tmp_path):
    start = time.monotonic()
    rng = random.Random(20260808)
    vocab = [f"term{i}" for i in range(30)]
    comparisons = 0
    for trial in range(100):
        n_docs = rng.randint(2, 200)
        records = [
            {"id": f"d{i:03d}", "text": " ".join(rng.choices(vocab, k=rng.randint(1, 20)))}
            for i in range(n_docs)
        ]
        corpus = make_corpus(tmp_path, records, f"c{trial:03d}")
        index = build_index(corpus)
        docs = {r["id"]: tokenize(r["text"]) for r in records}
        for _ in range(rng.randint(1, 20)):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            top_k = rng.randint(1, 12)
            got = index.retrieve(query, top_k).hits
            want = brute_force_rank(docs, query, 1.2, 0.75, top_k)
            assert [pid for pid, _s in got] == [pid for pid, _s in want]
            for (_, got_score), (_, want_score) in zip(got, want):
                assert got_score == pytest.approx(want_score, rel=1e-12)
            comparisons += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(2, f"bm25 oracle equivalence: 100 corpora, {comparisons} queries, exact ranks ({elapsed:.1f}s)")


# --- Criterion 3: RGP filter truth table ------------------------------------


def _bundle(qa_id, internal_answer, grounded_answer):
    qa = QAPair(id=qa_id, question=f"question {qa_id}", golden_answers=["gold"])
    return CandidateBundle(
        qa=qa,
        internal=CandidateResponse(internal_answer, "why i", SOURCE_INTERNAL, "raw"),
        grounded=CandidateResponse(grounded_answer, "why g", SOURCE_RETRIEVAL, "raw"),
        n_passages_used=1,
    )


def test_criterion_3_filter_truth_table():
    start = time.monotonic()
    # The four cells: (internal_correct, grounded_correct) ->
    # keep / keep / drop / drop.
    cells = [
        (_bundle("a", "gold", "dross"), Judgment(True, False, "lexical"), True),
        (_bundle("b", "dross", "gold"), Judgment(False, True, "lexical"), True),
        (_bundle("c", "gold", "gold two"), Judgment(True, True, "lexical"), False),
        (_bundle("d", "dross", "slag"), Judgment(False, False, "lexical"), False),
    ]
    outcomes = [filter_instance(bundle, judgment) is not None for bundle, judgment, _ in cells]
    assert outcomes == [kept for _b, _j, kept in cells] == [True, True, False, False]
    kept_sources = [
        filter_instance(bundle, judgment).positive_source
        for bundle, judgment, kept in cells
        if kept
    ]
    assert kept_sources == [SOURCE_INTERNAL, SOURCE_RETRIEVAL]

    rng = random.Random(99)
    retained = 0
    xor_count = 0
    for i in range(1000):
        verdict_i, verdict_g = rng.random() < 0.5, rng.random() < 0.5
        bundle = _bundle(f"q{i}", f"alpha {i}", f"beta {i}")
        if filter_instance(bundle, Judgment(verdict_i, verdict_g, "lexical")) is not None:
            retained += 1
        xor_count += int(verdict_i != verdict_g)
    assert retained == xor_count
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(3, f"rgp filter truth table: 4-cell exact, {retained}/{xor_count} xor over 1000 draws ({elapsed:.2f}s)")


# --- Criterion 4: augmentation cardinality ----------------------------------


def _instances(n):
    return [
        PreferenceInstance(
            query_id=f"q{i:03d}",
            query=" ".join(f"token{(i + j) % (n + 3)}" for j in range(4)),
            golden=f"pos {i}",
            positive=Response(answer=f"pos {i}", explanation=f"why pos {i}"),
            negative=Response(answer=f"neg {i}", explanation=f"why neg {i}"),
            positive_source="internal",
            n_passages=1,
            judge_tag="lexical",
        )
        for i in range(n)
    ]


def test_criterion_4_augmentation_cardinality():
    start = time.monotonic()
    dataset = _instances(240)
    pairs, report = augment_dataset(dataset, k=2, order_seed=1234)
    # Full neighbors everywhere (M >> K) and no collisions: exactly 2K+1 each.
    assert len(pairs) == 5 * len(dataset)
    per_instance = {}
    for pair in pairs:
        per_instance[pair.source_query_ids[0]] = per_instance.get(pair.source_query_ids[0], 0) + 1
    assert set(per_instance.values()) == {5}

    # Collision fixture: one neighbor's positive equals this instance's
    # positive, so that negative drops and 2K pairs remain.
    collided = _instances(3)
    collided[1] = PreferenceInstance(
        query_id="q001",
        query=collided[1].query,
        golden=collided[0].golden,
        positive=Response(answer="POS 0.", explanation="same answer, different casing"),
        negative=Response(answer="neg 1", explanation="why neg 1"),
        positive_source="internal",
        n_passages=1,
        judge_tag="lexical",
    )
    neighbor_map = mine_neighbors(collided, k=2)
    from ragsel.augment import expand

    expanded = expand(
        collided[0],
        neighbor_map["q000"],
        {inst.query_id: inst for inst in collided},
        order_seed=7,
    )
    assert len(expanded) == 4  # 2K after the collision drop

    assert len(pairs) >= 1000
    fraction = report.chosen_first / report.pairs
    assert 0.45 <= fraction <= 0.55
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(4, f"augmentation cardinality: 2K+1 pairs, collision -> 2K, order balance {fraction:.3f} ({elapsed:.1f}s)")


# --- Criterion 5: DPO loss identities ---------------------------------------


def _margin_record(m, beta):
    delta = m / beta
    half = abs(delta) / 2
    if delta >= 0:
        return LogProbRecord("p", 0.0, -half, -half, 0.0)
    return LogProbRecord("p", -half, 0.0, 0.0, -half)


def test_criterion_5_dpo_loss_identities():
    start = time.monotonic()
    config = DpoConfig(beta=0.1)

    zero = LogProbRecord("z", -2.0, -2.0, -2.0, -2.0)
    assert pair_loss(zero, config) == pytest.approx(math.log(2), abs=1e-12)

    rng = random.Random(5)
    for _ in range(50):
        lpc, lpr = -rng.uniform(10, 25), -rng.uniform(10, 25)
        lrc, lrr = -rng.uniform(10, 25), -rng.uniform(10, 25)
        shift = rng.uniform(-5, 5)
        base = LogProbRecord("a", lpc, lrc, lpr, lrr)
        shifted = LogProbRecord("b", lpc + shift, lrc, lpr + shift, lrr)
        assert pair_loss(shifted, config) == pytest.approx(pair_loss(base, config), abs=1e-12)

    grid = [-5 + 0.1 * i for i in range(101)]
    losses = [pair_loss(_margin_record(m, config.beta), config) for m in grid]
    assert all(a > b for a, b in zip(losses, losses[1:]))

    for m in (1e4, -1e4):
        loss = pair_loss(_margin_record(m, config.beta), config)
        assert math.isfinite(loss) and loss >= 0.0

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(5, f"dpo loss identities: ln2, shift invariance, monotone grid, |m|=1e4 finite ({elapsed:.2f}s)")


# --- Criterion 6: end-to-end desk scenario ----------------------------------

INTERNAL_RIGHT = set(range(1, 7))  # 6/10
GROUNDED_RIGHT = set(range(3, 10))  # 7/10; union 1..9 = 9/10


def _desk_scenario(tmp_path):
    passages = []
    for i in range(1, 11):
        passages.append(
            {
                "id": f"d{i:02d}",
                "title": f"Topic {i:02d}",
                "text": f"topic{i:02d} entry notes the value gadget {i:02d} here",
            }
        )
    for i in range(40):
        passages.append(
            {"id": f"f{i:02d}", "text": f"filler{i:02d} padding prose about nothing relevant"}
        )
    corpus = make_corpus(tmp_path, passages, "desk50")
    index = build_index(corpus)
    qa = [
        QAPair(
            id=f"q{i:02d}",
            question=f"What is stored for topic{i:02d}?",
            golden_answers=[f"gadget {i:02d}"],
        )
        for i in range(1, 11)
    ]

    script = {}
    for i in range(1, 11):
        gold = f"gadget {i:02d}"
        internal_answer = gold if i in INTERNAL_RIGHT else f"offbase i{i:02d}"
        grounded_answer = gold if i in GROUNDED_RIGHT else f"offbase g{i:02d}"
        script[f"using your own knowledge&&topic{i:02d}"] = (
            f"Explanation: memory entry {i:02d}. Answer: {internal_answer}"
        )
        script[f"using the passages&&topic{i:02d}"] = (
            f"Explanation: passage entry {i:02d}. Answer: {grounded_answer}"
        )
        if i in INTERNAL_RIGHT or i in GROUNDED_RIGHT:
            # Oracle selector keyed on the CORRECT candidate's content, so it
            # is immune to presentation order.
            script[f"two candidate responses&&{gold}"] = (
                f"Explanation: this one is right. Answer: {gold}"
            )
        else:
            script[f"two candidate responses&&topic{i:02d}"] = (
                f"Explanation: neither looks right. Answer: offbase i{i:02d}"
            )
    backend = ScriptedBackend(script)
    return corpus, index, qa, backend, script


def test_criterion_6_end_to_end_desk_scenario(tmp_path):
    start = time.monotonic()
    corpus, index, qa, backend, _script = _desk_scenario(tmp_path)
    assert len(corpus) == 50
    prompts = PromptSet.default()

    llm_records = run_dataset(MODE_LLM_ONLY, qa, backend, prompts)
    rag_records = run_dataset(
        MODE_STANDARD_RAG, qa, backend, prompts, index=index, corpus=corpus
    )
    self_records = run_dataset(
        MODE_SELF_SELECT, qa, backend, prompts, index=index, corpus=corpus, order_seed=17
    )

    acc_llm = evaluate(llm_records, qa).acc
    acc_rag = evaluate(rag_records, qa).acc
    acc_self = evaluate(self_records, qa).acc
    assert acc_llm == pytest.approx(0.6)
    assert acc_rag == pytest.approx(0.7)
    assert acc_self == pytest.approx(0.9)
    assert acc_self > acc_rag > acc_llm
    assert all(r.error is None for r in self_records)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(6, f"end-to-end desk scenario: acc 0.6/0.7 -> self-select 0.9, no network ({elapsed:.1f}s)")


# --- Criterion 7: determinism of build/augment/export ------------------------


def _desk_files(tmp_path):
    corpus, index, qa, _backend, script = _desk_scenario(tmp_path)
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(
        "".join(
            json.dumps(
                {"id": p.id, "question": p.question, "golden_answers": p.golden_answers}
            )
            + "\n"
            for p in qa
        )
    )
    script_path = tmp_path / "script.jsonl"
    script_path.write_text(
        "".join(
            json.dumps({"match_key": key, "reply": reply}) + "\n"
            for key, reply in script.items()
        )
    )
    index_dir = tmp_path / "index"
    index.save(index_dir)
    return qa_path, script_path, index_dir


def test_criterion_7_determinism_byte_identical(tmp_path):
    qa_path, script_path, index_dir = _desk_files(tmp_path)

    def run_once(tag):
        instances = tmp_path / f"instances_{tag}.jsonl"
        pairs = tmp_path / f"pairs_{tag}.jsonl"
        reexport = tmp_path / f"pairs2_{tag}.jsonl"
        assert (
            cli_main(
                [
                    "rgp", "build",
                    "--qa", str(qa_path), "--index", str(index_dir),
                    "--script", str(script_path),
                    "--judge", "lexical", "--seed", "21", "--out", str(instances),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "rgp", "augment",
                    "--in", str(instances), "--k", "2",
                    "--seed", "22", "--out", str(pairs),
                ]
            )
            == 0
        )
        assert cli_main(["dpo", "export", "--in", str(pairs), "--out", str(reexport)]) == 0
        return instances.read_bytes(), pairs.read_bytes(), reexport.read_bytes()

    first = run_once("a")
    second = run_once("b")
    assert first[0] == second[0], "rgp build is not byte-deterministic"
    assert first[1] == second[1], "rgp augment is not byte-deterministic"
    assert first[2] == second[2], "dpo export is not byte-deterministic"
    assert first[1] == first[2], "dpo export must reproduce its input file"
    _ok(7, "determinism: rgp build / rgp augment / dpo export byte-identical across reruns")


# --- Criterion 8: provenance anchors ----------------------------------------


def test_criterion_8_provenance_anchors():
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    for anchor in ("11,756", "3,756", "21,928"):
        assert anchor in text, f"README must document the reported-scale count {anchor}"
    _ok(8, "provenance anchors: reported-scale counts documented in README")
