#!/usr/bin/env python3
"""Walkthrough: answer a QA set three ways — memory only, passages only, and
letting the model pick between the two — then score each run.

The model is a scripted backend (a replay table), so this runs offline and
deterministically. The fixture is built so the memory arm gets 2/4 right,
the grounded arm 3/4, and their union 4/4: selection wins when the two
knowledge sources disagree.

    python demos/02_answer_selection.py
"""

import tempfile
from pathlib import Path

from ragsel import (
    PromptSet,
    QAPair,
    ScriptedBackend,
    build_index,
    evaluate,
    ingest,
    run_dataset,
)
from ragsel.evaluation import classify_errors
from ragsel.pipeline import audit_selection

tmp = tempfile.TemporaryDirectory(prefix="ragsel-demo2-")
work = Path(tmp.name)

# Questions share no vocabulary with other items' passages, so each query
# retrieves exactly its own passage and the scripted replies cannot collide.
PASSAGES = [
    {"id": f"d{i}", "title": f"Entry {i}", "text": f"notebook{i} records the code phrase sesame {i}"}
    for i in range(1, 5)
]
QA = [
    QAPair(id=f"q{i}", question=f"Which secret does notebook{i} hold?",
           golden_answers=[f"sesame {i}"])
    for i in range(1, 5)
]

# Memory arm right on q1,q2; grounded arm right on q2,q3,q4.
MEMORY_ANSWERS = {1: "sesame 1", 2: "sesame 2", 3: "mumble 3", 4: "utter nonsense"}
GROUNDED_ANSWERS = {1: "mumble 1", 2: "sesame 2", 3: "sesame 3", 4: "sesame 4"}

script = {}
for i in range(1, 5):
    gold = f"sesame {i}"
    # Keys are "&&"-joined fragments that must all occur in the prompt; the
    # template wording distinguishes the three prompt kinds.
    script[f"using your own knowledge&&notebook{i}"] = (
        f"Explanation: from memory. Answer: {MEMORY_ANSWERS[i]}"
    )
    script[f"using the passages&&notebook{i}"] = (
        f"Explanation: from the passages. Answer: {GROUNDED_ANSWERS[i]}"
    )
    # The selector is keyed on the CORRECT candidate's content, so it is an
    # oracle that is immune to presentation order.
    script[f"two candidate responses&&{gold}"] = (
        f"Explanation: that one is supported. Answer: {gold}"
    )

backend = ScriptedBackend(script)
prompts = PromptSet.default(shots=0)

corpus = ingest(PASSAGES, work / "corpus")
index = build_index(corpus)

for mode in ("llm_only", "standard_rag", "self_select"):
    records = run_dataset(mode, QA, backend, prompts, index=index, corpus=corpus,
                          top_k=3, order_seed=11)
    report = evaluate(records, QA)
    audit = audit_selection(records)
    print(f"{mode:12} -> {report.render()}   selector-neither={audit['neither']}")

# Dig into what the memory-only run got wrong: one near-miss (token overlap
# with the gold) and one answer with no overlap at all.
records = run_dataset("llm_only", QA, backend, prompts)
labels, shares = classify_errors(records, QA)
print("\nmemory-only error buckets:")
for label in labels:
    print(f"  {label.item_id}: {label.category} (basis={label.basis})")
print("shares:", {k: round(v, 2) for k, v in shares.items() if v})

tmp.cleanup()
