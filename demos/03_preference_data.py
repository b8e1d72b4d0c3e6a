#!/usr/bin/env python3
"""Walkthrough: turn disagreements between the two answer arms into
preference-training data, expand it with mined hard negatives, export it,
and evaluate the forward preference loss on synthetic log-probabilities.

    python demos/03_preference_data.py
"""

import math
import random
import tempfile
from pathlib import Path

from ragsel import (
    DpoConfig,
    LogProbRecord,
    PromptSet,
    QAPair,
    ScriptedBackend,
    build,
    build_index,
    dataset_loss,
    export_training_file,
    ingest,
)
from ragsel.augment import augment_dataset

tmp = tempfile.TemporaryDirectory(prefix="ragsel-demo3-")
work = Path(tmp.name)

# Question wording shares no tokens with other items' passages, so each
# query retrieves only its own passage and scripted replies cannot collide.
N = 8
PASSAGES = [
    {"id": f"d{i}", "text": f"ledger{i} lists the rare word amulet{i} prominently"}
    for i in range(1, N + 1)
]
QA = [
    QAPair(id=f"q{i}", question=f"Which keepsake does ledger{i} describe?",
           golden_answers=[f"amulet{i}"])
    for i in range(1, N + 1)
]

# Memory arm right on odd items, grounded arm right on even items: every
# item is a disagreement, so every item yields a preference instance.
script = {}
for i in range(1, N + 1):
    gold = f"amulet{i}"
    memory = gold if i % 2 == 1 else f"trinket{i}"
    grounded = gold if i % 2 == 0 else f"bauble{i}"
    script[f"using your own knowledge&&ledger{i}"] = f"Explanation: recalled. Answer: {memory}"
    script[f"using the passages&&ledger{i}"] = f"Explanation: quoted. Answer: {grounded}"

backend = ScriptedBackend(script)
corpus = ingest(PASSAGES, work / "corpus")
index = build_index(corpus)

# 1. Build: generate both candidates per query (1..5 passages, seeded),
#    judge each against the gold lexically, keep only the disagreements.
instances, report = build(QA, index, corpus, backend, PromptSet.default(),
                          judge_mode="lexical", seed=7)
print(f"kept {report.kept}/{report.total} instances "
      f"(positive from memory: {report.kept_positive_internal}, "
      f"from passages: {report.kept_positive_retrieval})")

# 2. Augment: each instance adopts its 2 most similar queries' responses as
#    extra negatives -> up to 2K+1 = 5 pairs per instance, presentation order
#    randomized per pair.
pairs, aug_report = augment_dataset(instances, k=2, order_seed=13)
print(f"expanded to {aug_report.pairs} pairs "
      f"(own {aug_report.own_negative} / neighbor-positive {aug_report.neighbor_positive} "
      f"/ neighbor-negative {aug_report.neighbor_negative}); "
      f"chosen-first fraction {aug_report.chosen_first / aug_report.pairs:.2f}")

# 3. Export a training file any preference-training harness can load.
summary = export_training_file(pairs, work / "train_pairs.jsonl")
print(f"exported {summary.total} pairs to {summary.path}")

# 4. Forward loss from (synthetic) sequence log-probabilities. A real run
#    scores the exported file with policy and reference models and writes the
#    same four numbers per pair.
rng = random.Random(0)
records = []
for i, _pair in enumerate(pairs):
    lift = rng.uniform(-2.0, 4.0)  # how much the policy prefers the chosen response
    records.append(
        LogProbRecord(
            pair_id=str(i),
            logp_policy_chosen=-10.0 + min(lift, 9.0),
            logp_ref_chosen=-10.0,
            logp_policy_rejected=-12.0 - max(lift, 0.0),
            logp_ref_rejected=-12.0,
        )
    )
mean, per_pair = dataset_loss(records, DpoConfig(beta=0.1))
print(f"mean forward loss at beta=0.1: {mean:.4f} over {len(per_pair)} pairs "
      f"(ln 2 = {math.log(2):.4f} would mean the policy has learned nothing)")

tmp.cleanup()
