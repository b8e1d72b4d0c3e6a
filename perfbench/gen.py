"""Seeded synthetic inputs for the ragsel benchmark.

    python3 perfbench/gen.py --workload answer --seed 1 --out DIR

writes into DIR:

- passages.jsonl: the corpus. Every passage holds 60 tokens drawn from a
  Zipf vocabulary of letter-only words, with some positions replaced by
  planted topic words and gold answers.
- qa.jsonl: the questions. Questions come in topics of 5 or 7. Each
  question is one of the 4 most frequent words (as real questions carry a
  stopword), 4 Zipf tokens, and the topic's words `t<n>a t<n>b t<n>c`; its
  gold answer is `g<n>`. The words `t<n>a t<n>b g<n>` are planted in two
  passages, so BM25 ranks them first and similar questions share an answer.
  A fixed share of the questions is known to the stand-in's memory.
- meta.json: sizes, plus `candidates_per_query`, the mean number of passages
  that share at least one token with a question, over the first questions.

Two generations from one seed are byte-identical. `write_logprobs` makes the
log-prob file once the pair count is known.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

import numpy as np

import standin

SIZES = {
    "answer": {"passages": 50_000, "questions": 4_000},
    "prefdata": {"passages": 500, "questions": 5_878},
    "answer-http": {"passages": 500, "questions": 2_000},
}
VOCAB = 50_000
ZIPF_S = 1.0
PASSAGE_TOKENS = 60
QUESTION_ZIPF_TOKENS = 4
HEAD_RANKS = 4
TOPIC_WORDS = "abc"
TOPIC_SIZES = (5, 7)
PLANTS_PER_TOPIC = 2
CANDIDATE_SAMPLE = 200

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word(rank: int) -> str:
    """Letter-only spelling of a vocabulary rank, so it never looks like a
    topic word or a gold answer (both carry digits)."""
    out = []
    while True:
        rank, rem = divmod(rank, 26)
        out.append(_LETTERS[rem])
        if rank == 0:
            break
    return "w" + "".join(out)


def topic_word(topic: int, which: str) -> str:
    return f"t{topic}{which}"


def gold(topic: int) -> str:
    return f"g{topic}"


def _zipf_sampler(rng: random.Random):
    vocab = [word(r) for r in range(VOCAB)]
    cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(VOCAB)))

    def draw(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum, k=k)

    def draw_head() -> list[str]:
        return rng.choices(vocab[:HEAD_RANKS], cum_weights=cum[:HEAD_RANKS])

    return draw, draw_head


def generate(workload: str, seed: int, out: Path) -> dict:
    sizes = SIZES[workload]
    rng = random.Random(f"ragsel-bench:{workload}:{seed}")
    draw, draw_head = _zipf_sampler(rng)
    n_passages, n_questions = sizes["passages"], sizes["questions"]

    passages = [draw(PASSAGE_TOKENS) for _ in range(n_passages)]
    free = [list(range(PASSAGE_TOKENS)) for _ in range(n_passages)]

    # Exactly this share of questions is known to the stand-in's memory, so
    # the kept share of the preference path barely moves between seeds.
    known = [i < round(standin.P_MEMORY * n_questions) for i in range(n_questions)]
    rng.shuffle(known)
    questions: list[tuple[str, str]] = []  # (text, gold)
    seen: set[str] = set()
    topic = 0
    while len(questions) < n_questions:
        topic += 1
        for _ in range(PLANTS_PER_TOPIC):
            pid = rng.randrange(n_passages)
            while len(free[pid]) < 3:
                pid = rng.randrange(n_passages)
            for token in (topic_word(topic, TOPIC_WORDS[0]), topic_word(topic, TOPIC_WORDS[1]), gold(topic)):
                slot = free[pid].pop(rng.randrange(len(free[pid])))
                passages[pid][slot] = token
        tail = [topic_word(topic, w) for w in TOPIC_WORDS]

        def question() -> str:
            return " ".join(draw_head() + draw(QUESTION_ZIPF_TOKENS) + tail)

        for _ in range(min(rng.choice(TOPIC_SIZES), n_questions - len(questions))):
            text = question()
            while text in seen or standin.knows(seed, text) != known[len(questions)]:
                text = question()
            seen.add(text)
            questions.append((text, gold(topic)))
    rng.shuffle(questions)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "passages.jsonl", "w", encoding="utf-8") as fh:
        for i, tokens in enumerate(passages):
            fh.write(json.dumps({"id": f"p{i:06d}", "text": " ".join(tokens)}) + "\n")
    with open(out / "qa.jsonl", "w", encoding="utf-8") as fh:
        for i, (text, answer) in enumerate(questions):
            fh.write(json.dumps({"id": f"q{i:05d}", "question": text, "golden_answers": [answer]}) + "\n")

    meta = {
        "workload": workload,
        "seed": seed,
        "passages": n_passages,
        "questions": n_questions,
        "topics": topic,
        "candidates_per_query": _candidates_per_query(passages, [q for q, _ in questions[:CANDIDATE_SAMPLE]]),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


def _candidates_per_query(passages: list[list[str]], questions: list[str]) -> float:
    """Mean count of passages sharing a token with each question: the set a
    term-at-a-time scorer must touch. Counted from the generated tokens."""
    ids: dict[str, int] = {}
    flat = np.fromiter(
        (ids.setdefault(t, len(ids)) for tokens in passages for t in tokens),
        dtype=np.int64,
        count=len(passages) * PASSAGE_TOKENS,
    )
    order = np.argsort(flat, kind="stable")
    doc_of = order // PASSAGE_TOKENS
    sorted_tokens = flat[order]
    counts = []
    for text in questions:
        hit = np.zeros(len(passages), dtype=bool)
        for t in set(text.split()):
            if t in ids:
                lo, hi = np.searchsorted(sorted_tokens, [ids[t], ids[t] + 1])
                hit[doc_of[lo:hi]] = True
        counts.append(int(hit.sum()))
    return sum(counts) / len(counts)


def write_logprobs(path: Path, n: int, seed: int) -> None:
    """One log-prob record per exported pair, ids 0..n-1."""
    rng = random.Random(f"ragsel-bench:logprobs:{seed}")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            row = {"pair_id": str(i)}
            for name in ("logp_policy_chosen", "logp_ref_chosen", "logp_policy_rejected", "logp_ref_rejected"):
                row[name] = -rng.uniform(1.0, 60.0)
            fh.write(json.dumps(row) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
