"""Build the preference dataset: for each query generate a memory-only
candidate and a passage-grounded candidate, judge both against the golden
answer, and keep only the disagreements, pairing the correct response as
positive with the incorrect one as negative.

The number of passages fed to the grounded candidate is drawn uniformly from
1..MAX_PASSAGES per query, seeded so rebuilds are byte-identical, and taken
from the top of that query's BM25 hits; build retrieves the hits for a block
of questions at once. Both candidates come from pipeline's gen_llm_answer and
gen_retrieved_answer, the memory-only one first. Judging is either lexical
(deterministic: normalized equality or containment of a gold) or delegated
to a model answering Yes/No. An item whose generation or judging fails is
quarantined with its reason, and the batch always completes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import Corpus
from .data import FieldTypeError, QAPair, Record, read_records, stable_hash_int, write_jsonl
from .errors import RagselError
from .evaluation import accuracy, normalize
from .llm import Backend, GatewayError, GenRequest
from .pipeline import (
    CandidateResponse,
    PromptSet,
    SOURCE_INTERNAL,
    SOURCE_RETRIEVAL,
    _map_items,
    fill_template,
    gen_llm_answer,
    gen_retrieved_answer,
    load_template,
)
from .retrieval import RetrievalResult

JUDGE_LEXICAL = "lexical"
JUDGE_LLM = "llm"
MAX_PASSAGES = 5  # the most passages a grounded candidate sees, and the hits retrieved per query

_VERDICT_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


class RgpError(RagselError):
    pass


class JudgeError(RgpError):
    """The model judge returned something that is not a Yes/No verdict."""


@dataclass
class CandidateBundle:
    qa: QAPair
    internal: CandidateResponse | None = None
    grounded: CandidateResponse | None = None
    n_passages_used: int = 0
    error: str | None = None

    @property
    def usable(self) -> bool:
        return self.error is None and self.internal is not None and self.grounded is not None


@dataclass
class Judgment:
    internal_correct: bool
    grounded_correct: bool
    judge_tag: str  # lexical | llm


@dataclass(slots=True)
class Response(Record):
    """An (answer, explanation) pair, detached from how it was produced."""

    answer: str
    explanation: str


# The file nests these fields under "meta", in this order; each one may be
# absent from it, and reads as this default.
_META_DEFAULTS = {"n_passages": 0, "judge_tag": "", "seed": None, "query_id": ""}


@dataclass
class PreferenceInstance(Record):
    query_id: str
    query: str
    golden: str
    positive: Response
    negative: Response
    positive_source: str  # internal | retrieval
    n_passages: int
    judge_tag: str
    seed: int | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["meta"] = {key: out.pop(key) for key in _META_DEFAULTS}
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "PreferenceInstance":
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise FieldTypeError("object", meta, "meta")
        try:
            return super().from_dict({**obj, **_META_DEFAULTS, **meta})
        except FieldTypeError as exc:
            if exc.path[0] in _META_DEFAULTS:
                exc.path.insert(0, "meta")
            raise


def generate_candidates(
    qa: QAPair,
    hits: Sequence[tuple[str, float]],
    corpus: Corpus,
    backend: Backend,
    prompts: PromptSet,
    rng_seed: int,
    *,
    max_tokens: int = 512,
) -> CandidateBundle:
    """Produce both candidates for one query from its retrieval hits, best
    first (its top MAX_PASSAGES).

    The two requests run_dataset makes for self-selection, in the other
    order: the memory-only one goes first, and its error wins when both fail.
    rng_seed alone fixes how many passages the grounded candidate sees
    (uniform on 1..MAX_PASSAGES, capped by the hits). No passages, or a
    generation failure, is recorded on the bundle as its error, which build
    quarantines.
    """
    n_requested = random.Random(rng_seed).randint(1, MAX_PASSAGES)
    try:
        internal = gen_llm_answer(backend, prompts, qa.question, max_tokens=max_tokens)
        retrieved = gen_retrieved_answer(
            backend, prompts, qa.question, hits[:n_requested], corpus, max_tokens=max_tokens
        )
    except (GatewayError, RagselError) as exc:
        return CandidateBundle(qa=qa, error=f"{type(exc).__name__}: {exc}")
    if retrieved is None:
        return CandidateBundle(qa=qa, internal=internal, error="no passages retrieved")
    grounded, used = retrieved
    return CandidateBundle(qa=qa, internal=internal, grounded=grounded, n_passages_used=len(used))


def judge(
    candidate_answer: str,
    golden_answers: Sequence[str],
    *,
    mode: str = JUDGE_LEXICAL,
    backend: Backend | None = None,
) -> bool:
    """Is the candidate correct against the gold aliases?

    Lexical mode: evaluation.accuracy, true iff the normalized candidate
    contains (or equals) some non-empty normalized gold; an empty candidate
    (failed parse) counts as incorrect.
    LLM mode: a Yes/No verdict parsed from the judge backend's reply; an
    unparseable verdict raises JudgeError rather than guessing.
    """
    if not golden_answers:
        raise RgpError("golden_answers must be non-empty")
    if mode == JUDGE_LEXICAL:
        return accuracy(candidate_answer, golden_answers) == 1
    if mode == JUDGE_LLM:
        if backend is None:
            raise RgpError("llm judge mode requires a backend")
        prompt = fill_template(
            load_template("judge"), golden="; ".join(golden_answers), candidate=candidate_answer
        )
        reply = backend.complete(GenRequest(user_prompt=prompt, max_tokens=8))
        match = _VERDICT_RE.search(reply)
        if not match:
            raise JudgeError(f"judge reply carries no yes/no verdict: {reply!r}")
        return match.group(1).lower() == "yes"
    raise RgpError(f"unknown judge mode {mode!r}")


def filter_instance(bundle: CandidateBundle, judgment: Judgment) -> PreferenceInstance | None:
    """Keep only disagreements: exactly one candidate judged correct.

    Agreement in either direction yields nothing. A disagreement whose two
    answers normalize to the same string is also dropped; a pair that prefers
    a string over itself would poison training.
    """
    if judgment.internal_correct == judgment.grounded_correct:
        return None
    if judgment.internal_correct:
        pos_cand, neg_cand, source = bundle.internal, bundle.grounded, SOURCE_INTERNAL
    else:
        pos_cand, neg_cand, source = bundle.grounded, bundle.internal, SOURCE_RETRIEVAL
    if normalize(pos_cand.answer) == normalize(neg_cand.answer):
        return None
    return PreferenceInstance(
        query_id=bundle.qa.id,
        query=bundle.qa.question,
        golden=bundle.qa.golden_answers[0],
        positive=Response(answer=pos_cand.answer, explanation=pos_cand.explanation),
        negative=Response(answer=neg_cand.answer, explanation=neg_cand.explanation),
        positive_source=source,
        n_passages=bundle.n_passages_used,
        judge_tag=judgment.judge_tag,
    )


@dataclass
class BuildReport(Record):
    total: int = 0
    kept: int = 0
    kept_positive_internal: int = 0
    kept_positive_retrieval: int = 0
    both_correct: int = 0
    both_incorrect: int = 0
    collision_dropped: int = 0
    quarantined: int = 0
    quarantine_reasons: list[str] = field(default_factory=list)
    judge_tag: str = JUDGE_LEXICAL


def build(
    qa_set: Sequence[QAPair],
    index,
    corpus: Corpus,
    backend: Backend,
    prompts: PromptSet,
    *,
    judge_mode: str = JUDGE_LEXICAL,
    seed: int = 0,
    max_tokens: int = 512,
) -> tuple[list[PreferenceInstance], BuildReport]:
    """Map generate (through pipeline._map_items) -> judge -> filter over the
    QA set, judging each bundle in input order as it arrives; the llm judge
    asks `backend`, the same backend that generated the candidates. The
    questions are retrieved a block at a time (`index.retrieve_many`), as
    the items are taken, so one block's hits are held at once.

    Per-item failures (generation errors, judge backend errors, unparseable
    judge verdicts) are quarantined with reasons; the batch always completes.
    The report carries counts for every filter outcome and the positive-source
    split.
    """
    report = BuildReport(total=len(qa_set), judge_tag=judge_mode)
    instances: list[PreferenceInstance] = []

    def candidates(item: tuple[QAPair, RetrievalResult]) -> CandidateBundle:
        qa, result = item
        return generate_candidates(
            qa, result.hits, corpus, backend, prompts, rng_seed=stable_hash_int(seed, qa.id),
            max_tokens=max_tokens,
        )

    retrieved = zip(qa_set, index.retrieve_many((qa.question for qa in qa_set), MAX_PASSAGES))
    for qa, bundle in zip(qa_set, _map_items(candidates, retrieved, backend)):
        if not bundle.usable:
            report.quarantined += 1
            report.quarantine_reasons.append(f"{qa.id}: {bundle.error}")
            continue
        try:
            internal_correct, grounded_correct = (
                judge(cand.answer, qa.golden_answers, mode=judge_mode, backend=backend)
                for cand in (bundle.internal, bundle.grounded)
            )
        except (JudgeError, GatewayError) as exc:
            reason = exc if isinstance(exc, JudgeError) else f"{type(exc).__name__}: {exc}"
            report.quarantined += 1
            report.quarantine_reasons.append(f"{qa.id}: {reason}")
            continue
        judgment = Judgment(internal_correct, grounded_correct, judge_mode)
        instance = filter_instance(bundle, judgment)
        if instance is None:
            if judgment.internal_correct and judgment.grounded_correct:
                report.both_correct += 1
            elif not judgment.internal_correct and not judgment.grounded_correct:
                report.both_incorrect += 1
            else:
                report.collision_dropped += 1
            continue
        instance.seed = seed
        instances.append(instance)
        report.kept += 1
        if instance.positive_source == SOURCE_INTERNAL:
            report.kept_positive_internal += 1
        else:
            report.kept_positive_retrieval += 1
    return instances, report


def save_instances(instances: Sequence[PreferenceInstance], path: str | Path) -> int:
    return write_jsonl(path, (inst.to_dict() for inst in instances))


def load_instances(path: str | Path) -> list[PreferenceInstance]:
    return read_records(path, PreferenceInstance.from_dict)
