"""Dual-answer inference: one candidate from the model's own knowledge, one
grounded in retrieved passages, and a selection step where the model picks
between them.

Prompts are data, not code: the three templates live as text files with
{question}, {passages}, {candidate_1}, {candidate_2} placeholders and can be
swapped without touching this module. Model output is expected in the shape

    Explanation: <why>
    Answer: <short answer>

and is parsed by splitting on the LAST "Answer:" marker, case-insensitively.
"""

from __future__ import annotations

import functools
import json
import random
import re
import string
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import Passage
from .data import QAPair, Record, decode_failure, read_records, stable_hash_int, write_jsonl
from .errors import RagselError
from .evaluation import normalize
from .llm import Backend, GatewayError, GenRequest, in_flight_cap

SOURCE_INTERNAL = "internal"
SOURCE_RETRIEVAL = "retrieval"
CHOSEN_NEITHER = "neither"

ORDER_INTERNAL_FIRST = "internal_first"
ORDER_RETRIEVAL_FIRST = "retrieval_first"

MODE_LLM_ONLY = "llm_only"
MODE_STANDARD_RAG = "standard_rag"
MODE_SELF_SELECT = "self_select"
MODES = (MODE_LLM_ONLY, MODE_STANDARD_RAG, MODE_SELF_SELECT)

TEMPLATE_DIR = Path(__file__).parent / "templates"

_ANSWER_MARKER = re.compile(r"answer:", re.IGNORECASE)
_EXPLANATION_MARKER = re.compile(r"explanation:", re.IGNORECASE)
_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")
_EDGE_PUNCT = string.punctuation + string.whitespace


class PipelineError(RagselError):
    pass


class ResponseParseError(PipelineError):
    """The model output carries no usable "Answer:" segment."""


class PromptTemplateError(PipelineError):
    pass


def parse_response(raw: str) -> tuple[str, str]:
    """Split raw model output into (explanation, answer).

    The last "Answer:" marker wins; the explanation is whatever follows
    "Explanation:" in the prefix (or the whole prefix when that marker is
    absent). The answer is trimmed of surrounding whitespace and punctuation.
    Raises ResponseParseError when no marker exists or the answer is empty.
    """
    matches = list(_ANSWER_MARKER.finditer(raw))
    if not matches:
        raise ResponseParseError("no 'Answer:' marker in model output")
    last = matches[-1]
    prefix, tail = raw[: last.start()], raw[last.end() :]
    expl_match = _EXPLANATION_MARKER.search(prefix)
    explanation = (prefix[expl_match.end() :] if expl_match else prefix).strip()
    answer = tail.strip(_EDGE_PUNCT)
    if not answer:
        raise ResponseParseError("empty answer after 'Answer:' marker")
    return explanation, answer


def render_response(answer: str, explanation: str) -> str:
    """Canonical response form; parse_response inverts it."""
    return f"Explanation: {explanation}\nAnswer: {answer}"


def render_passages(passages: Sequence[Passage]) -> str:
    """Number passages in rank order, one per line, titles in parentheses."""
    lines = []
    for rank, passage in enumerate(passages, start=1):
        if passage.title:
            lines.append(f"[{rank}] ({passage.title}) {passage.text}")
        else:
            lines.append(f"[{rank}] {passage.text}")
    return "\n".join(lines)


@dataclass(slots=True)
class CandidateResponse(Record):
    answer: str
    explanation: str
    source: str  # SOURCE_INTERNAL | SOURCE_RETRIEVAL
    raw_text: str

    @property
    def parse_ok(self) -> bool:
        return bool(self.answer)

    @classmethod
    def from_raw(cls, raw: str, source: str) -> "CandidateResponse":
        """Parse raw output; on failure keep the raw text and flag with an empty answer."""
        try:
            explanation, answer = parse_response(raw)
        except ResponseParseError:
            return cls(answer="", explanation="", source=source, raw_text=raw)
        return cls(answer=answer, explanation=explanation, source=source, raw_text=raw)


@dataclass
class Exemplar(Record):
    question: str
    explanation: str
    answer: str


_REQUIRED_PLACEHOLDERS = {
    "llm_only_template": {"question"},
    "rag_template": {"question", "passages"},
    "select_template": {"question", "candidate_1", "candidate_2"},
}


@functools.cache
def load_template(name: str) -> str:
    """A packaged template, read once per process."""
    return (TEMPLATE_DIR / f"{name}.txt").read_text(encoding="utf-8")


def _load_exemplars(path: str | Path) -> list[Exemplar]:
    """A JSON list of {"question", "explanation", "answer"} objects; a file
    or item of another shape is a PromptTemplateError naming the exemplar."""
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PromptTemplateError(f"exemplar file is not JSON ({exc.msg})") from exc
    if not isinstance(rows, list):
        raise PromptTemplateError("exemplar file must hold a JSON list of objects")
    exemplars = []
    for n, row in enumerate(rows, start=1):
        try:
            if not isinstance(row, dict):
                raise TypeError("exemplar is not an object")
            exemplars.append(Exemplar.from_dict(row))
        except (KeyError, TypeError) as exc:
            raise PromptTemplateError(f"exemplar {n}: {decode_failure(exc)}") from exc
    return exemplars


def fill_template(template: str, **values: str) -> str:
    out = template
    for key, value in values.items():
        out = out.replace("{" + key + "}", value)
    return out


@dataclass
class PromptSet:
    llm_only_template: str
    rag_template: str
    select_template: str
    fewshot_examples: list[Exemplar] = field(default_factory=list)

    def __post_init__(self):
        for attr, required in _REQUIRED_PLACEHOLDERS.items():
            found = set(_PLACEHOLDER_RE.findall(getattr(self, attr)))
            if found != required:
                raise PromptTemplateError(
                    f"{attr} must use exactly the placeholders {sorted(required)}, found {sorted(found)}"
                )
        if len(self.fewshot_examples) not in (0, 3):
            raise PromptTemplateError("fewshot_examples must hold 0 or 3 exemplars")

    @classmethod
    def default(cls, shots: int = 0, fewshot_path: str | Path | None = None) -> "PromptSet":
        """The shipped templates; shots=3 loads the packaged exemplars unless a
        path is given. A path with shots=0 is an error, not ignored."""
        if shots not in (0, 3):
            raise PromptTemplateError("shots must be 0 or 3")
        if fewshot_path is not None and shots == 0:
            raise PromptTemplateError("an exemplar file needs shots 3, got shots 0")
        exemplars: list[Exemplar] = []
        if shots == 3:
            if fewshot_path is None:
                fewshot_path = TEMPLATE_DIR / "fewshot_examples.json"
            exemplars = _load_exemplars(fewshot_path)
        return cls(
            llm_only_template=load_template("llm_only"),
            rag_template=load_template("rag"),
            select_template=load_template("select"),
            fewshot_examples=exemplars,
        )

    def _with_exemplars(self, filled: str) -> str:
        if not self.fewshot_examples:
            return filled
        blocks = [
            f"Question: {ex.question}\n{render_response(ex.answer, ex.explanation)}"
            for ex in self.fewshot_examples
        ]
        return "\n\n".join(blocks) + "\n\n" + filled

    def llm_only_prompt(self, question: str) -> str:
        return self._with_exemplars(fill_template(self.llm_only_template, question=question))

    def rag_prompt(self, question: str, passages: Sequence[Passage]) -> str:
        return self._with_exemplars(
            fill_template(self.rag_template, question=question, passages=render_passages(passages))
        )

    def select_prompt(self, question: str, candidate_1: str, candidate_2: str) -> str:
        # The selection prompt is always zero-shot; exemplars only shape the
        # two answer-generation prompts.
        return fill_template(
            self.select_template,
            question=question,
            candidate_1=candidate_1,
            candidate_2=candidate_2,
        )


@dataclass(slots=True)
class SelectionRecord(Record):
    id: str
    query: str
    internal: CandidateResponse | None = None
    grounded: CandidateResponse | None = None
    final_answer: str = ""
    final_explanation: str = ""
    chosen_source: str = CHOSEN_NEITHER  # internal | retrieval | neither
    presentation_order: str = ORDER_INTERNAL_FIRST  # internal_first | retrieval_first
    passages_used: list[str] = field(default_factory=list)
    selector_raw: str = ""
    error: str | None = None


def gen_llm_answer(
    backend: Backend, prompts: PromptSet, question: str, *, max_tokens: int = 512
) -> CandidateResponse:
    """Candidate from the model's own knowledge, no passages in the prompt."""
    prompt = prompts.llm_only_prompt(question)
    raw = backend.complete(GenRequest(user_prompt=prompt, max_tokens=max_tokens))
    return CandidateResponse.from_raw(raw, SOURCE_INTERNAL)


def fit_passages(
    prompts: PromptSet, question: str, passages: Sequence[Passage], budget: int | None
) -> list[Passage]:
    """Drop lowest-ranked passages until the rendered prompt fits the character
    budget; never drops below one passage."""
    if budget is None:
        return list(passages)
    kept = list(passages)
    while len(kept) > 1 and len(prompts.rag_prompt(question, kept)) > budget:
        kept.pop()
    return kept


def gen_rag_answer(
    backend: Backend,
    prompts: PromptSet,
    question: str,
    passages: Sequence[Passage],
    *,
    budget: int | None = None,
    max_tokens: int = 512,
) -> tuple[CandidateResponse, list[str]]:
    """Candidate grounded in the given passages (rank order, numbered).

    Returns the candidate and the ids of the passages that actually made it
    into the prompt after any budget truncation.
    """
    if not passages:
        raise PipelineError("gen_rag_answer requires at least one passage")
    kept = fit_passages(prompts, question, passages, budget)
    prompt = prompts.rag_prompt(question, kept)
    raw = backend.complete(GenRequest(user_prompt=prompt, max_tokens=max_tokens))
    return CandidateResponse.from_raw(raw, SOURCE_RETRIEVAL), [p.id for p in kept]


def gen_retrieved_answer(
    backend: Backend,
    prompts: PromptSet,
    question: str,
    index,
    corpus,
    top_k: int,
    *,
    budget: int | None = None,
    max_tokens: int = 512,
) -> tuple[CandidateResponse, list[str]] | None:
    """Retrieve the top_k passages, fetch them and answer from them as
    gen_rag_answer does. Returns None, with no backend call, when retrieval
    finds nothing: each caller has its own policy for an item without passages.
    """
    passages = [corpus.get(pid) for pid, _score in index.retrieve(question, top_k).hits]
    if not passages:
        return None
    return gen_rag_answer(backend, prompts, question, passages, budget=budget, max_tokens=max_tokens)


def gen_both_answers(
    backend: Backend,
    prompts: PromptSet,
    question: str,
    index,
    corpus,
    top_k: int,
    *,
    memory_first: bool,
    budget: int | None = None,
    max_tokens: int = 512,
) -> tuple[CandidateResponse, tuple[CandidateResponse, list[str]] | None]:
    """The memory-only candidate and gen_retrieved_answer's result for one
    question: the candidate stage of both `ragsel run` and `rgp build`. The
    two requests go out in turn, the memory-only one first when memory_first,
    and the first to fail raises."""
    if memory_first:
        internal = gen_llm_answer(backend, prompts, question, max_tokens=max_tokens)
    grounded = gen_retrieved_answer(
        backend, prompts, question, index, corpus, top_k, budget=budget, max_tokens=max_tokens
    )
    if not memory_first:
        internal = gen_llm_answer(backend, prompts, question, max_tokens=max_tokens)
    return internal, grounded


def _map_items(fn: Callable, items: Iterable, backend: Backend) -> Iterator:
    """Yield fn(item) for each item, in input order: a plain loop, or a pool
    made for this call that runs as many items at once as the backend takes
    requests (llm.in_flight_cap) and submits at most 2 * cap items ahead
    (Executor.map would hold a future, about 1.8 KB, for every item at once)."""
    cap = in_flight_cap(backend)
    if cap < 2:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(cap, thread_name_prefix="ragsel-item") as pool:
        window: deque[Future] = deque()
        for item in items:
            window.append(pool.submit(fn, item))
            if len(window) == 2 * cap:
                yield window.popleft().result()
        yield from (future.result() for future in window)


def _match_choice(
    parsed_answer: str, first: CandidateResponse, second: CandidateResponse
) -> CandidateResponse | None:
    """Map the selector's restated answer onto one of the two candidates.

    Normalized equality wins; ties go to the first presented candidate. The
    fallback accepts a candidate answer contained in the restatement on token
    boundaries (so a one-letter answer cannot match inside another word),
    most specific (longest) first.
    """
    parsed_n = normalize(parsed_answer)
    if not parsed_n:
        return None
    ordered = [first, second]
    equal = [c for c in ordered if c.answer and normalize(c.answer) == parsed_n]
    if equal:
        return equal[0]
    padded = f" {parsed_n} "
    contained = [
        (len(normalize(c.answer)), -i, c)
        for i, c in enumerate(ordered)
        if c.answer and normalize(c.answer) and f" {normalize(c.answer)} " in padded
    ]
    if contained:
        contained.sort(reverse=True)
        return contained[0][2]
    return None


def select(
    backend: Backend,
    prompts: PromptSet,
    question: str,
    internal: CandidateResponse,
    grounded: CandidateResponse,
    order_seed: int,
    *,
    item_id: str = "",
    passages_used: Sequence[str] = (),
    max_tokens: int = 512,
) -> SelectionRecord:
    """Ask the model to pick between the two candidates.

    Presentation order is a fair coin drawn from order_seed. The reply is
    parsed and mapped back to a candidate by normalized answer match; when it
    matches neither, the record keeps the raw reply and is flagged with
    chosen_source="neither" for audit.
    """
    internal_first = random.Random(order_seed).random() < 0.5
    first, second = (internal, grounded) if internal_first else (grounded, internal)
    prompt = prompts.select_prompt(
        question,
        render_response(first.answer, first.explanation),
        render_response(second.answer, second.explanation),
    )
    raw = backend.complete(GenRequest(user_prompt=prompt, max_tokens=max_tokens))
    order = ORDER_INTERNAL_FIRST if internal_first else ORDER_RETRIEVAL_FIRST

    try:
        explanation, answer = parse_response(raw)
    except ResponseParseError:
        explanation, answer = "", ""
    chosen = _match_choice(answer, first, second) if answer else None
    if chosen is not None:
        answer, explanation = chosen.answer, chosen.explanation
    return SelectionRecord(
        id=item_id,
        query=question,
        internal=internal,
        grounded=grounded,
        final_answer=answer,
        final_explanation=explanation,
        chosen_source=chosen.source if chosen else CHOSEN_NEITHER,
        presentation_order=order,
        passages_used=list(passages_used),
        selector_raw=raw,
    )


def run_dataset(
    mode: str,
    qa_pairs: Sequence[QAPair],
    backend: Backend,
    prompts: PromptSet,
    *,
    index=None,
    corpus=None,
    top_k: int = 5,
    order_seed: int = 0,
    budget: int | None = None,
    max_tokens: int = 512,
) -> list[SelectionRecord]:
    """One SelectionRecord per QA pair, in input order, whatever happens.

    Items run through _map_items, as many at once as the backend takes
    requests (llm.in_flight_cap). llm_only records carry no grounded
    candidate; standard_rag records carry no internal candidate and the final
    answer is the grounded one, from gen_retrieved_answer. self_select takes
    both candidates from gen_both_answers, as rgp.generate_candidates does,
    and then asks the model to pick. When retrieval finds nothing, the grounded
    slot falls back to the memory-only answer (in self_select, the internal
    candidate itself, with no second call) and passages_used stays empty.
    Per-item failures land in the record's error field and never abort the
    batch.
    """
    if mode not in MODES:
        raise PipelineError(f"unknown mode {mode!r}")
    if mode in (MODE_STANDARD_RAG, MODE_SELF_SELECT) and (index is None or corpus is None):
        raise PipelineError(f"mode {mode} requires an index and a corpus")

    def one(qa: QAPair) -> SelectionRecord:
        try:
            if mode == MODE_LLM_ONLY:
                cand = gen_llm_answer(backend, prompts, qa.question, max_tokens=max_tokens)
                return SelectionRecord(
                    id=qa.id,
                    query=qa.question,
                    internal=cand,
                    final_answer=cand.answer,
                    final_explanation=cand.explanation,
                    chosen_source=SOURCE_INTERNAL,
                )
            if mode == MODE_STANDARD_RAG:
                retrieved = gen_retrieved_answer(
                    backend, prompts, qa.question, index, corpus, top_k,
                    budget=budget, max_tokens=max_tokens,
                )
                if retrieved is None:
                    retrieved = gen_llm_answer(backend, prompts, qa.question, max_tokens=max_tokens), []
                grounded, used = retrieved
                return SelectionRecord(
                    id=qa.id,
                    query=qa.question,
                    grounded=grounded,
                    final_answer=grounded.answer,
                    final_explanation=grounded.explanation,
                    chosen_source=SOURCE_RETRIEVAL,
                    presentation_order=ORDER_RETRIEVAL_FIRST,
                    passages_used=used,
                )
            internal, retrieved = gen_both_answers(
                backend, prompts, qa.question, index, corpus, top_k,
                memory_first=False, budget=budget, max_tokens=max_tokens,
            )
            grounded, used = retrieved or (internal, [])
            return select(
                backend,
                prompts,
                qa.question,
                internal,
                grounded,
                stable_hash_int(order_seed, qa.id),
                item_id=qa.id,
                passages_used=used,
                max_tokens=max_tokens,
            )
        except (GatewayError, RagselError) as exc:
            return SelectionRecord(
                id=qa.id,
                query=qa.question,
                error=f"{type(exc).__name__}: {exc}",
            )

    return list(_map_items(one, qa_pairs, backend))


def audit_selection(records: Sequence[SelectionRecord]) -> dict:
    """Report how often the selector's reply matched neither candidate."""
    n = len(records)
    neither = sum(1 for r in records if r.chosen_source == CHOSEN_NEITHER and r.error is None)
    errored = sum(1 for r in records if r.error is not None)
    return {
        "n": n,
        "neither": neither,
        "neither_fraction": neither / n if n else 0.0,
        "errors": errored,
    }


def save_records(records: Sequence[SelectionRecord], path: str | Path) -> int:
    return write_jsonl(path, (r.to_dict() for r in records))


def load_records(path: str | Path) -> list[SelectionRecord]:
    return read_records(path, SelectionRecord.from_dict)
