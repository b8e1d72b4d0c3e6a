"""Answer-string metrics (EM, F1, Accuracy) over normalized text, plus a
heuristic five-way taxonomy for wrong answers.

Normalization follows the standard extractive-QA recipe: lowercase, strip
punctuation, drop the articles "a"/"an"/"the" as whole tokens, collapse
whitespace. All three metrics take the best value over the gold aliases.
Accuracy is directional: the prediction must contain the gold answer, not
the reverse.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .data import QAPair, Record
from .errors import RagselError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .pipeline import SelectionRecord

CATEGORY_LACK_OF_EVIDENCE = "lack_of_evidence"
CATEGORY_PARTIAL_MATCHING = "partial_matching"
CATEGORY_REASONING_ERROR = "reasoning_error"
CATEGORY_SELECTION_ERROR = "selection_error"
CATEGORY_FORMATTING_ERROR = "formatting_error"

ERROR_CATEGORIES = (
    CATEGORY_LACK_OF_EVIDENCE,
    CATEGORY_PARTIAL_MATCHING,
    CATEGORY_REASONING_ERROR,
    CATEGORY_SELECTION_ERROR,
    CATEGORY_FORMATTING_ERROR,
)

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class EvaluationError(RagselError):
    pass


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace.

    Idempotent: normalize(normalize(x)) == normalize(x).
    """
    text = text.lower()
    text = text.translate(_PUNCT_TABLE)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def _require_golds(golds: Sequence[str]) -> None:
    if not golds:
        raise EvaluationError("golden answer list is empty")


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals some normalized gold."""
    _require_golds(golds)
    pred_n = normalize(pred)
    return int(any(pred_n == normalize(g) for g in golds))


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(pred: str, golds: Sequence[str]) -> float:
    """Token-multiset F1, max over golds."""
    _require_golds(golds)
    pred_tokens = normalize(pred).split()
    return max(_f1_single(pred_tokens, normalize(g).split()) for g in golds)


def accuracy(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction contains some normalized gold as a substring."""
    _require_golds(golds)
    pred_n = normalize(pred)
    return int(any(gold and gold in pred_n for gold in map(normalize, golds)))


@dataclass
class ItemMetrics(Record):
    item_id: str
    em: int
    f1: float
    acc: int


@dataclass
class MetricReport(Record):
    em: float
    f1: float
    acc: float
    n: int
    per_item: list[ItemMetrics]

    def render(self) -> str:
        """One-line rendering with percentages to one decimal."""
        return (
            f"EM {self.em * 100:.1f} | F1 {self.f1 * 100:.1f} | "
            f"Acc {self.acc * 100:.1f} (n={self.n})"
        )


def evaluate(records: Sequence["SelectionRecord"], qa: Sequence[QAPair]) -> MetricReport:
    """Score each record's final answer against the QA pair with the same id.

    Every record id must appear in the QA set; QA pairs without a record are
    ignored, so a partial results file can be scored against a full QA file.
    """
    golds_by_id = {pair.id: pair.golden_answers for pair in qa}
    unmatched = [r.id for r in records if r.id not in golds_by_id]
    if unmatched:
        raise EvaluationError(f"records with no matching qa id: {unmatched}")
    if not records:
        raise EvaluationError("no records to evaluate")
    per_item = []
    for record in records:
        golds = golds_by_id[record.id]
        per_item.append(
            ItemMetrics(
                item_id=record.id,
                em=exact_match(record.final_answer, golds),
                f1=f1(record.final_answer, golds),
                acc=accuracy(record.final_answer, golds),
            )
        )
    n = len(per_item)
    return MetricReport(
        em=math.fsum(it.em for it in per_item) / n,
        f1=math.fsum(it.f1 for it in per_item) / n,
        acc=math.fsum(it.acc for it in per_item) / n,
        n=n,
        per_item=per_item,
    )


@dataclass
class ErrorLabel:
    item_id: str
    category: str
    basis: str = "heuristic"


def classify_error(
    record: "SelectionRecord", golds: Sequence[str], judgment=None
) -> ErrorLabel:
    """Assign exactly one error category to a record whose final answer is wrong.

    First matching rule wins:
      1. formatting_error  - the final answer failed to parse but a gold
         appears in the raw model output;
      2. selection_error   - exactly one candidate was correct and the other
         one was chosen;
      3. partial_matching  - some token overlap with a gold (F1 > 0) but no
         exact match;
      4. reasoning_error   - a gold appears inside a candidate explanation;
      5. lack_of_evidence  - none of the above.

    `judgment` is an optional per-record correctness verdict (anything with
    internal_correct / grounded_correct / judge_tag attributes, e.g. an rgp
    Judgment). When given, it replaces the lexical correctness check in rule
    2, and a model-backed judgment marks the label basis "llm_judge".
    """
    _require_golds(golds)
    if accuracy(record.final_answer, golds) != 0:
        raise EvaluationError(f"record {record.id!r} is not an error (acc=1)")
    basis = "llm_judge" if judgment is not None and judgment.judge_tag == "llm" else "heuristic"

    if record.final_answer == "":
        raws = [record.selector_raw]
        for candidate in (record.internal, record.grounded):
            if candidate is not None:
                raws.append(candidate.raw_text)
        if any(accuracy(raw, golds) == 1 for raw in raws):
            return ErrorLabel(record.id, CATEGORY_FORMATTING_ERROR, basis)

    if record.internal is not None and record.grounded is not None:
        if judgment is not None:
            internal_ok = bool(judgment.internal_correct)
            grounded_ok = bool(judgment.grounded_correct)
        else:
            internal_ok = accuracy(record.internal.answer, golds) == 1
            grounded_ok = accuracy(record.grounded.answer, golds) == 1
        if internal_ok != grounded_ok:
            wrong_side = "retrieval" if internal_ok else "internal"
            if record.chosen_source == wrong_side:
                return ErrorLabel(record.id, CATEGORY_SELECTION_ERROR, basis)

    if record.final_answer and f1(record.final_answer, golds) > 0.0:
        return ErrorLabel(record.id, CATEGORY_PARTIAL_MATCHING, basis)

    explanations = [
        candidate.explanation
        for candidate in (record.internal, record.grounded)
        if candidate is not None
    ]
    if any(accuracy(expl, golds) == 1 for expl in explanations):
        return ErrorLabel(record.id, CATEGORY_REASONING_ERROR, basis)

    return ErrorLabel(record.id, CATEGORY_LACK_OF_EVIDENCE, basis)


def classify_errors(
    records: Sequence["SelectionRecord"],
    qa: Sequence[QAPair],
    judgments: dict | None = None,
) -> tuple[list[ErrorLabel], dict[str, float]]:
    """Label every erroneous record and report category shares (summing to 1).

    `judgments` optionally maps record id -> per-record judgment (see
    classify_error).
    """
    golds_by_id = {pair.id: pair.golden_answers for pair in qa}
    labels = []
    for record in records:
        golds = golds_by_id.get(record.id)
        if golds is None:
            raise EvaluationError(f"record id {record.id!r} has no matching qa pair")
        if accuracy(record.final_answer, golds) == 0:
            judgment = judgments.get(record.id) if judgments else None
            labels.append(classify_error(record, golds, judgment))
    counts = Counter(label.category for label in labels)
    total = len(labels)
    shares = {cat: (counts.get(cat, 0) / total if total else 0.0) for cat in ERROR_CATEGORIES}
    return labels, shares
