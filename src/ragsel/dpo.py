"""Forward preference loss and training-file export.

The loss for one (chosen, rejected) pair with policy/reference sequence
log-probabilities is

    margin = beta * [(logp_policy_chosen - logp_ref_chosen)
                     - (logp_policy_rejected - logp_ref_rejected)]
    loss   = -ln sigmoid(margin) = softplus(-margin)

computed in double precision through the stable softplus, so it stays finite
for margins far beyond anything training produces. Log-probabilities arrive
from files written by external scoring runs; nothing here tokenizes or runs
a model, and gradient training is left to whatever trainer consumes the
exported JSONL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .augment import DpoPair
from .data import read_records, write_jsonl
from .errors import RagselError
from .evaluation import normalize
from .pipeline import fill_template, load_template


class DpoError(RagselError):
    pass


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValueError("beta must be > 0")


@dataclass(frozen=True)
class LogProbRecord:
    pair_id: str
    logp_policy_chosen: float
    logp_ref_chosen: float
    logp_policy_rejected: float
    logp_ref_rejected: float

    def __post_init__(self):
        for name in (
            "logp_policy_chosen",
            "logp_ref_chosen",
            "logp_policy_rejected",
            "logp_ref_rejected",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value > 0:
                raise ValueError(f"{name} is a sequence log-probability and must be <= 0")


def _softplus(x: float) -> float:
    # max(x, 0) + log1p(exp(-|x|)) never overflows and keeps full precision
    # near zero.
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def margin(record: LogProbRecord, config: DpoConfig) -> float:
    return config.beta * (
        (record.logp_policy_chosen - record.logp_ref_chosen)
        - (record.logp_policy_rejected - record.logp_ref_rejected)
    )


def pair_loss(record: LogProbRecord, config: DpoConfig) -> float:
    """-ln sigmoid(margin); ln 2 at zero margin, strictly decreasing in the margin."""
    m = margin(record, config)
    if not math.isfinite(m):
        raise DpoError(f"pair {record.pair_id!r}: non-finite margin")
    return _softplus(-m)


def dataset_loss(
    records: Sequence[LogProbRecord], config: DpoConfig
) -> tuple[float, list[float]]:
    """Mean pair loss plus the per-pair values for diagnostics.

    The mean uses exact float summation, so it does not depend on record
    order.
    """
    if not records:
        raise DpoError("no log-prob records to score")
    per_pair = [pair_loss(record, config) for record in records]
    return math.fsum(per_pair) / len(per_pair), per_pair


_LOGPROB_FIELDS = (
    "logp_policy_chosen",
    "logp_ref_chosen",
    "logp_policy_rejected",
    "logp_ref_rejected",
)


def load_logprob_file(path: str | Path) -> list[LogProbRecord]:
    return read_records(
        path,
        lambda obj: LogProbRecord(
            pair_id=str(obj["pair_id"]), **{name: float(obj[name]) for name in _LOGPROB_FIELDS}
        ),
    )


@dataclass
class ExportSummary:
    total: int
    by_origin: dict[str, int]
    path: str

    def to_dict(self) -> dict:
        return {"total": self.total, "by_origin": self.by_origin, "path": self.path}


def _slots(template: str, first: str, second: str) -> str:
    """The stretch of a rendered selection prompt from the first candidate
    slot through the second, filled with `first` and `second`."""
    start, end = sorted((template.index("{candidate_1}"), template.index("{candidate_2}")))
    return fill_template(template[start : end + len("{candidate_2}")], candidate_1=first, candidate_2=second)


def _validate_pair(pair: DpoPair, ordinal: int, template: str) -> None:
    label = f"pair {ordinal} (queries {pair.source_query_ids})"
    if normalize(pair.chosen) == normalize(pair.rejected):
        raise DpoError(f"{label}: chosen and rejected normalize to the same text")
    if pair.order not in ("chosen_first", "rejected_first"):
        raise DpoError(f"{label}: unknown order {pair.order!r}")
    chosen_first = _slots(template, pair.chosen, pair.rejected) in pair.prompt
    rejected_first = _slots(template, pair.rejected, pair.chosen) in pair.prompt
    if not (chosen_first or rejected_first):
        raise DpoError(f"{label}: prompt does not embed both responses verbatim in its candidate slots")
    if not (chosen_first if pair.order == "chosen_first" else rejected_first):
        raise DpoError(f"{label}: recorded order says {pair.order} but prompt disagrees")


def export_training_file(
    pairs: Sequence[DpoPair], out_path: str | Path, *, select_template: str | None = None
) -> ExportSummary:
    """Validate every pair, write the JSONL, and re-read it as a final check.

    Each prompt must hold chosen and rejected in the candidate slots of
    `select_template` (the packaged one by default), in the recorded order.
    Any invariant violation aborts before a single line is written.
    """
    if not pairs:
        raise DpoError("no pairs to export")
    template = select_template if select_template is not None else load_template("select")
    for ordinal, pair in enumerate(pairs, start=1):
        _validate_pair(pair, ordinal, template)
    out = Path(out_path)
    write_jsonl(out, (pair.to_dict() for pair in pairs))
    reread = load_pairs(out)
    if len(reread) != len(pairs):
        raise DpoError(f"re-read validation failed: wrote {len(pairs)} pairs, read {len(reread)}")
    by_origin: dict[str, int] = {}
    for pair in pairs:
        by_origin[pair.negative_origin] = by_origin.get(pair.negative_origin, 0) + 1
    return ExportSummary(total=len(pairs), by_origin=by_origin, path=str(out))


def load_pairs(path: str | Path) -> list[DpoPair]:
    return read_records(path, DpoPair.from_dict)
