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
from .data import Record, iter_records, read_records, temp_sibling, write_jsonl
from .errors import RagselError
from .evaluation import normalize
from .pipeline import fill_template, load_template


class DpoError(RagselError):
    pass


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta!r}")


_LOGPROB_FIELDS = ("logp_policy_chosen", "logp_ref_chosen", "logp_policy_rejected", "logp_ref_rejected")


@dataclass(frozen=True, slots=True)
class LogProbRecord(Record):
    pair_id: str
    logp_policy_chosen: float
    logp_ref_chosen: float
    logp_policy_rejected: float
    logp_ref_rejected: float

    def __post_init__(self):
        for name in _LOGPROB_FIELDS:
            value = float(getattr(self, name))  # a JSON integer is held as a float
            object.__setattr__(self, name, value)
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


def load_logprob_file(path: str | Path) -> list[LogProbRecord]:
    return read_records(path, LogProbRecord.from_dict)


@dataclass
class ExportSummary(Record):
    total: int
    by_origin: dict[str, int]
    path: str


def _slot_stretch(template: str) -> str:
    """The stretch of the selection template from its first candidate slot
    through its second."""
    start, end = sorted((template.index("{candidate_1}"), template.index("{candidate_2}")))
    return template[start : end + len("{candidate_2}")]


def _validate_pair(pair: DpoPair, ordinal: int, stretch: str) -> None:
    label = f"pair {ordinal} (queries {pair.source_query_ids})"
    if normalize(pair.chosen) == normalize(pair.rejected):
        raise DpoError(f"{label}: chosen and rejected normalize to the same text")
    if pair.order not in ("chosen_first", "rejected_first"):
        raise DpoError(f"{label}: unknown order {pair.order!r}")
    first, second = (pair.chosen, pair.rejected) if pair.order == "chosen_first" else (pair.rejected, pair.chosen)
    if fill_template(stretch, candidate_1=first, candidate_2=second) not in pair.prompt:
        # The reverse order is rendered only to tell the two faults apart.
        if fill_template(stretch, candidate_1=second, candidate_2=first) in pair.prompt:
            raise DpoError(f"{label}: recorded order says {pair.order} but prompt disagrees")
        raise DpoError(f"{label}: prompt does not embed both responses verbatim in its candidate slots")


def export_training_file(pairs: Sequence[DpoPair], out_path: str | Path) -> ExportSummary:
    """Validate every pair, write the JSONL beside `out_path`, re-read it as a
    final check, and only then rename it over `out_path`.

    Each prompt must hold chosen and rejected in the candidate slots of the
    packaged selection template, in the recorded order.
    Any invariant violation aborts before a single line is written.
    The check decodes the written lines one at a time, each compared with the
    pair it was written from, so it holds no second copy of the pairs.
    """
    if not pairs:
        raise DpoError("no pairs to export")
    stretch = _slot_stretch(load_template("select"))
    for ordinal, pair in enumerate(pairs, start=1):
        _validate_pair(pair, ordinal, stretch)
    out = Path(out_path)
    staged = temp_sibling(out)
    try:
        write_jsonl(staged, (pair.to_dict() for pair in pairs))
        read = 0
        for read, decoded in enumerate(iter_records(staged, DpoPair.from_dict), start=1):
            if read <= len(pairs) and decoded != pairs[read - 1]:
                raise DpoError(f"re-read validation failed: pair {read} (queries {pairs[read - 1].source_query_ids}) "
                               "does not read back as written")
        if read != len(pairs):
            raise DpoError(f"re-read validation failed: wrote {len(pairs)} pairs, read {read}")
        staged.replace(out)
    finally:
        staged.unlink(missing_ok=True)
    by_origin: dict[str, int] = {}
    for pair in pairs:
        by_origin[pair.negative_origin] = by_origin.get(pair.negative_origin, 0) + 1
    return ExportSummary(total=len(pairs), by_origin=by_origin, path=str(out))


def load_pairs(path: str | Path) -> list[DpoPair]:
    return read_records(path, DpoPair.from_dict)
