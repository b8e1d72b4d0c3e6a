import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ragsel.dpo as dpo_module
from ragsel.augment import DpoPair
from ragsel.data import MalformedRecordError, write_jsonl
from ragsel.dpo import (
    DpoConfig,
    DpoError,
    LogProbRecord,
    dataset_loss,
    export_training_file,
    load_logprob_file,
    load_pairs,
    margin,
    pair_loss,
)


def _record(pid="p", lpc=-1.0, lrc=-1.0, lpr=-1.0, lrr=-1.0):
    return LogProbRecord(
        pair_id=pid,
        logp_policy_chosen=lpc,
        logp_ref_chosen=lrc,
        logp_policy_rejected=lpr,
        logp_ref_rejected=lrr,
    )


def _record_with_margin(m, beta):
    # margin = beta * delta with delta split across the four logps, all <= 0.
    delta = m / beta
    half = abs(delta) / 2
    if delta >= 0:
        return _record(lpc=0.0, lrc=-half, lpr=-half, lrr=0.0)
    return _record(lpc=-half, lrc=0.0, lpr=0.0, lrr=-half)


class TestPairLoss:
    def test_zero_margin_is_ln2(self):
        loss = pair_loss(_record(), DpoConfig())
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_evaluated_margin(self):
        # beta=0.1, chosen log-ratio +1, rejected log-ratio -1 -> m=0.2.
        record = _record(lpc=-1.0, lrc=-2.0, lpr=-2.0, lrr=-1.0)
        config = DpoConfig(beta=0.1)
        assert margin(record, config) == pytest.approx(0.2, abs=1e-15)
        assert pair_loss(record, config) == pytest.approx(math.log(1 + math.exp(-0.2)), abs=1e-12)
        assert pair_loss(record, config) == pytest.approx(0.598139, abs=1e-6)

    def test_large_positive_margin_tiny_finite_loss(self):
        record = _record_with_margin(50.0, beta=1.0)
        loss = pair_loss(record, DpoConfig(beta=1.0))
        assert 0.0 < loss < 1e-20
        assert math.isfinite(loss)

    def test_finite_at_extreme_margins(self):
        for m in (1e4, -1e4):
            record = _record_with_margin(m, beta=0.1)
            loss = pair_loss(record, DpoConfig(beta=0.1))
            assert math.isfinite(loss)
            assert loss >= 0.0

    def test_strictly_monotone_on_margin_grid(self):
        config = DpoConfig(beta=0.1)
        grid = [-5 + 0.1 * i for i in range(101)]
        losses = [pair_loss(_record_with_margin(m, config.beta), config) for m in grid]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.floats(min_value=-30, max_value=-10),
        other=st.floats(min_value=-30, max_value=-10),
        ref_c=st.floats(min_value=-30, max_value=-10),
        ref_r=st.floats(min_value=-30, max_value=-10),
        shift=st.floats(min_value=-5, max_value=5),
    )
    def test_shift_invariance(self, base, other, ref_c, ref_r, shift):
        config = DpoConfig(beta=0.3)
        original = _record(lpc=base, lrc=ref_c, lpr=other, lrr=ref_r)
        shifted = _record(lpc=base + shift, lrc=ref_c, lpr=other + shift, lrr=ref_r)
        assert pair_loss(shifted, config) == pytest.approx(
            pair_loss(original, config), abs=1e-12
        )

    def test_beta_scaling_equivalence(self):
        # Same beta*delta product -> same loss.
        rec_a = _record(lpc=-1.0, lrc=-3.0, lpr=-3.0, lrr=-1.0)  # delta = 4
        rec_b = _record(lpc=-1.0, lrc=-2.0, lpr=-2.0, lrr=-1.0)  # delta = 2
        assert pair_loss(rec_a, DpoConfig(beta=0.1)) == pytest.approx(
            pair_loss(rec_b, DpoConfig(beta=0.2)), abs=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DpoConfig(beta=0.0)
        with pytest.raises(ValueError):
            DpoConfig(beta=-1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_config_rejects_a_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            DpoConfig(beta=beta)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="finite"):
            _record(lpc=float("nan"))
        with pytest.raises(ValueError, match="<= 0"):
            _record(lpc=0.5)


class TestDatasetLoss:
    def test_mean_of_two(self):
        config = DpoConfig(beta=0.1)
        records = [_record_with_margin(1.0, 0.1), _record_with_margin(-1.0, 0.1)]
        mean, per_pair = dataset_loss(records, config)
        assert len(per_pair) == 2
        assert mean == pytest.approx((per_pair[0] + per_pair[1]) / 2, abs=1e-15)

    def test_all_zero_margin_mean_is_ln2(self):
        records = [_record(pid=str(i)) for i in range(10)]
        mean, _ = dataset_loss(records, DpoConfig())
        assert mean == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_independent_recomputation(self):
        rng = random.Random(0)
        config = DpoConfig(beta=0.17)
        records = [
            _record(
                pid=str(i),
                lpc=-rng.uniform(0, 20),
                lrc=-rng.uniform(0, 20),
                lpr=-rng.uniform(0, 20),
                lrr=-rng.uniform(0, 20),
            )
            for i in range(100)
        ]
        mean, _ = dataset_loss(records, config)
        # Brute force with a separately written formula.
        total = 0.0
        for r in records:
            m = config.beta * (
                (r.logp_policy_chosen - r.logp_ref_chosen)
                - (r.logp_policy_rejected - r.logp_ref_rejected)
            )
            total += math.log(1 + math.exp(-m))
        assert mean == pytest.approx(total / 100, abs=1e-12)

    def test_order_independent_mean(self):
        rng = random.Random(3)
        records = [
            _record(pid=str(i), lpc=-rng.uniform(0, 9), lpr=-rng.uniform(0, 9))
            for i in range(50)
        ]
        config = DpoConfig()
        forward, _ = dataset_loss(records, config)
        backward, _ = dataset_loss(list(reversed(records)), config)
        assert forward == backward

    def test_empty_rejected(self):
        with pytest.raises(DpoError):
            dataset_loss([], DpoConfig())


def _pair(i=0, chosen="Explanation: good why\nAnswer: right", rejected="Explanation: bad why\nAnswer: wrong", order="chosen_first"):
    first, second = (chosen, rejected) if order == "chosen_first" else (rejected, chosen)
    prompt = f"Question: q{i}\n\nCandidate 1:\n{first}\n\nCandidate 2:\n{second}\n"
    return DpoPair(
        prompt=prompt,
        chosen=chosen,
        rejected=rejected,
        order=order,
        negative_origin="own_negative",
        source_query_ids=(f"q{i}", f"q{i}"),
    )


class TestExport:
    def test_writes_and_counts(self, tmp_path):
        pairs = [_pair(i, order="chosen_first" if i % 2 else "rejected_first") for i in range(5)]
        out = tmp_path / "pairs.jsonl"
        summary = export_training_file(pairs, out)
        assert summary.total == 5
        assert summary.by_origin == {"own_negative": 5}
        assert len(out.read_text().splitlines()) == 5

    def test_round_trip_bytes(self, tmp_path):
        pairs = [_pair(i) for i in range(3)]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_training_file(pairs, out_a)
        export_training_file(load_pairs(out_a), out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_degenerate_pair_aborts_before_writing(self, tmp_path):
        same = "Explanation: e\nAnswer: tie"
        bad = DpoPair(
            prompt=f"Candidate 1:\n{same}\n\nCandidate 2:\n{same}",
            chosen=same,
            rejected=same,
            order="chosen_first",
            negative_origin="own_negative",
            source_query_ids=("q1", "q1"),
        )
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(DpoError, match="q1"):
            export_training_file([_pair(0), bad], out)
        assert not out.exists()

    def test_prompt_must_embed_responses(self, tmp_path):
        bad = DpoPair(
            prompt="prompt without the responses",
            chosen="Explanation: a\nAnswer: b",
            rejected="Explanation: c\nAnswer: d",
            order="chosen_first",
            negative_origin="own_negative",
            source_query_ids=("q1", "q2"),
        )
        with pytest.raises(DpoError, match="verbatim"):
            export_training_file([bad], tmp_path / "pairs.jsonl")

    def test_order_is_read_from_the_candidate_slots(self, tmp_path):
        # The rejected text also occurs in the question, ahead of both slots:
        # the first occurrence of each response does not give their order.
        chosen, rejected = "Explanation: good why\nAnswer: right", "Explanation: bad why\nAnswer: wrong"
        prompt = f"Question: is '{rejected}' true?\n\nCandidate 1:\n{chosen}\n\nCandidate 2:\n{rejected}\n"
        pair = _pair(chosen=chosen, rejected=rejected, order="rejected_first")
        pair.prompt = prompt
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(DpoError, match="rejected_first but prompt disagrees"):
            export_training_file([pair], out)
        assert not out.exists()
        pair.order = "chosen_first"
        assert export_training_file([pair], out).total == 1

    def test_loadable_by_plain_json_reader(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        export_training_file([_pair(0)], out)
        row = json.loads(out.read_text().splitlines()[0])
        assert set(row) == {
            "prompt", "chosen", "rejected", "order", "negative_origin", "source_query_ids",
        }

    @pytest.mark.parametrize(
        "alter, message",
        [
            (lambda rows: [row if i != 1 else {**row, "rejected": row["rejected"] + "!"} for i, row in enumerate(rows)],
             r"pair 2 \(queries \('q1', 'q1'\)\) does not read back as written"),
            (lambda rows: rows[:-1], "wrote 3 pairs, read 2"),
            (lambda rows: rows + rows[-1:], "wrote 3 pairs, read 4"),
        ],
        ids=["one-line-altered", "one-line-lost", "one-line-added"],
    )
    def test_a_file_altered_between_write_and_check_is_refused(self, tmp_path, monkeypatch, alter, message):
        monkeypatch.setattr(dpo_module, "write_jsonl", lambda path, rows: write_jsonl(path, alter(list(rows))))
        with pytest.raises(DpoError, match=f"re-read validation failed: {message}"):
            export_training_file([_pair(i) for i in range(3)], tmp_path / "pairs.jsonl")

    def test_the_check_holds_no_copy_of_the_pairs(self, tmp_path):
        """The re-read check decodes one line at a time: export's traced peak
        stays far below what the decoded file takes."""
        pairs = [_pair(i, order="chosen_first" if i % 2 else "rejected_first") for i in range(2000)]
        export_training_file(pairs, tmp_path / "a.jsonl")  # loads the template, plans the codec
        tracemalloc.start()
        try:
            loaded = load_pairs(tmp_path / "a.jsonl")
            decoded_size = tracemalloc.get_traced_memory()[0]
            del loaded
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            export_training_file(pairs, tmp_path / "b.jsonl")
            export_peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert export_peak < 0.1 * decoded_size
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestLogProbFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "lp.jsonl"
        path.write_text(
            json.dumps(
                {
                    "pair_id": "p1",
                    "logp_policy_chosen": -1.5,
                    "logp_ref_chosen": -2.0,
                    "logp_policy_rejected": -3.0,
                    "logp_ref_rejected": -2.5,
                }
            )
            + "\n"
        )
        records = load_logprob_file(path)
        assert records == [_record("p1", -1.5, -2.0, -3.0, -2.5)]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "lp.jsonl"
        path.write_text('{"pair_id": "p1"}\n')
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_logprob_file(path)

    def test_positive_logprob_rejected_with_line(self, tmp_path):
        path = tmp_path / "lp.jsonl"
        path.write_text(
            json.dumps(
                {
                    "pair_id": "p1",
                    "logp_policy_chosen": 0.5,
                    "logp_ref_chosen": -1.0,
                    "logp_policy_rejected": -1.0,
                    "logp_ref_rejected": -1.0,
                }
            )
            + "\n"
        )
        with pytest.raises(MalformedRecordError):
            load_logprob_file(path)
