import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ragsel.dpo as dpo_module
from ragsel.augment import DpoPair
from ragsel.data import MalformedRecordError, encode_json, write_jsonl
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
from ragsel.evaluation import normalize
from ragsel.pipeline import select_prompt, select_question


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


def _pair(i=0, chosen="Explanation: good why\nAnswer: right", rejected="Explanation: bad why\nAnswer: wrong",
          order="chosen_first", query=None):
    return DpoPair(
        query=f"q{i}" if query is None else query,
        chosen=chosen,
        rejected=rejected,
        order=order,
        negative_origin="own_negative",
        source_query_ids=(f"q{i}", f"q{i}"),
    )


# Text that may hold braces, placeholders and pieces of the selection template.
_PROMPT_TEXT = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(["{", "}", "{question}", "{candidate_1}", "{candidate_2}", "Question: ", "\n\nCandidate 2:\n"]),
    ),
    max_size=5,
).map("".join)


# Text JSON escapes, or that JSON writes as it is though other encoders do not.
_JSON_TEXT = st.lists(
    st.one_of(
        _PROMPT_TEXT,
        st.sampled_from(['"', "\\", "\\u0041", "\x00", "\n", "\r", "\t", "\x1f", "\x7f", "\u2028", "\u2029",
                         "\U0001f600", "\U00010000", "Candidate 1:\n", "Two candidate responses"]),
    ),
    max_size=4,
).map("".join)


@st.composite
def _instance_pairs(draw):
    """Pairs in runs of one instance each, drawing their strings from a small
    pool so that one string recurs within and across instances."""
    pool = draw(st.lists(_JSON_TEXT, min_size=2, max_size=5))
    text = st.sampled_from(pool)
    pairs = []
    for own in draw(st.lists(st.sampled_from(["q0", "q1", 'q"2\\', "q\u2028"]), min_size=1, max_size=4)):
        query, chosen = draw(text), draw(text)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pairs.append(DpoPair(query=query, chosen=chosen, rejected=draw(text),
                                 order=draw(st.sampled_from(["chosen_first", "rejected_first"])),
                                 negative_origin="own_negative", source_query_ids=(own, draw(text))))
    return pairs


class TestExport:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_instance_pairs())
    def test_each_line_is_the_json_encoding_of_its_pair(self, pairs):
        pairs = [pair for pair in pairs if normalize(pair.chosen) != normalize(pair.rejected)]
        assume(pairs)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "pairs.jsonl"
            export_training_file(pairs, out)
            written = out.read_bytes()
        assert written == "".join(encode_json(pair.to_dict()) + "\n" for pair in pairs).encode("utf-8")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_PROMPT_TEXT, _PROMPT_TEXT, _PROMPT_TEXT, st.sampled_from(["chosen_first", "rejected_first"]))
    def test_the_question_reads_back_from_any_prompt(self, query, chosen, rejected, order):
        assert select_question(select_prompt(query, chosen, rejected), chosen, rejected) == query
        assume(normalize(chosen) != normalize(rejected))
        pair = _pair(chosen=chosen, rejected=rejected, order=order, query=query)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            export_training_file([pair], first)
            assert load_pairs(first) == [pair]
            export_training_file(load_pairs(first), second)
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_PROMPT_TEXT, _PROMPT_TEXT, _PROMPT_TEXT, st.integers(min_value=0), st.integers(min_value=0, max_value=3))
    def test_a_question_read_back_renders_the_prompt_it_was_read_from(self, query, chosen, rejected, at, cut):
        prompt = select_prompt(query, chosen, rejected)
        at %= len(prompt) + 1
        damaged = prompt[:at] + prompt[at + cut :]
        found = select_question(damaged, chosen, rejected)
        assert found is None or select_prompt(found, chosen, rejected) == damaged

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
            query="q1",
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
        """A line's prompt must be exactly the packaged selection prompt with
        its chosen and rejected in the candidate slots: one without them, or
        with them but edited elsewhere, is refused at load, naming the line."""
        good = _pair(0).to_dict()
        path = tmp_path / "pairs.jsonl"
        for prompt in (
            "prompt without the responses",
            good["prompt"].replace("Two candidate responses", "Three candidate responses", 1),
            good["prompt"] + "\n",
            "Ignore the rest.\n" + good["prompt"],
        ):
            write_jsonl(path, [good, {**good, "prompt": prompt}])
            with pytest.raises(MalformedRecordError, match="line 2: prompt is not the selection prompt with chosen"):
                load_pairs(path)

    def test_order_is_read_from_the_candidate_slots(self, tmp_path):
        # The rejected text also occurs in the question, ahead of both slots:
        # the first occurrence of each response does not give their order.
        chosen, rejected = "Explanation: good why\nAnswer: right", "Explanation: bad why\nAnswer: wrong"
        pair = _pair(chosen=chosen, rejected=rejected, order="chosen_first", query=f"is '{rejected}' true?")
        row = pair.to_dict()
        path = tmp_path / "pairs.jsonl"
        write_jsonl(path, [{**row, "order": "rejected_first"}])
        with pytest.raises(MalformedRecordError, match="line 1: recorded order says rejected_first but prompt disagrees"):
            load_pairs(path)
        write_jsonl(path, [row])
        assert load_pairs(path) == [pair]
        assert export_training_file(load_pairs(path), tmp_path / "out.jsonl").total == 1

    def test_loadable_by_plain_json_reader(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        pair = _pair(0, order="rejected_first")
        export_training_file([pair], out)
        row = json.loads(out.read_text().splitlines()[0])
        assert list(row) == ["prompt", "chosen", "rejected", "order", "negative_origin", "source_query_ids"]
        assert row["prompt"] == select_prompt("q0", pair.rejected, pair.chosen)

    @pytest.mark.parametrize(
        "alter, message",
        [
            (lambda rows: [row if i != 1 else {**row, "negative_origin": "neighbor_negative"} for i, row in enumerate(rows)],
             r"pair 2 \(queries \('q1', 'q1'\)\) does not read back as written"),
            (lambda rows: rows[:-1], "wrote 3 pairs, read 2"),
            (lambda rows: rows + rows[-1:], "wrote 3 pairs, read 4"),
            # The prompt no longer renders from the altered response.
            (lambda rows: [row if i != 1 else {**row, "rejected": row["rejected"] + "!"} for i, row in enumerate(rows)],
             "line 2: prompt is not the selection prompt"),
        ],
        ids=["one-line-altered", "one-line-lost", "one-line-added", "one-response-altered"],
    )
    def test_a_file_altered_between_write_and_check_is_refused(self, tmp_path, monkeypatch, alter, message):
        monkeypatch.setattr(dpo_module, "write_atomic",
                            lambda path, lines: write_jsonl(path, alter([json.loads(line) for line in lines])))
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(DpoError, match=f"re-read validation failed: {message}"):
            export_training_file([_pair(i) for i in range(3)], out)
        assert list(tmp_path.iterdir()) == []  # neither the unchecked file nor its .tmp sibling
        out.write_bytes(b'{"earlier": "export"}\n')
        with pytest.raises(DpoError, match=f"re-read validation failed: {message}"):
            export_training_file([_pair(i) for i in range(3)], out)
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b'{"earlier": "export"}\n'

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

    def test_a_json_integer_is_held_as_a_float(self, tmp_path):
        path = tmp_path / "lp.jsonl"
        fields = {"logp_policy_chosen": -1, "logp_ref_chosen": -2.0, "logp_policy_rejected": 0, "logp_ref_rejected": -3}
        path.write_text(json.dumps({"pair_id": "p1", **fields}) + "\n")
        (record,) = load_logprob_file(path)
        assert [type(getattr(record, name)) for name in fields] == [float] * 4
        assert record == _record("p1", -1.0, -2.0, 0.0, -3.0)
