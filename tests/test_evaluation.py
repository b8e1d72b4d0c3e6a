import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragsel.data import QAPair
from ragsel.evaluation import (
    CATEGORY_FORMATTING_ERROR,
    CATEGORY_LACK_OF_EVIDENCE,
    CATEGORY_PARTIAL_MATCHING,
    CATEGORY_REASONING_ERROR,
    CATEGORY_SELECTION_ERROR,
    ERROR_CATEGORIES,
    EvaluationError,
    accuracy,
    classify_error,
    classify_errors,
    evaluate,
    exact_match,
    f1,
    normalize,
)
from ragsel.pipeline import (
    CandidateResponse,
    SOURCE_INTERNAL,
    SOURCE_RETRIEVAL,
    SelectionRecord,
)


class TestNormalize:
    def test_punctuation_and_case(self):
        assert normalize("Kensington and Chelsea (borough)") == "kensington and chelsea borough"

    def test_article_and_trailing_dot(self):
        assert normalize("The Answer.") == "answer"

    def test_articles_only_as_whole_tokens(self):
        assert normalize("theater around an apple") == "theater around apple"

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)


class TestExactMatch:
    def test_case_difference_still_matches(self):
        assert exact_match("practice", ["Practice"]) == 1

    def test_missing_token_fails(self):
        assert exact_match("Kensington and Chelsea", ["Kensington and Chelsea (borough)"]) == 0

    def test_identity(self):
        assert exact_match("Stagecoaches", ["Stagecoaches"]) == 1

    def test_any_alias_suffices(self):
        assert exact_match("new tab", ["T", "New Tab"]) == 1

    def test_empty_golds_error(self):
        with pytest.raises(EvaluationError):
            exact_match("x", [])


class TestF1:
    def test_partial_overlap_fraction(self):
        # overlap 3, P=1, R=3/4 -> 2PR/(P+R) = 6/7
        assert f1("Kensington and Chelsea", ["Kensington and Chelsea (borough)"]) == pytest.approx(
            6 / 7, abs=1e-12
        )

    def test_identical_strings(self):
        assert f1("the turn of the screw", ["The Turn of the Screw"]) == 1.0

    def test_disjoint_strings(self):
        assert f1("California", ["Dwight D Eisenhower"]) == 0.0

    def test_both_normalize_to_empty(self):
        assert f1("the", ["a"]) == 1.0

    def test_single_gold_symmetry(self):
        pairs = [("alpha beta", "beta gamma alpha"), ("one two two", "two one"), ("x", "y")]
        for pred, gold in pairs:
            assert f1(pred, [gold]) == pytest.approx(f1(gold, [pred]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        pred=st.text(alphabet="abc d", max_size=20),
        gold=st.text(alphabet="abc d", min_size=1, max_size=20),
    )
    def test_bounds(self, pred, gold):
        value = f1(pred, [gold])
        assert 0.0 <= value <= 1.0


class TestAccuracy:
    def test_prediction_containing_gold(self):
        assert accuracy(
            "in the context of television ratings and audience shares", ["Television Ratings"]
        ) == 1

    def test_gold_not_contained(self):
        assert accuracy("Kensington and Chelsea", ["Kensington and Chelsea (borough)"]) == 0

    def test_self_containment(self):
        assert accuracy("practice", ["Practice"]) == 1

    def test_directional_only(self):
        # The gold containing the prediction does not count.
        assert accuracy("Chelsea", ["Kensington and Chelsea"]) == 0


def _record(item_id, final_answer, **kw):
    return SelectionRecord(
        id=item_id,
        query=kw.get("query", "q"),
        internal=kw.get("internal"),
        grounded=kw.get("grounded"),
        final_answer=final_answer,
        final_explanation=kw.get("final_explanation", ""),
        chosen_source=kw.get("chosen_source", "internal"),
        presentation_order="internal_first",
        passages_used=[],
        selector_raw=kw.get("selector_raw", ""),
    )


def _cand(answer, source=SOURCE_INTERNAL, explanation="", raw=None):
    return CandidateResponse(
        answer=answer,
        explanation=explanation,
        source=source,
        raw_text=raw if raw is not None else f"Explanation: {explanation} Answer: {answer}",
    )


class TestEvaluate:
    def test_mean_of_mixed_items(self):
        records = [_record("a", "right answer"), _record("b", "totally wrong")]
        qa = [
            QAPair(id="a", question="?", golden_answers=["right answer"]),
            QAPair(id="b", question="?", golden_answers=["something else"]),
        ]
        report = evaluate(records, qa)
        assert report.em == 0.5
        assert report.acc == 0.5
        assert report.n == 2

    def test_all_perfect(self):
        records = [_record(str(i), "gold") for i in range(3)]
        qa = [QAPair(id=str(i), question="?", golden_answers=["gold"]) for i in range(3)]
        report = evaluate(records, qa)
        assert (report.em, report.f1, report.acc) == (1.0, 1.0, 1.0)

    def test_aggregates_equal_mean_of_per_item(self):
        records = [
            _record("a", "Kensington and Chelsea"),
            _record("b", "practice"),
            _record("c", "nothing relevant"),
        ]
        qa = [
            QAPair(id="a", question="?", golden_answers=["Kensington and Chelsea (borough)"]),
            QAPair(id="b", question="?", golden_answers=["Practice"]),
            QAPair(id="c", question="?", golden_answers=["stagecoaches"]),
        ]
        report = evaluate(records, qa)
        assert report.em == pytest.approx(
            math.fsum(it.em for it in report.per_item) / report.n, abs=1e-12
        )
        assert report.f1 == pytest.approx(
            math.fsum(it.f1 for it in report.per_item) / report.n, abs=1e-12
        )
        assert report.acc == pytest.approx(
            math.fsum(it.acc for it in report.per_item) / report.n, abs=1e-12
        )

    def test_unmatched_ids_error(self):
        records = [_record("missing", "x")]
        qa = [QAPair(id="a", question="?", golden_answers=["x"])]
        with pytest.raises(EvaluationError, match="missing"):
            evaluate(records, qa)

    def test_repeated_ids_error(self):
        """Two records for one item would count it twice."""
        records = [_record("q1", "gold"), _record("q1", "nope")]
        qa = [QAPair(id="q1", question="?", golden_answers=["gold"])]
        with pytest.raises(EvaluationError, match=r"records that repeat an id: \['q1'\]"):
            evaluate(records, qa)
        with pytest.raises(EvaluationError, match=r"records that repeat an id: \['q1'\]"):
            classify_errors(records, qa)

    def test_render_one_decimal(self):
        records = [_record("a", "gold"), _record("b", "nope")]
        qa = [
            QAPair(id="a", question="?", golden_answers=["gold"]),
            QAPair(id="b", question="?", golden_answers=["gold"]),
        ]
        assert evaluate(records, qa).render() == "EM 50.0 | F1 50.0 | Acc 50.0 (n=2)"

    def test_em_one_implies_f1_and_acc_one(self):
        cases = ["The Answer.", "practice", "a b c"]
        for pred in cases:
            golds = [pred.upper()]
            if exact_match(pred, golds) == 1:
                assert f1(pred, golds) == 1.0
                assert accuracy(pred, golds) == 1


class TestClassifyError:
    GOLDS = ["Kensington and Chelsea (borough)"]

    def test_precondition_rejects_correct_record(self):
        with pytest.raises(EvaluationError):
            classify_error(_record("a", "Kensington and Chelsea (borough)"), self.GOLDS)

    def test_selection_error(self):
        record = _record(
            "a",
            "Wellingborough",
            internal=_cand("Wellingborough", SOURCE_INTERNAL),
            grounded=_cand("Kensington and Chelsea (borough)", SOURCE_RETRIEVAL),
            chosen_source=SOURCE_INTERNAL,
        )
        assert classify_error(record, self.GOLDS).category == CATEGORY_SELECTION_ERROR

    def test_partial_matching(self):
        record = _record(
            "a",
            "Kensington and Chelsea",
            internal=_cand("Kensington and Chelsea", SOURCE_INTERNAL),
            grounded=_cand("Kensington and Chelsea", SOURCE_RETRIEVAL),
            chosen_source=SOURCE_RETRIEVAL,
        )
        assert classify_error(record, self.GOLDS).category == CATEGORY_PARTIAL_MATCHING

    def test_reasoning_error(self):
        record = _record(
            "a",
            "California",
            internal=_cand(
                "California",
                SOURCE_INTERNAL,
                explanation="Nixon served as Vice President under Dwight D Eisenhower from 1953.",
            ),
            grounded=_cand("California", SOURCE_RETRIEVAL, explanation="no relevant passage"),
            chosen_source=SOURCE_INTERNAL,
        )
        assert classify_error(record, ["Dwight D Eisenhower"]).category == CATEGORY_REASONING_ERROR

    def test_formatting_error(self):
        record = _record(
            "a",
            "",
            internal=_cand("", SOURCE_INTERNAL, raw="no marker at all"),
            grounded=_cand(
                "",
                SOURCE_RETRIEVAL,
                raw="Research about television ratings in the United Kingdom without the format",
            ),
            chosen_source="neither",
        )
        assert classify_error(record, ["Television Ratings"]).category == CATEGORY_FORMATTING_ERROR

    def test_lack_of_evidence_fallthrough(self):
        record = _record(
            "a",
            "Unknown",
            internal=_cand("Unknown", SOURCE_INTERNAL, explanation="nothing to go on"),
            grounded=_cand("Unknown", SOURCE_RETRIEVAL, explanation="passages unrelated"),
            chosen_source=SOURCE_INTERNAL,
        )
        assert classify_error(record, ["Stagecoaches"]).category == CATEGORY_LACK_OF_EVIDENCE

    def test_every_error_gets_exactly_one_category(self):
        records = [
            _record("a", "Wellingborough",
                    internal=_cand("Wellingborough"), grounded=_cand("Kensington and Chelsea (borough)", SOURCE_RETRIEVAL),
                    chosen_source=SOURCE_INTERNAL),
            _record("b", "Kensington and Chelsea",
                    internal=_cand("x"), grounded=_cand("Kensington and Chelsea", SOURCE_RETRIEVAL),
                    chosen_source=SOURCE_RETRIEVAL),
            _record("c", "Unknown", internal=_cand("Unknown"), grounded=_cand("Unknown", SOURCE_RETRIEVAL)),
            _record("d", "correct one"),
        ]
        qa = [
            QAPair(id="a", question="?", golden_answers=self.GOLDS),
            QAPair(id="b", question="?", golden_answers=self.GOLDS),
            QAPair(id="c", question="?", golden_answers=self.GOLDS),
            QAPair(id="d", question="?", golden_answers=["correct one"]),
        ]
        labels, shares = classify_errors(records, qa)
        assert len(labels) == 3  # record d is correct
        assert all(label.category in ERROR_CATEGORIES for label in labels)
        assert all(label.basis == "heuristic" for label in labels)
        assert math.fsum(shares.values()) == pytest.approx(1.0, abs=1e-12)
