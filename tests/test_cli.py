import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ragsel.cli import _SETTINGS, main
from ragsel.retrieval import Bm25Index, Postings, tokenize

ROOT = Path(__file__).resolve().parents[1]


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))


def _desk_inputs(tmp_path, n=4):
    passages = [
        {"id": f"d{i}", "title": f"Topic {i}", "text": f"marker{i} article says gadget {i}"}
        for i in range(1, n + 1)
    ]
    qa = [
        {"id": f"q{i}", "question": f"What about marker{i}?", "golden_answers": [f"gadget {i}"]}
        for i in range(1, n + 1)
    ]
    script = []
    for i in range(1, n + 1):
        internal = f"gadget {i}" if i % 2 == 1 else f"bogus {i}"
        grounded = f"gadget {i}" if i % 2 == 0 else f"bogus {i}"
        script.append(
            {
                "match_key": f"using your own knowledge&&marker{i}",
                "reply": f"Explanation: memory {i}. Answer: {internal}",
            }
        )
        script.append(
            {
                "match_key": f"using the passages&&marker{i}",
                "reply": f"Explanation: passages {i}. Answer: {grounded}",
            }
        )
        script.append(
            {
                "match_key": f"two candidate responses&&marker{i}&&gadget {i}",
                "reply": f"Explanation: the right one. Answer: gadget {i}",
            }
        )
        script.append(
            {
                "match_key": f"candidate answer: gadget {i}",
                "reply": "Yes",
            }
        )
        script.append(
            {
                "match_key": f"candidate answer: bogus {i}",
                "reply": "No",
            }
        )
    passages_path = tmp_path / "passages.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    script_path = tmp_path / "script.jsonl"
    _write_jsonl(passages_path, passages)
    _write_jsonl(qa_path, qa)
    _write_jsonl(script_path, script)
    return passages_path, qa_path, script_path


class TestUsage:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "ragsel" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["retrieve", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_help_shows_each_flag_s_allowed_values_and_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--shots SHOTS 0 or 3 (default: 0)" in out
        assert "--top-k TOP_K an integer >= 1 (default: 5)" in out
        assert "{0,3}" not in out

    def test_readme_configuration_table_matches_the_settings(self):
        """The README's table lists every key with its flag and default, as `_SETTINGS` declares them."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Configuration", 1)[1].split("| --- |", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.strip().splitlines()[1:]:
            key, flag, default = (cell.strip().strip("`") for cell in row.strip("|").split("|")[:3])
            documented[key] = (None if flag == "none" else flag, "" if default == "empty" else default)
        assert documented == {key: (s.flag, str(s.default)) for key, s in _SETTINGS.items()}

    def test_runtime_failure_exits_one_with_json_error(self, tmp_path, capsys):
        code = main(["corpus", "ingest", "--passages", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "c")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err and "message" in err

    def test_failed_ingest_leaves_nothing_and_a_retry_succeeds(self, tmp_path, capsys):
        bad, good, out = tmp_path / "bad.jsonl", tmp_path / "good.jsonl", tmp_path / "c"
        bad.write_text('{"id": "p1", "text": "fine"}\n{"id": "p2", "text": "  "}\n', encoding="utf-8")
        good.write_text('{"id": "p1", "text": "fine"}\n{"id": "p2", "text": "also fine"}\n', encoding="utf-8")
        assert main(["corpus", "ingest", "--passages", str(bad), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "EmptyTextError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "good.jsonl"]
        assert main(["corpus", "ingest", "--passages", str(good), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["passages"] == 2


_QA_ROW = {"id": "q1", "question": "What about marker1?", "golden_answers": ["gadget 1"]}
_INSTANCE_ROW = {
    "query": "What about marker1?",
    "golden": ["gadget 1"],
    "positive": {"answer": "gadget 1"},
    "negative": {"answer": "bogus 1", "explanation": "memory"},
    "positive_source": "retrieval",
}
_GOOD_INSTANCE_ROW = {
    **_INSTANCE_ROW,
    "golden": "gadget 1",
    "positive": {"answer": "gadget 1", "explanation": "passages"},
}
_RESULT_ROW = {
    "id": "q1",
    "query": "What about marker1?",
    "internal": None,
    "grounded": None,
    "final_answer": "gadget 1",
    "final_explanation": "",
    "chosen_source": "internal",
    "presentation_order": "internal_first",
    "passages_used": [],
    "selector_raw": "",
    "error": None,
}
_PAIR_ROW = {
    "prompt": "p",
    "chosen": "gadget 1",
    "rejected": "bogus 1",
    "order": "chosen_first",
    "negative_origin": "original",
    "source_query_ids": 5,
}
_LOGPROB_ROW = {
    "pair_id": "p1",
    "logp_policy_chosen": -1.5,
    "logp_ref_chosen": -2.0,
    "logp_policy_rejected": -3.0,
    "logp_ref_rejected": -2.5,
}


@pytest.mark.parametrize(
    "argv, bad_row",
    [
        (["eval", "--pred", "{bad}", "--qa", "{qa}"], {"id": "q1"}),
        (["errors", "classify", "--pred", "{bad}", "--qa", "{qa}"], {"id": "q1"}),
        (["rgp", "augment", "--in", "{bad}", "--k", "1"], _INSTANCE_ROW),
        (
            ["rgp", "augment", "--in", "{bad}", "--k", "1"],
            {**_INSTANCE_ROW, "positive": {"answer": "gadget 1", "explanation": "x"}, "meta": "x"},
        ),
        (["dpo", "export", "--in", "{bad}"], _PAIR_ROW),
        (["run", "--mode", "llm-only", "--qa", "{qa}", "--script", "{bad}"], {"match_key": "marker1"}),
        (["eval", "--pred", "{bad}", "--qa", "{qa}"], {**_RESULT_ROW, "final_answer": None}),
        (["rgp", "augment", "--in", "{bad}", "--k", "1"], {**_GOOD_INSTANCE_ROW, "golden": 5}),
        (
            ["rgp", "augment", "--in", "{bad}", "--k", "1"],
            {**_GOOD_INSTANCE_ROW, "meta": {"n_passages": "many", "judge_tag": 7}},
        ),
        (["dpo", "export", "--in", "{bad}"], {**_PAIR_ROW, "source_query_ids": ["a"]}),
        (["dpo", "loss", "--in", "{bad}"], {**_LOGPROB_ROW, "logp_policy_chosen": -(10**400)}),
        (["dpo", "loss", "--in", "{bad}"], {**_LOGPROB_ROW, "logp_policy_chosen": "-1.5"}),
        (["run", "--mode", "llm-only", "--qa", "{bad}"], {"id": 5, "question": None, "golden_answers": ["x"]}),
    ],
    ids=[
        "eval", "errors-classify", "rgp-augment", "rgp-augment-meta", "dpo-export", "run-script",
        "eval-null-answer", "rgp-augment-golden-int", "rgp-augment-meta-types", "dpo-export-one-query-id",
        "dpo-loss-huge-int", "dpo-loss-string", "run-qa-types",
    ],
)
def test_malformed_input_line_exits_one_with_json_error(tmp_path, capsys, argv, bad_row):
    bad, qa, out = tmp_path / "bad.jsonl", tmp_path / "qa.jsonl", tmp_path / "out.json"
    _write_jsonl(bad, [bad_row])
    _write_jsonl(qa, [_QA_ROW])
    code = main([arg.format(bad=bad, qa=qa) for arg in argv] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last["error"] == "MalformedRecordError"
    assert last["message"].startswith("line 1: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "fewshot",
    [
        [{"question": "q"}],
        {"a": 1},
        ["not an object"] * 3,
        [{"question": "q", "explanation": "e", "answer": 5}] * 3,
        "not json",
    ],
    ids=["missing-field", "not-a-list", "item-not-an-object", "answer-int", "not-json"],
)
def test_malformed_fewshot_file_exits_one_with_json_error(tmp_path, capsys, fewshot):
    _passages_path, qa_path, script_path = _desk_inputs(tmp_path)
    path, out = tmp_path / "fewshot.json", tmp_path / "out.jsonl"
    path.write_text(fewshot if isinstance(fewshot, str) else json.dumps(fewshot))
    argv = ["run", "--mode", "llm-only", "--qa", str(qa_path), "--script", str(script_path)]
    code = main(argv + ["--shots", "3", "--fewshot", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last["error"] == "PromptTemplateError"
    assert last["message"].startswith("exemplar")
    assert not out.exists()


def _cut(path):
    path.write_bytes(path.read_bytes()[:-5])


def _drop_last_line(path):
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))


def _edit_second_record(path, old, new):
    """Edit passage record 2 in place, keeping every offset and the file's tail."""
    assert len(old) == len(new)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(old, new, 1)
    path.write_bytes(b"".join(lines))


def _repeat_a_term(path):
    """Rename every term of the index header to one term, keeping the arrays."""
    header = json.loads(path.read_text())
    header["terms"] = ["tart"] * len(header["terms"])
    path.write_text(json.dumps(header))


def test_fewshot_file_without_three_shots_exits_one(tmp_path, capsys):
    """An exemplar file at shots 0 was once ignored, yet digested in the manifest."""
    _passages_path, qa_path, script_path = _desk_inputs(tmp_path)
    path, out = tmp_path / "fewshot.json", tmp_path / "out.jsonl"
    path.write_text("not json")
    argv = ["run", "--mode", "llm-only", "--qa", str(qa_path), "--script", str(script_path)]
    assert main(argv + ["--fewshot", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "PromptTemplateError", "message": "an exemplar file needs shots 3, got shots 0"
    }
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.manifest.json").exists()


@pytest.mark.parametrize(
    "damage, argv, error, hint",
    [
        (lambda t: _cut(t / "index/index.json"), "retrieve --index {t}/index --query marker1",
         "IndexFormatError", "rebuild it with `ragsel index build`"),
        (lambda t: _cut(t / "corpus/offsets.json"), "run --mode self-select --qa {t}/qa.jsonl --index {t}/index "
         "--script {t}/script.jsonl --out {t}/out.jsonl", "CorpusError", "ingest the passages again"),
        (lambda t: np.save(t / "index/rows.npy", np.load(t / "index/rows.npy").astype(np.float64)),
         "retrieve --index {t}/index --query marker1", "IndexFormatError", "rebuild it with `ragsel index build`"),
        (lambda t: np.save(t / "index/rows.npy", np.load(t / "index/rows.npy") + 100),
         "retrieve --index {t}/index --query marker1", "IndexFormatError", "rebuild it with `ragsel index build`"),
        (lambda t: _cut(t / "corpus/passages.jsonl"), "run --mode self-select --qa {t}/qa.jsonl --index {t}/index "
         "--script {t}/script.jsonl --out {t}/out.jsonl", "CorpusError", "ingest the passages again"),
        (lambda t: _drop_last_line(t / "corpus/passages.jsonl"), "run --mode standard-rag --qa {t}/qa.jsonl "
         "--index {t}/index --script {t}/script.jsonl --out {t}/out.jsonl", "CorpusError", "ingest the passages again"),
        (lambda t: (t / "corpus/offsets.json").write_text("[0, 47]"), "run --mode standard-rag --qa {t}/qa.jsonl "
         "--index {t}/index --script {t}/script.jsonl --out {t}/out.jsonl", "CorpusError", "ingest the passages again"),
        (lambda t: _edit_second_record(t / "corpus/passages.jsonl", b'"', b"'"),
         "index build --corpus {t}/corpus --out {t}/index2", "CorpusError", "ingest the passages again"),
        (lambda t: _edit_second_record(t / "corpus/passages.jsonl", b'"text"', b'"texx"'),
         "index build --corpus {t}/corpus --out {t}/index2", "CorpusError", "ingest the passages again"),
        (lambda t: _repeat_a_term(t / "index/index.json"), "retrieve --index {t}/index --query marker1",
         "IndexFormatError", "rebuild it with `ragsel index build`"),
        (lambda t: Bm25Index(1.2, 0.75, [], Postings.build([])).save(t / "index"),
         "retrieve --index {t}/index --query marker1", "IndexFormatError", "rebuild it with `ragsel index build`"),
    ],
    ids=["index-header", "corpus-offsets", "index-rows-float64", "index-rows-past-n", "corpus-passages-cut-mid-line",
         "corpus-passages-cut-at-line-end", "corpus-offsets-not-an-object", "corpus-record-not-json",
         "corpus-record-without-text", "index-term-repeated", "index-empty"],
)
def test_truncated_index_or_corpus_file_exits_one_with_json_error(tmp_path, capsys, damage, argv, error, hint):
    """A crash while writing leaves a cut file, a foreign tool may save an
    array of another dtype, and a hand edit may damage one passage record or
    repeat an index term; reading any of them is one error line, not a traceback."""
    passages_path, _qa, _script = _desk_inputs(tmp_path)
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(tmp_path / "corpus")]) == 0
    assert main(["index", "build", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "index")]) == 0
    damage(tmp_path)
    capsys.readouterr()
    assert main(argv.format(t=tmp_path).split()) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    [line] = captured.err.strip().splitlines()
    last = json.loads(line)
    assert last["error"] == error
    assert last["message"].endswith(hint)
    assert not (tmp_path / "out.jsonl").exists()


def test_a_damaged_passage_record_fails_only_the_item_that_reads_it(tmp_path, capsys):
    """`run` records the error on the item and `rgp build` quarantines it; the others go on."""
    passages_path, qa_path, script_path = _desk_inputs(tmp_path)
    corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0
    assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
    _edit_second_record(corpus_dir / "passages.jsonl", b'"', b"'")  # d2, which only q2 retrieves
    inputs = ["--qa", str(qa_path), "--index", str(index_dir), "--script", str(script_path)]
    error = "CorpusError: passage record 2 of passages.jsonl is not a JSON object with a string text; " \
            "ingest the passages again"
    capsys.readouterr()
    results = tmp_path / "r.jsonl"
    assert main(["run", "--mode", "self-select", *inputs, "--out", str(results)]) == 0
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert [r["error"] for r in records] == [None, error, None, None]
    assert main(["rgp", "build", *inputs, "--out", str(tmp_path / "inst.jsonl")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["report"]["quarantine_reasons"] == [f"q2: {error}"]
    assert captured.err == ""


class TestEndToEnd:
    def test_full_desk_pipeline(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir = tmp_path / "corpus"
        index_dir = tmp_path / "index"
        results = tmp_path / "results.jsonl"
        report = tmp_path / "report.json"

        assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0
        assert (corpus_dir / "manifest.json").exists()

        assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
        assert (index_dir / "manifest.json").exists()

        assert main(["retrieve", "--index", str(index_dir), "--query", "marker1", "--top-k", "2"]) == 0
        hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert hits["hits"][0][0] == "d1"

        assert (
            main(
                [
                    "run",
                    "--mode", "self-select",
                    "--qa", str(qa_path),
                    "--index", str(index_dir),
                    "--script", str(script_path),
                    "--shots", "0",
                    "--top-k", "5",
                    "--seed", "7",
                    "--out", str(results),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert results.exists()
        manifest = json.loads((tmp_path / "results.jsonl.manifest.json").read_text())
        digests = set(manifest["input_digests"])
        assert str(qa_path) in digests
        assert str(script_path) in digests
        assert any("index.json" in p for p in digests)
        assert any("passages.jsonl" in p for p in digests)
        assert manifest["seeds"] == {"order_seed": 7}

        assert main(["eval", "--pred", str(results), "--qa", str(qa_path), "--out", str(report)]) == 0
        rendered = capsys.readouterr().out
        assert "EM 100.0" in rendered
        payload = json.loads(report.read_text())
        assert payload["n"] == 4
        assert payload["acc"] == 1.0

    def test_errors_classify_on_imperfect_run(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        results = tmp_path / "results.jsonl"
        main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
        main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)])
        main(
            [
                "run", "--mode", "llm-only",
                "--qa", str(qa_path), "--script", str(script_path),
                "--seed", "0", "--out", str(results),
            ]
        )
        capsys.readouterr()
        code = main(["errors", "classify", "--pred", str(results), "--qa", str(qa_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["n_errors"] == 2  # even markers answered wrong by the internal arm
        assert abs(sum(payload["shares"].values()) - 1.0) < 1e-12


class TestIndexProvenance:
    def test_run_manifest_digests_every_index_file(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
        capsys.readouterr()
        assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
        built = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # marker1..marker4, article, says, gadget, 1..4
        assert (built["passages"], built["terms"]) == (4, 11)

        def run_digests(name):
            out = tmp_path / name
            argv = ["run", "--mode", "self-select", "--qa", str(qa_path), "--index", str(index_dir),
                    "--script", str(script_path), "--out", str(out)]
            assert main(argv) == 0
            return json.loads((tmp_path / f"{name}.manifest.json").read_text())["input_digests"]

        first = run_digests("a.jsonl")
        assert {p for p in first if p.startswith(str(index_dir))} == {
            str(index_dir / name) for name in ("index.json", "term_ptr.npy", "rows.npy", "tfs.npy", "doc_len.npy")
        }
        tfs = index_dir / "tfs.npy"
        np.save(tfs, np.load(tfs) + 1)
        second = run_digests("b.jsonl")
        assert {p for p in first if first[p] != second[p]} == {str(tfs)}


def test_index_build_total_tokens_match_brute_force(tmp_path, capsys):
    records = [{"id": f"p{i}", "text": f"word{i} " * (i + 1) + "shared_tail, Ünïcode–text!"} for i in range(7)]
    _write_jsonl(tmp_path / "passages.jsonl", records)
    assert main(["corpus", "ingest", "--passages", str(tmp_path / "passages.jsonl"), "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert main(["index", "build", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "index")]) == 0
    built = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert built["total_tokens"] == sum(len(tokenize(r["text"])) for r in records)


def test_a_corpus_with_an_older_stats_file_serves_every_command(tmp_path, capsys):
    """Older releases also wrote stats.json; it changes no output and no manifest."""
    passages_path, qa_path, script_path = _desk_inputs(tmp_path)
    corpus_dir = tmp_path / "corpus"
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0

    def outputs(tag):
        index, results, instances = (tmp_path / f"{name}-{tag}" for name in ("index", "r.jsonl", "inst.jsonl"))
        inputs = ["--qa", str(qa_path), "--index", str(index), "--script", str(script_path)]
        capsys.readouterr()
        assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index)]) == 0
        assert main(["run", "--mode", "self-select", *inputs, "--out", str(results)]) == 0
        assert main(["rgp", "build", *inputs, "--out", str(instances)]) == 0
        manifest = json.loads((tmp_path / f"r.jsonl-{tag}.manifest.json").read_text())
        built = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        del built["out"]
        return (built, sorted(Path(p).name for p in manifest["input_digests"]),
                [path.read_bytes() for path in (index / "doc_len.npy", results, instances)])

    before = outputs("a")
    (corpus_dir / "stats.json").write_text('{"passage_count": "4", "total_tokens": "x"}')
    assert outputs("b") == before
    assert "stats.json" not in before[1]


class TestRgpAndDpoCommands:
    def _build_instances(self, tmp_path, out_name="instances.jsonl", seed="3"):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        if not corpus_dir.exists():
            main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
            main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)])
        out = tmp_path / out_name
        code = main(
            [
                "rgp", "build",
                "--qa", str(qa_path),
                "--index", str(index_dir),
                "--script", str(script_path),
                "--judge", "lexical",
                "--seed", seed,
                "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_rgp_build_and_augment_and_export(self, tmp_path, capsys):
        instances = self._build_instances(tmp_path)
        rows = [json.loads(line) for line in instances.read_text().splitlines()]
        assert len(rows) == 4  # every fixture item is a disagreement
        assert {row["positive_source"] for row in rows} == {"internal", "retrieval"}

        pairs = tmp_path / "pairs.jsonl"
        code = main(
            [
                "rgp", "augment",
                "--in", str(instances),
                "--k", "1",
                "--seed", "5",
                "--out", str(pairs),
            ]
        )
        assert code == 0
        assert len(pairs.read_text().splitlines()) == 12  # 4 instances x (2*1+1)

        reexport = tmp_path / "pairs2.jsonl"
        assert main(["dpo", "export", "--in", str(pairs), "--out", str(reexport)]) == 0
        assert reexport.read_bytes() == pairs.read_bytes()

    def test_rgp_llm_judge_mode(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
        main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)])
        out = tmp_path / "instances_llm.jsonl"
        code = main(
            [
                "rgp", "build",
                "--qa", str(qa_path), "--index", str(index_dir), "--script", str(script_path),
                "--judge", "llm", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(row["meta"]["judge_tag"] == "llm" for row in rows)

    def test_determinism_across_reruns(self, tmp_path):
        first = self._build_instances(tmp_path, "a.jsonl", seed="9")
        second = self._build_instances(tmp_path, "b.jsonl", seed="9")
        assert first.read_bytes() == second.read_bytes()

    def test_run_output_byte_identical_across_reruns(self, tmp_path):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
        main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)])
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / f"results_{tag}.jsonl"
            assert (
                main(
                    [
                        "run", "--mode", "self-select",
                        "--qa", str(qa_path), "--index", str(index_dir),
                        "--script", str(script_path), "--seed", "4", "--out", str(out),
                    ]
                )
                == 0
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dpo_loss_command(self, tmp_path, capsys):
        logprobs = tmp_path / "lp.jsonl"
        _write_jsonl(
            logprobs,
            [
                {
                    "pair_id": "p1",
                    "logp_policy_chosen": -1.0,
                    "logp_ref_chosen": -1.0,
                    "logp_policy_rejected": -1.0,
                    "logp_ref_rejected": -1.0,
                }
            ],
        )
        assert main(["dpo", "loss", "--in", str(logprobs), "--beta", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["mean_loss"] - 0.6931471805599453) < 1e-12
        assert payload["n"] == 1


class TestHttpBackendThroughCli:
    def test_run_with_endpoint_and_cache(self, tmp_path, http_stub, capsys):
        def handler(path, payload):
            prompt = payload["messages"][-1]["content"]
            marker = next((f"marker{i}" for i in range(1, 5) if f"marker{i}" in prompt), "none")
            return 200, {
                "choices": [{"message": {"content": f"Explanation: via http. Answer: stub {marker}"}}]
            }

        http_stub.set_handler(handler)
        passages_path, qa_path, _script = _desk_inputs(tmp_path)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cache = tmp_path / "cache"
        for out in (out_a, out_b):
            code = main(
                [
                    "run", "--mode", "llm-only",
                    "--qa", str(qa_path),
                    "--endpoint", http_stub.url,
                    "--cache", str(cache),
                    "--seed", "1",
                    "--out", str(out),
                ]
            )
            assert code == 0
        assert http_stub.hits == 4  # second run fully served from the cache
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = [json.loads(line) for line in out_a.read_text().splitlines()]
        assert rows[0]["final_answer"] == "stub marker1"

    def test_manifest_names_the_token_variable_but_never_holds_the_token(
        self, tmp_path, http_stub, capsys, monkeypatch
    ):
        http_stub.enqueue(200, {"choices": [{"message": {"content": "Explanation: e. Answer: a"}}]})
        _passages, qa_path, _script = _desk_inputs(tmp_path)
        monkeypatch.setenv("RAGSEL_TEST_TOKEN", "tok-7f3a9c")
        monkeypatch.setenv("SELECTOR_RAG_API_KEY_ENV", "RAGSEL_TEST_TOKEN")
        out = tmp_path / "r.jsonl"
        argv = ["run", "--mode", "llm-only", "--qa", str(qa_path), "--endpoint", http_stub.url, "--out", str(out)]
        assert main(argv) == 0
        assert http_stub.headers[0]["authorization"] == "Bearer tok-7f3a9c"
        text = (tmp_path / "r.jsonl.manifest.json").read_text()
        config = json.loads(text)["config"]
        assert (config["api_key_env"], config["endpoint_url"]) == ("RAGSEL_TEST_TOKEN", http_stub.url)
        assert "tok-7f3a9c" not in text

    def test_run_with_three_shots(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        out = tmp_path / "fewshot.jsonl"
        code = main(
            [
                "run", "--mode", "llm-only",
                "--qa", str(qa_path), "--script", str(script_path),
                "--shots", "3", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(row["final_answer"] for row in rows)


class TestRunWhereEveryRecordFails:
    def _index(self, tmp_path, capsys):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0
        assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
        capsys.readouterr()
        return qa_path, script_path, index_dir

    def _assert_failed_run(self, capsys, out, n, first_error):
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "AllRecordsFailedError"
        assert err["message"].startswith(f"all {n} records carry an error; the first: {first_error}")
        assert json.loads(captured.out.strip().splitlines()[-1])["audit"]["errors"] == n
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == n and all(row["error"] for row in rows)

    def test_dead_endpoint_exits_one(self, tmp_path, http_stub, capsys, monkeypatch):
        qa_path, _script, index_dir = self._index(tmp_path, capsys)
        monkeypatch.setenv("SELECTOR_RAG_MAX_RETRIES", "0")
        http_stub.enqueue_raw(b"")  # every connection closes without a reply
        out = tmp_path / "results.jsonl"
        argv = ["run", "--mode", "self-select", "--qa", str(qa_path), "--index", str(index_dir),
                "--endpoint", http_stub.url, "--out", str(out)]
        assert main(argv) == 1
        self._assert_failed_run(capsys, out, 4, "TransportError: transport failure after 1 attempt(s)")

    def test_corpus_that_is_not_the_index_s_exits_one(self, tmp_path, capsys):
        qa_path, script_path, index_dir = self._index(tmp_path, capsys)
        other = tmp_path / "other.jsonl"
        _write_jsonl(other, [{"id": "x1", "text": "an unrelated passage"}])
        assert main(["corpus", "ingest", "--passages", str(other), "--out", str(tmp_path / "other")]) == 0
        out = tmp_path / "results.jsonl"
        argv = ["run", "--mode", "self-select", "--qa", str(qa_path), "--index", str(index_dir),
                "--corpus", str(tmp_path / "other"), "--script", str(script_path), "--out", str(out)]
        assert main(argv) == 1
        self._assert_failed_run(capsys, out, 4, "PassageNotFoundError: ")

    def test_some_records_failing_still_exits_zero(self, tmp_path, capsys):
        qa_path, script_path, index_dir = self._index(tmp_path, capsys)
        rows = [json.loads(line) for line in script_path.read_text().splitlines()]
        _write_jsonl(script_path, [r for r in rows if "marker1" not in r["match_key"]])
        out = tmp_path / "results.jsonl"
        argv = ["run", "--mode", "self-select", "--qa", str(qa_path), "--index", str(index_dir),
                "--script", str(script_path), "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["audit"]["errors"] == 1


class TestConfigLayering:
    def test_file_then_env_override(self, tmp_path, capsys, monkeypatch):
        passages_path, qa_path, script_path = _desk_inputs(tmp_path)
        corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
        main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)])
        main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)])
        capsys.readouterr()

        config = tmp_path / "ragsel.conf"
        config.write_text("top_k = 1\n")
        monkeypatch.setenv("SELECTOR_RAG_CONFIG", str(config))
        main(["retrieve", "--index", str(index_dir), "--query", "gadget article says"])
        hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(hits["hits"]) == 1  # config file value applied

        monkeypatch.setenv("SELECTOR_RAG_TOP_K", "3")
        main(["retrieve", "--index", str(index_dir), "--query", "gadget article says", "--top-k", "2"])
        hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(hits["hits"]) == 3  # environment beats the flag


# Each command that writes a manifest, run once in this order over the desk
# inputs with a config file: (name, argv with {t} for the directory, output).
_PIN_CHAIN = [
    ("corpus ingest", "corpus ingest --passages {t}/passages.jsonl --out {t}/corpus", "corpus"),
    ("index build", "index build --corpus {t}/corpus --out {t}/index --k1 1.5", "index"),
    (
        "run",
        "run --mode self-select --qa {t}/qa.jsonl --index {t}/index --script {t}/script.jsonl"
        " --seed 7 --budget 0 --out {t}/r.jsonl",
        "r.jsonl",
    ),
    (
        "rgp build",
        "rgp build --qa {t}/qa.jsonl --index {t}/index --script {t}/script.jsonl --seed 3"
        " --out {t}/inst.jsonl",
        "inst.jsonl",
    ),
    ("rgp augment", "rgp augment --in {t}/inst.jsonl --k 1 --seed 5 --out {t}/pairs.jsonl", "pairs.jsonl"),
    ("dpo export", "dpo export --in {t}/pairs.jsonl --out {t}/train.jsonl", "train.jsonl"),
    ("dpo loss", "dpo loss --in {t}/lp.jsonl --out {t}/loss.json", "loss.json"),
    ("eval", "eval --pred {t}/r.jsonl --qa {t}/qa.jsonl --out {t}/report.json", "report.json"),
    ("errors classify", "errors classify --pred {t}/r.jsonl --qa {t}/qa.jsonl --out {t}/errs.json", "errs.json"),
]
_INDEX_FILES = ["doc_len.npy", "index.json", "rows.npy", "term_ptr.npy", "tfs.npy"]
_CORPUS_FILES = ["offsets.json", "passages.jsonl"]
_BACKEND_CONFIG = {"endpoint_url": "", "api_key_env": "", "model_name": "default", "max_retries": 3, "max_in_flight": 4}
# name -> (stdout JSON keys, or eval's rendered line; manifest config; seeds;
# basenames of the digested inputs)
_PINS = {
    "corpus ingest": (["out", "passages"], {}, {}, ["passages.jsonl", "ragsel.conf"]),
    "index build": (
        ["out", "passages", "terms", "total_tokens"],
        {"k1": 1.5, "b": 0.75},
        {},
        sorted(_CORPUS_FILES + ["ragsel.conf"]),
    ),
    "run": (
        ["audit", "out", "records"],
        {**_BACKEND_CONFIG, "top_k": 3, "shots": 0, "seed": 7, "budget": 0, "max_tokens": 512},
        {"order_seed": 7},
        sorted(_INDEX_FILES + _CORPUS_FILES + ["qa.jsonl", "ragsel.conf", "script.jsonl"]),
    ),
    "rgp build": (
        ["instances", "out", "report"],
        {**_BACKEND_CONFIG, "judge": "lexical", "seed": 3, "max_tokens": 512},
        {"seed": 3},
        sorted(_INDEX_FILES + _CORPUS_FILES + ["qa.jsonl", "ragsel.conf", "script.jsonl"]),
    ),
    "rgp augment": (
        ["out", "pairs", "report"],
        {"k": 1, "seed": 5},
        {"order_seed": 5},
        ["inst.jsonl", "ragsel.conf"],
    ),
    "dpo export": (["by_origin", "path", "total"], {}, {}, ["pairs.jsonl", "ragsel.conf"]),
    "dpo loss": (["beta", "mean_loss", "n"], {"beta": 0.1}, {}, ["lp.jsonl", "ragsel.conf"]),
    "eval": ("EM 100.0 | F1 100.0 | Acc 100.0 (n=4)", {}, {}, ["qa.jsonl", "r.jsonl", "ragsel.conf"]),
    "errors classify": (["labels", "n_errors", "shares"], {}, {}, ["qa.jsonl", "r.jsonl", "ragsel.conf"]),
}


@pytest.fixture(scope="module")
def pinned_chain(tmp_path_factory):
    """Runs `_PIN_CHAIN` once; name -> (pin as in `_PINS`, command line)."""
    tmp = tmp_path_factory.mktemp("pins")
    _desk_inputs(tmp)
    _write_jsonl(tmp / "lp.jsonl", [_LOGPROB_ROW])
    config = tmp / "ragsel.conf"
    config.write_text("top_k = 3\n")
    pins = {}
    for name, argv, out_name in _PIN_CHAIN:
        args = ["--config", str(config)] + [arg.format(t=tmp) for arg in argv.split()]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(args) == 0, name
        line = stdout.getvalue().strip().splitlines()[-1]
        shown = line if name == "eval" else sorted(json.loads(line))
        out = tmp / out_name
        manifest_path = out / "manifest.json" if out.is_dir() else tmp / f"{out_name}.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        inputs = sorted(Path(p).name for p in manifest["input_digests"])
        pins[name] = (shown, manifest["config"], manifest["seeds"], inputs), manifest["command_line"]
    return tmp, pins


@pytest.mark.parametrize("name", [name for name, _argv, _out in _PIN_CHAIN])
def test_command_outputs_and_manifest_are_pinned(pinned_chain, name):
    tmp, pins = pinned_chain
    pin, command_line = pins[name]
    assert pin == _PINS[name]
    argv = dict((n, a) for n, a, _o in _PIN_CHAIN)[name]
    assert command_line == f"ragsel --config {tmp}/ragsel.conf " + argv.format(t=tmp)


# (argv with {t} for the directory, environment, config file text, the bad key)
_BAD_SETTINGS = {
    "retrieve-flag-top-k-0": ("retrieve --index {t}/index --query marker1 --top-k 0", {}, None, "top_k"),
    "retrieve-env-top-k-abc": ("retrieve --index {t}/index --query marker1", {"TOP_K": "abc"}, None, "top_k"),
    "retrieve-config-top-k-x": ("retrieve --index {t}/index --query marker1", {}, "top_k = x", "top_k"),
    "retrieve-flag-top-k-abc": ("retrieve --index {t}/index --query marker1 --top-k abc", {}, None, "top_k"),
    "dpo-loss-flag-beta-0": ("dpo loss --in {t}/lp.jsonl --beta 0 --out {o}", {}, None, "beta"),
    "dpo-loss-env-beta-nan": ("dpo loss --in {t}/lp.jsonl --out {o}", {"BETA": "nan"}, None, "beta"),
    "index-build-flag-k1-0": ("index build --corpus {t}/corpus --out {o} --k1 0", {}, None, "k1"),
    "index-build-env-k1-inf": ("index build --corpus {t}/corpus --out {o}", {"K1": "inf"}, None, "k1"),
    "index-build-config-b-1.5": ("index build --corpus {t}/corpus --out {o}", {}, "b = 1.5", "b"),
    "run-standard-rag-flag-top-k-0": (
        "run --mode standard-rag --qa {t}/qa.jsonl --index {t}/index --script {t}/script.jsonl"
        " --top-k 0 --out {o}",
        {}, None, "top_k",
    ),
    "run-env-max-tokens-0": (
        "run --mode llm-only --qa {t}/qa.jsonl --script {t}/script.jsonl --out {o}",
        {"MAX_TOKENS": "0"}, None, "max_tokens",
    ),
    "run-env-shots-2": (
        "run --mode llm-only --qa {t}/qa.jsonl --script {t}/script.jsonl --out {o}",
        {"SHOTS": "2"}, None, "shots",
    ),
    "run-flag-shots-2": (
        "run --mode llm-only --qa {t}/qa.jsonl --script {t}/script.jsonl --shots 2 --out {o}", {}, None, "shots",
    ),
    "run-flag-budget-negative": (
        "run --mode llm-only --qa {t}/qa.jsonl --script {t}/script.jsonl --budget -1 --out {o}",
        {}, None, "budget",
    ),
    "run-config-max-retries-negative": (
        "run --mode llm-only --qa {t}/qa.jsonl --script {t}/script.jsonl --out {o}",
        {}, "max_retries = -1", "max_retries",
    ),
    "rgp-build-env-judge": (
        "rgp build --qa {t}/qa.jsonl --index {t}/index --script {t}/script.jsonl --out {o}",
        {"JUDGE": "oracle"}, None, "judge",
    ),
    # `similarity` is no setting, so a config line naming it is refused.
    "rgp-augment-config-similarity": (
        "rgp augment --in {t}/lp.jsonl --out {o}", {}, "similarity = dense", "similarity",
    ),
    "rgp-augment-flag-k-negative": ("rgp augment --in {t}/lp.jsonl --k -1 --out {o}", {}, None, "k"),
    # Every key is checked for every command, also one the command never reads.
    "dpo-export-env-seed-abc": ("dpo export --in {t}/lp.jsonl --out {o}", {"SEED": "abc"}, None, "seed"),
    "eval-config-k1-abc": (
        "eval --pred {t}/qa.jsonl --qa {t}/qa.jsonl --out {o}", {}, "k1 = abc", "k1",
    ),
    # A key the table does not know (the flag's spelling here) is refused, not ignored.
    "retrieve-config-unknown-key": ("retrieve --index {t}/index --query marker1", {}, "top-k = 1", "top-k"),
}


@pytest.fixture(scope="module")
def desk_index(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    passages_path, _qa, _script = _desk_inputs(tmp)
    _write_jsonl(tmp / "lp.jsonl", [_LOGPROB_ROW])
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(tmp / "corpus")]) == 0
    assert main(["index", "build", "--corpus", str(tmp / "corpus"), "--out", str(tmp / "index")]) == 0
    return tmp


@pytest.mark.parametrize("case", sorted(_BAD_SETTINGS))
def test_bad_setting_exits_two_with_json_error(desk_index, tmp_path, capsys, monkeypatch, case):
    argv, env, config_text, key = _BAD_SETTINGS[case]
    for name, value in env.items():
        monkeypatch.setenv("SELECTOR_RAG_" + name, value)
    out = tmp_path / "out.json"
    args = [arg.format(t=desk_index, o=out) for arg in argv.split()]
    if config_text is not None:
        config = tmp_path / "ragsel.conf"
        config.write_text(config_text + "\n")
        args = ["--config", str(config)] + args
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    last = json.loads(captured.err.strip().splitlines()[-1])
    assert last["error"] == "SettingError"
    assert last["message"].startswith(f"setting {key} = ")
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"# one hit\ntop_k 1\n", "line 2: 'top_k 1' is not key = value"),
        (b"\xff\xfetop_k = 1\n", "is not UTF-8 text"),
    ],
    ids=["line-without-equals", "not-utf8"],
)
def test_a_malformed_config_file_exits_two_with_json_error(desk_index, tmp_path, capsys, content, message):
    """Neither is skipped: a skipped line would run with the default in its place."""
    config = tmp_path / "ragsel.conf"
    config.write_bytes(content)
    capsys.readouterr()
    assert main(["--config", str(config), "retrieve", "--index", str(desk_index / "index"), "--query", "marker1"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    last = json.loads(captured.err.strip().splitlines()[-1])
    assert last["error"] == "SettingError"
    assert last["message"].startswith(f"config file {config}")
    assert message in last["message"]


@pytest.mark.parametrize("command", [["eval"], ["errors", "classify"]], ids=["eval", "errors-classify"])
def test_a_results_file_that_repeats_an_id_exits_one(tmp_path, capsys, command):
    _write_jsonl(tmp_path / "qa.jsonl", [_QA_ROW])
    _write_jsonl(tmp_path / "r.jsonl", [_RESULT_ROW, {**_RESULT_ROW, "final_answer": "bogus 1"}])
    out = tmp_path / "out.json"
    argv = [*command, "--pred", str(tmp_path / "r.jsonl"), "--qa", str(tmp_path / "qa.jsonl"), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "EvaluationError", "message": "records that repeat an id: ['q1']"
    }
    assert not out.exists()


def test_zero_max_in_flight_exits_two_at_once(tmp_path, http_stub):
    """Through the entry point: a zero request cap once hung the first request."""
    _passages, qa_path, _script = _desk_inputs(tmp_path)
    out = tmp_path / "r.jsonl"
    env = dict(os.environ, SELECTOR_RAG_MAX_IN_FLIGHT="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["run", "--mode", "llm-only", "--qa", str(qa_path), "--endpoint", http_stub.url, "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "ragsel.cli", *argv], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    last = json.loads(proc.stderr.strip().splitlines()[-1])
    assert last["error"] == "SettingError"
    assert last["message"].startswith("setting max_in_flight = '0': ")
    assert http_stub.hits == 0
    assert not out.exists()


def test_rgp_build_where_every_item_is_quarantined_exits_one(tmp_path, http_stub, capsys, monkeypatch):
    passages_path, qa_path, _script = _desk_inputs(tmp_path)
    corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0
    assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SELECTOR_RAG_MAX_RETRIES", "0")
    http_stub.enqueue_raw(b"")  # every connection closes without a reply
    out = tmp_path / "instances.jsonl"
    argv = ["rgp", "build", "--qa", str(qa_path), "--index", str(index_dir),
            "--endpoint", http_stub.url, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "AllRecordsFailedError"
    assert err["message"].startswith(
        "all 4 items were quarantined; the first: q1: TransportError: transport failure after 1 attempt(s)"
    )
    report = json.loads(captured.out.strip().splitlines()[-1])["report"]
    assert (report["total"], report["quarantined"]) == (4, 4)
    assert out.read_text() == ""
    assert (tmp_path / "instances.jsonl.manifest.json").exists()


def test_rgp_build_where_the_llm_judge_fails_on_every_item_exits_one(tmp_path, capsys):
    passages_path, qa_path, script_path = _desk_inputs(tmp_path)
    rows = [json.loads(line) for line in script_path.read_text().splitlines()]
    _write_jsonl(script_path, [r for r in rows if not r["match_key"].startswith("candidate answer")])
    corpus_dir, index_dir = tmp_path / "corpus", tmp_path / "index"
    assert main(["corpus", "ingest", "--passages", str(passages_path), "--out", str(corpus_dir)]) == 0
    assert main(["index", "build", "--corpus", str(corpus_dir), "--out", str(index_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "instances.jsonl"
    argv = ["rgp", "build", "--qa", str(qa_path), "--index", str(index_dir), "--script", str(script_path),
            "--judge", "llm", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "AllRecordsFailedError"
    assert err["message"].startswith("all 4 items were quarantined; the first: q1: ScriptMissError: ")
    report = json.loads(captured.out.strip().splitlines()[-1])["report"]
    assert (report["total"], report["quarantined"], report["judge_tag"]) == (4, 4, "llm")
    assert out.read_text() == ""
    assert (tmp_path / "instances.jsonl.manifest.json").exists()


def test_out_write_failing_partway_leaves_no_file(tmp_path, capsys, disk_full_on_write):
    qa = tmp_path / "qa.jsonl"
    results = tmp_path / "results.jsonl"
    _write_jsonl(qa, [_QA_ROW])
    _write_jsonl(results, [_RESULT_ROW])
    out = tmp_path / "report.json"
    assert main(["eval", "--pred", str(results), "--qa", str(qa), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OSError" and "No space left" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qa.jsonl", "results.jsonl"]
