"""Single entrypoint binding every module into subcommands.

`main` resolves every setting once, before any handler runs. Settings layer
as defaults < config file < flags < environment. The config file is flat
`key = value` lines, found via --config or the SELECTOR_RAG_CONFIG
environment variable; per-key environment overrides use the SELECTOR_RAG_
prefix (e.g. SELECTOR_RAG_TOP_K=3). `_SETTINGS` declares each setting once:
its default, its one check and its flag, if it has one. Every value, from a
flag, the config file or the environment alike, is checked by its row, for
every command whether it reads the key or not, and set on `args` under its
key; a config-file key with no row is refused. Each subcommand names the
settings it reads once (`_set_command`); those get their flags, and the
manifest records them all. Secrets never
appear in manifests: config names the environment variable holding the
token, not the token itself, and the endpoint URL must not carry one.

A handler takes only `args` and returns an `Outcome`. `_finish` writes all
of a command's bookkeeping from it: the optional `--out` JSON, whole or not
at all; then the manifest beside `--out` (command line, the settings the
command reads, seeds, and the digests of the inputs and the config file);
then the stdout line.

Exit codes: 0 success, 1 runtime failure (with a machine-readable JSON error
line on stderr), 2 usage errors, among them a setting that does not parse or
is out of range (`{"error": "SettingError", ...}` on stderr). A `run` in
which every record carries an error, or an `rgp build` in which every item
is quarantined, is a runtime failure, though its output and manifest are
still written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from . import augment as augment_mod
from . import corpus as corpus_mod
from . import dpo as dpo_mod
from . import evaluation
from . import pipeline
from . import rgp as rgp_mod
from .data import load_qa_file, write_atomic
from .errors import RagselError
from .llm import Backend, CachedBackend, HttpBackend, ScriptedBackend
from .manifest import write_manifest
from .retrieval import Bm25Index, RetrievalConfig, build_index, index_files


class AllRecordsFailedError(RagselError):
    """Nothing in a non-empty batch succeeded: every record of a run carries
    an error, or every item of an rgp build was quarantined."""


class SettingError(RagselError):
    """A setting's value does not parse or is out of range."""


ENV_CONFIG_PATH = "SELECTOR_RAG_CONFIG"
ENV_PREFIX = "SELECTOR_RAG_"


@dataclass(frozen=True)
class _Setting:
    """A setting's default, the type a raw value converts to, the values `ok`
    accepts (told by `allowed` in `--help` and in errors), its flag, and
    whether an error may echo a refused value (not one that may hold a
    credential)."""

    default: Any
    kind: type
    allowed: str
    ok: Callable[[Any], bool] = lambda value: True
    flag: str | None = None
    echo: bool = True


def _at_least(default: int, low: int, flag: str | None = None) -> _Setting:
    return _Setting(default, int, f"an integer >= {low}", lambda value: value >= low, flag)


def _finite_positive(value: float) -> bool:
    return 0 < value < math.inf


# The one declaration of each setting; a flag's dest is its key.
_SETTINGS: dict[str, _Setting] = {
    "endpoint_url": _Setting("", str, "a chat endpoint URL with no user:password@",
                             lambda value: "@" not in urllib.parse.urlsplit(value).netloc, "--endpoint", echo=False),
    "api_key_env": _Setting("", str, "the name of the environment variable holding the token"),
    "model_name": _Setting("default", str, "any text"),
    "max_retries": _at_least(3, 0),
    "max_in_flight": _at_least(4, 1),
    "top_k": _at_least(5, 1, "--top-k"),
    "k1": _Setting(1.2, float, "a finite number > 0", _finite_positive, "--k1"),
    "b": _Setting(0.75, float, "a number in [0, 1]", lambda value: 0 <= value <= 1, "--b"),
    "shots": _Setting(0, int, "0 or 3", lambda value: value in (0, 3), "--shots"),
    "seed": _Setting(0, int, "an integer", flag="--seed"),
    "beta": _Setting(0.1, float, "a finite number > 0", _finite_positive, "--beta"),
    "k": _at_least(2, 0, "--k"),
    "judge": _Setting(rgp_mod.JUDGE_LEXICAL, str, f"{rgp_mod.JUDGE_LLM} or {rgp_mod.JUDGE_LEXICAL}",
                      lambda value: value in (rgp_mod.JUDGE_LLM, rgp_mod.JUDGE_LEXICAL), "--judge"),
    "budget": _at_least(0, 0, "--budget"),  # 0 = no prompt budget
    "max_tokens": _at_least(512, 1),
}
# The settings `_make_backend` reads.
_BACKEND_SETTINGS = ("endpoint_url", "api_key_env", "model_name", "max_retries", "max_in_flight")


def _resolve_settings(args: argparse.Namespace) -> None:
    """Set every setting on `args`, layered defaults < config file < flags <
    environment, parsed and range-checked; `args.config` becomes the config
    file in use, or None."""
    args.config = args.config or os.environ.get(ENV_CONFIG_PATH) or None
    file_values: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SettingError(f"config file {args.config} is not UTF-8 text ({exc})") from None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise SettingError(f"config file {args.config} line {line_no}: {line!r} is not key = value")
            key, value = key.strip(), value.strip()
            if key not in _SETTINGS:
                raise SettingError(f"setting {key} = {value!r}: no such setting")
            file_values[key] = value
    for key, setting in _SETTINGS.items():
        value = file_values.get(key, setting.default)
        if getattr(args, key, None) is not None:
            value = getattr(args, key)
        value = os.environ.get(ENV_PREFIX + key.upper(), value)
        try:
            parsed = setting.kind(value)
            if not setting.ok(parsed):
                raise ValueError(f"must be {setting.allowed}")
        except ValueError as exc:
            if not setting.echo:  # the parser's message may quote the value too
                raise SettingError(f"setting {key} = (not shown): must be {setting.allowed}") from None
            raise SettingError(f"setting {key} = {value!r}: {exc}") from None
        setattr(args, key, parsed)


@dataclass
class Outcome:
    """What a command reports, for `_finish` to write."""

    line: dict | str  # the stdout line: a dict as JSON, text as is
    inputs: list[str | Path] = field(default_factory=list)  # digested in the manifest
    seeds: dict[str, int] = field(default_factory=dict)
    out_json: dict | None = None  # written to --out, when given
    failure: str | None = None  # set when nothing in the batch succeeded


def _finish(args: argparse.Namespace, outcome: Outcome, command_line: str) -> int:
    """Write the `--out` JSON and the manifest when the command has `--out`,
    print the stdout line, and fail if nothing in the batch succeeded."""
    out = getattr(args, "out", None)
    if out:
        if outcome.out_json is not None:
            write_atomic(out, [json.dumps(outcome.out_json, ensure_ascii=False)])
        write_manifest(
            out,
            command_line=command_line,
            config={key: getattr(args, key) for key in args.settings},
            seeds=outcome.seeds,
            inputs=outcome.inputs + ([args.config] if args.config else []),
        )
    line = outcome.line
    print(line if isinstance(line, str) else json.dumps(line, ensure_ascii=False))
    if outcome.failure:
        raise AllRecordsFailedError(outcome.failure)
    return 0


def _none_succeeded(total: int, failures: list[str], what: str) -> str | None:
    """The error for a non-empty batch in which every unit failed, else None."""
    if total and len(failures) == total:
        return f"all {total} {what}; the first: {failures[0]}"
    return None


def _make_backend(args: argparse.Namespace, *, cache_by_default: bool = False) -> Backend:
    cache_dir = args.cache
    if args.script:
        backend: Backend = ScriptedBackend.from_jsonl(args.script)
    elif args.endpoint_url:
        backend = HttpBackend(
            endpoint_url=args.endpoint_url,
            model_name=args.model_name,
            api_key_env=args.api_key_env or None,
            max_retries=args.max_retries,
            max_in_flight=args.max_in_flight,
        )
        if not cache_dir and cache_by_default:
            # Dataset builds over a live endpoint are expensive; cache beside the
            # output so interrupted runs resume for free.
            out = Path(args.out)
            cache_dir = str(out.with_name(out.name + ".cache"))
    else:
        raise RagselError("no backend configured: pass --script or --endpoint (or set endpoint_url)")
    if cache_dir:
        backend = CachedBackend(backend, cache_dir)
    return backend


def _open_index_and_corpus(args: argparse.Namespace) -> tuple[Bm25Index, corpus_mod.Corpus]:
    index = Bm25Index.load(args.index)
    corpus_dir = args.corpus or index.corpus_path
    if not corpus_dir or not Path(corpus_dir).exists():
        raise RagselError(
            "cannot locate the corpus behind this index; pass --corpus explicitly"
        )
    return index, corpus_mod.Corpus(corpus_dir)


def cmd_corpus_ingest(args) -> Outcome:
    handle = corpus_mod.ingest(args.passages, args.out)
    line = {"passages": len(handle), "out": str(args.out)}
    return Outcome(line, inputs=[args.passages])


def cmd_index_build(args) -> Outcome:
    handle = corpus_mod.Corpus(args.corpus)
    index = build_index(handle, RetrievalConfig(k1=args.k1, b=args.b))
    index.save(args.out)
    line = {"passages": index.N, "terms": len(index.postings.terms),
            "total_tokens": int(index.postings.lengths.sum()), "out": str(args.out)}
    return Outcome(line, inputs=handle.input_files())


def cmd_retrieve(args) -> Outcome:
    index = Bm25Index.load(args.index)
    return Outcome(index.retrieve(args.query, args.top_k).to_json())


_MODE_BY_FLAG = {
    "llm-only": pipeline.MODE_LLM_ONLY,
    "standard-rag": pipeline.MODE_STANDARD_RAG,
    "self-select": pipeline.MODE_SELF_SELECT,
}


def cmd_run(args) -> Outcome:
    qa = load_qa_file(args.qa)
    prompts = pipeline.PromptSet.default(shots=args.shots, fewshot_path=args.fewshot)
    backend = _make_backend(args)
    mode = _MODE_BY_FLAG[args.mode]
    index = corpus = None
    inputs: list[str | Path] = [args.qa]
    if mode != pipeline.MODE_LLM_ONLY:
        if not args.index:
            raise RagselError(f"mode {args.mode} requires --index")
        index, corpus = _open_index_and_corpus(args)
        inputs += index_files(args.index) + corpus.input_files()
    records = pipeline.run_dataset(
        mode,
        qa,
        backend,
        prompts,
        index=index,
        corpus=corpus,
        top_k=args.top_k,
        order_seed=args.seed,
        budget=args.budget or None,
        max_tokens=args.max_tokens,
    )
    pipeline.save_records(records, args.out)
    inputs += [path for path in (args.script, args.fewshot) if path]
    errors = [r.error for r in records if r.error is not None]
    return Outcome(
        {"records": len(records), "out": str(args.out), "audit": pipeline.audit_selection(records)},
        inputs=inputs,
        seeds={"order_seed": args.seed},
        failure=_none_succeeded(len(records), errors, "records carry an error"),
    )


def cmd_rgp_build(args) -> Outcome:
    qa = load_qa_file(args.qa)
    backend = _make_backend(args, cache_by_default=True)
    index, corpus = _open_index_and_corpus(args)
    instances, report = rgp_mod.build(
        qa,
        index,
        corpus,
        backend,
        pipeline.PromptSet.default(shots=0),
        judge_mode=args.judge,
        seed=args.seed,
        max_tokens=args.max_tokens,
    )
    rgp_mod.save_instances(instances, args.out)
    inputs = [args.qa] + index_files(args.index) + corpus.input_files()
    return Outcome(
        {"instances": len(instances), "out": str(args.out), "report": report.to_dict()},
        inputs=inputs + ([args.script] if args.script else []),
        seeds={"seed": args.seed},
        failure=_none_succeeded(report.total, report.quarantine_reasons, "items were quarantined"),
    )


def cmd_rgp_augment(args) -> Outcome:
    dataset = rgp_mod.load_instances(args.in_path)
    pairs, report = augment_mod.augment_dataset(dataset, args.k, args.seed)
    summary = dpo_mod.export_training_file(pairs, args.out)
    return Outcome(
        {"pairs": summary.total, "out": str(args.out), "report": report.to_dict()},
        inputs=[args.in_path],
        seeds={"order_seed": args.seed},
    )


def cmd_dpo_export(args) -> Outcome:
    pairs = dpo_mod.load_pairs(args.in_path)
    summary = dpo_mod.export_training_file(pairs, args.out)
    return Outcome(summary.to_dict(), inputs=[args.in_path])


def cmd_dpo_loss(args) -> Outcome:
    records = dpo_mod.load_logprob_file(args.in_path)
    mean, per_pair = dpo_mod.dataset_loss(records, dpo_mod.DpoConfig(beta=args.beta))
    payload = {"mean_loss": mean, "n": len(per_pair), "beta": args.beta}
    return Outcome(payload, inputs=[args.in_path], out_json={**payload, "per_pair": per_pair})


def cmd_eval(args) -> Outcome:
    records = pipeline.load_records(args.pred)
    report = evaluation.evaluate(records, load_qa_file(args.qa))
    return Outcome(report.render(), inputs=[args.pred, args.qa], out_json=report.to_dict())


def cmd_errors_classify(args) -> Outcome:
    records = pipeline.load_records(args.pred)
    labels, shares = evaluation.classify_errors(records, load_qa_file(args.qa))
    payload = {
        "n_errors": len(labels),
        "labels": [{"item_id": l.item_id, "category": l.category, "basis": l.basis} for l in labels],
        "shares": shares,
    }
    return Outcome(payload, inputs=[args.pred, args.qa], out_json=payload)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--script", help="JSONL script file for the offline backend")
    parser.add_argument("--cache", help="directory for the response replay cache")


def _set_command(parser: argparse.ArgumentParser, handler: Callable, settings: tuple[str, ...] = ()) -> None:
    """Bind `handler` to `parser` with the settings it reads: each gets its
    flag, if it has one, and the manifest records them all."""
    for key in settings:
        setting = _SETTINGS[key]
        if setting.flag:
            parser.add_argument(setting.flag, dest=key, help=f"{setting.allowed} (default: {setting.default!r})")
    parser.set_defaults(handler=handler, settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ragsel", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="passage collection commands")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_ingest = corpus_sub.add_parser("ingest", help="ingest a passages JSONL file")
    p_ingest.add_argument("--passages", required=True)
    p_ingest.add_argument("--out", required=True)
    _set_command(p_ingest, cmd_corpus_ingest)

    p_index = sub.add_parser("index", help="retrieval index commands")
    index_sub = p_index.add_subparsers(dest="subcommand", required=True)
    p_build = index_sub.add_parser("build", help="build the lexical index from a corpus")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True)
    _set_command(p_build, cmd_index_build, ("k1", "b"))

    p_retrieve = sub.add_parser("retrieve", help="query an index")
    p_retrieve.add_argument("--index", required=True)
    p_retrieve.add_argument("--query", required=True)
    _set_command(p_retrieve, cmd_retrieve, ("top_k",))

    p_run = sub.add_parser("run", help="answer a QA set in one of three modes")
    p_run.add_argument("--mode", required=True, choices=sorted(_MODE_BY_FLAG))
    p_run.add_argument("--qa", required=True)
    p_run.add_argument("--index")
    p_run.add_argument("--corpus")
    p_run.add_argument("--fewshot", help="JSON file of 3 exemplars, with shots 3 (default: packaged ones)")
    p_run.add_argument("--out", required=True)
    _add_backend_flags(p_run)
    _set_command(p_run, cmd_run, _BACKEND_SETTINGS + ("top_k", "shots", "seed", "budget", "max_tokens"))

    p_rgp = sub.add_parser("rgp", help="preference dataset commands")
    rgp_sub = p_rgp.add_subparsers(dest="subcommand", required=True)
    p_rgp_build = rgp_sub.add_parser("build", help="build preference instances from a QA set")
    p_rgp_build.add_argument("--qa", required=True)
    p_rgp_build.add_argument("--index", required=True)
    p_rgp_build.add_argument("--corpus")
    p_rgp_build.add_argument("--out", required=True)
    _add_backend_flags(p_rgp_build)
    _set_command(p_rgp_build, cmd_rgp_build, _BACKEND_SETTINGS + ("judge", "seed", "max_tokens"))
    p_rgp_aug = rgp_sub.add_parser("augment", help="expand instances into DPO pairs")
    p_rgp_aug.add_argument("--in", dest="in_path", required=True)
    p_rgp_aug.add_argument("--out", required=True)
    _set_command(p_rgp_aug, cmd_rgp_augment, ("k", "seed"))

    p_dpo = sub.add_parser("dpo", help="preference-loss and export commands")
    dpo_sub = p_dpo.add_subparsers(dest="subcommand", required=True)
    p_export = dpo_sub.add_parser("export", help="validate and re-emit a pair file")
    p_export.add_argument("--in", dest="in_path", required=True)
    p_export.add_argument("--out", required=True)
    _set_command(p_export, cmd_dpo_export)
    p_loss = dpo_sub.add_parser("loss", help="forward loss over a log-prob file")
    p_loss.add_argument("--in", dest="in_path", required=True)
    p_loss.add_argument("--out")
    _set_command(p_loss, cmd_dpo_loss, ("beta",))

    p_eval = sub.add_parser("eval", help="score a results file against a QA set")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--qa", required=True)
    p_eval.add_argument("--out")
    _set_command(p_eval, cmd_eval)

    p_errors = sub.add_parser("errors", help="error analysis commands")
    errors_sub = p_errors.add_subparsers(dest="subcommand", required=True)
    p_classify = errors_sub.add_parser("classify", help="bucket wrong answers by failure kind")
    p_classify.add_argument("--pred", required=True)
    p_classify.add_argument("--qa", required=True)
    p_classify.add_argument("--out")
    _set_command(p_classify, cmd_errors_classify)

    return parser


def _fail(exc: Exception, code: int, error: str | None = None) -> int:
    print(json.dumps({"error": error or type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        return _finish(args, args.handler(args), " ".join(["ragsel"] + argv))
    except SettingError as exc:
        return _fail(exc, 2)
    except RagselError as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 1, "OSError")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
