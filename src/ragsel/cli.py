"""Single entrypoint binding every module into subcommands.

Settings layer as defaults < config file < flags < environment. The config
file is flat `key = value` lines, found via --config or the
SELECTOR_RAG_CONFIG environment variable; per-key environment overrides use
the SELECTOR_RAG_ prefix (e.g. SELECTOR_RAG_TOP_K=3). Secrets never appear
in manifests: config names the environment variable holding the token, not
the token itself.

Exit codes: 0 success, 1 runtime failure (with a machine-readable JSON error
line on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from . import augment as augment_mod
from . import corpus as corpus_mod
from . import dpo as dpo_mod
from . import evaluation
from . import pipeline
from . import rgp as rgp_mod
from .data import load_qa_file
from .errors import RagselError
from .llm import Backend, CachedBackend, HttpBackend, ScriptedBackend
from .manifest import write_manifest
from .retrieval import Bm25Index, EmbeddingClient, RetrievalConfig, build_index, index_files

ENV_CONFIG_PATH = "SELECTOR_RAG_CONFIG"
ENV_PREFIX = "SELECTOR_RAG_"

_DEFAULTS: dict[str, Any] = {
    "endpoint_url": "",
    "api_key_env": "",
    "model_name": "default",
    "max_retries": 3,
    "max_in_flight": 4,
    "top_k": 5,
    "k1": 1.2,
    "b": 0.75,
    "shots": 0,
    "seed": 0,
    "beta": 0.1,
    "k": 2,
    "judge": "lexical",
    "similarity": "lexical",
    "budget": 0,  # 0 = no prompt budget
    "max_tokens": 512,
}


class Settings:
    """Layered lookup: defaults < config file < flags < environment."""

    def __init__(self, config_path: str | None):
        path = config_path or os.environ.get(ENV_CONFIG_PATH) or None
        self.config_path = Path(path) if path else None
        self.file_values: dict[str, str] = {}
        if self.config_path is not None:
            for raw in self.config_path.read_text(encoding="utf-8").splitlines():
                line = raw.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                self.file_values[key.strip()] = value.strip()

    def get(self, key: str, flag_value: Any = None) -> Any:
        default = _DEFAULTS[key]
        value: Any = default
        if key in self.file_values:
            value = self.file_values[key]
        if flag_value is not None:
            value = flag_value
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            value = env_value
        if isinstance(default, bool):
            return str(value).lower() in ("1", "true", "yes")
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        return str(value)

    def snapshot(self, keys: Sequence[str], args: argparse.Namespace) -> dict:
        return {key: self.get(key, getattr(args, key.replace("-", "_"), None)) for key in keys}

    def input_files(self) -> list[Path]:
        return [self.config_path] if self.config_path else []


def _make_backend(
    settings: Settings, args: argparse.Namespace, *, cache_by_default: bool = False
) -> Backend:
    script = getattr(args, "script", None)
    endpoint = settings.get("endpoint_url", getattr(args, "endpoint", None))
    is_http = False
    if script:
        backend: Backend = ScriptedBackend.from_jsonl(script)
    elif endpoint:
        is_http = True
        backend = HttpBackend(
            endpoint_url=endpoint,
            model_name=settings.get("model_name"),
            api_key_env=settings.get("api_key_env") or None,
            max_retries=settings.get("max_retries"),
            max_in_flight=settings.get("max_in_flight"),
        )
    else:
        raise RagselError("no backend configured: pass --script or --endpoint (or set endpoint_url)")
    cache_dir = getattr(args, "cache", None)
    if not cache_dir and cache_by_default and is_http:
        # Dataset builds over a live endpoint are expensive; cache beside the
        # output so interrupted runs resume for free.
        out = Path(getattr(args, "out"))
        cache_dir = str(out.with_name(out.name + ".cache"))
    if cache_dir:
        backend = CachedBackend(backend, cache_dir)
    return backend


def _open_index_and_corpus(args: argparse.Namespace) -> tuple[Bm25Index, corpus_mod.Corpus]:
    index = Bm25Index.load(args.index)
    corpus_dir = getattr(args, "corpus", None) or index.corpus_path
    if not corpus_dir or not Path(corpus_dir).exists():
        raise RagselError(
            "cannot locate the corpus behind this index; pass --corpus explicitly"
        )
    return index, corpus_mod.Corpus(corpus_dir)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def cmd_corpus_ingest(args, settings: Settings, argv: list[str]) -> int:
    handle = corpus_mod.ingest(args.passages, args.out)
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config=settings.snapshot([], args),
        seeds={},
        inputs=[args.passages] + settings.input_files(),
    )
    _emit({"passages": len(handle), "total_tokens": handle.stats.total_tokens, "out": str(args.out)})
    return 0


def cmd_index_build(args, settings: Settings, argv: list[str]) -> int:
    handle = corpus_mod.Corpus(args.corpus)
    config = RetrievalConfig(k1=settings.get("k1", args.k1), b=settings.get("b", args.b))
    index = build_index(handle, config)
    index.save(args.out)
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config=settings.snapshot(["k1", "b"], args),
        seeds={},
        inputs=handle.input_files() + settings.input_files(),
    )
    _emit({"passages": index.N, "terms": len(index.postings.terms), "out": str(args.out)})
    return 0


def cmd_retrieve(args, settings: Settings, argv: list[str]) -> int:
    index = Bm25Index.load(args.index)
    result = index.retrieve(args.query, settings.get("top_k", args.top_k))
    print(result.to_json())
    return 0


_MODE_BY_FLAG = {
    "llm-only": pipeline.MODE_LLM_ONLY,
    "standard-rag": pipeline.MODE_STANDARD_RAG,
    "self-select": pipeline.MODE_SELF_SELECT,
}


def cmd_run(args, settings: Settings, argv: list[str]) -> int:
    qa = load_qa_file(args.qa)
    backend = _make_backend(settings, args)
    shots = settings.get("shots", args.shots)
    prompts = pipeline.PromptSet.default(shots=shots, fewshot_path=args.fewshot)
    mode = _MODE_BY_FLAG[args.mode]
    index = corpus = None
    inputs: list[Path] = [Path(args.qa)]
    if mode != pipeline.MODE_LLM_ONLY:
        if not args.index:
            raise RagselError(f"mode {args.mode} requires --index")
        index, corpus = _open_index_and_corpus(args)
        inputs += index_files(args.index) + corpus.input_files()
    budget = settings.get("budget", args.budget) or None
    records = pipeline.run_dataset(
        mode,
        qa,
        backend,
        prompts,
        index=index,
        corpus=corpus,
        top_k=settings.get("top_k", args.top_k),
        order_seed=settings.get("seed", args.seed),
        budget=budget,
        max_tokens=settings.get("max_tokens"),
    )
    pipeline.save_records(records, args.out)
    if args.script:
        inputs.append(Path(args.script))
    if args.fewshot:
        inputs.append(Path(args.fewshot))
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config=settings.snapshot(["top_k", "shots", "budget", "max_tokens"], args),
        seeds={"order_seed": settings.get("seed", args.seed)},
        inputs=inputs + settings.input_files(),
    )
    _emit({"records": len(records), "out": str(args.out), "audit": pipeline.audit_selection(records)})
    return 0


def cmd_rgp_build(args, settings: Settings, argv: list[str]) -> int:
    qa = load_qa_file(args.qa)
    backend = _make_backend(settings, args, cache_by_default=True)
    index, corpus = _open_index_and_corpus(args)
    judge_mode = settings.get("judge", args.judge)
    judge_backend = backend if judge_mode == rgp_mod.JUDGE_LLM else None
    prompts = pipeline.PromptSet.default(shots=0)
    seed = settings.get("seed", args.seed)
    instances, report = rgp_mod.build(
        qa,
        index,
        corpus,
        backend,
        prompts,
        judge_mode=judge_mode,
        judge_backend=judge_backend,
        seed=seed,
        max_tokens=settings.get("max_tokens"),
    )
    rgp_mod.save_instances(instances, args.out)
    inputs = [Path(args.qa)] + index_files(args.index) + corpus.input_files()
    if args.script:
        inputs.append(Path(args.script))
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config=settings.snapshot(["judge", "max_tokens"], args),
        seeds={"seed": seed},
        inputs=inputs + settings.input_files(),
    )
    _emit({"instances": len(instances), "out": str(args.out), "report": report.to_dict()})
    return 0


def cmd_rgp_augment(args, settings: Settings, argv: list[str]) -> int:
    dataset = rgp_mod.load_instances(args.in_path)
    sim_mode = settings.get("similarity", args.similarity)
    client = None
    if sim_mode == augment_mod.SIM_EMBEDDING:
        endpoint = settings.get("endpoint_url", getattr(args, "endpoint", None))
        if not endpoint:
            raise RagselError("embedding similarity requires --endpoint (or endpoint_url)")
        client = EmbeddingClient(
            endpoint, model_tag=settings.get("model_name"),
            api_key_env=settings.get("api_key_env") or None,
        )
    seed = settings.get("seed", args.seed)
    k = settings.get("k", args.k)
    pairs, report = augment_mod.augment_dataset(dataset, k, seed, mode=sim_mode, client=client)
    summary = dpo_mod.export_training_file(pairs, args.out)
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config=settings.snapshot(["k", "similarity"], args),
        seeds={"order_seed": seed},
        inputs=[Path(args.in_path)] + settings.input_files(),
    )
    _emit({"pairs": summary.total, "out": str(args.out), "report": report.to_dict()})
    return 0


def cmd_dpo_export(args, settings: Settings, argv: list[str]) -> int:
    pairs = dpo_mod.load_pairs(args.in_path)
    summary = dpo_mod.export_training_file(pairs, args.out)
    write_manifest(
        args.out,
        command_line=" ".join(argv),
        config={},
        seeds={},
        inputs=[Path(args.in_path)] + settings.input_files(),
    )
    _emit(summary.to_dict())
    return 0


def cmd_dpo_loss(args, settings: Settings, argv: list[str]) -> int:
    records = dpo_mod.load_logprob_file(args.in_path)
    config = dpo_mod.DpoConfig(beta=settings.get("beta", args.beta))
    mean, per_pair = dpo_mod.dataset_loss(records, config)
    payload = {"mean_loss": mean, "n": len(per_pair), "beta": config.beta}
    if args.out:
        Path(args.out).write_text(
            json.dumps({**payload, "per_pair": per_pair}, ensure_ascii=False), encoding="utf-8"
        )
        write_manifest(
            args.out,
            command_line=" ".join(argv),
            config={"beta": config.beta},
            seeds={},
            inputs=[Path(args.in_path)] + settings.input_files(),
        )
    _emit(payload)
    return 0


def cmd_eval(args, settings: Settings, argv: list[str]) -> int:
    records = pipeline.load_records(args.pred)
    qa = load_qa_file(args.qa)
    report = evaluation.evaluate(records, qa)
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), ensure_ascii=False), encoding="utf-8")
        write_manifest(
            args.out,
            command_line=" ".join(argv),
            config={},
            seeds={},
            inputs=[Path(args.pred), Path(args.qa)] + settings.input_files(),
        )
    print(report.render())
    return 0


def cmd_errors_classify(args, settings: Settings, argv: list[str]) -> int:
    records = pipeline.load_records(args.pred)
    qa = load_qa_file(args.qa)
    labels, shares = evaluation.classify_errors(records, qa)
    payload = {
        "n_errors": len(labels),
        "labels": [{"item_id": l.item_id, "category": l.category, "basis": l.basis} for l in labels],
        "shares": shares,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        write_manifest(
            args.out,
            command_line=" ".join(argv),
            config={},
            seeds={},
            inputs=[Path(args.pred), Path(args.qa)] + settings.input_files(),
        )
    _emit(payload)
    return 0


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", help="chat-completions endpoint URL")
    parser.add_argument("--script", help="JSONL script file for the offline backend")
    parser.add_argument("--cache", help="directory for the response replay cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ragsel", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="passage collection commands")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_ingest = corpus_sub.add_parser("ingest", help="ingest a passages JSONL file")
    p_ingest.add_argument("--passages", required=True)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(handler=cmd_corpus_ingest)

    p_index = sub.add_parser("index", help="retrieval index commands")
    index_sub = p_index.add_subparsers(dest="subcommand", required=True)
    p_build = index_sub.add_parser("build", help="build the lexical index from a corpus")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--k1", type=float)
    p_build.add_argument("--b", type=float)
    p_build.set_defaults(handler=cmd_index_build)

    p_retrieve = sub.add_parser("retrieve", help="query an index")
    p_retrieve.add_argument("--index", required=True)
    p_retrieve.add_argument("--query", required=True)
    p_retrieve.add_argument("--top-k", type=int, dest="top_k")
    p_retrieve.set_defaults(handler=cmd_retrieve)

    p_run = sub.add_parser("run", help="answer a QA set in one of three modes")
    p_run.add_argument("--mode", required=True, choices=sorted(_MODE_BY_FLAG))
    p_run.add_argument("--qa", required=True)
    p_run.add_argument("--index")
    p_run.add_argument("--corpus")
    p_run.add_argument("--shots", type=int, choices=(0, 3))
    p_run.add_argument("--fewshot", help="JSON file of 3 exemplars (default: packaged ones)")
    p_run.add_argument("--top-k", type=int, dest="top_k")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--budget", type=int, help="max prompt characters (0 = unlimited)")
    p_run.add_argument("--out", required=True)
    _add_backend_flags(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_rgp = sub.add_parser("rgp", help="preference dataset commands")
    rgp_sub = p_rgp.add_subparsers(dest="subcommand", required=True)
    p_rgp_build = rgp_sub.add_parser("build", help="build preference instances from a QA set")
    p_rgp_build.add_argument("--qa", required=True)
    p_rgp_build.add_argument("--index", required=True)
    p_rgp_build.add_argument("--corpus")
    p_rgp_build.add_argument("--judge", choices=(rgp_mod.JUDGE_LLM, rgp_mod.JUDGE_LEXICAL))
    p_rgp_build.add_argument("--seed", type=int)
    p_rgp_build.add_argument("--out", required=True)
    _add_backend_flags(p_rgp_build)
    p_rgp_build.set_defaults(handler=cmd_rgp_build)
    p_rgp_aug = rgp_sub.add_parser("augment", help="expand instances into DPO pairs")
    p_rgp_aug.add_argument("--in", dest="in_path", required=True)
    p_rgp_aug.add_argument("--k", type=int)
    p_rgp_aug.add_argument(
        "--similarity", choices=(augment_mod.SIM_EMBEDDING, augment_mod.SIM_LEXICAL)
    )
    p_rgp_aug.add_argument("--seed", type=int)
    p_rgp_aug.add_argument("--endpoint", help="embedding endpoint (similarity=embedding)")
    p_rgp_aug.add_argument("--out", required=True)
    p_rgp_aug.set_defaults(handler=cmd_rgp_augment)

    p_dpo = sub.add_parser("dpo", help="preference-loss and export commands")
    dpo_sub = p_dpo.add_subparsers(dest="subcommand", required=True)
    p_export = dpo_sub.add_parser("export", help="validate and re-emit a pair file")
    p_export.add_argument("--in", dest="in_path", required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(handler=cmd_dpo_export)
    p_loss = dpo_sub.add_parser("loss", help="forward loss over a log-prob file")
    p_loss.add_argument("--in", dest="in_path", required=True)
    p_loss.add_argument("--beta", type=float)
    p_loss.add_argument("--out")
    p_loss.set_defaults(handler=cmd_dpo_loss)

    p_eval = sub.add_parser("eval", help="score a results file against a QA set")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--qa", required=True)
    p_eval.add_argument("--out")
    p_eval.set_defaults(handler=cmd_eval)

    p_errors = sub.add_parser("errors", help="error analysis commands")
    errors_sub = p_errors.add_subparsers(dest="subcommand", required=True)
    p_classify = errors_sub.add_parser("classify", help="bucket wrong answers by failure kind")
    p_classify.add_argument("--pred", required=True)
    p_classify.add_argument("--qa", required=True)
    p_classify.add_argument("--out")
    p_classify.set_defaults(handler=cmd_errors_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args.config)
        return args.handler(args, settings, ["ragsel"] + argv)
    except RagselError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
