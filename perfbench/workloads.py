"""The benchmark's three workloads, each driving ragsel's public library API.

- answer: `run_dataset("self_select")` over the in-process stand-in on a
  50,000-passage corpus. BM25 retrieval dominates each item.
- prefdata: the preference path (`rgp.build`, instance save and load,
  `augment_dataset` at k=3, `export_training_file`, log-prob load and
  `dataset_loss`) over the in-process stand-in. Neighbour mining dominates.
- answer-http: `run_dataset("self_select")` over a 500-passage corpus
  through `CachedBackend(HttpBackend(...))` to the loopback stub. Pass 1
  starts from an empty cache; pass 2 replays the same items from it.

Each workload returns a `Result`. With tracing off it measures the
end-to-end metrics, timing the stages with a `HostClock` (wall and
reference-host seconds); the answer stages run for at least `seconds`. With
tracing on it runs a fixed item count (or the whole prefdata pipeline)
twice, untraced and then traced, and derives the per-layer metrics from the
traced spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ragsel
from ragsel import augment, dpo, pipeline, rgp
from ragsel.manifest import write_manifest

import gen
from hostspeed import HostClock
from spans import Summary, TracedBackend, TracedCorpus, TracedIndex, Tracer, direct, rebound
from standin import DELAY_MS, StandIn

HERE = Path(__file__).resolve().parent
MODE = "self_select"
TOP_K = 5
ORDER_SEED = 0
AUGMENT_K = 3
SETUP_REPS = {"answer": 3, "prefdata": 100, "answer-http": 100}
CHUNK = {"answer": 10, "answer-http": 50}
# Every run processes at least these first items; em, the results digest and
# the traced passes use exactly them, so those repeat for a seed.
PREFIX_ITEMS = {"answer": 40, "answer-http": 200}
# em on that prefix stays above these floors: seeds 1-12 (answer) and 1-30
# (answer-http) read 0.775-0.95 and 0.815-0.94. An index that returns one
# fixed query's hits for every question read 0.595-0.675 on answer-http
# (seeds 1-5); on answer's 40 items the floor only catches larger losses.
EM_FLOOR = {"answer": 0.65, "answer-http": 0.75}
ORACLE_QUERIES = 5
K1, B = 1.2, 0.75  # RetrievalConfig defaults, which every index here is built with
PAPER_QA, PAPER_INSTANCES, PAPER_PAIRS = 11_756, 3_756, 21_928
RATIO_TOLERANCE = 0.05
MIB = 1024 * 1024


@dataclass
class Result:
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float | None] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    inputs: Path
    meta: dict


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _digest(path: Path, lines: int | None = None) -> str:
    """SHA-256 of the file, or of its first `lines` lines."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            if i == lines:
                break
            h.update(line)
    return h.hexdigest()


def _dir_mib(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / MIB


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- set-up -------------------------------------------------------------------


@dataclass
class Opened:
    corpus: object
    index: object
    qa: list
    index_dir: Path
    setup_s: list[float]


def setup(ctx: Ctx, tracer: Tracer | None, reps: int) -> Opened:
    """ingest + build_index + save + Bm25Index.load + load_qa_file, repeated;
    the last repetition's corpus and index serve the measured stage."""
    call = tracer.call if tracer else direct
    totals: list[float] = []
    corpus = index = qa = None
    for rep in range(reps):
        corpus = index = qa = None
        for old in ctx.work.glob("setup-*"):
            shutil.rmtree(old)
        corpus_dir, index_dir = ctx.work / f"setup-{rep}" / "corpus", ctx.work / f"setup-{rep}" / "index"
        t0 = time.perf_counter()
        corpus = call("corpus.ingest", ragsel.ingest, ctx.inputs / "passages.jsonl", corpus_dir)
        built = call("retrieval.build_index", ragsel.build_index, corpus)
        call("retrieval.save", built.save, index_dir)
        del built
        index = call("retrieval.load", ragsel.Bm25Index.load, index_dir)
        qa = call("data.load_qa_file", ragsel.load_qa_file, ctx.inputs / "qa.jsonl")
        totals.append(time.perf_counter() - t0)
    return Opened(corpus, index, qa, index_dir, totals)


# --- the `ragsel run` stage -----------------------------------------------------


def ragsel_run(ctx: Ctx, op: Opened, backend, out: Path, *, items: int, seconds: float | None = None,
               tracer: Tracer | None = None) -> tuple[list, HostClock]:
    """What `ragsel run --mode self-select` does after opening its index:
    `run_dataset`, `save_records`, `write_manifest`. Items are taken in QA
    order, a chunk at a time, until `items` are done and, when
    `seconds` is given, the stage has run that long. Returns the records and
    the clock that timed the stage."""
    call = tracer.call if tracer else direct
    clock = HostClock(sample=not ctx.trace)
    index, corpus = op.index, op.corpus
    if tracer is not None:
        item_of = {qa.question: qa.id for qa in op.qa}
        index, corpus = TracedIndex(index, tracer, item_of), TracedCorpus(corpus, tracer)
    prompts = ragsel.PromptSet.default()
    chunk = CHUNK[ctx.workload]
    records: list = []
    pos = 0
    while True:
        size = chunk if seconds is not None else min(chunk, items - pos)
        batch = [op.qa[(pos + i) % len(op.qa)] for i in range(size)]
        with clock.region():
            records += call("pipeline.run_dataset", ragsel.run_dataset, MODE, batch, backend, prompts,
                            index=index, corpus=corpus, top_k=TOP_K, order_seed=ORDER_SEED)
        pos += size
        if pos >= items and (seconds is None or clock.wall_s() >= seconds):
            break
    if tracer is not None:
        tracer.item = None
    with clock.region():
        call("data.save_records", pipeline.save_records, records, out)
        call("manifest.write_manifest", write_manifest, out,
             command_line="ragsel run --mode self-select",
             config={"top_k": TOP_K, "shots": 0, "budget": None, "max_tokens": 512},
             seeds={"order_seed": ORDER_SEED},
             inputs=[ctx.inputs / "qa.jsonl", op.index_dir] + op.corpus.input_files())
    return records, clock


def _record_checks(res: Result, ctx: Ctx, records: list, qa: list, out: Path, tracer: Tracer | None) -> None:
    """Quality and integrity of one results file; runs outside timed stages."""
    first = records[: PREFIX_ITEMS[ctx.workload]]
    if tracer is not None:
        tracer.phase = "evaluate"
    call = tracer.call if tracer else direct
    report = call("evaluation.evaluate", ragsel.evaluate, first, qa)
    errors = sum(1 for r in records if r.error is not None)
    res.attempted += len(records)
    res.failed += errors
    res.e2e["em"] = (report.em, "fraction")
    res.e2e["error_ratio"] = (errors / len(records), "fraction")
    res.counts["em_items"] = len(first)
    res.digests["results"] = _digest(out, len(first))
    res.check("error_ratio is 0", errors == 0, f"{errors} of {len(records)} records carry an error")
    floor = EM_FLOOR[ctx.workload]
    res.check(f"em is at least {floor}", report.em >= floor, f"em {report.em:.4f} on {len(first)} items")
    sources = {r.chosen_source for r in records}
    res.check("both sources chosen", {"internal", "retrieval"} <= sources, f"chosen sources {sorted(sources)}")


def _neither_and_parse_failures(records: list) -> tuple[int, int]:
    neither = sum(1 for r in records if r.chosen_source == "neither" and r.error is None)
    failures = 0
    for r in records:
        failures += sum(1 for c in (r.internal, r.grounded) if c is not None and not c.parse_ok)
        try:
            ragsel.parse_response(r.selector_raw)
        except ragsel.RagselError:
            failures += 1
    return neither, failures


# --- correctness oracle ---------------------------------------------------------


def bm25_oracle(res: Result, ctx: Ctx, op: Opened) -> None:
    """`retrieve` hits on the first questions equal a brute-force BM25 with the
    formula in retrieval.py, computed from the generated passages file."""
    queries = [qa.question for qa in op.qa[:ORACLE_QUERIES]]
    row_of = {t: i for i, t in enumerate(sorted({t for q in queries for t in q.split()}))}
    n = ctx.meta["passages"]
    ids: list[str] = []
    dl = np.zeros(n, dtype=np.int64)
    tf = np.zeros((len(row_of), n), dtype=np.int64)
    with open(ctx.inputs / "passages.jsonl", encoding="utf-8") as fh:
        for d, line in enumerate(fh):
            record = json.loads(line)
            tokens = record["text"].split()
            ids.append(record["id"])
            dl[d] = len(tokens)
            for t in tokens:
                row = row_of.get(t)
                if row is not None:
                    tf[row, d] += 1
    avgdl = int(dl.sum()) / n
    norm = K1 * ((1.0 - B) + (B * dl) / avgdl)
    mismatches = []
    for q in queries:
        score = np.zeros(n)
        for t in q.split():
            f = tf[row_of[t]]
            docs = np.nonzero(f)[0]
            df = len(docs)
            if df == 0:
                continue
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score[docs] = score[docs] + idf * f[docs] * (K1 + 1.0) / (f[docs] + norm[docs])
        hits = sorted(((ids[d], float(score[d])) for d in np.nonzero(score > 0.0)[0]), key=lambda h: (-h[1], h[0]))
        got = op.index.retrieve(q, TOP_K).hits
        expected = hits[:TOP_K]
        same = [pid for pid, _ in got] == [pid for pid, _ in expected] and all(
            math.isclose(a, b, rel_tol=1e-12) for (_, a), (_, b) in zip(got, expected))
        if not same:
            mismatches.append(q)
    res.check("retrieve equals brute-force BM25", not mismatches,
              f"{len(queries) - len(mismatches)} of {len(queries)} sample queries match")


# --- per-layer metrics -------------------------------------------------------------

MODULES = ("corpus", "retrieval", "llm", "pipeline", "data", "manifest", "rgp", "augment", "dpo", "evaluation")
LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.gets": "count",
    "corpus.get_us.p50": "us",
    "corpus.get_us.p99": "us",
    "retrieval.build_s": "s",
    "retrieval.save_s": "s",
    "retrieval.load_s": "s",
    "retrieval.index_mb": "MB",
    "retrieval.queries": "count",
    "retrieval.retrieve_ms.p50": "ms",
    "retrieval.retrieve_ms.p99": "ms",
    "retrieval.share": "fraction",
    "retrieval.candidates_per_query": "count",
    "llm.calls": "count",
    "llm.failed": "count",
    "llm.call_ms.p50": "ms",
    "llm.call_ms.p99": "ms",
    "llm.wait_share": "fraction",
    "llm.transport_ms.p50": "ms",
    "llm.cache_hits": "count",
    "llm.cache_misses": "count",
    "llm.cache_overhead_us.p50": "us",
    "llm.cache_read_us.p50": "us",
    "pipeline.self_ms_per_item": "ms",
    "pipeline.neither": "count",
    "pipeline.parse_failures": "count",
    "data.save_records_s": "s",
    "manifest.write_s": "s",
    "rgp.build_s": "s",
    "rgp.self_s": "s",
    "rgp.io_s": "s",
    "rgp.kept": "count",
    "rgp.quarantined": "count",
    "rgp.kept_ratio": "fraction",
    "augment.mine_s": "s",
    "augment.expand_s": "s",
    "augment.pairs": "count",
    "augment.collision_dropped": "count",
    "dpo.export_s": "s",
    "dpo.export_mb": "MB",
    "dpo.loss_s": "s",
    "evaluation.evaluate_ms": "ms",
    **{f"self_s.{module}": "s" for module in MODULES},
    "trace.self_sum_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def _common_layers(res: Result, ctx: Ctx, tracer: Tracer, op: Opened, stage_phases: tuple[str, ...]) -> Summary:
    setup_sum = Summary(tracer.spans, ("setup",))
    s = Summary(tracer.spans, stage_phases)
    stage_s = s.root_ns / 1e9
    L = res.layers
    L["corpus.ingest_s"] = setup_sum.median_s("corpus.ingest")
    L["retrieval.build_s"] = setup_sum.median_s("retrieval.build_index")
    L["retrieval.save_s"] = setup_sum.median_s("retrieval.save")
    L["retrieval.load_s"] = setup_sum.median_s("retrieval.load")
    L["retrieval.index_mb"] = _dir_mib(op.index_dir)
    L["corpus.gets"] = s.count("corpus.get")
    L["corpus.get_us.p50"] = s.pct_s("corpus.get", 0.50) * 1e6
    L["corpus.get_us.p99"] = s.pct_s("corpus.get", 0.99) * 1e6
    L["retrieval.queries"] = s.count("retrieval.retrieve")
    L["retrieval.retrieve_ms.p50"] = s.pct_s("retrieval.retrieve", 0.50) * 1e3
    L["retrieval.retrieve_ms.p99"] = s.pct_s("retrieval.retrieve", 0.99) * 1e3
    L["retrieval.share"] = s.module_self_ns["retrieval"] / s.root_ns
    L["retrieval.candidates_per_query"] = ctx.meta["candidates_per_query"]
    L["llm.calls"] = s.count("llm.call")
    L["llm.failed"] = s.failed.get("llm.call", 0)
    L["llm.call_ms.p50"] = s.pct_s("llm.call", 0.50) * 1e3
    L["llm.call_ms.p99"] = s.pct_s("llm.call", 0.99) * 1e3
    L["llm.wait_share"] = s.total_s("llm.call") / stage_s
    return s


def _module_self(res: Result, s: Summary) -> None:
    for module in MODULES:
        res.layers[f"self_s.{module}"] = s.module_self_ns.get(module, 0) / 1e9
    res.layers["trace.self_sum_s"] = sum(s.module_self_ns.values()) / 1e9


def _fill_missing(res: Result) -> None:
    """A layer off this workload's path did no work: its counts are 0 and
    its times are left out."""
    for name, unit in LAYER_UNITS.items():
        res.layers.setdefault(name, 0 if unit == "count" else None)


# --- workloads ------------------------------------------------------------------------


def run_answer(ctx: Ctx) -> Result:
    res = Result()
    tracer = Tracer() if ctx.trace else None
    backend = StandIn(ctx.seed)
    op = setup(ctx, tracer, SETUP_REPS[ctx.workload])
    res.e2e["setup_s"] = (statistics.median(op.setup_s), "s")
    n = PREFIX_ITEMS[ctx.workload]
    out = ctx.work / "results.jsonl"
    if not ctx.trace:
        records, clock = ragsel_run(ctx, op, backend, out, items=n, seconds=ctx.seconds)
        _rates(res, "items_per_s", len(records), clock)
    else:
        _records, untraced = ragsel_run(ctx, op, backend, ctx.work / "untraced.jsonl", items=n)
        tracer.phase = "measure"
        records, traced = ragsel_run(ctx, op, TracedBackend(backend, tracer, "llm.call"), out, items=n, tracer=tracer)
        s = _common_layers(res, ctx, tracer, op, ("measure",))
        _pipeline_layers(res, s, records)
        _overhead(res, untraced.wall_s(), traced.wall_s())
    _record_checks(res, ctx, records, op.qa, out, tracer)
    bm25_oracle(res, ctx, op)
    _finish(res, ctx, tracer)
    return res


def _pipeline_layers(res: Result, s: Summary, records: list) -> None:
    L = res.layers
    L["pipeline.self_ms_per_item"] = s.self_s("pipeline.run_dataset") * 1e3 / len(records)
    L["pipeline.neither"], L["pipeline.parse_failures"] = _neither_and_parse_failures(records)
    L["data.save_records_s"] = s.total_s("data.save_records")
    L["manifest.write_s"] = s.total_s("manifest.write_manifest")


def _rates(res: Result, name: str, items: int, clock: HostClock) -> None:
    """`name` in wall seconds, and `ref_<name>` in reference-host seconds."""
    res.e2e[name] = (items / clock.wall_s(), "items/s")
    res.e2e[f"ref_{name}"] = (items / clock.ref_s(), "items/s")
    res.counts[f"host_speed.{name}"] = clock.speed()


def _overhead(res: Result, untraced_s: float, traced_s: float) -> None:
    res.layers["trace.untraced_s"] = untraced_s
    res.layers["trace.traced_s"] = traced_s
    res.layers["trace.overhead_s"] = traced_s - untraced_s


def _finish(res: Result, ctx: Ctx, tracer: Tracer | None) -> None:
    res.e2e["peak_rss_mb"] = (peak_rss_mib(), "MB")
    if tracer is not None:
        res.layers["evaluation.evaluate_ms"] = Summary(tracer.spans, ("evaluate",)).total_s("evaluation.evaluate") * 1e3
        _module_self(res, Summary(tracer.spans, ("measure", "replay")))
        _fill_missing(res)
        tracer.write(ctx.work.parent / f"spans-{ctx.workload}-{ctx.seed}.jsonl")


class Stub:
    """The stand-in chat server, in its own process on a loopback port."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "standin.py"), "--seed", str(seed)],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("the stand-in server did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1/chat/completions"

    def stats(self) -> dict:
        """{"hits": chat requests served so far, "cpu_s": the stub's CPU seconds}"""
        with urllib.request.urlopen(self.base + "/hits", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_answer_http(ctx: Ctx) -> Result:
    res = Result()
    stub = Stub(ctx.seed)
    try:
        http = ragsel.HttpBackend(stub.url, "standin", max_in_flight=nproc())

        def replay(op: Opened, tag: str, pass1: Path, n: int, t: Tracer | None) -> float:
            """Pass 2: the same items again, every call served from the cache."""
            backend = ragsel.CachedBackend(http if t is None else TracedBackend(http, t, "llm.http"),
                                           ctx.work / f"cache-{tag}")
            if t is not None:
                t.phase = "replay"
                backend = TracedBackend(backend, t, "llm.call")
            out = ctx.work / f"pass2-{tag}.jsonl"
            before = stub.stats()["hits"]
            records, clock = ragsel_run(ctx, op, backend, out, items=n, tracer=t)
            network = stub.stats()["hits"] - before
            res.check(f"pass 2 ({tag}) makes no network call", network == 0, f"{network} calls")
            res.check(f"pass 2 ({tag}) replays pass 1 byte for byte", _digest(pass1) == _digest(out))
            return clock

        tracer = Tracer() if ctx.trace else None
        op = setup(ctx, tracer, SETUP_REPS[ctx.workload])
        res.e2e["setup_s"] = (statistics.median(op.setup_s), "s")
        n = PREFIX_ITEMS[ctx.workload]
        if not ctx.trace:
            out = ctx.work / "pass1-run.jsonl"
            before = stub.stats()["cpu_s"]
            rec1, c1 = ragsel_run(ctx, op, ragsel.CachedBackend(http, ctx.work / "cache-run"), out,
                                  items=n, seconds=ctx.seconds)
            c1.add_cpu(stub.stats()["cpu_s"] - before)
            c2 = replay(op, "run", out, len(rec1), None)
            _rates(res, "items_per_s", len(rec1), c1)
            _rates(res, "replay_items_per_s", len(rec1), c2)
        else:
            untraced = ctx.work / "pass1-untraced.jsonl"
            _r, u1 = ragsel_run(ctx, op, ragsel.CachedBackend(http, ctx.work / "cache-untraced"), untraced, items=n)
            u2 = replay(op, "untraced", untraced, n, None)
            tracer.phase = "measure"
            out = ctx.work / "pass1-traced.jsonl"
            cached = ragsel.CachedBackend(TracedBackend(http, tracer, "llm.http"), ctx.work / "cache-traced")
            rec1, c1 = ragsel_run(ctx, op, TracedBackend(cached, tracer, "llm.call"), out, items=n, tracer=tracer)
            c2 = replay(op, "traced", out, n, tracer)
            s = _common_layers(res, ctx, tracer, op, ("measure",))
            _pipeline_layers(res, s, rec1)
            replayed = Summary(tracer.spans, ("replay",))
            L = res.layers
            L["llm.transport_ms.p50"] = s.pct_s("llm.http", 0.50) * 1e3 - DELAY_MS
            L["llm.cache_misses"] = s.parent_count("llm.call") + replayed.parent_count("llm.call")
            L["llm.cache_hits"] = s.leaf_count("llm.call") + replayed.leaf_count("llm.call")
            L["llm.cache_overhead_us.p50"] = s.pct_s("llm.call", 0.50, "parents") * 1e6
            L["llm.cache_read_us.p50"] = replayed.pct_s("llm.call", 0.50, "leaves") * 1e6
            _overhead(res, u1.wall_s() + u2.wall_s(), c1.wall_s() + c2.wall_s())
        res.attempted += len(rec1)  # pass 2 replays them
        _record_checks(res, ctx, rec1, op.qa, out, tracer)
        bm25_oracle(res, ctx, op)
        _finish(res, ctx, tracer)
    finally:
        stub.close()
    return res


def prefdata_pipeline(ctx: Ctx, op: Opened, tag: str, tracer: Tracer | None) -> dict:
    """From the loaded QA set to the mean loss. Returns outputs and the clock
    that timed the stage; writing the generated log-prob file is input
    generation and is not timed."""
    call = tracer.call if tracer else direct
    clock = HostClock(sample=not ctx.trace)
    index, corpus = op.index, op.corpus
    backend = StandIn(ctx.seed)
    if tracer is not None:
        item_of = {qa.question: qa.id for qa in op.qa}
        index, corpus = TracedIndex(index, tracer, item_of), TracedCorpus(corpus, tracer)
        backend = TracedBackend(backend, tracer, "llm.call")
        tracer.phase = "measure"
    prompts = ragsel.PromptSet.default(shots=0)
    out = ctx.work / f"prefdata-{tag}"
    out.mkdir()
    with clock.region():
        instances, report = call("rgp.build", rgp.build, op.qa, index, corpus, backend, prompts,
                                 judge_mode=rgp.JUDGE_LEXICAL, seed=ORDER_SEED)
        if tracer is not None:
            tracer.item = None
        call("rgp.save_instances", rgp.save_instances, instances, out / "instances.jsonl")
        instances = call("rgp.load_instances", rgp.load_instances, out / "instances.jsonl")
        pairs, aug = call("augment.augment_dataset", augment.augment_dataset, instances, AUGMENT_K, ORDER_SEED)
        call("dpo.export_training_file", dpo.export_training_file, pairs, out / "train.jsonl")
    gen.write_logprobs(out / "logprobs.jsonl", len(pairs), ctx.seed)
    with clock.region():
        logprobs = call("dpo.load_logprob_file", dpo.load_logprob_file, out / "logprobs.jsonl")
        mean_loss, _per_pair = call("dpo.dataset_loss", dpo.dataset_loss, logprobs, dpo.DpoConfig())
    return {"instances": instances, "report": report, "pairs": pairs, "aug": aug,
            "mean_loss": mean_loss, "out": out, "clock": clock}


def run_prefdata(ctx: Ctx) -> Result:
    res = Result()
    tracer = Tracer() if ctx.trace else None
    op = setup(ctx, tracer, SETUP_REPS[ctx.workload])
    res.e2e["setup_s"] = (statistics.median(op.setup_s), "s")
    if not ctx.trace:
        p = prefdata_pipeline(ctx, op, "run", None)
    else:
        untraced = prefdata_pipeline(ctx, op, "untraced", None)["clock"].wall_s()
        with rebound(tracer, rgp, "generate_candidates", item_of_first_arg=lambda qa: qa.id), \
                rebound(tracer, augment, "mine_neighbors"), rebound(tracer, augment, "expand"):
            p = prefdata_pipeline(ctx, op, "traced", tracer)
        s = _common_layers(res, ctx, tracer, op, ("measure",))
        L = res.layers
        L["rgp.build_s"] = s.total_s("rgp.build")
        L["rgp.self_s"] = s.self_s("rgp.build", "rgp.generate_candidates")
        L["rgp.io_s"] = s.total_s("rgp.save_instances", "rgp.load_instances")
        L["augment.mine_s"] = s.total_s("augment.mine_neighbors")
        L["augment.expand_s"] = s.total_s("augment.expand")
        L["dpo.export_s"] = s.total_s("dpo.export_training_file")
        L["dpo.export_mb"] = (p["out"] / "train.jsonl").stat().st_size / MIB
        L["dpo.loss_s"] = s.total_s("dpo.load_logprob_file", "dpo.dataset_loss")
        _overhead(res, untraced, p["clock"].wall_s())

    report, aug, instances = p["report"], p["aug"], p["instances"]
    n_qa = report.total
    _rates(res, "items_per_s", n_qa, p["clock"])
    res.e2e["prefdata_s"] = (p["clock"].wall_s(), "s")
    res.e2e["error_ratio"] = (report.quarantined / n_qa, "fraction")
    res.attempted, res.failed = n_qa, report.quarantined
    L = res.layers
    L["rgp.kept"], L["rgp.quarantined"], L["rgp.kept_ratio"] = report.kept, report.quarantined, report.kept / n_qa
    L["augment.pairs"], L["augment.collision_dropped"] = aug.pairs, aug.collision_dropped
    res.counts.update({"qa_items": n_qa, "instances": len(instances), "pairs": aug.pairs,
                       "mean_loss": p["mean_loss"]})
    for name in ("instances", "train", "logprobs"):
        res.digests[name] = _digest(p["out"] / f"{name}.jsonl")

    res.check("error_ratio is 0", report.quarantined == 0, f"{report.quarantined} quarantined")
    sources = {inst.positive_source for inst in instances}
    res.check("both positive sources occur", sources == {"internal", "retrieval"}, f"sources {sorted(sources)}")
    kept_ratio, paper_kept = len(instances) / n_qa, PAPER_INSTANCES / PAPER_QA
    res.check("kept share near the paper's 3,756 of 11,756", abs(kept_ratio / paper_kept - 1) <= RATIO_TOLERANCE,
              f"{len(instances)} of {n_qa} = {kept_ratio:.4f}, paper {paper_kept:.4f}")
    per_instance, paper_per = aug.pairs / len(instances), PAPER_PAIRS / PAPER_INSTANCES
    res.check("pairs per instance near the paper's 21,928 of 3,756", abs(per_instance / paper_per - 1) <= RATIO_TOLERANCE,
              f"{aug.pairs} of {len(instances)} = {per_instance:.4f}, paper {paper_per:.4f}")
    res.check("mean loss is finite", math.isfinite(p["mean_loss"]))
    bm25_oracle(res, ctx, op)
    _finish(res, ctx, tracer)
    return res


WORKLOADS = {"answer": run_answer, "prefdata": run_prefdata, "answer-http": run_answer_http}
