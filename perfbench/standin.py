"""The model stand-in: one reply function, served in-process or over HTTP.

`reply(seed, prompt)` derives every decision from a hash of (seed, prompt),
so a call costs time linear in the prompt and nothing else. It reads the
question's topic word `t<n>a` and knows the gold answer `g<n>`:

- memory-only prompt: correct when `knows(seed, question)`, which holds for
  a share P_MEMORY of questions, else a wrong token;
- passage prompt: correct exactly when `g<n>` is among the shown passages,
  so retrieval quality flows into the answers;
- select prompt: restates candidate 1, candidate 2 or neither. It prefers
  the correct candidate with probability P_PICK_CORRECT.

A share P_UNPARSEABLE of all replies carries no "Answer:" marker.

    python3 perfbench/standin.py --seed 1

serves the same replies as an OpenAI-style chat endpoint on a loopback port,
printing `PORT <n>` once it listens. Each request waits a fixed service
delay of DELAY_MS, and at most `nproc` requests are served at once.
`GET /hits` returns the number of chat requests served so far and the
server's CPU seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

P_MEMORY = 0.70
P_UNPARSEABLE = 0.02
P_NEITHER = 0.03
P_PICK_CORRECT = 0.8
DELAY_MS = 5.0

_TOPIC_RE = re.compile(r"\bt(\d+)a\b")
_SCALE = float(1 << 64)


def _question_of(prompt: str) -> str:
    start = prompt.find("Question: ")
    if start < 0:
        return ""
    end = prompt.find("\n", start)
    return prompt[start + 10 : end if end >= 0 else len(prompt)]


def _unit(*parts) -> float:
    digest = hashlib.blake2b("\n".join(map(str, parts)).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / _SCALE


def knows(seed: int, question: str) -> bool:
    """Whether the stand-in answers this question right from memory."""
    return _unit(seed, "memory", question) < P_MEMORY


def _answer_of(candidate: str) -> tuple[str, str]:
    """(explanation, answer) of one rendered candidate block."""
    expl, _, answer = candidate.rpartition("Answer:")
    return expl.replace("Explanation:", "", 1).strip(), answer.strip()


def reply(seed: int, prompt: str) -> str:
    digest = hashlib.blake2b(f"{seed}\n{prompt}".encode("utf-8"), digest_size=16).digest()
    u = int.from_bytes(digest[:8], "big") / _SCALE
    v = int.from_bytes(digest[8:], "big") / _SCALE
    wrong = "x" + digest[8:12].hex()
    if u < P_UNPARSEABLE:
        return "I would rather not say."
    question = _question_of(prompt)
    match = _TOPIC_RE.search(question)
    gold = f"g{match.group(1)}" if match else None

    if prompt.startswith("Two candidate responses"):
        first = prompt.find("Candidate 1:\n")
        second = prompt.find("Candidate 2:\n")
        candidates = [_answer_of(prompt[first + 13 : second]), _answer_of(prompt[second + 13 :])]
        if v < P_NEITHER:
            return f"Explanation: neither convinces\nAnswer: {wrong}"
        right = [i for i, (_e, a) in enumerate(candidates) if a == gold]
        coin = (v - P_NEITHER) / (1.0 - P_NEITHER)
        if len(right) == 1:
            pick = right[0] if coin < P_PICK_CORRECT else 1 - right[0]
        else:
            pick = 0 if coin < 0.5 else 1
        expl, answer = candidates[pick]
        return f"Explanation: {expl}\nAnswer: {answer}"

    if prompt.startswith("Answer the question using the passages"):
        start = prompt.find("Passages:\n")
        end = prompt.rfind("\n\nQuestion: ")
        shown = " " + prompt[start:end].replace("\n", " ") + " "
        if gold is not None and f" {gold} " in shown:
            return f"Explanation: a passage states it\nAnswer: {gold}"
        return f"Explanation: the passages do not say\nAnswer: {wrong}"

    if gold is not None and knows(seed, question):
        return f"Explanation: recalled from memory\nAnswer: {gold}"
    return f"Explanation: a guess from memory\nAnswer: {wrong}"


class StandIn:
    """In-process backend over `reply`."""

    tag = "standin"

    def __init__(self, seed: int):
        self.seed = seed

    def complete(self, request) -> str:
        return reply(self.seed, request.user_prompt)


class _PoolServer(HTTPServer):
    """HTTP server that handles connections on a fixed pool of threads."""

    def __init__(self, address, handler, threads: int):
        super().__init__(address, handler)
        self._pool = ThreadPoolExecutor(max_workers=threads)

    def process_request(self, request, client_address):
        self._pool.submit(self._serve_one, request, client_address)

    def _serve_one(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


def serve(seed: int) -> None:
    hits = [0]
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            with lock:
                hits[0] += 1
            text = reply(seed, body["messages"][-1]["content"])
            time.sleep(DELAY_MS / 1000.0)
            self._send({"choices": [{"message": {"content": text}}]})

        def do_GET(self):
            with lock:
                count = hits[0]
            self._send({"hits": count, "cpu_s": time.process_time()})

        def _send(self, obj: dict) -> None:
            data = json.dumps(obj).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = _PoolServer(("127.0.0.1", 0), Handler, len(os.sched_getaffinity(0)))
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever(poll_interval=0.05)


def main() -> None:
    parser = argparse.ArgumentParser(description="Serve the stand-in over loopback HTTP.")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    try:
        serve(args.seed)
    except KeyboardInterrupt:
        sys.exit(0)


if __name__ == "__main__":
    main()
