"""Shared fixtures: a loopback HTTP stub for chat/embedding endpoints and
small corpus builders."""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ragsel import corpus as corpus_mod


class StubServer:
    """Local HTTP server that replays queued responses or calls a handler.

    Every POST body is recorded in `requests` and its headers, with lowercased
    names, in `headers`; `hits` counts network calls. Queued responses are
    consumed in order and the last one repeats. A bytes body is sent as is,
    anything else as JSON. A raw reply (`enqueue_raw`) is written to the
    socket verbatim, after an optional delay, and the connection is closed.
    """

    def __init__(self):
        self.requests: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self.hits = 0
        # (status, body, delay); status None marks a raw reply.
        self._queue: list[tuple[int | None, dict | list | bytes, float]] = []
        self._dynamic = None
        self._lock = threading.Lock()
        self._closing = threading.Event()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.hits += 1
                    stub.requests.append(payload)
                    stub.headers.append({k.lower(): v for k, v in self.headers.items()})
                    delay = 0.0
                    if stub._dynamic is not None:
                        status, body = stub._dynamic(self.path, payload)
                    elif stub._queue:
                        status, body, delay = stub._queue.pop(0) if len(stub._queue) > 1 else stub._queue[0]
                    else:
                        status, body = 200, {}
                # close() cuts a delay short, so no handler outlives its test by long.
                stub._closing.wait(delay)
                if status is None:
                    # The client may have timed out and gone already.
                    with contextlib.suppress(OSError):
                        self.wfile.write(body)
                    return
                data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def enqueue(self, status: int, body: dict | list | bytes) -> None:
        self._queue.append((status, body, 0.0))

    def enqueue_raw(self, reply: bytes, delay: float = 0.0) -> None:
        self._queue.append((None, reply, delay))

    def set_handler(self, fn) -> None:
        self._dynamic = fn

    def close(self) -> None:
        self._closing.set()
        self._server.shutdown()
        self._server.server_close()


def chat_body(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture
def http_stub():
    stub = StubServer()
    yield stub
    stub.close()


@pytest.fixture
def tiny_corpus(tmp_path):
    """Three fruit documents, the classic hand-checkable BM25 fixture."""
    records = [
        {"id": "doc0", "text": "apple apple pie"},
        {"id": "doc1", "text": "apple tart"},
        {"id": "doc2", "text": "banana bread"},
    ]
    return corpus_mod.ingest(records, tmp_path / "tiny_corpus")


def make_corpus(tmp_path, records, name="corpus"):
    return corpus_mod.ingest(records, tmp_path / name)
