"""Shared fixtures: a loopback HTTP stub for chat/embedding endpoints and
small corpus builders."""

from __future__ import annotations

import contextlib
import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ragsel import corpus as corpus_mod
from ragsel import data


class StubServer:
    """Local HTTP server that replays queued responses or calls a handler.

    Every POST body is recorded in `requests` and its headers, with lowercased
    names, in `headers`; `hits` counts network calls, and `peak_in_flight` is
    the most requests it has held unanswered at once. Queued responses are
    consumed in order and the last one repeats. A bytes body is sent as is,
    anything else as JSON. A raw reply (`enqueue_raw`) is written to the
    socket verbatim, after an optional delay, and the connection is closed.
    Each reply of a handler (`set_handler`) waits its delay, outside the lock
    that serialises the handler's calls.
    """

    def __init__(self):
        self.requests: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self.hits = 0
        self.peak_in_flight = 0
        self._in_flight = 0
        # (status, body, delay); status None marks a raw reply.
        self._queue: list[tuple[int | None, dict | list | bytes, float]] = []
        self._dynamic = None
        self._dynamic_delay = 0.0
        self._lock = threading.Lock()
        self._closing = threading.Event()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.hits += 1
                    stub._in_flight += 1
                    stub.peak_in_flight = max(stub.peak_in_flight, stub._in_flight)
                    stub.requests.append(payload)
                    stub.headers.append({k.lower(): v for k, v in self.headers.items()})
                    delay = 0.0
                    if stub._dynamic is not None:
                        status, body = stub._dynamic(self.path, payload)
                        delay = stub._dynamic_delay
                    elif stub._queue:
                        status, body, delay = stub._queue.pop(0) if len(stub._queue) > 1 else stub._queue[0]
                    else:
                        status, body = 200, {}
                # close() cuts a delay short, so no handler outlives its test by long.
                stub._closing.wait(delay)
                # Counted out before the reply, so that a request sent after
                # it never reads as overlapping it.
                with stub._lock:
                    stub._in_flight -= 1
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

    def set_handler(self, fn, delay: float = 0.0) -> None:
        self._dynamic = fn
        self._dynamic_delay = delay

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


class _DiskFullMidWrite:
    """A file whose first write stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def disk_full_on_write(monkeypatch):
    """Every file `ragsel.data` opens for writing fails partway through its
    first write; files opened for reading are untouched."""
    real_open = open

    def disk_full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return fh if "r" in mode else _DiskFullMidWrite(fh)

    monkeypatch.setattr(data, "open", disk_full_open, raising=False)
