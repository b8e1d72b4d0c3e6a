"""The one HTTP transport (`llm._post_json`) as both clients see it: retries,
fail-fast statuses, bearer auth, malformed payloads and broken connections,
injected through the loopback StubServer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ragsel
from conftest import chat_body
from ragsel.llm import GenRequest, HttpBackend, StatusError, TransportError
from ragsel.retrieval import EmbeddingBackendError, EmbeddingClient

TOKEN_ENV = "RAGSEL_TEST_API_TOKEN"


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff waits, recorded instead of slept."""
    slept = []
    monkeypatch.setattr("ragsel.llm.time.sleep", slept.append)
    return slept


class TestEmbeddingRetries:
    def test_503_then_200_succeeds_on_the_second_hit(self, http_stub, sleeps):
        http_stub.enqueue(503, {})
        http_stub.enqueue(200, {"embeddings": [[1.0, 2.0]]})
        assert EmbeddingClient(http_stub.url).embed(["a"]) == [[1.0, 2.0]]
        assert http_stub.hits == 2
        assert sleeps == [0.25]

    def test_404_fails_fast(self, http_stub, sleeps):
        http_stub.enqueue(404, {})
        with pytest.raises(EmbeddingBackendError, match="HTTP 404"):
            EmbeddingClient(http_stub.url).embed(["a"])
        assert http_stub.hits == 1
        assert sleeps == []

    def test_retries_exhausted_with_the_default_policy(self, http_stub, sleeps):
        http_stub.enqueue(500, {})
        with pytest.raises(EmbeddingBackendError, match="HTTP 500 after 4 attempt"):
            EmbeddingClient(http_stub.url).embed(["a"])
        assert http_stub.hits == 4
        assert sleeps == [0.25, 0.5, 1.0]


@pytest.mark.parametrize(
    "body",
    [
        b"<html>not json</html>",
        [[1.0, 2.0]],
        "just a string",
        {},
        {"embeddings": None},
        {"embeddings": "1.0"},
        {"embeddings": [None]},
        {"embeddings": [["x"]]},
        {"embeddings": [["1.5"]]},
        {"embeddings": [[None]]},
        {"embeddings": [[True]]},
        {"embeddings": [{"0": 1.0}]},
        {"embeddings": [[1.0], [2.0]]},
        b'{"embeddings": [[NaN, Infinity]]}',
        b'{"embeddings": [[1' + b"0" * 400 + b"]]}",
    ],
    ids=repr,
)
def test_malformed_embedding_payload_is_an_embedding_error(http_stub, body):
    http_stub.enqueue(200, body)
    with pytest.raises(EmbeddingBackendError):
        EmbeddingClient(http_stub.url).embed(["only one input"])
    assert http_stub.hits == 1


def test_chat_reply_that_is_not_json_is_a_status_error(http_stub):
    http_stub.enqueue(200, b"<html>not json</html>")
    with pytest.raises(StatusError, match="not JSON") as excinfo:
        HttpBackend(http_stub.url, "m").complete(GenRequest(user_prompt="q"))
    assert excinfo.value.status == 200
    assert http_stub.hits == 1


def _call_chat(url):
    HttpBackend(url, "m", api_key_env=TOKEN_ENV).complete(GenRequest(user_prompt="q"))


def _call_embeddings(url):
    EmbeddingClient(url, api_key_env=TOKEN_ENV).embed(["q"])


def _reply(path, payload):
    if "input" in payload:
        return 200, {"embeddings": [[1.0] for _ in payload["input"]]}
    return 200, chat_body("ok")


@pytest.mark.parametrize("call", [_call_chat, _call_embeddings], ids=["chat", "embeddings"])
class TestBearerAuth:
    def test_token_is_sent_when_the_variable_is_set(self, http_stub, monkeypatch, call):
        monkeypatch.setenv(TOKEN_ENV, "s3cret")
        http_stub.set_handler(_reply)
        call(http_stub.url)
        assert http_stub.headers[-1]["authorization"] == "Bearer s3cret"
        assert http_stub.headers[-1]["content-type"] == "application/json"

    def test_no_header_when_the_variable_is_unset(self, http_stub, monkeypatch, call):
        monkeypatch.delenv(TOKEN_ENV, raising=False)
        http_stub.set_handler(_reply)
        call(http_stub.url)
        assert "authorization" not in http_stub.headers[-1]


def _ask(url, **kw):
    return HttpBackend(url, "m", **kw).complete(GenRequest(user_prompt="q"))


class TestRetryAfter:
    @pytest.mark.parametrize(
        "status, retry_after, waited",
        [
            (429, "3", 3.0),
            (503, "2", 2.0),
            (429, "0", 0.25),  # shorter than the backoff
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # a date is not read
            (429, "1.5", 0.25),  # nor a fraction
            (500, "3", 0.25),  # only 429 and 503 are read
        ],
    )
    def test_wait_is_the_longer_of_retry_after_and_the_backoff(
        self, http_stub, sleeps, status, retry_after, waited
    ):
        http_stub.enqueue_raw(
            f"HTTP/1.0 {status} Busy\r\nRetry-After: {retry_after}\r\nContent-Length: 0\r\n\r\n".encode()
        )
        http_stub.enqueue(200, chat_body("after the wait"))
        assert _ask(http_stub.url) == "after the wait"
        assert http_stub.hits == 2
        assert sleeps == [waited]

    def test_a_later_reply_without_the_header_waits_the_backoff(self, http_stub, sleeps):
        http_stub.enqueue_raw(b"HTTP/1.0 429 Busy\r\nRetry-After: 5\r\nContent-Length: 0\r\n\r\n")
        http_stub.enqueue(503, {})
        http_stub.enqueue(200, chat_body("done"))
        assert _ask(http_stub.url) == "done"
        assert sleeps == [5.0, 0.5]


class TestBrokenConnections:
    def test_connection_closed_without_a_reply_is_retried(self, http_stub, sleeps):
        http_stub.enqueue_raw(b"")
        http_stub.enqueue(200, chat_body("after the drop"))
        assert _ask(http_stub.url) == "after the drop"
        assert http_stub.hits == 2
        assert sleeps == [0.25]

    def test_reply_slower_than_the_timeout_exhausts_the_retries(self, http_stub, sleeps):
        http_stub.enqueue_raw(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}", delay=2.0)
        with pytest.raises(TransportError, match="timed out") as excinfo:
            _ask(http_stub.url, max_retries=1, timeout=0.1)
        assert excinfo.value.attempts == 2
        assert http_stub.hits == 2
        assert sleeps == [0.25]

    def test_body_shorter_than_its_content_length_is_a_retried_transport_failure(self, http_stub, sleeps):
        http_stub.enqueue_raw(b"HTTP/1.0 200 OK\r\nContent-Length: 99\r\n\r\n{}")
        with pytest.raises(TransportError, match="IncompleteRead") as excinfo:
            _ask(http_stub.url, max_retries=1)
        assert excinfo.value.attempts == 2
        assert http_stub.hits == 2
        assert sleeps == [0.25]


def test_redirect_is_not_followed(http_stub, sleeps):
    http_stub.enqueue_raw(
        f"HTTP/1.0 302 Found\r\nLocation: {http_stub.url}\r\nContent-Length: 0\r\n\r\n".encode()
    )
    with pytest.raises(StatusError, match="HTTP 302 from") as excinfo:
        _ask(http_stub.url)
    assert excinfo.value.status == 302
    assert http_stub.hits == 1
    assert sleeps == []


@pytest.mark.parametrize("scheme", ["file", "data", "ftp"])
def test_only_http_and_https_urls_are_opened(tmp_path, sleeps, scheme):
    leaked = json.dumps(chat_body("read from the URL"))
    (tmp_path / "reply.json").write_text(leaked, encoding="utf-8")
    url = {
        "file": (tmp_path / "reply.json").as_uri(),
        "data": "data:application/json," + leaked,
        "ftp": "ftp://127.0.0.1:1/reply.json",
    }[scheme]
    with pytest.raises(TransportError, match="not http or https") as excinfo:
        _ask(url)
    assert excinfo.value.attempts == 1
    assert sleeps == []
    with pytest.raises(EmbeddingBackendError, match="not http or https"):
        EmbeddingClient(url).embed(["q"])


def test_malformed_url_fails_at_once(sleeps):
    with pytest.raises(TransportError, match="malformed URL") as excinfo:
        _ask("http://[::1/v1/chat/completions")
    assert excinfo.value.attempts == 1
    assert sleeps == []


def test_the_cli_does_not_import_requests():
    src = Path(ragsel.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import ragsel.cli, sys; print('requests' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
