"""The one HTTP transport, `HttpBackend`'s own POST, as a caller sees it:
retries, fail-fast statuses, bearer auth, malformed payloads and broken
connections, injected through the loopback StubServer."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ragsel
from conftest import chat_body
from ragsel.llm import GenRequest, HttpBackend, StatusError, TransportError

TOKEN_ENV = "RAGSEL_TEST_API_TOKEN"


class _TopOfRange:
    """A jitter source whose every draw is the top of its range."""

    def uniform(self, low, high):
        return high


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff waits, recorded instead of slept, with every jitter draw at the
    top of its range: retry n waits the longer of 0.25 * 2**(n - 1) and
    Retry-After. `TestFullJitter` covers the draws themselves."""
    slept = []
    monkeypatch.setattr("ragsel.llm.time.sleep", slept.append)
    monkeypatch.setattr("ragsel.llm._JITTER", _TopOfRange())
    return slept


@pytest.fixture
def jittered(monkeypatch):
    """Backoff waits, recorded instead of slept, drawn from a seeded source."""
    slept = []
    monkeypatch.setattr("ragsel.llm.time.sleep", slept.append)
    monkeypatch.setattr("ragsel.llm._JITTER", random.Random(7))
    return slept


def _ask(url, **kw):
    return HttpBackend(url, "m", **kw).complete(GenRequest(user_prompt="q"))


class TestDefaultRetries:
    def test_503_then_200_succeeds_on_the_second_hit(self, http_stub, sleeps):
        http_stub.enqueue(503, {})
        http_stub.enqueue(200, chat_body("after one retry"))
        assert _ask(http_stub.url) == "after one retry"
        assert http_stub.hits == 2
        assert sleeps == [0.25]

    def test_404_fails_fast(self, http_stub, sleeps):
        http_stub.enqueue(404, {})
        with pytest.raises(StatusError, match="HTTP 404"):
            _ask(http_stub.url)
        assert http_stub.hits == 1
        assert sleeps == []

    def test_retries_exhausted_with_the_default_policy(self, http_stub, sleeps):
        http_stub.enqueue(500, {})
        with pytest.raises(StatusError, match="HTTP 500 after 4 attempt"):
            _ask(http_stub.url)
        assert http_stub.hits == 4
        assert sleeps == [0.25, 0.5, 1.0]


class TestFullJitter:
    def test_each_wait_is_drawn_from_zero_to_its_cap(self, http_stub, jittered):
        http_stub.enqueue(500, {})
        with pytest.raises(StatusError, match="HTTP 500 after 9 attempt"):
            _ask(http_stub.url, max_retries=8, backoff_base=0.5)
        assert http_stub.hits == 9
        caps = [0.5 * 2 ** n for n in range(8)]
        assert len(jittered) == len(caps)
        assert all(0.0 <= wait <= cap for wait, cap in zip(jittered, caps))
        assert all(wait < cap for wait, cap in zip(jittered, caps))  # a draw, not the cap

    @pytest.mark.parametrize("retry_after, floor", [("3", 3.0), ("0", 0.0)])
    def test_retry_after_is_a_floor_under_the_draw(self, http_stub, jittered, retry_after, floor):
        http_stub.enqueue_raw(
            f"HTTP/1.0 429 Busy\r\nRetry-After: {retry_after}\r\nContent-Length: 0\r\n\r\n".encode()
        )
        http_stub.enqueue(503, {})
        http_stub.enqueue(200, chat_body("done"))
        assert _ask(http_stub.url) == "done"
        assert http_stub.hits == 3
        first, second = jittered
        assert floor <= first <= max(floor, 0.25)
        assert 0.0 <= second <= 0.5

    def test_two_processes_draw_different_waits(self):
        src = Path(ragsel.__file__).resolve().parents[1]
        draw = [sys.executable, "-c", "import ragsel.llm as llm; print(llm._JITTER.uniform(0.0, 1.0))"]
        first, second = (
            subprocess.run(draw, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                           timeout=60, check=True).stdout
            for _ in range(2)
        )
        assert first != second


def test_chat_reply_that_is_not_json_is_a_status_error(http_stub):
    http_stub.enqueue(200, b"<html>not json</html>")
    with pytest.raises(StatusError, match="not JSON") as excinfo:
        HttpBackend(http_stub.url, "m").complete(GenRequest(user_prompt="q"))
    assert excinfo.value.status == 200
    assert http_stub.hits == 1


def _call_chat(url):
    HttpBackend(url, "m", api_key_env=TOKEN_ENV).complete(GenRequest(user_prompt="q"))


def _reply(path, payload):
    return 200, chat_body("ok")


@pytest.mark.parametrize("call", [_call_chat], ids=["chat"])
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
