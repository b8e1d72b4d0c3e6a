"""The one HTTP transport (`llm._post_json`) as both clients see it: retries,
fail-fast statuses, bearer auth and malformed payloads, injected through the
loopback StubServer."""

import pytest

from conftest import chat_body
from ragsel.llm import GenRequest, HttpBackend, StatusError
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
