import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chat_body
from ragsel import llm
from ragsel.llm import (
    CachedBackend,
    GatewayError,
    GenRequest,
    HttpBackend,
    ScriptMissError,
    ScriptedBackend,
    StatusError,
    TransportError,
    fingerprint,
    generate,
)


class TestScriptedBackend:
    def test_table_lookup(self):
        backend = ScriptedBackend({"q1": "Explanation: E. Answer: A"})
        response = generate(backend, GenRequest(user_prompt="please answer q1 now"))
        assert response.text == "Explanation: E. Answer: A"
        assert response.backend_tag == "scripted"

    def test_unknown_key_is_a_miss(self):
        backend = ScriptedBackend({"q1": "reply"})
        with pytest.raises(ScriptMissError) as excinfo:
            backend.complete(GenRequest(user_prompt="something else entirely"))
        assert "something else entirely" in str(excinfo.value)

    def test_exact_prompt_match_wins(self):
        backend = ScriptedBackend({"q1": "fragment reply", "about q1 exactly": "exact reply"})
        assert backend.complete(GenRequest(user_prompt="About  q1   exactly")) == "exact reply"

    def test_most_specific_fragment_match_wins(self):
        backend = ScriptedBackend(
            {"alpha": "generic", "alpha&&beta": "specific"}
        )
        assert backend.complete(GenRequest(user_prompt="alpha and beta here")) == "specific"
        assert backend.complete(GenRequest(user_prompt="alpha alone")) == "generic"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(Exception, match="duplicate"):
            ScriptedBackend([{"match_key": "k", "reply": "a"}, {"match_key": "K", "reply": "b"}])

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps({"match_key": "hello", "reply": "world"}) + "\n")
        backend = ScriptedBackend.from_jsonl(path)
        assert backend.complete(GenRequest(user_prompt="hello there")) == "world"

    def test_from_jsonl_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "script.jsonl"
        rows = [{"match_key": "hello", "reply": "a"}, {"match_key": "hello", "reply": "b"}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(GatewayError, match="duplicate match_key"):
            ScriptedBackend.from_jsonl(path)

    def test_same_stream_same_replies(self):
        script = {"a": "ra", "b": "rb"}
        stream = [GenRequest(user_prompt=p) for p in ("a one", "b two", "a three")]
        first = [ScriptedBackend(script).complete(r) for r in stream]
        second = [ScriptedBackend(script).complete(r) for r in stream]
        assert first == second == ["ra", "rb", "ra"]


class TestFingerprint:
    def test_identical_requests_equal(self):
        a = GenRequest(user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=7, seed=3)
        b = GenRequest(user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=7, seed=3)
        assert fingerprint(a) == fingerprint(b)

    def test_known_value_stable_across_processes(self):
        # Frozen digest: content-addressed, so it must never drift between
        # runs, machines, or hash seeds.
        req = GenRequest(
            user_prompt="stable probe", system_prompt="sys", temperature=0.0, max_tokens=64, seed=7
        )
        assert fingerprint(req) == (
            "96086b132cb26b50f727e2fb55876fd6bd240b6700bcd9833702ab195a7aed84"
        )

    @settings(max_examples=50, deadline=None)
    @given(
        prompt=st.text(min_size=0, max_size=40),
        other=st.text(min_size=0, max_size=40),
    )
    def test_distinct_prompts_distinct_fingerprints(self, prompt, other):
        a = fingerprint(GenRequest(user_prompt=prompt))
        b = fingerprint(GenRequest(user_prompt=other))
        assert (a == b) == (prompt == other)

    def test_field_changes_change_fingerprint(self):
        base = GenRequest(user_prompt="p", max_tokens=10)
        assert fingerprint(base) != fingerprint(GenRequest(user_prompt="p!", max_tokens=10))
        assert fingerprint(base) != fingerprint(GenRequest(user_prompt="p", max_tokens=11))
        assert fingerprint(base) != fingerprint(GenRequest(user_prompt="p", max_tokens=10, seed=1))


class TestGenRequestValidation:
    def test_bad_max_tokens(self):
        with pytest.raises(ValueError):
            GenRequest(user_prompt="p", max_tokens=0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            GenRequest(user_prompt="p", temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            GenRequest(user_prompt="p", temperature=temperature)


class TestHttpBackend:
    def _backend(self, url, **kw):
        kw.setdefault("backoff_base", 0.0)
        return HttpBackend(endpoint_url=url, model_name="test-model", **kw)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_an_in_flight_cap_below_one(self, cap):
        # A zero-slot semaphore would block the first request forever.
        with pytest.raises(ValueError, match="max_in_flight must be >= 1"):
            self._backend("http://127.0.0.1:1/v1", max_in_flight=cap)

    def test_returns_stub_body(self, http_stub):
        http_stub.enqueue(200, chat_body("hello from the stub"))
        backend = self._backend(http_stub.url)
        response = generate(backend, GenRequest(user_prompt="hi", system_prompt="sys"))
        assert response.text == "hello from the stub"
        assert response.backend_tag == "http:test-model"
        sent = http_stub.requests[0]
        assert sent["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "hi"},
        ]
        assert sent["model"] == "test-model"

    def test_retries_transient_then_succeeds(self, http_stub):
        http_stub.enqueue(500, {})
        http_stub.enqueue(503, {})
        http_stub.enqueue(200, chat_body("eventually"))
        backend = self._backend(http_stub.url, max_retries=3)
        assert backend.complete(GenRequest(user_prompt="q")) == "eventually"
        assert http_stub.hits == 3

    def test_retries_exhausted_gives_status_error(self, http_stub):
        http_stub.enqueue(500, {})
        backend = self._backend(http_stub.url, max_retries=2)
        with pytest.raises(StatusError) as excinfo:
            backend.complete(GenRequest(user_prompt="q"))
        assert excinfo.value.status == 500
        assert http_stub.hits == 3  # initial try + 2 retries

    def test_non_retryable_status_fails_fast(self, http_stub):
        http_stub.enqueue(404, {})
        backend = self._backend(http_stub.url, max_retries=5)
        with pytest.raises(StatusError):
            backend.complete(GenRequest(user_prompt="q"))
        assert http_stub.hits == 1

    def test_transport_error_counts_attempts(self):
        backend = self._backend("http://127.0.0.1:1/nothing", max_retries=1, timeout=0.2)
        with pytest.raises(TransportError) as excinfo:
            backend.complete(GenRequest(user_prompt="q"))
        assert excinfo.value.attempts == 2

    def test_malformed_payload_is_status_error(self, http_stub):
        http_stub.enqueue(200, {"unexpected": "shape"})
        backend = self._backend(http_stub.url)
        with pytest.raises(StatusError, match="malformed"):
            backend.complete(GenRequest(user_prompt="q"))


class TestCachedBackend:
    def test_second_call_hits_disk_not_network(self, http_stub, tmp_path):
        http_stub.enqueue(200, chat_body("cached text é"))
        backend = CachedBackend(
            HttpBackend(http_stub.url, model_name="m", backoff_base=0.0), tmp_path / "cache"
        )
        request = GenRequest(user_prompt="the prompt")
        first = backend.complete(request)
        assert http_stub.hits == 1
        second = backend.complete(request)
        assert http_stub.hits == 1  # zero further network calls
        assert second == first
        assert second.encode("utf-8") == first.encode("utf-8")

    def test_different_requests_do_not_collide(self, http_stub, tmp_path):
        http_stub.enqueue(200, chat_body("reply one"))
        http_stub.enqueue(200, chat_body("reply two"))
        backend = CachedBackend(
            HttpBackend(http_stub.url, model_name="m", backoff_base=0.0), tmp_path / "cache"
        )
        assert backend.complete(GenRequest(user_prompt="a")) == "reply one"
        assert backend.complete(GenRequest(user_prompt="b")) == "reply two"
        assert http_stub.hits == 2

    def test_forwards_the_inner_in_flight_cap(self, tmp_path):
        http = HttpBackend("http://127.0.0.1:1/v1", model_name="m", max_in_flight=3)
        assert CachedBackend(http, tmp_path / "a").max_in_flight == 3
        assert CachedBackend(ScriptedBackend({}), tmp_path / "b").max_in_flight == 1
        assert llm.in_flight_cap(ScriptedBackend({})) == 1

    def test_cache_works_over_scripted_backend_too(self, tmp_path):
        backend = CachedBackend(ScriptedBackend({"q": "r"}), tmp_path / "cache")
        assert backend.complete(GenRequest(user_prompt="q one")) == "r"
        assert backend.complete(GenRequest(user_prompt="q one")) == "r"

    def test_write_failing_partway_leaves_no_entry(self, tmp_path, monkeypatch, disk_full_on_write):
        cache = tmp_path / "cache"
        backend = CachedBackend(ScriptedBackend({"q": "a long reply " * 100}), cache)
        request = GenRequest(user_prompt="q one")
        with pytest.raises(OSError, match="No space left"):
            backend.complete(request)
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        assert backend.complete(request) == "a long reply " * 100
        assert [p.name for p in cache.iterdir()] == [f"{fingerprint(request)}.txt"]
