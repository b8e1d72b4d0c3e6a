"""Generation backends behind one interface: an OpenAI-style chat HTTP
endpoint for real runs, a scripted table for tests and offline runs, and a
disk replay cache keyed by request fingerprint. `_post_json` is the one HTTP
transport, on the standard library's `urllib.request`; the chat backend is
its one client.

Every failure maps to exactly one of:
- TransportError: no HTTP status came back. A refused or dropped connection,
  a timeout or a truncated reply is retried, and raised once retries are
  exhausted. A URL whose scheme is not http or https is raised at once,
  before anything is opened.
- StatusError: an HTTP status other than 200, a reply that is not JSON, or a
  malformed completion payload. 429 and 5xx are retried first, a 429 or 503
  no sooner than its `Retry-After` seconds; every other status fails at
  once, a 3xx too, because no redirect is followed.
- ScriptMissError: the scripted backend has no matching key.
Parsing of the completion text is the caller's problem, by design.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import http.client
import json
import math
import os
import random
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from email.message import Message
from pathlib import Path
from typing import Iterable, Protocol

from .data import read_records, write_atomic
from .errors import RagselError


class GatewayError(RagselError):
    pass


class TransportError(GatewayError):
    def __init__(self, attempts: int, cause: str):
        super().__init__(f"transport failure after {attempts} attempt(s): {cause}")
        self.attempts = attempts


class StatusError(GatewayError):
    def __init__(self, status: int | None, detail: str):
        super().__init__(detail)
        self.status = status


class ScriptMissError(GatewayError):
    def __init__(self, key: str):
        super().__init__(f"scripted backend has no reply for key: {key!r}")
        self.key = key


@dataclass(frozen=True)
class GenRequest:
    user_prompt: str
    system_prompt: str = ""
    temperature: float = 0.0
    max_tokens: int = 512
    seed: int | None = None

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")


def fingerprint(request: GenRequest) -> str:
    """Content hash of the request; equal requests hash equal across processes."""
    payload = json.dumps(
        {
            "system_prompt": request.system_prompt,
            "user_prompt": request.user_prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "seed": request.seed,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    tag: str

    def complete(self, request: GenRequest) -> str: ...


def in_flight_cap(backend: Backend) -> int:
    """How many requests the backend takes at once: its `max_in_flight`, or
    1 for a backend that declares none, as every in-process one does."""
    return getattr(backend, "max_in_flight", 1)


def _normalize_key(text: str) -> str:
    return " ".join(text.lower().split())


def _script_row(row: dict) -> dict:
    if not isinstance(row["match_key"], str) or not isinstance(row["reply"], str):
        raise TypeError("match_key and reply must be strings")
    return row


class ScriptedBackend:
    """Deterministic table lookup standing in for a real model.

    A behavior's match_key is one or more "&&"-separated fragments. A request
    matches a behavior when every fragment occurs in the normalized prompt
    (lowercased, whitespace collapsed). An exact whole-prompt key wins
    outright; otherwise the most specific match does (most fragments, then
    longest total fragment length). Composite keys let a script key on the
    query alone or on query+context content, independent of position.
    """

    tag = "scripted"

    def __init__(self, behaviors: dict[str, str] | Iterable[dict]):
        if isinstance(behaviors, dict):
            items = behaviors.items()
        else:
            items = [(row["match_key"], row["reply"]) for row in behaviors]
        self._exact: dict[str, str] = {}
        self._fragments: list[tuple[tuple[str, ...], str, str]] = []
        seen: set[str] = set()
        for key, reply in items:
            norm = _normalize_key(key)
            if norm in seen:
                raise GatewayError(f"duplicate match_key {key!r} in script")
            seen.add(norm)
            self._exact[norm] = reply
            parts = tuple(_normalize_key(p) for p in key.split("&&") if p.strip())
            if not parts:
                raise GatewayError("match_key must contain at least one fragment")
            self._fragments.append((parts, norm, reply))

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        return cls(read_records(path, _script_row))

    def complete(self, request: GenRequest) -> str:
        hay = _normalize_key(request.user_prompt)
        if hay in self._exact:
            return self._exact[hay]
        best: tuple[int, int, str] | None = None
        best_reply = None
        for parts, norm, reply in self._fragments:
            if all(p in hay for p in parts):
                rank = (len(parts), sum(len(p) for p in parts), norm)
                if best is None or rank > best:
                    best = rank
                    best_reply = reply
        if best_reply is None:
            raise ScriptMissError(hay)
        return best_reply


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
_RETRY_AFTER_STATUSES = {429, 503}
_DELAY_SECONDS = re.compile(r"[0-9]+")
# Backoff jitter: unseeded, so processes that fail together do not retry together.
_JITTER = random.Random()


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    """`urlopen`'s handlers for http and https, without the redirect handler,
    so a 3xx is an error status, and without the file, ftp and data
    handlers. Proxy variables are read on first use, as `urlopen` does."""
    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.UnknownHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


def _send(request: urllib.request.Request, timeout: float) -> tuple[int, bytes, Message]:
    """One POST: its status, whole body and headers. The body of an error
    status is discarded unread."""
    try:
        with _opener().open(request, timeout=timeout) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b"", exc.headers


def _retry_after(headers: Message) -> float:
    """The wait a `Retry-After: <seconds>` header asks for; 0 when the header
    is absent or holds anything else, such as an HTTP date."""
    value = (headers.get("Retry-After") or "").strip()
    return float(value) if _DELAY_SECONDS.fullmatch(value) else 0.0


def _post_json(url: str, body: dict, *, api_key_env: str | None = None, max_retries: int = 3,
               backoff_base: float = 0.25, timeout: float = 60.0, slots: threading.Semaphore | None = None):
    """POST `body` as JSON and return the decoded JSON reply: the one HTTP
    transport, used by the chat client (`HttpBackend`).

    A bearer token is sent when the variable named by `api_key_env` is set.
    Connection errors, timeouts, truncated replies and 429/5xx are retried up
    to `max_retries` more times with full-jitter exponential backoff: retry n
    waits a uniform draw from [0, backoff_base * 2**(n - 1)]. A 429 or 503 that
    carries `Retry-After: <seconds>` waits for the longer of that and the
    draw. Other non-200 statuses fail at once. Only http and https URLs
    are opened.
    `slots`, when given, caps the requests in flight across its sharers.
    """
    try:
        scheme = urllib.parse.urlsplit(url).scheme
    except ValueError as exc:
        raise TransportError(1, f"malformed URL {url!r}: {exc}") from exc
    if scheme not in ("http", "https"):
        raise TransportError(1, f"URL scheme {scheme!r} is not http or https: {url}")
    data = json.dumps(body, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(api_key_env, "") if api_key_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    last_transport, last_status, asked_wait = "unknown transport failure", None, 0.0
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(max(_JITTER.uniform(0.0, backoff_base * (2 ** (attempt - 1))), asked_wait))
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with slots or contextlib.nullcontext():
                status, raw, reply_headers = _send(request, timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_transport, last_status, asked_wait = f"{type(exc).__name__}: {exc}", None, 0.0
            continue
        if status in _RETRYABLE_STATUSES:
            last_status = status
            asked_wait = _retry_after(reply_headers) if status in _RETRY_AFTER_STATUSES else 0.0
            continue
        if status != 200:
            raise StatusError(status, f"HTTP {status} from {url}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise StatusError(200, f"malformed payload, not JSON: {exc}") from exc
    attempts = max_retries + 1
    if last_status is not None:
        raise StatusError(last_status, f"HTTP {last_status} after {attempts} attempt(s)")
    raise TransportError(attempts, last_transport)


class HttpBackend:
    """OpenAI-style chat-completions client over `_post_json`.

    Transient failures are retried up to `max_retries` extra attempts.
    Concurrent callers share a semaphore capping in-flight requests at
    `max_in_flight`; each call returns its own response, never another
    caller's. `run_dataset` and `rgp.build` read `max_in_flight` to decide
    how many items to run at once.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        api_key_env: str | None = None,
        max_retries: int = 3,
        backoff_base: float = 0.25,
        timeout: float = 60.0,
        max_in_flight: int = 4,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.tag = f"http:{model_name}"
        self.max_in_flight = max_in_flight
        self._slots = threading.Semaphore(max_in_flight)

    def _body(self, request: GenRequest) -> dict:
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.append({"role": "user", "content": request.user_prompt})
        body = {
            "model": self.model_name,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            body["seed"] = request.seed
        return body

    def complete(self, request: GenRequest) -> str:
        payload = _post_json(
            self.endpoint_url, self._body(request), api_key_env=self.api_key_env,
            max_retries=self.max_retries, backoff_base=self.backoff_base, timeout=self.timeout,
            slots=self._slots,
        )
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise StatusError(200, f"malformed completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise StatusError(200, "completion content is not text")
        return text


class CachedBackend:
    """Replay cache around any backend: one file per request fingerprint.

    A cache hit performs zero network calls and returns byte-identical text.
    Each entry is written whole or not at all. The inner backend's
    `max_in_flight` is forwarded; an inner backend without one counts as 1.
    """

    def __init__(self, inner: Backend, cache_dir: str | Path):
        self.inner = inner
        self.tag = inner.tag
        self.max_in_flight = in_flight_cap(inner)
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def complete(self, request: GenRequest) -> str:
        path = self.cache_dir / f"{fingerprint(request)}.txt"
        if path.exists():
            return path.read_text(encoding="utf-8")
        text = self.inner.complete(request)
        write_atomic(path, [text])
        return text

