"""Completion backends: a live chat endpoint and deterministic transcripts.

Model output can vary run to run even at temperature 0, so the pipeline
supports repeated runs and, for offline tests, transcript backends that
replay canned responses either in strict order or keyed by prompt digest.
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import select
import ssl
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

from .errors import TranscriptExhausted, TransportError, UnmatchedPrompt

if TYPE_CHECKING:
    from .exemplars import Prompt

logger = logging.getLogger(__name__)


def estimate_tokens(text: str) -> int:
    """Crude size estimate: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


def prompt_digest(rendered: str) -> str:
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class LlmClient(ABC):
    """Common surface: complete(prompt) -> response text."""

    def complete(self, prompt: "Prompt") -> str:
        return self._complete(prompt)

    @abstractmethod
    def _complete(self, prompt: "Prompt") -> str: ...


class HttpLlm(LlmClient):
    """Chat-completion endpoint speaking the common JSON wire shape.

    A client keeps the HTTP/1.1 connections its calls leave open, to the
    endpoint or to the proxy the environment names for it, and sends each
    call on one of them that is idle, or on a new one: a client that
    several threads call at once holds one connection for each. An https
    endpoint is verified against the system trust store and reached
    through a proxy by a CONNECT tunnel. The connections close when the
    client is dropped.
    """

    _RETRYABLE_STATUS = {429, 500, 502, 503, 504}
    _TIMEOUT_S = 120
    # a failed attempt is retried this often, after a backoff growing by this step
    _RETRIES = 2
    _BACKOFF_S = 1.0

    def __init__(self, endpoint: str, *, model: str = "", api_key: str | None = None,
                 max_tokens: int = 4096, temperature: float = 0.0):
        if type(max_tokens) is not int or max_tokens <= 0:
            raise ValueError(f"max_tokens must be a positive integer, got {max_tokens!r}")
        if type(temperature) not in (int, float) or not 0 <= temperature < math.inf:
            raise ValueError(f"temperature must be a finite non-negative number, got {temperature!r}")
        if not isinstance(model, str):
            raise ValueError(f"model must be a string, got {model!r}")
        if api_key is not None and not isinstance(api_key, str):
            raise ValueError(f"api_key must be a string or None, got a {type(api_key).__name__}")
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("the endpoint must be an absolute http:// or https:// URL")
        if url.username is not None:
            raise ValueError("the endpoint must not carry credentials; the API key comes from the environment")
        self.model = model
        # the cap on an answer's length, sent with each request; prompts are
        # held to their budget where they are built
        self.max_tokens = max_tokens
        self.temperature = temperature
        https = url.scheme == "https"
        address = (url.hostname, url.port)  # None: the scheme's default port
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", "User-Agent": "bugreplay"}
        # key material comes from the environment and is kept in the headers
        # alone, so that it never reaches logs, traces or serialized output
        if api_key:
            if not (api_key.isascii() and api_key.isprintable()):
                raise ValueError("the API key holds a character that cannot go in an HTTP header")
            self._headers["Authorization"] = f"Bearer {api_key}"
        proxy, proxy_headers = _proxy_for(url)
        self._address = proxy or address
        self._tunnel = (*address, proxy_headers) if proxy and https else None
        if proxy and not https:
            self._target = f"http://{url.netloc}{self._target}"
            self._headers.update(proxy_headers)
        if not self._target.isascii():
            raise ValueError("the endpoint's request target must be ASCII: percent-encode its path and query,"
                             " and write a host reached through an http proxy in its xn-- form")
        self._tls = ssl.create_default_context() if https else None
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _complete(self, prompt: "Prompt") -> str:
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt.rendered}],
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
        }).encode("utf-8")
        for attempt in range(self._RETRIES + 1):
            if attempt:
                time.sleep(self._BACKOFF_S * attempt)
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("completion attempt %d failed: %s", attempt + 1, last_error)
                continue
            if status in self._RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                logger.warning("completion attempt %d got %s", attempt + 1, last_error)
                continue
            if status != 200:
                raise TransportError(f"completion endpoint returned HTTP {status}")
            return self._extract_text(data)
        raise TransportError(f"completion failed after {self._RETRIES + 1} attempts: {last_error}")

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST: (status, body). A connection the response leaves open
        goes back to the idle list."""
        conn = self._connection()
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # http.client drops it when the response closes it
            with self._lock:
                self._idle.append(conn)
        return response.status, data

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, or a new one."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _readable(conn.sock):
                    return conn
                conn.close()
        if self._tls is None:
            conn = http.client.HTTPConnection(*self._address, timeout=self._TIMEOUT_S)
        else:
            conn = http.client.HTTPSConnection(*self._address, timeout=self._TIMEOUT_S, context=self._tls)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    @staticmethod
    def _extract_text(data: bytes) -> str:
        try:
            choice = json.loads(data)["choices"][0]
            text = choice["message"]["content"] if "message" in choice else choice["text"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"unexpected completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError(f"unexpected completion payload: content is {type(text).__name__}, not text")
        return text


def _readable(sock) -> bool:
    """Whether an idle connection's socket has something to read: the
    server closed it, or sent what no request asked for. Either way it
    must not carry another request."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # ValueError: a descriptor select cannot watch
        return True


def _proxy_for(url: SplitResult) -> tuple[tuple[str, int] | None, dict[str, str]]:
    """The (host, port) of the proxy the environment names for `url`, if
    any, and the headers that carry its credentials. Error messages leave
    the proxy URL out, since it may hold a password."""
    proxies = getproxies_environment()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or proxy_bypass_environment(url.netloc, proxies):
        return None, {}
    parsed = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"the proxy for {url.scheme} endpoints must be an http:// URL")
    headers = {}
    if parsed.username is not None:
        user_pass = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode("utf-8")).decode("ascii")
    return (parsed.hostname, parsed.port or 80), headers


class TranscriptLlm(LlmClient):
    """Replays canned responses; fully deterministic.

    The responses' shape is the mode: a list of strings replies in order
    whatever the prompt ("sequence"); an object of strings replies by prompt
    digest ("keyed"), so a recorded exchange replays in any order.
    """

    def __init__(self, responses):
        if isinstance(responses, list) and all(isinstance(r, str) for r in responses):
            self.mode = "sequence"
            self._queue = deque(responses)
        elif isinstance(responses, dict) and all(isinstance(x, str) for pair in responses.items() for x in pair):
            self.mode = "keyed"
            self._table = dict(responses)
        else:
            raise ValueError("a transcript's responses must be a list of strings or an object of strings")

    @classmethod
    def from_file(cls, path) -> "TranscriptLlm":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "responses" not in data:
            raise ValueError('a transcript file must hold a JSON object with "responses"')
        return cls(data["responses"])

    def _complete(self, prompt: "Prompt") -> str:
        if self.mode == "sequence":
            if not self._queue:
                raise TranscriptExhausted("strict-sequence transcript is empty")
            return self._queue.popleft()
        digest = prompt_digest(prompt.rendered)
        try:
            return self._table[digest]
        except KeyError:
            raise UnmatchedPrompt(digest) from None

