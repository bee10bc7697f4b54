"""Completion backends: a live chat endpoint and deterministic transcripts.

Model output can vary run to run even at temperature 0, so the pipeline
supports repeated runs and, for offline tests, transcript backends that
replay canned responses either in strict order or keyed by prompt digest.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    TokenLimitExceeded,
    TranscriptExhausted,
    TransportError,
    UnmatchedPrompt,
)

if TYPE_CHECKING:
    from .exemplars import Prompt

logger = logging.getLogger(__name__)


def estimate_tokens(text: str) -> int:
    """Crude size estimate: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


def prompt_digest(rendered: str) -> str:
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass
class LlmConfig:
    endpoint: str = ""
    model: str = ""
    # Key material comes from the environment at CLI level and must never
    # reach logs, traces, or serialized output.
    api_key: str | None = field(default=None, repr=False)
    max_tokens: int = 4096
    temperature: float = 0.0
    retries: int = 2
    backoff_seconds: float = 1.0

    def __post_init__(self):
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


class LlmClient(ABC):
    """Common surface: complete(prompt) -> response text."""

    def __init__(self, config: LlmConfig | None = None):
        self.config = config or LlmConfig()

    def complete(self, prompt: "Prompt") -> str:
        used = estimate_tokens(prompt.rendered)
        if used > self.config.max_tokens:
            raise TokenLimitExceeded(
                f"prompt estimates {used} tokens, limit is {self.config.max_tokens}"
            )
        return self._complete(prompt)

    @abstractmethod
    def _complete(self, prompt: "Prompt") -> str: ...


class HttpLlm(LlmClient):
    """Chat-completion endpoint speaking the common JSON wire shape."""

    _RETRYABLE_STATUS = {429, 500, 502, 503, 504}

    def __init__(self, config: LlmConfig, session=None):
        super().__init__(config)
        if not config.endpoint:
            raise ValueError("HttpLlm requires an endpoint")
        import requests

        self._session = session or requests.Session()
        self._requests = requests

    def _complete(self, prompt: "Prompt") -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt.rendered}],
            "max_tokens": self.config.max_tokens,
            "temperature": self.config.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error = "no attempt made"
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self.config.backoff_seconds * attempt)
            try:
                resp = self._session.post(
                    self.config.endpoint, json=payload, headers=headers, timeout=120
                )
            except self._requests.RequestException as exc:
                last_error = str(exc)
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
                continue
            if resp.status_code in self._RETRYABLE_STATUS:
                last_error = f"HTTP {resp.status_code}"
                logger.warning("completion attempt %d got %s", attempt + 1, last_error)
                continue
            if resp.status_code != 200:
                raise TransportError(f"completion endpoint returned HTTP {resp.status_code}")
            return self._extract_text(resp)
        raise TransportError(f"completion failed after {self.config.retries + 1} attempts: {last_error}")

    @staticmethod
    def _extract_text(resp) -> str:
        try:
            data = resp.json()
            choice = data["choices"][0]
            text = choice["message"]["content"] if "message" in choice else choice["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError(f"unexpected completion payload: content is {type(text).__name__}, not text")
        return text


class TranscriptLlm(LlmClient):
    """Replays canned responses; fully deterministic.

    sequence mode hands out entries in order regardless of the prompt;
    keyed mode looks the prompt digest up in a table, so a recorded
    exchange replays any number of times in any order.
    """

    def __init__(self, responses, mode: str = "sequence", config: LlmConfig | None = None):
        super().__init__(config)
        if mode not in ("sequence", "keyed"):
            raise ValueError(f"unknown transcript mode {mode!r}")
        self.mode = mode
        if mode == "sequence":
            if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
                raise ValueError("a sequence transcript's responses must be a list of strings")
            self._queue = deque(responses)
            return
        pairs = list(responses.items()) if isinstance(responses, dict) else responses
        if not isinstance(pairs, list) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(x, str) for x in p)
                for p in pairs):
            raise ValueError("a keyed transcript's responses must be an object, or a list of pairs, of strings")
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError("keyed transcript has duplicate digests")
        self._table = dict(pairs)

    @classmethod
    def from_file(cls, path, config: LlmConfig | None = None) -> "TranscriptLlm":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "responses" not in data:
            raise ValueError('a transcript file must hold a JSON object with "responses"')
        return cls(data["responses"], mode=data.get("mode", "sequence"), config=config)

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


class RecordingLlm(LlmClient):
    """Wraps another client and captures digest -> response pairs."""

    def __init__(self, inner: LlmClient):
        super().__init__(inner.config)
        self.inner = inner
        self.recorded: dict[str, str] = {}
        self.prompts: list = []

    def _complete(self, prompt: "Prompt") -> str:
        text = self.inner.complete(prompt)
        self.prompts.append(prompt)
        self.recorded[prompt_digest(prompt.rendered)] = text
        return text

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps({"mode": "keyed", "responses": self.recorded}, indent=2),
            encoding="utf-8",
        )
