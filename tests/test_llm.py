"""Completion backends: budget gate, transcripts, recording, http wire."""
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bugreplay.errors import (
    TokenLimitExceeded,
    TranscriptExhausted,
    TransportError,
    UnmatchedPrompt,
)
from bugreplay.exemplars import Prompt, PromptSegment
from bugreplay.llm import (
    HttpLlm,
    LlmConfig,
    RecordingLlm,
    TranscriptLlm,
    estimate_tokens,
    prompt_digest,
)


def make_prompt(text):
    return Prompt((PromptSegment("test_input", text),), exemplar_count=0)


@pytest.mark.parametrize("text,expected", [
    ("", 0), ("a", 1), ("abcd", 1), ("abcde", 2), ("x" * 4096, 1024), ("x" * 4097, 1025),
])
def test_estimate_tokens_rounds_up(text, expected):
    assert estimate_tokens(text) == expected


def test_prompt_digest_is_stable_sha256():
    assert prompt_digest("hello") == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824")
    assert prompt_digest("hello") == prompt_digest("hello")
    assert prompt_digest("hello") != prompt_digest("hello ")


class TestLlmConfig:
    def test_defaults(self):
        config = LlmConfig()
        assert config.max_tokens == 4096
        assert config.temperature == 0.0
        assert config.retries == 2

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            LlmConfig(max_tokens=0)
        with pytest.raises(ValueError):
            LlmConfig(retries=-1)

    def test_api_key_hidden_from_repr(self):
        config = LlmConfig(endpoint="http://e", api_key="sk-sensitive-123")
        assert "sk-sensitive-123" not in repr(config)
        assert "sk-sensitive-123" not in str(config)


def test_token_gate_rejects_oversized_prompts():
    llm = TranscriptLlm(["never reached"], config=LlmConfig(max_tokens=10))
    with pytest.raises(TokenLimitExceeded):
        llm.complete(make_prompt("x" * 41))
    # 40 chars estimate exactly 10 tokens and pass
    assert llm.complete(make_prompt("x" * 40)) == "never reached"


class TestSequenceTranscript:
    def test_replays_in_order(self):
        llm = TranscriptLlm(["one", "two"])
        assert llm.complete(make_prompt("a")) == "one"
        assert llm.complete(make_prompt("b")) == "two"

    def test_exhaustion(self):
        llm = TranscriptLlm(["only"])
        llm.complete(make_prompt("a"))
        with pytest.raises(TranscriptExhausted):
            llm.complete(make_prompt("a"))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TranscriptLlm([], mode="adaptive")


class TestKeyedTranscript:
    def test_lookup_by_digest(self):
        prompt = make_prompt("the prompt")
        llm = TranscriptLlm({prompt_digest(prompt.rendered): "reply"}, mode="keyed")
        assert llm.complete(prompt) == "reply"
        assert llm.complete(prompt) == "reply"

    def test_unmatched_prompt(self):
        llm = TranscriptLlm({}, mode="keyed")
        with pytest.raises(UnmatchedPrompt):
            llm.complete(make_prompt("unseen"))

    def test_pair_list_form(self):
        llm = TranscriptLlm([("d1", "r1"), ("d2", "r2")], mode="keyed")
        assert llm._table == {"d1": "r1", "d2": "r2"}

    def test_pair_list_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TranscriptLlm([("d1", "r1"), ("d1", "r2")], mode="keyed")


def test_transcript_from_file(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"responses": ["a", "b"]}), encoding="utf-8")
    llm = TranscriptLlm.from_file(seq)
    assert llm.mode == "sequence"
    assert llm.complete(make_prompt("x")) == "a"

    prompt = make_prompt("x")
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({
        "mode": "keyed",
        "responses": {prompt_digest(prompt.rendered): "hit"},
    }), encoding="utf-8")
    assert TranscriptLlm.from_file(keyed).complete(prompt) == "hit"


def test_recording_round_trip(tmp_path):
    inner = TranscriptLlm(["first", "second"])
    recorder = RecordingLlm(inner)
    p1, p2 = make_prompt("alpha"), make_prompt("beta")
    assert recorder.complete(p1) == "first"
    assert recorder.complete(p2) == "second"
    assert len(recorder.prompts) == 2

    path = tmp_path / "rec.json"
    recorder.save(path)
    replayed = TranscriptLlm.from_file(path)
    assert replayed.mode == "keyed"
    assert replayed.complete(p2) == "second"
    assert replayed.complete(p1) == "first"


class _Script(BaseHTTPRequestHandler):
    """Serves scripted (status, body) responses and records requests."""

    script = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).requests.append({
            "headers": dict(self.headers),
            "json": json.loads(body) if body else None,
        })
        status, payload = self.script.pop(0) if self.script else (500, {})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Script)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Script.script = []
    _Script.requests = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join(timeout=5)


def _chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpLlm:
    def _client(self, endpoint, **overrides):
        defaults = dict(endpoint=endpoint, model="test-model",
                        retries=2, backoff_seconds=0.0)
        defaults.update(overrides)
        return HttpLlm(LlmConfig(**defaults))

    def test_requires_endpoint(self):
        with pytest.raises(ValueError):
            HttpLlm(LlmConfig(endpoint=""))

    def test_success_and_wire_shape(self, http_endpoint):
        _Script.script = [(200, _chat_payload("the answer"))]
        llm = self._client(http_endpoint, api_key="sk-abc", temperature=0.5)
        assert llm.complete(make_prompt("the question")) == "the answer"
        sent = _Script.requests[0]
        assert sent["headers"]["Authorization"] == "Bearer sk-abc"
        assert sent["json"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "the question"}],
            "max_tokens": 4096,
            "temperature": 0.5,
        }

    def test_no_key_means_no_auth_header(self, http_endpoint):
        _Script.script = [(200, _chat_payload("ok"))]
        self._client(http_endpoint).complete(make_prompt("q"))
        assert "Authorization" not in _Script.requests[0]["headers"]

    def test_completion_text_variant(self, http_endpoint):
        _Script.script = [(200, {"choices": [{"text": "plain"}]})]
        assert self._client(http_endpoint).complete(make_prompt("q")) == "plain"

    def test_retries_transient_failures(self, http_endpoint):
        _Script.script = [(500, {}), (429, {}), (200, _chat_payload("finally"))]
        assert self._client(http_endpoint).complete(make_prompt("q")) == "finally"
        assert len(_Script.requests) == 3

    def test_gives_up_after_retry_budget(self, http_endpoint):
        _Script.script = [(503, {})] * 3
        with pytest.raises(TransportError):
            self._client(http_endpoint).complete(make_prompt("q"))
        assert len(_Script.requests) == 3

    def test_non_retryable_status_fails_fast(self, http_endpoint):
        _Script.script = [(400, {"error": "bad request"})]
        with pytest.raises(TransportError):
            self._client(http_endpoint).complete(make_prompt("q"))
        assert len(_Script.requests) == 1

    def test_malformed_payload(self, http_endpoint):
        _Script.script = [(200, {"unexpected": True})]
        with pytest.raises(TransportError):
            self._client(http_endpoint).complete(make_prompt("q"))

    @pytest.mark.parametrize("payload", [
        _chat_payload(None), _chat_payload(["a", "b"]), {"choices": [{"text": 7}]},
    ], ids=["null-content", "list-content", "number-text"])
    def test_content_that_is_not_text(self, payload):
        class Response:
            status_code = 200

            def json(self):
                return payload

        class Session:
            def post(self, *args, **kwargs):
                return Response()

        llm = HttpLlm(LlmConfig(endpoint="http://unused.invalid/v1"), session=Session())
        with pytest.raises(TransportError, match="unexpected completion payload"):
            llm.complete(make_prompt("q"))

    def test_connection_refused_exhausts_retries(self):
        llm = self._client("http://127.0.0.1:9/never", retries=1)
        with pytest.raises(TransportError):
            llm.complete(make_prompt("q"))
