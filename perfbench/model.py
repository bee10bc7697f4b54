"""Fake chat-completion endpoint that answers from a workload's answer key.

It speaks the wire shape `bugreplay.llm.HttpLlm` sends, sleeps a declared
latency per request, and answers deterministically:

* an extraction prompt (its last segment is the report) gets the
  scenario's extraction answers in turn, one per request of the current
  invocation;
* a guidance prompt is answered from its own GUI block and query: the
  screen is named by its toolbar title, components by their resource-id
  leaf, and the answer key says which leaf to cite, whether to cite a
  decoy first, and whether to flag the step [MISSING]. Screens the key does
  not know (dead ends) get an answer with no component.
"""
from __future__ import annotations

import json
import math
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import Scenario

SEGMENT_SEP = "\n\n"
_QUERY_RE = re.compile(
    r"If I need to (?P<step>.+), which component id should I operate on the GUI"
    r"(?:, excluding components (?P<excluded>.*))?\?$",
    re.DOTALL,
)
_ID_RE = re.compile(r"\[id=(\d+)\]")
_LEAF_RE = re.compile(r"<\w+ id=(\d+)(?: type=\"[^\"]*\")? class=\"([^\"]*)\"")
_TITLE_RE = re.compile(r"class=\"toolbar_title\">([^<]*)<")
NO_ANSWER = "None of the components on this screen matches the step, and nothing on it leads there."


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


@dataclass
class ModelCall:
    kind: str
    tokens: int
    handler_s: float
    authorization: str


class FakeModel:
    """ThreadingHTTPServer on 127.0.0.1 serving one scenario at a time."""

    def __init__(self, latency: float):
        self.latency = latency
        self.calls: list[ModelCall] = []
        self._scenario: Scenario | None = None
        self._extractions = 0
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> str:
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                started = time.perf_counter()
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                content = body["messages"][0]["content"]
                kind, text = outer.answer(content)
                time.sleep(outer.latency)
                payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()
                # logged before the reply, so the caller never outruns its record
                with outer._lock:
                    outer.calls.append(ModelCall(kind, estimate_tokens(content), time.perf_counter() - started,
                                                 self.headers.get("Authorization", "")))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None

    def begin(self, scenario: Scenario) -> None:
        """Answer for this scenario until the next begin()."""
        with self._lock:
            self._scenario = scenario
            self._extractions = 0

    def answer(self, content: str) -> tuple[str, str]:
        """(prompt kind, response text) for one prompt."""
        segments = content.split(SEGMENT_SEP)
        query = _QUERY_RE.match(segments[-1])
        with self._lock:
            scenario = self._scenario
            if query is None:
                k = self._extractions
                self._extractions += 1
        if query is None:
            if scenario is None or segments[-1].strip() != scenario.report.strip():
                return "extraction", "I cannot tell which report this is."
            return "extraction", scenario.extraction[k % len(scenario.extraction)]
        return "guidance", _guide(scenario, segments[-2], query)


def _guide(scenario: Scenario | None, gui: str, query: re.Match) -> str:
    title = _TITLE_RE.search(gui)
    plan = scenario.key.get((title.group(1), query.group("step"))) if scenario and title else None
    if plan is None:
        return NO_ANSWER
    ids = {leaf: int(nid) for nid, leaf in _LEAF_RE.findall(gui)}
    excluded = {int(i) for i in _ID_RE.findall(query.group("excluded") or "")}
    leaf = plan.target
    if plan.decoy is not None and ids.get(plan.decoy) not in excluded:
        leaf = plan.decoy
    if leaf not in ids:
        return NO_ANSWER
    if plan.missing:
        return (f"The step's component is not on this screen. The component that most likely "
                f"leads to it is [id={ids[leaf]}]. So the answer is [MISSING] [id={ids[leaf]}].")
    return f"The component that matches the step is [id={ids[leaf]}]. So, we could operate on [id={ids[leaf]}]."
