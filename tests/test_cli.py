"""The bugreplay command line: exit codes, artifacts, precedence, secrecy."""
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import bugreplay.cli as cli
from bugreplay.cli import main
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.extraction import build_extraction_prompt
from bugreplay.gui import encode_gui, parse_dump
from bugreplay.llm import LlmClient, LlmConfig, prompt_digest
from bugreplay.steps import BugReport

from helpers import scenario_single_step

REPORT = 'Tap "Crash me" on the main screen. The app crashes.'
EXTRACTION = '1. [Tap] ["Crash me"]'
GUIDANCE = "The component is visible, so I operate on [id=2] in the screen."


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("BUGREPLAY_"):
            monkeypatch.delenv(name)


@pytest.fixture
def ws(tmp_path, monkeypatch):
    """Working directory with a report and a one-screen crashing app."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "crash.txt").write_text(REPORT, encoding="utf-8")
    (tmp_path / "app.json").write_text(
        json.dumps(scenario_single_step().spec), encoding="utf-8")
    return tmp_path


def transcript(ws, responses, mode="sequence", name="t.json"):
    path = ws / name
    path.write_text(json.dumps({"mode": mode, "responses": responses}),
                    encoding="utf-8")
    return str(path)


def targs(ws, responses, runs=1):
    return ["--llm", "transcript", "--transcript", transcript(ws, responses),
            "--runs", str(runs)]


class TestExtract:
    def test_writes_artifacts_and_prints_steps(self, ws, capsys):
        assert main(["extract", "crash.txt", *targs(ws, [EXTRACTION])]) == 0
        assert capsys.readouterr().out == EXTRACTION + "\n"
        assert (ws / "crash.steps.txt").read_text(encoding="utf-8") == EXTRACTION + "\n"
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert artifact["report_id"] == "crash"
        assert artifact["majority"] == [{
            "index": 1, "action": "Tap", "component": "Crash me",
            "value": None, "direction": None, "text": '[Tap] ["Crash me"]'}]
        assert artifact["runs"] == [{"ok": True, "steps": artifact["majority"]}]
        assert artifact["seed"] is None

    def test_json_report_carries_its_own_id(self, ws, capsys):
        (ws / "filed.json").write_text(
            json.dumps({"id": "rep-7", "text": REPORT}), encoding="utf-8")
        assert main(["extract", "filed.json", *targs(ws, [EXTRACTION])]) == 0
        artifact = json.loads((ws / "filed.steps.json").read_text(encoding="utf-8"))
        assert artifact["report_id"] == "rep-7"

    def test_majority_two_of_three(self, ws, capsys):
        responses = [EXTRACTION, '1. [Tap] ["Other"]', "Sure, here you go.\n" + EXTRACTION]
        assert main(["extract", "crash.txt", *targs(ws, responses, runs=3)]) == 0
        assert capsys.readouterr().out == EXTRACTION + "\n"
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert [r["ok"] for r in artifact["runs"]] == [True, True, True]

    def test_tie_goes_to_the_earliest_run(self, ws, capsys):
        responses = ['1. [Tap] ["First"]', '1. [Tap] ["Second"]']
        assert main(["extract", "crash.txt", *targs(ws, responses, runs=2)]) == 0
        assert capsys.readouterr().out == '1. [Tap] ["First"]\n'

    def test_failed_run_is_outvoted(self, ws):
        responses = ["cannot help with that", EXTRACTION]
        assert main(["extract", "crash.txt", *targs(ws, responses, runs=2)]) == 0
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert artifact["runs"][0]["ok"] is False
        assert artifact["runs"][0]["error"].startswith("NoStepsFound")
        assert artifact["runs"][1]["ok"] is True

    def test_all_runs_failed_exits_3(self, ws, capsys):
        assert main(["extract", "crash.txt", *targs(ws, ["nope", "nope"], runs=2)]) == 3
        err = capsys.readouterr().err
        assert "extraction failed on every run" in err
        assert "run 2" in err
        assert not (ws / "crash.steps.txt").exists()

    def test_out_flag_relocates_artifacts(self, ws):
        args = ["extract", "crash.txt", "--out", "sub/dir/case",
                *targs(ws, [EXTRACTION])]
        assert main(args) == 0
        assert (ws / "sub" / "dir" / "case.steps.txt").exists()
        assert (ws / "sub" / "dir" / "case.steps.json").exists()

    def test_seed_recorded(self, ws):
        assert main(["extract", "crash.txt", "--seed", "7", *targs(ws, [EXTRACTION])]) == 0
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert artifact["seed"] == 7

    def test_keyed_transcript_answers_by_digest(self, ws):
        report = BugReport(id="crash", raw_text=REPORT)
        prompt = build_extraction_prompt(report, ExemplarCorpus.builtin(), 4096)
        path = transcript(ws, {prompt_digest(prompt.rendered): EXTRACTION}, mode="keyed")
        args = ["extract", "crash.txt", "--llm", "transcript",
                "--transcript", path, "--runs", "2"]
        assert main(args) == 0
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert [r["ok"] for r in artifact["runs"]] == [True, True]


class TestReplay:
    def test_bug_triggered_exits_0(self, ws, capsys):
        args = ["replay", "crash.txt", "--app", "app.json",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "run 1: bug_triggered, 1 events, 1 actions, 0 backtracks" in out
        assert "bug triggered (run 1)" in out
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert artifact["winner"] == 0
        assert artifact["steps"][0]["text"] == '[Tap] ["Crash me"]'
        assert artifact["extraction_runs"] == [{"ok": True, "steps": artifact["steps"]}]
        assert artifact["runs"][0]["outcome"] == "bug_triggered"
        assert artifact["runs"][0]["events"][0]["resolved_id"] == 2

    def test_no_bug_exits_1(self, ws, capsys):
        spec = scenario_single_step().spec
        spec["crash_states"] = []
        (ws / "calm.json").write_text(json.dumps(spec), encoding="utf-8")
        args = ["replay", "crash.txt", "--app", "calm.json",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 1
        assert "bug not triggered" in capsys.readouterr().out
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert artifact["winner"] is None
        assert artifact["runs"][0]["outcome"] == "steps_exhausted_no_bug"

    def test_runtime_failure_exits_3(self, ws, capsys):
        # transcript runs dry before the guidance query
        args = ["replay", "crash.txt", "--app", "app.json", *targs(ws, [EXTRACTION])]
        assert main(args) == 3
        assert "replay failed" in capsys.readouterr().err
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert artifact["runs"][0]["outcome"] == "error"
        assert artifact["runs"][0]["error_detail"].startswith("TranscriptExhausted")

    def test_failed_extraction_still_writes_trace(self, ws, capsys):
        args = ["replay", "crash.txt", "--app", "app.json", *targs(ws, ["nope"])]
        assert main(args) == 3
        assert "nothing to replay" in capsys.readouterr().err
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert artifact["steps"] is None
        assert artifact["runs"] == []
        assert artifact["winner"] is None
        assert artifact["extraction_runs"][0]["ok"] is False

    def test_sequential_runs_stop_at_first_bug(self, ws):
        responses = [EXTRACTION, EXTRACTION, EXTRACTION, GUIDANCE, GUIDANCE, GUIDANCE]
        args = ["replay", "crash.txt", "--app", "app.json",
                *targs(ws, responses, runs=3)]
        assert main(args) == 0
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert len(artifact["runs"]) == 1

    def test_parallel_rejects_adb(self, ws, capsys):
        args = ["replay", "crash.txt", "--device", "adb", "--parallel",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 2
        assert "simulated" in capsys.readouterr().err

    def test_parallel_rejects_sequence_transcripts(self, ws, capsys):
        args = ["replay", "crash.txt", "--app", "app.json", "--parallel",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 2
        assert "keyed transcript" in capsys.readouterr().err


class _Pilot(BaseHTTPRequestHandler):
    """Completion endpoint that answers by sniffing the prompt."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = body["messages"][0]["content"]
        text = GUIDANCE if "If I need to " in content else EXTRACTION
        payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def pilot_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Pilot)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


class TestHttpThroughCli:
    def test_parallel_replay_runs_everything(self, ws, pilot_endpoint):
        args = ["replay", "crash.txt", "--app", "app.json", "--llm", "http",
                "--endpoint", pilot_endpoint, "--runs", "2", "--parallel"]
        assert main(args) == 0
        artifact = json.loads((ws / "crash.trace.json").read_text(encoding="utf-8"))
        assert len(artifact["runs"]) == 2  # parallel mode never stops early
        assert all(r["outcome"] == "bug_triggered" for r in artifact["runs"])
        assert artifact["winner"] == 0

    def test_http_extract(self, ws, pilot_endpoint, capsys):
        args = ["extract", "crash.txt", "--llm", "http",
                "--endpoint", pilot_endpoint, "--runs", "1"]
        assert main(args) == 0
        assert capsys.readouterr().out == EXTRACTION + "\n"


class _Gauge(_Pilot):
    """Pilot that holds each request a moment and records the most
    requests in flight at once. A request leaves the count before its
    reply goes out, so one-at-a-time callers never overlap. The fixture
    gives each server its own lock and counters."""

    HOLD_S = 0.25

    def do_POST(self):
        gauge = type(self)
        with gauge.lock:
            gauge.in_flight += 1
            gauge.peak = max(gauge.peak, gauge.in_flight)
        time.sleep(gauge.HOLD_S)
        with gauge.lock:
            gauge.in_flight -= 1
        super().do_POST()


@pytest.fixture
def gauge():
    class Handler(_Gauge):
        lock = threading.Lock()
        in_flight = peak = 0

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    Handler.endpoint = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    yield Handler
    server.shutdown()


class _Staggered(LlmClient):
    """Answers after a fixed delay and notes when it finished."""

    def __init__(self, text, delay, finished):
        super().__init__(LlmConfig(max_tokens=10 ** 6))
        self.text, self.delay, self.finished = text, delay, finished

    def _complete(self, prompt):
        time.sleep(self.delay)
        self.finished.append(self.text)
        return self.text


class TestConcurrentExtraction:
    def test_http_runs_are_in_flight_together(self, ws, gauge, capsys):
        args = ["extract", "crash.txt", "--llm", "http",
                "--endpoint", gauge.endpoint, "--runs", "3"]
        assert main(args) == 0
        assert gauge.peak == 3
        assert capsys.readouterr().out == EXTRACTION + "\n"
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert [r["ok"] for r in artifact["runs"]] == [True, True, True]

    def test_runs_keep_run_order_whatever_finishes_first(self, ws, monkeypatch, capsys):
        # run k gets the k-th client made; later runs answer sooner
        first, second, third = (f'1. [Tap] ["Run {k}"]' for k in (1, 2, 3))
        finished = []
        clients = iter([_Staggered(first, 0.4, finished), _Staggered(second, 0.2, finished),
                        _Staggered(third, 0.0, finished)])
        monkeypatch.setattr(cli, "_make_llm", lambda cfg: next(clients))
        args = ["extract", "crash.txt", "--llm", "http", "--endpoint", "unused", "--runs", "3"]
        assert main(args) == 0
        assert finished == [third, second, first]
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        assert [r["steps"][0]["component"] for r in artifact["runs"]] == ["Run 1", "Run 2", "Run 3"]
        # a three-way tie still goes to the earliest run
        assert capsys.readouterr().out == first + "\n"


class TestEncode:
    DUMP = """<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>
<hierarchy rotation="0">
  <node index="0" text="" resource-id="" class="android.widget.FrameLayout" package="demo" content-desc="" checkable="false" checked="false" clickable="false" enabled="true" focusable="false" focused="false" scrollable="false" long-clickable="false" password="false" selected="false" bounds="[0,0][1080,1920]">
    <node index="0" text="Hello" resource-id="" class="android.widget.TextView" package="demo" content-desc="" checkable="false" checked="false" clickable="false" enabled="true" focusable="false" focused="false" scrollable="false" long-clickable="false" password="false" selected="false" bounds="[0,0][1080,200]" />
    <node index="1" text="Go" resource-id="demo:id/go" class="android.widget.Button" package="demo" content-desc="" checkable="false" checked="false" clickable="true" enabled="true" focusable="true" focused="false" scrollable="false" long-clickable="false" password="false" selected="false" bounds="[0,200][1080,400]" />
  </node>
</hierarchy>
"""

    def test_prints_the_encoding(self, ws, capsys):
        (ws / "dump.xml").write_text(self.DUMP, encoding="utf-8")
        assert main(["encode", "dump.xml"]) == 0
        expected = encode_gui(parse_dump(self.DUMP)).html
        assert capsys.readouterr().out == expected + "\n"
        assert "<button id=2" in expected

    def test_missing_dump_exits_2(self, ws, capsys):
        assert main(["encode", "nowhere.xml"]) == 2
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, ws, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, ws, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_report_file(self, ws, capsys):
        assert main(["extract", "nowhere.txt", *targs(ws, [EXTRACTION])]) == 2
        assert "cannot read report" in capsys.readouterr().err

    def test_empty_report_file(self, ws, capsys):
        (ws / "empty.txt").write_text("   \n", encoding="utf-8")
        assert main(["extract", "empty.txt", *targs(ws, [EXTRACTION])]) == 2

    def test_runs_below_one(self, ws, capsys):
        assert main(["extract", "crash.txt", "--runs", "0",
                     *targs(ws, [EXTRACTION])[:-2]]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_transcript_backend_needs_a_path(self, ws, capsys):
        assert main(["extract", "crash.txt", "--llm", "transcript"]) == 2
        assert "--transcript" in capsys.readouterr().err

    def test_http_backend_needs_an_endpoint(self, ws, capsys):
        assert main(["extract", "crash.txt"]) == 2
        assert "--endpoint" in capsys.readouterr().err

    def test_simulated_device_needs_an_app(self, ws, capsys):
        assert main(["replay", "crash.txt", *targs(ws, [EXTRACTION, GUIDANCE])]) == 2
        assert "--app" in capsys.readouterr().err

    def test_unreadable_config(self, ws, capsys):
        assert main(["extract", "crash.txt", "--config", "nowhere.json"]) == 2
        assert "config" in capsys.readouterr().err

    def test_non_object_config(self, ws, capsys):
        (ws / "cfg.json").write_text("[1, 2]", encoding="utf-8")
        assert main(["extract", "crash.txt", "--config", "cfg.json"]) == 2

    def test_bad_corpus(self, ws, capsys):
        (ws / "corpus.json").write_text("{}", encoding="utf-8")
        args = ["extract", "crash.txt", "--corpus", "corpus.json",
                *targs(ws, [EXTRACTION])]
        assert main(args) == 2
        assert "corpus" in capsys.readouterr().err

    def test_bad_app_spec(self, ws, capsys):
        (ws / "bad_app.json").write_text('{"states": {}}', encoding="utf-8")
        args = ["replay", "crash.txt", "--app", "bad_app.json",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 2
        assert "app spec" in capsys.readouterr().err


class TestPrecedence:
    def six(self, ws):
        return transcript(ws, [EXTRACTION] * 6)

    def runs_in_artifact(self, ws):
        artifact = json.loads((ws / "crash.steps.json").read_text(encoding="utf-8"))
        return len(artifact["runs"])

    def test_flag_beats_environment(self, ws, monkeypatch):
        monkeypatch.setenv("BUGREPLAY_RUNS", "4")
        args = ["extract", "crash.txt", "--llm", "transcript",
                "--transcript", self.six(ws), "--runs", "2"]
        assert main(args) == 0
        assert self.runs_in_artifact(ws) == 2

    def test_environment_beats_config(self, ws, monkeypatch):
        monkeypatch.setenv("BUGREPLAY_RUNS", "4")
        (ws / "cfg.json").write_text(json.dumps({"runs": 5}), encoding="utf-8")
        args = ["extract", "crash.txt", "--config", "cfg.json",
                "--llm", "transcript", "--transcript", self.six(ws)]
        assert main(args) == 0
        assert self.runs_in_artifact(ws) == 4

    def test_config_beats_default(self, ws):
        (ws / "cfg.json").write_text(json.dumps({"runs": 5}), encoding="utf-8")
        args = ["extract", "crash.txt", "--config", "cfg.json",
                "--llm", "transcript", "--transcript", self.six(ws)]
        assert main(args) == 0
        assert self.runs_in_artifact(ws) == 5

    def test_backend_selection_via_environment(self, ws, monkeypatch):
        monkeypatch.setenv("BUGREPLAY_LLM", "transcript")
        monkeypatch.setenv("BUGREPLAY_TRANSCRIPT", transcript(ws, [EXTRACTION] * 3))
        assert main(["extract", "crash.txt"]) == 0

    def test_whole_setup_from_config_file(self, ws):
        cfg = {"llm": "transcript", "transcript": transcript(ws, [EXTRACTION]),
               "runs": 1}
        (ws / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["extract", "crash.txt", "--config", "cfg.json"]) == 0


# (config key, RunConfig field, config value, environment value, flag value)
# for every resolved setting. The flag is "--" plus the key with dashes, and
# the environment variable is BUGREPLAY_ plus the key upper-cased.
SETTINGS = [
    ("llm", "llm_backend", "http", "transcript", "http"),
    ("transcript", "transcript_path", "c.json", "e.json", "f.json"),
    ("endpoint", "endpoint", "http://c.test", "http://e.test", "http://f.test"),
    ("model", "model", "model-c", "model-e", "model-f"),
    ("api_key_env", "api_key_env", "C_KEY", "E_KEY", "F_KEY"),
    ("temperature", "temperature", 0.1, 0.2, 0.3),
    ("corpus", "corpus_path", "c.json", "e.json", "f.json"),
    ("token_budget", "token_budget", 1000, 2000, 3000),
    ("actions_budget", "actions_budget", 5, 7, 9),
    ("backtracks_budget", "backtracks_budget", 1, 2, 3),
    ("wall_budget", "wall_budget", 1.5, 2.5, 3.5),
    ("max_missing_depth", "max_missing_depth", 1, 3, 4),
    ("runs", "runs", 5, 4, 2),
    ("seed", "seed", 11, 12, 13),
    ("device", "device_backend", "simulated", "adb", "simulated"),
    ("app", "app_path", "c.json", "e.json", "f.json"),
    ("serial", "serial", "serial-c", "serial-e", "serial-f"),
    ("adb_path", "adb_path", "/c/adb", "/e/adb", "/f/adb"),
    ("package", "package", "com.c", "com.e", "com.f"),
    ("launch", "launch_command", "launch c", "launch e", "launch f"),
    ("exclusion_clause", "exclusion_clause", ", not c {ids}", ", not e {ids}", ", not f {ids}"),
]


@pytest.mark.parametrize("key, field, in_file, in_env, on_flag", SETTINGS,
                         ids=[row[0] for row in SETTINGS])
def test_every_setting_honours_precedence(ws, monkeypatch, key, field, in_file, in_env, on_flag):
    def resolved(*extra):
        args = cli._build_parser().parse_args(["replay", "crash.txt", "--config", "cfg.json", *extra])
        return getattr(cli._build_run_config(args), field)

    (ws / "cfg.json").write_text(json.dumps({key: in_file}), encoding="utf-8")
    assert resolved() == in_file
    monkeypatch.setenv("BUGREPLAY_" + key.upper(), str(in_env))
    assert resolved() == in_env
    assert resolved("--" + key.replace("_", "-"), str(on_flag)) == on_flag


class TestSecrets:
    SENTINEL = "sk-live-verysecret-0451"

    def everything_written(self, ws):
        chunks = []
        for path in sorted(ws.rglob("*")):
            if path.is_file():
                chunks.append(path.read_text(encoding="utf-8", errors="replace"))
        return "\n".join(chunks)

    def test_key_never_reaches_outputs(self, ws, capsys, monkeypatch):
        monkeypatch.setenv("BUGREPLAY_API_KEY", self.SENTINEL)
        args = ["replay", "crash.txt", "--app", "app.json", "-v",
                *targs(ws, [EXTRACTION, GUIDANCE])]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert self.SENTINEL not in captured.out
        assert self.SENTINEL not in captured.err
        assert self.SENTINEL not in self.everything_written(ws)

    def test_custom_key_variable_is_honored_and_hidden(self, ws, capsys, monkeypatch):
        monkeypatch.setenv("ORG_TOKEN", self.SENTINEL)
        args = ["extract", "crash.txt", "--api-key-env", "ORG_TOKEN", "-v",
                *targs(ws, [EXTRACTION])]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert self.SENTINEL not in captured.out
        assert self.SENTINEL not in captured.err
        assert self.SENTINEL not in self.everything_written(ws)
