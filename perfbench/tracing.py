"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.install()` replaces public callables of bugreplay with wrappers
that record a span (name, start, end, parent, report) per call, under the
name the calling module binds, and puts the originals back on
`uninstall()`. Spans stay in memory; `layer_metrics` turns them into the
per-layer figures.
"""
from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

DEVICE_OPS = ("dump_hierarchy", "tap", "double_tap", "long_tap", "swipe", "type_text",
              "press_back", "restart", "crashed")
ADB_KINDS = ("uiautomator", "cat", "input", "logcat", "dumpsys", "am")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    report: str
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _prompt_kind(args, result) -> dict:
    prompt = args[1]
    guided = any(s.kind == "test_query" for s in prompt.segments)
    return {"kind": "guidance" if guided else "extraction"}


def _exemplars(args, result) -> dict:
    return {"exemplars": result.exemplar_count}


def _guidance_prompt(args, result) -> dict:
    prompt, used = result
    return {"exemplars": prompt.exemplar_count, "elided": used.html != args[1].html}


def _html(args, result) -> dict:
    return {"chars": len(result.html)}


def _gestures(args, result) -> dict:
    return {"gestures": len(args[1])}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.report = ""
        self._local = threading.local()
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    def points(self):
        """(owner, attribute, span name, info callable) for every wrapped callable."""
        import bugreplay.cli as cli
        import bugreplay.device as device
        import bugreplay.extraction as extraction
        import bugreplay.guidance as guidance
        import bugreplay.llm as llm
        import bugreplay.replay as replay

        yield cli, "extract_steps", "cli.extract_steps", None
        yield cli, "replay", "cli.replay", None
        yield extraction, "build_extraction_prompt", "extraction.build_prompt", _exemplars
        yield extraction, "parse_extraction_response", "extraction.parse", None
        yield replay, "build_guidance_prompt", "guidance.build_prompt", _guidance_prompt
        yield replay, "parse_guidance_response", "guidance.parse", None
        yield replay, "encode_gui", "gui.encode", _html
        yield guidance, "encode_gui", "gui.encode", _html
        yield replay, "screen_digest", "gui.digest", None
        yield device, "parse_dump", "gui.parse_dump", None
        yield replay, "apply_gestures", "replay.apply_gestures", _gestures
        yield llm.LlmClient, "complete", "llm.complete", _prompt_kind
        yield device, "_run_subprocess", "adb.run", None
        for op in DEVICE_OPS:
            yield device.AdbDevice, op, f"device.{op}", None

    def install(self) -> None:
        for owner, attr, name, info in self.points():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, info):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = tracer._next
            tracer._next += 1
            span = Span(sid, name, 0.0, 0.0, stack[-1] if stack else None, tracer.report)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[Span], reports: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of traced reports.

    reports maps a report key to what the benchmark measured around that
    invocation: wall seconds, model calls by kind and tokens, adb calls by
    kind and handler seconds, and the replay artifact's counts. Counts and
    waits are per report; *_us are per call.
    """
    n = len(reports)
    by_report: dict[str, list[Span]] = {k: [] for k in reports}
    for s in spans:
        if s.report in by_report:
            by_report[s.report].append(s)
    spans = [s for group in by_report.values() for s in group]
    index = {s.sid: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def per_report(values) -> float:
        return sum(values) / n if n else 0.0

    def us(name) -> float:
        return _mean(s.seconds * 1e6 for s in named(name))

    def inside(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = index[span.parent]
            if span.name == ancestor:
                return True
        return False

    m: dict[str, tuple[float, str]] = {}
    extraction_runs = named("cli.extract_steps")
    m["extraction.calls"] = (per_report([len(extraction_runs)]), "calls")
    phases = []
    for group in by_report.values():
        calls = [s for s in group if s.name == "llm.complete" and s.info.get("kind") == "extraction"]
        if calls:
            phases.append(max(s.end for s in calls) - min(s.start for s in calls))
    m["extraction.phase_s"] = (per_report(phases), "s")
    m["extraction.build_prompt_us"] = (us("extraction.build_prompt"), "us")
    m["extraction.parse_us"] = (us("extraction.parse"), "us")
    extraction_builds = [s for s in named("extraction.build_prompt") if s.info]
    m["extraction.exemplars_mean"] = (_mean(s.info["exemplars"] for s in extraction_builds), "exemplars")
    m["extraction.runs_failed_share"] = (
        sum(s.failed for s in extraction_runs) / len(extraction_runs) if extraction_runs else 0.0, "ratio")

    completes = named("llm.complete")
    for kind in ("extraction", "guidance"):
        m[f"llm.calls.{kind}"] = (per_report(r["model_calls"][kind] for r in reports.values()), "calls")
    m["llm.wait_s"] = (per_report(s.seconds for s in completes), "s")
    for kind in ("extraction", "guidance"):
        m[f"llm.prompt_tokens.{kind}"] = (per_report(r["model_tokens"][kind] for r in reports.values()), "tokens")
    m["llm.fake_overhead_ms"] = (_mean(x * 1000 for r in reports.values() for x in r["model_overhead_s"]), "ms")

    builds = [s for s in named("guidance.build_prompt") if s.info]
    guidance_calls = sum(r["model_calls"]["guidance"] for r in reports.values())
    m["guidance.build_prompt_us"] = (us("guidance.build_prompt"), "us")
    m["guidance.parse_us"] = (us("guidance.parse"), "us")
    m["guidance.exemplars_mean"] = (_mean(s.info["exemplars"] for s in builds), "exemplars")
    m["guidance.elided_share"] = (_mean(float(s.info["elided"]) for s in builds), "ratio")
    m["guidance.useful_share"] = (
        sum(r["guided_events"] for r in reports.values()) / guidance_calls if guidance_calls else 0.0, "ratio")

    encodes = [s for s in named("gui.encode") if s.info]
    m["gui.parse_dump.calls"] = (per_report([len(named("gui.parse_dump"))]), "calls")
    m["gui.parse_dump_us"] = (us("gui.parse_dump"), "us")
    m["gui.encode.calls"] = (per_report([len(named("gui.encode"))]), "calls")
    m["gui.encode_us"] = (us("gui.encode"), "us")
    m["gui.digest.calls"] = (per_report([len(named("gui.digest"))]), "calls")
    m["gui.html_chars_mean"] = (_mean(s.info["chars"] for s in encodes), "chars")

    for op in DEVICE_OPS:
        m[f"device.calls.{op}"] = (per_report([len(named(f"device.{op}"))]), "calls")
    for op in DEVICE_OPS:
        m[f"device.wait_s.{op}"] = (per_report(s.seconds for s in named(f"device.{op}")), "s")
    for kind in ADB_KINDS:
        m[f"adb.calls.{kind}"] = (per_report(r["adb_calls"].get(kind, 0) for r in reports.values()), "calls")
    m["adb.calls"] = (per_report(sum(r["adb_calls"].values()) for r in reports.values()), "calls")
    runs = named("adb.run")
    handled = sum(r["adb_handler_s"] for r in reports.values())
    m["adb.client_ms"] = ((sum(s.seconds for s in runs) - handled) * 1000 / len(runs) if runs else 0.0, "ms")

    for key, unit in (("runs", "runs"), ("actions", "actions"), ("exploratory_hops", "hops"),
                      ("backtracks", "backtracks")):
        m[f"replay.{key}"] = (per_report(r["replay"][key] for r in reports.values()), unit)
    replays = named("cli.replay")
    # inside a replay, every Back press and restart belongs to a restore
    backs = [s for s in named("device.press_back") if inside(s, "cli.replay")]
    restarts = [s for s in named("device.restart") if inside(s, "cli.replay")]
    m["replay.restore.back_presses"] = (per_report([len(backs)]), "presses")
    m["replay.restore.restarts"] = (per_report([len(restarts)]), "restarts")
    prefixes = [s.info["gestures"] for s in named("replay.apply_gestures") if s.info]
    m["replay.prefix_gestures"] = (per_report(prefixes), "gestures")
    waited = [s for s in spans
              if (s.name == "llm.complete" or s.name.startswith("device."))
              and inside(s, "cli.replay") and not _nested_wait(s, index)]
    m["replay.self_s"] = (per_report([sum(s.seconds for s in replays) - sum(s.seconds for s in waited)]), "s")

    top = [s for s in spans if s.parent is None]
    m["cli.self_s"] = (per_report([sum(r["wall_s"] for r in reports.values()) - sum(s.seconds for s in top)]), "s")

    # what the layers above account for, against the mean traced report time
    accounted = (
        m["cli.self_s"][0] + m["llm.wait_s"][0] + m["replay.self_s"][0]
        + sum(m[f"device.wait_s.{op}"][0] for op in DEVICE_OPS)
        + per_report(s.seconds for s in named("extraction.build_prompt") + named("extraction.parse"))
    )
    mean_report = per_report(r["wall_s"] for r in reports.values())
    m["trace.residual_share"] = ((mean_report - accounted) / mean_report if mean_report else 0.0, "ratio")
    return m


def _nested_wait(span: Span, index: dict[int, Span]) -> bool:
    """True when a wait span sits inside another wait span (counted there)."""
    while span.parent is not None:
        span = index[span.parent]
        if span.name == "llm.complete" or span.name.startswith("device."):
            return True
    return False
