"""Round-trip benchmark for the bugreplay CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--latency-scale F] [--quick]

Each report is one in-process `bugreplay.cli.main([...])` invocation, run in
a closed loop by one client. The CLI talks to a fake chat endpoint over
`--llm http`; `replay` also drives an emulated phone through a fake adb
(`--device adb --adb-path <native client>`). The fakes sleep the ROADMAP
latency model (800 ms per model call, 1.5 s per `uiautomator dump`, 100 ms
per other adb call) times --latency-scale.

Workloads (see workloads.py):
  extract-vote   `extract --runs 3`; one run of half the reports deviates.
  replay-direct  `replay --runs 3`; every target is verbatim and unique.
  replay-detour  `replay --runs 1`; omitted steps, paraphrased or duplicated
                 targets, decoys that end in dead ends.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run interleaved with
an untraced one. Every invocation's output is checked. --quick runs one
report per workload with zero latency; it is the smoke test's mode.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from emulator import AdbServer, Phone  # noqa: E402
from model import FakeModel  # noqa: E402
from workloads import WORKLOADS, Scenario, generate, precheck  # noqa: E402

# ROADMAP latency model, in seconds, before scaling
MODEL_S, DUMP_S, ADB_CALL_S = 0.8, 1.5, 0.1
PROXY_VARS = {"http_proxy", "https_proxy", "all_proxy", "no_proxy", "ftp_proxy"}
ADB_PORT_VAR = "PERFBENCH_ADB_PORT"
BUILD = ROOT / ".bench_build"
SPANS = ROOT / ".perfbench_spans"
INVOCATION_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Seconds one pass over a workload's pool takes at the default latency
# scale. A run makes round(--seconds / PASS_S) passes, so the sample count,
# and with it the tail percentile, does not depend on how fast a run goes.
PASS_S = {"extract-vote": 7.5, "replay-direct": 24.0, "replay-detour": 17.5}
SETUP_CODE = """
import resource, time
t = time.perf_counter()
import bugreplay.cli
import requests
from bugreplay.exemplars import ExemplarCorpus
ExemplarCorpus.builtin()
print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# The unit of every end-to-end metric.
E2E_UNITS = {
    "report_s.p50": "s", "report_s.tail": "s", "model_calls_per_report": "calls",
    "prompt_tokens_per_report": "tokens", "round_trips_per_report": "calls",
    "correct_share": "ratio", "completed_share": "ratio", "setup_s": "s", "setup_rss_mb": "MB",
}


@dataclass
class Result:
    """What one invocation did, as seen by the fakes and the checks."""

    scenario: str
    key: str
    wall_s: float = 0.0
    code: int | None = None
    failed: bool = False
    timed_out: bool = False
    problems: list[str] = field(default_factory=list)
    model_calls: dict[str, int] = field(default_factory=lambda: {"extraction": 0, "guidance": 0})
    model_tokens: dict[str, int] = field(default_factory=lambda: {"extraction": 0, "guidance": 0})
    model_overhead_s: list[float] = field(default_factory=list)
    adb_calls: dict[str, int] = field(default_factory=dict)
    adb_handler_s: float = 0.0
    replay: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("runs", "actions", "exploratory_hops", "backtracks"), 0))
    guided_events: int = 0

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    @property
    def counts(self) -> tuple[int, int, int]:
        return sum(self.model_calls.values()), sum(self.model_tokens.values()), sum(self.adb_calls.values())


class _CurrentStderr:
    """Log stream that follows sys.stderr, so each invocation's log lines
    land in that invocation's captured stderr."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


class Bench:
    """The fakes, the generated inputs and one closed-loop client."""

    def __init__(self, seed: int, pool: list[Scenario], scale: float, work: Path, client: Path):
        self.pool = pool
        self.work = work
        self.client = client
        self.secret = f"sk-perfbench-{seed:08x}-do-not-log"
        self.model = FakeModel(MODEL_S * scale)
        self.adb = AdbServer(DUMP_S * scale, ADB_CALL_S * scale)
        self.invocations = 0
        self.endpoint = ""
        self._first_counts: dict[str, tuple] = {}

    def start(self) -> None:
        (self.work / "inputs").mkdir(parents=True)
        (self.work / "out").mkdir()
        for sc in self.pool:
            (self.work / "inputs" / f"{sc.id}.txt").write_text(sc.report, encoding="utf-8")
        self.endpoint = self.model.start()
        os.environ[ADB_PORT_VAR] = str(self.adb.start())

    def close(self) -> None:
        self.model.close()
        self.adb.close()

    def argv(self, sc: Scenario, out: Path) -> list[str]:
        common = ["--llm", "http", "--endpoint", self.endpoint, "--out", str(out / sc.id)]
        report = str(self.work / "inputs" / f"{sc.id}.txt")
        if sc.app is None:
            return ["extract", report, *common, "--runs", "3"]
        runs = "3" if sc.workload == "replay-direct" else "1"
        return ["replay", report, *common, "--runs", runs, "--device", "adb",
                "--adb-path", str(self.client), "--serial", _serial(sc),
                "--package", sc.app.package, "--launch", f"am start -n {sc.app.activity}"]

    def invoke(self, sc: Scenario, tracer=None) -> Result:
        from bugreplay import cli

        self.invocations += 1
        key = f"{sc.id}#{self.invocations}"
        result = Result(sc.id, key)
        out = self.work / "out" / f"{self.invocations:06d}"
        out.mkdir()
        argv = self.argv(sc, out)
        for name in list(os.environ):
            if name.startswith("BUGREPLAY_") or name.lower() in PROXY_VARS:
                del os.environ[name]
        os.environ["BUGREPLAY_API_KEY"] = self.secret
        self.model.begin(sc)
        self.adb.phones = {_serial(sc): Phone(sc.app)} if sc.app else {}
        model_mark, adb_mark = len(self.model.calls), len(self.adb.calls)
        box: dict = {}

        def target():
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    box["code"] = cli.main(argv)
            except BaseException as exc:  # the benchmark records every way an invocation ends
                box["error"] = f"{type(exc).__name__}: {exc}"
            box["stdout"], box["stderr"] = stdout.getvalue(), stderr.getvalue()

        worker = threading.Thread(target=target, daemon=True)
        # each invocation stands for a fresh CLI process: start it with no
        # garbage left by earlier ones
        gc.collect()
        if tracer is not None:
            tracer.report = key
            tracer.install()
        started = time.perf_counter()
        try:
            worker.start()
            worker.join(INVOCATION_TIMEOUT_S)
            result.wall_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        if worker.is_alive():
            result.failed = result.timed_out = True
            result.problems.append("timed out")
            return result
        result.code = box.get("code")
        if "error" in box or result.code == 3:
            result.failed = True
            result.problems.append(box.get("error") or f"exit 3: {box['stderr'][-300:]}")
        for call in self.model.calls[model_mark:]:
            if call.authorization != f"Bearer {self.secret}":
                result.problems.append("a model request lacked the API key")
            result.model_calls[call.kind] += 1
            result.model_tokens[call.kind] += call.tokens
            result.model_overhead_s.append(call.handler_s - self.model.latency)
        for call in self.adb.calls[adb_mark:]:
            result.adb_calls[call.kind] = result.adb_calls.get(call.kind, 0) + 1
            result.adb_handler_s += call.handler_s
        self._check(sc, result, out, box)
        shutil.rmtree(out)
        return result

    def _check(self, sc: Scenario, result: Result, out: Path, box: dict) -> None:
        problems = result.problems
        if result.code != 0:
            problems.append(f"exit code {result.code}, expected 0")
        stdout, stderr = box.get("stdout", ""), box.get("stderr", "")
        files = {p: p.read_text(encoding="utf-8", errors="replace") for p in out.rglob("*") if p.is_file()}
        if any(self.secret in text for text in (stdout, stderr, *files.values())):
            problems.append("the API key reached the output")
        base = out / sc.id
        if sc.app is None:
            steps = files.get(Path(f"{base}.steps.txt"))
            if steps != sc.expected_steps:
                problems.append(f"steps.txt is {steps!r}, expected the majority list")
            if stdout != sc.expected_steps:
                problems.append("stdout is not the majority list")
        else:
            self._check_replay(sc, result, files.get(Path(f"{base}.trace.json")))
        first = self._first_counts.setdefault(sc.id, result.counts)
        if first != result.counts:
            problems.append(f"round trips {result.counts} differ from the first run's {first}")

    def _check_replay(self, sc: Scenario, result: Result, text: str | None) -> None:
        if text is None:
            result.problems.append("no trace.json")
            return
        artifact = json.loads(text)
        if [s["text"] for s in artifact.get("steps") or []] != [s.text() for s in sc.steps]:
            result.problems.append("replayed steps differ from the report's")
        runs = artifact.get("runs", [])
        result.replay["runs"] = len(runs)
        for run in runs:
            result.replay["actions"] += run["actions_used"]
            result.replay["backtracks"] += run["backtracks_used"]
            result.replay["exploratory_hops"] += sum(e["exploratory"] for e in run["events"])
            result.guided_events += sum(e["resolved_id"] is not None for e in run["events"])
        winner = artifact.get("winner")
        if not isinstance(winner, int):
            result.problems.append("no winning run")
            return
        phone = Phone(sc.app)
        try:
            phone.apply(runs[winner]["gestures"])
        except (ValueError, TypeError, KeyError) as exc:
            result.problems.append(f"winning gestures do not replay: {exc}")
            return
        if not phone.crashed:
            result.problems.append("winning gestures do not reach the crash on a fresh phone")


def _serial(sc: Scenario) -> str:
    return f"emulator-{sc.id}"


def closed_loop(bench: Bench, passes: int, traced=None) -> tuple[list[Result], list[Result]]:
    """Invoke the whole pool in order, passes times, so that every scenario
    weighs the same. With a tracer, each report runs untraced and then
    traced; returns (untraced, traced) results."""
    plain, traced_results = [], []
    for _ in range(passes):
        for sc in bench.pool:
            plain.append(bench.invoke(sc))
            if traced is not None and not plain[-1].timed_out:
                traced_results.append(bench.invoke(sc, traced))
            if any(r.timed_out for r in plain[-1:] + traced_results[-1:]):
                return plain, traced_results
    return plain, traced_results


def build_adb_client() -> Path:
    """Build (or find up to date) the native fake adb client."""
    proc = subprocess.run(["make", "-s", "-C", str(HERE / "adbclient"), f"OUT={BUILD}"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot build the adb client: {proc.stderr.strip()[-500:]}")
    return BUILD / "perfbench-adb"


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median seconds and peak RSS (MB) of the CLI's set-up in fresh interpreters."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BUGREPLAY_") and k.lower() not in PROXY_VARS}
    env["PYTHONPATH"] = str(SRC)
    times, rss = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        seconds, kb = proc.stdout.split()
        times.append(float(seconds))
        rss.append(int(kb) / 1024)
    return statistics.median(times), statistics.median(rss)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the minimum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[max(0, n - TAIL_BEYOND - 1)], max(0.0, 100.0 * (n - TAIL_BEYOND) / n)


def end_to_end(results: list[Result], walls: list[float], setup: tuple[float, float]) -> dict[str, float]:
    firsts = {}
    for r in results:
        firsts.setdefault(r.scenario, r)
    distinct = list(firsts.values())
    slow, pct = tail(walls)
    model_calls = statistics.fmean(r.counts[0] for r in distinct)
    adb_calls = statistics.fmean(r.counts[2] for r in distinct)
    failed = sum(r.failed for r in results)
    print(f"# reports {len(results)}, distinct {len(distinct)}; tail is the p{pct:.1f} "
          f"of {len(walls)} completed reports")
    print(f"# adb_calls_per_report {adb_calls:.4f} calls")
    print(f"# failed_share {failed / len(results):.4f} ratio")
    return {
        "report_s.p50": statistics.median(walls),
        "report_s.tail": slow,
        "model_calls_per_report": model_calls,
        "prompt_tokens_per_report": statistics.fmean(r.counts[1] for r in distinct),
        "round_trips_per_report": model_calls + adb_calls,
        "correct_share": sum(r.correct for r in results) / len(results),
        "completed_share": 1 - failed / len(results),
        "setup_s": setup[0],
        "setup_rss_mb": setup[1],
    }


def per_layer(plain: list[Result], traced: list[Result], spans) -> dict[str, tuple[float, str]]:
    from tracing import layer_metrics

    reports = {
        r.key: {
            "wall_s": r.wall_s, "model_calls": r.model_calls, "model_tokens": r.model_tokens,
            "model_overhead_s": r.model_overhead_s, "adb_calls": r.adb_calls,
            "adb_handler_s": r.adb_handler_s, "replay": r.replay, "guided_events": r.guided_events,
        }
        for r in traced if not r.failed
    }
    metrics = layer_metrics(spans, reports)
    untraced = statistics.median(r.wall_s for r in plain if not r.failed)
    with_trace = statistics.median(r.wall_s for r in traced if not r.failed)
    metrics["trace.overhead_share"] = (with_trace / untraced - 1, "ratio")
    print(f"# traced report_s.p50 {with_trace:.6f} s against untraced {untraced:.6f} s "
          f"over {len(traced)} and {len(plain)} reports")
    return metrics


def write_spans(spans, path: Path) -> None:
    """One JSON object per span: name, start, end, parent, report."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                                  "parent": s.parent, "report": s.report, "failed": s.failed,
                                  **s.info}) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-scale", type=float, default=0.06,
                        help="multiplies the ROADMAP latency model (default 0.06)")
    parser.add_argument("--quick", action="store_true",
                        help="one report, zero latency, no minimum duration")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bugreplay" / "cli.py").is_file():
        print(f"error: no bugreplay sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bugreplay import cli

    if Path(cli.__file__).resolve().parent != SRC / "bugreplay":
        print(f"error: imported bugreplay from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scale = 0.0 if args.quick else args.latency_scale
    passes = 1 if args.quick else max(1, round(args.seconds / PASS_S[args.workload]))
    pool = generate(args.workload, args.seed, quick=args.quick)
    try:
        for sc in pool:
            precheck(sc)
    except AssertionError as exc:
        print(f"error: generated workload fails its pre-check: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(level=logging.WARNING, stream=_CurrentStderr(),
                        format="%(levelname)s %(name)s: %(message)s")
    client = build_adb_client()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.seed, pool, scale, work, client)
    try:
        setup = measure_setup(1 if args.quick else SETUP_REPEATS)
        bench.start()
        warm_up = bench.invoke(pool[0])  # imports and first-use set-up, not timed
        gc.freeze()  # keep the harness's own objects out of the timed collections
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        plain, traced = closed_loop(bench, max(1, round(passes / 2)) if tracer else passes, tracer)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    results = plain + traced
    bad = [r for r in [warm_up, *results] if not r.correct]
    for r in bad[:5]:
        print(f"# {r.key}: {'; '.join(r.problems)}", file=sys.stderr)
    walls = [r.wall_s for r in plain if not r.failed]
    if not walls or (tracer and not any(not r.failed for r in traced)):
        print("error: no invocation completed; nothing to measure", file=sys.stderr)
        return 1
    if tracer:
        metrics = per_layer(plain, traced, tracer.spans)
        write_spans(tracer.spans, SPANS / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: (value, E2E_UNITS[name]) for name, value in end_to_end(results, walls, setup).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
