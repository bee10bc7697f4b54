"""Command line front end.

Three subcommands:

* extract: pull typed steps out of a bug report (multi-run with majority
  vote, since model output can vary between runs);
* replay: extract, then drive the steps on a simulated app or an adb
  device until the bug fires;
* encode: print the HTML encoding of a hierarchy dump.

Exit codes: 0 success (replay: bug triggered), 1 replay completed without
the bug, 2 usage errors, 3 runtime failures. Settings resolve as
flags > environment > config file > defaults. API keys are read from the
environment only and never reach stdout, files, or logs.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .device import AdbConfig, AdbDevice, DeviceSession, SimulatedApp, SimulatedDevice
from .errors import BugReplayError
from .exemplars import ExemplarCorpus
from .extraction import extract_steps
from .guidance import EXCLUSION_CLAUSE
from .gui import encode_gui, parse_dump
from .llm import HttpLlm, LlmClient, LlmConfig, TranscriptLlm
from .replay import Budgets, Outcome, ReplayTrace, replay
from .steps import BugReport, Step, render_steps, step_text

logger = logging.getLogger(__name__)

ENV_PREFIX = "BUGREPLAY_"
DEFAULT_API_KEY_ENV = "BUGREPLAY_API_KEY"


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything one invocation resolved to, after precedence."""

    command: str
    report_path: str | None = None
    out_base: str | None = None
    llm_backend: str = "http"
    transcript_path: str | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = DEFAULT_API_KEY_ENV
    temperature: float = 0.0
    corpus_path: str | None = None
    token_budget: int = 4096
    actions_budget: int = 50
    backtracks_budget: int = 10
    wall_budget: float = 600.0
    max_missing_depth: int = 2
    runs: int = 3
    seed: int | None = None
    device_backend: str = "simulated"
    app_path: str | None = None
    serial: str | None = None
    adb_path: str = "adb"
    package: str | None = None
    launch_command: str | None = None
    parallel: bool = False
    exclusion_clause: str = EXCLUSION_CLAUSE

    @property
    def budgets(self) -> Budgets:
        return Budgets(
            tokens=self.token_budget,
            actions=self.actions_budget,
            backtracks=self.backtracks_budget,
            wall_seconds=self.wall_budget,
            max_missing_depth=self.max_missing_depth,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bugreplay",
        description="Extract reproduction steps from bug reports and replay them on a device.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags and environment override it")
    common.add_argument("--llm", choices=["http", "transcript"], dest="llm_backend")
    common.add_argument("--transcript", dest="transcript_path", help="canned response file for --llm transcript")
    common.add_argument("--endpoint", help="chat completion endpoint URL")
    common.add_argument("--model", help="model name sent to the endpoint")
    common.add_argument("--api-key-env", dest="api_key_env",
                        help=f"environment variable holding the API key (default {DEFAULT_API_KEY_ENV})")
    common.add_argument("--temperature", type=float)
    common.add_argument("--corpus", dest="corpus_path", help="exemplar corpus file (default: built-in)")
    common.add_argument("--token-budget", dest="token_budget", type=int)
    common.add_argument("--runs", type=int, help="repeat runs to smooth model instability (default 3)")
    common.add_argument("--seed", type=int, help="recorded in output artifacts")
    common.add_argument("--out", dest="out_base", help="output base path (default: report stem in cwd)")
    common.add_argument("-v", "--verbose", action="store_true")

    p_extract = sub.add_parser("extract", parents=[common], help="extract steps from a bug report")
    p_extract.add_argument("report", help="bug report file (plain text, or JSON with id/text)")

    p_replay = sub.add_parser("replay", parents=[common], help="extract steps, then replay them")
    p_replay.add_argument("report")
    p_replay.add_argument("--device", choices=["simulated", "adb"], dest="device_backend")
    p_replay.add_argument("--app", dest="app_path", help="simulated app spec file")
    p_replay.add_argument("--serial", help="adb device serial")
    p_replay.add_argument("--adb-path", dest="adb_path")
    p_replay.add_argument("--package", help="app package name, for crash and restart handling")
    p_replay.add_argument("--launch", dest="launch_command", help="shell command that launches the app")
    p_replay.add_argument("--actions-budget", dest="actions_budget", type=int)
    p_replay.add_argument("--backtracks-budget", dest="backtracks_budget", type=int)
    p_replay.add_argument("--wall-budget", dest="wall_budget", type=float)
    p_replay.add_argument("--max-missing-depth", dest="max_missing_depth", type=int)
    p_replay.add_argument("--exclusion-clause", dest="exclusion_clause",
                          help="template appended to guidance queries, with an {ids} placeholder")
    p_replay.add_argument("--parallel", action="store_true",
                          help="run replays concurrently (simulated devices only)")

    p_encode = sub.add_parser("encode", parents=[common], help="print the HTML encoding of a dump")
    p_encode.add_argument("dump", help="UIAutomator dump XML file")
    return parser


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    return data


def _resolve(flag, file_cfg: dict, key: str, default, cast=None):
    """flag > BUGREPLAY_<KEY> environment variable > config file > default."""
    for candidate in (flag, os.environ.get(ENV_PREFIX + key.upper()), file_cfg.get(key)):
        if candidate is not None:
            return cast(candidate) if cast else candidate
    return default


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(getattr(args, "config", None))
    g = lambda name: getattr(args, name, None)
    cfg = RunConfig(
        command=args.command,
        report_path=g("report"),
        out_base=g("out_base"),
        llm_backend=_resolve(g("llm_backend"), file_cfg, "llm", "http"),
        transcript_path=_resolve(g("transcript_path"), file_cfg, "transcript", None),
        endpoint=_resolve(g("endpoint"), file_cfg, "endpoint", None),
        model=_resolve(g("model"), file_cfg, "model", None),
        api_key_env=_resolve(g("api_key_env"), file_cfg, "api_key_env", DEFAULT_API_KEY_ENV),
        temperature=_resolve(g("temperature"), file_cfg, "temperature", 0.0, float),
        corpus_path=_resolve(g("corpus_path"), file_cfg, "corpus", None),
        token_budget=_resolve(g("token_budget"), file_cfg, "token_budget", 4096, int),
        actions_budget=_resolve(g("actions_budget"), file_cfg, "actions_budget", 50, int),
        backtracks_budget=_resolve(g("backtracks_budget"), file_cfg, "backtracks_budget", 10, int),
        wall_budget=_resolve(g("wall_budget"), file_cfg, "wall_budget", 600.0, float),
        max_missing_depth=_resolve(g("max_missing_depth"), file_cfg, "max_missing_depth", 2, int),
        runs=_resolve(g("runs"), file_cfg, "runs", 3, int),
        seed=_resolve(g("seed"), file_cfg, "seed", None, int),
        device_backend=_resolve(g("device_backend"), file_cfg, "device", "simulated"),
        app_path=_resolve(g("app_path"), file_cfg, "app", None),
        serial=_resolve(g("serial"), file_cfg, "serial", None),
        adb_path=_resolve(g("adb_path"), file_cfg, "adb_path", "adb"),
        package=_resolve(g("package"), file_cfg, "package", None),
        launch_command=_resolve(g("launch_command"), file_cfg, "launch", None),
        parallel=bool(g("parallel")),
        exclusion_clause=_resolve(g("exclusion_clause"), file_cfg, "exclusion_clause", EXCLUSION_CLAUSE),
    )
    if cfg.runs < 1:
        raise _UsageError("--runs must be at least 1")
    return cfg


def _load_report(path: str) -> BugReport:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read report {path}: {exc}") from exc
    try:
        data = json.loads(text)
        if isinstance(data, dict) and "text" in data:
            return BugReport(id=str(data.get("id", p.stem)), raw_text=data["text"])
    except ValueError:
        pass
    try:
        return BugReport(id=p.stem, raw_text=text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_corpus(cfg: RunConfig) -> ExemplarCorpus:
    if cfg.corpus_path:
        try:
            corpus = ExemplarCorpus.load(cfg.corpus_path)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"cannot load corpus {cfg.corpus_path}: {exc}") from exc
    else:
        corpus = ExemplarCorpus.builtin()
    if not corpus.extraction:
        raise _UsageError("corpus has no extraction exemplars")
    if cfg.command == "replay" and not corpus.guidance:
        raise _UsageError("corpus has no guidance exemplars")
    return corpus


def _make_llm(cfg: RunConfig) -> LlmClient:
    llm_config = LlmConfig(
        endpoint=cfg.endpoint or "",
        model=cfg.model or "",
        api_key=os.environ.get(cfg.api_key_env),
        max_tokens=cfg.token_budget,
        temperature=cfg.temperature,
    )
    if cfg.llm_backend == "transcript":
        if not cfg.transcript_path:
            raise _UsageError("--llm transcript requires --transcript")
        try:
            return TranscriptLlm.from_file(cfg.transcript_path, config=llm_config)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"cannot load transcript {cfg.transcript_path}: {exc}") from exc
    if not cfg.endpoint:
        raise _UsageError("--llm http requires --endpoint (or BUGREPLAY_ENDPOINT)")
    return HttpLlm(llm_config)


def _out_base(cfg: RunConfig) -> Path:
    if cfg.out_base:
        return Path(cfg.out_base)
    return Path.cwd() / Path(cfg.report_path).stem


def _step_dict(step: Step) -> dict:
    return {
        "index": step.index,
        "action": step.action.value,
        "component": step.component,
        "value": step.value,
        "direction": step.direction.value if step.direction else None,
        "text": step_text(step),
    }


def _order_dependent(llm: LlmClient) -> bool:
    """True when answers depend on request order, so requests must go out
    one at a time through the one client."""
    return isinstance(llm, TranscriptLlm) and llm.mode == "sequence"


def _run_extraction(cfg: RunConfig, report: BugReport, llm: LlmClient, corpus: ExemplarCorpus):
    """All runs plus the majority pick. Ties go to the earliest run.

    Runs go out concurrently, each on its own client, unless the client
    is order dependent; results keep run order either way.
    """
    def attempt(client: LlmClient) -> list[Step] | BugReplayError:
        try:
            return extract_steps(report, client, corpus, cfg.token_budget)
        except BugReplayError as exc:
            return exc

    if _order_dependent(llm):
        outcomes = [attempt(llm) for _ in range(cfg.runs)]
    else:
        clients = [llm] + [_make_llm(cfg) for _ in range(cfg.runs - 1)]
        with ThreadPoolExecutor(max_workers=cfg.runs) as pool:
            outcomes = list(pool.map(attempt, clients))
    results: list[dict] = []
    for run, outcome in enumerate(outcomes, 1):
        if isinstance(outcome, BugReplayError):
            results.append({"ok": False, "error": f"{type(outcome).__name__}: {outcome}"})
            logger.warning("extraction run %d failed: %s", run, outcome)
        else:
            results.append({"ok": True, "steps": [_step_dict(s) for s in outcome]})
    ok = [steps for steps in outcomes if isinstance(steps, list) and steps]
    if not ok:
        return None, results
    winner_text, _ = Counter(render_steps(steps) for steps in ok).most_common(1)[0]
    winner = next(steps for steps in ok if render_steps(steps) == winner_text)
    return winner, results


def cmd_extract(cfg: RunConfig) -> int:
    report = _load_report(cfg.report_path)
    corpus = _load_corpus(cfg)
    llm = _make_llm(cfg)
    steps, results = _run_extraction(cfg, report, llm, corpus)
    if steps is None:
        print("extraction failed on every run:", file=sys.stderr)
        for i, r in enumerate(results, 1):
            print(f"  run {i}: {r.get('error', '?')}", file=sys.stderr)
        return 3
    base = _out_base(cfg)
    base.parent.mkdir(parents=True, exist_ok=True)
    text = render_steps(steps) + "\n"
    Path(f"{base}.steps.txt").write_text(text, encoding="utf-8")
    artifact = {
        "report_id": report.id,
        "majority": [_step_dict(s) for s in steps],
        "runs": results,
        "seed": cfg.seed,
    }
    Path(f"{base}.steps.json").write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _make_device(cfg: RunConfig) -> DeviceSession:
    if cfg.device_backend == "simulated":
        if not cfg.app_path:
            raise _UsageError("--device simulated requires --app")
        try:
            app = SimulatedApp.load(cfg.app_path)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"cannot load app spec {cfg.app_path}: {exc}") from exc
        return SimulatedDevice(app)
    return AdbDevice(AdbConfig(
        serial=cfg.serial,
        adb_path=cfg.adb_path,
        package=cfg.package,
        launch_command=cfg.launch_command,
    ))


def _replay_once(cfg: RunConfig, steps: list[Step], llm: LlmClient,
                 corpus: ExemplarCorpus, report_id: str) -> ReplayTrace:
    device = _make_device(cfg)
    try:
        if cfg.device_backend == "adb":
            device.restart()
        return replay(
            steps, device, llm, corpus, cfg.budgets, report_id,
            exclusion_clause=cfg.exclusion_clause,
        )
    finally:
        device.close()


def cmd_replay(cfg: RunConfig) -> int:
    report = _load_report(cfg.report_path)
    corpus = _load_corpus(cfg)
    llm = _make_llm(cfg)
    steps, extraction_runs = _run_extraction(cfg, report, llm, corpus)
    base = _out_base(cfg)
    base.parent.mkdir(parents=True, exist_ok=True)
    artifact = {
        "report_id": report.id,
        "extraction_runs": extraction_runs,
        "steps": None,
        "runs": [],
        "winner": None,
        "seed": cfg.seed,
    }
    trace_path = Path(f"{base}.trace.json")
    if steps is None:
        trace_path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
        print("extraction failed on every run; nothing to replay", file=sys.stderr)
        return 3
    artifact["steps"] = [_step_dict(s) for s in steps]

    traces: list[ReplayTrace] = []
    if cfg.parallel:
        if cfg.device_backend != "simulated":
            raise _UsageError("--parallel requires the simulated device backend")
        # each worker loads its own app instance and its own llm so no
        # state is shared; order-dependent clients cannot support this
        if _order_dependent(llm):
            raise _UsageError("--parallel needs a keyed transcript or the http backend")
        with ThreadPoolExecutor(max_workers=cfg.runs) as pool:
            futures = [
                pool.submit(_replay_once, cfg, steps, _make_llm(cfg), corpus, report.id)
                for _ in range(cfg.runs)
            ]
            traces = [f.result() for f in futures]
    else:
        for _ in range(cfg.runs):
            trace = _replay_once(cfg, steps, llm, corpus, report.id)
            traces.append(trace)
            if trace.outcome is Outcome.BUG_TRIGGERED:
                break

    winner = next((i for i, t in enumerate(traces) if t.outcome is Outcome.BUG_TRIGGERED), None)
    artifact["runs"] = [t.to_dict() for t in traces]
    artifact["winner"] = winner
    trace_path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")

    for i, t in enumerate(traces, 1):
        detail = f" ({t.error_detail})" if t.error_detail else ""
        print(f"run {i}: {t.outcome.value}{detail}, "
              f"{len(t.events)} events, {t.actions_used} actions, "
              f"{t.backtracks_used} backtracks")
    if winner is not None:
        print(f"bug triggered (run {winner + 1}); trace written to {trace_path}")
        return 0
    if any(t.outcome in (Outcome.STEPS_EXHAUSTED_NO_BUG, Outcome.BUDGET_EXHAUSTED) for t in traces):
        print(f"bug not triggered; trace written to {trace_path}")
        return 1
    print(f"replay failed; trace written to {trace_path}", file=sys.stderr)
    return 3


def cmd_encode(cfg: RunConfig, dump_path: str) -> int:
    try:
        xml = Path(dump_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read dump {dump_path}: {exc}") from exc
    encoded = encode_gui(parse_dump(xml))
    print(encoded.html)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = _build_run_config(args)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "replay":
            return cmd_replay(cfg)
        return cmd_encode(cfg, args.dump)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BugReplayError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
