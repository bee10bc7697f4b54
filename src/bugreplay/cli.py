"""Command line front end.

Three subcommands:

* extract: pull typed steps out of a bug report (multi-run with majority
  vote, since model output can vary between runs);
* replay: extract, then drive each distinct step list once, in vote
  order, on a simulated app or an adb device until the bug fires;
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
import math
import os
import sys
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .device import AdbDevice, DeviceSession, SimulatedApp, SimulatedDevice
from .errors import BugReplayError, DeviceError
from .exemplars import ExemplarCorpus
from .extraction import extract_steps
from .gui import ViewNode, encode_gui, parse_dump
from .llm import HttpLlm, LlmClient, TranscriptLlm
from .replay import Budgets, Outcome, ReplayTrace, replay
from .steps import BugReport, Step, render_steps, step_text

logger = logging.getLogger(__name__)

ENV_PREFIX = "BUGREPLAY_"
DEFAULT_API_KEY_ENV = "BUGREPLAY_API_KEY"
# the most extraction runs in flight at once, so that a large --runs
# does not start as many threads and concurrent requests
EXTRACTION_WORKERS = 4


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    """An artifact could not be written: a runtime failure."""


@dataclass
class RunConfig:
    """Everything one invocation resolved to, after precedence. Each
    setting field is named after its flag's dest."""

    command: str
    report_path: str | None = None
    out: str | None = None
    llm: str = "http"
    transcript: str | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = DEFAULT_API_KEY_ENV
    temperature: float = 0.0
    corpus: str | None = None
    token_budget: int = Budgets.tokens
    actions_budget: int = Budgets.actions
    backtracks_budget: int = Budgets.backtracks
    wall_budget: float = Budgets.wall_seconds
    max_missing_depth: int = Budgets.max_missing_depth
    runs: int = 3
    seed: int | None = None
    device: str = "simulated"
    app: str | None = None
    serial: str | None = None
    adb_path: str = "adb"
    package: str | None = None
    launch: str | None = None

    @property
    def budgets(self) -> Budgets:
        return Budgets(
            tokens=self.token_budget,
            actions=self.actions_budget,
            backtracks=self.backtracks_budget,
            wall_seconds=self.wall_budget,
            max_missing_depth=self.max_missing_depth,
        )


def _checked(cast, requirement: str, ok):
    """An option type: `cast`, refusing values `ok` turns down. Each `ok`
    compares so that NaN, which fails every comparison, is refused."""
    def convert(raw: str):
        value = cast(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {raw!r}")
        return value
    convert.__name__ = cast.__name__
    return convert


def _non_negative(cast):
    return _checked(cast, "a non-negative number", lambda value: value >= 0)


_positive = _checked(int, "a positive number", lambda value: value > 0)


def _build_parser() -> argparse.ArgumentParser:
    """The parser. Every value-taking option of extract and replay other
    than --config is a setting; the namespace carries them as `settings`,
    and the dests of both subcommands' settings as `config_keys`, so one
    config file serves both. encode takes a dump and -v only."""
    parser = argparse.ArgumentParser(
        prog="bugreplay",
        description="Extract reproduction steps from bug reports and replay them on a device.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags and environment override it")
    common.add_argument("--llm", choices=["http", "transcript"])
    common.add_argument("--transcript", help="canned response file for --llm transcript")
    common.add_argument("--endpoint", help="chat completion endpoint URL")
    common.add_argument("--model", help="model name sent to the endpoint")
    common.add_argument("--api-key-env",
                        help=f"environment variable holding the API key (default {DEFAULT_API_KEY_ENV})")
    common.add_argument("--temperature", type=_checked(float, "a finite non-negative number",
                                                       lambda value: 0 <= value < math.inf))
    common.add_argument("--corpus", help="exemplar corpus file (default: built-in)")
    common.add_argument("--token-budget", type=_positive)
    common.add_argument("--runs", type=_positive, help="extraction runs, to smooth model instability (default 3)")
    common.add_argument("--seed", type=int, help="recorded in output artifacts")
    common.add_argument("--out", help="output base path (default: report stem in cwd)")
    common.add_argument("-v", "--verbose", action="store_true")

    p_extract = sub.add_parser("extract", parents=[common], help="extract steps from a bug report")
    p_extract.add_argument("report", help="bug report file (plain text, or JSON with id/text)")

    p_replay = sub.add_parser("replay", parents=[common], help="extract steps, then replay them")
    p_replay.add_argument("report")
    p_replay.add_argument("--device", choices=["simulated", "adb"])
    p_replay.add_argument("--app", help="simulated app spec file")
    p_replay.add_argument("--serial", help="adb device serial")
    p_replay.add_argument("--adb-path")
    p_replay.add_argument("--package", help="app package name, for crash and restart handling")
    p_replay.add_argument("--launch", help="one command and its arguments that launch the app")
    p_replay.add_argument("--actions-budget", type=_non_negative(int))
    p_replay.add_argument("--backtracks-budget", type=_non_negative(int))
    p_replay.add_argument("--wall-budget", type=_non_negative(float))
    p_replay.add_argument("--max-missing-depth", type=_non_negative(int))

    settings = {
        p: [a for a in p._actions if a.option_strings and a.nargs != 0 and a.dest != "config"]
        for p in (p_extract, p_replay)
    }
    config_keys = {a.dest for actions in settings.values() for a in actions}
    for p, actions in settings.items():
        p.set_defaults(settings=actions, config_keys=config_keys)

    p_encode = sub.add_parser("encode", help="print the HTML encoding of a dump")
    p_encode.add_argument("dump", help="UIAutomator dump XML file")
    p_encode.add_argument("-v", "--verbose", action="store_true")
    return parser


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(what: str, path: str, reader):
    """reader(path), where any failure to read the file, or a file of the
    wrong shape or nested too deep, is a usage error that names it."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError, BugReplayError) as exc:
        raise _UsageError(f"cannot {what} {path}: {exc}") from exc


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    data = _load("read config file", path, lambda p: json.loads(_read_text(p)))
    if not isinstance(data, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    return data


def _convert(action: argparse.Action, raw, source: str):
    """raw as the flag would have taken it, through its type and choices."""
    try:
        value = action.type(str(raw)) if action.type else str(raw)
    except ValueError:
        raise _UsageError(f"{source}: invalid {action.type.__name__} value: {raw!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{source}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise _UsageError(f"{source}: invalid choice {raw!r} (choose from {', '.join(action.choices)})")
    return value


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Each setting the subcommand takes resolves as flag >
    BUGREPLAY_<DEST> environment variable > config key <dest> > default."""
    file_cfg = _load_config_file(args.config)
    unknown = sorted(set(file_cfg) - args.config_keys)
    if unknown:
        raise _UsageError(f"config file {args.config}: not a setting: {', '.join(map(repr, unknown))}")
    values = {}
    for action in args.settings:
        name, env = action.dest, ENV_PREFIX + action.dest.upper()
        value = getattr(args, name)
        if value is None and env in os.environ:
            value = _convert(action, os.environ[env], env)
        if value is None and file_cfg.get(name) is not None:
            value = _convert(action, file_cfg[name], f"config file {args.config}: key {name!r}")
        if value is not None:
            values[name] = value
    return RunConfig(command=args.command, report_path=args.report, **values)


def _load_report(path: str) -> BugReport:
    p = Path(path)
    text = _load("read report", path, _read_text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    try:
        if isinstance(data, dict) and "text" in data:
            return BugReport(id=str(data.get("id", p.stem)), raw_text=data["text"])
        return BugReport(id=p.stem, raw_text=text)
    except ValueError as exc:
        raise _UsageError(f"report {path}: {exc}") from exc


def _load_corpus(cfg: RunConfig) -> ExemplarCorpus:
    corpus = _load("load corpus", cfg.corpus, ExemplarCorpus.load) if cfg.corpus else ExemplarCorpus.builtin()
    if not corpus.extraction:
        raise _UsageError("corpus has no extraction exemplars")
    if cfg.command == "replay" and not corpus.guidance:
        raise _UsageError("corpus has no guidance exemplars")
    return corpus


def _make_llm(cfg: RunConfig) -> LlmClient:
    if cfg.llm == "transcript":
        if not cfg.transcript:
            raise _UsageError("--llm transcript requires --transcript")
        return _load("load transcript", cfg.transcript, TranscriptLlm.from_file)
    if not cfg.endpoint:
        raise _UsageError("--llm http requires --endpoint (or BUGREPLAY_ENDPOINT)")
    try:
        # the option types have already refused each max_tokens and temperature HttpLlm would refuse
        return HttpLlm(cfg.endpoint, model=cfg.model or "", api_key=os.environ.get(cfg.api_key_env),
                       max_tokens=cfg.token_budget, temperature=cfg.temperature)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _out_base(cfg: RunConfig) -> Path:
    """The artifacts' base path. Its directory is made here, so that an
    --out that cannot be used fails before any model call or device start."""
    base = Path(cfg.out) if cfg.out else Path.cwd() / Path(cfg.report_path).stem
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out: cannot create directory {base.parent}: {exc}") from exc
    return base


def _write(path: Path, artifact: str | dict) -> None:
    """Write one artifact, a dict as indented JSON."""
    text = artifact if isinstance(artifact, str) else json.dumps(artifact, indent=2) + "\n"
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc


def _step_dict(step: Step) -> dict:
    return {
        "index": step.index,
        "action": step.action.value,
        "component": step.component,
        "value": step.value,
        "direction": step.direction.value if step.direction else None,
        "text": step_text(step),
    }


def _run_extraction(cfg: RunConfig, report: BugReport, llm: LlmClient, corpus: ExemplarCorpus):
    """The candidates, each distinct successful step list once, most
    votes first and ties to the earliest run, plus every run's result.

    The runs share the one client and go out concurrently, at most
    EXTRACTION_WORKERS at once, or one at a time for a strict-sequence
    transcript, whose answers follow request order; results keep run
    order either way.
    """
    def attempt(_run: int) -> list[Step] | BugReplayError:
        try:
            return extract_steps(report, llm, corpus, cfg.token_budget)
        except BugReplayError as exc:
            return exc

    in_order = isinstance(llm, TranscriptLlm) and llm.mode == "sequence"
    with ThreadPoolExecutor(max_workers=1 if in_order else EXTRACTION_WORKERS) as pool:
        outcomes = list(pool.map(attempt, range(cfg.runs)))
    results: list[dict] = []
    for run, outcome in enumerate(outcomes, 1):
        if isinstance(outcome, BugReplayError):
            results.append({"ok": False, "error": f"{type(outcome).__name__}: {outcome}"})
            logger.warning("extraction run %d failed: %s", run, outcome)
        else:
            results.append({"ok": True, "steps": [_step_dict(s) for s in outcome]})
    ok = [steps for steps in outcomes if isinstance(steps, list) and steps]
    texts = [render_steps(steps) for steps in ok]
    by_text = dict(zip(texts, ok))
    # most_common keeps first-seen order among equal counts
    return [by_text[text] for text, _ in Counter(texts).most_common()], results


def cmd_extract(cfg: RunConfig) -> int:
    report = _load_report(cfg.report_path)
    corpus = _load_corpus(cfg)
    llm = _make_llm(cfg)
    base = _out_base(cfg)
    candidates, results = _run_extraction(cfg, report, llm, corpus)
    if not candidates:
        print("extraction failed on every run:", file=sys.stderr)
        for i, r in enumerate(results, 1):
            print(f"  run {i}: {r.get('error', '?')}", file=sys.stderr)
        return 3
    steps = candidates[0]
    text = render_steps(steps) + "\n"
    _write(Path(f"{base}.steps.txt"), text)
    _write(Path(f"{base}.steps.json"), {
        "report_id": report.id,
        "majority": [_step_dict(s) for s in steps],
        "runs": results,
        "seed": cfg.seed,
    })
    sys.stdout.write(text)
    return 0


def _make_device(cfg: RunConfig) -> DeviceSession:
    if cfg.device == "simulated":
        if not cfg.app:
            raise _UsageError("--device simulated requires --app")
        return SimulatedDevice(_load("load app spec", cfg.app, SimulatedApp.load))
    if cfg.package and cfg.launch is None:
        # a restart would force-stop the app and never start it again
        raise _UsageError("--package needs --launch, the command that starts the app again")
    try:
        return AdbDevice(serial=cfg.serial, adb_path=cfg.adb_path, package=cfg.package,
                         launch_command=cfg.launch)
    except ValueError as exc:
        raise _UsageError(f"--launch: {exc}") from exc


def _fresh_start(device: DeviceSession) -> ViewNode:
    """Restart the app and dump its first screen."""
    device.perform([("restart",)])
    return device.dump_hierarchy()


def _replay_runs(cfg: RunConfig, candidates: list[list[Step]], llm: LlmClient, corpus: ExemplarCorpus,
                 report_id: str, device: DeviceSession, started: Future) -> list[ReplayTrace]:
    """Each candidate once, in order, on a fresh start of `device`, until
    one triggers the bug. The first candidate's fresh start is `started`,
    already under way."""
    traces: list[ReplayTrace] = []
    for run, steps in enumerate(candidates):
        try:
            first_screen = started.result() if run == 0 else _fresh_start(device)
        except DeviceError as exc:
            # a device that cannot start would fail every later run the same way
            traces.append(ReplayTrace(report_id, list(steps), outcome=Outcome.ERROR,
                                      error_detail=f"{type(exc).__name__}: {exc}"))
            break
        traces.append(replay(steps, device, llm, corpus, cfg.budgets, report_id,
                             first_screen=first_screen, fast_path=True))
        if traces[-1].outcome is Outcome.BUG_TRIGGERED:
            break
    return traces


def cmd_replay(cfg: RunConfig) -> int:
    report = _load_report(cfg.report_path)
    corpus = _load_corpus(cfg)
    llm = _make_llm(cfg)
    device = _make_device(cfg)
    base = _out_base(cfg)
    # the device starts while the model extracts; only a replay
    # reads how that start went
    with ThreadPoolExecutor(max_workers=1) as pool:
        started = pool.submit(_fresh_start, device)
        candidates, extraction_runs = _run_extraction(cfg, report, llm, corpus)
    traces = _replay_runs(cfg, candidates, llm, corpus, report.id, device, started) if candidates else []
    winner = next((i for i, t in enumerate(traces) if t.outcome is Outcome.BUG_TRIGGERED), None)
    trace_path = Path(f"{base}.trace.json")
    _write(trace_path, {
        "report_id": report.id,
        "extraction_runs": extraction_runs,
        "steps": [_step_dict(s) for s in candidates[0]] if candidates else None,
        "runs": [t.to_dict() for t in traces],
        "winner": winner,
        "seed": cfg.seed,
    })
    if not candidates:
        print("extraction failed on every run; nothing to replay", file=sys.stderr)
        return 3

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


def cmd_encode(dump_path: str) -> int:
    tree = _load("read dump", dump_path, lambda p: parse_dump(_read_text(p)))
    print(encode_gui(tree).html)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "encode":
            return cmd_encode(args.dump)
        cfg = _build_run_config(args)
        return cmd_extract(cfg) if args.command == "extract" else cmd_replay(cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BugReplayError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
