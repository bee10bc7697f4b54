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
from concurrent.futures import ThreadPoolExecutor
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
    than --config is a setting, and its flag holds its default; the
    namespace carries them as `settings`, and the dests of both
    subcommands' settings as `config_keys`, so one config file serves
    both. encode takes a dump and -v only."""
    parser = argparse.ArgumentParser(
        prog="bugreplay",
        description="Extract reproduction steps from bug reports and replay them on a device.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags and environment override it")
    common.add_argument("--llm", choices=["http", "transcript"], default="http")
    common.add_argument("--transcript", help="canned response file for --llm transcript")
    common.add_argument("--endpoint", help="chat completion endpoint URL")
    common.add_argument("--model", help="model name sent to the endpoint")
    common.add_argument("--api-key-env", default=DEFAULT_API_KEY_ENV,
                        help="environment variable holding the API key (default %(default)s)")
    common.add_argument("--temperature", default=0.0,
                        type=_checked(float, "a finite non-negative number", lambda value: 0 <= value < math.inf))
    common.add_argument("--corpus", help="exemplar corpus file (default: built-in)")
    common.add_argument("--token-budget", type=_positive, default=Budgets.tokens)
    common.add_argument("--runs", type=_positive, default=3,
                        help="extraction runs, to smooth model instability (default %(default)s)")
    common.add_argument("--seed", type=int, help="recorded in output artifacts")
    common.add_argument("--out", help="output base path (default: report stem in cwd)")
    common.add_argument("-v", "--verbose", action="store_true")

    p_extract = sub.add_parser("extract", parents=[common], help="extract steps from a bug report")
    p_extract.add_argument("report", help="bug report file (plain text, or JSON with id/text)")

    p_replay = sub.add_parser("replay", parents=[common], help="extract steps, then replay them")
    p_replay.add_argument("report")
    p_replay.add_argument("--device", choices=["simulated", "adb"], default="simulated")
    p_replay.add_argument("--app", help="simulated app spec file")
    p_replay.add_argument("--serial", help="adb device serial")
    p_replay.add_argument("--adb-path", default="adb")
    p_replay.add_argument("--package", help="app package name, for crash and restart handling")
    p_replay.add_argument("--launch", help="one command and its arguments that launch the app")
    p_replay.add_argument("--actions-budget", type=_non_negative(int), default=Budgets.actions)
    p_replay.add_argument("--backtracks-budget", type=_non_negative(int), default=Budgets.backtracks)
    p_replay.add_argument("--wall-budget", type=_non_negative(float), default=Budgets.wall_seconds)
    p_replay.add_argument("--max-missing-depth", type=_non_negative(int), default=Budgets.max_missing_depth)

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


def _build_run_config(parser: argparse.ArgumentParser, argv: list[str] | None,
                      args: argparse.Namespace) -> argparse.Namespace:
    """argv parsed again, once each setting the subcommand takes resolves
    as flag > BUGREPLAY_<DEST> environment variable > config key <dest> >
    default: the key, then the variable, becomes the flag's default, as
    set_defaults would make it, so a flag still wins. A value is checked
    even where a later source hides it."""
    file_cfg = _load_config_file(args.config)
    unknown = sorted(set(file_cfg) - args.config_keys)
    if unknown:
        raise _UsageError(f"config file {args.config}: not a setting: {', '.join(map(repr, unknown))}")
    for action in args.settings:
        name, env = action.dest, ENV_PREFIX + action.dest.upper()
        if file_cfg.get(name) is not None:
            action.default = _convert(action, file_cfg[name], f"config file {args.config}: key {name!r}")
        if env in os.environ:
            action.default = _convert(action, os.environ[env], env)
    return parser.parse_args(argv)


def _read_report(path: str) -> BugReport:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict) and "text" in data:
        rid = Path(path).stem if data.get("id") is None else data["id"]
        if type(rid) not in (str, int):
            raise ValueError(f"bug report id must be a string or an integer, got {rid!r}")
        return BugReport(id=str(rid), raw_text=data["text"])
    return BugReport(id=Path(path).stem, raw_text=text)


def _load_corpus(args: argparse.Namespace) -> ExemplarCorpus:
    corpus = _load("load corpus", args.corpus, ExemplarCorpus.load) if args.corpus else ExemplarCorpus.builtin()
    if not corpus.extraction:
        raise _UsageError("corpus has no extraction exemplars")
    if args.command == "replay" and not corpus.guidance:
        raise _UsageError("corpus has no guidance exemplars")
    return corpus


def _make_llm(args: argparse.Namespace) -> LlmClient:
    if args.llm == "transcript":
        if not args.transcript:
            raise _UsageError("--llm transcript requires --transcript")
        return _load("load transcript", args.transcript, TranscriptLlm.from_file)
    if not args.endpoint:
        raise _UsageError("--llm http requires --endpoint (or BUGREPLAY_ENDPOINT)")
    try:
        # the option types have already refused each max_tokens and temperature HttpLlm would refuse
        return HttpLlm(args.endpoint, model=args.model or "", api_key=os.environ.get(args.api_key_env),
                       max_tokens=args.token_budget, temperature=args.temperature)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _out_base(args: argparse.Namespace) -> Path:
    """The artifacts' base path. Its directory is made here, so that an
    --out that cannot be used fails before any model call or device start."""
    base = Path(args.out) if args.out else Path.cwd() / Path(args.report).stem
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


def _step_dicts(steps: list[Step]) -> list[dict]:
    return [{
        "index": i,
        "action": step.action.value,
        "component": step.component,
        "value": step.value,
        "direction": step.direction.value if step.direction else None,
        "text": step_text(step),
    } for i, step in enumerate(steps, start=1)]


def _vote(args: argparse.Namespace, report: BugReport, llm: LlmClient, corpus: ExemplarCorpus,
          runs: range) -> list[list[Step] | BugReplayError]:
    """The extraction runs numbered `runs` (from 0), each its step list or
    its error, in run order. The runs share the one client and go out
    concurrently, at most EXTRACTION_WORKERS at once, or one at a time for
    a strict-sequence transcript, whose answers follow request order."""
    def attempt(run: int) -> list[Step] | BugReplayError:
        try:
            return extract_steps(report, llm, corpus, args.token_budget)
        except BugReplayError as exc:
            logger.warning("extraction run %d failed: %s", run + 1, exc)
            return exc

    with ThreadPoolExecutor(max_workers=1 if _in_order(llm) else EXTRACTION_WORKERS) as pool:
        return list(pool.map(attempt, runs))


def _in_order(llm: LlmClient) -> bool:
    return isinstance(llm, TranscriptLlm) and llm.mode == "sequence"


def _key(vote: list[Step] | BugReplayError) -> str | None:
    """What a vote votes for: its rendered step list, None for a failed run."""
    return render_steps(vote) if isinstance(vote, list) else None


def _tally(votes: list[list[Step] | BugReplayError]) -> tuple[list[list[Step]], list[dict]]:
    """The candidates, each distinct successful step list once, most
    votes first and ties to the earliest run, plus every run's result."""
    results = [{"ok": True, "steps": _step_dicts(vote)} if isinstance(vote, list)
               else {"ok": False, "error": f"{type(vote).__name__}: {vote}"} for vote in votes]
    by_key = {_key(vote): vote for vote in votes if isinstance(vote, list)}
    # most_common keeps first-seen order among equal counts
    return [by_key[key] for key, _ in Counter(map(_key, votes)).most_common() if key is not None], results


def _settled(keys: list[str | None], runs: int) -> bool:
    """Whether the leader of the votes `keys` (None for a failed run) stays
    ahead whatever the other runs - len(keys) say. A tie goes to the
    earliest run, so a list seen before the leader must stay below it."""
    counts = list(Counter(key for key in keys if key is not None).values()) or [0]
    lead = max(counts)
    leader = counts.index(lead)
    rival = max([count + (i < leader) for i, count in enumerate(counts) if i != leader], default=0)
    return rival + runs - len(keys) <= lead


def cmd_extract(args: argparse.Namespace) -> int:
    report = _load("read report", args.report, _read_report)
    corpus = _load_corpus(args)
    llm = _make_llm(args)
    base = _out_base(args)
    candidates, results = _tally(_vote(args, report, llm, corpus, range(args.runs)))
    if not candidates:
        print("extraction failed on every run:", file=sys.stderr)
        for i, r in enumerate(results, 1):
            print(f"  run {i}: {r['error']}", file=sys.stderr)
        return 3
    steps = candidates[0]
    text = render_steps(steps) + "\n"
    _write(Path(f"{base}.steps.txt"), text)
    _write(Path(f"{base}.steps.json"), {
        "report_id": report.id,
        "majority": _step_dicts(steps),
        "runs": results,
        "seed": args.seed,
    })
    sys.stdout.write(text)
    return 0


def _make_device(args: argparse.Namespace) -> DeviceSession:
    if args.device == "simulated":
        if not args.app:
            raise _UsageError("--device simulated requires --app")
        return SimulatedDevice(_load("load app spec", args.app, SimulatedApp.load))
    if args.package and args.launch is None:
        # a restart would force-stop the app and never start it again
        raise _UsageError("--package needs --launch, the command that starts the app again")
    try:
        return AdbDevice(serial=args.serial, adb_path=args.adb_path, package=args.package,
                         launch_command=args.launch)
    except ValueError as exc:
        raise _UsageError(f"--launch: {exc}") from exc


def _fresh_start(device: DeviceSession) -> ViewNode:
    """Restart the app and dump its first screen."""
    device.perform([("restart",)])
    return device.dump_hierarchy()


def cmd_replay(args: argparse.Namespace) -> int:
    report = _load("read report", args.report, _read_report)
    corpus = _load_corpus(args)
    llm = _make_llm(args)
    device = _make_device(args)
    base = _out_base(args)
    votes: list[list[Step] | BugReplayError] = []

    def vote(upto: int) -> None:
        votes.extend(_vote(args, report, llm, corpus, range(len(votes), upto)))

    # the device starts while a bare majority votes (every run, for a
    # strict-sequence transcript); only a replay reads how that start went.
    # The other runs vote where they could unseat the leader, or once it misses.
    with ThreadPoolExecutor(max_workers=1) as pool:
        started = pool.submit(_fresh_start, device)
        vote(args.runs if _in_order(llm) else args.runs // 2 + 1)
        if not _settled(list(map(_key, votes)), args.runs):
            vote(args.runs)
    budgets = Budgets(tokens=args.token_budget, actions=args.actions_budget, backtracks=args.backtracks_budget,
                      wall_seconds=args.wall_budget, max_missing_depth=args.max_missing_depth)
    # each candidate once, in order, on a fresh start, until one triggers the bug
    traces: list[ReplayTrace] = []
    while len(traces) < len(candidates := _tally(votes)[0]):
        steps = candidates[len(traces)]
        try:
            first_screen = _fresh_start(device) if traces else started.result()
        except DeviceError as exc:
            # a device that cannot start would fail every later run the same way
            traces.append(ReplayTrace(report.id, list(steps), outcome=Outcome.ERROR,
                                      error_detail=f"{type(exc).__name__}: {exc}"))
            break
        traces.append(replay(steps, device, llm, corpus, budgets, report.id,
                             first_screen=first_screen, fast_path=True))
        if traces[-1].outcome is Outcome.BUG_TRIGGERED:
            break
        vote(args.runs)
    candidates, extraction_runs = _tally(votes)
    winner = next((i for i, t in enumerate(traces) if t.outcome is Outcome.BUG_TRIGGERED), None)
    trace_path = Path(f"{base}.trace.json")
    _write(trace_path, {
        "report_id": report.id,
        "extraction_runs": extraction_runs,
        "steps": _step_dicts(candidates[0]) if candidates else None,
        "runs": [t.to_dict() for t in traces],
        "winner": winner,
        "seed": args.seed,
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
        args = _build_run_config(parser, argv, args)
        return cmd_extract(args) if args.command == "extract" else cmd_replay(args)
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
