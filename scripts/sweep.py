"""Equivalence sweep of the replay loop on simulated devices, direct and over adb.

Runs every scenario in `tests/helpers.all_scenarios()` under five budgets
and several guidance backends, with the lexical fast path off and on, and
prints one JSON line per run: the trace (less `wall_time`), its outcome,
the model-call count, a hash of the ordered prompt digests, the dump and
crash-check counts, and hashes of the device calls, in order and sorted.
`tests/helpers.CallLog` logs the device calls, each gesture as the trace's
tuple that `perform` takes. `tests/helpers.replay_both_ways` replays each
run again, with a fresh backend, over `AdbDevice` and the adb front, and
checks what the README promises of every run; with the honest backend,
the fast path off and on must end alike. A run that breaks a promise
stops the sweep with exit 1. The line adds the adb call count and hashes
of the argv log, sorted and in order. Two checkouts that should behave
alike print the same lines.

    python3 scripts/sweep.py > change.jsonl
    python3 scripts/sweep.py --repo ../parent > parent.jsonl
    python3 scripts/sweep.py --diff parent.jsonl change.jsonl

--repo runs the sweep against another checkout's `src/`, with this
checkout's scenarios and helpers, so a parent commit needs a copy of
neither. That checkout's `SimulatedApp` must take the spec dict itself,
its `AdbDevice` its settings as keywords and send no `wm size`, which
the adb front does not answer, its sessions must take gestures through
`perform`, its `SimulatedDevice` must answer `takes_double_tap`, which
the adb front asks, and its `Step` must carry no number: the helpers
build steps with `parse_step_text(text)`, and a checkout whose steps are
numbered takes each as step 1 and refuses the list. To compare with
such a checkout, `--diff` against the sweep it printed, such as the
committed golden.

--compact prints each field but the run's name as a short digest;
`tests/data/sweep.jsonl`, the tier-1 golden, is regenerated with

    python3 scripts/sweep.py --compact > tests/data/sweep.jsonl

--diff takes full or compact sweeps. It names the runs only one sweep
holds, compares the runs both hold, prints for each field how many of
them differ and names them, and exits 1 if a run is in one sweep only,
the shared runs come in another order, or any field other than
`device_order` and `adb_order` differs. Where both sweeps hold a run's
full trace, a line per trace key (`trace.error_detail: ...`) says how
many of those runs differ in it. Where both hold a count as an integer
(`model_calls`, `dumps`, `crash_checks` and `adb_calls` in full sweeps),
its line adds the net change and each run's change, from the least to
the most: `adb_calls: 65 of 1640 shared runs differ (net -65, each -1)`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BUDGETS = {
    "default": {},
    "tight": {"actions": 4, "backtracks": 1},
    "no-backtracks": {"backtracks": 0},
    "no-missing": {"max_missing_depth": 0},
    "tokens-900": {"tokens": 900},
}
# the app the adb runs address, and the command that starts it again
PACKAGE, LAUNCH = "com.example.sweep", "am start -n com.example.sweep/.Main"
# fields that may differ between two checkouts that behave alike
ORDER_FIELDS = ("device_order", "adb_order")


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def sweep():
    """One record per run, in a fixed order."""
    from bugreplay.device import SimulatedApp, SimulatedDevice
    from bugreplay.exemplars import ExemplarCorpus
    from bugreplay.llm import prompt_digest
    from bugreplay.replay import Budgets
    from helpers import (AlwaysMissingLlm, CallLog, GuidanceOracle, PromptCollector, all_scenarios,
                         replay_both_ways, synthesize_omissions)

    corpus = ExemplarCorpus.builtin()

    def backends(scenario):
        yield "scenario", scenario.steps, scenario.oracle
        yield "honest", scenario.steps, lambda: GuidanceOracle(bridges=scenario.bridges)
        yield "always-missing", scenario.steps, AlwaysMissingLlm
        for k in (1, 2):
            if k < len(scenario.steps):
                for seed in range(5):
                    yield f"omit-k{k}-s{seed}", synthesize_omissions(scenario.steps, k, seed), scenario.oracle

    for budget_name, budget in BUDGETS.items():
        for scenario in all_scenarios():
            for backend, steps, make_llm in backends(scenario):
                outcomes = set()
                for fast_path in (False, True):
                    name = f"{scenario.name}/{budget_name}/{backend}/fast={fast_path}"
                    llm = PromptCollector(make_llm())
                    device = CallLog(SimulatedDevice(SimulatedApp(scenario.spec)))
                    try:
                        data, argv_log = replay_both_ways(
                            scenario.spec, steps, llm, make_llm(), corpus, Budgets(**budget), scenario.name,
                            fast_path=fast_path, package=PACKAGE, launch=LAUNCH, device=device)
                    except AssertionError as exc:
                        raise AssertionError(f"{name}: {exc}") from exc
                    outcomes.add(data["outcome"])
                    yield {
                        "run": name,
                        "trace": data,
                        "outcome": data["outcome"],
                        "model_calls": len(llm.prompts),
                        "prompts": _digest([prompt_digest(prompt.rendered) for prompt in llm.prompts]),
                        "dumps": device.calls.count("dump_hierarchy"),
                        "crash_checks": device.calls.count("crashed"),
                        "device_order": _digest(device.calls),
                        "device_calls": _digest(sorted(map(json.dumps, device.calls))),
                        "adb_calls": len(argv_log),
                        "adb_argv": _digest(sorted(map(json.dumps, argv_log))),
                        "adb_order": _digest(argv_log),
                    }
                # an honest model picks what the lexical match would
                assert backend != "honest" or len(outcomes) == 1, \
                    f"{scenario.name}/{budget_name}/{backend}: the fast path changed the outcome"


def compact(record: dict) -> dict:
    """The record with each field but the run's name as a short digest;
    a compact record stays as it is."""
    if not isinstance(record["trace"], dict):
        return record
    return {name: value if name == "run" else _digest(value)[:8] for name, value in record.items()}


def diff(a_path: str, b_path: str) -> int:
    def load(path):
        records = map(json.loads, Path(path).read_text(encoding="utf-8").splitlines())
        return {record["run"]: record for record in records}

    def named(runs):
        shown = ", ".join(runs[:5]) + (f" and {len(runs) - 5} more" if len(runs) > 5 else "")
        return f": {shown}" if runs else ""

    def change(field, runs):
        """The net and per-run change in `field` over runs, if each sweep holds it as an integer."""
        pairs = [(a[run].get(field), b[run].get(field)) for run in runs]
        if not pairs or any(type(value) is not int for pair in pairs for value in pair):
            return ""
        deltas = [y - x for x, y in pairs]
        low, high = min(deltas), max(deltas)
        return f" (net {sum(deltas):+d}, each {low:+d}{f' to {high:+d}' if high != low else ''})"

    a, b = load(a_path), load(b_path)
    failed = False
    for path, one, other in ((a_path, a, b), (b_path, b, a)):
        only = [run for run in one if run not in other]
        if only:
            print(f"only in {path}: {len(only)} runs{named(only)}")
            failed = True
    shared = [run for run in a if run in b]
    if shared != [run for run in b if run in a]:
        print("the shared runs come in a different order")
        failed = True
    # the runs whose trace both sweeps hold in full, compared key by key as well
    traces = {run: (a[run]["trace"], b[run]["trace"]) for run in shared
              if isinstance(a[run]["trace"], dict) and isinstance(b[run]["trace"], dict)}
    short_a, short_b = ({run: compact(record) for run, record in records.items()} for records in (a, b))
    for field in dict.fromkeys(field for record in short_a.values() for field in record):
        differ = [run for run in shared if short_a[run].get(field) != short_b[run].get(field)]
        print(f"{field}: {len(differ)} of {len(shared)} shared runs differ{change(field, differ)}{named(differ)}")
        failed |= bool(differ) and field not in ORDER_FIELDS
        if field == "trace":
            for key in dict.fromkeys(key for pair in traces.values() for trace in pair for key in trace):
                differ = [run for run, (x, y) in traces.items() if x.get(key) != y.get(key)]
                print(f"trace.{key}: {len(differ)} of {len(traces)} shared runs differ{named(differ)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose src/ to sweep")
    parser.add_argument("--compact", action="store_true", help="print each field as a short digest")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two sweep outputs")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    sys.path[:0] = [str(Path(args.repo).resolve() / "src"), str(ROOT / "tests")]
    for record in sweep():
        print(json.dumps(compact(record) if args.compact else record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
