"""Equivalence sweep of the replay loop on simulated devices.

Runs every scenario in `tests/helpers.all_scenarios()` under five budgets
and several guidance backends, with the lexical fast path off and on, and
prints one JSON line per run: the trace (less `wall_time`), its outcome,
the model-call count, a hash of the ordered prompt digests, the dump and
crash-check counts, and hashes of the device call sequence, in order and
sorted. Two checkouts that should behave alike print the same lines.

    python3 scripts/sweep.py > change.jsonl
    python3 scripts/sweep.py --repo ../parent > parent.jsonl
    python3 scripts/sweep.py --diff parent.jsonl change.jsonl

--repo runs the sweep against another checkout's `src/` and `tests/`, so
a parent commit needs no copy of this script. --diff prints, for each
field, how many runs differ, and exits 1 if any field other than
`device_order` does.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BUDGETS = {
    "default": {},
    "tight": {"actions": 6, "backtracks": 1},
    "no-backtracks": {"backtracks": 0},
    "no-missing": {"max_missing_depth": 0},
    "tokens-900": {"tokens": 900},
}


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()[:16]


def sweep():
    """One record per run, in a fixed order."""
    from bugreplay.device import SimulatedApp, SimulatedDevice, synthesize_omissions
    from bugreplay.exemplars import ExemplarCorpus
    from bugreplay.llm import LlmClient, prompt_digest
    from bugreplay.replay import Budgets, replay
    from helpers import AlwaysMissingLlm, GuidanceOracle, all_scenarios

    corpus = ExemplarCorpus.builtin()

    class Counted(LlmClient):
        """Delegates to a backend and notes each prompt's digest."""

        def __init__(self, inner):
            super().__init__(inner.config)
            self.inner = inner
            self.digests = []

        def _complete(self, prompt):
            self.digests.append(prompt_digest(prompt.rendered))
            return self.inner.complete(prompt)

    class Logged:
        """Delegates to a device session and notes each call with its arguments."""

        def __init__(self, device):
            self.device = device
            self.calls = []
            self.thread = threading.get_ident()

        def __getattr__(self, name):
            attr = getattr(self.device, name)
            if not callable(attr):
                return attr

            def logged(*args):
                assert threading.get_ident() == self.thread, f"{name} called off the replay thread"
                self.calls.append([name, *args])
                return attr(*args)
            return logged

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
                for fast_path in (False, True):
                    llm = Counted(make_llm())
                    device = Logged(SimulatedDevice(SimulatedApp.from_dict(scenario.spec)))
                    trace = replay(steps, device, llm, corpus, Budgets(**budget), scenario.name,
                                   fast_path=fast_path)
                    data = trace.to_dict()
                    del data["wall_time"]
                    names = [c[0] for c in device.calls]
                    yield {
                        "run": f"{scenario.name}/{budget_name}/{backend}/fast={fast_path}",
                        "trace": data,
                        "outcome": data["outcome"],
                        "model_calls": len(llm.digests),
                        "prompts": _digest(llm.digests),
                        "dumps": names.count("dump_hierarchy"),
                        "crash_checks": names.count("crashed"),
                        "device_order": _digest(device.calls),
                        "device_calls": _digest(sorted(map(json.dumps, device.calls))),
                    }


def diff(a_path: str, b_path: str) -> int:
    a = [json.loads(line) for line in Path(a_path).read_text(encoding="utf-8").splitlines()]
    b = [json.loads(line) for line in Path(b_path).read_text(encoding="utf-8").splitlines()]
    if [r["run"] for r in a] != [r["run"] for r in b]:
        print("the two sweeps cover different runs")
        return 1
    failed = False
    for field in a[0]:
        differ = [x["run"] for x, y in zip(a, b) if x[field] != y[field]]
        print(f"{field}: {len(differ)} of {len(a)} runs differ" + (f", e.g. {differ[0]}" if differ else ""))
        failed |= bool(differ) and field != "device_order"
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose src/ and tests/ to sweep")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two sweep outputs")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    repo = Path(args.repo).resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
    for record in sweep():
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
