"""The scripts the README tells readers to run: the demos, the corpus generator,
the sweep, the bench and its tracer."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def run(*args, encoding_gate=True):
    # as in tier-1, a text read or write with no encoding fails; the bench runs
    # outside this gate, as its build_adb_client still opens pipes with none
    gate = ["-W", "error::EncodingWarning"] if encoding_gate else []
    return subprocess.run([sys.executable, *gate, *map(str, args)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNDEFAULTENCODING="1"),
                          capture_output=True, text=True, encoding="utf-8", timeout=120)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run(demo)
    assert done.returncode == 0, done.stderr


def test_sweep_matches_its_golden(tmp_path):
    # tests/data/sweep.jsonl is regenerated, after a change meant to alter
    # what the replay does, with: python3 scripts/sweep.py --compact > tests/data/sweep.jsonl
    # --diff compacts the full output it is given, so this one run checks
    # the full output, its compaction and the golden
    done = run(ROOT / "scripts" / "sweep.py")
    assert done.returncode == 0, done.stderr
    out = tmp_path / "sweep.jsonl"
    out.write_text(done.stdout, encoding="utf-8")
    diff = run(ROOT / "scripts" / "sweep.py", "--diff", ROOT / "tests" / "data" / "sweep.jsonl", out)
    assert diff.returncode == 0, diff.stdout



def sweep_diff(tmp_path, a, b):
    """scripts/sweep.py --diff on two hand-written compact sweeps, each a
    list of (run, outcome, device_order)."""
    paths = []
    for name, runs in (("a.jsonl", a), ("b.jsonl", b)):
        path = tmp_path / name
        path.write_text("".join(json.dumps({"run": run, "trace": "t", "outcome": outcome, "device_order": order}) + "\n"
                                for run, outcome, order in runs), encoding="utf-8")
        paths.append(path)
    return run(ROOT / "scripts" / "sweep.py", "--diff", *paths)


def test_sweep_diff_compares_the_runs_both_sweeps_hold(tmp_path):
    done = sweep_diff(tmp_path, [("r1", "ok", "x"), ("r2", "ok", "y")], [("r1", "ok", "x"), ("r2", "ok", "z")])
    assert done.returncode == 0, done.stdout
    assert "outcome: 0 of 2 shared runs differ\n" in done.stdout
    assert "device_order: 1 of 2 shared runs differ: r2\n" in done.stdout
    assert "only in" not in done.stdout


def test_sweep_diff_names_the_runs_one_sweep_holds(tmp_path):
    done = sweep_diff(tmp_path, [("r1", "ok", "x"), ("r2", "ok", "x")], [("r1", "ok", "x"), ("r3", "ok", "x")])
    assert done.returncode == 1
    assert f"only in {tmp_path / 'a.jsonl'}: 1 runs: r2\n" in done.stdout
    assert f"only in {tmp_path / 'b.jsonl'}: 1 runs: r3\n" in done.stdout
    assert "outcome: 0 of 1 shared runs differ\n" in done.stdout


@pytest.mark.parametrize("b,line", [
    ([("r1", "ok", "x"), ("r2", "bug", "x")], "outcome: 1 of 2 shared runs differ: r2\n"),
    ([("r2", "ok", "x"), ("r1", "ok", "x")], "the shared runs come in a different order\n"),
], ids=["field-differs", "order-differs"])
def test_sweep_diff_fails_on_shared_runs_that_differ(tmp_path, b, line):
    done = sweep_diff(tmp_path, [("r1", "ok", "x"), ("r2", "ok", "x")], b)
    assert done.returncode == 1
    assert line in done.stdout
    assert "only in" not in done.stdout


def test_sweep_diff_says_which_part_of_a_full_trace_moved(tmp_path):
    def write(name, details, full=True):
        """A hand-written sweep of (run, error_detail); a compact one holds each trace as a digest."""
        path = tmp_path / name
        path.write_text("".join(json.dumps({"run": run, "outcome": "budget_exhausted", "trace": {
            "outcome": "budget_exhausted", "error_detail": detail, "events": []} if full else detail[:8]}) + "\n"
                                for run, detail in details), encoding="utf-8")
        return path

    a = write("a.jsonl", [("r1", "action budget exhausted"), ("r2", "nowhere left to backtrack")])
    b = [("r1", "action budget exhausted"), ("r2", "backtrack budget exhausted")]
    done = run(ROOT / "scripts" / "sweep.py", "--diff", a, write("b.jsonl", b))
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "run: 0 of 2 shared runs differ",
        "outcome: 0 of 2 shared runs differ",
        "trace: 1 of 2 shared runs differ: r2",
        "trace.outcome: 0 of 2 shared runs differ",
        "trace.error_detail: 1 of 2 shared runs differ: r2",
        "trace.events: 0 of 2 shared runs differ",
    ]
    # a compact sweep holds no trace to look into
    done = run(ROOT / "scripts" / "sweep.py", "--diff", a, write("compact.jsonl", b, full=False))
    assert done.returncode == 1
    assert "trace: 2 of 2 shared runs differ: r1, r2\n" in done.stdout
    assert "trace." not in done.stdout


def test_sweep_diff_gives_the_change_in_a_count(tmp_path):
    def write(name, runs, full=True):
        """A hand-written sweep of (run, adb_calls, dumps); a compact one holds each field as a digest."""
        path = tmp_path / name
        path.write_text("".join(json.dumps({"run": run, "trace": {"events": []}, "adb_calls": calls, "dumps": dumps}
                                           if full else {"run": run, "trace": "t", "adb_calls": str(calls),
                                                         "dumps": str(dumps)}) + "\n"
                                for run, calls, dumps in runs), encoding="utf-8")
        return path

    a = [("r1", 10, 2), ("r2", 12, 3), ("r3", 5, 1)]
    b = [("r1", 9, 2), ("r2", 10, 4), ("r3", 5, 1)]
    done = run(ROOT / "scripts" / "sweep.py", "--diff", write("a.jsonl", a), write("b.jsonl", b))
    assert done.returncode == 1
    assert "adb_calls: 2 of 3 shared runs differ (net -3, each -2 to -1): r1, r2\n" in done.stdout
    assert "dumps: 1 of 3 shared runs differ (net +1, each +1): r2\n" in done.stdout
    assert "trace: 0 of 3 shared runs differ\n" in done.stdout
    # a compact sweep holds no count, and its lines are as they were
    done = run(ROOT / "scripts" / "sweep.py", "--diff", write("a.jsonl", a, full=False),
               write("b.jsonl", b, full=False))
    assert done.returncode == 1
    assert "adb_calls: 2 of 3 shared runs differ: r1, r2\n" in done.stdout
    assert "(net" not in done.stdout


def test_shipped_corpus_is_what_gen_corpus_writes(tmp_path, monkeypatch):
    # the guidance exemplars' HTML comes from the encoder, so a change to
    # the encoding must come with the corpus the script writes from it
    spec = importlib.util.spec_from_file_location("gen_corpus", ROOT / "scripts" / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    monkeypatch.setattr(gen_corpus, "OUT", tmp_path / "default_corpus.json")
    gen_corpus.main()
    shipped = ROOT / "src" / "bugreplay" / "data" / "default_corpus.json"
    assert gen_corpus.OUT.read_bytes() == shipped.read_bytes()


def test_bench_tracer_wraps_callables_that_exist(monkeypatch):
    # the bench's tracer wraps bugreplay callables by name, so renaming
    # one must fail here and not only in the bench
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()

    def bound():
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, _, _ in tracer.points()]

    originals = bound()
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(bound(), originals))
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(bound(), originals))


@pytest.mark.skipif(not (shutil.which("make") and shutil.which("cc")),
                    reason="the bench builds its fake adb with make and a C compiler")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_runs_each_workload(workload):
    # one pass at zero latency runs every report of the workload's pool, so
    # a change that breaks any one of them fails here; the replay workloads
    # run the program's adb runner against the bench's native client
    done = run(ROOT / "perfbench" / "run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--latency-scale", "0", "--trace", "0", encoding_gate=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    adb_calls = metrics["round_trips_per_report"] - metrics["model_calls_per_report"]
    assert (adb_calls > 0) == workload.startswith("replay-")


@pytest.mark.skipif(not (shutil.which("make") and shutil.which("cc")),
                    reason="the bench builds its fake adb with make and a C compiler")
@pytest.mark.parametrize("workload", ["replay-direct", "replay-detour"])
def test_bench_tracer_sees_the_program(workload):
    # a refactor that stops calling through a traced name would quietly
    # zero its per-layer figure; the adb counts come from the emulator
    done = run(ROOT / "perfbench" / "run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--quick", "--trace", "1", encoding_gate=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert m["device.calls.dump_hierarchy"] == m["gui.parse_dump.calls"] == m["adb.calls.uiautomator"] > 0
    assert m["adb.calls.logcat"] == m["device.calls.crashed"] + m["device.calls.restart"]
    if workload == "replay-detour":
        assert m["llm.calls.guidance"] > 0
        assert m["replay.prefix_gestures"] > 0
