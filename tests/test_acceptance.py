"""Acceptance criteria, one test per criterion, one verdict line each.

Each criterion records an "ACCEPTANCE n: PASS/FAIL - ..." line that the
conftest terminal-summary hook echoes after the run, so the verdicts are
visible even with output capture on.
"""
import contextlib
import functools
import io
import json
import random
import string
import tempfile
import threading
import time
from importlib import resources
from pathlib import Path

from bugreplay.cli import main
from bugreplay.device import AdbDevice, SimulatedApp, SimulatedDevice
from bugreplay.errors import BugReplayError
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.extraction import build_extraction_prompt, parse_extraction_response
from bugreplay.guidance import parse_guidance_response
from bugreplay.gui import Bounds, ViewNode, encode_gui, resolve_component
from bugreplay.llm import estimate_tokens
from bugreplay.replay import Budgets, Outcome, execute_step, replay
from bugreplay.steps import (
    ActionType,
    BugReport,
    Direction,
    Step,
    render_steps,
)

import conftest
from helpers import (
    SCENARIO_BUILDERS,
    AlwaysMissingLlm,
    PromptCollector,
    scenario_linear_taps_5,
    scenario_no_back_decoy,
    scenario_single_step,
    scenario_two_branch,
    synthesize_omissions,
)

CORPUS = ExemplarCorpus.builtin()


def criterion(n, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {n}: FAIL - {text}")
                raise
            conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {n}: PASS - {text}")
        return wrapper
    return deco


def guided_run(scenario, llm=None, steps=None, budgets=None):
    device = SimulatedDevice(SimulatedApp(scenario.spec))
    return replay(steps if steps is not None else scenario.steps, device,
                  llm or scenario.oracle(), CORPUS, budgets, scenario.name)


PUBLISHED_STEPS = [
    '[Tap] ["bookmark"]',
    '[Tap] ["add new bookmark"]',
    '[Input] ["name"] ["a"]',
    '[Tap] ["add new bookmark"]',
    '[Input] ["name"] ["b"]',
    '[Tap] ["a"]',
    '[Input] ["name"] ["b"]',
    '[Tap] ["back"]',
]

CANNED_RESPONSE = """\
1. [Tap] [``bookmark'']
2. [Tap] [``add new bookmark'']
3. [Input] [``name''] [``a'']
4. [Tap] [``add new bookmark'']
5. [Input] [``name''] [``b'']
6. [Tap] [``a'']
7. [Input] [``name''] [``b'']
8. [Tap] [``back'']"""


@criterion(1, "extract CLI reproduces the bundled bookmark example byte for byte in under 1 s")
def test_criterion_1_extraction_fidelity():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "bookmark.txt").write_text(CORPUS.extraction[0].input_report, encoding="utf-8")
        (tmp / "t.json").write_text(
            json.dumps({"responses": [CANNED_RESPONSE]}),
            encoding="utf-8")
        args = ["extract", str(tmp / "bookmark.txt"), "--llm", "transcript",
                "--transcript", str(tmp / "t.json"), "--runs", "1",
                "--out", str(tmp / "bookmark")]
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(args)
        elapsed = time.perf_counter() - started
        assert code == 0
        expected = "\n".join(f"{i}. {t}" for i, t in enumerate(PUBLISHED_STEPS, 1)) + "\n"
        assert out.getvalue() == expected
        assert (tmp / "bookmark.steps.txt").read_text(encoding="utf-8") == expected
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "guidance parsing yields id 6 visible and id 1 missing on the bundled outputs")
def test_criterion_2_guidance_fidelity():
    data = json.loads(resources.files("bugreplay")
                      .joinpath("data/default_corpus.json").read_text("utf-8"))
    first = parse_guidance_response(data["guidance"][0]["output"])
    second = parse_guidance_response(data["guidance"][1]["output"])
    assert (first.component_id, first.missing) == (6, False)
    assert (second.component_id, second.missing) == (1, True)


SAFE_CHARS = string.ascii_letters + string.digits + " .,:;!?()/&@#%+=*_-"
NOISE_CHARS = SAFE_CHARS + "[]\"`'\n\r" + "“”‘’"


def _field(rng):
    while True:
        text = "".join(rng.choice(SAFE_CHARS)
                       for _ in range(rng.randint(1, 18))).strip()
        if text:
            return text


def _random_steps(rng):
    steps = []
    for _ in range(rng.randint(1, 8)):
        action = rng.choice(list(ActionType))
        if action is ActionType.SCROLL:
            steps.append(Step(action, direction=rng.choice(list(Direction))))
        elif action is ActionType.INPUT:
            steps.append(Step(action, component=_field(rng), value=_field(rng)))
        else:
            steps.append(Step(action, component=_field(rng)))
    return steps


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        op = rng.randrange(8)
        pos = rng.randrange(len(text))
        if op == 0:
            text = text[:pos] + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + rng.choice(NOISE_CHARS) + text[pos:]
        elif op == 2:
            text = text[:pos] + rng.choice(NOISE_CHARS) + text[pos + 1:]
        elif op == 3:
            lines = text.splitlines()
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
        elif op == 4:
            lines = text.splitlines()
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 5:
            text = text[:pos]
        elif op == 6:
            text = "Sure! Here is my reasoning.\n" + text
        else:
            text = text + "\nHope that helps."
    return text


@criterion(3, "1000 step-list round-trips and 1000 mutated responses stay total in under 5 s")
def test_criterion_3_parser_round_trip_and_totality():
    rng = random.Random(0x5EED)
    started = time.perf_counter()
    for _ in range(1000):
        steps = _random_steps(rng)
        assert parse_extraction_response(render_steps(steps)) == steps
    for _ in range(1000):
        mutated = _mutate(rng, render_steps(_random_steps(rng)))
        try:
            result = parse_extraction_response(mutated)
        except BugReplayError:
            continue
        assert result and all(isinstance(s, Step) for s in result)
        assert parse_extraction_response(render_steps(result)) == result
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _node_count(node):
    return 1 + sum(_node_count(child) for child in node.children)


@criterion(4, "1000 random trees encode deterministically with dense invertible ids in under 5 s")
def test_criterion_4_encoder_properties():
    from helpers import random_view_tree

    rng = random.Random(0xE7C0DE)
    started = time.perf_counter()
    for _ in range(1000):
        tree = random_view_tree(rng)
        first = encode_gui(tree)
        second = encode_gui(tree)
        assert first.html == second.html
        total = _node_count(tree)
        assert sorted(first.index) == list(range(total))
        for i in range(total):
            assert resolve_component(first, i) is first.index[i]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(5, "scenario suite: full, omitted, and misled runs all trigger the bug in under 30 s")
def test_criterion_5_replay_scenarios():
    started = time.perf_counter()
    assert len(SCENARIO_BUILDERS) >= 10

    for build in SCENARIO_BUILDERS:
        scenario = build()
        trace = guided_run(scenario)
        assert trace.outcome is Outcome.BUG_TRIGGERED, scenario.name
        assert not any(e.exploratory for e in trace.events), scenario.name

    for k in (1, 2):
        for seed in range(5):
            scenario = scenario_linear_taps_5()
            partial = synthesize_omissions(scenario.steps, k, seed)
            trace = guided_run(scenario, steps=partial)
            assert trace.outcome is Outcome.BUG_TRIGGERED, (k, seed)
            assert sum(1 for e in trace.events if e.exploratory) == k, (k, seed)

    for build in (scenario_two_branch, scenario_no_back_decoy):
        scenario = build()
        oracle = scenario.oracle()
        trace = guided_run(scenario, llm=oracle)
        assert trace.outcome is Outcome.BUG_TRIGGERED, scenario.name
        assert trace.backtracks_used >= 1, scenario.name
        retried = [q for (_, excluded, q) in oracle.queries if excluded]
        assert any("excluding components [id=3]" in q for q in retried), scenario.name

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(6, "always-missing adversary hits the budget and terminates")
def test_criterion_6_budget_termination():
    box = {}

    def work():
        box["trace"] = guided_run(scenario_single_step(), llm=AlwaysMissingLlm())

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "replay did not terminate"
    trace = box["trace"]
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    assert trace.actions_used <= Budgets().actions


@criterion(7, "every constructed prompt fits 4096 tokens with 1 to 3 exemplars")
def test_criterion_7_token_budget():
    prompts = [build_extraction_prompt(BugReport(id="probe", raw_text=exemplar.input_report), CORPUS, 4096)
               for exemplar in CORPUS.extraction]
    # the guidance prompts of criterion 5's and 6's runs
    runs = [(build(), None, None) for build in SCENARIO_BUILDERS]
    linear = scenario_linear_taps_5()
    runs += [(linear, None, synthesize_omissions(linear.steps, k, seed)) for k in (1, 2) for seed in range(5)]
    runs.append((scenario_single_step(), AlwaysMissingLlm(), None))
    for scenario, llm, steps in runs:
        collector = PromptCollector(llm or scenario.oracle())
        guided_run(scenario, llm=collector, steps=steps)
        prompts += collector.prompts

    kinds = {p.segments[-1].kind for p in prompts}
    assert kinds == {"test_input", "test_query"}
    assert len(prompts) > 50
    for prompt in prompts:
        assert estimate_tokens(prompt.rendered) <= 4096
        assert 1 <= prompt.exemplar_count <= 3


@criterion(8, "adb gestures emit the documented command lines bit for bit")
def test_criterion_8_adb_command_goldens():
    calls = []
    device = AdbDevice(runner=lambda argv: calls.append(list(argv)) or "")
    node = ViewNode("android.widget.Button", bounds=Bounds(100, 200, 500, 1080))
    # a Scroll crosses the window of the dump, here the portrait screen
    root = ViewNode("android.widget.FrameLayout", bounds=Bounds(0, 0, 1080, 1920), children=[node])

    def last(step_text_form, target=node):
        from bugreplay.steps import parse_step_text
        calls.clear()
        execute_step(device, parse_step_text(step_text_form), target)
        return calls

    assert last('[Tap] ["x"]') == [
        ["adb", "shell", "input", "tap", "300", "640"]]
    assert last('[Double-tap] ["x"]') == [
        ["adb", "shell", "input", "tap", "300", "640"],
        ["adb", "shell", "input", "tap", "300", "640"]]
    assert last('[Long-tap] ["x"]') == [
        ["adb", "shell", "input", "swipe", "300", "640", "300", "640", "800"]]
    assert last("[Scroll] [up]", target=root) == [
        ["adb", "shell", "input", "swipe", "540", "1536", "540", "384", "300"]]
    assert last('[Input] ["field"] ["hello world"]') == [
        ["adb", "shell", "input", "tap", "300", "640"],
        ["adb", "shell", "input", "text", "hello%sworld"]]

    calls.clear()
    device.perform([("back",)])
    assert calls == [["adb", "shell", "input", "keyevent", "KEYCODE_BACK"]]
