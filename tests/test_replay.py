"""The guided replay loop: geometry, outcomes, backtracking, traces."""
import pytest

from bugreplay.device import SimulatedApp, SimulatedDevice, apply_gestures
from bugreplay.errors import TransportError
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.llm import LlmClient, LlmConfig
from bugreplay.replay import Budgets, Outcome, execute_step, replay
from bugreplay.steps import parse_step_text

from helpers import (
    CRASH_STATE,
    AlwaysMissingLlm,
    Scenario,
    _spec,
    all_scenarios,
    button,
    stacked,
    scenario_linear_taps_5,
    scenario_no_back_decoy,
    scenario_single_step,
    scenario_two_branch,
    walk_steps,
)
from bugreplay.device import synthesize_omissions

CORPUS = ExemplarCorpus.builtin()


def fresh_device(scenario):
    return SimulatedDevice(SimulatedApp.from_dict(scenario.spec))


def run(scenario, llm=None, budgets=None, steps=None, **kw):
    device = fresh_device(scenario)
    try:
        return replay(steps if steps is not None else scenario.steps,
                      device, llm or scenario.oracle(),
                      CORPUS, budgets, scenario.name, **kw)
    finally:
        device.close()


class FakeDevice:
    """Records gesture calls; geometry tests need no app behind them."""

    def __init__(self, size=(1080, 1920)):
        self.size = size
        self.calls = []

    @property
    def screen_size(self):
        return self.size

    def tap(self, x, y):
        self.calls.append(("tap", x, y))

    def double_tap(self, x, y):
        self.calls.append(("double_tap", x, y))

    def long_tap(self, x, y):
        self.calls.append(("long_tap", x, y))

    def swipe(self, *a):
        self.calls.append(("swipe", *a))

    def type_text(self, t):
        self.calls.append(("text", t))


class TestExecuteStep:
    def node(self):
        from bugreplay.gui import Bounds, ViewNode
        return ViewNode("android.widget.Button", bounds=Bounds(100, 200, 300, 400))

    def test_scroll_up_geometry(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text("[Scroll] [up]"), None)
        assert gestures == [("swipe", 540, 1536, 540, 384)]
        assert device.calls == gestures

    def test_scroll_down_geometry(self):
        device = FakeDevice()
        assert execute_step(device, parse_step_text("[Scroll] [down]"), None) == [
            ("swipe", 540, 384, 540, 1536)]

    def test_scroll_left_right_geometry(self):
        device = FakeDevice()
        assert execute_step(device, parse_step_text("[Scroll] [left]"), None) == [
            ("swipe", 864, 960, 216, 960)]
        assert execute_step(device, parse_step_text("[Scroll] [right]"), None) == [
            ("swipe", 216, 960, 864, 960)]

    def test_scroll_scales_with_screen(self):
        device = FakeDevice(size=(720, 1280))
        assert execute_step(device, parse_step_text("[Scroll] [up]"), None) == [
            ("swipe", 360, 1024, 360, 256)]

    def test_tap_at_node_center(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text('[Tap] ["x"]'), self.node())
        assert gestures == [("tap", 200, 300)]

    def test_double_and_long(self):
        device = FakeDevice()
        execute_step(device, parse_step_text('[Double-tap] ["x"]'), self.node())
        execute_step(device, parse_step_text('[Long-tap] ["x"]'), self.node())
        assert device.calls == [("double_tap", 200, 300), ("long_tap", 200, 300)]

    def test_input_taps_then_types(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text('[Input] ["f"] ["hi"]'), self.node())
        assert gestures == [("tap", 200, 300), ("text", "hi")]

    def test_node_contract(self):
        device = FakeDevice()
        with pytest.raises(ValueError):
            execute_step(device, parse_step_text('[Tap] ["x"]'), None)
        with pytest.raises(ValueError):
            execute_step(device, parse_step_text("[Scroll] [up]"), self.node())


def test_budget_defaults():
    budgets = Budgets()
    assert (budgets.tokens, budgets.actions, budgets.backtracks) == (4096, 50, 10)
    assert budgets.wall_seconds == 600.0
    assert budgets.max_missing_depth == 2


def test_outcome_wire_values():
    assert {o.value for o in Outcome} == {
        "bug_triggered", "steps_exhausted_no_bug", "budget_exhausted", "error"}


class TestHappyPaths:
    def test_every_scenario_triggers_its_bug(self, scenario):
        trace = run(scenario)
        assert trace.outcome is Outcome.BUG_TRIGGERED, scenario.name
        assert not any(e.exploratory for e in trace.events)
        backtracking = bool(scenario.decoys)
        if not backtracking:
            assert trace.backtracks_used == 0
            assert trace.actions_used == len(scenario.steps)
        assert trace.wall_time >= 0

    def test_guided_events_resolve_ids_scrolls_do_not(self, scenario):
        trace = run(scenario)
        for event in trace.events:
            if event.exploratory:
                continue
            if event.step.component is None:
                assert event.resolved_id is None
            else:
                assert isinstance(event.resolved_id, int)

    def test_trace_gestures_reproduce_the_crash(self, scenario):
        trace = run(scenario)
        device = fresh_device(scenario)
        apply_gestures(device, trace.gestures)
        assert device.crashed(), scenario.name
        device.close()


def test_event_digests_track_screens():
    scenario = scenario_linear_taps_5()
    trace = run(scenario)
    digests = [e.screen_digest for e in trace.events]
    assert len(set(digests)) == len(digests)  # every hop saw a new screen


def test_steps_exhausted_without_bug():
    scenario = scenario_single_step()
    scenario.spec["crash_states"] = []
    trace = run(scenario)
    assert trace.outcome is Outcome.STEPS_EXHAUSTED_NO_BUG
    assert trace.actions_used == 1


class TestOmittedSteps:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exploration_bridges_k_omissions(self, k, seed):
        scenario = scenario_linear_taps_5()
        partial = synthesize_omissions(scenario.steps, k, seed)
        trace = run(scenario, steps=partial)
        assert trace.outcome is Outcome.BUG_TRIGGERED, (k, seed)
        assert sum(1 for e in trace.events if e.exploratory) == k
        assert trace.actions_used == len(scenario.steps)

    def test_walker_confirms_partial_steps_alone_do_not_crash(self):
        scenario = scenario_linear_taps_5()
        partial = synthesize_omissions(scenario.steps, 1, 0)
        with pytest.raises(AssertionError):
            walk_steps(scenario.spec, partial)


class TestWrongIdRecovery:
    @pytest.mark.parametrize("build", [scenario_two_branch, scenario_no_back_decoy])
    def test_recovers_via_backtracking(self, build):
        scenario = build()
        oracle = scenario.oracle()
        device = fresh_device(scenario)
        trace = replay(scenario.steps, device, oracle, CORPUS,
                       report_id=scenario.name)
        device.close()
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used >= 1
        excludings = [q for (_, excluded, q) in oracle.queries if excluded]
        assert any("excluding components [id=3]" in q for q in excludings)

    def test_recovery_trace_still_replays(self):
        scenario = scenario_no_back_decoy()
        trace = run(scenario)
        device = fresh_device(scenario)
        apply_gestures(device, trace.gestures)
        assert device.crashed()
        device.close()


def scenario_double_trap():
    """Decoys on two consecutive steps, into a dead end that ignores Back,
    so the second restore replays a non-empty gesture prefix."""
    def page(header, labels):
        return stacked(header, [lambda y, t=label: button(t, y) for label in labels])

    spec = _spec(
        {"s0": {"tree": page("Start", ["Continue", "Skip setup"])},
         "s1": {"tree": page("Middle", ["Next", "Quit"])},
         "s2": {"tree": page("Last", ["Finish"])},
         "dead": {"tree": page("Nothing here", [])}},
        [{"from": "s0", "action": "tap", "id": 2, "to": "s1"},
         {"from": "s0", "action": "tap", "id": 3, "to": "dead"},
         {"from": "s1", "action": "tap", "id": 2, "to": "s2"},
         {"from": "s1", "action": "tap", "id": 3, "to": "dead"},
         {"from": "s2", "action": "tap", "id": 2, "to": CRASH_STATE}],
        "s0")
    return Scenario("double_trap", spec,
                    ['[Tap] ["Continue"]', '[Tap] ["Next"]', '[Tap] ["Finish"]'],
                    decoys={"Continue": [3], "Next": [3, 3]})


class CallLog:
    """Delegates to a device session and records each method called."""

    GESTURES = {"tap", "double_tap", "long_tap", "swipe", "type_text", "press_back", "restart"}

    def __init__(self, device):
        self.device = device
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self.device, name)
        if not callable(attr):
            return attr

        def logged(*args):
            self.calls.append(name)
            return attr(*args)
        return logged


FIRST, SECOND = ("tap", 540, 245), ("tap", 540, 375)
BACK3 = [("back",)] * 3
RESTART = ("restart",)


class TestDumpReuse:
    """Restores reuse the dump in hand and hand theirs on, so the screen is
    dumped only after a gesture; what the replay does stays the same."""

    @pytest.mark.parametrize("build, gestures, events", [
        # restored by one Back press
        (scenario_two_branch, [SECOND, ("back",), FIRST, FIRST],
         [(1, 3), (1, 2), (2, 2)]),
        # restored by a restart with an empty prefix
        (scenario_no_back_decoy, [SECOND, *BACK3, RESTART, FIRST, FIRST],
         [(1, 3), (1, 2), (2, 2)]),
        # restored by restarts, the second replaying a prefix
        (scenario_double_trap,
         [SECOND, *BACK3, RESTART, FIRST, SECOND, *BACK3, RESTART,
          SECOND, *BACK3, RESTART, FIRST, FIRST, FIRST],
         [(1, 3), (1, 2), (2, 3), (2, 2), (3, 2)]),
    ])
    def test_no_dump_without_a_gesture_between(self, build, gestures, events):
        scenario = build()
        device = CallLog(fresh_device(scenario))
        try:
            trace = replay(scenario.steps, device, scenario.oracle(), CORPUS,
                           report_id=scenario.name)
        finally:
            device.close()
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used >= 1
        assert trace.gestures == gestures
        assert [(e.step.index, e.resolved_id) for e in trace.events] == events
        assert not any(e.exploratory for e in trace.events)
        seen = [c for c in device.calls if c == "dump_hierarchy" or c in CallLog.GESTURES]
        assert seen[0] == "dump_hierarchy"
        assert all(not (a == b == "dump_hierarchy") for a, b in zip(seen, seen[1:]))


class TestAdversarialGuidance:
    def test_always_missing_exhausts_and_terminates(self):
        scenario = scenario_single_step()
        trace = run(scenario, llm=AlwaysMissingLlm())
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert all(e.exploratory for e in trace.events)

    def test_unanswerable_with_no_history(self):
        class Mute(LlmClient):
            def __init__(self):
                super().__init__(LlmConfig(max_tokens=10 ** 6))

            def _complete(self, prompt):
                return "I have no idea."

        trace = run(scenario_single_step(), llm=Mute())
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.error_detail == "nowhere left to backtrack"


class TestBudgets:
    def test_zero_wall_clock(self):
        trace = run(scenario_single_step(), budgets=Budgets(wall_seconds=0.0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert "wall clock" in trace.error_detail

    def test_zero_actions(self):
        trace = run(scenario_single_step(), budgets=Budgets(actions=0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert "action budget" in trace.error_detail

    def test_zero_backtracks_keeps_no_history(self):
        trace = run(scenario_two_branch(), budgets=Budgets(backtracks=0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.error_detail == "nowhere left to backtrack"
        assert trace.backtracks_used == 0

    def test_backtrack_budget_exhausts_mid_recovery(self):
        # two navigating traps in a row; budget 1 covers only the first
        trace = run(scenario_double_trap(), budgets=Budgets(backtracks=1))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.error_detail == "backtrack budget exhausted"
        assert trace.backtracks_used == 1

    def test_missing_depth_zero_disables_exploration(self):
        scenario = scenario_linear_taps_5()
        partial = synthesize_omissions(scenario.steps, 1, 0)
        trace = run(scenario, steps=partial,
                    budgets=Budgets(max_missing_depth=0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert not any(e.exploratory for e in trace.events)

    def test_token_budget_reaches_guidance_prompts(self):
        trace = run(scenario_single_step(), budgets=Budgets(tokens=40))
        assert trace.outcome is Outcome.ERROR
        assert "BudgetUnsatisfiable" in trace.error_detail


class TestErrorPath:
    def test_transport_errors_become_error_outcome(self):
        class Flaky(LlmClient):
            def __init__(self):
                super().__init__(LlmConfig(max_tokens=10 ** 6))

            def _complete(self, prompt):
                raise TransportError("endpoint unreachable")

        trace = run(scenario_single_step(), llm=Flaky())
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail == "TransportError: endpoint unreachable"

    def test_misnumbered_steps_raise_immediately(self):
        scenario = scenario_single_step()
        bad = [parse_step_text('[Tap] ["Crash me"]', 5)]
        device = fresh_device(scenario)
        with pytest.raises(ValueError):
            replay(bad, device, scenario.oracle(), CORPUS)
        device.close()


class TestTraceShape:
    def test_to_dict_round_trips_to_json(self):
        import json
        trace = run(scenario_linear_taps_5())
        data = trace.to_dict()
        parsed = json.loads(json.dumps(data))
        assert parsed["outcome"] == "bug_triggered"
        assert parsed["report_id"] == "linear_taps_5"
        assert parsed["steps"][0] == '1. [Tap] ["Open menu"]'
        assert len(parsed["events"]) == 5
        event = parsed["events"][0]
        assert set(event) == {"step_index", "step", "resolved_id",
                              "exploratory", "screen_digest"}
        assert parsed["actions_used"] == 5
        assert isinstance(parsed["wall_time"], float)
        assert all(isinstance(g, list) for g in parsed["gestures"])

    def test_empty_step_list_is_immediately_exhausted(self):
        scenario = scenario_single_step()
        trace = run(scenario, steps=[])
        assert trace.outcome is Outcome.STEPS_EXHAUSTED_NO_BUG
        assert trace.events == []


def test_custom_exclusion_clause_flows_into_queries():
    scenario = scenario_two_branch()
    oracle = scenario.oracle()
    device = fresh_device(scenario)
    trace = replay(scenario.steps, device, oracle, CORPUS,
                   exclusion_clause=", steering clear of {ids}")
    device.close()
    assert trace.outcome is Outcome.BUG_TRIGGERED
    assert any("steering clear of [id=3]" in q for (_, _, q) in oracle.queries)


def test_all_scenarios_again_with_tight_action_budget():
    for scenario in all_scenarios():
        budgets = Budgets(actions=len(scenario.steps) + 4)
        trace = run(scenario, budgets=budgets)
        assert trace.outcome is Outcome.BUG_TRIGGERED, scenario.name
