"""The guided replay loop: geometry, outcomes, backtracking, traces."""
import dataclasses
import sys
import threading
import time

import pytest

from bugreplay.device import SimulatedApp, SimulatedDevice
from bugreplay.errors import DeviceError, TransportError
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.gui import Bounds, ViewNode, encode_gui, screen_digest
from bugreplay.llm import LlmClient, TranscriptLlm, prompt_digest
from bugreplay.replay import (
    Budgets,
    Outcome,
    _dump_screen,
    _lexical_pick,
    _restore,
    _Snapshot,
    apply_gestures,
    execute_step,
    replay,
)
from bugreplay.steps import ActionType, parse_step_text

from helpers import (
    CRASH_STATE,
    PACKAGE,
    AlwaysMissingLlm,
    CallLog,
    GuidanceOracle,
    RelaunchFront,
    Scenario,
    ScriptedLlm,
    _spec,
    _tap,
    adb_device,
    all_scenarios,
    button,
    screen_tree,
    stacked,
    text_view,
    scenario_double_trap,
    scenario_hop_after_backtrack,
    scenario_linear_taps_5,
    scenario_mixed_all,
    scenario_no_back_decoy,
    scenario_single_step,
    scenario_three_backs,
    scenario_two_branch,
    scenario_with_input,
    scenario_with_scroll,
    synthesize_omissions,
    walk_steps,
)

CORPUS = ExemplarCorpus.builtin()


def fresh_device(scenario):
    return SimulatedDevice(SimulatedApp(scenario.spec))


def run(scenario, llm=None, budgets=None, steps=None, **kw):
    device = fresh_device(scenario)
    return replay(steps if steps is not None else scenario.steps,
                  device, llm or scenario.oracle(),
                  CORPUS, budgets, scenario.name, **kw)


class FakeDevice:
    """Records each list of gestures performed; geometry tests need no app
    behind them."""

    def __init__(self):
        self.performed = []

    def perform(self, gestures):
        self.performed.append(list(gestures))


def window(right=1080, bottom=1920):
    """The root of a dump whose window spans [0,0][right,bottom]."""
    return ViewNode("android.widget.FrameLayout", bounds=Bounds(0, 0, right, bottom))


class TestExecuteStep:
    def node(self):
        return ViewNode("android.widget.Button", bounds=Bounds(100, 200, 300, 400))

    def test_scroll_up_geometry(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text("[Scroll] [up]"), window())
        assert gestures == [("swipe", 540, 1536, 540, 384)]
        assert device.performed == [gestures]

    def test_scroll_down_geometry(self):
        device = FakeDevice()
        assert execute_step(device, parse_step_text("[Scroll] [down]"), window()) == [
            ("swipe", 540, 384, 540, 1536)]

    def test_scroll_left_right_geometry(self):
        device = FakeDevice()
        assert execute_step(device, parse_step_text("[Scroll] [left]"), window()) == [
            ("swipe", 864, 960, 216, 960)]
        assert execute_step(device, parse_step_text("[Scroll] [right]"), window()) == [
            ("swipe", 216, 960, 864, 960)]

    def test_scroll_scales_with_screen(self):
        device = FakeDevice()
        assert execute_step(device, parse_step_text("[Scroll] [up]"), window(720, 1280)) == [
            ("swipe", 360, 1024, 360, 256)]

    def test_tap_at_node_center(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text('[Tap] ["x"]'), self.node())
        assert gestures == [("tap", 200, 300)]

    def test_double_and_long(self):
        device = FakeDevice()
        execute_step(device, parse_step_text('[Double-tap] ["x"]'), self.node())
        execute_step(device, parse_step_text('[Long-tap] ["x"]'), self.node())
        assert device.performed == [[("double_tap", 200, 300)], [("long_tap", 200, 300)]]

    def test_input_taps_then_types(self):
        device = FakeDevice()
        gestures = execute_step(device, parse_step_text('[Input] ["f"] ["hi"]'), self.node())
        assert gestures == [("tap", 200, 300), ("text", "hi")]
        # one step, performed in one call
        assert device.performed == [gestures]

    def test_node_contract(self):
        # every step takes a node: a guided one its target, a Scroll the root of a dump
        device = FakeDevice()
        with pytest.raises(ValueError):
            execute_step(device, parse_step_text('[Tap] ["x"]'), None)
        with pytest.raises(ValueError):
            execute_step(device, parse_step_text("[Scroll] [up]"), None)
        assert device.performed == []


def digest_of(app, state):
    return screen_digest(encode_gui(app.states[state]).html)


class TestScrollWindow:
    """A Scroll crosses the root of the dump in hand, and dumps first when
    it has none."""

    def test_a_scroll_after_a_guided_tap_crosses_the_last_dumps_window(self):
        # a landscape app: the swipe's coordinates can only come from the dump
        def landscape(*children):
            return {"tree": {"class": "android.widget.FrameLayout", "bounds": [0, 0, 1920, 1080],
                             "children": list(children)}}

        spec = _spec({"s0": landscape(button("Open", 200)), "s1": landscape(text_view("Feed", 200))},
                     [_tap("s0", 1, "s1"), {"from": "s1", "action": "scroll", "direction": "down",
                                            "to": CRASH_STATE}], "s0")
        scenario = Scenario("landscape", spec, ['[Tap] ["Open"]', "[Scroll] [down]"])
        device = CallLog(fresh_device(scenario))
        trace = replay_on(device, scenario, scenario.oracle())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert device.calls == ["dump_hierarchy", ("tap", 540, 245), "crashed",
                                "dump_hierarchy", ("swipe", 960, 216, 960, 864), "crashed"]
        assert trace.events[1].screen_digest == digest_of(SimulatedApp(spec), "s1")

    def test_a_scroll_after_a_scroll_crosses_the_window_the_first_opened(self):
        # the first swipe opens a sheet that covers part of the feed; a swipe
        # across the whole screen would start below the sheet
        sheet = {"class": "android.widget.FrameLayout", "bounds": [100, 600, 980, 1400],
                 "children": [text_view("Sheet", 700)]}
        spec = _spec({"feed": {"tree": stacked("Feed", [])}, "sheet": {"tree": sheet}},
                     [{"from": "feed", "action": "scroll", "direction": "up", "to": "sheet"},
                      {"from": "sheet", "action": "scroll", "direction": "up", "to": CRASH_STATE}], "feed")
        scenario = Scenario("sheet", spec, ["[Scroll] [up]", "[Scroll] [up]"])
        device = CallLog(fresh_device(scenario))
        trace = replay_on(device, scenario, scenario.oracle())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert device.calls == ["dump_hierarchy", ("swipe", 540, 1536, 540, 384), "crashed",
                                "dump_hierarchy", ("swipe", 540, 1240, 540, 760), "crashed"]
        assert trace.events[1].screen_digest == digest_of(SimulatedApp(spec), "sheet")

    def test_a_scroll_after_a_gesture_dumps_right_before_its_swipe(self):
        scenario = scenario_mixed_all()
        device = CallLog(fresh_device(scenario))
        trace = replay(scenario.steps, device, scenario.oracle(), CORPUS,
                       report_id=scenario.name)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        seen = dumps_and_gestures(device)
        swipe = seen.index("swipe")
        assert seen[swipe - 2:swipe] == ["tap", "dump_hierarchy"]
        [scroll] = [e for e in trace.events if e.step.action is ActionType.SCROLL]
        assert scroll.screen_digest == digest_of(SimulatedApp(scenario.spec), "m2")

    def test_a_first_scroll_dumps_once_unless_given_the_first_screen(self):
        scenario = scenario_with_scroll()
        app = SimulatedApp(scenario.spec)
        for first_screen, before in ((None, ["dump_hierarchy"]), (app.states[app.initial], [])):
            device = CallLog(SimulatedDevice(app))
            trace = replay_on(device, scenario, scenario.oracle(), first_screen=first_screen)
            assert trace.outcome is Outcome.BUG_TRIGGERED
            assert device.calls[:len(before) + 1] == [*before, ("swipe", 540, 384, 540, 1536)]
            assert trace.events[0].screen_digest == _dump_screen(SimulatedDevice(app))[1]


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

    def test_a_hop_carries_the_place_of_the_step_it_waits_on(self):
        # seed 0 drops "Diagnostics", so "Self test", fourth in the list,
        # waits while a hop stands in for the missing step
        scenario = scenario_linear_taps_5()
        trace = run(scenario, steps=synthesize_omissions(scenario.steps, 1, 0))
        assert [(e.step_index, e.step.component, e.exploratory) for e in trace.events] == [
            (1, "Open menu", False), (2, "Settings", False), (3, "Advanced", False),
            (4, "Self test", True), (4, "Self test", False)]

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


FIRST, SECOND = ("tap", 540, 245), ("tap", 540, 375)
BACK = ("back",)
RESTART = ("restart",)


def dumps_and_gestures(device):
    """The dumps and the gestures' kinds a logged device saw, in order."""
    return [kind for call, kind in zip(device.calls, device.kinds())
            if call == "dump_hierarchy" or isinstance(call, tuple)]


class TestDumpReuse:
    """Restores reuse the dump in hand and hand theirs on, so the screen is
    dumped only after a gesture; what the replay does stays the same."""

    @pytest.mark.parametrize("build, gestures, events", [
        # restored by one Back press
        (scenario_two_branch, [SECOND, ("back",), FIRST, FIRST],
         [(1, 3), (1, 2), (2, 2)]),
        # restored by a restart with an empty prefix
        (scenario_no_back_decoy, [SECOND, BACK, RESTART, FIRST, FIRST],
         [(1, 3), (1, 2), (2, 2)]),
        # restored by restarts, the second replaying what its prefix did
        # after the first
        (scenario_double_trap,
         [SECOND, BACK, RESTART, FIRST, SECOND, BACK, RESTART, FIRST, FIRST, FIRST],
         [(1, 3), (1, 2), (2, 3), (2, 2), (3, 2)]),
    ])
    def test_no_dump_without_a_gesture_between(self, build, gestures, events):
        scenario = build()
        device = CallLog(fresh_device(scenario))
        trace = replay(scenario.steps, device, scenario.oracle(), CORPUS,
                       report_id=scenario.name)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used >= 1
        assert trace.gestures == gestures
        assert [(e.step_index, e.resolved_id) for e in trace.events] == events
        assert not any(e.exploratory for e in trace.events)
        seen = dumps_and_gestures(device)
        assert seen[0] == "dump_hierarchy"
        assert all(not (a == b == "dump_hierarchy") for a, b in zip(seen, seen[1:]))


class TestScrollWithoutDump:
    """A Scroll step with a dump in hand takes no other, and its event
    carries that dump's digest."""

    def test_first_screen_is_the_dump_in_hand(self):
        scenario = scenario_with_scroll()
        device = CallLog(fresh_device(scenario))
        first = device.device.dump_hierarchy()
        trace = replay(scenario.steps, device, scenario.oracle(), CORPUS,
                       report_id=scenario.name, first_screen=first)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert dumps_and_gestures(device) == ["swipe", "dump_hierarchy", "tap"]
        assert trace.events[0].screen_digest == screen_digest(encode_gui(first).html)


def rows_scenario():
    """Thirty rows, each a text in a wrapper: row 7 is id 16 in the full
    encoding and id 7 once the wrappers are elided; it leads to a dead end."""
    rows = [{"class": "android.widget.LinearLayout", "bounds": [0, 60 * i, 1080, 60 * i + 60],
             "children": [{"class": "android.widget.TextView", "text": f"Row number {i}",
                           "bounds": [0, 60 * i, 1080, 60 * i + 60]}]}
            for i in range(30)]
    spec = _spec({"rows": {"tree": screen_tree(rows)}, "dead": {"tree": stacked("Nothing here", [])}},
                 [_tap("rows", 16, "dead"), {"from": "dead", "action": "back", "to": "rows"}],
                 "rows")
    return Scenario("elided_retry", spec, ['[Tap] ["Row number 7"]', '[Tap] ["Finish"]'])


def test_exclusion_holds_when_the_retry_prompt_elides():
    # the first prompt fits the full encoding, where row 7 is id 16; the
    # retry's exclusion clause forces elision, where row 7 is id 7
    llm = ScriptedLlm(["[id=16]", "I have no idea.", "[id=7]"])
    trace = run(rows_scenario(), llm=llm, budgets=Budgets(tokens=594, backtracks=1))
    assert "excluding components [id=7]?" in llm.prompts[2].segments[-1].text
    assert [(e.step_index, e.resolved_id) for e in trace.events] == [(1, 16)]
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    assert trace.error_detail == "nowhere left to backtrack"


def test_an_elided_answer_is_traced_by_its_full_id():
    # at 520 tokens every prompt on the rows elides their wrappers, so the
    # answer [id=7] names row 7; the event names it by its full id, 16,
    # on the screen its digest names
    scenario = rows_scenario()
    full = encode_gui(SimulatedApp(scenario.spec).states["rows"])
    llm = ScriptedLlm(["[id=7]"] * 3)
    trace = run(scenario, llm=llm, budgets=Budgets(tokens=520))
    assert "<p id=7>Row number 7</p>" in llm.prompts[0].segments[-2].text
    assert trace.gestures == [("tap", 540, 450), BACK]
    [event] = trace.events
    assert (event.resolved_id, event.screen_digest) == (16, screen_digest(full.html))
    assert full.index[16].text == "Row number 7"
    # the re-ask excludes row 7 by its elided id and refuses the repeat
    assert "excluding components [id=7]?" in llm.prompts[2].segments[-1].text
    assert trace.error_detail == "nowhere left to backtrack"


class TestRestore:
    """Back presses stop once one changes nothing, then a restart takes over."""

    @pytest.mark.parametrize("backs, log, added", [
        # the dead end ignores Back: one press shows it, then restart
        ([], [], [BACK, RESTART]),
        # after typing, the first Back may only have closed the keyboard
        ([], [FIRST, ("text", "hi")], [BACK, BACK, RESTART]),
        # a press that moves elsewhere keeps the presses going
        ([("dead", "mid")], [], [BACK, BACK, RESTART]),
        ([("dead", "mid"), ("mid", "s0")], [], [BACK, BACK]),
        # three presses at most, however far Back still moves
        ([("dead", "mid"), ("mid", "mid2"), ("mid2", "mid3"), ("mid3", "s0")], [],
         [BACK, BACK, BACK, RESTART]),
    ], ids=["ignored", "after-text", "moved-then-ignored", "moved-home", "three-moves-then-restart"])
    def test_presses_back_until_it_changes_nothing(self, backs, log, added):
        spec = _spec({name: {"tree": stacked(name, [])} for name in ("s0", "mid", "mid2", "mid3", "dead")},
                     [{"from": a, "action": "back", "to": b} for a, b in backs], "s0")
        device = SimulatedDevice(SimulatedApp(spec))
        home = _dump_screen(device)
        device.current = "dead"
        gestures = list(log)
        snap = _Snapshot(cursor=0, missing_depth=0, screen=home, excluded=frozenset(),
                         departed_id=0, gesture_prefix=0)
        screen = _restore(device, snap, gestures, _dump_screen(device))
        assert gestures == log + added
        assert screen[1] == home[1]
        assert device.current == "s0"

    def test_a_back_into_the_crash_ends_the_restore(self):
        # the crash is found before a restart's logcat -c could erase it
        spec = _spec({name: {"tree": stacked(name, [])} for name in ("s0", "dead")},
                     [{"from": "dead", "action": "back", "to": CRASH_STATE}], "s0")
        simulated = SimulatedDevice(SimulatedApp(spec))
        snap = _Snapshot(cursor=0, missing_depth=0, screen=_dump_screen(simulated), excluded=frozenset(),
                         departed_id=0, gesture_prefix=0)
        simulated.current = "dead"
        device = CallLog(simulated)
        gestures = []
        assert _restore(device, snap, gestures, _dump_screen(device)) is None
        assert gestures == [BACK]
        assert device.calls == ["dump_hierarchy", BACK, "dump_hierarchy", "crashed"]

    @pytest.mark.parametrize("lands, crashes", [(CRASH_STATE, True), ("s2", False)], ids=["crash", "elsewhere"])
    def test_a_prefix_that_misses_the_snapshot_is_checked_for_a_crash(self, lands, crashes):
        # the prefix's tap, replayed after the restart, no longer reaches s1
        spec = _spec({"s0": {"tree": stacked("s0", [lambda y: button("Go", y)])},
                      **{name: {"tree": stacked(name, [])} for name in ("s1", "s2", "dead")}},
                     [_tap("s0", 2, lands)], "s0")
        device = SimulatedDevice(SimulatedApp(spec))
        device.current = "s1"
        snap = _Snapshot(cursor=0, missing_depth=0, screen=_dump_screen(device), excluded=frozenset(),
                         departed_id=0, gesture_prefix=1)
        device.current = "dead"
        gestures = [FIRST]
        if crashes:
            assert _restore(device, snap, gestures, _dump_screen(device)) is None
        else:
            with pytest.raises(DeviceError, match="could not restore the prior screen"):
                _restore(device, snap, gestures, _dump_screen(device))
        assert gestures == [FIRST, BACK, RESTART, FIRST]

    def test_three_presses_restore_without_a_restart(self):
        trace = run(scenario_three_backs())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used == 1
        assert trace.gestures == [SECOND, BACK, BACK, BACK, FIRST, FIRST]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 10: a restore matches the whole screen's digest, "
                              "text included, so a screen whose clock ticks never matches")
    @pytest.mark.parametrize("make_scenario", [scenario_two_branch, scenario_no_back_decoy],
                             ids=["two-branch", "no-back-decoy"])
    def test_a_ticking_clock_does_not_stop_a_restore(self, make_scenario):
        class TickingDevice(SimulatedDevice):
            """Each dump shows a clock at the foot of the screen, one minute on from the last."""

            ticks = 0

            def dump_hierarchy(self):
                tree = super().dump_hierarchy()
                self.ticks += 1
                clock = ViewNode("android.widget.TextView", text=f"12:{self.ticks:02d}",
                                 bounds=Bounds(0, 1800, 200, 1880))
                return dataclasses.replace(tree, children=[*tree.children, clock])

        scenario = make_scenario()
        device = TickingDevice(SimulatedApp(scenario.spec))
        trace = replay_on(device, scenario, scenario.oracle())
        assert trace.outcome is Outcome.BUG_TRIGGERED


class TestRestorePrefix:
    """replay.apply_gestures is called for restore prefixes only, so a
    wrapper around that name counts exactly the gestures they replay."""

    @pytest.fixture
    def prefixes(self, monkeypatch):
        import bugreplay.replay as replay_module
        calls = []

        def recorder(device, gestures):
            calls.append(list(gestures))
            apply_gestures(device, gestures)

        monkeypatch.setattr(replay_module, "apply_gestures", recorder)
        return calls

    def test_a_run_with_no_backtrack_never_calls_it(self, prefixes):
        trace = run(scenario_linear_taps_5())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used == 0
        assert prefixes == []

    def test_a_restart_replays_the_snapshots_prefix(self, prefixes):
        # two restores, each by restart; the second trap's snapshot was
        # taken after four logged gestures, the first restart among them,
        # which undid the two before it
        trace = run(scenario_double_trap())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert prefixes == [[], [FIRST]]
        assert trace.gestures[4:8] == [SECOND, BACK, RESTART, FIRST]
        assert trace.gestures[8:] == [FIRST, FIRST]

    def test_only_what_follows_the_prefixs_last_restart_replays(self, prefixes):
        # two decoys on Start, each undone by a restart, then Continue to
        # Middle, where the snapshot is taken before Quit's dead end
        device = fresh_device(scenario_double_trap())
        log = [SECOND, BACK, RESTART, SECOND, BACK, RESTART, FIRST]
        device.perform([FIRST])
        middle = _dump_screen(device)
        snap = _Snapshot(cursor=1, missing_depth=0, screen=middle, excluded=frozenset(),
                         departed_id=3, gesture_prefix=len(log))
        device.perform([SECOND])
        gestures = log + [SECOND]
        screen = _restore(device, snap, gestures, _dump_screen(device))
        assert prefixes == [[FIRST]]
        assert gestures == log + [SECOND, BACK, RESTART, FIRST]
        assert screen[1] == middle[1]


def test_exclusions_stay_on_the_screen_they_were_made_on():
    # with "More" omitted, Home's id 2 is excluded after the decoy, and the
    # bridge hops to Menu, whose Target is id 2 again
    scenario = scenario_hop_after_backtrack()
    oracle = scenario.oracle()
    trace = run(scenario, llm=oracle, steps=synthesize_omissions(scenario.steps, 1, 1))
    assert [s.component for s in trace.steps] == ["Target", "Boom"]
    queries = [q for (_, _, q) in oracle.queries]
    assert "excluding components [id=2]?" in queries[2]
    assert "excluding" not in queries[3]
    menu = fresh_device(scenario)
    menu.current = "menu"
    assert trace.events[2].screen_digest == _dump_screen(menu)[1]
    assert trace.outcome is Outcome.BUG_TRIGGERED
    assert len(queries) == 5
    assert [(e.step_index, e.resolved_id, e.exploratory) for e in trace.events] == [
        (1, 2, False), (1, 3, True), (1, 2, False), (2, 2, False)]


class TestAdversarialGuidance:
    def test_always_missing_exhausts_and_terminates(self):
        scenario = scenario_single_step()
        trace = run(scenario, llm=AlwaysMissingLlm())
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert all(e.exploratory for e in trace.events)

    def test_unanswerable_with_no_history(self):
        class Mute(LlmClient):
            def _complete(self, prompt):
                return "I have no idea."

        trace = run(scenario_single_step(), llm=Mute())
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.error_detail == "nowhere left to backtrack"

    def test_exploratory_hop_on_an_input_step_only_taps(self):
        # id 3 is "Save", beside the "Title" field the step wants
        scenario = scenario_with_input()
        save = encode_gui(fresh_device(scenario).dump_hierarchy()).index[3]
        device = CallLog(fresh_device(scenario))
        trace = replay(scenario.steps, device, ScriptedLlm(["[MISSING] [id=3]"]),
                       CORPUS, Budgets(actions=1), scenario.name)
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.gestures == [("tap", *save.bounds.center())]
        assert [(e.step_index, e.resolved_id, e.exploratory) for e in trace.events] == [(1, 3, True)]
        assert "text" not in device.kinds()


class TestBudgets:
    def test_zero_wall_clock(self):
        trace = run(scenario_single_step(), budgets=Budgets(wall_seconds=0.0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert "wall clock" in trace.error_detail

    def test_zero_actions(self):
        trace = run(scenario_single_step(), budgets=Budgets(actions=0))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert "action budget" in trace.error_detail

    def test_a_run_that_cannot_backtrack_says_whether_a_screen_was_kept(self):
        # the decoy's dead end: its screen is kept, and the budget stops the way back
        trace = run(scenario_two_branch(), budgets=Budgets(backtracks=0))
        assert (trace.outcome, trace.error_detail) == (Outcome.BUDGET_EXHAUSTED, "backtrack budget exhausted")
        assert (len(trace.events), trace.backtracks_used) == (1, 0)
        # an unusable answer on the first guided step has no screen behind it
        trace = run(scenario_two_branch(), llm=ScriptedLlm(["I have no idea."]), budgets=Budgets(backtracks=0))
        assert (trace.outcome, trace.error_detail) == (Outcome.BUDGET_EXHAUSTED, "nowhere left to backtrack")
        assert (len(trace.events), trace.backtracks_used) == (0, 0)

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

    @pytest.mark.parametrize("name, value", [
        ("tokens", -1), ("actions", -1), ("backtracks", -1),
        ("max_missing_depth", -3), ("wall_seconds", -0.5), ("wall_seconds", float("nan")),
        ("backtracks", 2.5), ("actions", 3.0), ("tokens", "4096"), ("max_missing_depth", None),
        ("wall_seconds", "5"), ("wall_seconds", None), ("wall_seconds", True),
        ("actions", True), ("tokens", False), ("backtracks", True), ("max_missing_depth", False)])
    def test_negative_or_nan_budget_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"budget {name} must be a non-negative number"):
            Budgets(**{name: value})

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: the loop waits out a model call in flight "
                              "with no timeout, past the wall budget")
    def test_wall_budget_holds_inside_a_slow_model_call(self):
        class SlowOracle(GuidanceOracle):
            def _complete(self, prompt):
                time.sleep(0.3)
                return super()._complete(prompt)

        scenario = scenario_linear_taps_5()
        trace = run(scenario, llm=SlowOracle(bridges=scenario.bridges), budgets=Budgets(wall_seconds=0.5))
        assert trace.wall_time <= 0.55

    def test_token_budget_reaches_guidance_prompts(self):
        trace = run(scenario_single_step(), budgets=Budgets(tokens=40))
        assert trace.outcome is Outcome.ERROR
        assert "BudgetUnsatisfiable" in trace.error_detail


class NoCrashBuffer(SimulatedDevice):
    """A device of PACKAGE whose every dump shows the app's own window, so
    on the fast path each check with a step left waits; reading the crash
    buffer fails."""

    package = PACKAGE

    def dump_hierarchy(self):
        return dataclasses.replace(super().dump_hierarchy(), package=self.package)

    def crashed(self):
        raise DeviceError("logcat -d -b crash exited 1")


class TestErrorPath:
    def test_transport_errors_become_error_outcome(self):
        class Flaky(LlmClient):
            def _complete(self, prompt):
                raise TransportError("endpoint unreachable")

        trace = run(scenario_single_step(), llm=Flaky())
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail == "TransportError: endpoint unreachable"

    def test_a_crash_check_that_fails_at_the_finish_ends_the_run_as_error(self):
        # on the fast path, the check after the one action waits past the
        # app's own window, for the next step's dump, which the spent action
        # budget never takes
        scenario = scenario_linear_taps_5()
        trace = replay(scenario.steps, NoCrashBuffer(SimulatedApp(scenario.spec)), scenario.oracle(),
                       CORPUS, Budgets(actions=1), scenario.name, fast_path=True)
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail == "DeviceError: logcat -d -b crash exited 1"
        assert trace.actions_used == 1

    def test_a_crash_check_that_fails_after_a_failure_keeps_the_first_detail(self):
        # on the fast path, the second dump fails with the first action's
        # check still owed, and the check, run at the finish, fails too
        class LostDevice(NoCrashBuffer):
            dumps = 0

            def dump_hierarchy(self):
                self.dumps += 1
                if self.dumps == 2:
                    raise DeviceError("uiautomator dump exited 1")
                return super().dump_hierarchy()

        scenario = scenario_linear_taps_5()
        trace = replay(scenario.steps, LostDevice(SimulatedApp(scenario.spec)), scenario.oracle(), CORPUS,
                       report_id=scenario.name, fast_path=True)
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail == "DeviceError: uiautomator dump exited 1"
        assert trace.actions_used == 1


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
                              "exploratory", "screen_digest", "resolved_by"}
        assert parsed["actions_used"] == 5
        assert isinstance(parsed["wall_time"], float)
        assert all(isinstance(g, list) for g in parsed["gestures"])

    def test_empty_step_list_is_immediately_exhausted(self):
        scenario = scenario_single_step()
        trace = run(scenario, steps=[])
        assert trace.outcome is Outcome.STEPS_EXHAUSTED_NO_BUG
        assert trace.events == []


def test_all_scenarios_again_with_tight_action_budget():
    for scenario in all_scenarios():
        budgets = Budgets(actions=len(scenario.steps) + 4)
        trace = run(scenario, budgets=budgets)
        assert trace.outcome is Outcome.BUG_TRIGGERED, scenario.name


class TestLexicalPick:
    """The fast path's rule: one node whose text, content-desc or
    resource-id leaf reads as the step's component."""

    def encoded(self):
        return encode_gui(ViewNode("android.widget.FrameLayout", children=[
            ViewNode("android.widget.Button", resource_id="app:id/sign_in_btn", text="Sign  In"),
            ViewNode("android.widget.ImageView", content_desc="User Avatar"),
            ViewNode("android.widget.Button", text="Delete"),
            ViewNode("android.widget.Button", text="delete"),
        ]))

    @pytest.mark.parametrize("component, expected", [
        ("sign in", 1),
        ("SIGN_IN_BTN", 1),
        ("user_avatar", 2),
        ("Sign", None),
        ("Delete", None),
        ("Nowhere", None),
    ], ids=["text", "resource-leaf", "content-desc", "partial", "two-matches", "absent"])
    def test_one_normalised_match_or_none(self, component, expected):
        assert _lexical_pick(component, self.encoded()) == expected


class ButtonOracle(GuidanceOracle):
    """Honest guidance that names only buttons, noting each prompt's digest."""

    def __init__(self, bridges=None):
        super().__init__(bridges=bridges)
        self.digests = []

    def _complete(self, prompt):
        self.digests.append(prompt_digest(prompt.rendered))
        return super()._complete(prompt)

    def _answer(self, component, excluded, elems):
        return super()._answer(component, excluded, [e for e in elems if e["tag"] == "button"])


def _scroll(frm, to):
    return {"from": frm, "action": "scroll", "direction": "down", "to": to}


def scenario_filler_bridge(then):
    """The first screen shows "Details" as filler text, and moves on only
    through a "Next" button the report does not mention; the second screen
    has the real "Details" button. then is the step after it: "tap" on
    "Confirm", "none", or "scroll" down, which on the first screen would
    move it to another screen and so hide a filler tap that did nothing."""
    s0 = stacked("Start", [lambda y: text_view("Details", y), lambda y: button("Next", y)])
    s1 = stacked("Middle", [lambda y: button("Details", y)])
    s2 = stacked("Last", [lambda y: button("Confirm", y)])
    elsewhere = stacked("Start, scrolled", [lambda y: text_view("The end", y)])
    ends = {"tap": ("s2", ['[Tap] ["Confirm"]']), "none": (CRASH_STATE, []), "scroll": ("s2", ["[Scroll] [down]"])}
    after_details, more = ends[then]
    transitions = [_tap("s0", 3, "s1"), _tap("s1", 2, after_details), _scroll("s0", "elsewhere"),
                   _tap("s2", 2, CRASH_STATE), _scroll("s2", CRASH_STATE)]
    states = {"s0": {"tree": s0}, "s1": {"tree": s1}, "s2": {"tree": s2}, "elsewhere": {"tree": elsewhere}}
    spec = _spec(states, transitions, "s0")
    return Scenario("filler_bridge", spec, ['[Tap] ["Details"]'] + more, bridges={"Details": ["Next"]})


class TestFastPath:
    @pytest.mark.parametrize("build", [scenario_linear_taps_5, scenario_mixed_all])
    def test_verbatim_unique_labels_need_no_model(self, build):
        scenario = build()
        llm = ScriptedLlm([])
        trace = run(scenario, llm=llm, fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert llm.prompts == []
        assert [e.resolved_by for e in trace.events] == [
            None if s.action is ActionType.SCROLL else "lexical" for s in scenario.steps]

    def test_off_by_default(self):
        llm = ScriptedLlm(["[id=2]"])
        trace = run(scenario_single_step(), llm=llm)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert len(llm.prompts) == 1
        assert trace.events[0].resolved_by == "model"

    def test_two_matches_go_to_the_model_and_so_does_every_later_step(self):
        # "Delete" names ids 2 and 3; "Confirm" is then verbatim and unique,
        # but once the model has been asked, it is asked for the rest
        s0 = stacked("Inbox", [lambda y: button("Delete", y), lambda y: button("Delete", y)])
        s1 = stacked("Sure?", [lambda y: button("Confirm", y)])
        spec = _spec({"s0": {"tree": s0}, "s1": {"tree": s1}},
                     [_tap("s0", 3, "s1"), _tap("s1", 2, CRASH_STATE)], "s0")
        scenario = Scenario("two_deletes", spec, ['[Tap] ["Delete"]', '[Tap] ["Confirm"]'])
        llm = ScriptedLlm(["[id=3]", "[id=2]"])
        trace = run(scenario, llm=llm, fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert len(llm.prompts) == 2
        assert [(e.resolved_id, e.resolved_by) for e in trace.events] == [(3, "model"), (2, "model")]

    @pytest.mark.parametrize("then", ["tap", "none", "scroll"], ids=["tap-next", "last-step", "scroll-next"])
    def test_a_pick_that_changes_nothing_is_undone(self, then):
        scenario = scenario_filler_bridge(then)
        paper, fast = ButtonOracle(scenario.bridges), ButtonOracle(scenario.bridges)
        expected = run(scenario, llm=paper)
        trace = run(scenario, llm=fast, fast_path=True)
        assert expected.outcome is trace.outcome is Outcome.BUG_TRIGGERED
        # the filler tap stays in the trace; then the model is asked on the
        # same screen, with the same prompts, as if it had never happened
        first = trace.events[0]
        assert (first.step_index, first.resolved_id, first.resolved_by) == (1, 2, "lexical")
        assert fast.digests == paper.digests
        assert [(e.step_index, e.resolved_id, e.exploratory, e.resolved_by) for e in trace.events[1:]] == [
            (e.step_index, e.resolved_id, e.exploratory, e.resolved_by) for e in expected.events]
        assert trace.backtracks_used == 0

    def test_a_pick_the_model_names_again_is_not_sent_again(self):
        # the tap on "Save" changes nothing and is undone; the model names
        # "Save" again, and the tap already sent is the step's one action
        s0 = stacked("Note", [lambda y: button("Save", y), lambda y: button("Go", y)])
        spec = _spec({"s0": {"tree": s0}}, [_tap("s0", 3, CRASH_STATE)], "s0")
        scenario = Scenario("save_then_go", spec, ['[Tap] ["Save"]', '[Tap] ["Go"]'])
        llm = ScriptedLlm(["[id=2]", "[id=3]"])
        trace = run(scenario, llm=llm, budgets=Budgets(actions=2), fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.gestures == [("tap", 540, 245), ("tap", 540, 375)]
        assert [(e.step_index, e.resolved_id, e.resolved_by) for e in trace.events] == [
            (1, 2, "lexical"), (2, 3, "model")]
        assert len(llm.prompts) == 2

    def test_a_pick_the_model_names_again_can_be_backtracked_to(self):
        # the tap on "Save" changes nothing and is undone, and the model names
        # "Save" again; "Finish" is not on that screen, so the run goes back to
        # it, excludes "Save" and takes "Go" instead
        s0 = stacked("Note", [lambda y: button("Save", y), lambda y: button("Go", y)])
        s1 = stacked("Sent", [lambda y: button("Finish", y)])
        spec = _spec({"s0": {"tree": s0}, "s1": {"tree": s1}},
                     [_tap("s0", 3, "s1"), _tap("s1", 2, CRASH_STATE)], "s0")
        scenario = Scenario("save_then_finish", spec, ['[Tap] ["Save"]', '[Tap] ["Finish"]'])
        llm = ScriptedLlm(["[id=2]", "I have no idea.", "[id=3]", "[id=2]"])
        trace = run(scenario, llm=llm, fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used == 1
        assert [(e.step_index, e.resolved_id, e.resolved_by) for e in trace.events] == [
            (1, 2, "lexical"), (1, 3, "model"), (2, 2, "model")]
        assert trace.gestures == [("tap", 540, 245), ("tap", 540, 375), ("tap", 540, 245)]
        assert "excluding components [id=2]" in llm.prompts[2].rendered

    @pytest.mark.parametrize("build", [
        lambda: scenario_filler_bridge("tap"), lambda: scenario_filler_bridge("none"),
        lambda: scenario_filler_bridge("scroll"), scenario_two_branch],
        ids=["filler-tap-next", "filler-last-step", "filler-scroll-next", "two-branch"])
    def test_zero_backtracks(self, build):
        scenario = build()
        llm = ButtonOracle(scenario.bridges)
        trace = run(scenario, llm=llm, budgets=Budgets(backtracks=0), fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.backtracks_used == 0


# seconds a probe waits for the other thread before it gives up
WAIT_S = 2.0


class HeldLlm(LlmClient):
    """Delegates to `inner`; a call whose prompt `hold` selects waits,
    a while at most, until `released` is set before it answers."""

    def __init__(self, inner, hold=lambda rendered: True):
        super().__init__()
        self.inner, self.hold = inner, hold
        self.out = threading.Event()
        self.released = threading.Event()

    def _complete(self, prompt):
        if self.hold(prompt.rendered) and not self.released.is_set():
            self.out.set()
            self.released.wait(WAIT_S)
        return self.inner.complete(prompt)


class Probe(CallLog):
    """A CallLog that, at each call or gesture of kind `op`, notes whether
    the held guidance call is out (waiting a while for it first), then
    lets it answer."""

    def __init__(self, device, llm, op):
        super().__init__(device)
        self.llm, self.op = llm, op
        self.seen = []

    def note(self, call):
        super().note(call)
        if self.kinds()[-1] == self.op:
            self.llm.out.wait(WAIT_S)
            self.seen.append(self.llm.out.is_set() and not self.llm.released.is_set())
            self.llm.released.set()


def scenario_crash_midway():
    """Tapping "Crash me" crashes the app, though the report goes on."""
    return Scenario("crash_midway", scenario_single_step().spec,
                    ['[Tap] ["Crash me"]', '[Tap] ["Then this"]'])


class SlowScriptedLlm(ScriptedLlm):
    """Scripted answers, each after a delay; counts the answers given."""

    def __init__(self, answers, delay):
        super().__init__(answers)
        self.delay = delay
        self.answered = 0

    def _complete(self, prompt):
        answer = super()._complete(prompt)
        time.sleep(self.delay)
        self.answered += 1
        return answer


def replay_on(device, scenario, llm, budgets=None, **kw):
    """Replay scenario on a logged device."""
    return replay(scenario.steps, device, llm, CORPUS, budgets, scenario.name, **kw)


def scenario_open_scroll_load():
    """"Open" leads to a feed, a Scroll down to its end, and "Load more"
    there crashes the app; the report names neither button as it reads."""
    s0 = stacked("Home", [lambda y: button("Open", y)])
    s1 = stacked("Feed top", [])
    s2 = stacked("Feed bottom", [lambda y: button("Load more", y)])
    spec = _spec({"s0": {"tree": s0}, "s1": {"tree": s1}, "s2": {"tree": s2}},
                 [_tap("s0", 2, "s1"), _scroll("s1", "s2"), _tap("s2", 2, CRASH_STATE)], "s0")
    return Scenario("open_scroll_load", spec,
                    ['[Tap] ["Open the feed"]', "[Scroll] [down]", '[Tap] ["Load more items"]'])


class TestOverlap:
    """Guidance calls run on a worker thread: the re-ask goes out during
    the restore, and on the fast path a crash check still owed while the
    app's own window shows runs while the next call is out; what the run
    does stays the paper's. The paper's loop checks after every action."""

    def test_reask_is_out_during_the_restore(self):
        scenario = scenario_two_branch()
        llm = HeldLlm(scenario.oracle(), hold=lambda rendered: "excluding components" in rendered)
        device = Probe(fresh_device(scenario), llm, "back")
        trace = replay_on(device, scenario, llm)
        assert device.seen == [True]
        assert device.threads == {threading.get_ident()}
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.gestures == [SECOND, BACK, FIRST, FIRST]
        assert [(e.step_index, e.resolved_id) for e in trace.events] == [(1, 3), (1, 2), (2, 2)]

    def test_crash_check_runs_while_the_model_answers(self):
        # on the fast path over dumps of the app's own window, once the model
        # has been asked, the first tap and the swipe owe one check: it runs
        # during the next call, and the last tap's runs at once
        scenario = scenario_open_scroll_load()
        llm = HeldLlm(ScriptedLlm(["[id=2]", "[id=2]"]), hold=lambda rendered: "Load more items" in rendered)
        device = Probe(adb_device(scenario.spec)[0], llm, "crashed")
        trace = replay_on(device, scenario, llm, fast_path=True)
        assert device.seen == [True, False]
        assert device.kinds() == ["dump_hierarchy", "tap", "dump_hierarchy", "swipe",
                                  "dump_hierarchy", "crashed", "tap", "crashed"]
        assert device.threads == {threading.get_ident()}
        assert trace.outcome is Outcome.BUG_TRIGGERED

    @pytest.mark.parametrize("over_adb", [False, True], ids=["simulated", "adb-own-window"])
    def test_the_papers_loop_checks_for_the_crash_after_every_action(self, over_adb):
        scenario = scenario_mixed_all()
        device = CallLog(adb_device(scenario.spec)[0] if over_adb else fresh_device(scenario))
        trace = replay_on(device, scenario, scenario.oracle())
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert [e.resolved_by for e in trace.events].count("model") > 1
        calls = device.calls
        # each action's check comes right after its gestures, before any dump
        assert calls.count("crashed") == trace.actions_used
        assert all(isinstance(calls[i - 1], tuple) for i, c in enumerate(calls) if c == "crashed")

    def test_a_mid_run_crash_ends_the_papers_loop_at_once(self):
        # the crash leaves the app's own window in front, and still no dump
        # and no model call follow the check that finds it
        scenario = scenario_crash_midway()
        llm = ScriptedLlm(["[id=2]", "[id=0]"])
        device = CallLog(adb_device(scenario.spec, RelaunchFront)[0])
        trace = replay_on(device, scenario, llm)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert device.kinds() == ["dump_hierarchy", "tap", "crashed"]
        assert len(llm.prompts) == 1

    def test_fast_path_checks_for_the_crash_at_once(self):
        scenario = scenario_mixed_all()
        device = CallLog(fresh_device(scenario))
        trace = replay_on(device, scenario, ScriptedLlm([]), fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        calls = device.calls
        # each action's check comes right after its gestures, before any dump
        assert calls.count("crashed") == trace.actions_used
        assert all(isinstance(calls[i - 1], tuple) for i, c in enumerate(calls) if c == "crashed")

    def test_no_call_once_the_action_budget_is_spent(self):
        # the decoy spends the one action; the step after it would need
        # the model, and a backtrack a re-ask, but neither is sent
        scenario = scenario_two_branch()
        llm = ScriptedLlm(["[id=3]"])
        device = CallLog(fresh_device(scenario))
        trace = replay_on(device, scenario, llm, Budgets(actions=1))
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.error_detail == "action budget exhausted"
        assert len(llm.prompts) == 1
        assert trace.backtracks_used == 0
        assert device.kinds() == ["dump_hierarchy", "tap", "crashed"]

    def test_crash_on_the_last_action_the_budget_allows(self):
        scenario = scenario_crash_midway()
        llm = ScriptedLlm(["[id=2]"])
        device = CallLog(fresh_device(scenario))
        trace = replay_on(device, scenario, llm, Budgets(actions=1))
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert len(llm.prompts) == 1
        assert device.kinds() == ["dump_hierarchy", "tap", "crashed"]

    def test_mid_run_crash_drops_the_answer_it_overlapped(self):
        # on the fast path, "Crash me" is picked with no model call, and the
        # crash leaves the app's own window in front
        scenario = scenario_crash_midway()
        llm = SlowScriptedLlm(["[id=0]"], delay=0.05)
        device = CallLog(adb_device(scenario.spec, RelaunchFront)[0])
        trace = replay_on(device, scenario, llm, fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert [(e.step_index, e.resolved_id) for e in trace.events] == [(1, 2)]
        # the check waited for the call to go out on the crash screen,
        # and the run waited for its answer before returning
        assert device.kinds() == ["dump_hierarchy", "tap", "dump_hierarchy", "crashed"]
        assert len(llm.prompts) == llm.answered == 1

    def test_crash_outranks_a_failed_dump_after_it(self):
        class FailingDump(CallLog):
            def note(self, call):
                if call == "dump_hierarchy" and "tap" in self.kinds():
                    raise DeviceError("uiautomator dump failed")
                super().note(call)

        # on the fast path, the crash leaves the app's own window in front, so
        # the tap's check is still owed when the dump after it fails
        scenario = scenario_crash_midway()
        device = FailingDump(adb_device(scenario.spec, RelaunchFront)[0])
        trace = replay_on(device, scenario, ScriptedLlm([]), fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.error_detail is None
        assert device.kinds() == ["dump_hierarchy", "tap", "crashed"]

    def test_crash_outranks_the_wall_budget(self):
        class SlowTap(CallLog):
            def note(self, call):
                super().note(call)
                if self.kinds()[-1] == "tap":
                    time.sleep(0.3)

        # on the fast path, the crash leaves the app's own window in front, so
        # the tap's check is still owed when the wall budget runs out
        scenario = scenario_crash_midway()
        device = SlowTap(adb_device(scenario.spec, RelaunchFront)[0])
        trace = replay_on(device, scenario, ScriptedLlm([]), Budgets(wall_seconds=0.2), fast_path=True)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert device.kinds() == ["dump_hierarchy", "tap", "crashed"]

    def test_runs_stay_deterministic_under_rapid_thread_switching(self):
        def once(scenario):
            device = CallLog(fresh_device(scenario))
            trace = replay_on(device, scenario, scenario.oracle())
            data = trace.to_dict()
            del data["wall_time"]
            return data, device.kinds()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            started = time.monotonic()
            for scenario in all_scenarios():
                first = once(scenario)
                assert first[0]["outcome"] == "bug_triggered", scenario.name
                for _ in range(3):
                    assert once(scenario) == first, scenario.name
            assert time.monotonic() - started < 30
        finally:
            sys.setswitchinterval(interval)

    def test_sequence_transcript_keeps_its_order(self):
        scenario = scenario_two_branch()
        llm = TranscriptLlm(["[id=3]", "I have no idea.", "[id=2]", "[id=2]"])
        trace = run(scenario, llm=llm)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert [(e.step_index, e.resolved_id) for e in trace.events] == [(1, 3), (1, 2), (2, 2)]
        assert trace.backtracks_used == 1

    def test_reask_taps_the_restored_screen_bounds(self):
        # Back from the dead end lands on a screen that encodes like the
        # first one, with its buttons lower down: same digest, so the
        # restore is done, but the re-ask's tap must use the live bounds
        def wizard(top):
            return screen_tree([text_view("Wizard", 60), button("Continue", top), button("Skip setup", top + 130)])

        spec = _spec(
            {"s0": {"tree": wizard(200)}, "s0b": {"tree": wizard(900)},
             "dead": {"tree": stacked("Nothing here", [])},
             "s1": {"tree": stacked("Last page", [lambda y: button("Finish", y)])}},
            [_tap("s0", 3, "dead"), {"from": "dead", "action": "back", "to": "s0b"},
             _tap("s0b", 2, "s1"), _tap("s1", 2, CRASH_STATE)],
            "s0")
        scenario = Scenario("moved_wizard", spec, ['[Tap] ["Continue"]', '[Tap] ["Finish"]'],
                            decoys={"Continue": [3]})
        trace = run(scenario)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert trace.gestures[:3] == [("tap", 540, 375), BACK, ("tap", 540, 945)]
