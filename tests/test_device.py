"""Device sessions: the simulated app, adb command wiring, omissions."""
import itertools
import os
import random
import signal
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bugreplay.device as device_module
from bugreplay.device import AdbDevice, SimulatedApp, SimulatedDevice
from bugreplay.errors import DeviceError
from bugreplay.gui import Bounds, ViewNode, encode_gui, parse_dump
from bugreplay.replay import Budgets, Outcome, apply_gestures, execute_step, replay
from bugreplay.steps import ActionType, parse_step_text, render_steps

from helpers import (
    CRASH_STATE,
    LAUNCH,
    PACKAGE,
    AdbFront,
    GeneratedRun,
    RelaunchFront,
    Scenario,
    ScriptedLlm,
    _spec,
    _tap,
    adb_device,
    all_scenarios,
    button,
    dump_xml,
    find_id_by_text,
    random_view_tree,
    replay_both_ways,
    scenario_linear_taps_3,
    scenario_with_input,
    stacked,
    synthesize_omissions,
    text_view,
    walk_steps,
)


def app_from(scenario):
    return SimulatedApp(scenario.spec)


def center_of(device, component_text):
    for node in encode_gui(device.dump_hierarchy()).index.values():
        if node.text == component_text:
            return node.bounds.center()
    raise AssertionError(f"{component_text!r} not on screen")


def _with(**changes):
    """scenario_linear_taps_3's spec with `changes` applied: a key whose
    value is a function maps the spec's value, any other replaces it."""
    spec = scenario_linear_taps_3().spec
    for key, change in changes.items():
        spec[key] = change(spec[key]) if callable(change) else change
    return spec


def _tree(**fields):
    """scenario_linear_taps_3's spec with `fields` set on the root of s0's tree literal."""
    return _with(states=lambda states: states | {"s0": {"tree": states["s0"]["tree"] | fields}})


def _transition(**fields):
    return {"transitions": [{"from": "s0", "to": "s1", **fields}]}


def _raises(spec, error, message):
    """Loading `spec` raises exactly `error`, with `message` as its one argument."""
    with pytest.raises(error) as raised:
        SimulatedApp(spec)
    assert type(raised.value) is error
    assert raised.value.args == (message,)


class TestSimulatedAppValidation:
    """Each spec has one defect; the exception's type and message are pinned."""

    def test_spec_normalizes_action_names(self):
        app = app_from(scenario_with_input())
        kinds = {kind for (_, kind, _) in app.transitions}
        assert kinds <= {"tap", "double_tap", "long_tap", "input", "scroll", "back"}

    def test_unknown_initial(self):
        _raises(_with(initial="nowhere"), ValueError, "initial state 'nowhere' is not defined")

    def test_unknown_crash_state(self):
        _raises(_with(crash_states=["ghost"]), ValueError, "crash state 'ghost' is not defined")

    def test_unknown_transition_endpoints(self):
        _raises(_with(**_transition(action="tap", id=1, **{"from": "ghost"})), ValueError,
                "transition from unknown state 'ghost'")
        _raises(_with(**_transition(action="tap", id=1, to="mystery")), ValueError,
                "transition to unknown state 'mystery'")

    def test_unknown_gesture_kind(self):
        _raises(_with(**_transition(action="hover", id=1)), ValueError, "unknown gesture kind 'hover'")

    def test_component_id_out_of_range(self):
        _raises(_with(**_transition(action="tap", id=99)), ValueError,
                "transition ('s0', 'tap', 99) cites id outside 0..2")

    def test_bad_scroll_direction(self):
        _raises(_with(**_transition(action="scroll", direction="sideways")), ValueError,
                "transition ('s0', 'scroll', 'sideways') has unknown direction")

    @pytest.mark.parametrize("spec, error, message", [
        pytest.param(_with(states={}), ValueError, "simulated app needs at least one state", id="no-states"),
        pytest.param(_with(states=lambda states: states | {"s9": {}}), ValueError,
                     "state 's9' needs a 'tree' or 'xml' entry", id="state-without-tree-or-xml"),
        pytest.param(_with(states=lambda states: states | {"s9": {"xml": "<hierarchy><node"}}), DeviceError,
                     "unparsable hierarchy dump: unclosed token: line 1, column 11", id="unparsable-xml"),
        pytest.param(_with(**_transition(action="long-tap", id=-1)), ValueError,
                     "transition ('s0', 'long_tap', -1) cites id outside 0..2", id="id-below-range"),
        pytest.param(_with(**_transition(action="input", id="1")), ValueError,
                     "transition ('s0', 'input', '1') cites id outside 0..2", id="id-as-a-string"),
        pytest.param(_with(**_transition(action="scroll")), KeyError, "direction", id="no-direction"),
        pytest.param(_with(**_transition(action="double-tap")), KeyError, "id", id="no-id"),
        pytest.param(_with(**_transition(action="tap", id=True)), ValueError,
                     "transition ('s0', 'tap', True) cites id outside 0..2", id="id-as-a-bool"),
        pytest.param(_with(crash_states="boom"), ValueError, "crash_states must be a list, not 'boom'",
                     id="crash-states-a-string"),
        pytest.param(_with(transitions=lambda ts: [*ts, _tap("s0", 2, "s2")]), ValueError,
                     "transition ('s0', 'tap', 2) is given twice", id="transition-twice"),
        pytest.param(_tree(content_desc=3), ValueError,
                     "tree field 'content_desc' must be a string, not 3", id="content-desc-number"),
        pytest.param(_tree(text=["Main"]), ValueError,
                     "tree field 'text' must be a string, not ['Main']", id="text-list"),
        pytest.param(_tree(resource_id=7), ValueError,
                     "tree field 'resource_id' must be a string, not 7", id="resource-id-number"),
        pytest.param(_tree(**{"class": None}), ValueError,
                     "tree field 'class' must be a string, not None", id="class-null"),
        pytest.param(_tree(**{"class": 5}), ValueError,
                     "tree field 'class' must be a string, not 5", id="class-number"),
        pytest.param(_tree(bounds=[0, 0, 1080]), ValueError,
                     "tree field 'bounds' must be four integers, not [0, 0, 1080]", id="bounds-three"),
        pytest.param(_tree(bounds=[0, 0, 1080, True]), ValueError,
                     "tree field 'bounds' must be four integers, not [0, 0, 1080, True]", id="bounds-with-a-bool"),
        pytest.param(_tree(bounds=[0, 0, 1080.0, 1920]), ValueError,
                     "tree field 'bounds' must be four integers, not [0, 0, 1080.0, 1920]", id="bounds-with-a-float"),
        pytest.param(_tree(bounds="0 0 1080 1920"), ValueError,
                     "tree field 'bounds' must be four integers, not '0 0 1080 1920'", id="bounds-a-string"),
    ])
    def test_spec_error(self, spec, error, message):
        _raises(spec, error, message)

    def test_null_strings_and_absent_bounds_load(self):
        app = SimulatedApp(_tree(resource_id=None, text=None, content_desc=None, bounds=None))
        root = app.states["s0"]
        assert (root.resource_id, root.text, root.content_desc) == (None, None, None)
        assert (root.bounds.right, root.bounds.bottom) == (0, 0)

    def test_a_screen_key_is_not_read(self):
        # a Scroll's window comes from the dump, so a spec that still names a screen loads as before
        assert SimulatedApp(_with(screen=[1080])).transitions == app_from(scenario_linear_taps_3()).transitions

    def test_a_back_transition_ignores_an_id(self):
        app = SimulatedApp(_with(**_transition(action="back", id=3)))
        assert app.transitions == {("s0", "back", None): "s1"}


class TestSimulatedDevice:
    def test_sessions_on_one_app_are_independent(self):
        app = app_from(scenario_linear_taps_3())
        first, second = SimulatedDevice(app), SimulatedDevice(app)
        first.perform([("tap", *center_of(first, "Alpha"))])
        assert (first.current, second.current) == ("s1", "s0")
        second.perform([("tap", *center_of(second, "Alpha"))])
        second.perform([("tap", *center_of(second, "Bravo"))])
        assert (first.current, second.current) == ("s1", "s2")
        assert second.crashed() is False

    def test_tap_prefers_transition_bearing_node(self):
        device = SimulatedDevice(app_from(scenario_linear_taps_3()))
        x, y = center_of(device, "Alpha")
        device.perform([("tap", x, y)])
        assert device.current == "s1"

    def test_deeper_node_beats_a_later_shallower_sibling(self):
        # ids: root 0, outer 1, inner 2, overlay 3; inner and overlay both
        # hold the point, and depth, not id, decides
        box = [0, 0, 1080, 500]
        tree = {"bounds": [0, 0, 1080, 1920], "children": [
            {"bounds": box, "children": [{"bounds": box, "text": "inner"}]},
            {"bounds": box, "text": "overlay"}]}
        device = SimulatedDevice(SimulatedApp({
            "initial": "s0",
            "states": {name: {"tree": tree} for name in ("s0", "deep", "shallow")},
            "transitions": [{"from": "s0", "action": "tap", "id": 2, "to": "deep"},
                            {"from": "s0", "action": "tap", "id": 3, "to": "shallow"}],
        }))
        device.perform([("tap", 540, 250)])
        assert device.current == "deep"

    def test_tap_on_plain_node_changes_nothing(self):
        device = SimulatedDevice(app_from(scenario_linear_taps_3()))
        x, y = center_of(device, "Screen 0")
        device.perform([("tap", x, y)])
        assert device.current == "s0"

    def test_tap_outside_everything_is_harmless(self):
        scenario = scenario_linear_taps_3()
        spec = scenario.spec
        spec["states"]["s0"]["tree"]["bounds"] = [0, 0, 500, 500]
        for child in spec["states"]["s0"]["tree"]["children"]:
            child["bounds"] = [0, 0, 100, 100]
        device = SimulatedDevice(SimulatedApp(spec))
        device.perform([("tap", 400, 900)])
        assert device.current == "s0"

    def test_right_and_bottom_edges_are_exclusive(self):
        device = SimulatedDevice(app_from(scenario_linear_taps_3()))
        # Alpha occupies [40,200][1040,290]; its right/bottom edge misses
        device.perform([("tap", 1040, 250)])
        assert device.current == "s0"
        device.perform([("tap", 1039, 289)])
        assert device.current == "s1"

    def test_input_needs_focus(self):
        device = SimulatedDevice(app_from(scenario_with_input()))
        device.perform([("text", "ignored")])    # nothing focused yet
        assert device.current == "s0"
        x, y = center_of(device, "Title")
        device.perform([("tap", x, y), ("text", "Hello")])
        assert device.current == "s1"

    @pytest.mark.parametrize("gesture, typed_into", [("double_tap", "s0"), ("long_tap", "s1")],
                             ids=["double_tap", "long_tap"])
    def test_focus_after_a_double_or_long_tap(self, gesture, typed_into):
        # a long tap leaves focus in "Title", so the text lands there; a
        # double tap on a node with no double-tap transition is two taps,
        # which move focus to "Create note", where typing does nothing
        device = SimulatedDevice(app_from(scenario_with_input()))
        device.perform([("tap", *center_of(device, "Title")),
                        (gesture, *center_of(device, "Create note")),
                        ("text", "Hello")])
        assert device.current == typed_into

    @pytest.mark.parametrize("start,end,expected", [
        ((540, 1500), (540, 400), "up"),
        ((540, 400), (540, 1500), "down"),
        ((900, 960), (100, 960), "left"),
        ((100, 960), (900, 960), "right"),
        ((100, 100), (400, 400), "down"),    # tie goes vertical
        ((0, 0), (0, 0), "s0"),              # a swipe in place scrolls nothing
    ])
    def test_swipe_direction_inference(self, start, end, expected):
        # each direction scrolls to the state named after it
        spec = scenario_linear_taps_3().spec
        for direction in ("up", "down", "left", "right"):
            spec["states"][direction] = spec["states"]["s1"]
            spec["transitions"].append({"from": "s0", "action": "scroll", "direction": direction, "to": direction})
        device = SimulatedDevice(SimulatedApp(spec))
        device.perform([("swipe", *start, *end)])
        assert device.current == expected

    def test_back_restart_crash(self):
        scenario = scenario_linear_taps_3()
        device = SimulatedDevice(app_from(scenario))
        device.perform([("tap", *center_of(device, "Alpha")),
                        ("back",)])              # no back transition: stays put
        assert device.current == "s1"
        device.perform([("restart",)])
        assert device.current == "s0"
        assert not device.crashed()
        for label in ("Alpha", "Bravo", "Charlie"):
            device.perform([("tap", *center_of(device, label))])
        assert device.crashed()


def drive(device, steps):
    """Execute steps with raw gestures, resolving targets by visible text."""
    for step in steps:
        if step.action is ActionType.SCROLL:
            root = device.dump_hierarchy().bounds
            cx, cy = root.center()
            dy = int(0.3 * (root.bottom - root.top))
            if step.direction.value == "down":
                device.perform([("swipe", cx, cy - dy, cx, cy + dy)])
            else:
                device.perform([("swipe", cx, cy + dy, cx, cy - dy)])
            continue
        x, y = center_of(device, step.component)
        if step.action is ActionType.TAP:
            device.perform([("tap", x, y)])
        elif step.action is ActionType.DOUBLE_TAP:
            device.perform([("double_tap", x, y)])
        elif step.action is ActionType.LONG_TAP:
            device.perform([("long_tap", x, y)])
        else:
            device.perform([("tap", x, y), ("text", step.value)])


def test_every_scenario_walks_to_its_crash_state():
    # unless only a restore's Back reaches it
    for scenario in all_scenarios():
        crashed = walk_steps(scenario.spec, scenario.steps) in scenario.spec["crash_states"]
        assert crashed != scenario.crash_on_back, scenario.name


def test_every_scenario_drives_to_crash_on_the_device():
    for scenario in all_scenarios():
        device = SimulatedDevice(app_from(scenario))
        drive(device, scenario.steps)
        assert device.crashed() != scenario.crash_on_back, scenario.name


def test_scenario_transitions_are_reachable_and_deterministic():
    for scenario in all_scenarios():
        app = app_from(scenario)
        # breadth-first over the gesture alphabet: crash reachable, and
        # replaying the same gestures twice lands in the same states
        frontier, seen = [app.initial], {app.initial}
        while frontier:
            state = frontier.pop()
            for (frm, _, _), to in app.transitions.items():
                if frm == state and to not in seen:
                    seen.add(to)
                    frontier.append(to)
        assert CRASH_STATE in seen, scenario.name


class TestSynthesizeOmissions:
    def steps(self, n=5):
        return [parse_step_text(f'[Tap] ["c{i}"]') for i in range(1, n + 1)]

    def test_zero_is_identity(self):
        steps = self.steps()
        assert synthesize_omissions(steps, 0, seed=1) == steps

    def test_drops_exactly_k_and_renumbers(self):
        steps = self.steps()
        out = synthesize_omissions(steps, 2, seed=7)
        assert len(out) == 3
        # the kept steps keep their order, so their numbers run 1..3
        assert out == [s for s in steps if s in out]
        assert [line.split(".")[0] for line in render_steps(out).splitlines()] == ["1", "2", "3"]
        kept = {s.component for s in out}
        assert kept < {s.component for s in steps}

    def test_never_drops_the_final_step(self):
        steps = self.steps()
        for seed in range(300):
            out = synthesize_omissions(steps, 2, seed=seed)
            assert out[-1].component == "c5"

    def test_each_droppable_position_is_reachable(self):
        steps = self.steps()
        dropped = set()
        for seed in range(300):
            kept = {s.component for s in synthesize_omissions(steps, 1, seed=seed)}
            dropped |= {s.component for s in steps} - kept
        assert dropped == {"c1", "c2", "c3", "c4"}

    def test_deterministic_per_seed(self):
        steps = self.steps()
        assert synthesize_omissions(steps, 2, 42) == synthesize_omissions(steps, 2, 42)

    def test_bounds(self):
        steps = self.steps(3)
        with pytest.raises(ValueError):
            synthesize_omissions(steps, 3, 1)
        with pytest.raises(ValueError):
            synthesize_omissions(steps, -1, 1)
        with pytest.raises(ValueError):
            synthesize_omissions(self.steps(2), 2, 1)


FATAL = ("--------- beginning of crash\n"
         "10-18 09:12:01.250  4242  4242 E AndroidRuntime: FATAL EXCEPTION: main\n"
         "10-18 09:12:01.250  4242  4242 E AndroidRuntime: Process: {process}, PID: 4242\n"
         "10-18 09:12:01.250  4242  4242 E AndroidRuntime: java.lang.IllegalStateException\n")
SIGNAL = ("--------- beginning of crash\n"
          "10-18 09:12:01.250  4242  4260 F libc    : Fatal signal 11 (SIGSEGV), code 1 "
          "(SEGV_MAPERR), fault addr 0x0 in tid 4260 (RenderThread), pid 4242 ({process})\n")


class RecordingRunner:
    """Notes each argv and answers with the output of the first needle in
    it; a list of outputs answers one call each, in order."""

    def __init__(self, outputs=None):
        self.calls = []
        self.outputs = dict(outputs or {})

    def __call__(self, argv):
        self.calls.append(argv)
        for needle, out in self.outputs.items():
            if needle in " ".join(argv):
                return out.pop(0) if isinstance(out, list) else out
        return ""


GO_XML = '<hierarchy><node class="android.widget.Button" text="Go" bounds="[0,0][10,10]"/></hierarchy>'
TRUNCATED_XML = GO_XML[:40]
# nested past the recursion limit
DEEP_XML = "<hierarchy>" + '<node bounds="[0,0][10,10]">' * 5000 + "</node>" * 5000 + "</hierarchy>"
DUMPED = "UI hierchary dumped to: /sdcard/window_dump.xml\n"  # sic, as uiautomator prints it
DUMP_CALL = ["adb", "shell", "uiautomator", "dump", "/sdcard/window_dump.xml"]
CAT_CALL = ["adb", "shell", "cat", "/sdcard/window_dump.xml"]


class TestAdbDevice:
    def make(self, runner, **cfg):
        return AdbDevice(**cfg, runner=runner)

    def sent(self, *gestures, **cfg):
        """The argv of each adb call that `perform(gestures)` makes, with no double-tap gap."""
        runner = RecordingRunner()
        device = self.make(runner, **cfg)
        device.DOUBLE_TAP_GAP_SECONDS = 0
        device.perform(list(gestures))
        return runner.calls

    # one gesture each, and the command lines it sends
    def test_tap(self):
        assert self.sent(("tap", 300, 640)) == [["adb", "shell", "input", "tap", "300", "640"]]

    def test_serial_inserted(self):
        assert self.sent(("tap", 1, 2), serial="emulator-5554", adb_path="/opt/adb") == [
            ["/opt/adb", "-s", "emulator-5554", "shell", "input", "tap", "1", "2"]]

    def test_double_tap_is_two_taps(self):
        assert self.sent(("double_tap", 10, 20)) == [["adb", "shell", "input", "tap", "10", "20"]] * 2

    def test_long_tap_is_stationary_swipe(self):
        assert self.sent(("long_tap", 10, 20)) == [
            ["adb", "shell", "input", "swipe", "10", "20", "10", "20", "800"]]

    def test_swipe(self):
        assert self.sent(("swipe", 540, 1536, 540, 384)) == [
            ["adb", "shell", "input", "swipe", "540", "1536", "540", "384", "300"]]

    def test_text_spaces_become_percent_s(self):
        assert self.sent(("text", "hello world")) == [["adb", "shell", "input", "text", "hello%sworld"]]

    def test_text_shell_metacharacters_are_quoted(self):
        assert self.sent(("text", "a&b;c")) == [["adb", "shell", "input", "text", "'a&b;c'"]]

    def test_back(self):
        assert self.sent(("back",)) == [["adb", "shell", "input", "keyevent", "KEYCODE_BACK"]]

    def test_restart_sequence(self):
        assert self.sent(("restart",), package="com.demo", launch_command="am start -n com.demo/.Main") == [
            ["adb", "shell", "am", "force-stop", "com.demo"],
            ["adb", "logcat", "-c"],
            ["adb", "shell", "am", "start", "-n", "com.demo/.Main"],
        ]

    def test_an_unbalanced_launch_command_fails_when_built(self):
        with pytest.raises(ValueError, match="No closing quotation"):
            self.make(RecordingRunner(), launch_command="am start -n 'x")

    @pytest.mark.parametrize("launch", ["", "  ", "''"], ids=["empty", "blank", "quoted-empty"])
    def test_a_launch_command_of_no_words_is_refused(self, launch):
        # a restart would run a bare adb shell, which reads the terminal
        with pytest.raises(ValueError, match=f"^launch command {launch!r} holds no command$"):
            self.make(RecordingRunner(), launch_command=launch)

    def test_every_shell_word_reaches_the_device_as_written(self):
        # adb joins the words after shell with plain spaces, and the device
        # shell splits that line again; `;` and `&&` stay words of the command
        launch = "am start -n com.demo/.Main -d 'https://x.test/a b' --es q '$HOME; x && y'"
        calls = self.sent(("restart",), ("text", "it's $5 & up"), package="com.demo", launch_command=launch)
        assert [words for words in map(AdbFront.words, calls) if words[0] == "shell"] == [
            ["shell", "am", "force-stop", "com.demo"],
            ["shell", "am", "start", "-n", "com.demo/.Main", "-d", "https://x.test/a b", "--es", "q", "$HOME; x && y"],
            ["shell", "input", "text", "it's%s$5%s&%sup"],
        ]

    def test_text_is_typed_as_given(self):
        # the device shell undoes the quoting, and input text reads every %s
        # as a space; each literal %s costs one more call
        for size in range(7):
            for chars in itertools.product(("a", " ", "%", "s"), repeat=size):
                value = "".join(chars)
                calls = self.sent(("text", value))
                assert [argv[:-1] for argv in calls] == [["adb", "shell", "input", "text"]] * (
                    value.count("%s") + 1)
                typed = "".join(AdbFront.words(argv)[-1].replace("%s", " ") for argv in calls)
                assert typed == value

    def test_perform_sends_each_gesture_through_its_command(self):
        assert self.sent(("tap", 1, 2), ("double_tap", 3, 4), ("long_tap", 5, 6), ("swipe", 1, 2, 3, 4),
                         ("text", "hi there"), ("back",), ("restart",), package="com.demo") == [
            ["adb", "shell", "input", "tap", "1", "2"],
            ["adb", "shell", "input", "tap", "3", "4"],
            ["adb", "shell", "input", "tap", "3", "4"],
            ["adb", "shell", "input", "swipe", "5", "6", "5", "6", "800"],
            ["adb", "shell", "input", "swipe", "1", "2", "3", "4", "300"],
            ["adb", "shell", "input", "text", "hi%sthere"],
            ["adb", "shell", "input", "keyevent", "KEYCODE_BACK"],
            ["adb", "shell", "am", "force-stop", "com.demo"],
            ["adb", "logcat", "-c"],
        ]

    def test_perform_keeps_the_double_tap_gap(self):
        started = []
        self.make(lambda argv: started.append(time.monotonic()) or "").perform([("double_tap", 1, 2)])
        assert started[1] - started[0] >= AdbDevice.DOUBLE_TAP_GAP_SECONDS

    def test_perform_rejects_an_unknown_gesture(self):
        runner = RecordingRunner()
        with pytest.raises(ValueError, match="teleport"):
            self.make(runner).perform([("teleport", 1, 2)])
        assert runner.calls == []

    def test_dump_hierarchy(self):
        runner = RecordingRunner(outputs={"uiautomator": DUMPED, "cat": GO_XML})
        root = self.make(runner).dump_hierarchy()
        assert root.text == "Go"
        assert runner.calls == [DUMP_CALL, CAT_CALL]

    def test_a_failed_dump_is_retried_once(self):
        # the tool can report the failure and still exit 0, leaving the
        # last dump's file behind
        runner = RecordingRunner(outputs={"uiautomator": ["ERROR: could not get idle state.\n", DUMPED],
                                          "cat": GO_XML})
        root = self.make(runner).dump_hierarchy()
        assert root.text == "Go"
        assert runner.calls == [DUMP_CALL, DUMP_CALL, CAT_CALL]

    @pytest.mark.parametrize("out", ["ERROR: could not get idle state.\n", ""], ids=["error", "silent"])
    def test_a_dump_that_fails_twice_is_a_device_error(self, out):
        runner = RecordingRunner(outputs={"uiautomator": out, "cat": GO_XML})
        with pytest.raises(DeviceError, match="uiautomator dump failed"):
            self.make(runner).dump_hierarchy()
        assert runner.calls == [DUMP_CALL, DUMP_CALL]

    def test_a_dump_whose_file_does_not_parse_is_retried_once(self):
        runner = RecordingRunner(outputs={"uiautomator": DUMPED, "cat": [TRUNCATED_XML, GO_XML]})
        root = self.make(runner).dump_hierarchy()
        assert root.text == "Go"
        assert runner.calls == [DUMP_CALL, CAT_CALL, DUMP_CALL, CAT_CALL]

    @pytest.mark.parametrize("xml, reason", [
        ("", "no element found: line 1, column 0"),
        (TRUNCATED_XML, "unclosed token: line 1, column 11"),
    ], ids=["empty", "truncated"])
    def test_a_dump_whose_file_fails_to_parse_twice_is_a_device_error(self, xml, reason):
        runner = RecordingRunner(outputs={"uiautomator": DUMPED, "cat": xml})
        with pytest.raises(DeviceError) as caught:
            self.make(runner).dump_hierarchy()
        assert str(caught.value) == f"uiautomator dump failed 2 times: unparsable hierarchy dump: {reason}"
        assert runner.calls == [DUMP_CALL, CAT_CALL] * 2

    def test_a_cat_that_fails_is_not_retried(self):
        runner = RecordingRunner(outputs={"uiautomator": DUMPED})

        def failing_cat(argv):
            if "cat" in argv:
                runner.calls.append(argv)
                raise DeviceError("adb shell cat exited 1: No such file or directory")
            return runner(argv)

        with pytest.raises(DeviceError, match="^adb shell cat exited 1"):
            self.make(failing_cat).dump_hierarchy()
        assert runner.calls == [DUMP_CALL, CAT_CALL]

    def test_a_dump_that_fails_twice_ends_the_replay_in_error(self, corpus):
        runner = RecordingRunner(outputs={"uiautomator": "ERROR: could not get idle state.\n", "cat": GO_XML})
        trace = replay([parse_step_text('[Tap] ["Go"]')], self.make(runner), ScriptedLlm(["[id=0]"]), corpus)
        assert trace.outcome is Outcome.ERROR
        assert "uiautomator dump failed" in trace.error_detail
        assert CAT_CALL not in runner.calls

    def test_a_dump_nested_too_deep_ends_the_replay_in_error(self, corpus):
        runner = RecordingRunner(outputs={"uiautomator": DUMPED, "cat": DEEP_XML})
        trace = replay([parse_step_text('[Tap] ["Go"]')], self.make(runner), ScriptedLlm(["[id=0]"]), corpus)
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail.startswith("DeviceError: uiautomator dump failed 2 times: "
                                             "unparsable hierarchy dump: maximum recursion depth exceeded")
        assert runner.calls.count(CAT_CALL) == 2

    def test_a_failed_dump_keeps_the_reason_the_device_wrote_to_stderr(self, tmp_path, corpus):
        # some builds print the failure on stderr, not stdout, and exit 0
        adb = tmp_path / "fake-adb"
        adb.write_text("#!/bin/sh\necho 'ERROR: could not get idle state.' >&2\n", encoding="utf-8")
        adb.chmod(0o755)
        device = self.make(None, adb_path=str(adb))
        detail = "uiautomator dump failed 2 times: ERROR: could not get idle state."
        with pytest.raises(DeviceError) as caught:
            device.dump_hierarchy()
        assert str(caught.value) == detail
        trace = replay([parse_step_text('[Tap] ["Go"]')], device, ScriptedLlm(["[id=0]"]), corpus)
        assert trace.outcome is Outcome.ERROR
        assert trace.error_detail == f"DeviceError: {detail}"

    @pytest.mark.parametrize("bounds, step, swipe", [
        # a rotated display, whose natural size is portrait
        ((0, 0, 1920, 1080), "[Scroll] [down]", ["960", "216", "960", "864"]),
        # a dialog's window, which does not start at the origin
        ((100, 800, 980, 1600), "[Scroll] [up]", ["540", "1440", "540", "960"]),
    ], ids=["landscape", "dialog"])
    def test_a_scroll_swipes_across_the_window_of_the_dump(self, bounds, step, swipe):
        runner = RecordingRunner()
        root = ViewNode("android.widget.FrameLayout", bounds=Bounds(*bounds))
        execute_step(self.make(runner), parse_step_text(step), root)
        assert runner.calls == [["adb", "shell", "input", "swipe", *swipe, "300"]]

    def test_crashed_on_fatal_exception(self):
        runner = RecordingRunner(outputs={
            "logcat": "08-22 10:00:00 E AndroidRuntime: FATAL EXCEPTION: main\n"})
        assert self.make(runner).crashed() is True

    @pytest.mark.parametrize("front", ["com.android.launcher3/.Launcher",
                                       "com.android.chrome/.Main"], ids=["launcher", "browser"])
    def test_another_app_in_front_is_not_a_crash(self, front):
        runner = RecordingRunner(outputs={
            "logcat": "",
            "dumpsys": f"  mResumedActivity: ActivityRecord{{5e1c u0 {front} t17}}\n"})
        assert self.make(runner, package="com.demo").crashed() is False

    @pytest.mark.parametrize("process, crashed", [
        ("com.demo", True), ("com.demo:sync", True),
        ("com.other", False), ("com.demo2", False), ("com.demo.helper", False)])
    def test_fatal_exception_counts_for_the_package_only(self, process, crashed):
        runner = RecordingRunner(outputs={"logcat": FATAL.format(process=process)})
        assert self.make(runner, package="com.demo").crashed() is crashed

    @pytest.mark.parametrize("process, crashed", [
        ("com.demo", True), ("com.demo:sync", True), ("com.other", False)])
    def test_fatal_signal_counts_for_the_package_only(self, process, crashed):
        runner = RecordingRunner(outputs={"logcat": SIGNAL.format(process=process)})
        assert self.make(runner, package="com.demo").crashed() is crashed

    @pytest.mark.parametrize("log", [FATAL.format(process="com.other"),
                                     SIGNAL.format(process="com.other")], ids=["java", "native"])
    def test_any_crash_counts_without_a_package(self, log):
        assert self.make(RecordingRunner(outputs={"logcat": log})).crashed() is True

    @pytest.mark.parametrize("log", ["", FATAL.format(process="com.demo")],
                             ids=["clean", "crashed"])
    def test_crash_check_is_one_adb_call(self, log):
        runner = RecordingRunner(outputs={"logcat": log})
        self.make(runner, package="com.demo").crashed()
        assert runner.calls == [["adb", "logcat", "-d", "-b", "crash"]]

    def test_not_crashed_while_resumed(self):
        runner = RecordingRunner(outputs={
            "logcat": "",
            "dumpsys": "  mResumedActivity: ActivityRecord{com.demo/.Main}\n"})
        assert self.make(runner, package="com.demo").crashed() is False

    def test_missing_adb_binary_is_a_device_error(self, tmp_path):
        device = self.make(None, adb_path=str(tmp_path / "no-adb"))
        with pytest.raises(DeviceError, match="no-adb"):
            device.perform([("tap", 1, 1)])

    def test_hung_adb_is_a_device_error(self, tmp_path, monkeypatch):
        adb = tmp_path / "slow-adb"
        adb.write_text("#!/bin/sh\nexec sleep 30\n", encoding="utf-8")
        adb.chmod(0o755)
        monkeypatch.setattr(device_module, "ADB_TIMEOUT_SECONDS", 0.2)
        started = time.monotonic()
        with pytest.raises(DeviceError, match="timed out"):
            self.make(None, adb_path=str(adb)).perform([("tap", 1, 1)])
        assert time.monotonic() - started < 10

    def test_crash_log_that_is_not_utf8_still_counts(self, tmp_path):
        adb = tmp_path / "fake-adb"
        adb.write_text("#!/bin/sh\nprintf 'FATAL EXCEPTION \\377\\n'\n", encoding="utf-8")
        adb.chmod(0o755)
        assert self.make(None, adb_path=str(adb)).crashed() is True

    def test_runner_failures_surface_as_device_errors(self):
        def broken(argv):
            raise DeviceError("adb exited 1")
        with pytest.raises(DeviceError):
            self.make(broken).perform([("tap", 1, 1)])


FAST_PATHS = pytest.mark.parametrize("fast_path", [False, True], ids=["paper-loop", "fast-path"])


@FAST_PATHS
def test_replay_over_adb_matches_the_simulated_device(scenario, corpus, fast_path):
    trace, _ = replay_both_ways(scenario.spec, scenario.steps, scenario.oracle(), scenario.oracle(), corpus,
                                report_id=scenario.name, fast_path=fast_path)
    assert trace["outcome"] == "bug_triggered"


def page(header, *widgets):
    return stacked(header, [lambda y, w=w, t=t: w(t, y) for w, t in widgets])


@FAST_PATHS
def test_a_launch_word_with_a_space_reaches_the_front_whole(corpus, fast_path):
    # two "Continue" buttons leave the fast path to the model, whose decoy
    # leads where Back does nothing, so the restore relaunches the app
    spec = _spec({"s0": {"tree": page("Wizard", (button, "Continue"), (button, "Continue"))},
                  "s1": {"tree": page("Last page", (button, "Finish"))},
                  "dead": {"tree": page("Nothing here")}},
                 [_tap("s0", 2, "s1"), _tap("s0", 3, "dead"), _tap("s1", 2, CRASH_STATE)], "s0")
    scenario = Scenario("quoted_launch", spec, ['[Tap] ["Continue"]', '[Tap] ["Finish"]'],
                        decoys={"Continue": [3]})
    trace, _ = replay_both_ways(spec, scenario.steps, scenario.oracle(), scenario.oracle(), corpus,
                                fast_path=fast_path, launch="am start -n com.example.app/.Main -d 'https://x.test/a b'")
    assert trace["outcome"] == "bug_triggered"
    assert ["restart"] in trace["gestures"]


@FAST_PATHS
def test_a_double_tap_with_only_a_tap_transition_is_two_taps_on_both_devices(corpus, fast_path):
    # the first tap opens "Liked", and the second lands on its "Thanks"
    spec = _spec({"s0": {"tree": page("Photos", (button, "Like"))},
                  "s1": {"tree": page("Liked", (text_view, "Thanks"), (button, "Share"))}},
                 [_tap("s0", 2, "s1"), _tap("s1", 3, CRASH_STATE)], "s0")
    scenario = Scenario("double_tap_as_two_taps", spec, ['[Double-tap] ["Like"]', '[Tap] ["Share"]'])
    trace, _ = replay_both_ways(spec, scenario.steps, scenario.oracle(), scenario.oracle(), corpus,
                                fast_path=fast_path)
    assert trace["outcome"] == "bug_triggered"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: a restore's prefix sends two taps at one point "
                                       "back to back, and the adb front reads them as a double tap")
def test_a_restore_prefix_of_two_taps_at_one_point_replays_alike_over_adb(corpus):
    # "Go" sits at the same bounds on s0 and s1; on s0 it also takes a double
    # tap. The decoy for "Next" leads where Back does nothing, so the restore
    # restarts and sends its prefix, tap and tap at "Go", with no dump between
    spec = _spec({"s0": {"tree": page("Start", (button, "Go"))},
                  "zoom": {"tree": page("Zoom")},
                  "s1": {"tree": page("Middle", (button, "Go"))},
                  "s2": {"tree": page("Pick", (button, "Next"), (button, "Trap"))},
                  "trap": {"tree": page("Trap")},
                  "s3": {"tree": page("Last", (button, "Finish"))}},
                 [_tap("s0", 2, "s1"), {"from": "s0", "action": "double-tap", "id": 2, "to": "zoom"},
                  _tap("s1", 2, "s2"), _tap("s2", 2, "s3"), _tap("s2", 3, "trap"),
                  _tap("s3", 2, CRASH_STATE)], "s0")
    scenario = Scenario("restore_two_taps", spec,
                        ['[Tap] ["Go"]', '[Tap] ["Go"]', '[Tap] ["Next"]', '[Tap] ["Finish"]'],
                        decoys={"Next": [3]})
    trace, _ = replay_both_ways(spec, scenario.steps, scenario.oracle(), scenario.oracle(), corpus)
    assert trace["outcome"] == "bug_triggered"


# seeds whose fast path undoes a lexical pick that the model then names again
UNDONE_PICKS = [382, 6667, 3_542_622_101]
# seeds of 0-2999 whose fast path crashes the app with a step still to go,
# then dumps the crash dialog, which holds that step's label
CRASH_WITH_STEPS_TO_GO = [117, 1147, 1724]
# seeds of 0-2999 whose restore presses Back into the crash state once 40% of
# Back transitions lead there; a restore that never checked for it ended them
# in another outcome with gestures that pass through the crash
BACK_INTO_CRASH = [97, 213, 255, 346, 747, 800, 1218, 1343, 1781, 1945, 2092, 2294, 2370, 2407, 2425]


@pytest.mark.parametrize("seed", range(300))
def test_a_generated_app_replays_alike_over_adb(seed, corpus):
    run = GeneratedRun(seed)
    replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets, fast_path=run.fast_path)


@pytest.mark.parametrize("seed", [*range(300), *UNDONE_PICKS])
def test_a_generated_app_run_keeps_its_budgets_and_screens(seed, corpus):
    # the run with the fast path flipped keeps every property too; with an
    # honest model, which picks what the lexical match would, it ends the same way
    run = GeneratedRun(seed)
    flipped, _ = replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets,
                                  fast_path=not run.fast_path)
    if run.oracle_kind == "honest":
        trace = replay(run.steps, SimulatedDevice(SimulatedApp(run.spec)), run.oracle(), corpus, run.budgets,
                       fast_path=run.fast_path)
        assert trace.outcome.value == flipped["outcome"]


@pytest.mark.parametrize("seed", BACK_INTO_CRASH)
def test_a_generated_app_whose_restore_crashes_it_reports_the_bug(seed, corpus):
    run = GeneratedRun(seed, back_into_crash=True)
    trace, _ = replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets,
                                fast_path=run.fast_path)
    assert trace["outcome"] == "bug_triggered"


@pytest.mark.parametrize("seed", CRASH_WITH_STEPS_TO_GO)
def test_a_crash_with_steps_to_go_is_found_before_its_dialog_is_tapped(seed, corpus):
    # the fast path's dump shows the crash dialog in the system's window,
    # where the next step's label would be picked lexically; AdbFront
    # asserts that no gesture acts on it before the crash check
    run = GeneratedRun(seed)
    trace, _ = replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets,
                                fast_path=True)
    assert trace["outcome"] == "bug_triggered"
    assert len(trace["events"]) < len(run.steps)


@pytest.mark.parametrize("seed", range(300))
def test_a_generated_walk_past_a_crash_replays_alike_over_adb(seed, corpus):
    # a walk that reaches the crash goes on, so the run crashes with steps to
    # go, and the fast path's owed check and its own-window rule decide
    # whether a gesture lands on the crash dialog
    for back_into_crash in (False, True):
        run = GeneratedRun(seed, back_into_crash=back_into_crash, past_crash=True)
        for fast_path in (run.fast_path, not run.fast_path):
            replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets,
                             fast_path=fast_path)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(min_value=300))
def test_a_generated_app_beyond_the_fixed_seeds(corpus, seed):
    # the fixed seeds' properties, the flipped fast path's included, on seeds drawn past them
    test_a_generated_app_replays_alike_over_adb(seed, corpus)
    test_a_generated_app_run_keeps_its_budgets_and_screens(seed, corpus)


@pytest.mark.parametrize("seed", UNDONE_PICKS)
def test_an_undone_lexical_pick_ends_the_run_as_the_paper_loop_does(seed, corpus):
    # each run has an honest oracle, one action a step, and a step whose
    # gesture changes nothing; on seed 6667 the paper's loop triggers the bug
    run = GeneratedRun(seed)
    fast, paper = (replay(run.steps, SimulatedDevice(SimulatedApp(run.spec)), run.oracle(), corpus, run.budgets,
                          fast_path=flag) for flag in (True, False))
    # the gesture already sent is the step's action, so the fast path spends no extra one
    assert (fast.outcome, fast.actions_used) == (paper.outcome, paper.actions_used)


SETTLE_REASON = ("ROADMAP item 21: a gesture sent with no dump since a gesture that changed the screen "
                 "meets a screen that has not settled, and the adb front drops it")
# the hand-built scenarios that settle mode breaks, by name and fast path
SETTLE_BREAKS_SCENARIOS = {("double_trap", False)}
# for each cause of a dropped gesture, the two lowest seeds of GeneratedRun(seed)
# on which settle mode drops one of that cause and the run breaks, each with
# every fast path value on which it breaks
SETTLE_BREAKS = {
    # a restore's prefix, right after its restart
    "prefix": [(97, False), (97, True), (106, False), (106, True)],
    # a tap right after a tap that changed the screen
    "tap": [(711, False), (711, True), (717, False), (717, True)],
    # typed text right after a tap that changed the screen
    "text": [(286, False), (286, True), (549, False)],
}
# runs that settle mode broke while a Scroll swiped across an older dump's
# window, with no dump since the gesture before it; a Scroll now dumps first
SETTLE_MENDED = [(20, False), (75, False), (75, True)]


class TestSettleMode:
    """AdbFront(settle=True): a screen that a gesture or the launch changed
    settles only at the next dump, and a gesture sent before then is lost."""

    BACK = "shell input keyevent KEYCODE_BACK"

    def setup_method(self):
        # the tap at "Alpha" on s0, which opens s1, whose "Bravo" has the same
        # bounds; Back does nothing on either screen
        self.tap = ("tap", *center_of(SimulatedDevice(app_from(scenario_linear_taps_3())), "Alpha"))
        [self.tap_line] = tap_words([self.tap])

    def send(self, *lines, settle=True):
        """The state the app is in after `lines`, and the gestures lost."""
        device = SimulatedDevice(app_from(scenario_linear_taps_3()))
        front = AdbFront(device, PACKAGE, LAUNCH, settle=settle)
        for line in lines:
            front(["adb", *line.split()])
        return device.current, front.lost

    def test_a_gesture_before_the_next_dump_does_nothing(self):
        lines = self.tap_line, self.tap_line, self.BACK
        assert self.send(*lines) == ("s1", [(self.tap, self.tap), (("back",), self.tap)])
        assert self.send(*lines, settle=False) == ("s2", [])

    def test_a_dump_settles_the_screen(self):
        assert self.send(self.tap_line, LOOK[0], self.tap_line, CHECK) == ("s2", [])

    def test_the_launch_unsettles_and_a_gesture_that_changes_nothing_does_not(self):
        assert self.send(self.BACK, self.tap_line, CHECK) == ("s1", [])
        assert self.send(f"shell {LAUNCH}", self.tap_line, CHECK) == ("s0", [(self.tap, ("restart",))])


@FAST_PATHS
def test_a_scenario_with_screens_that_settle_late_replays_alike_over_adb(scenario, corpus, fast_path, request):
    if (scenario.name, fast_path) in SETTLE_BREAKS_SCENARIOS:
        request.applymarker(pytest.mark.xfail(strict=True, raises=AssertionError, reason=SETTLE_REASON))
    trace, _ = replay_both_ways(scenario.spec, scenario.steps, scenario.oracle(), scenario.oracle(), corpus,
                                report_id=scenario.name, fast_path=fast_path, settle=True)
    assert trace["outcome"] == "bug_triggered"


def _fast_path_id(fast_path):
    return "fast-path" if fast_path else "paper-loop"


@pytest.mark.parametrize("seed, fast_path", [
    *(pytest.param(seed, fast, id=f"{cause}-{seed}-{_fast_path_id(fast)}",
                   marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=SETTLE_REASON))
      for cause, runs in SETTLE_BREAKS.items() for seed, fast in runs),
    *(pytest.param(seed, fast, id=f"scroll-{seed}-{_fast_path_id(fast)}") for seed, fast in SETTLE_MENDED)])
def test_a_generated_app_with_screens_that_settle_late_replays_alike_over_adb(seed, fast_path, corpus):
    run = GeneratedRun(seed)
    replay_both_ways(run.spec, run.steps, run.oracle(), run.oracle(), corpus, run.budgets, fast_path=fast_path,
                     settle=True)


def test_no_scroll_step_swipes_a_screen_that_has_not_settled(corpus):
    # a Scroll step's swipe always follows a dump, so in settle mode only a
    # restore's prefix, sent right after its restart, may lose a swipe
    runs = [(s.name, s.spec, s.steps, s.oracle, Budgets(), fast)
            for s in all_scenarios() for fast in (False, True)]
    for seed in range(300):
        for back_into_crash in (False, True):
            run = GeneratedRun(seed, back_into_crash=back_into_crash)
            runs += [(f"{seed}-{back_into_crash}", run.spec, run.steps, run.oracle, run.budgets, fast)
                     for fast in (run.fast_path, not run.fast_path)]
    lost = []
    for name, spec, steps, oracle, budgets, fast_path in runs:
        front = AdbFront(SimulatedDevice(SimulatedApp(spec)), PACKAGE, LAUNCH, settle=True)
        device = AdbDevice(runner=front, package=PACKAGE, launch_command=LAUNCH)
        device.DOUBLE_TAP_GAP_SECONDS = 0
        replay(steps, device, oracle(), corpus, budgets, fast_path=fast_path)
        lost += [(name, fast_path, gesture, by) for gesture, by in front.lost
                 if gesture[0] == "swipe" and by != ("restart",)]
    assert lost == []


def test_dump_xml_round_trips_through_parse_dump():
    rng = random.Random(11)
    for _ in range(30):
        tree = random_view_tree(rng, max_nodes=60)
        assert encode_gui(parse_dump(dump_xml(tree))).html == encode_gui(tree).html


LOOK = ["shell uiautomator dump /sdcard/window_dump.xml", "shell cat /sdcard/window_dump.xml"]
CHECK = "logcat -d -b crash"


def adb_words(argv_log):
    return [" ".join(AdbFront.words(argv)) for argv in argv_log]


def tap_words(gestures):
    return [f"shell input tap {x} {y}" for _, x, y in gestures]


class BareFront(AdbFront):
    """Dumps whose nodes name no package."""

    def window_package(self):
        return None


class TwoWindowFront(AdbFront):
    """Dumps the status bar's window beside the app's, as a multi-window dump holds it."""

    def __call__(self, argv):
        out = super().__call__(argv)
        if self.words(argv)[:2] == ["shell", "cat"]:
            bar = '<node class="android.widget.FrameLayout" package="com.android.systemui" bounds="[0,0][1080,60]"/>'
            out = out.replace("</hierarchy>", f"{bar}</hierarchy>")
        return out


def fast_path_over_adb(spec, steps, corpus, front=AdbFront, package=PACKAGE, llm=None, budgets=None):
    """Replay with the fast path over AdbDevice and `front` around the spec's
    app; returns the trace and the words of each adb call."""
    device, argv_log = adb_device(spec, front, package)
    trace = replay(steps, device, llm or ScriptedLlm([]), corpus, budgets, fast_path=True)
    return trace, adb_words(argv_log)


class TestOwedCrashCheck:
    """On the fast path, a gesture aimed at a dump of the app's own window
    has its crash check wait while the dumps after it show that window."""

    def test_a_crash_at_the_last_step_is_checked_once(self, corpus):
        scenario = scenario_linear_taps_3()
        trace, argv_log = replay_both_ways(scenario.spec, scenario.steps, scenario.oracle(), scenario.oracle(),
                                           corpus, fast_path=True)
        taps = tap_words(trace["gestures"])
        assert trace["outcome"] == "bug_triggered" and len(taps) == 3
        assert adb_words(argv_log) == [*LOOK, taps[0], *LOOK, taps[1], *LOOK, taps[2], CHECK]

    def test_a_crash_that_shows_a_foreign_window_is_checked_after_the_next_dump(self, corpus):
        # "Crash me" crashes the app while a step remains, and the next step's
        # label is on the crash dialog, a window of the system's
        spec = _spec({"s0": {"tree": page("Main", (button, "Crash me"))},
                      CRASH_STATE: {"tree": page("Main has stopped", (button, "Close app"))}},
                     [_tap("s0", 2, CRASH_STATE)], "s0")
        steps = [parse_step_text('[Tap] ["Crash me"]'), parse_step_text('[Tap] ["Close app"]')]
        trace, argv_log = replay_both_ways(spec, steps, ScriptedLlm([]), ScriptedLlm([]), corpus, fast_path=True)
        assert trace["outcome"] == "bug_triggered"
        assert adb_words(argv_log) == [*LOOK, *tap_words(trace["gestures"]), *LOOK, CHECK]

    def test_a_scroll_that_crashes_the_app_is_found_by_the_next_steps_dump(self, corpus):
        # the swipe crosses the app's own window, so its check waits for the
        # next step's dump, which shows the crash dialog and its "Go" button
        spec = _spec({"s0": {"tree": page("Feed")},
                      CRASH_STATE: {"tree": page("Feed has stopped", (button, "Go"))}},
                     [{"from": "s0", "action": "scroll", "direction": "down", "to": CRASH_STATE}], "s0")
        steps = [parse_step_text("[Scroll] [down]"), parse_step_text('[Tap] ["Go"]')]
        trace, argv_log = replay_both_ways(spec, steps, ScriptedLlm([]), ScriptedLlm([]), corpus, fast_path=True)
        assert trace["outcome"] == "bug_triggered" and len(trace["gestures"]) == 1
        assert adb_words(argv_log) == [*LOOK, "shell input swipe 540 384 540 1536 300", *LOOK, CHECK]

    def scroll_scroll_go(self, go_crashes):
        """Two Scrolls down and a tap on "Go": the tap crashes the app, or
        the first swipe does and its crash dialog holds "Go"."""
        scroll = {"action": "scroll", "direction": "down"}
        if go_crashes:
            spec = _spec({"s0": {"tree": page("Feed top")}, "s1": {"tree": page("Feed middle")},
                          "s2": {"tree": page("Feed end", (button, "Go"))}},
                         [{"from": "s0", **scroll, "to": "s1"}, {"from": "s1", **scroll, "to": "s2"},
                          _tap("s2", 2, CRASH_STATE)], "s0")
        else:
            spec = _spec({"s0": {"tree": page("Feed top")},
                          CRASH_STATE: {"tree": page("Feed has stopped", (button, "Go"))}},
                         [{"from": "s0", **scroll, "to": CRASH_STATE}], "s0")
        steps = [parse_step_text(text) for text in ("[Scroll] [down]", "[Scroll] [down]", '[Tap] ["Go"]')]
        return spec, steps

    def test_a_scroll_before_a_scroll_in_the_apps_own_window_is_checked_with_the_next(self, corpus):
        # neither swipe is checked on its own: the one check, after the tap, covers all three actions
        trace, words = fast_path_over_adb(*self.scroll_scroll_go(go_crashes=True), corpus)
        swipe = "shell input swipe 540 384 540 1536 300"
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert words == [*LOOK, swipe, *LOOK, swipe, *LOOK, *tap_words(trace.gestures[2:]), CHECK]

    def test_a_scroll_into_a_crash_before_a_scroll_is_found_by_the_next_scrolls_dump(self, corpus):
        # the dump taken for the second Scroll shows the crash dialog, so the
        # check runs before its swipe, and before the dialog's "Go" is tapped
        trace, words = fast_path_over_adb(*self.scroll_scroll_go(go_crashes=False), corpus)
        assert trace.outcome is Outcome.BUG_TRIGGERED and len(trace.gestures) == 1
        assert words == [*LOOK, "shell input swipe 540 384 540 1536 300", *LOOK, CHECK]

    def test_once_the_model_is_asked_one_check_still_covers_an_action_and_the_scroll_after_it(self, corpus):
        # "Open the feed" is no label on the screen, so the model is asked and
        # lexical picks stop; the tap and the swipe cross the app's own window,
        # so one check, run while the model is asked for "Go", covers both
        spec = _spec({"s0": {"tree": page("Home", (button, "Open"))}, "s1": {"tree": page("Feed top")},
                      "s2": {"tree": page("Feed end", (button, "Go"))}},
                     [_tap("s0", 2, "s1"), {"from": "s1", "action": "scroll", "direction": "down", "to": "s2"},
                      _tap("s2", 2, CRASH_STATE)], "s0")
        steps = [parse_step_text(text) for text in ('[Tap] ["Open the feed"]', "[Scroll] [down]", '[Tap] ["Go"]')]
        trace, words = fast_path_over_adb(spec, steps, corpus, llm=ScriptedLlm(["[id=2]", "[id=2]"]))
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert [e.resolved_by for e in trace.events] == ["model", None, "model"]
        first, _, last = trace.gestures
        assert words == [*LOOK, *tap_words([first]), *LOOK, "shell input swipe 540 384 540 1536 300",
                         *LOOK, CHECK, *tap_words([last]), CHECK]

    @pytest.mark.parametrize("front, package", [(AdbFront, None), (BareFront, PACKAGE), (TwoWindowFront, PACKAGE)],
                             ids=["no-package", "root-without-package", "two-windows"])
    def test_without_the_apps_window_every_gesture_is_checked_at_once(self, front, package, corpus):
        scenario = scenario_linear_taps_3()
        trace, words = fast_path_over_adb(scenario.spec, scenario.steps, corpus, front, package)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert words == [part for tap in tap_words(trace.gestures) for part in (*LOOK, tap, CHECK)]

    @pytest.mark.parametrize("nexts, budgets, gestures", [
        (1, None, 3),
        (2, None, 1),
        (1, Budgets(actions=2), 2),
    ], ids=["end-of-steps", "model-call", "action-budget"])
    def test_a_crash_behind_the_apps_own_window_is_still_the_bug(self, nexts, budgets, gestures, corpus):
        # "Open" crashes the app, which comes back on a page with "Next"; two
        # "Next" send the step to the model, whose answer the crash outranks
        spec = _spec({"s0": {"tree": page("Home", (button, "Open"))},
                      CRASH_STATE: {"tree": page("Home again", *[(button, "Next")] * nexts)},
                      "s2": {"tree": page("List", (button, "Finish"))},
                      "s3": {"tree": page("End")}},
                     [_tap("s0", 2, CRASH_STATE), _tap(CRASH_STATE, 2, "s2"), _tap("s2", 2, "s3")], "s0")
        steps = [parse_step_text(f'[Tap] ["{label}"]') for label in ("Open", "Next", "Finish")]
        trace, words = fast_path_over_adb(spec, steps, corpus, RelaunchFront, llm=ScriptedLlm(["[id=2]"]),
                                          budgets=budgets)
        assert trace.outcome is Outcome.BUG_TRIGGERED
        assert len(trace.gestures) == gestures
        assert words.count(CHECK) == 1


def _refuse_pidfd(pid):
    raise OSError(38, "Function not implemented")


class TestRunSubprocess:
    """The default runner against real child processes. It never needs
    os.pidfd_open: each case passes with it present, missing or failing."""

    @pytest.fixture(autouse=True, params=["pidfd", "no-pidfd", "pidfd-fails"])
    def pidfd(self, request, monkeypatch):
        if request.param == "no-pidfd":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        elif request.param == "pidfd-fails":
            monkeypatch.setattr(os, "pidfd_open", _refuse_pidfd, raising=False)

    def script(self, tmp_path, body):
        path = tmp_path / "fake-adb"
        path.write_text(body, encoding="utf-8")
        path.chmod(0o755)
        return str(path)

    def test_the_child_reads_no_stdin(self, tmp_path):
        # an adb shell that reads its stdin gets an empty one, not what
        # the caller's stdin holds, so it can never wait on a terminal
        adb = self.script(tmp_path, "#!/bin/sh\ncat\necho end\n")
        read, write = os.pipe()
        os.write(write, b"typed at the terminal\n")
        os.close(write)
        saved = os.dup(0)
        os.dup2(read, 0)
        os.close(read)
        try:
            out = device_module._run_subprocess([adb, "shell"])
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert out == "end\n"

    @pytest.mark.parametrize("code", [0, 5])
    def test_large_stdout_and_stderr_are_read_in_full(self, tmp_path, code):
        # stderr first: a reader that drains stdout alone would wait forever
        size = 300 * 1024
        adb = self.script(tmp_path, f"#!{sys.executable}\nimport sys\n"
                                    f"sys.stderr.write('e' * {size}); sys.stderr.flush()\n"
                                    f"sys.stdout.write('o' * {size}); sys.exit({code})\n")
        if code == 0:
            assert device_module._run_subprocess([adb]) == "o" * size
        else:
            with pytest.raises(DeviceError) as caught:
                device_module._run_subprocess([adb])
            assert str(caught.value) == f"{adb} exited 5: {'e' * size}"

    def test_stderr_rides_beside_the_output(self, tmp_path):
        adb = self.script(tmp_path, "#!/bin/sh\necho out\necho '* daemon started successfully *' >&2\n")
        out = device_module._run_subprocess([adb, "shell"])
        assert out == "out\n"
        assert out.stderr == "* daemon started successfully *\n"

    def test_output_keeps_its_text_form(self, tmp_path):
        adb = self.script(tmp_path, "#!/bin/sh\nprintf 'a\\r\\nb\\rc \\377\\n'\n")
        assert device_module._run_subprocess([adb, "shell"]) == "a\nb\nc �\n"

    def test_nonzero_exit_names_the_code_and_stderr(self, tmp_path):
        adb = self.script(tmp_path, "#!/bin/sh\necho partial\necho 'error: device offline' >&2\nexit 7\n")
        with pytest.raises(DeviceError, match=r"^\S+ shell exited 7: error: device offline$"):
            device_module._run_subprocess([adb, "shell"])

    @pytest.mark.parametrize("closes_pipes", [False, True], ids=["hangs", "closes-pipes-then-hangs"])
    def test_timeout_kills_and_reaps_the_child(self, tmp_path, monkeypatch, closes_pipes):
        pid_file = tmp_path / "pid"
        adb = self.script(tmp_path, "#!/bin/sh\n" + ("exec >&- 2>&-\n" if closes_pipes else "")
                          + f"echo $$ > '{pid_file}'\nexec sleep 30\n")
        monkeypatch.setattr(device_module, "ADB_TIMEOUT_SECONDS", 0.3)
        started = time.monotonic()
        with pytest.raises(DeviceError, match=r"timed out after 0\.3 s"):
            device_module._run_subprocess([adb])
        assert time.monotonic() - started < 10
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text(encoding="utf-8")), 0)

    def test_one_deadline_covers_the_exit_and_the_output(self, tmp_path, monkeypatch):
        # the child exits at once, but a grandchild keeps its stdout open
        pid_file = tmp_path / "pids"
        adb = self.script(tmp_path, f"#!/bin/sh\nsleep 30 &\necho $$ $! > '{pid_file}'\nexit 0\n")
        monkeypatch.setattr(device_module, "ADB_TIMEOUT_SECONDS", 0.3)
        started = time.monotonic()
        try:
            with pytest.raises(DeviceError, match=r"timed out after 0\.3 s"):
                device_module._run_subprocess([adb])
            assert time.monotonic() - started < 10
        finally:
            child, grandchild = map(int, pid_file.read_text(encoding="utf-8").split())
            os.kill(grandchild, signal.SIGKILL)
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)


def test_apply_gestures_round_trip():
    scenario = scenario_with_input()
    device = SimulatedDevice(app_from(scenario))
    x, y = center_of(device, "Title")
    gestures = [("tap", x, y), ("text", "Hello"), ("restart",), ("tap", x, y),
                ("text", "Hello"), ("back",)]
    apply_gestures(device, gestures)
    assert device.current == "s1"


def test_apply_gestures_rejects_unknown():
    device = SimulatedDevice(app_from(scenario_linear_taps_3()))
    with pytest.raises(ValueError):
        apply_gestures(device, [("teleport", 1, 2)])


def test_scenario_specs_are_valid_app_specs(write_json):
    # every scenario round-trips through its on-disk JSON form
    for scenario in all_scenarios():
        path = write_json(f"{scenario.name}.json", scenario.spec)
        app = SimulatedApp.load(path)
        assert app.initial == scenario.spec["initial"]


def test_find_id_matches_device_hit():
    scenario = scenario_linear_taps_3()
    device = SimulatedDevice(app_from(scenario))
    nid = find_id_by_text(scenario.spec["states"]["s0"]["tree"], "Alpha")
    x, y = center_of(device, "Alpha")
    assert device._hit(x, y, "tap") == nid
