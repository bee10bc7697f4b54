"""Shared test infrastructure: scenario apps, oracle backends, walkers, a
device call log, and synthesized omissions.

Scenarios are JSON-ready app specs paired with the step list that reaches
their crash state. The oracle backends answer guidance queries by actually
reading the GUI block out of the prompt, which keeps replay tests honest:
nothing here peeks at device internals.
"""
from __future__ import annotations

import html as html_mod
import random
import re
import shlex
import threading
import time
from collections import deque
from xml.sax.saxutils import quoteattr

from bugreplay.device import AdbDevice, SimulatedApp, SimulatedDevice
from bugreplay.gui import Bounds, ViewNode, encode_gui, screen_digest
from bugreplay.llm import LlmClient
from bugreplay.replay import Budgets, replay
from bugreplay.steps import ActionType, bracket_tokens, parse_step_text, strip_quotes

SCREEN = (1080, 1920)
CRASH_STATE = "boom"

_QUERY_MARK = "If I need to "


# ---------------------------------------------------------------- trees

def text_view(text, top, *, height=80):
    return {"class": "android.widget.TextView", "text": text,
            "bounds": [40, top, 1040, top + height]}


def button(text, top, *, height=90):
    return {"class": "android.widget.Button", "text": text,
            "bounds": [40, top, 1040, top + height]}


def edit_text(text, top, *, rid=None, height=90):
    node = {"class": "android.widget.EditText", "text": text,
            "bounds": [40, top, 1040, top + height]}
    if rid:
        node["resource_id"] = rid
    return node


def screen_tree(children):
    return {"class": "android.widget.FrameLayout",
            "bounds": [0, 0, SCREEN[0], SCREEN[1]],
            "children": children}


def stacked(header, widgets):
    """Header TextView at the top, then the widgets every 130px."""
    children = [text_view(header, 60)]
    for i, w in enumerate(widgets):
        children.append(w(200 + 130 * i))
    return screen_tree(children)


_CRASH_TREE = screen_tree([text_view("Unfortunately, the app has stopped", 860)])


# ------------------------------------------------------------ scenarios

class Scenario:
    """An app spec and the steps of its bug report. With crash_on_back, the
    steps walk past the crash state, which only a Back from a decoy's dead
    end reaches: the bug fires while a restore presses Back."""

    def __init__(self, name, spec, step_texts, bridges=None, decoys=None, crash_on_back=False):
        self.name = name
        self.spec = spec
        self.steps = [parse_step_text(t) for t in step_texts]
        self.bridges = bridges or {}
        self.decoys = decoys or {}
        self.crash_on_back = crash_on_back

    def oracle(self):
        if self.decoys:
            return MisleadingOracle(self.decoys, bridges=self.bridges)
        return GuidanceOracle(bridges=self.bridges)


def _spec(states, transitions, initial, crash_states=(CRASH_STATE,)):
    states = dict(states)
    states.setdefault(CRASH_STATE, {"tree": _CRASH_TREE})
    return {"initial": initial, "crash_states": list(crash_states),
            "states": states, "transitions": transitions}


def _tap(frm, cid, to):
    return {"from": frm, "action": "tap", "id": cid, "to": to}


def scenario_single_step():
    spec = _spec(
        {"s0": {"tree": stacked("Main", [lambda y: button("Crash me", y)])}},
        [_tap("s0", 2, CRASH_STATE)], "s0")
    return Scenario("single_step", spec, ['[Tap] ["Crash me"]'])


def _linear_tap_chain(name, labels):
    """State i shows one button; tapping it moves to state i+1, last to boom."""
    states, transitions = {}, []
    for i, label in enumerate(labels):
        states[f"s{i}"] = {"tree": stacked(f"Screen {i}", [lambda y, t=label: button(t, y)])}
        to = f"s{i + 1}" if i + 1 < len(labels) else CRASH_STATE
        transitions.append(_tap(f"s{i}", 2, to))
    steps = [f'[Tap] ["{label}"]' for label in labels]
    bridges = {}
    for i, label in enumerate(labels):
        back = [labels[i - 1]] if i >= 1 else []
        if i >= 2:
            back.append(labels[i - 2])
        if back:
            bridges[label] = back
    return Scenario(name, _spec(states, transitions, "s0"), steps, bridges=bridges)


def scenario_linear_taps_3():
    return _linear_tap_chain("linear_taps_3", ["Alpha", "Bravo", "Charlie"])


def scenario_linear_taps_5():
    return _linear_tap_chain(
        "linear_taps_5",
        ["Open menu", "Settings", "Advanced", "Diagnostics", "Self test"])


def scenario_with_input():
    s0 = stacked("Create note", [lambda y: edit_text("Title", y, rid="app:id/title"),
                                 lambda y: button("Save", y)])
    s1 = stacked("Create note", [lambda y: edit_text("Hello", y, rid="app:id/title"),
                                 lambda y: button("Save", y)])
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}},
        [{"from": "s0", "action": "input", "id": 2, "to": "s1"},
         _tap("s1", 3, CRASH_STATE)],
        "s0")
    return Scenario("with_input", spec,
                    ['[Input] ["Title"] ["Hello"]', '[Tap] ["Save"]'])


def scenario_with_scroll():
    s0 = stacked("Feed top", [])
    s1 = stacked("Feed bottom", [lambda y: button("Load more", y)])
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}},
        [{"from": "s0", "action": "scroll", "direction": "down", "to": "s1"},
         _tap("s1", 2, CRASH_STATE)],
        "s0")
    return Scenario("with_scroll", spec, ["[Scroll] [down]", '[Tap] ["Load more"]'])


def scenario_with_longtap():
    s0 = stacked("Drafts", [lambda y: button("Old draft", y)])
    s1 = stacked("Draft actions", [lambda y: button("Delete forever", y)])
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}},
        [{"from": "s0", "action": "long-tap", "id": 2, "to": "s1"},
         _tap("s1", 2, CRASH_STATE)],
        "s0")
    return Scenario("with_longtap", spec,
                    ['[Long-tap] ["Old draft"]', '[Tap] ["Delete forever"]'])


def scenario_with_doubletap():
    s0 = stacked("Gallery", [lambda y: button("Open viewer", y)])
    s1 = stacked("Viewer", [lambda y: button("Chart", y)])
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}},
        [_tap("s0", 2, "s1"),
         {"from": "s1", "action": "double-tap", "id": 2, "to": CRASH_STATE}],
        "s0")
    return Scenario("with_doubletap", spec,
                    ['[Tap] ["Open viewer"]', '[Double-tap] ["Chart"]'])


def scenario_deep_tree():
    tree = screen_tree([
        {"class": "android.widget.LinearLayout", "resource_id": "app:id/toolbar",
         "bounds": [0, 0, 1080, 160], "children": [text_view("Files", 40)]},
        {"class": "android.widget.LinearLayout", "resource_id": "app:id/content",
         "bounds": [0, 160, 1080, 1920], "children": [
             {"class": "android.widget.LinearLayout", "resource_id": "app:id/row",
              "bounds": [0, 200, 1080, 400], "children": [
                  {"class": "android.widget.Button", "text": "Readme",
                   "bounds": [40, 220, 520, 380]},
                  {"class": "android.widget.Button", "text": "Manifest",
                   "bounds": [560, 220, 1040, 380]},
              ]},
         ]},
    ])
    spec = _spec({"s0": {"tree": tree}}, [_tap("s0", 6, CRASH_STATE)], "s0")
    return Scenario("deep_tree", spec, ['[Tap] ["Manifest"]'])


def _branch_states():
    s0 = stacked("Wizard", [lambda y: button("Continue", y),
                            lambda y: button("Skip setup", y)])
    s1 = stacked("Last page", [lambda y: button("Finish", y)])
    dead = stacked("Nothing here", [])
    return s0, s1, dead


def scenario_two_branch():
    s0, s1, dead = _branch_states()
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}, "dead": {"tree": dead}},
        [_tap("s0", 2, "s1"), _tap("s0", 3, "dead"), _tap("s1", 2, CRASH_STATE),
         {"from": "dead", "action": "back", "to": "s0"}],
        "s0")
    return Scenario("two_branch", spec, ['[Tap] ["Continue"]', '[Tap] ["Finish"]'],
                    decoys={"Continue": [3]})


def scenario_no_back_decoy():
    # same trap as two_branch, but the dead end ignores the back key, so
    # restoring the choice point must restart and replay the prefix
    s0, s1, dead = _branch_states()
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}, "dead": {"tree": dead}},
        [_tap("s0", 2, "s1"), _tap("s0", 3, "dead"), _tap("s1", 2, CRASH_STATE)],
        "s0")
    return Scenario("no_back_decoy", spec, ['[Tap] ["Continue"]', '[Tap] ["Finish"]'],
                    decoys={"Continue": [3]})


def scenario_three_backs():
    # the decoy opens three stacked screens at once and Back closes one at
    # a time, so restoring the choice point takes exactly three presses
    s0, s1, _ = _branch_states()
    layers = {f"layer{i}": {"tree": stacked(f"Layer {i}", [])} for i in (1, 2, 3)}
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}, **layers},
        [_tap("s0", 2, "s1"), _tap("s0", 3, "layer3"), _tap("s1", 2, CRASH_STATE),
         {"from": "layer3", "action": "back", "to": "layer2"},
         {"from": "layer2", "action": "back", "to": "layer1"},
         {"from": "layer1", "action": "back", "to": "s0"}],
        "s0")
    return Scenario("three_backs", spec, ['[Tap] ["Continue"]', '[Tap] ["Finish"]'],
                    decoys={"Continue": [3]})


def scenario_mixed_all():
    m0 = stacked("Connection setup", [lambda y: edit_text("Server", y, rid="app:id/server"),
                                      lambda y: button("Connect", y)])
    m1 = stacked("Connection setup", [lambda y: edit_text("demo.local", y, rid="app:id/server"),
                                      lambda y: button("Connect", y)])
    m2 = stacked("Connected", [])
    m3 = stacked("History", [lambda y: button("Session log", y)])
    m4 = stacked("Log detail", [lambda y: button("Export", y)])
    spec = _spec(
        {"m0": {"tree": m0}, "m1": {"tree": m1}, "m2": {"tree": m2},
         "m3": {"tree": m3}, "m4": {"tree": m4}},
        [{"from": "m0", "action": "input", "id": 2, "to": "m1"},
         _tap("m1", 3, "m2"),
         {"from": "m2", "action": "scroll", "direction": "down", "to": "m3"},
         {"from": "m3", "action": "long-tap", "id": 2, "to": "m4"},
         {"from": "m4", "action": "double-tap", "id": 2, "to": CRASH_STATE}],
        "m0")
    return Scenario("mixed_all", spec, [
        '[Input] ["Server"] ["demo.local"]',
        '[Tap] ["Connect"]',
        "[Scroll] [down]",
        '[Long-tap] ["Session log"]',
        '[Double-tap] ["Export"]',
    ])


def scenario_unicode_texts():
    s0 = stacked("Café menü", [lambda y: button("Überprüfung starten", y)])
    s1 = stacked("设置", [lambda y: button("崩溃按钮", y)])
    spec = _spec(
        {"s0": {"tree": s0}, "s1": {"tree": s1}},
        [_tap("s0", 2, "s1"), _tap("s1", 2, CRASH_STATE)],
        "s0")
    return Scenario("unicode_texts", spec,
                    ['[Tap] ["Überprüfung starten"]',
                     '[Tap] ["崩溃按钮"]'])


def scenario_double_trap():
    """Decoys on two consecutive steps, into a dead end that ignores Back,
    so the second restore restarts the app with the first restart in its
    gesture prefix."""
    def page(header, labels):
        return stacked(header, [lambda y, t=label: button(t, y) for label in labels])

    spec = _spec(
        {"s0": {"tree": page("Start", ["Continue", "Skip setup"])},
         "s1": {"tree": page("Middle", ["Next", "Quit"])},
         "s2": {"tree": page("Last", ["Finish"])},
         "dead": {"tree": page("Nothing here", [])}},
        [_tap("s0", 2, "s1"), _tap("s0", 3, "dead"), _tap("s1", 2, "s2"), _tap("s1", 3, "dead"),
         _tap("s2", 2, CRASH_STATE)],
        "s0")
    return Scenario("double_trap", spec,
                    ['[Tap] ["Continue"]', '[Tap] ["Next"]', '[Tap] ["Finish"]'],
                    decoys={"Continue": [3], "Next": [3, 3]})


def scenario_hop_after_backtrack():
    # Home's Decoy (id 2) leads to a dead end; More (id 3) opens Menu,
    # whose Target is id 2 again. With "More" omitted, the decoy on Target
    # is excluded on Home, the bridge hops to Menu, and excluding Home's
    # id 2 there would refuse the right answer
    spec = _spec(
        {"home": {"tree": stacked("Home", [lambda y: button("Decoy", y), lambda y: button("More", y)])},
         "dead": {"tree": stacked("Nothing here", [])},
         "menu": {"tree": stacked("Menu", [lambda y: button("Target", y)])},
         "last": {"tree": stacked("Last", [lambda y: button("Boom", y)])}},
        [_tap("home", 2, "dead"), {"from": "dead", "action": "back", "to": "home"},
         _tap("home", 3, "menu"), _tap("menu", 2, "last"), _tap("last", 2, CRASH_STATE)],
        "home")
    return Scenario("hop_after_backtrack", spec,
                    ['[Tap] ["More"]', '[Tap] ["Target"]', '[Tap] ["Boom"]'],
                    bridges={"Target": ["More"]}, decoys={"Target": [2]})


def scenario_long_inbox():
    """Sixty inbox rows, each a text in a wrapper, so a tight token budget
    elides the wrappers and the model cites ids of the elided encoding:
    Message 23 is id 49 in the full encoding and id 24 elided. The decoy,
    id 30, names Message 29 elided and Message 14's wrapper in the full
    encoding; both open a dead end."""
    rows = [{"class": "android.widget.LinearLayout", "resource_id": "app:id/row",
             "bounds": [0, 160 + 28 * i, 1080, 188 + 28 * i],
             "children": [text_view(f"Message {i}", 160 + 28 * i, height=28)]}
            for i in range(60)]
    spec = _spec(
        {"inbox": {"tree": screen_tree([text_view("Inbox", 60)] + rows)},
         "thread": {"tree": stacked("Thread", [lambda y: button("Delete", y)])},
         "dead": {"tree": stacked("Nothing here", [])}},
        [_tap("inbox", 49, "thread"), {"from": "thread", "action": "back", "to": "inbox"},
         _tap("inbox", 30, "dead"), _tap("inbox", 61, "dead"),
         {"from": "dead", "action": "back", "to": "inbox"},
         _tap("thread", 2, CRASH_STATE)],
        "inbox")
    return Scenario("long_inbox", spec, ['[Tap] ["Message 23"]', '[Tap] ["Delete"]'],
                    bridges={"Delete": ["Message 23"]}, decoys={"Message 23": [30]})


def scenario_back_into_crash():
    # two "Open" buttons leave the step to the model, whose decoy opens a
    # dead end; Back there crashes the app, and Publish crashes nothing
    spec = _spec(
        {"s0": {"tree": stacked("Drafts", [lambda y: button("Open", y), lambda y: button("Open", y)])},
         "s1": {"tree": stacked("Draft", [lambda y: button("Publish", y)])},
         "done": {"tree": stacked("Published", [])},
         "dead": {"tree": stacked("Nothing here", [])}},
        [_tap("s0", 2, "s1"), _tap("s0", 3, "dead"), _tap("s1", 2, "done"),
         {"from": "dead", "action": "back", "to": CRASH_STATE}],
        "s0")
    return Scenario("back_into_crash", spec, ['[Tap] ["Open"]', '[Tap] ["Publish"]'],
                    decoys={"Open": [3]}, crash_on_back=True)


def scenario_two_scrolls():
    # a Scroll right after a Scroll: on the fast path the first swipe's
    # crash check waits for the dump the second one swipes across
    scroll = {"action": "scroll", "direction": "down"}
    spec = _spec(
        {"s0": {"tree": stacked("Article top", [])},
         "s1": {"tree": stacked("Article middle", [])},
         "s2": {"tree": stacked("Article end", [lambda y: button("Share", y)])}},
        [{"from": "s0", **scroll, "to": "s1"}, {"from": "s1", **scroll, "to": "s2"},
         _tap("s2", 2, CRASH_STATE)],
        "s0")
    return Scenario("two_scrolls", spec, ["[Scroll] [down]", "[Scroll] [down]", '[Tap] ["Share"]'])


SCENARIO_BUILDERS = [
    scenario_single_step,
    scenario_linear_taps_3,
    scenario_linear_taps_5,
    scenario_with_input,
    scenario_with_scroll,
    scenario_with_longtap,
    scenario_with_doubletap,
    scenario_deep_tree,
    scenario_two_branch,
    scenario_no_back_decoy,
    scenario_three_backs,
    scenario_mixed_all,
    scenario_unicode_texts,
    scenario_double_trap,
    scenario_hop_after_backtrack,
    scenario_long_inbox,
    scenario_back_into_crash,
    scenario_two_scrolls,
]


def all_scenarios():
    return [build() for build in SCENARIO_BUILDERS]


def synthesize_omissions(steps, k, seed):
    """Drop k of the steps uniformly at random (seeded), never the final
    one. Models the incomplete reports users actually file."""
    if not 0 <= k <= 2:
        raise ValueError("k must be between 0 and 2")
    if k >= len(steps):
        raise ValueError("cannot omit that many steps")
    rng = random.Random(seed)
    dropped = set(rng.sample(range(len(steps) - 1), k))
    return [s for i, s in enumerate(steps) if i not in dropped]


# ------------------------------------------------- independent walker

def _dict_preorder(tree):
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.get("children", [])))
    return out


def find_id_by_text(tree, text):
    for i, node in enumerate(_dict_preorder(tree)):
        if node.get("text") == text:
            return i
    raise AssertionError(f"component {text!r} not present in tree")


def walk_steps(spec, steps):
    """Execute steps directly against the app spec's transition table.

    This is a from-scratch interpretation of scenario semantics with no
    device, encoder, or model in the loop; it pins down what each
    scenario's step list is supposed to do.
    """
    transitions = {}
    for t in spec["transitions"]:
        kind = t["action"].replace("-", "_")
        if kind == "scroll":
            subject = t["direction"]
        elif kind == "back":
            subject = None
        else:
            subject = t["id"]
        transitions[(t["from"], kind, subject)] = t["to"]
    kind_for = {ActionType.TAP: "tap", ActionType.DOUBLE_TAP: "double_tap",
                ActionType.LONG_TAP: "long_tap"}
    state = spec["initial"]
    for step in steps:
        tree = spec["states"][state]["tree"]
        if step.action is ActionType.SCROLL:
            key = (state, "scroll", step.direction.value)
        elif step.action is ActionType.INPUT:
            key = (state, "input", find_id_by_text(tree, step.component))
        else:
            key = (state, kind_for[step.action], find_id_by_text(tree, step.component))
        if key not in transitions:
            raise AssertionError(f"no transition for {key}")
        state = transitions[key]
    return state


# ------------------------------------------------------ oracle backends

def split_guidance_prompt(rendered):
    """The final GUI block and query out of a rendered guidance prompt."""
    qpos = rendered.rfind(_QUERY_MARK)
    if qpos < 0:
        raise AssertionError("prompt has no guidance query")
    query = rendered[qpos:].strip()
    before = rendered[:qpos].rstrip()
    cut = before.rfind("\n\n")
    html = before[cut:].strip() if cut >= 0 else before.strip()
    return html, query


def parse_query(query):
    head, sep, tail = query.partition(", which component")
    if not sep:
        raise AssertionError(f"unrecognized query {query!r}")
    tokens = bracket_tokens(head)
    component = strip_quotes(tokens[1])
    excluded = {int(m) for m in re.findall(r"\[id=(\d+)\]", tail)}
    return component, excluded


_ELEM_RE = re.compile(r'^<(\w+) id=(\d+)((?: [a-z]+="[^"]*")*)>(.*)$')


def parse_elements(html):
    """Flat element records scraped from encoded screen text."""
    elems = []
    for raw in html.splitlines():
        m = _ELEM_RE.match(raw.strip())
        if not m:
            continue
        tag, nid, attrs, rest = m.group(1), int(m.group(2)), m.group(3), m.group(4)
        label = re.match(r"<label>(.*)</label>$", rest)
        if label:
            text = label.group(1)
        else:
            text = re.sub(r"</\w+>$", "", rest)
        cls = re.search(r' class="([^"]*)"', attrs)
        alt = re.search(r' alt="([^"]*)"', attrs)
        elems.append({
            "tag": tag,
            "id": nid,
            "text": html_mod.unescape(text) if text else None,
            "class": cls.group(1) if cls else None,
            "alt": html_mod.unescape(alt.group(1)) if alt else None,
        })
    return elems


def match_component(elems, wanted, excluded):
    """Lowest non-excluded id whose text, label, alt, or class matches."""
    needle = wanted.strip().lower()
    for elem in elems:
        if elem["id"] in excluded:
            continue
        haystack = [elem["text"], elem["alt"], elem["class"]]
        if any(h is not None and h.strip().lower() == needle for h in haystack):
            return elem["id"]
    return None


class GuidanceOracle(LlmClient):
    """Answers guidance queries from the prompt's own GUI block.

    bridges maps a component name to an ordered list of component names
    that, when the target is absent, are worth tapping to look for it.
    """

    def __init__(self, bridges=None):
        super().__init__()
        self.bridges = {k.strip().lower(): list(v) for k, v in (bridges or {}).items()}
        self.queries = []

    def _complete(self, prompt):
        html, query = split_guidance_prompt(prompt.rendered)
        component, excluded = parse_query(query)
        self.queries.append((component, frozenset(excluded), query))
        return self._answer(component, excluded, parse_elements(html))

    def _answer(self, component, excluded, elems):
        hit = match_component(elems, component, excluded)
        if hit is not None:
            return f"The component is visible, so I operate on [id={hit}] in the screen."
        for via in self.bridges.get(component.strip().lower(), []):
            hop = match_component(elems, via, excluded)
            if hop is not None:
                return f"It is not on this screen; a nearby component may lead there. [MISSING] [id={hop}]"
        return "I cannot locate any suitable component on this screen."


class MisleadingOracle(GuidanceOracle):
    """Gives one scripted wrong id per component before answering honestly."""

    def __init__(self, decoys, bridges=None):
        super().__init__(bridges=bridges)
        self.decoys = {k.strip().lower(): deque(v) for k, v in decoys.items()}

    def _answer(self, component, excluded, elems):
        queue = self.decoys.get(component.strip().lower())
        if queue and queue[0] not in excluded:
            return f"[id={queue.popleft()}]"
        return super()._answer(component, excluded, elems)


class AlwaysMissingLlm(LlmClient):
    """Adversarial guidance: every answer is an exploratory nudge."""

    def _complete(self, prompt):
        return "[MISSING] [id=0]"


class ScriptedLlm(LlmClient):
    """Fixed answers in order, for tests that need exact control."""

    def __init__(self, answers):
        super().__init__()
        self.answers = deque(answers)
        self.prompts = []

    def _complete(self, prompt):
        self.prompts.append(prompt)
        if not self.answers:
            raise AssertionError("scripted llm ran out of answers")
        return self.answers.popleft()


class PromptCollector(LlmClient):
    """Pass-through backend that keeps every prompt it is sent."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.prompts = []

    def _complete(self, prompt):
        self.prompts.append(prompt)
        return self.inner.complete(prompt)


class CallLog:
    """Delegates to a device session and logs each call just before it is
    made: a gesture as the trace's tuple, and any other call by name.

    `perform` hands the session one gesture at a time. Subclasses hook
    `note`.
    """

    def __init__(self, device):
        self.device = device
        self.calls = []
        # when each call started, by time.monotonic
        self.times = []
        self.threads = set()

    def note(self, call):
        self.calls.append(call)
        self.times.append(time.monotonic())
        self.threads.add(threading.get_ident())

    def kinds(self):
        """Each call's name, or its gesture's kind."""
        return [c if isinstance(c, str) else c[0] for c in self.calls]

    def __getattr__(self, name):
        attr = getattr(self.device, name)
        if not callable(attr):
            return attr
        if name == "perform":
            def perform(gestures):
                for gesture in gestures:
                    self.note(tuple(gesture))
                    attr([gesture])
            return perform

        def logged(*args):
            self.note(name)
            return attr(*args)
        return logged


def dump_xml(root, package=None):
    """A view tree as uiautomator writes its dump, on one line, each node
    in the window of `package` (an empty attribute if None)."""
    def node(n):
        b = n.bounds
        return (f"<node text={quoteattr(n.text or '')} resource-id={quoteattr(n.resource_id or '')} "
                f"class={quoteattr(n.class_name)} package={quoteattr(package or '')} "
                f"content-desc={quoteattr(n.content_desc or '')} "
                f'bounds="[{b.left},{b.top}][{b.right},{b.bottom}]">'
                f"{''.join(map(node, n.children))}</node>")
    return f"<?xml version='1.0' encoding='UTF-8' standalone='yes' ?><hierarchy rotation=\"0\">{node(root)}</hierarchy>"


class AdbFront:
    """An adb runner over a SimulatedDevice, for `AdbDevice(runner=...)`:
    it answers the commands AdbDevice sends by acting on the device.

    Each call is read once, by `words`, as adb and the device shell read
    it. A tap waits for the next command. A second tap at the same point
    with nothing between makes the two a double tap when the node hit, on
    the screen the first tap lands on, has a double-tap transition, as
    Android's gesture detector would; else each is a tap. Consecutive
    `input text` calls type one value, with `%s` read as a space. A swipe
    that stays in place for at least LONG_PRESS_MS is a long tap. The
    launch command restarts the app; the crash buffer holds a FATAL
    EXCEPTION naming the package while the app is in a crash state. A dump
    shows an app state in the package's window and a crash state in the
    crash dialog's, of the system package `android`.

    It asserts that once a dump has shown a crash state, no gesture acts
    and no `logcat -c` arrives before the next crash-buffer read. The
    gestures of one step or of a restore's prefix go out with no dump
    between, so a dump is where the crash is first seen.

    With settle, the screen settles only when `uiautomator dump` waits for
    it, as on a device where a gesture returns before the screen it opens
    is drawn: a gesture that changes the app's state, or the launch, leaves
    the screen unsettled until the next dump, and a gesture sent meanwhile
    does nothing. `lost` lists each such gesture beside the one that left
    the screen unsettled.
    """

    LONG_PRESS_MS = 500

    def __init__(self, device, package, launch_command, settle=False):
        self.device = device
        self.package = package
        self.launch = self.words(["adb", "shell", launch_command])
        self.files = {}
        self.pending = None
        # whether a dump has shown a crash state since the last crash-buffer read
        self.crash_shown = False
        self.settle, self.lost = settle, []
        # the gesture that left the screen unsettled, in settle mode, until the next dump
        self.unsettled_by = None

    @staticmethod
    def words(argv):
        """The words one adb call runs. adb joins the words after `shell`
        with spaces and the device shell splits that line again; adb's own
        commands keep their words."""
        args = argv[3:] if argv[1:2] == ["-s"] else argv[1:]
        if args[:1] == ["shell"]:
            return ["shell", *shlex.split(" ".join(args[1:]))]
        return args

    def __call__(self, argv):
        words = self.words(argv)
        if words[:3] == ["shell", "input", "tap"]:
            x, y = map(int, words[3:])
            if self.pending == ("tap", x, y) and self.device.takes_double_tap(x, y):
                self.pending = None
                self._perform(("double_tap", x, y))
            else:
                self._flush(("tap", x, y))
            return ""
        if words[:3] == ["shell", "input", "text"]:
            [value] = words[3:]
            value = value.replace("%s", " ")
            if self.pending and self.pending[0] == "text":
                self.pending = ("text", self.pending[1] + value)
            else:
                self._flush(("text", value))
            return ""
        self._flush()
        if words[:3] == ["shell", "input", "swipe"]:
            x1, y1, x2, y2, ms = map(int, words[3:])
            long_press = (x1, y1) == (x2, y2) and ms >= self.LONG_PRESS_MS
            self._perform(("long_tap", x1, y1) if long_press else ("swipe", x1, y1, x2, y2))
        elif words == ["shell", "input", "keyevent", "KEYCODE_BACK"]:
            self._perform(("back",))
        elif words == self.launch:
            self._perform(("restart",))
        elif words == ["shell", "am", "force-stop", self.package]:
            pass
        elif words == ["logcat", "-c"]:
            assert not self.crash_shown, "logcat -c erased a crash a dump showed and no crash-buffer read saw"
        elif words == ["logcat", "-d", "-b", "crash"]:
            self.crash_shown = False
            if self.device.crashed():
                return self.crash_log()
        elif words[:3] == ["shell", "uiautomator", "dump"]:
            self.unsettled_by = None
            self.crash_shown = self.device.crashed()
            self.files[words[3]] = dump_xml(self.device.dump_hierarchy(), self.window_package())
            return f"UI hierchary dumped to: {words[3]}\n"
        elif words[:2] == ["shell", "cat"]:
            return self.files[words[2]]
        else:
            raise AssertionError(f"adb front does not answer {argv}")
        return ""

    def window_package(self):
        """The package of the window in front: the crash dialog's in a crash state, else the app's."""
        return "android" if self.device.crashed() else self.package

    def crash_log(self):
        """What the crash buffer holds once the app has crashed."""
        return (f"--------- beginning of crash\nE AndroidRuntime: FATAL EXCEPTION: main\n"
                f"E AndroidRuntime: Process: {self.package}, PID: 4242\n")

    def _flush(self, pending=None):
        """Make the gesture waiting for the next command, and hold `pending` instead."""
        if self.pending:
            self._perform(self.pending)
        self.pending = pending

    def _perform(self, gesture):
        assert not self.crash_shown, f"{gesture} reached a crash a dump showed and no crash-buffer read saw"
        restart = gesture == ("restart",)
        if self.unsettled_by and not restart:
            self.lost.append((gesture, self.unsettled_by))
            return
        before = self.device.current
        self.device.perform([gesture])
        if self.settle and (restart or self.device.current != before):
            self.unsettled_by = gesture


class RelaunchFront(AdbFront):
    """An app that a crash relaunches in its own window, so its crash state
    shows the package's window; the crash buffer keeps the crash until
    `logcat -c`, as logcat's does, and gestures go on reaching the app."""

    def __init__(self, *args):
        super().__init__(*args)
        self.crash_logged = False

    def window_package(self):
        return self.package

    def _perform(self, gesture):
        self.device.perform([gesture])
        self.crash_logged = self.crash_logged or self.device.crashed()

    def __call__(self, argv):
        words = self.words(argv)
        if words[:1] != ["logcat"]:
            return super().__call__(argv)
        self._flush()
        if words == ["logcat", "-c"]:
            self.crash_logged = False
            return ""
        return self.crash_log() if self.crash_logged else ""


# the app the adb runs address, and the command that starts it again
PACKAGE, LAUNCH = "com.example.app", "am start -n com.example.app/.Main"


def adb_device(spec, front=AdbFront, package=PACKAGE):
    """An AdbDevice, with no double-tap gap, over `front` around the spec's
    app, and the list of the argv of each adb call it makes."""
    front, argv_log = front(SimulatedDevice(SimulatedApp(spec)), PACKAGE, LAUNCH), []

    def runner(argv):
        argv_log.append(argv)
        return front(argv)

    device = AdbDevice(runner=runner, package=package, launch_command=LAUNCH)
    device.DOUBLE_TAP_GAP_SECONDS = 0
    return device, argv_log


def replay_both_ways(spec, steps, llm, adb_llm, corpus, budgets=None, report_id="", fast_path=False,
                     package=PACKAGE, launch=LAUNCH, device=None, settle=False):
    """Replay a run on `device` (a SimulatedDevice or a CallLog around one)
    with `llm`, then with `adb_llm` over AdbDevice and an AdbFront, in
    settle mode if `settle`, with no double-tap gap; assert what the README
    promises of every run; return its trace, less wall_time, and the argv
    of each adb call."""
    app, budgets = SimulatedApp(spec), budgets or Budgets()
    caller, argv_log = threading.get_ident(), []
    log = device if isinstance(device, CallLog) else CallLog(device or SimulatedDevice(app))
    front = AdbFront(SimulatedDevice(app), package, launch, settle)

    def runner(argv):
        assert threading.get_ident() == caller, "an adb call ran off the calling thread"
        argv_log.append(argv)
        return front(argv)

    adb = AdbDevice(runner=runner, package=package, launch_command=launch)
    adb.DOUBLE_TAP_GAP_SECONDS = 0
    data, over_adb = (replay(steps, on, model, corpus, budgets, report_id, fast_path=fast_path).to_dict()
                      for on, model in ((log, llm), (adb, adb_llm)))
    del data["wall_time"], over_adb["wall_time"]
    assert over_adb == data, "the trace over adb differs from the simulated one"
    assert log.threads <= {caller}, "a device call ran off the calling thread"
    for budget in ("actions", "backtracks"):
        used, ceiling = data[f"{budget}_used"], getattr(budgets, budget)
        assert used <= ceiling, f"the {budget} budget broke: {used} {budget} used, ceiling {ceiling}"
    ids = {screen_digest(encoded.html): encoded.index.keys() for encoded in map(encode_gui, app.states.values())}
    for event in data["events"]:
        assert event["resolved_id"] is None or event["resolved_id"] in ids[event["screen_digest"]], event
    # the gestures replay verbatim: they pass through a crash state exactly when the run reports the bug
    replayed, crashed = SimulatedDevice(app), False
    for gesture in data["gestures"]:
        replayed.perform([tuple(gesture)])
        crashed = crashed or replayed.crashed()
    assert crashed == (data["outcome"] == "bug_triggered"), "the gestures do not replay to the outcome"
    # no screen of the app changes by itself, so nothing may end the run in error
    assert data["outcome"] != "error", data["error_detail"]
    return data, argv_log


# ----------------------------------------------------------- random apps

LABEL_POOL = ["Go", "Next", "Open", "Save", "More", "Done"]
HEADER_POOL = ["Home", "List", "Detail"]
VALUE_POOL = ["hi", "two words", "50%sale"]
_STEP_WORDS = {"tap": "Tap", "double-tap": "Double-tap", "long-tap": "Long-tap", "input": "Input"}
# a step still to go after a crash finds its label on a generated app's crash dialog
_CRASH_DIALOG = screen_tree([text_view("Unfortunately, the app has stopped", 860),
                             *(button(label, 1000 + 130 * i) for i, label in enumerate(LABEL_POOL))])


class RandomOracle(LlmClient):
    """Answers each guidance query with a seeded random id from the prompt's
    screen, at times flagged [MISSING], at times with nothing usable."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def _complete(self, prompt):
        html, _ = split_guidance_prompt(prompt.rendered)
        ids = [elem["id"] for elem in parse_elements(html)]
        roll = self.rng.random()
        if roll < 0.1 or not ids:
            return "I cannot locate any suitable component on this screen."
        answer = f"[id={self.rng.choice(ids)}]"
        return f"[MISSING] {answer}" if roll < 0.3 else answer


def _generated_widget(label, top, field, wrapped):
    node = (edit_text if field else button)(label, top)
    if wrapped:  # in a row that a prompt short of tokens elides
        node = {"class": "android.widget.LinearLayout", "bounds": [0, top, 1080, top + 100], "children": [node]}
    return node


class GeneratedRun:
    """A seeded random app and one replay run on it: 2-8 states of 1-6
    widgets labelled from a small pool, some in wrapper rows; tap,
    double-tap, long-tap and input transitions, some into the crash state,
    whose dialog shows a button of every label; random Back and scroll
    ones; steps from a random walk, one of them dropped 30% of the time;
    random budgets, token budgets small enough to elide the wrapper rows
    included; the fast path on or off; and an honest, misleading or random
    oracle, which `oracle()` builds fresh for each run. With
    back_into_crash, a second random stream re-targets 40% of the Back
    transitions at the crash state, so a restore's Back can crash the app;
    the first stream, and so the rest of the run, is the same. With
    past_crash, a walk that reaches the crash state with steps still to
    take goes on from a state that a third stream picks, so the run
    crashes with steps to go."""

    def __init__(self, seed, back_into_crash=False, past_crash=False):
        rng, crash_rng, past_rng = random.Random(seed), random.Random(str(seed)), random.Random(f"past {seed}")
        names = [f"s{i}" for i in range(rng.randint(2, 8))]
        states, transitions, moves = {}, [], {name: [] for name in names}
        for name in names:
            widgets, nid = [], 1
            for _ in range(rng.randint(1, 6)):
                label, field, wrapped = rng.choice(LABEL_POOL), rng.random() < 0.25, rng.random() < 0.3
                widgets.append(lambda y, t=label, f=field, w=wrapped: _generated_widget(t, y, f, w))
                nid += 1 + wrapped  # a wrapper takes the id before its widget's
                if rng.random() < 0.7:
                    kind = "input" if field else rng.choice(["tap", "tap", "double-tap", "long-tap"])
                    to = CRASH_STATE if rng.random() < 0.15 else rng.choice(names)
                    transitions.append({"from": name, "action": kind, "id": nid, "to": to})
                    moves[name].append((f'[{_STEP_WORDS[kind]}] ["{label}"]', to))
            states[name] = {"tree": stacked(rng.choice(HEADER_POOL), widgets)}
            if rng.random() < 0.3:
                to = rng.choice(names)
                if back_into_crash and crash_rng.random() < 0.4:
                    to = CRASH_STATE
                transitions.append({"from": name, "action": "back", "to": to})
            if rng.random() < 0.2:
                direction = rng.choice(["up", "down", "left", "right"])
                transitions.append({"from": name, "action": "scroll", "direction": direction,
                                    "to": rng.choice(names)})
                moves[name].append((f"[Scroll] [{direction}]", transitions[-1]["to"]))
        self.spec = _spec(states | {CRASH_STATE: {"tree": _CRASH_DIALOG}}, transitions, names[0])
        texts, state, length = [], names[0], rng.randint(1, 6)
        while len(texts) < length:
            if state == CRASH_STATE and past_crash:
                state = past_rng.choice(names)
            if state == CRASH_STATE or not moves[state]:
                break
            text, state = rng.choice(moves[state])
            if text.startswith("[Input]"):
                text += f' ["{rng.choice(VALUE_POOL)}"]'
            texts.append(text)
        if not texts:
            texts.append(f'[Tap] ["{rng.choice(LABEL_POOL)}"]')
        self.steps = [parse_step_text(t) for t in texts]
        if len(self.steps) > 1 and rng.random() < 0.3:
            self.steps = synthesize_omissions(self.steps, 1, seed)
        self.budgets = Budgets(tokens=rng.choice([4096, 4096, 1200, 260]), actions=rng.randint(1, 30),
                               backtracks=rng.randint(0, 5), max_missing_depth=rng.randint(0, 2))
        self.fast_path = rng.random() < 0.5
        self.oracle_kind = rng.choice(["honest", "misleading", "random"])
        self.decoys = {label: [rng.randrange(2, 8)] for label in rng.sample(LABEL_POOL, 2)}
        self.seed = seed

    def oracle(self):
        if self.oracle_kind == "honest":
            return GuidanceOracle()
        if self.oracle_kind == "misleading":
            return MisleadingOracle(self.decoys)
        return RandomOracle(self.seed)


# ---------------------------------------------------- random view trees

CLASS_POOL = [
    "android.widget.TextView",
    "android.widget.Button",
    "android.widget.ImageButton",
    "android.widget.ImageView",
    "android.widget.EditText",
    "android.widget.CheckBox",
    "android.widget.RadioButton",
    "android.widget.Switch",
    "android.widget.LinearLayout",
    "android.widget.FrameLayout",
    "android.widget.RelativeLayout",
    "android.widget.ScrollView",
    "android.view.View",
    "androidx.appcompat.widget.AppCompatButton",
    "com.example.custom.FancyWidget",
    "Button",
    "button",
]

TEXT_POOL = [
    None, None, None, "", "OK", "Send  now", "a & b", "<b>bold</b>",
    'He said "hi"', "line\nbreak", "tab\tsep", "Überprüfung",
    "崩溃", "   padded   ", "semi;colon", "trailing space ",
]

DESC_POOL = [None, None, None, "icon", "user avatar", "back & forth", 'the "main" one']

RID_POOL = [
    None, None, "com.app:id/item", "com.app:id/list_row", "plain_id",
    "com.app:id/a/b", "android:id/content",
]


def random_bounds(rng):
    left = rng.randrange(0, 1000)
    top = rng.randrange(0, 1800)
    return Bounds(left, top, left + rng.randrange(0, 500), top + rng.randrange(0, 300))


def random_view_tree(rng, max_nodes=200):
    budget = [rng.randint(1, max_nodes)]

    def build(depth):
        budget[0] -= 1
        node = ViewNode(
            class_name=rng.choice(CLASS_POOL),
            resource_id=rng.choice(RID_POOL),
            text=rng.choice(TEXT_POOL),
            content_desc=rng.choice(DESC_POOL),
            bounds=random_bounds(rng),
        )
        while budget[0] > 0 and depth < 10 and rng.random() < 0.6:
            node.children.append(build(depth + 1))
        return node

    return build(0)
