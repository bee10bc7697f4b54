"""Guided replay: drive extracted steps on a device until the bug fires.

Each iteration of a guided step (one that targets a component) dumps and
encodes the screen, asks guidance where the current step should land, and
acts on the answer:

* an id with no missing flag executes the step and advances;
* [MISSING] plus an id is an exploratory hop: tap there, stay on the
  same step, and try again on the new screen (bounded depth);
* an unusable answer (nothing actionable, a hallucinated or already
  excluded id, or exploration depth exhausted) pops the history stack,
  which holds a snapshot per guided action, adds the id tried from that
  earlier screen to its exclusion set, and retries guidance there.

An exclusion set belongs to the screen it was made on: a snapshot keeps
the set it was taken with, a backtrack brings it back with the departed
id added, and any executed action, an advance or an exploratory hop,
starts the next screen with none.

The loop dumps in one place, atop an iteration with no dump in hand and an
action left, so every step acts on the screen it sees; only a lexical pick
on the last step takes a dump for its check alone. A Scroll step needs no
model call; it swipes across the root of the dump. App state is restored
after a pop by pressing system back, up to three times, until the screen
digest matches the snapshot. A Back that leaves the digest unchanged ends
the presses, since that screen ignores Back, except the first one after
typed text, which may only have closed the keyboard. If Back does not get
there, the app restarts and replays verbatim the gestures logged since the
snapshot's prefix last restarted it (the whole prefix if it holds no
restart). A restore starts from the dump in hand and leaves the restored
screen's dump in hand, so a screen is never dumped twice; the caller may
hand over the first screen the same way. A restore checks for a crash
after a Back that shows a new screen, before a restart's `logcat -c` could
erase it, and before it gives up; a crash it finds ends the run as
triggered. Outside a prompt, a node's id is its id in the screen's full
encoding, stable for the screen's digest; a prompt that elides wrapper
divs numbers its nodes anew, and the id an answer cites there becomes a
full id once, through the encoding's full_ids.
Every run ends in one of four outcomes: the crash fired, the steps ran
out without it, a budget ran out, or the pipeline itself failed.

Guidance calls run on one worker thread, one at a time, in the order the
loop needs them, while the calling thread, the only one that touches the
device, does the device work the answer does not decide. A re-ask after a
pop goes out as soon as the snapshot is popped, built from the snapshot's
own dump, while the screen is restored: the restore ends on that very
screen, so the prompt is the one the paper sends after it, and the cited
node is acted on at the bounds of the restored dump. An action's crash
check runs right after its gestures, except on a fast-path run with a
step left, where it waits while the dumps, from the one the action was
aimed at on, show the app's own window (a root that names the device's
package); it then runs at the next dump that does not, while the next
model call is out (its answer acted on only once the check finds no
crash), or at the finish. The crash buffer keeps a crash until a
restart's logcat -c, which follows only a model answer or the run's end,
so one check covers every gesture since. A finish runs a check still
owed first, so a crash outranks a budget or a failure after it. Two
costs come with this: on the fast path, a gesture that crashes the app
into its own window while steps remain costs a dump, and at times a
model call whose answer is dropped, before the check; and a re-ask
already sent is dropped when the wall budget runs out during its restore
or the restore fails.

With fast_path on, a guided step whose component, normalised (casefolded,
`_` read as a space, whitespace collapsed), equals the normalised text,
content-desc or resource-id leaf of exactly one node of the screen's full
encoding, acts on that node with no model call. Two guards keep it honest.
The pick's snapshot joins the history when it is taken, and the first dump
after it, a Scroll's or the last step's own, checks it: if the screen's
digest is unchanged, the pick is undone (its snapshot taken off, no
backtrack counted, no exclusion added) and the model is asked on that
screen, with the prompt the paper would have sent; an answer that cites
the undone node with no [MISSING] takes the gesture already sent as the
step's action and puts the snapshot back. And lexical picks last only
while they are right: they stop for the rest of the run once the model is
asked for any reason or a pick is undone, while the crash check keeps the
fast path's rule. A wrong lexical pick that does change the screen, typed
text included, is caught only by ordinary backtracking. With fast_path
off, the loop is the paper's.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .errors import (
    BugReplayError,
    DeviceError,
    NoActionableAnswer,
    UnknownId,
)
from .exemplars import ExemplarCorpus
from .guidance import build_guidance_prompt, parse_guidance_response
from .gui import EncodedGui, ViewNode, encode_gui, resolve_component, resource_leaf, screen_digest
from .llm import LlmClient
from .steps import ActionType, Direction, Step, render_steps, step_text
from .device import DeviceSession

logger = logging.getLogger(__name__)

_BACK_ATTEMPTS = 3
_BACK, _RESTART = ("back",), ("restart",)


@dataclass
class Budgets:
    """Hard ceilings for one replay run."""

    tokens: int = 4096
    actions: int = 50
    backtracks: int = 10
    wall_seconds: float = 600.0
    max_missing_depth: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            whole = f.type == "int"
            number = isinstance(value, int if whole else (int, float)) and not isinstance(value, bool)
            if not number or not value >= 0:
                kind = " (an integer)" if whole else ""
                raise ValueError(f"budget {f.name} must be a non-negative number{kind}, got {value!r}")


class Outcome(Enum):
    BUG_TRIGGERED = "bug_triggered"
    STEPS_EXHAUSTED_NO_BUG = "steps_exhausted_no_bug"
    BUDGET_EXHAUSTED = "budget_exhausted"
    ERROR = "error"


@dataclass(frozen=True)
class ReplayEvent:
    """One executed action: which step, where, and on which screen."""

    step: Step
    # the step's 1-based place in the run's list
    step_index: int
    # the node acted on, by its id in the full encoding of the screen
    # screen_digest names, even if the prompt elided wrappers
    resolved_id: int | None
    exploratory: bool
    screen_digest: str
    # "lexical", "model", or None for a Scroll step
    resolved_by: str | None


@dataclass
class ReplayTrace:
    report_id: str
    steps: list[Step]
    events: list[ReplayEvent] = field(default_factory=list)
    outcome: Outcome = Outcome.ERROR
    error_detail: str | None = None
    wall_time: float = 0.0
    actions_used: int = 0
    backtracks_used: int = 0
    # every raw device interaction, including backtracking; replaying
    # these verbatim on a fresh session reproduces the final screen
    gestures: list[tuple] = field(default_factory=list)

    def to_dict(self) -> dict:
        # each field under its name, in field order; an event's step, as its text, follows its number
        own, *events = ({f.name: getattr(obj, f.name) for f in fields(obj)} for obj in (self, *self.events))
        return own | {
            "steps": render_steps(self.steps).splitlines(),
            "events": [{"step_index": e["step_index"]} | e | {"step": step_text(e["step"])} for e in events],
            "outcome": self.outcome.value,
            "gestures": [list(g) for g in self.gestures],
        }


def execute_step(device: DeviceSession, step: Step, node: ViewNode) -> list[tuple]:
    """Perform one step's gestures; returns what was done, for the log.

    Component actions land on the node's bounds center. Input taps the
    field then types. Scroll takes the root of a dump as its node and
    swipes through the centre of its bounds, the window the dump shows,
    across 60% of the scrolled dimension, in the direction the finger moves.
    """
    if node is None:
        raise ValueError(f"{step.action} expects a node")
    if step.action is ActionType.SCROLL:
        bounds = node.bounds
        cx, cy = bounds.center()
        half_h, half_w = int(0.3 * (bounds.bottom - bounds.top)), int(0.3 * (bounds.right - bounds.left))
        ends = {
            Direction.UP: (cx, cy + half_h, cx, cy - half_h),
            Direction.DOWN: (cx, cy - half_h, cx, cy + half_h),
            Direction.LEFT: (cx + half_w, cy, cx - half_w, cy),
            Direction.RIGHT: (cx - half_w, cy, cx + half_w, cy),
        }[step.direction]
        gestures = [("swipe", *ends)]
    elif step.action is ActionType.INPUT:
        gestures = [("tap", *node.bounds.center()), ("text", step.value)]
    else:
        # a tap-like action's gesture kind is its name: tap, double_tap, long_tap
        gestures = [(step.action.name.lower(), *node.bounds.center())]
    device.perform(gestures)
    return gestures


def apply_gestures(device: DeviceSession, gestures: list[tuple]) -> None:
    """Replay a restore's recorded gesture prefix verbatim. Restores call
    nothing else by this name, so a wrapper around it sees each prefix."""
    device.perform(gestures)


# an encoded dump and its digest
_Screen = tuple[EncodedGui, str]


@dataclass(frozen=True)
class _Snapshot:
    cursor: int
    missing_depth: int
    screen: _Screen
    # the full-encoding ids excluded for the step on this screen
    excluded: frozenset[int]
    departed_id: int
    gesture_prefix: int


def _encode_screen(tree: ViewNode) -> _Screen:
    encoded = encode_gui(tree)
    return encoded, screen_digest(encoded.html)


def _dump_screen(device: DeviceSession) -> _Screen:
    return _encode_screen(device.dump_hierarchy())


def _norm_label(text: str | None) -> str:
    return " ".join((text or "").replace("_", " ").casefold().split())


def _lexical_pick(component: str, encoded: EncodedGui) -> int | None:
    """The full-encoding id of the one node whose text, content-desc or
    resource-id leaf reads as component; None unless exactly one does."""
    want = _norm_label(component)
    hits = [
        nid for nid, node in encoded.index.items()
        if want and want in (
            _norm_label(node.text),
            _norm_label(node.content_desc),
            _norm_label(node.resource_id and resource_leaf(node.resource_id)),
        )
    ]
    return hits[0] if len(hits) == 1 else None


def _restore(device: DeviceSession, snap: _Snapshot, gestures: list[tuple], screen: _Screen) -> _Screen | None:
    """Bring back the snapshot's screen, starting from `screen`, the dump
    of what the device shows now; returns the dump of the restored screen,
    or None if a Back or the replayed prefix crashed the app."""
    if screen[1] == snap.screen[1]:
        return screen
    typed = bool(gestures) and gestures[-1][0] == "text"
    for attempt in range(_BACK_ATTEMPTS):
        before = screen[1]
        device.perform([_BACK])
        gestures.append(_BACK)
        screen = _dump_screen(device)
        if screen[1] == snap.screen[1]:
            return screen
        # a Back that led somewhere new may have crashed the app, and a
        # restart's logcat -c would erase the evidence
        if screen[1] != before and device.crashed():
            return None
        # a screen that ignored Back will ignore it again; only the first
        # Back after typing may have closed the keyboard and nothing else
        if screen[1] == before and not (typed and attempt == 0):
            break
    # the restart undoes what the prefix did before its own last restart
    prefix = gestures[: snap.gesture_prefix]
    while _RESTART in prefix:
        prefix = prefix[prefix.index(_RESTART) + 1 :]
    device.perform([_RESTART])
    gestures.append(_RESTART)
    apply_gestures(device, prefix)
    gestures.extend(prefix)
    screen = _dump_screen(device)
    if screen[1] == snap.screen[1]:
        return screen
    if device.crashed():
        return None
    raise DeviceError("could not restore the prior screen after backtracking")


def replay(
    steps: list[Step],
    device: DeviceSession,
    llm: LlmClient,
    corpus: ExemplarCorpus,
    budgets: Budgets | None = None,
    report_id: str = "",
    *,
    first_screen: ViewNode | None = None,
    fast_path: bool = False,
) -> ReplayTrace:
    """Run the guided replay loop to one of the four outcomes.

    first_screen, if given, is the hierarchy the device shows now, dumped
    with no gesture since; the first iteration uses it instead of a dump.
    fast_path lets a step's one verbatim on-screen label settle the step
    with no model call, as the module docstring describes.

    Guidance calls run one at a time on a worker thread, in the order the
    loop needs them; the device is touched only from the calling thread,
    and the run returns only once no call is in flight.

    Never raises for pipeline failures; they land in the trace as
    outcome=error. Termination is guaranteed: every iteration either
    executes an action, consumes a backtrack, or finishes, and both are
    budgeted; the one undo of a lexical pick a run can make follows an
    action, and so does the advance that may take its gesture back up.
    """
    budgets = budgets or Budgets()
    trace = ReplayTrace(report_id=report_id, steps=list(steps))
    # one snapshot per guided action still standing, the last on top
    history: list[_Snapshot] = []
    # the ids excluded for the current step on the current screen, in its
    # full encoding: the prompt's may elide wrappers; any executed action
    # starts the next screen with none
    excluded: frozenset[int] = frozenset()
    cursor = 0
    missing_depth = 0
    # the dump of the current screen when no gesture has happened since
    screen: _Screen | None = None
    # the guidance call in flight
    asked: Future | None = None
    # whether the last gesture still awaits its crash check
    unchecked = False
    # Guard 2: whether lexical picks are still on, until the model is asked or a pick is undone
    picking = fast_path
    pool = ThreadPoolExecutor(max_workers=1)
    started = time.monotonic()

    def guide(step: Step, encoded: EncodedGui, excluded: frozenset[int]) -> tuple[EncodedGui, str]:
        """The encoding the prompt for step on the screen encoded embeds, and the answer."""
        prompt, enc_used = build_guidance_prompt(step, encoded, corpus, budgets.tokens, excluded)
        return enc_used, llm.complete(prompt)

    def own(root: ViewNode) -> bool:
        return device.package is not None and root.package == device.package

    def finish(outcome: Outcome, detail: str | None = None) -> ReplayTrace:
        # a crash the last gesture caused outranks what came after it
        if unchecked:
            try:
                if device.crashed():
                    outcome, detail = Outcome.BUG_TRIGGERED, None
            except BugReplayError as exc:
                if outcome is not Outcome.ERROR:
                    outcome, detail = Outcome.ERROR, f"{type(exc).__name__}: {exc}"
        # the run outlives a call still in flight, whose answer is dropped
        pool.shutdown()
        trace.outcome = outcome
        trace.error_detail = detail
        trace.wall_time = time.monotonic() - started
        return trace

    try:
        if first_screen is not None:
            screen = _encode_screen(first_screen)
        while True:
            if time.monotonic() - started > budgets.wall_seconds:
                return finish(Outcome.BUDGET_EXHAUSTED, "wall clock budget exhausted")
            # the snapshot of a lexical pick Guard 1 undoes, until the model answers
            undone = None
            lexical = bool(trace.events) and trace.events[-1].resolved_by == "lexical"
            # the loop's one dump, while an action is left: for the next step, or
            # for Guard 1 to check a lexical pick, the last step's too
            if screen is None and trace.actions_used < budgets.actions and (lexical or cursor < len(steps)):
                screen = _dump_screen(device)
                # a check still owed runs now unless the dump shows the app's own window
                if unchecked and not own(screen[0].index[0]):
                    unchecked = False
                    if device.crashed():
                        return finish(Outcome.BUG_TRIGGERED)
                # the pick's snapshot is the top of history until this first dump after it
                if lexical and screen[1] == trace.events[-1].screen_digest:
                    undone = history.pop()
                    logger.debug("step %d: lexical pick changed nothing; undone", undone.cursor + 1)
                    cursor, missing_depth, excluded = undone.cursor, undone.missing_depth, undone.excluded
                    picking = False
            if cursor >= len(steps):
                return finish(Outcome.STEPS_EXHAUSTED_NO_BUG)
            if trace.actions_used >= budgets.actions:
                return finish(Outcome.BUDGET_EXHAUSTED, "action budget exhausted")

            step = steps[cursor]
            encoded, digest = screen
            full_id, exploratory, resolved_by = None, False, None
            if step.action is ActionType.SCROLL:
                # a swipe crosses the window the dump shows
                node = encoded.index[0]
            else:
                # every backtrack follows a model call, which has stopped
                # lexical picks, so a lexical pick never meets an exclusion
                full_id = _lexical_pick(step.component, encoded) if picking else None
                resolved_by = "model" if full_id is None else "lexical"
                if full_id is None:
                    picking = False
                    if asked is None:
                        asked = pool.submit(guide, step, encoded, excluded)
                    # a crash check still owed runs while the model answers
                    if unchecked:
                        unchecked = False
                        if device.crashed():
                            return finish(Outcome.BUG_TRIGGERED)
                    call, asked = asked, None
                    enc_used, answer = call.result()
                    try:
                        result = parse_guidance_response(answer)
                        # a bare [MISSING] cites no id, which resolves to none
                        resolve_component(enc_used, result.component_id)
                        full_id = enc_used.full_ids[result.component_id]
                    except (NoActionableAnswer, UnknownId) as exc:
                        logger.debug("step %d: %s", cursor + 1, exc)
                    if full_id in excluded:
                        logger.debug("step %d: model repeated excluded id %d", cursor + 1, result.component_id)
                        full_id = None
                    # full_id is set only once an answer parsed; an unusable one pops a snapshot
                    if full_id is None or result.missing and missing_depth >= budgets.max_missing_depth:
                        if not history:
                            return finish(Outcome.BUDGET_EXHAUSTED, "nowhere left to backtrack")
                        if trace.backtracks_used >= budgets.backtracks:
                            return finish(Outcome.BUDGET_EXHAUSTED, "backtrack budget exhausted")
                        snap = history.pop()
                        trace.backtracks_used += 1
                        cursor, missing_depth = snap.cursor, snap.missing_depth
                        excluded = snap.excluded | {snap.departed_id}
                        # the restore must bring back the snapshot's very screen, so the
                        # re-ask goes out on its dump while the device gets there; no
                        # action has happened since the loop found one left
                        asked = pool.submit(guide, steps[cursor], snap.screen[0], excluded)
                        screen = _restore(device, snap, trace.gestures, screen)
                        if screen is None:
                            return finish(Outcome.BUG_TRIGGERED)
                        logger.debug("backtracked to step %d excluding %s", cursor + 1, sorted(excluded))
                        continue
                    exploratory = result.missing
                    if undone is not None and full_id == undone.departed_id and not exploratory:
                        history.append(undone)
                        cursor += 1
                        continue
                # a re-ask was built on the snapshot's dump of this screen,
                # whose full ids its digest shares; the tap takes live bounds
                node = encoded.index[full_id]

                history.append(_Snapshot(cursor=cursor, missing_depth=missing_depth, screen=screen, excluded=excluded,
                                         departed_id=full_id, gesture_prefix=len(trace.gestures)))

            screen, excluded = None, frozenset()
            # an exploratory hop is a plain tap toward where the missing
            # step may hide; the step itself stays pending
            action = replace(step, action=ActionType.TAP, value=None) if exploratory else step
            trace.gestures.extend(execute_step(device, action, node))
            trace.actions_used += 1
            trace.events.append(ReplayEvent(step, cursor + 1, full_id, exploratory, digest, resolved_by))
            if exploratory:
                missing_depth += 1
            else:
                cursor += 1
                missing_depth = 0
            # only on the fast path, with a step left, does a check wait: while the dumps,
            # from the one the action was aimed at on, show the app's own window
            unchecked = fast_path and cursor < len(steps) and own(encoded.index[0])
            if not unchecked and device.crashed():
                return finish(Outcome.BUG_TRIGGERED)
    except BugReplayError as exc:
        logger.warning("replay aborted: %s", exc)
        return finish(Outcome.ERROR, f"{type(exc).__name__}: {exc}")
    finally:
        # an exception that escapes waits for the call in flight too
        pool.shutdown()
