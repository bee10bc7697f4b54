"""Guided replay: drive extracted steps on a device until the bug fires.

Each iteration dumps and encodes the screen, asks guidance where the
current step should land, and acts on the answer:

* an id with no missing flag executes the step and advances;
* [MISSING] plus an id is an exploratory hop: tap there, stay on the
  same step, and try again on the new screen (bounded depth);
* an unusable answer (nothing actionable, a hallucinated or already
  tried id, or exploration depth exhausted) pops the history stack,
  adds the id tried from that earlier screen to its exclusion set, and
  retries guidance there.

Scroll steps execute directly; they target no component. App state is
restored after a pop by pressing system back until the screen digest
matches the snapshot, falling back to an app restart plus a verbatim
replay of the recorded gesture prefix. A restore starts from the dump the
loop already holds, since no gesture has happened since it was taken, and
hands the dump of the restored screen to the next iteration, so a screen
is never dumped twice. Every run ends in one of four outcomes: the crash
fired, the steps ran out without it, a budget ran out, or the pipeline
itself failed.
"""
from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    BugReplayError,
    DeviceError,
    NoActionableAnswer,
    UnknownId,
)
from .exemplars import ExemplarCorpus
from .guidance import (
    EXCLUSION_CLAUSE,
    GUIDED_ACTIONS,
    build_guidance_prompt,
    parse_guidance_response,
)
from .gui import EncodedGui, ViewNode, encode_gui, resolve_component, screen_digest
from .llm import LlmClient
from .steps import ActionType, Direction, Step, step_text, validate_step_list
from .device import DeviceSession, apply_gestures

logger = logging.getLogger(__name__)

_BACK_ATTEMPTS = 3


@dataclass
class Budgets:
    """Hard ceilings for one replay run."""

    tokens: int = 4096
    actions: int = 50
    backtracks: int = 10
    wall_seconds: float = 600.0
    max_missing_depth: int = 2


class Outcome(Enum):
    BUG_TRIGGERED = "bug_triggered"
    STEPS_EXHAUSTED_NO_BUG = "steps_exhausted_no_bug"
    BUDGET_EXHAUSTED = "budget_exhausted"
    ERROR = "error"


@dataclass(frozen=True)
class ReplayEvent:
    """One executed action: which step, where, and on which screen."""

    step: Step
    resolved_id: int | None
    exploratory: bool
    screen_digest: str


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
        return {
            "report_id": self.report_id,
            "steps": [f"{s.index}. {step_text(s)}" for s in self.steps],
            "events": [
                {
                    "step_index": e.step.index,
                    "step": step_text(e.step),
                    "resolved_id": e.resolved_id,
                    "exploratory": e.exploratory,
                    "screen_digest": e.screen_digest,
                }
                for e in self.events
            ],
            "outcome": self.outcome.value,
            "error_detail": self.error_detail,
            "wall_time": self.wall_time,
            "actions_used": self.actions_used,
            "backtracks_used": self.backtracks_used,
            "gestures": [list(g) for g in self.gestures],
        }


def execute_step(device: DeviceSession, step: Step, node: ViewNode | None) -> list[tuple]:
    """Perform one step's gestures; returns what was done, for the log.

    Component actions land on the node's bounds center. Input taps the
    field then types. Scroll swipes through the screen center across 60%
    of the scrolled dimension, in the direction the finger moves.
    """
    needs_node = step.action in GUIDED_ACTIONS
    if needs_node != (node is not None):
        raise ValueError(f"{step.action} expects {'a' if needs_node else 'no'} resolved node")
    if step.action is ActionType.SCROLL:
        width, height = device.screen_size
        cx, cy = width // 2, height // 2
        half_h, half_w = int(0.3 * height), int(0.3 * width)
        ends = {
            Direction.UP: (cx, cy + half_h, cx, cy - half_h),
            Direction.DOWN: (cx, cy - half_h, cx, cy + half_h),
            Direction.LEFT: (cx + half_w, cy, cx - half_w, cy),
            Direction.RIGHT: (cx - half_w, cy, cx + half_w, cy),
        }[step.direction]
        device.swipe(*ends)
        return [("swipe", *ends)]
    x, y = node.bounds.center()
    if step.action is ActionType.TAP:
        device.tap(x, y)
        return [("tap", x, y)]
    if step.action is ActionType.DOUBLE_TAP:
        device.double_tap(x, y)
        return [("double_tap", x, y)]
    if step.action is ActionType.LONG_TAP:
        device.long_tap(x, y)
        return [("long_tap", x, y)]
    device.tap(x, y)
    device.type_text(step.value)
    return [("tap", x, y), ("text", step.value)]


@dataclass
class _Snapshot:
    cursor: int
    missing_depth: int
    digest: str
    tried: dict[int, set[int]]
    departed_id: int
    gesture_prefix: int


# an encoded dump and its digest
_Screen = tuple[EncodedGui, str]


def _dump_screen(device: DeviceSession) -> _Screen:
    encoded = encode_gui(device.dump_hierarchy())
    return encoded, screen_digest(encoded.html)


def _restore(device: DeviceSession, snap: _Snapshot, gestures: list[tuple], screen: _Screen) -> _Screen:
    """Bring back the snapshot's screen, starting from `screen`, the dump
    of what the device shows now; returns the dump of the restored screen."""
    if screen[1] == snap.digest:
        return screen
    for _ in range(_BACK_ATTEMPTS):
        device.press_back()
        gestures.append(("back",))
        screen = _dump_screen(device)
        if screen[1] == snap.digest:
            return screen
    prefix = list(gestures[: snap.gesture_prefix])
    device.restart()
    gestures.append(("restart",))
    apply_gestures(device, prefix)
    gestures.extend(prefix)
    screen = _dump_screen(device)
    if screen[1] != snap.digest:
        raise DeviceError("could not restore the prior screen after backtracking")
    return screen


def replay(
    steps: list[Step],
    device: DeviceSession,
    llm: LlmClient,
    corpus: ExemplarCorpus,
    budgets: Budgets | None = None,
    report_id: str = "",
    *,
    exclusion_clause: str = EXCLUSION_CLAUSE,
) -> ReplayTrace:
    """Run the guided replay loop to one of the four outcomes.

    Never raises for pipeline failures; they land in the trace as
    outcome=error. Termination is guaranteed: every iteration either
    executes an action, consumes a backtrack, or finishes, and both are
    budgeted.
    """
    validate_step_list(steps)
    budgets = budgets or Budgets()
    trace = ReplayTrace(report_id=report_id, steps=list(steps))
    history: deque[_Snapshot] = deque(maxlen=max(budgets.backtracks, 0))
    tried: dict[int, set[int]] = {}
    cursor = 0
    missing_depth = 0
    # the dump of the current screen when no gesture has happened since
    screen: _Screen | None = None
    started = time.monotonic()

    def finish(outcome: Outcome, detail: str | None = None) -> ReplayTrace:
        trace.outcome = outcome
        trace.error_detail = detail
        trace.wall_time = time.monotonic() - started
        return trace

    def backtrack(current: _Screen) -> str | None:
        """Pop one snapshot and restore it; returns a stop reason or None."""
        nonlocal cursor, missing_depth, tried, screen
        if not history:
            return "nowhere left to backtrack"
        if trace.backtracks_used >= budgets.backtracks:
            return "backtrack budget exhausted"
        snap = history.pop()
        trace.backtracks_used += 1
        screen = _restore(device, snap, trace.gestures, current)
        cursor = snap.cursor
        missing_depth = snap.missing_depth
        tried = {k: set(v) for k, v in snap.tried.items()}
        tried.setdefault(cursor, set()).add(snap.departed_id)
        logger.debug("backtracked to step %d excluding %s", cursor + 1, tried[cursor])
        return None

    try:
        while True:
            if time.monotonic() - started > budgets.wall_seconds:
                return finish(Outcome.BUDGET_EXHAUSTED, "wall clock budget exhausted")
            if cursor >= len(steps):
                return finish(Outcome.STEPS_EXHAUSTED_NO_BUG)
            if trace.actions_used >= budgets.actions:
                return finish(Outcome.BUDGET_EXHAUSTED, "action budget exhausted")

            encoded, digest = screen or _dump_screen(device)
            screen = None
            step = steps[cursor]

            if step.action is ActionType.SCROLL:
                trace.gestures.extend(execute_step(device, step, None))
                trace.actions_used += 1
                trace.events.append(ReplayEvent(step, None, False, digest))
                if device.crashed():
                    return finish(Outcome.BUG_TRIGGERED)
                cursor += 1
                missing_depth = 0
                continue

            excluded = tried.get(cursor, set())
            prompt, enc_used = build_guidance_prompt(
                step, encoded, corpus, budgets.tokens, excluded,
                exclusion_clause=exclusion_clause,
            )
            try:
                result = parse_guidance_response(llm.complete(prompt))
            except NoActionableAnswer as exc:
                logger.debug("step %d: %s", step.index, exc)
                result = None

            node = None
            if result is not None and result.component_id is not None:
                if result.component_id in excluded:
                    logger.debug("step %d: model repeated excluded id %d", step.index, result.component_id)
                else:
                    try:
                        node = resolve_component(enc_used, result.component_id)
                    except UnknownId as exc:
                        logger.debug("step %d: %s", step.index, exc)

            usable = (
                result is not None
                and node is not None
                and not (result.missing and missing_depth >= budgets.max_missing_depth)
            )
            if not usable:
                reason = backtrack((encoded, digest))
                if reason is not None:
                    return finish(Outcome.BUDGET_EXHAUSTED, reason)
                continue

            history.append(
                _Snapshot(
                    cursor=cursor,
                    missing_depth=missing_depth,
                    digest=digest,
                    tried={k: set(v) for k, v in tried.items()},
                    departed_id=result.component_id,
                    gesture_prefix=len(trace.gestures),
                )
            )
            if result.missing:
                # exploratory hop toward where the missing step may hide
                x, y = node.bounds.center()
                device.tap(x, y)
                trace.gestures.append(("tap", x, y))
                trace.actions_used += 1
                missing_depth += 1
                trace.events.append(ReplayEvent(step, result.component_id, True, digest))
            else:
                trace.gestures.extend(execute_step(device, step, node))
                trace.actions_used += 1
                missing_depth = 0
                trace.events.append(ReplayEvent(step, result.component_id, False, digest))
                cursor += 1
            if device.crashed():
                return finish(Outcome.BUG_TRIGGERED)
    except BugReplayError as exc:
        logger.warning("replay aborted: %s", exc)
        return finish(Outcome.ERROR, f"{type(exc).__name__}: {exc}")
