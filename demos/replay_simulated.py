"""Replay a step list on a simulated app, bridging a missing step.

The bug report skips a navigation step: it says to tap "Battery saver"
but never mentions opening Settings first. During replay, the guidance
answer marks the step MISSING and points at a component worth exploring;
the loop taps it, re-asks on the new screen, and completes the chain.
Responses are canned, so this runs offline:

    python3 demos/replay_simulated.py
"""
from bugreplay.device import SimulatedApp, SimulatedDevice
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.llm import TranscriptLlm
from bugreplay.replay import replay
from bugreplay.steps import parse_step_text, step_text


def view(cls, text, top, bottom):
    return {"class": f"android.widget.{cls}", "text": text,
            "bounds": [40, top, 1040, bottom]}


def screen(*children):
    return {"class": "android.widget.FrameLayout",
            "bounds": [0, 0, 1080, 1920], "children": list(children)}


APP = {
    "initial": "home",
    "crash_states": ["crashed"],
    "states": {
        "home": {"tree": screen(view("TextView", "Home", 60, 140),
                                view("Button", "Settings", 200, 290))},
        "settings": {"tree": screen(view("TextView", "Settings", 60, 140),
                                    view("Button", "Battery saver", 200, 290))},
        "crashed": {"tree": screen(view("TextView", "The app has stopped", 860, 940))},
    },
    "transitions": [
        {"from": "home", "action": "tap", "id": 2, "to": "settings"},
        {"from": "settings", "action": "tap", "id": 2, "to": "crashed"},
    ],
}

# the report's only step; its prerequisite screen change went unmentioned
STEPS = [parse_step_text('[Tap] ["Battery saver"]')]

GUIDANCE = [
    # on the home screen there is no Battery saver; suggest a detour
    "The component is not on this screen. Settings may lead to it. [MISSING] [id=2]",
    # after the hop the target is visible
    "The component is visible, so I operate on [id=2] in the screen.",
]


def main():
    device = SimulatedDevice(SimulatedApp(APP))
    llm = TranscriptLlm(GUIDANCE)
    trace = replay(STEPS, device, llm, ExemplarCorpus.builtin(), report_id="demo-7")

    print(f"outcome: {trace.outcome.value}")
    for event in trace.events:
        flavor = "exploratory hop" if event.exploratory else "guided action"
        print(f"  step {event.step_index} {step_text(event.step):<28} "
              f"{flavor} on id={event.resolved_id} (screen {event.screen_digest})")
    print(f"actions used: {trace.actions_used}, backtracks: {trace.backtracks_used}")
    print()

    # the raw gesture log replays verbatim, no model in the loop
    fresh = SimulatedDevice(SimulatedApp(APP))
    fresh.perform(trace.gestures)
    print(f"gesture log replayed on a fresh session: crashed={fresh.crashed()}")


if __name__ == "__main__":
    main()
