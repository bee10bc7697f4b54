"""Reproduction steps as typed records with a bracketed textual form.

A step is one GUI interaction distilled from a bug report. The closed action
vocabulary and the per-action field shape are fixed; everything the rest of
the pipeline does (prompting, guidance, replay) is phrased in terms of these
records or their textual rendering. A step's number is its 1-based place in
its list, e.g.::

    1. [Tap] ["bookmark"]
    2. [Input] ["name"] ["a"]
    3. [Scroll] [down]
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedStep

# Value typed into a field when the report names no explicit text.
DEFAULT_INPUT_VALUE = "test"


class ActionType(Enum):
    TAP = "Tap"
    SCROLL = "Scroll"
    INPUT = "Input"
    DOUBLE_TAP = "Double-tap"
    LONG_TAP = "Long-tap"

    def __str__(self) -> str:
        return self.value


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    def __str__(self) -> str:
        return self.value


# The paper's action primitives: each action's Step fields, in the order
# of the bracket tokens after its own. A step carries exactly these fields
# and leaves the other optional ones unset. Parsing, the step check, the
# textual form, the extraction prompt's spec lines and the guided actions
# all derive from this one table.
FIELDS: dict[ActionType, tuple[str, ...]] = {
    ActionType.TAP: ("component",),
    ActionType.SCROLL: ("direction",),
    ActionType.INPUT: ("component", "value"),
    ActionType.DOUBLE_TAP: ("component",),
    ActionType.LONG_TAP: ("component",),
}


def _action_key(word: str) -> str:
    return re.sub(r"[\s_-]+", "", word.strip().lower())


_ACTION_WORDS = {_action_key(action.value): action for action in ActionType}

_DIRECTION_WORDS = {d.value + suffix: d for d in Direction for suffix in ("", "ward", "wards")}


def normalize_action(word: str) -> ActionType | None:
    """Map a free-form action word onto the vocabulary, or None.

    Matching is case-insensitive and tolerant of hyphen/space/underscore
    variants ("Double tap", "long-tap"). Anything else, including near
    synonyms like "open" or "press", returns None; mapping synonyms onto
    the vocabulary is the extraction model's job, not the parser's.
    """
    return _ACTION_WORDS.get(_action_key(word))


def normalize_direction(word: str) -> Direction | None:
    return _DIRECTION_WORDS.get(word.strip().lower())


@dataclass(frozen=True)
class Step:
    """One reproduction step. Field shape is dictated by the action."""

    action: ActionType
    component: str | None = None
    value: str | None = None
    direction: Direction | None = None

    def __post_init__(self):
        for name in ("component", "value", "direction"):
            required = name in FIELDS[self.action]
            if required != (getattr(self, name) is not None):
                raise ValueError(f"{self.action} steps {'require' if required else 'forbid'} a {name}")
        for name in ("component", "value"):
            # an empty value is legitimate: "leave the field empty"
            if getattr(self, name) is not None:
                _check_field_text(name, getattr(self, name), allow_empty=name == "value")

    def __str__(self) -> str:
        return step_text(self)


def _check_field_text(name: str, text: str, allow_empty: bool):
    if not isinstance(text, str):
        raise ValueError(f"step {name} must be a string, got {type(text).__name__}")
    if not allow_empty and not text:
        raise ValueError(f"step {name} must be non-empty")
    # The bracketed line syntax cannot carry these characters. Line
    # breaks means anything splitlines() honors, not just \n.
    if "[" in text or "]" in text:
        raise ValueError(f"step {name} may not contain square brackets: {text!r}")
    if len(("x" + text + "x").splitlines()) != 1:
        raise ValueError(f"step {name} may not contain line breaks: {text!r}")


@dataclass(frozen=True)
class BugReport:
    """A bug report as submitted: an id and the raw reproduction prose."""

    id: str
    raw_text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("bug report id must be non-empty")
        if not isinstance(self.raw_text, str):
            raise ValueError("bug report text must be a string")
        if not self.raw_text.strip():
            raise ValueError("bug report text must be non-empty")


def step_text(step: Step) -> str:
    """Bracketed textual form without the ordinal, e.g. '[Input] ["name"] ["a"]'."""
    parts = [f"[{step.action.value}]"]
    for name in FIELDS[step.action]:
        text = getattr(step, name)
        parts.append(f"[{text}]" if name == "direction" else f'["{text}"]')
    return " ".join(parts)


def render_steps(steps: list[Step]) -> str:
    """Numbered lines, one step each, by place in the list."""
    return "\n".join(f"{i}. {step_text(s)}" for i, s in enumerate(steps, start=1))


# Accepted quote wrappings around component/value tokens. Emission always
# uses plain double quotes; parsing strips exactly one wrapping layer.
_QUOTE_PAIRS = [
    ("``", "''"),
    ('"', '"'),
    ("“", "”"),
    ("'", "'"),
    ("‘", "’"),
]


def strip_quotes(token: str) -> str:
    t = token.strip()
    for left, right in _QUOTE_PAIRS:
        if len(t) >= len(left) + len(right) and t.startswith(left) and t.endswith(right):
            return t[len(left):len(t) - len(right)]
    return t


_TOKEN_RE = re.compile(r"\[([^\[\]]*)\]")


def bracket_tokens(text: str) -> list[str]:
    """All [...] token bodies in a line, left to right."""
    return _TOKEN_RE.findall(text)


def bind_tokens(tokens: list[str], line: str) -> Step:
    """Bind one line's bracket tokens to a Step per the action's FIELDS.

    The first token names the action; the rest fill its fields in order.
    An Input step missing its value gets DEFAULT_INPUT_VALUE; every other
    count mismatch is malformed, as is an unknown action or direction.
    """
    if not tokens:
        raise MalformedStep(line, "no bracket tokens")
    action = normalize_action(tokens[0])
    if action is None:
        raise MalformedStep(line, f"unknown action {tokens[0]!r}")
    names = FIELDS[action]
    rest = [strip_quotes(t) for t in tokens[1:]]
    if names[-1] == "value" and len(rest) == len(names) - 1:
        rest.append(DEFAULT_INPUT_VALUE)
    if len(rest) != len(names):
        shape = f"exactly one {names[0]} token" if len(names) == 1 else " and ".join(f"a {n}" for n in names)
        raise MalformedStep(line, f"{action.value.lower()} takes {shape}")
    bound = dict(zip(names, rest))
    if "direction" in bound:
        text = bound["direction"]
        bound["direction"] = normalize_direction(text)
        if bound["direction"] is None:
            raise MalformedStep(line, f"unknown direction {text!r}")
    try:
        return Step(action, **bound)
    except ValueError as exc:
        raise MalformedStep(line, str(exc)) from exc


def parse_step_text(text: str) -> Step:
    """Parse a single bracketed step like '[Tap] ["bookmark"]'."""
    return bind_tokens(bracket_tokens(text), text.strip())
