"""Per-step GUI guidance: which component id should this step act on?

Given the encoded screen and a pending step, the model is asked

    If I need to [Tap] ["Sign in"], which component id should I operate
    on the GUI?

after one or more worked exemplars. The response either cites a component
([id=6]), flags the step missing from this screen while proposing where
to look ([MISSING] [id=1]), or says nothing actionable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetUnsatisfiable, NoActionableAnswer
from .exemplars import ExemplarCorpus, GuidanceExemplar, Prompt, PromptSegment, fit_prompt
from .gui import EncodedGui, encode_gui
from .steps import FIELDS, Step, step_text

#: Actions that target a visible component and therefore need guidance.
GUIDED_ACTIONS = frozenset(action for action, names in FIELDS.items() if "component" in names)

QUERY_STEM = "If I need to {step}, which component id should I operate on the GUI"
# Appended inside the question when prior answers are off the table.
EXCLUSION_CLAUSE = ", excluding components {ids}"


@dataclass(frozen=True)
class GuidanceResult:
    """Parsed guidance answer. component_id may be absent and missing may
    be false, but never both: an uninformative answer is an error, not a
    result."""

    component_id: int | None
    missing: bool
    raw: str

    def __post_init__(self):
        if self.component_id is None and not self.missing:
            raise ValueError("guidance result must carry an id or the missing flag")


def format_guidance_query(step: Step, excluded_ids=()) -> str:
    query = QUERY_STEM.format(step=step_text(step))
    if excluded_ids:
        listed = ", ".join(f"[id={i}]" for i in sorted(excluded_ids))
        query += EXCLUSION_CLAUSE.format(ids=listed)
    return query + "?"


def _exemplar_segments(exemplar: GuidanceExemplar) -> list[PromptSegment]:
    return [
        PromptSegment("exemplar_gui", exemplar.gui_html),
        PromptSegment("exemplar_query", format_guidance_query(exemplar.query_step)),
        PromptSegment("chain_of_thought", exemplar.chain_of_thought),
        PromptSegment("exemplar_output", exemplar.output.raw),
    ]


def build_guidance_prompt(
    step: Step,
    encoded: EncodedGui,
    corpus: ExemplarCorpus,
    budget: int,
    excluded_ids=frozenset(),
) -> tuple[Prompt, EncodedGui]:
    """Build the guidance prompt for one component-targeting step.

    Returns the prompt together with the encoding it embeds: when the
    screen is too large to fit the budget, wrapper divs are elided and the
    screen re-encoded, so ids in the prompt only make sense against the
    returned encoding, whose full_ids map them back to ids of `encoded`.
    excluded_ids are ids of `encoded`, its full encoding; an elided
    prompt names them in its own ids, leaving out any that elision
    dropped. Scroll steps never come here; they execute without guidance.
    """
    if step.action not in GUIDED_ACTIONS:
        raise ValueError(f"{step.action} steps do not take guidance")

    def attempt(enc: EncodedGui) -> Prompt:
        shown = excluded_ids
        if enc is not encoded:
            shown = [nid for nid, full_id in enumerate(enc.full_ids) if full_id in excluded_ids]
        tail = [
            PromptSegment("test_gui", enc.html),
            PromptSegment("test_query", format_guidance_query(step, shown)),
        ]
        return fit_prompt([], corpus.guidance, _exemplar_segments, tail, budget)

    try:
        return attempt(encoded), encoded
    except BudgetUnsatisfiable:
        reduced = encode_gui(encoded.index[0], elide_wrappers=True)
        return attempt(reduced), reduced


_ID_RE = re.compile(r"\[\s*id\s*=\s*(\d+)\s*\]", re.IGNORECASE)
_MISSING_RE = re.compile(r"\[\s*missing\s*\]", re.IGNORECASE)


def parse_guidance_response(text: str) -> GuidanceResult:
    """Extract the cited component id and/or missing marker.

    Models often restate ids while reasoning; the last [id=N] wins.
    [MISSING] is recognized case-insensitively anywhere. A response with
    neither raises NoActionableAnswer.
    """
    ids = _ID_RE.findall(text)
    missing = _MISSING_RE.search(text) is not None
    if not ids and not missing:
        raise NoActionableAnswer(f"guidance response cites no component: {text!r}")
    return GuidanceResult(
        component_id=int(ids[-1]) if ids else None,
        missing=missing,
        raw=text,
    )
