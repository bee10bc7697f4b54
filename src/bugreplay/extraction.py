"""Few-shot prompt assembly for step extraction, and response parsing.

The extraction prompt teaches by example: the action vocabulary, the
bracketed primitive shapes, then one to three worked exemplars (report,
reasoning, numbered step list), then the test report. The model is
expected to answer with its own reasoning followed by a numbered list in
the exemplars' format; only that list is parsed.
"""
from __future__ import annotations

import logging
import re

from .errors import NoStepsFound
from .exemplars import ExemplarCorpus, ExtractionExemplar, Prompt, PromptSegment, fit_prompt
from .llm import LlmClient
from .steps import FIELDS, ActionType, BugReport, Step, bind_tokens, bracket_tokens, render_steps

logger = logging.getLogger(__name__)

ACTIONS_SPEC = ", ".join(action.value for action in ActionType)
# e.g. "[Input] [Component] [Value]", one per action
PRIMITIVES_SPEC = ", ".join(
    " ".join([f"[{action}]", *(f"[{name.capitalize()}]" for name in FIELDS[action])]) for action in ActionType
)
OUTPUT_PREFACE = "Overall, the extracted S2R entities are:"


def exemplar_output_block(exemplar: ExtractionExemplar) -> str:
    return OUTPUT_PREFACE + "\n" + render_steps(list(exemplar.output_steps))


def _exemplar_segments(exemplar: ExtractionExemplar) -> list[PromptSegment]:
    return [
        PromptSegment("exemplar_input", exemplar.input_report),
        PromptSegment("chain_of_thought", exemplar.chain_of_thought),
        PromptSegment("exemplar_output", exemplar_output_block(exemplar)),
    ]


def build_extraction_prompt(report: BugReport, corpus: ExemplarCorpus, budget: int) -> Prompt:
    """Deterministic prompt for one report under a token budget.

    fit_prompt picks the exemplars; BudgetUnsatisfiable when the fixed
    blocks and the report fill the budget or no single exemplar fits too.
    """
    head = [
        PromptSegment("actions_spec", ACTIONS_SPEC),
        PromptSegment("primitives_spec", PRIMITIVES_SPEC),
    ]
    tail = [PromptSegment("test_input", report.raw_text)]
    return fit_prompt(head, corpus.extraction, _exemplar_segments, tail, budget)


_NUMBERED_LINE_RE = re.compile(r"\s*(\d+)\s*[.)]\s*(.*)$")


def parse_extraction_response(text: str) -> list[Step]:
    """Pull the final numbered step list out of a model response.

    Prose before, between, and after numbered lines is ignored, as are
    numbered lines without bracket tokens. Models sometimes restate their
    list; whenever numbering restarts at 1 a new list begins and only the
    last one counts. The numbers mark nothing else: the steps keep the
    lines' order, and every bound step is fully validated.
    """
    lists: list[list[tuple[list[str], str]]] = []
    for line in text.splitlines():
        m = _NUMBERED_LINE_RE.match(line)
        tokens = bracket_tokens(m.group(2)) if m else []
        if not tokens:
            continue
        if int(m.group(1)) == 1 or not lists:
            lists.append([])
        lists[-1].append((tokens, line.strip()))
    if not lists:
        raise NoStepsFound("response contains no numbered bracket lines")
    if len(lists) > 1:
        logger.debug("response restated its list %d times; keeping the last", len(lists))
    return [bind_tokens(tokens, line) for tokens, line in lists[-1]]


def extract_steps(report: BugReport, llm: LlmClient, corpus: ExemplarCorpus, budget: int = 4096) -> list[Step]:
    """One extraction round trip: build prompt, complete, parse."""
    prompt = build_extraction_prompt(report, corpus, budget)
    response = llm.complete(prompt)
    return parse_extraction_response(response)
