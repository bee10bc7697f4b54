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
from dataclasses import dataclass

from .errors import BudgetUnsatisfiable, NoStepsFound
from .exemplars import ExemplarCorpus, ExtractionExemplar, select_exemplars
from .llm import LlmClient, estimate_tokens
from .steps import BugReport, Step, bind_tokens, bracket_tokens, render_steps, validate_step_list

logger = logging.getLogger(__name__)

ACTIONS_SPEC = "Tap, Scroll, Input, Double-tap, Long-tap"
PRIMITIVES_SPEC = (
    "[Tap] [Component], [Scroll] [Direction], [Input] [Component] [Value], "
    "[Double-tap] [Component], [Long-tap] [Component]"
)
OUTPUT_PREFACE = "Overall, the extracted S2R entities are:"

_SEGMENT_SEP = "\n\n"


@dataclass(frozen=True)
class PromptSegment:
    kind: str
    text: str


@dataclass(frozen=True)
class Prompt:
    """An ordered list of labeled text blocks; rendered is their join."""

    segments: tuple[PromptSegment, ...]
    exemplar_count: int

    @property
    def rendered(self) -> str:
        return _SEGMENT_SEP.join(s.text for s in self.segments)


def exemplar_output_block(exemplar: ExtractionExemplar) -> str:
    return OUTPUT_PREFACE + "\n" + render_steps(list(exemplar.output_steps))


def _exemplar_segments(exemplar: ExtractionExemplar) -> list[PromptSegment]:
    return [
        PromptSegment("exemplar_input", exemplar.input_report),
        PromptSegment("chain_of_thought", exemplar.chain_of_thought),
        PromptSegment("exemplar_output", exemplar_output_block(exemplar)),
    ]


def _exemplar_cost(exemplar: ExtractionExemplar) -> int:
    block = _SEGMENT_SEP.join(s.text for s in _exemplar_segments(exemplar))
    return estimate_tokens(block + _SEGMENT_SEP)


def build_extraction_prompt(report: BugReport, corpus: ExemplarCorpus, budget: int) -> Prompt:
    """Deterministic prompt for one report under a token budget.

    Greedy in-order exemplar selection; raises BudgetUnsatisfiable when
    not even one exemplar fits alongside the fixed blocks and the report.
    """
    fixed = [
        PromptSegment("actions_spec", ACTIONS_SPEC),
        PromptSegment("primitives_spec", PRIMITIVES_SPEC),
    ]
    test = PromptSegment("test_input", report.raw_text)
    surround = _SEGMENT_SEP.join(s.text for s in fixed + [test])
    chosen = select_exemplars(
        list(corpus.extraction),
        budget,
        estimate_tokens(surround),
        cost=_exemplar_cost,
    )
    segments = list(fixed)
    for exemplar in chosen:
        segments.extend(_exemplar_segments(exemplar))
    segments.append(test)
    prompt = Prompt(tuple(segments), exemplar_count=len(chosen))
    used = estimate_tokens(prompt.rendered)
    if used > budget:
        raise BudgetUnsatisfiable(f"prompt estimates {used} tokens of a {budget} budget")
    return prompt


_NUMBERED_LINE_RE = re.compile(r"\s*(\d+)\s*[.)]\s*(.*)$")


def parse_extraction_response(text: str) -> list[Step]:
    """Pull the final numbered step list out of a model response.

    Prose before, between, and after numbered lines is ignored, as are
    numbered lines without bracket tokens. Models sometimes restate their
    list; whenever numbering restarts at 1 a new list begins and only the
    last one counts. Surviving lines are renumbered 1..n and every bound
    step is fully validated.
    """
    entries: list[tuple[int, list[str], str]] = []
    for line in text.splitlines():
        m = _NUMBERED_LINE_RE.match(line)
        if not m:
            continue
        tokens = bracket_tokens(m.group(2))
        if not tokens:
            continue
        entries.append((int(m.group(1)), tokens, line.strip()))
    if not entries:
        raise NoStepsFound("response contains no numbered bracket lines")
    runs: list[list[tuple[int, list[str], str]]] = [[]]
    for entry in entries:
        if entry[0] == 1 and runs[-1]:
            runs.append([])
        runs[-1].append(entry)
    last = runs[-1]
    if len(runs) > 1:
        logger.debug("response restated its list %d times; keeping the last", len(runs))
    steps = [bind_tokens(tokens, i, line) for i, (_, tokens, line) in enumerate(last, start=1)]
    validate_step_list(steps)
    return steps


def extract_steps(report: BugReport, llm: LlmClient, corpus: ExemplarCorpus, budget: int = 4096) -> list[Step]:
    """One extraction round trip: build prompt, complete, parse."""
    prompt = build_extraction_prompt(report, corpus, budget)
    response = llm.complete(prompt)
    return parse_extraction_response(response)
