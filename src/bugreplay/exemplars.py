"""Worked exemplars for few-shot prompting, and budgeted selection.

The built-in corpus ships with the package; users can point the CLI at
their own file instead. Corpus files are JSON with two arrays::

    {
      "extraction": [{"input": ..., "cot": ..., "output": [step, ...]}, ...],
      "guidance":   [{"gui_html": ..., "query": ..., "cot": ..., "output": ...}, ...]
    }

where steps and queries use the bracketed textual form and guidance
outputs are raw answer text such as "[id=6]" or "[MISSING] [id=1]".
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BudgetUnsatisfiable
from .llm import estimate_tokens
from .steps import Step, parse_step_text

if TYPE_CHECKING:
    from .guidance import GuidanceResult

MAX_EXEMPLARS = 3
SEGMENT_SEP = "\n\n"


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
        return SEGMENT_SEP.join([s.text for s in self.segments])


@dataclass(frozen=True)
class ExtractionExemplar:
    """A worked report -> reasoning -> numbered steps example."""

    input_report: str
    chain_of_thought: str
    output_steps: tuple[Step, ...]

    def __post_init__(self):
        if not self.input_report.strip():
            raise ValueError("exemplar input report must be non-empty")
        if not self.chain_of_thought.strip():
            raise ValueError("exemplar chain of thought must be non-empty")
        if not self.output_steps:
            raise ValueError("exemplar must have at least one output step")


@dataclass(frozen=True)
class GuidanceExemplar:
    """A worked screen + query -> reasoning -> component answer example."""

    gui_html: str
    query_step: Step
    chain_of_thought: str
    output: "GuidanceResult"

    def __post_init__(self):
        if not self.gui_html.strip():
            raise ValueError("exemplar gui html must be non-empty")
        if not self.chain_of_thought.strip():
            raise ValueError("exemplar chain of thought must be non-empty")
        cid = self.output.component_id
        if cid is not None and not re.search(rf"\bid={cid}\b", self.gui_html):
            raise ValueError(f"exemplar answer cites id={cid} which is not in its gui html")


@dataclass(frozen=True)
class ExemplarCorpus:
    extraction: tuple[ExtractionExemplar, ...]
    guidance: tuple[GuidanceExemplar, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "ExemplarCorpus":
        from .guidance import parse_guidance_response

        extraction = []
        for record in data.get("extraction", []):
            steps = [parse_step_text(text) for text in record["output"]]
            extraction.append(
                ExtractionExemplar(record["input"], record["cot"], tuple(steps))
            )
        guidance = []
        for record in data.get("guidance", []):
            guidance.append(
                GuidanceExemplar(
                    gui_html=record["gui_html"],
                    query_step=parse_step_text(record["query"]),
                    chain_of_thought=record["cot"],
                    output=parse_guidance_response(record["output"]),
                )
            )
        return cls(tuple(extraction), tuple(guidance))

    @classmethod
    def load(cls, path) -> "ExemplarCorpus":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def builtin(cls) -> "ExemplarCorpus":
        text = resources.files("bugreplay").joinpath("data/default_corpus.json").read_text("utf-8")
        return cls.from_dict(json.loads(text))


def fit_prompt(
    head: list[PromptSegment],
    pool: Sequence,
    segments_of: Callable[[object], list[PromptSegment]],
    tail: list[PromptSegment],
    budget: int,
) -> Prompt:
    """The few-shot prompt: head, then 1..3 exemplars from pool, then tail.

    segments_of expands one exemplar into its blocks. Exemplars are taken
    greedily in pool order, at most MAX_EXEMPLARS, each kept when the
    prompt with it (head, the exemplars kept so far, its blocks and tail)
    estimates within budget; none is reordered or truncated. Raises
    ValueError for an empty pool, and BudgetUnsatisfiable in two cases:
    head and tail alone estimate the whole budget or more, or no single
    exemplar fits beside them.
    """
    if not pool:
        raise ValueError("exemplar corpus slice is empty")

    def assemble(chosen: list[list[PromptSegment]]) -> tuple[Prompt, int]:
        prompt = Prompt(tuple(head + [s for blocks in chosen for s in blocks] + tail), len(chosen))
        return prompt, estimate_tokens(prompt.rendered)

    prompt, fixed_size = assemble([])
    if budget <= fixed_size:
        raise BudgetUnsatisfiable(f"test prompt alone estimates {fixed_size} tokens of a {budget} budget")
    chosen: list[list[PromptSegment]] = []
    for exemplar in pool:
        if len(chosen) == MAX_EXEMPLARS:
            break
        candidate, size = assemble(trial := chosen + [segments_of(exemplar)])
        if size <= budget:
            prompt, chosen = candidate, trial
    if not chosen:
        cheapest = min(assemble([segments_of(e)])[1] for e in pool) - fixed_size
        raise BudgetUnsatisfiable(
            f"smallest exemplar ({cheapest} tokens) plus test prompt "
            f"({fixed_size} tokens) exceeds the {budget} token budget"
        )
    return prompt
