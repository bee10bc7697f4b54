"""Exemplar records, corpus loading, and budgeted greedy selection."""
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugreplay.errors import BudgetUnsatisfiable
from bugreplay.exemplars import (
    MAX_EXEMPLARS,
    SEGMENT_SEP,
    ExemplarCorpus,
    ExtractionExemplar,
    GuidanceExemplar,
    PromptSegment,
    fit_prompt,
)
from bugreplay.guidance import parse_guidance_response
from bugreplay.llm import estimate_tokens
from bugreplay.steps import parse_step_text


def make_extraction(n_steps=2):
    steps = tuple(parse_step_text(f'[Tap] ["b{i}"]') for i in range(1, n_steps + 1))
    return ExtractionExemplar("report text", "reasoning text", steps)


class TestExtractionExemplar:
    def test_valid(self):
        ex = make_extraction()
        assert len(ex.output_steps) == 2

    @pytest.mark.parametrize("field,value", [
        ("input_report", "  "),
        ("chain_of_thought", ""),
    ])
    def test_rejects_blank_text(self, field, value):
        kwargs = dict(input_report="r", chain_of_thought="c",
                      output_steps=(parse_step_text('[Tap] ["x"]'),))
        kwargs[field] = value
        with pytest.raises(ValueError):
            ExtractionExemplar(**kwargs)

    def test_rejects_empty_or_misnumbered_steps(self):
        with pytest.raises(ValueError):
            ExtractionExemplar("r", "c", ())


class TestGuidanceExemplar:
    @pytest.mark.parametrize("field,message", [
        ("gui_html", "gui html must be non-empty"),
        ("chain_of_thought", "chain of thought must be non-empty"),
    ])
    def test_rejects_blank_text(self, field, message):
        kwargs = dict(gui_html="<button id=0>Go</button>", query_step=parse_step_text('[Tap] ["Go"]'),
                      chain_of_thought="cot", output=parse_guidance_response("[id=0]"))
        kwargs[field] = "  "
        with pytest.raises(ValueError, match=message):
            GuidanceExemplar(**kwargs)

    def test_answer_id_must_appear_in_html(self):
        ex = GuidanceExemplar(
            gui_html="<button id=0>Go</button>",
            query_step=parse_step_text('[Tap] ["Go"]'),
            chain_of_thought="it is right there",
            output=parse_guidance_response("[id=0]"),
        )
        assert ex.output.component_id == 0

    def test_rejects_id_absent_from_html(self):
        with pytest.raises(ValueError):
            GuidanceExemplar(
                gui_html="<button id=0>Go</button>",
                query_step=parse_step_text('[Tap] ["Go"]'),
                chain_of_thought="cot",
                output=parse_guidance_response("[id=7]"),
            )

    def test_id_match_is_not_a_substring_match(self):
        # id=1 must not be satisfied by id=12
        with pytest.raises(ValueError):
            GuidanceExemplar(
                gui_html="<button id=12>Go</button>",
                query_step=parse_step_text('[Tap] ["Go"]'),
                chain_of_thought="cot",
                output=parse_guidance_response("[id=1]"),
            )


class TestCorpusLoading:
    def test_from_dict_round_trip(self, write_json):
        path = write_json("corpus.json", {
            "extraction": [
                {"input": "report", "cot": "because",
                 "output": ['[Tap] ["a"]', "[Scroll] [down]"]},
            ],
            "guidance": [
                {"gui_html": "<button id=0>Go</button>",
                 "query": '[Tap] ["Go"]', "cot": "visible", "output": "[id=0]"},
            ],
        })
        corpus = ExemplarCorpus.load(path)
        assert len(corpus.extraction) == 1
        assert len(corpus.guidance) == 1
        assert corpus.extraction[0].output_steps[1].direction.value == "down"

    def test_builtin_shape(self, corpus):
        assert len(corpus.extraction) >= 3
        assert len(corpus.guidance) >= 2

    def test_builtin_guidance_covers_both_answer_kinds(self, corpus):
        outputs = [ex.output for ex in corpus.guidance]
        assert any(not o.missing and o.component_id is not None for o in outputs)
        assert any(o.missing and o.component_id is not None for o in outputs)

    def test_builtin_extraction_exercises_whole_vocabulary(self, corpus):
        actions = {s.action.value for ex in corpus.extraction for s in ex.output_steps}
        assert actions == {"Tap", "Scroll", "Input", "Double-tap", "Long-tap"}

    def test_builtin_has_default_value_input(self, corpus):
        values = [s.value for ex in corpus.extraction
                  for s in ex.output_steps if s.value is not None]
        assert "test" in values


def fit(pool, budget, fixed_size):
    """fit_prompt with a head that estimates fixed_size tokens, over
    one-block exemplars that each cost len(name) tokens; the names kept."""
    head = [PromptSegment("head", "h" * 4 * fixed_size)] if fixed_size else []
    prompt = fit_prompt(head, pool, lambda e: [PromptSegment(e, (e * 4)[:-2])], [], budget)
    picked = [s.kind for s in prompt.segments[len(head):]]
    assert prompt.exemplar_count == len(picked)
    return picked


class TestSelectExemplars:
    """fit_prompt's greedy, budgeted choice of exemplars."""

    def test_greedy_in_order(self):
        assert fit(["a", "bb", "cccc"], budget=100, fixed_size=10) == ["a", "bb", "cccc"]

    def test_stops_when_budget_is_hit(self):
        assert fit(["aaaa", "bbbb", "cccc"], budget=19, fixed_size=10) == ["aaaa", "bbbb"]

    def test_oversized_exemplar_is_skipped_not_fatal(self):
        assert fit(["xxxxxxxxxx", "a"], budget=6, fixed_size=4) == ["a"]

    def test_cap_at_three(self):
        assert len(fit(list("abcdef"), budget=1000, fixed_size=0)) == MAX_EXEMPLARS

    def test_empty_corpus_is_a_programming_error(self):
        with pytest.raises(ValueError, match="exemplar corpus slice is empty"):
            fit([], budget=10, fixed_size=1)

    def test_budget_below_test_prompt(self):
        with pytest.raises(BudgetUnsatisfiable, match="^test prompt alone estimates 5 tokens of a 5 budget$"):
            fit(["a"], budget=5, fixed_size=5)

    def test_no_exemplar_fits(self):
        with pytest.raises(BudgetUnsatisfiable, match=re.escape(
                "smallest exemplar (5 tokens) plus test prompt (10 tokens) exceeds the 12 token budget")):
            fit(["xxxxx", "yyyyy"], budget=12, fixed_size=10)

    def test_boundary_exact_fit(self):
        assert fit(["abc"], budget=13, fixed_size=10) == ["abc"]


texts = st.text(alphabet="ab ", min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=2), st.lists(st.lists(texts, min_size=1, max_size=3), min_size=1, max_size=6),
       st.lists(texts, max_size=2), st.integers(1, 120))
def test_fit_prompt_keeps_an_exemplar_only_if_the_prompt_it_would_send_fits(head, pool, tail, budget):
    # exemplar i is its index in pool, and its blocks are labelled e<i>
    def size(kept):
        return estimate_tokens(SEGMENT_SEP.join(head + [t for i in kept for t in pool[i]] + tail))

    def call():
        return fit_prompt([PromptSegment("head", t) for t in head], range(len(pool)),
                          lambda i: [PromptSegment(f"e{i}", t) for t in pool[i]],
                          [PromptSegment("tail", t) for t in tail], budget)

    if size([]) >= budget:
        with pytest.raises(BudgetUnsatisfiable, match=f"^test prompt alone estimates {size([])} tokens"):
            call()
        return
    if all(size([i]) > budget for i in range(len(pool))):
        cheapest = min(size([i]) for i in range(len(pool))) - size([])
        with pytest.raises(BudgetUnsatisfiable, match=re.escape(f"smallest exemplar ({cheapest} tokens)")):
            call()
        return
    prompt = call()
    kept = [int(kind[1:]) for kind in dict.fromkeys(s.kind for s in prompt.segments if s.kind[0] == "e")]
    assert [s.text for s in prompt.segments] == head + [t for i in kept for t in pool[i]] + tail
    assert estimate_tokens(prompt.rendered) == size(kept) <= budget
    assert kept == sorted(kept) and 1 <= len(kept) == prompt.exemplar_count <= MAX_EXEMPLARS
    for i in range(len(pool)):
        before = [k for k in kept if k < i]
        if len(before) == MAX_EXEMPLARS:
            break
        assert i in kept or size(before + [i]) > budget, f"exemplar {i} fits but was skipped"


def test_corpus_file_errors_surface(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(OSError):
        ExemplarCorpus.load(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        ExemplarCorpus.load(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"extraction": [{"input": "x"}]}), encoding="utf-8")
    with pytest.raises(KeyError):
        ExemplarCorpus.load(incomplete)
