"""Extraction prompt assembly and response parsing."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugreplay.errors import BudgetUnsatisfiable, MalformedStep, NoStepsFound
from bugreplay.exemplars import Prompt
from bugreplay.extraction import (
    ACTIONS_SPEC,
    OUTPUT_PREFACE,
    PRIMITIVES_SPEC,
    build_extraction_prompt,
    exemplar_output_block,
    extract_steps,
    parse_extraction_response,
)
from bugreplay.llm import TranscriptLlm, estimate_tokens, prompt_digest
from bugreplay.steps import ActionType, BugReport, Direction, Step, render_steps

from helpers import ScriptedLlm


def test_spec_blocks_are_frozen():
    assert ACTIONS_SPEC == "Tap, Scroll, Input, Double-tap, Long-tap"
    assert PRIMITIVES_SPEC == (
        "[Tap] [Component], [Scroll] [Direction], [Input] [Component] [Value], "
        "[Double-tap] [Component], [Long-tap] [Component]"
    )
    assert OUTPUT_PREFACE == "Overall, the extracted S2R entities are:"


REPORT = BugReport("r1", "Tap the save button, then the app crashes.")


class TestPromptAssembly:
    def test_segment_order(self, corpus):
        prompt = build_extraction_prompt(REPORT, corpus, 4096)
        kinds = [s.kind for s in prompt.segments]
        assert kinds[0] == "actions_spec"
        assert kinds[1] == "primitives_spec"
        assert kinds[-1] == "test_input"
        body = kinds[2:-1]
        assert body == ["exemplar_input", "chain_of_thought", "exemplar_output"] * prompt.exemplar_count

    def test_rendered_layout(self, corpus):
        prompt = build_extraction_prompt(REPORT, corpus, 4096)
        rendered = prompt.rendered
        assert rendered.startswith(ACTIONS_SPEC + "\n\n" + PRIMITIVES_SPEC)
        assert rendered.endswith("\n\n" + REPORT.raw_text)
        assert OUTPUT_PREFACE in rendered

    def test_report_text_verbatim(self, corpus):
        weird = BugReport("r2", "line one\n\n  spaced   out\tline two\n")
        prompt = build_extraction_prompt(weird, corpus, 4096)
        assert prompt.segments[-1].text == weird.raw_text

    def test_fits_budget_and_counts_exemplars(self, corpus):
        prompt = build_extraction_prompt(REPORT, corpus, 4096)
        assert estimate_tokens(prompt.rendered) <= 4096
        assert 1 <= prompt.exemplar_count <= 3

    def test_tight_budget_drops_exemplars(self, corpus):
        full = build_extraction_prompt(REPORT, corpus, 4096)
        squeezed = build_extraction_prompt(REPORT, corpus, 700)
        assert squeezed.exemplar_count < full.exemplar_count
        assert squeezed.exemplar_count >= 1
        assert estimate_tokens(squeezed.rendered) <= 700

    def test_impossible_budget(self, corpus):
        with pytest.raises(BudgetUnsatisfiable):
            build_extraction_prompt(REPORT, corpus, 60)

    def test_over_budget_prompt_raises_typed_error(self, corpus):
        # one token over the spec blocks and report leaves every prompt
        # with an exemplar over budget; the raise must hold under python -O
        full = build_extraction_prompt(REPORT, corpus, 4096)
        fixed = [s for s in full.segments if s.kind in ("actions_spec", "primitives_spec", "test_input")]
        budget = estimate_tokens(Prompt(tuple(fixed), 0).rendered) + 1
        with pytest.raises(BudgetUnsatisfiable, match="smallest exemplar"):
            build_extraction_prompt(REPORT, corpus, budget)

    def test_deterministic(self, corpus):
        a = build_extraction_prompt(REPORT, corpus, 4096)
        b = build_extraction_prompt(REPORT, corpus, 4096)
        assert a.rendered == b.rendered
        assert prompt_digest(a.rendered) == prompt_digest(b.rendered)


def test_exemplar_output_block_format(corpus):
    block = exemplar_output_block(corpus.extraction[0])
    lines = block.splitlines()
    assert lines[0] == OUTPUT_PREFACE
    assert lines[1].startswith("1. ")


class TestParseResponse:
    def test_plain_numbered_list(self):
        steps = parse_extraction_response(
            '1. [Tap] ["bookmark"]\n2. [Input] ["name"] ["a"]\n3. [Scroll] [down]')
        assert [str(s) for s in steps] == [
            '[Tap] ["bookmark"]', '[Input] ["name"] ["a"]', "[Scroll] [down]"]
        assert render_steps(steps) == '1. [Tap] ["bookmark"]\n2. [Input] ["name"] ["a"]\n3. [Scroll] [down]'

    def test_reasoning_prose_before_list_is_ignored(self):
        text = (
            "The 1st step is to tap the bookmark.\n"
            "The 2nd step inputs a name.\n\n"
            + OUTPUT_PREFACE + "\n"
            '1. [Tap] ["bookmark"]\n'
            '2. [Input] ["name"] ["a"]'
        )
        steps = parse_extraction_response(text)
        assert len(steps) == 2

    def test_numbered_prose_without_brackets_is_skipped(self):
        text = ('1. First the user opens the app\n'
                '1. [Tap] ["open"]\n'
                '2. [Tap] ["save"]')
        steps = parse_extraction_response(text)
        assert [s.component for s in steps] == ["open", "save"]

    def test_restated_list_keeps_the_last(self):
        text = ('1. [Tap] ["draft"]\n'
                '2. [Tap] ["send"]\n'
                "So, revising:\n"
                '1. [Tap] ["compose"]\n'
                '2. [Tap] ["send"]\n'
                '3. [Tap] ["confirm"]')
        steps = parse_extraction_response(text)
        assert [s.component for s in steps] == ["compose", "send", "confirm"]

    def test_renumbers_from_one(self):
        steps = parse_extraction_response('3. [Tap] ["a"]\n5. [Tap] ["b"]')
        assert render_steps(steps) == '1. [Tap] ["a"]\n2. [Tap] ["b"]'

    def test_parenthesis_numbering(self):
        steps = parse_extraction_response('1) [Tap] ["a"]\n2) [Scroll] [up]')
        assert len(steps) == 2

    def test_indented_lines(self):
        steps = parse_extraction_response('   1. [Tap] ["a"]\n\t2. [Tap] ["b"]')
        assert len(steps) == 2

    def test_input_without_value_gets_default(self):
        steps = parse_extraction_response('1. [Input] ["address"]')
        assert steps[0].value == "test"

    def test_latex_and_curly_quotes_normalize(self):
        steps = parse_extraction_response(
            "1. [Tap] [``settings'']\n2. [Input] [“name”] [“a”]")
        assert steps[0].component == "settings"
        assert steps[1].component == "name"
        assert steps[1].value == "a"

    def test_no_steps_found(self):
        with pytest.raises(NoStepsFound):
            parse_extraction_response("I could not find any steps.")
        with pytest.raises(NoStepsFound):
            parse_extraction_response("")
        with pytest.raises(NoStepsFound):
            parse_extraction_response("1. just prose\n2. more prose")

    def test_malformed_step_is_a_typed_error(self):
        with pytest.raises(MalformedStep):
            parse_extraction_response('1. [Press] ["button"]')
        with pytest.raises(MalformedStep):
            parse_extraction_response('1. [Scroll] [sideways]')
        with pytest.raises(MalformedStep):
            parse_extraction_response('1. [Tap] ["a"] ["b"]')


def test_extract_steps_round_trip(corpus):
    llm = ScriptedLlm([OUTPUT_PREFACE + '\n1. [Tap] ["save"]'])
    steps = extract_steps(REPORT, llm, corpus)
    assert [str(s) for s in steps] == ['[Tap] ["save"]']
    # the llm saw exactly the deterministic prompt
    assert llm.prompts[0].rendered == build_extraction_prompt(REPORT, corpus, 4096).rendered


def test_extract_steps_with_keyed_transcript(corpus):
    prompt = build_extraction_prompt(REPORT, corpus, 4096)
    llm = TranscriptLlm(
        {prompt_digest(prompt.rendered): '1. [Tap] ["save"]'})
    assert extract_steps(REPORT, llm, corpus)[0].component == "save"


# ------------------------------------------------------ property tests

def step_strategy():
    line_breakers = "\n\r\x0b\x0c\x1c\x1d\x1e\x85  "
    field = st.text(
        alphabet=st.characters(blacklist_characters="[]" + line_breakers,
                               blacklist_categories=("Cs",)),
        min_size=1, max_size=30,
    ).filter(lambda s: s.strip() == s and s.strip('"“”‘’\'` ') == s)
    return st.one_of(
        st.builds(lambda c: ("Tap", c), field),
        st.builds(lambda c: ("Double-tap", c), field),
        st.builds(lambda c: ("Long-tap", c), field),
        st.builds(lambda c, v: ("Input", c, v), field, field),
        st.sampled_from([("Scroll", d) for d in ("up", "down", "left", "right")]),
    )


def build_step(spec):
    if spec[0] == "Scroll":
        return Step(ActionType.SCROLL, direction=Direction(spec[1]))
    if spec[0] == "Input":
        return Step(ActionType.INPUT, component=spec[1], value=spec[2])
    kind = {"Tap": ActionType.TAP, "Double-tap": ActionType.DOUBLE_TAP,
            "Long-tap": ActionType.LONG_TAP}[spec[0]]
    return Step(kind, component=spec[1])


@settings(max_examples=150, deadline=None)
@given(st.lists(step_strategy(), min_size=1, max_size=12), st.randoms())
def test_rendered_lists_parse_back(specs, rng):
    steps = [build_step(spec) for spec in specs]
    preamble = rng.choice(["", "Reasoning first.\n\n", OUTPUT_PREFACE + "\n"])
    parsed = parse_extraction_response(preamble + render_steps(steps))
    assert parsed == steps


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_arbitrary_text_never_crashes_untyped(text):
    try:
        steps = parse_extraction_response(text)
    except (NoStepsFound, MalformedStep):
        return
    assert steps
    # the list renders numbered by place and parses back to itself
    assert parse_extraction_response(render_steps(steps)) == steps


def test_mutated_renders_fail_typed_or_parse():
    rng = random.Random(99)
    base = render_steps([
        Step(ActionType.TAP, component="alpha"),
        Step(ActionType.INPUT, component="field", value="v"),
        Step(ActionType.SCROLL, direction=Direction.DOWN),
    ])
    for _ in range(500):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = chr(rng.randrange(32, 127))
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, chr(rng.randrange(32, 127)))
        try:
            steps = parse_extraction_response("".join(chars))
        except (NoStepsFound, MalformedStep):
            continue
        assert steps and all(isinstance(s, Step) for s in steps)
