"""Guidance queries, prompt assembly with screen elision, answer parsing."""
import pytest

from bugreplay.errors import BudgetUnsatisfiable, NoActionableAnswer
from bugreplay.exemplars import ExemplarCorpus, GuidanceExemplar
from bugreplay.extraction import build_extraction_prompt
from bugreplay.guidance import (
    EXCLUSION_CLAUSE,
    GUIDED_ACTIONS,
    GuidanceResult,
    build_guidance_prompt,
    format_guidance_query,
    parse_guidance_response,
)
from bugreplay.gui import ViewNode, encode_gui
from bugreplay.llm import estimate_tokens
from bugreplay.steps import ActionType, parse_step_text


def test_guided_actions_exclude_scroll():
    assert GUIDED_ACTIONS == {
        ActionType.TAP, ActionType.DOUBLE_TAP, ActionType.LONG_TAP, ActionType.INPUT}
    assert ActionType.SCROLL not in GUIDED_ACTIONS


class TestQueryFormat:
    def test_plain(self):
        step = parse_step_text('[Tap] ["Sign in"]')
        assert format_guidance_query(step) == (
            'If I need to [Tap] ["Sign in"], which component id should I operate on the GUI?')

    def test_input_step(self):
        step = parse_step_text('[Input] ["name"] ["a"]')
        assert format_guidance_query(step) == (
            'If I need to [Input] ["name"] ["a"], which component id should I operate on the GUI?')

    def test_exclusions_sorted(self):
        step = parse_step_text('[Tap] ["Sign in"]')
        assert format_guidance_query(step, excluded_ids={5, 3}) == (
            'If I need to [Tap] ["Sign in"], which component id should I operate '
            "on the GUI, excluding components [id=3], [id=5]?")

    def test_custom_clause_template(self):
        step = parse_step_text('[Tap] ["x"]')
        query = format_guidance_query(step, excluded_ids={2},
                                      exclusion_clause=" but never {ids}")
        assert query.endswith(" but never [id=2]?")


def test_result_must_be_informative():
    with pytest.raises(ValueError):
        GuidanceResult(component_id=None, missing=False, raw="nothing")
    assert GuidanceResult(None, True, "[MISSING]").missing
    assert GuidanceResult(4, False, "[id=4]").component_id == 4


class TestParseResponse:
    def test_plain_id(self):
        result = parse_guidance_response("[id=6]")
        assert (result.component_id, result.missing) == (6, False)

    def test_missing_with_id(self):
        result = parse_guidance_response("[MISSING] [id=1]")
        assert (result.component_id, result.missing) == (1, True)

    def test_missing_alone(self):
        result = parse_guidance_response("this step is [MISSING] entirely")
        assert (result.component_id, result.missing) == (None, True)

    def test_last_id_wins(self):
        text = ('The "Log in" button at [id=2] looks close, but the better '
                "match is [id=6].")
        assert parse_guidance_response(text).component_id == 6

    def test_case_and_whitespace_tolerant(self):
        assert parse_guidance_response("[ ID = 4 ]").component_id == 4
        assert parse_guidance_response("[missing] [Id=3]").missing

    def test_embedded_in_reasoning(self):
        text = ("There is no explicit match in the current screen. "
                "So, we could potentially operate on [id=6] in the screen.")
        result = parse_guidance_response(text)
        assert result.component_id == 6
        assert result.raw == text

    @pytest.mark.parametrize("text", ["", "no answer here", "[id=]", "component 6"])
    def test_uninformative_raises(self, text):
        with pytest.raises(NoActionableAnswer):
            parse_guidance_response(text)


def test_builtin_guidance_outputs_parse(corpus):
    kinds = set()
    for exemplar in corpus.guidance:
        result = parse_guidance_response(exemplar.output.raw)
        kinds.add(result.missing)
        assert result.component_id is not None
    assert kinds == {True, False}


SCREEN = ViewNode("android.widget.FrameLayout", children=[
    ViewNode("android.widget.Button", text="Log in"),
    ViewNode("android.widget.EditText", text="Username"),
])


class TestPromptAssembly:
    def test_segment_order_and_test_block(self, corpus):
        step = parse_step_text('[Tap] ["Log in"]')
        enc = encode_gui(SCREEN)
        prompt, used = build_guidance_prompt(step, enc, corpus, 4096)
        assert used is enc
        kinds = [s.kind for s in prompt.segments]
        assert kinds[-2:] == ["test_gui", "test_query"]
        per_exemplar = ["exemplar_gui", "exemplar_query", "chain_of_thought", "exemplar_output"]
        assert kinds[:-2] == per_exemplar * prompt.exemplar_count
        assert prompt.segments[-2].text == enc.html
        assert prompt.segments[-1].text == format_guidance_query(step)
        assert 1 <= prompt.exemplar_count <= 3
        assert estimate_tokens(prompt.rendered) <= 4096

    def test_exclusions_reach_the_rendered_prompt(self, corpus):
        step = parse_step_text('[Tap] ["Log in"]')
        prompt, _ = build_guidance_prompt(step, encode_gui(SCREEN), corpus, 4096,
                                          excluded_ids={4, 1})
        assert ", excluding components [id=1], [id=4]?" in prompt.rendered

    def test_custom_clause_passes_through(self, corpus):
        step = parse_step_text('[Tap] ["Log in"]')
        prompt, _ = build_guidance_prompt(
            step, encode_gui(SCREEN), corpus, 4096, excluded_ids={2},
            exclusion_clause=", avoiding {ids}")
        assert ", avoiding [id=2]?" in prompt.rendered

    def test_scroll_steps_are_rejected(self, corpus):
        with pytest.raises(ValueError):
            build_guidance_prompt(parse_step_text("[Scroll] [down]"),
                                  encode_gui(SCREEN), corpus, 4096)

    def test_over_budget_prompt_raises_typed_error(self, corpus, monkeypatch):
        # with every exemplar costed at nothing, selection overfills the
        # prompt; the final check must hold under python -O as well
        monkeypatch.setattr("bugreplay.guidance._exemplar_cost", lambda exemplar: 0)
        with pytest.raises(BudgetUnsatisfiable):
            build_guidance_prompt(parse_step_text('[Tap] ["Log in"]'),
                                  encode_gui(SCREEN), corpus, 200)

    def test_deterministic(self, corpus):
        step = parse_step_text('[Input] ["Username"] ["bob"]')
        a, _ = build_guidance_prompt(step, encode_gui(SCREEN), corpus, 4096)
        b, _ = build_guidance_prompt(step, encode_gui(SCREEN), corpus, 4096)
        assert a.rendered == b.rendered


def tiny_corpus():
    exemplar = GuidanceExemplar(
        gui_html="<button id=0>Go</button>",
        query_step=parse_step_text('[Tap] ["Go"]'),
        chain_of_thought="it is the only button",
        output=parse_guidance_response("[id=0]"),
    )
    return ExemplarCorpus(extraction=(), guidance=(exemplar,))


def wrapper_heavy_screen():
    node = ViewNode("android.widget.Button", text="Buy")
    for i in range(40):
        node = ViewNode("android.widget.LinearLayout",
                        resource_id=f"com.app:id/wrapper_level_{i}",
                        children=[node])
    return ViewNode("android.widget.FrameLayout", children=[node])


class TestElisionFallback:
    def test_oversized_screen_falls_back_to_elided_encoding(self):
        corpus = tiny_corpus()
        step = parse_step_text('[Tap] ["Buy"]')
        full = encode_gui(wrapper_heavy_screen())
        budget = estimate_tokens(full.html) // 2
        prompt, used = build_guidance_prompt(step, full, corpus, budget)
        assert used is not full
        assert used.html == "<button id=0>Buy</button>"
        assert prompt.segments[-2].text == used.html
        assert estimate_tokens(prompt.rendered) <= budget

    def test_elided_index_reaches_original_nodes(self):
        corpus = tiny_corpus()
        step = parse_step_text('[Tap] ["Buy"]')
        screen = wrapper_heavy_screen()
        full = encode_gui(screen)
        _, used = build_guidance_prompt(step, full, corpus,
                                        estimate_tokens(full.html) // 2)
        button = screen
        while button.children:
            button = button.children[0]
        assert used.index[0] is button

    def test_unsatisfiable_even_after_elision(self):
        with pytest.raises(BudgetUnsatisfiable):
            build_guidance_prompt(parse_step_text('[Tap] ["Buy"]'),
                                  encode_gui(wrapper_heavy_screen()),
                                  tiny_corpus(), 10)

    def test_no_fallback_when_screen_already_fits(self):
        enc = encode_gui(SCREEN)
        _, used = build_guidance_prompt(parse_step_text('[Tap] ["Log in"]'),
                                        enc, tiny_corpus(), 4096)
        assert used is enc


def test_extraction_and_guidance_prompts_share_segment_shape(corpus):
    # both pipelines produce Prompt values the llm layer treats alike
    from bugreplay.steps import BugReport
    p1 = build_extraction_prompt(BugReport("x", "tap a"), corpus, 4096)
    p2, _ = build_guidance_prompt(parse_step_text('[Tap] ["Log in"]'),
                                  encode_gui(SCREEN), corpus, 4096)
    for prompt in (p1, p2):
        assert prompt.rendered
        assert prompt.exemplar_count >= 1
