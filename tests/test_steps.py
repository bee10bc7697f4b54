"""Step records, their textual form, and single-line parsing."""
import pytest

from bugreplay.errors import MalformedStep
from bugreplay.steps import (
    DEFAULT_INPUT_VALUE,
    FIELDS,
    ActionType,
    BugReport,
    Direction,
    Step,
    bind_tokens,
    bracket_tokens,
    normalize_action,
    normalize_direction,
    parse_step_text,
    render_steps,
    step_text,
    strip_quotes,
)


def test_action_vocabulary_is_closed():
    assert [a.value for a in ActionType] == ["Tap", "Scroll", "Input", "Double-tap", "Long-tap"]
    assert [d.value for d in Direction] == ["up", "down", "left", "right"]


def test_arity_table():
    # each action's fields, in the order of its bracket tokens
    assert FIELDS[ActionType.TAP] == ("component",)
    assert FIELDS[ActionType.DOUBLE_TAP] == ("component",)
    assert FIELDS[ActionType.LONG_TAP] == ("component",)
    assert FIELDS[ActionType.INPUT] == ("component", "value")
    assert FIELDS[ActionType.SCROLL] == ("direction",)


# a token and the bound value for each field an action may take
FIELD_TOKENS = {"component": ('"row"', "row"), "value": ('"abc"', "abc"), "direction": ("up", Direction.UP)}
COUNT_REASONS = {
    ActionType.TAP: "tap takes exactly one component token",
    ActionType.SCROLL: "scroll takes exactly one direction token",
    ActionType.INPUT: "input takes a component and a value",
    ActionType.DOUBLE_TAP: "double-tap takes exactly one component token",
    ActionType.LONG_TAP: "long-tap takes exactly one component token",
}


@pytest.mark.parametrize("action", list(ActionType), ids=str)
def test_fields_name_exactly_the_fields_a_step_takes(action):
    bound = {name: FIELD_TOKENS[name][1] for name in FIELDS[action]}
    step = Step(action, **bound)
    tokens = [action.value, *(FIELD_TOKENS[name][0] for name in FIELDS[action])]
    assert step_text(step) == " ".join(f"[{token}]" for token in tokens)
    assert bind_tokens(tokens, "line") == step
    for name in FIELD_TOKENS:
        changed = {**bound, name: None} if name in bound else {**bound, name: FIELD_TOKENS[name][1]}
        verb = "require" if name in bound else "forbid"
        with pytest.raises(ValueError, match=f"^{action} steps {verb} a {name}$"):
            Step(action, **changed)


@pytest.mark.parametrize("action", list(ActionType), ids=str)
@pytest.mark.parametrize("count", ["one-over", "one-short"])
def test_a_token_count_mismatch_names_the_action_shape(action, count):
    tokens = [action.value, *(FIELD_TOKENS[name][0] for name in FIELDS[action])]
    # one Input token short is its default value, so an Input is two short
    tokens = tokens + ['"extra"'] if count == "one-over" else tokens[:1 if action is ActionType.INPUT else -1]
    with pytest.raises(MalformedStep) as err:
        bind_tokens(tokens, "the line")
    assert err.value.reason == COUNT_REASONS[action]
    assert str(err.value) == f"malformed step line: 'the line' ({COUNT_REASONS[action]})"


@pytest.mark.parametrize("word,expected", [
    ("Tap", ActionType.TAP),
    ("tap", ActionType.TAP),
    ("TAP", ActionType.TAP),
    ("Double-tap", ActionType.DOUBLE_TAP),
    ("double tap", ActionType.DOUBLE_TAP),
    ("Double_Tap", ActionType.DOUBLE_TAP),
    ("doubletap", ActionType.DOUBLE_TAP),
    ("long-tap", ActionType.LONG_TAP),
    ("Long tap", ActionType.LONG_TAP),
    ("  input ", ActionType.INPUT),
    ("scroll", ActionType.SCROLL),
])
def test_normalize_action_variants(word, expected):
    assert normalize_action(word) is expected


@pytest.mark.parametrize("word", ["open", "press", "click", "swipe", "", "tapp"])
def test_normalize_action_rejects_synonyms(word):
    assert normalize_action(word) is None


@pytest.mark.parametrize("word,expected", [
    ("up", Direction.UP),
    ("Upward", Direction.UP),
    ("upwards", Direction.UP),
    ("DOWN", Direction.DOWN),
    ("downwards", Direction.DOWN),
    ("left", Direction.LEFT),
    ("rightward", Direction.RIGHT),
])
def test_normalize_direction_variants(word, expected):
    assert normalize_direction(word) is expected


@pytest.mark.parametrize("suffix", ["", "ward", "wards"])
@pytest.mark.parametrize("direction", list(Direction), ids=str)
def test_every_direction_takes_each_suffix(direction, suffix):
    assert normalize_direction(direction.value + suffix) is direction
    assert parse_step_text(f"[Scroll] [{direction.value}{suffix}]").direction is direction


def test_normalize_direction_rejects_unknown():
    assert normalize_direction("sideways") is None


class TestStepShape:
    def test_tap_requires_component(self):
        step = Step(ActionType.TAP, component="bookmark")
        assert step.component == "bookmark"
        with pytest.raises(ValueError):
            Step(ActionType.TAP)
        with pytest.raises(ValueError):
            Step(ActionType.TAP, component="x", value="y")

    def test_input_requires_component_and_value(self):
        step = Step(ActionType.INPUT, component="name", value="a")
        assert (step.component, step.value) == ("name", "a")
        with pytest.raises(ValueError):
            Step(ActionType.INPUT, component="name")

    def test_input_value_may_be_empty(self):
        step = Step(ActionType.INPUT, component="name", value="")
        assert step.value == ""

    def test_scroll_requires_direction_only(self):
        step = Step(ActionType.SCROLL, direction=Direction.DOWN)
        assert step.direction is Direction.DOWN
        with pytest.raises(ValueError):
            Step(ActionType.SCROLL)
        with pytest.raises(ValueError):
            Step(ActionType.SCROLL, component="list", direction=Direction.DOWN)

    def test_component_must_be_non_empty(self):
        with pytest.raises(ValueError):
            Step(ActionType.TAP, component="")

    # 7 is no string at all
    @pytest.mark.parametrize("bad", ["a[b", "a]b", "a\nb", "a\rb", "a\x85b", "a b", 7])
    def test_fields_reject_unrepresentable_characters(self, bad):
        with pytest.raises(ValueError):
            Step(ActionType.TAP, component=bad)
        with pytest.raises(ValueError):
            Step(ActionType.INPUT, component="f", value=bad)

    def test_steps_are_immutable(self):
        step = Step(ActionType.TAP, component="x")
        with pytest.raises(AttributeError):
            step.component = "y"


def test_bug_report_validation():
    report = BugReport("42", "tap the thing")
    assert report.id == "42"
    with pytest.raises(ValueError):
        BugReport("", "text")
    with pytest.raises(ValueError):
        BugReport("42", "   ")


class TestTextualForm:
    def test_tap(self):
        assert step_text(Step(ActionType.TAP, component="bookmark")) == '[Tap] ["bookmark"]'

    def test_input(self):
        assert step_text(Step(ActionType.INPUT, component="name", value="a")) == '[Input] ["name"] ["a"]'

    def test_scroll_direction_unquoted(self):
        assert step_text(Step(ActionType.SCROLL, direction=Direction.DOWN)) == "[Scroll] [down]"

    def test_long_and_double(self):
        assert step_text(Step(ActionType.LONG_TAP, component="row")) == '[Long-tap] ["row"]'
        assert step_text(Step(ActionType.DOUBLE_TAP, component="map")) == '[Double-tap] ["map"]'

    def test_str_matches_step_text(self):
        step = Step(ActionType.TAP, component="x")
        assert str(step) == step_text(step)

    def test_render_steps_numbers_lines(self):
        steps = [
            Step(ActionType.TAP, component="bookmark"),
            Step(ActionType.INPUT, component="name", value="a"),
            Step(ActionType.SCROLL, direction=Direction.DOWN),
        ]
        assert render_steps(steps) == (
            '1. [Tap] ["bookmark"]\n'
            '2. [Input] ["name"] ["a"]\n'
            "3. [Scroll] [down]"
        )


@pytest.mark.parametrize("token,expected", [
    ('"name"', "name"),
    ("``name''", "name"),
    ("“name”", "name"),
    ("'name'", "name"),
    ("‘name’", "name"),
    ("name", "name"),
    ('  "name"  ', "name"),
    ('""', ""),
    ('"a"b"', 'a"b'),
    ("don't", "don't"),
    ('"', '"'),
])
def test_strip_quotes(token, expected):
    assert strip_quotes(token) == expected


def test_strip_quotes_removes_exactly_one_layer():
    assert strip_quotes('""name""') == '"name"'


def test_bracket_tokens():
    assert bracket_tokens('1. [Tap] ["the save button"]') == ["Tap", '"the save button"']
    assert bracket_tokens("no brackets here") == []
    assert bracket_tokens("[a][b] [c]") == ["a", "b", "c"]
    assert bracket_tokens("[]") == [""]


class TestBindTokens:
    def test_tap(self):
        step = bind_tokens(["Tap", '"bookmark"'], "line")
        assert step == Step(ActionType.TAP, component="bookmark")

    def test_input_with_value(self):
        step = bind_tokens(["Input", '"name"', '"a"'], "line")
        assert step == Step(ActionType.INPUT, component="name", value="a")

    def test_input_without_value_gets_default(self):
        step = bind_tokens(["Input", '"name"'], "line")
        assert step.value == DEFAULT_INPUT_VALUE == "test"

    def test_scroll(self):
        step = bind_tokens(["Scroll", "down"], "line")
        assert step.direction is Direction.DOWN

    def test_scroll_direction_synonym_and_quotes(self):
        assert bind_tokens(["Scroll", '"downwards"'], "line").direction is Direction.DOWN

    @pytest.mark.parametrize("tokens,reason_part", [
        ([], "no bracket tokens"),
        (["Open", '"app"'], "unknown action"),
        (["Scroll", "sideways"], "unknown direction"),
        (["Scroll"], "one direction"),
        (["Scroll", "up", "down"], "one direction"),
        (["Tap"], "component token"),
        (["Tap", '"a"', '"b"'], "component token"),
        (["Input", '"a"', '"b"', '"c"'], "component and a value"),
        (["Tap", '""'], "non-empty"),
    ])
    def test_malformed(self, tokens, reason_part):
        with pytest.raises(MalformedStep) as err:
            bind_tokens(tokens, "the line")
        assert reason_part in str(err.value)


class TestParseStepText:
    def test_round_trip_all_actions(self):
        for text in ('[Tap] ["a b"]', '[Input] ["f"] ["v"]', "[Scroll] [up]",
                     '[Double-tap] ["x"]', '[Long-tap] ["y"]'):
            assert step_text(parse_step_text(text)) == text

    def test_surrounding_prose_is_tolerated(self):
        step = parse_step_text('first we [Tap] ["login"] to begin')
        assert step == Step(ActionType.TAP, component="login")

    def test_curly_quoted_component(self):
        assert parse_step_text('[Tap] [“settings”]').component == "settings"

    def test_latex_quoted_component(self):
        assert parse_step_text("[Tap] [``settings'']").component == "settings"

    def test_malformed_raises(self):
        with pytest.raises(MalformedStep):
            parse_step_text("just words")
