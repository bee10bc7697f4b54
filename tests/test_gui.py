"""Screen encoding: tag mapping, HTML text, ids, dump parsing."""
import html
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugreplay.errors import CycleDetected, DeviceError, UnknownId
from bugreplay.gui import (
    Bounds,
    ViewNode,
    encode_gui,
    map_class_to_tag,
    parse_dump,
    resolve_component,
    screen_digest,
)

from helpers import random_view_tree


class TestBounds:
    def test_parse(self):
        b = Bounds.parse("[10,20][30,40]")
        assert (b.left, b.top, b.right, b.bottom) == (10, 20, 30, 40)

    def test_parse_clamps_offscreen_coordinates(self):
        b = Bounds.parse("[-5,-7][100,200]")
        assert (b.left, b.top) == (0, 0)
        b = Bounds.parse("[-20,0][-10,50]")
        assert b.right >= b.left

    @pytest.mark.parametrize("bad", ["", "[1,2]", "[1,2][3]", "1,2,3,4", "[a,b][c,d]", "[1,2,3,4]"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Bounds.parse(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Bounds(-1, 0, 10, 10)
        with pytest.raises(ValueError):
            Bounds(10, 0, 5, 10)

    def test_center(self):
        b = Bounds(0, 100, 100, 200)
        assert b.center() == (50, 150)


class TestTagMapping:
    @pytest.mark.parametrize("cls,tag,input_type", [
        ("android.widget.TextView", "p", None),
        ("android.widget.Button", "button", None),
        ("android.widget.ImageButton", "button", None),
        ("android.widget.ImageView", "img", None),
        ("android.widget.EditText", "input", "text"),
        ("android.widget.CheckBox", "input", "checkbox"),
        ("android.widget.RadioButton", "input", "radio"),
        ("android.widget.Switch", "input", "checkbox"),
        ("android.widget.LinearLayout", "div", None),
        ("android.view.View", "div", None),
    ])
    def test_table(self, cls, tag, input_type):
        spec = map_class_to_tag(cls)
        assert (spec.tag, spec.input_type) == (tag, input_type)

    def test_only_suffix_matters(self):
        assert map_class_to_tag("Button").tag == "button"
        assert map_class_to_tag("my.custom.pkg.Button").tag == "button"

    def test_unknown_and_vendor_subclasses_fall_back_to_div(self):
        assert map_class_to_tag("androidx.appcompat.widget.AppCompatButton").tag == "div"
        assert map_class_to_tag("com.example.Whatever").tag == "div"
        assert map_class_to_tag("button").tag == "div"  # case sensitive
        assert map_class_to_tag("").tag == "div"


def leaf(cls, **kw):
    return ViewNode(class_name=cls, **kw)


class TestEncoding:
    def test_single_leaf(self):
        enc = encode_gui(leaf("android.widget.TextView", text="Hi"))
        assert enc.html == "<p id=0>Hi</p>"
        assert list(enc.index) == [0]

    def test_container_with_children_golden(self):
        tree = ViewNode(
            "android.widget.LinearLayout",
            resource_id="com.app:id/panel",
            children=[
                leaf("android.widget.TextView", text="Title"),
                leaf("android.widget.Button", text="Go", resource_id="com.app:id/go_btn"),
            ],
        )
        assert encode_gui(tree).html == (
            '<div id=0 class="panel">\n'
            "  <p id=1>Title</p>\n"
            '  <button id=2 class="go_btn">Go</button>\n'
            "</div>"
        )

    def test_input_renders_as_label_pair(self):
        enc = encode_gui(leaf("android.widget.EditText", text="Username",
                              resource_id="com.app:id/user"))
        assert enc.html == '<input id=0 type="text" class="user"><label>Username</label>'

    def test_checkbox_and_radio_types(self):
        assert 'type="checkbox"' in encode_gui(leaf("android.widget.CheckBox")).html
        assert 'type="radio"' in encode_gui(leaf("android.widget.RadioButton")).html
        assert 'type="checkbox"' in encode_gui(leaf("android.widget.Switch")).html

    def test_img_is_void_and_keeps_alt_only(self):
        enc = encode_gui(leaf("android.widget.ImageView", text="dropped",
                              content_desc="app logo"))
        assert enc.html == '<img id=0 alt="app logo">'

    def test_content_desc_ignored_outside_img(self):
        enc = encode_gui(leaf("android.widget.Button", text="Go", content_desc="go button"))
        assert enc.html == "<button id=0>Go</button>"

    def test_whitespace_normalized(self):
        enc = encode_gui(leaf("android.widget.TextView", text="  Hello \n  world\t! "))
        assert enc.html == "<p id=0>Hello world !</p>"

    def test_text_escaped(self):
        enc = encode_gui(leaf("android.widget.TextView", text="a & b <c>"))
        assert enc.html == "<p id=0>a &amp; b &lt;c&gt;</p>"

    def test_attr_escaped_with_quotes(self):
        enc = encode_gui(leaf("android.widget.ImageView", content_desc='say "hi" & go'))
        assert enc.html == '<img id=0 alt="say &quot;hi&quot; &amp; go">'

    def test_resource_id_uses_leaf_after_last_slash(self):
        enc = encode_gui(leaf("android.widget.Button", resource_id="com.app:id/a/b"))
        assert enc.html == '<button id=0 class="b"></button>'

    def test_empty_text_leaf(self):
        assert encode_gui(leaf("android.widget.Button")).html == "<button id=0></button>"

    def test_container_text_on_opening_line(self):
        tree = ViewNode("android.widget.LinearLayout", text="Group",
                        children=[leaf("android.widget.TextView", text="x")])
        assert encode_gui(tree).html == "<div id=0>Group\n  <p id=1>x</p>\n</div>"

    def test_nested_indentation_two_spaces(self):
        tree = ViewNode("android.widget.FrameLayout", children=[
            ViewNode("android.widget.LinearLayout", children=[
                leaf("android.widget.TextView", text="deep"),
            ]),
        ])
        assert encode_gui(tree).html == (
            "<div id=0>\n"
            "  <div id=1>\n"
            "    <p id=2>deep</p>\n"
            "  </div>\n"
            "</div>"
        )

    def test_no_trailing_newline(self):
        tree = ViewNode("android.widget.FrameLayout",
                        children=[leaf("android.widget.TextView")])
        assert not encode_gui(tree).html.endswith("\n")


class TestIdsAndResolve:
    def test_preorder_ids(self):
        a = leaf("android.widget.TextView", text="a")
        b1 = leaf("android.widget.Button", text="b1")
        b = ViewNode("android.widget.LinearLayout", children=[b1])
        root = ViewNode("android.widget.FrameLayout", children=[a, b])
        enc = encode_gui(root)
        assert enc.index[0] is root
        assert enc.index[1] is a
        assert enc.index[2] is b
        assert enc.index[3] is b1

    def test_resolve_inverse(self):
        rng = random.Random(7)
        tree = random_view_tree(rng, max_nodes=60)
        enc = encode_gui(tree)
        for cid, node in enc.index.items():
            assert resolve_component(enc, cid) is node

    @pytest.mark.parametrize("bad", [-1, 999, "3", 3.0, True, False, None])
    def test_resolve_rejects_non_ids(self, bad):
        enc = encode_gui(leaf("android.widget.TextView"))
        with pytest.raises(UnknownId):
            resolve_component(enc, bad)

    def test_ids_dense_and_match_html(self):
        rng = random.Random(11)
        for _ in range(25):
            enc = encode_gui(random_view_tree(rng, max_nodes=80))
            n = len(enc.index)
            assert sorted(enc.index) == list(range(n))
            for i in range(n):
                assert f"id={i}" in enc.html

    def test_deterministic(self):
        rng = random.Random(3)
        tree = random_view_tree(rng, max_nodes=120)
        assert encode_gui(tree).html == encode_gui(tree).html


class TestCycles:
    def test_self_cycle(self):
        node = leaf("android.widget.FrameLayout")
        node.children.append(node)
        with pytest.raises(CycleDetected):
            encode_gui(node)

    def test_shared_child_rejected(self):
        shared = leaf("android.widget.TextView", text="x")
        root = ViewNode("android.widget.FrameLayout", children=[
            ViewNode("android.widget.LinearLayout", children=[shared]),
            ViewNode("android.widget.LinearLayout", children=[shared]),
        ])
        with pytest.raises(CycleDetected):
            encode_gui(root)


class TestElision:
    def tree(self):
        return ViewNode("android.widget.FrameLayout", children=[
            ViewNode("android.widget.LinearLayout", resource_id="com.app:id/wrap", children=[
                leaf("android.widget.Button", text="Go"),
                ViewNode("android.view.View", children=[
                    leaf("android.widget.TextView", text="inner"),
                ]),
            ]),
            leaf("android.view.View", text="childless keeps its place"),
        ])

    def test_wrappers_dropped_children_promoted(self):
        enc = encode_gui(self.tree(), elide_wrappers=True)
        assert enc.html == (
            "<button id=0>Go</button>\n"
            "<p id=1>inner</p>\n"
            "<div id=2>childless keeps its place</div>"
        )

    def test_index_matches_emitted_ids_and_original_nodes(self):
        original = self.tree()
        enc = encode_gui(original, elide_wrappers=True)
        assert enc.index[0] is original.children[0].children[0]
        assert enc.index[2] is original.children[1]

    def test_elision_without_wrappers_is_identity(self):
        tree = ViewNode("android.widget.EditText", text="x")
        assert encode_gui(tree, elide_wrappers=True).html == encode_gui(tree).html

    def test_elided_leaf_set_is_preserved(self):
        rng = random.Random(23)
        for _ in range(20):
            tree = random_view_tree(rng, max_nodes=60)
            full = encode_gui(tree)
            reduced = encode_gui(tree, elide_wrappers=True)
            kept = {id(n) for n in reduced.index.values()}
            dropped = {id(n) for n in full.index.values()} - kept
            for node in full.index.values():
                if id(node) in dropped:
                    assert map_class_to_tag(node.class_name).tag == "div"
                    assert node.children

    def test_full_ids_count_the_elided_wrappers(self):
        enc = encode_gui(self.tree(), elide_wrappers=True)
        assert enc.full_ids == [2, 4, 5]
        assert encode_gui(self.tree()).full_ids == list(range(6))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_full_ids_name_each_emitted_node_in_the_full_encoding(self, seed):
        tree = random_view_tree(random.Random(seed), max_nodes=80)
        full, reduced = encode_gui(tree), encode_gui(tree, elide_wrappers=True)
        assert full.full_ids == list(full.index)
        assert len(reduced.full_ids) == len(reduced.index)
        for nid, node in reduced.index.items():
            assert full.index[reduced.full_ids[nid]] is node


DUMP = """<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>
<hierarchy rotation="0">
  <node index="0" text="" resource-id="" class="android.widget.FrameLayout"
        package="com.demo" content-desc="" checkable="false" checked="false"
        clickable="false" enabled="true" focusable="false" focused="false"
        scrollable="false" long-clickable="false" password="false"
        selected="false" bounds="[0,0][1080,1920]">
    <node index="0" text="Inbox" resource-id="com.demo:id/title"
          class="android.widget.TextView" package="com.demo" content-desc=""
          bounds="[0,0][1080,150]"/>
    <node index="1" text="" resource-id="com.demo:id/add"
          class="android.widget.ImageButton" package="com.demo"
          content-desc="Add note" bounds="[900,1700][1060,1860]"/>
  </node>
</hierarchy>
"""


class TestParseDump:
    def test_golden_dump(self):
        root = parse_dump(DUMP)
        assert root.class_name == "android.widget.FrameLayout"
        assert root.resource_id is None          # empty attr means absent
        assert root.text is None
        assert root.package == "com.demo"
        assert len(root.children) == 2
        title, add = root.children
        assert title.text == "Inbox"
        assert title.resource_id == "com.demo:id/title"
        assert title.bounds == Bounds(0, 0, 1080, 150)
        assert add.content_desc == "Add note"

    def test_encodes_after_parse(self):
        enc = encode_gui(parse_dump(DUMP))
        assert enc.html == (
            "<div id=0>\n"
            '  <p id=1 class="title">Inbox</p>\n'
            '  <button id=2 class="add"></button>\n'
            "</div>"
        )

    def test_bare_node_root(self):
        root = parse_dump('<node class="android.widget.Button" text="Hi" bounds="[0,0][10,10]"/>')
        assert root.class_name == "android.widget.Button"

    def test_multiple_top_nodes_get_synthetic_root(self):
        xml = ('<hierarchy>'
               '<node class="android.widget.TextView" package="com.demo" bounds="[0,0][100,50]"/>'
               '<node class="android.widget.TextView" package="" bounds="[50,20][300,200]"/>'
               '</hierarchy>')
        root = parse_dump(xml)
        assert root.class_name == "android.widget.FrameLayout"
        assert len(root.children) == 2
        assert root.bounds == Bounds(0, 0, 300, 200)
        # the wrap is no one's window; an empty package means absent
        assert [root.package, *(child.package for child in root.children)] == [None, "com.demo", None]

    def test_missing_class_falls_back(self):
        root = parse_dump('<node bounds="[0,0][10,10]"/>')
        assert root.class_name == "android.view.View"

    @pytest.mark.parametrize("bad", [
        "not xml at all",
        "<hierarchy><oops/></hierarchy>",
        "<other/>",
        '<node class="x" bounds="[1,2][3]"/>',
        "<hierarchy></hierarchy>",
        pytest.param("<hierarchy>" + "<node>" * 5000 + "</node>" * 5000 + "</hierarchy>", id="nested-too-deep"),
    ])
    def test_malformed_dumps_raise(self, bad):
        with pytest.raises(DeviceError):
            parse_dump(bad)


class TestScreenDigest:
    def test_shape_and_stability(self):
        d = screen_digest("<p id=0>x</p>")
        assert len(d) == 16
        assert all(c in "0123456789abcdef" for c in d)
        assert d == screen_digest("<p id=0>x</p>")

    def test_sensitive_to_content(self):
        assert screen_digest("<p id=0>x</p>") != screen_digest("<p id=0>y</p>")


# -------------------------- reference serializer, written independently

def _ws(value):
    return " ".join(value.split())


def reference_encode(node, depth=0, next_id=None):
    """A second, from-scratch implementation of the encoding grammar.

    Walks the tree in document order handing out ids, renders each node
    per its widget kind, indents two spaces per level. Kept deliberately
    separate from the production encoder so the two can disagree.
    """
    if next_id is None:
        next_id = [0]
    pad = "  " * depth
    my_id = next_id[0]
    next_id[0] += 1

    suffix = node.class_name.split(".")[-1]
    kind = {
        "TextView": ("p", None), "Button": ("button", None),
        "ImageButton": ("button", None), "ImageView": ("img", None),
        "EditText": ("input", "text"), "CheckBox": ("input", "checkbox"),
        "RadioButton": ("input", "radio"), "Switch": ("input", "checkbox"),
    }.get(suffix, ("div", None))
    tag, input_type = kind

    attrs = f"id={my_id}"
    if input_type:
        attrs += f' type="{input_type}"'
    if node.resource_id:
        cls = node.resource_id.split("/")[-1]
        attrs += f' class="{html.escape(_ws(cls), quote=True)}"'
    if tag == "img" and node.content_desc:
        attrs += f' alt="{html.escape(_ws(node.content_desc), quote=True)}"'
    text = html.escape(_ws(node.text), quote=False) if node.text else ""

    child_lines = []
    for child in node.children:
        child_lines.extend(reference_encode(child, depth + 1, next_id))

    if tag == "input":
        return [f"{pad}<{tag} {attrs}><label>{text}</label>"] + child_lines
    if tag == "img":
        return [f"{pad}<{tag} {attrs}>"] + child_lines
    if node.children:
        return [f"{pad}<{tag} {attrs}>{text}"] + child_lines + [f"{pad}</{tag}>"]
    return [f"{pad}<{tag} {attrs}>{text}</{tag}>"]


def test_encoder_agrees_with_reference_on_random_trees():
    rng = random.Random(20260822)
    for _ in range(300):
        tree = random_view_tree(rng, max_nodes=120)
        assert encode_gui(tree).html == "\n".join(reference_encode(tree))


def test_encoder_agrees_with_reference_on_goldens():
    trees = [
        leaf("android.widget.EditText", text="Username", resource_id="a:id/u"),
        leaf("android.widget.ImageView", content_desc="logo"),
        ViewNode("android.widget.ScrollView", children=[
            leaf("android.widget.CheckBox", text="I agree"),
        ]),
    ]
    for tree in trees:
        assert encode_gui(tree).html == "\n".join(reference_encode(tree))
