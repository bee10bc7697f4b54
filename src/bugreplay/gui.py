"""View hierarchy model and its deterministic HTML text encoding.

A dumped Android screen becomes a compact HTML fragment the model can read:

    <div id=0 class="main_layout">
      <p id=1>Settings</p>
      <button id=2 class="submit_btn">Submit</button>
      <input id=3 type="text" class="name_field"><label>Name</label>
      <img id=4 alt="settings icon">
    </div>

Encoding rules (all deliberate, all covered by tests):

* ids are preorder depth-first, exactly 0..n-1, emitted unquoted;
* tag choice keys on the unqualified widget class name, case-sensitive:
  TextView -> p, Button/ImageButton -> button, ImageView -> img,
  EditText -> input type="text", CheckBox/Switch -> input type="checkbox",
  RadioButton -> input type="radio", anything else -> div;
* the resource-id leaf (after the last '/') becomes the class attribute;
* node text is the element text; img carries content-desc as alt and never
  emits text; input widgets pair with a <label> holding the text, the pair
  shares one id carried by the input and sits on one line;
* attribute order is fixed: id, type, class, alt;
* one element per line, two spaces of indent per depth, no trailing newline.

Invisible (zero-area) nodes are encoded like any other so ids stay dense.
"""
from __future__ import annotations

import hashlib
import html as _html
import re
from dataclasses import dataclass, field

from .errors import CycleDetected, DeviceError, UnknownId

_BOUNDS_RE = re.compile(r"\[(-?\d+),(-?\d+)\]\[(-?\d+),(-?\d+)\]")


@dataclass(frozen=True)
class Bounds:
    """Pixel rectangle [left,top][right,bottom] as UIAutomator reports it."""

    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self):
        if min(self.left, self.top, self.right, self.bottom) < 0:
            raise ValueError(f"bounds must be non-negative: {self}")
        if self.right < self.left or self.bottom < self.top:
            raise ValueError(f"bounds must be ordered: {self}")

    @classmethod
    def parse(cls, text: str) -> "Bounds":
        m = _BOUNDS_RE.fullmatch(text.strip())
        if not m:
            raise ValueError(f"unparsable bounds {text!r}")
        left, top, right, bottom = (int(g) for g in m.groups())
        # Real dumps can report off-screen coordinates; clamp into range.
        left, top = max(left, 0), max(top, 0)
        right, bottom = max(right, left), max(bottom, top)
        return cls(left, top, right, bottom)

    def center(self) -> tuple[int, int]:
        return (self.left + self.right) // 2, (self.top + self.bottom) // 2


@dataclass
class ViewNode:
    class_name: str
    resource_id: str | None = None
    text: str | None = None
    content_desc: str | None = None
    bounds: Bounds = Bounds(0, 0, 0, 0)
    children: list["ViewNode"] = field(default_factory=list)
    package: str | None = None  # whose window holds the node, as a dump names it


@dataclass(frozen=True)
class TagSpec:
    """How one widget class renders: its tag, and for an input, the type
    that the input and its label carry."""

    tag: str
    input_type: str | None = None


_TAG_TABLE = {
    "TextView": TagSpec("p"),
    "Button": TagSpec("button"),
    "ImageButton": TagSpec("button"),
    "ImageView": TagSpec("img"),
    "EditText": TagSpec("input", "text"),
    "CheckBox": TagSpec("input", "checkbox"),
    "RadioButton": TagSpec("input", "radio"),
    "Switch": TagSpec("input", "checkbox"),
}
_FALLBACK_TAG = TagSpec("div")


def map_class_to_tag(class_name: str) -> TagSpec:
    """Tag for a widget class; total over arbitrary strings.

    Only the unqualified suffix matters ("android.widget.Button" and
    "Button" agree); unknown widgets, including vendor subclasses like
    AppCompatButton, fall back to div.
    """
    return _TAG_TABLE.get(class_name.rsplit(".", 1)[-1], _FALLBACK_TAG)


@dataclass
class EncodedGui:
    """The HTML text plus the id -> node index it was built from, and
    full_ids[i], the id the full encoding gives node i: i itself unless
    wrappers were elided."""

    html: str
    index: dict[int, ViewNode]
    full_ids: list[int]


def resolve_component(encoded: EncodedGui, component_id) -> ViewNode:
    """Map a model-cited id back to its node; UnknownId outside 0..n-1."""
    if not isinstance(component_id, int) or isinstance(component_id, bool):
        raise UnknownId(component_id)
    try:
        return encoded.index[component_id]
    except KeyError:
        raise UnknownId(component_id) from None


def _norm_ws(text: str) -> str:
    return " ".join(text.split())


def _attr(value: str) -> str:
    return _html.escape(_norm_ws(value), quote=True)


def _text(value: str) -> str:
    return _html.escape(_norm_ws(value), quote=False)


def resource_leaf(resource_id: str) -> str:
    return resource_id.rsplit("/", 1)[-1]


def encode_gui(root: ViewNode, *, elide_wrappers: bool = False) -> EncodedGui:
    """Serialize a view tree to HTML text plus an id index.

    With elide_wrappers=True, div-mapped nodes that have children are
    dropped and their children promoted, shrinking oversized screens; ids
    are assigned to what is actually emitted, so the index always matches
    the text a model will see. Emitted index entries reference the
    original nodes, and full_ids maps each emitted id to the preorder id
    of the same node in the full encoding, where every node is counted.
    """
    lines: list[str] = []
    index: dict[int, ViewNode] = {}
    full_ids: list[int] = []
    seen: set[int] = set()

    def emit(node: ViewNode, depth: int) -> None:
        if id(node) in seen:
            raise CycleDetected(f"node {node.class_name!r} appears more than once")
        full_id = len(seen)
        seen.add(id(node))
        spec = map_class_to_tag(node.class_name)
        if elide_wrappers and spec.tag == "div" and node.children:
            for child in node.children:
                emit(child, depth)
            return
        nid = len(index)
        index[nid] = node
        full_ids.append(full_id)
        indent = "  " * depth
        attrs = [f"id={nid}"]
        if spec.input_type:
            attrs.append(f'type="{spec.input_type}"')
        if node.resource_id:
            attrs.append(f'class="{_attr(resource_leaf(node.resource_id))}"')
        if spec.tag == "img" and node.content_desc:
            attrs.append(f'alt="{_attr(node.content_desc)}"')
        opening = f"<{spec.tag} {' '.join(attrs)}>"
        # an input holds its text in its label and a void img drops it; neither has a closing tag
        body = _text(node.text) if node.text and spec.tag != "img" else ""
        if spec.input_type:
            body = f"<label>{body}</label>"
        closing = "" if spec.input_type or spec.tag == "img" else f"</{spec.tag}>"
        lines.append(f"{indent}{opening}{body}" + ("" if node.children else closing))
        for child in node.children:
            emit(child, depth + 1)
        if node.children and closing:
            lines.append(f"{indent}{closing}")

    emit(root, 0)
    return EncodedGui(html="\n".join(lines), index=index, full_ids=full_ids)


def screen_digest(html: str) -> str:
    """Stable fingerprint of an encoded screen."""
    return hashlib.sha256(html.encode("utf-8")).hexdigest()[:16]


def parse_dump(xml_text: str) -> ViewNode:
    """Parse a UIAutomator hierarchy dump into a ViewNode tree.

    Accepts either a full <hierarchy> document or a bare <node> subtree.
    Empty string attributes mean absent. Malformed XML, foreign root tags,
    unparsable bounds, or nodes nested too deep raise DeviceError.
    """
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(xml_text)
        if root.tag == "node":
            return _node_from_xml(root)
        if root.tag != "hierarchy":
            raise DeviceError(f"unexpected dump root <{root.tag}>")
        children = [_node_from_xml(child) for child in root if child.tag == "node"]
    except (ET.ParseError, RecursionError) as exc:
        raise DeviceError(f"unparsable hierarchy dump: {exc}") from exc
    if not children:
        raise DeviceError("hierarchy dump has no nodes")
    if len(children) == 1:
        return children[0]
    wrap = Bounds(
        min(c.bounds.left for c in children),
        min(c.bounds.top for c in children),
        max(c.bounds.right for c in children),
        max(c.bounds.bottom for c in children),
    )
    return ViewNode("android.widget.FrameLayout", bounds=wrap, children=children)


def _node_from_xml(element) -> ViewNode:
    try:
        bounds = Bounds.parse(element.get("bounds", "[0,0][0,0]"))
    except ValueError as exc:
        raise DeviceError(str(exc)) from exc
    return ViewNode(
        class_name=element.get("class") or "android.view.View",
        resource_id=element.get("resource-id") or None,
        text=element.get("text") or None,
        content_desc=element.get("content-desc") or None,
        bounds=bounds,
        children=[_node_from_xml(c) for c in element if c.tag == "node"],
        package=element.get("package") or None,
    )
