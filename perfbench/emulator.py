"""Emulated Android device behind a fake adb.

A generated `App` is a set of screens (view trees) plus the moves between
them. `Phone` runs one app and answers the adb command set that
`bugreplay.device.AdbDevice` uses. `AdbServer` serves any number of phones,
addressed by serial, over a local TCP socket; the native client in
`adbclient/` is what the program under test executes as `adb`. Every call
sleeps a declared latency per command kind and is logged.
"""
from __future__ import annotations

import shlex
import socketserver
import threading
import time
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

SCREEN = (1080, 1920)
CRASH = "!crash"
LAUNCHER = "com.android.launcher3/.Launcher"
FATAL = (
    "--------- beginning of crash\n"
    "E AndroidRuntime: FATAL EXCEPTION: main\n"
    "E AndroidRuntime: Process: {package}, PID: 4242\n"
    "E AndroidRuntime: java.lang.IllegalStateException: replayed bug\n"
)
LONG_PRESS_MS = 500
# Command kinds whose latency is the dump latency; every other kind uses
# the per-call latency.
DUMP_KINDS = frozenset({"uiautomator"})


@dataclass
class Node:
    """One view: class, resource-id leaf, text, content-desc, bounds."""

    cls: str
    rid: str = ""
    text: str = ""
    desc: str = ""
    bounds: tuple[int, int, int, int] = (0, 0, 0, 0)
    children: list["Node"] = field(default_factory=list)

    def walk(self, depth: int = 0):
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def center(self) -> tuple[int, int]:
        left, top, right, bottom = self.bounds
        return (left + right) // 2, (top + bottom) // 2


@dataclass
class App:
    """A generated app: screens and the gestures that move between them.

    moves maps (screen, gesture, subject) to the next screen or CRASH, where
    gesture is tap, double_tap, long_tap or input and the subject a
    resource-id leaf, or gesture is scroll and the subject a direction.
    typed maps (screen, leaf) to the only value an input move accepts.
    back maps a screen to where the Back key leads; screens not in it
    ignore Back.
    """

    package: str
    screens: dict[str, Node]
    initial: str
    moves: dict[tuple[str, str, str], str]
    typed: dict[tuple[str, str], str] = field(default_factory=dict)
    back: dict[str, str] = field(default_factory=dict)
    _xml: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def activity(self) -> str:
        return f"{self.package}/.MainActivity"

    def xml(self, screen: str) -> str:
        if screen not in self._xml:
            self._xml[screen] = render_dump(self.screens[screen], self.package)
        return self._xml[screen]

    def find(self, screen: str, leaf: str) -> Node:
        for node, _ in self.screens[screen].walk():
            if node.rid == leaf:
                return node
        raise KeyError(f"{leaf} not on {screen}")


LAUNCHER_TREE = Node("android.widget.FrameLayout", "", "", "", (0, 0, *SCREEN), [
    Node("android.widget.TextView", "clock", "12:00", "", (0, 200, 1080, 400)),
    Node("android.widget.ImageView", "", "", "Apps", (440, 1700, 640, 1900)),
])


def render_dump(root: Node, package: str) -> str:
    """UIAutomator's dump format, on one line like the real tool writes it."""
    parts = ["<?xml version='1.0' encoding='UTF-8' standalone='yes' ?><hierarchy rotation=\"0\">"]

    def emit(node: Node, index: int) -> None:
        left, top, right, bottom = node.bounds
        clickable = "true" if node.rid and not node.children else "false"
        rid = f"{package}:id/{node.rid}" if node.rid else ""
        parts.append(
            f"<node index=\"{index}\" text={quoteattr(node.text)} resource-id={quoteattr(rid)} "
            f"class=\"{node.cls}\" package=\"{package}\" content-desc={quoteattr(node.desc)} "
            f"checkable=\"false\" checked=\"false\" clickable=\"{clickable}\" enabled=\"true\" "
            f"focusable=\"{clickable}\" focused=\"false\" scrollable=\"false\" "
            f"long-clickable=\"{clickable}\" password=\"false\" selected=\"false\" "
            f"bounds=\"[{left},{top}][{right},{bottom}]\""
        )
        if node.children:
            parts.append(">")
            for i, child in enumerate(node.children):
                emit(child, i)
            parts.append("</node>")
        else:
            parts.append(" />")

    emit(root, 0)
    parts.append("</hierarchy>")
    return "".join(parts)


class Phone:
    """One device running one app; gestures follow the app's moves.

    A tap hits the deepest node under the point that has a move for the
    gesture, else the deepest node, which then takes focus for typed text.
    A tap right after a tap on the same point of the same screen is a
    double tap. A swipe that stays in place for at least LONG_PRESS_MS is a
    long press. Entering CRASH kills the app and writes a fatal exception
    to the crash log buffer.
    """

    def __init__(self, app: App):
        self.app = app
        self.screen: str | None = None
        self.crash_log = ""
        self.files: dict[str, str] = {}
        self._focused: str | None = None
        self._last_tap: tuple | None = None

    @property
    def crashed(self) -> bool:
        return "FATAL EXCEPTION" in self.crash_log

    # -- gestures -------------------------------------------------------
    def _hit(self, x: int, y: int, gesture: str) -> Node | None:
        best = None
        for node, depth in self.app.screens[self.screen].walk():
            left, top, right, bottom = node.bounds
            if not (left <= x < right and top <= y < bottom):
                continue
            keyed = (self.screen, gesture, node.rid) in self.app.moves
            rank = (keyed, depth)
            if best is None or rank > best[0]:
                best = (rank, node)
        return best[1] if best else None

    def _move(self, gesture: str, subject: str) -> None:
        target = self.app.moves.get((self.screen, gesture, subject))
        if target is None:
            return
        self._focused = None
        if target == CRASH:
            self.crash_log += FATAL.format(package=self.app.package)
            self.screen = None
        else:
            self.screen = target

    def tap(self, x: int, y: int) -> None:
        if self.screen is None:
            return
        here = (self.screen, x, y)
        if self._last_tap == here:
            self._last_tap = None
            node = self._hit(x, y, "double_tap")
            if node is not None and (self.screen, "double_tap", node.rid) in self.app.moves:
                self._move("double_tap", node.rid)
                return
        node = self._hit(x, y, "tap")
        if node is None:
            return
        self._last_tap = here
        self._focused = node.rid
        self._move("tap", node.rid)

    def swipe(self, x1: int, y1: int, x2: int, y2: int, ms: int) -> None:
        if self.screen is None:
            return
        if (x1, y1) == (x2, y2):
            node = self._hit(x1, y1, "long_tap")
            if ms >= LONG_PRESS_MS and node is not None:
                self._move("long_tap", node.rid)
            return
        dx, dy = x2 - x1, y2 - y1
        if abs(dy) >= abs(dx):
            direction = "up" if dy < 0 else "down"
        else:
            direction = "left" if dx < 0 else "right"
        self._move("scroll", direction)

    def type_text(self, value: str) -> None:
        if self.screen is None or self._focused is None:
            return
        if self.app.typed.get((self.screen, self._focused)) == value:
            self._move("input", self._focused)

    def press_back(self) -> None:
        if self.screen in self.app.back:
            self.screen = self.app.back[self.screen]
            self._focused = None

    def launch(self) -> None:
        if self.screen is None:
            self.screen = self.app.initial
            self._focused = None

    def force_stop(self) -> None:
        self.screen = None
        self._focused = None

    def idle(self) -> None:
        """Let time pass: the next tap can no longer complete a double tap."""
        self._last_tap = None

    def apply(self, gestures) -> None:
        """Replay a trace's raw gesture log from a fresh launch, no model."""
        self.launch()
        for kind, *args in gestures:
            if kind == "tap":
                self.tap(*args)
            elif kind == "double_tap":
                self.tap(*args)
                self.tap(*args)
            elif kind == "long_tap":
                self.swipe(*args, *args, 800)
            elif kind == "swipe":
                self.swipe(*args, 300)
            elif kind == "text":
                self.type_text(*args)
            elif kind == "back":
                self.press_back()
            elif kind == "restart":
                self.force_stop()
                self.crash_log = ""
                self.launch()
            else:
                raise ValueError(f"unknown gesture {kind!r}")
            self.idle()

    # -- adb command set ------------------------------------------------
    def command(self, args: list[str]) -> tuple[int, str]:
        """Answer one adb invocation (serial already stripped)."""
        if args[1:2] != ["input"]:
            self.idle()
        if args[:1] == ["logcat"]:
            if args[1:] == ["-c"]:
                self.crash_log = ""
                return 0, ""
            if args[1:] == ["-d", "-b", "crash"]:
                return 0, self.crash_log
            return 1, f"logcat: unsupported {args[1:]}"
        if args[:1] != ["shell"] or len(args) < 2:
            return 1, f"adb: unsupported command {args}"
        cmd, rest = args[1], args[2:]
        if cmd == "wm" and rest == ["size"]:
            return 0, f"Physical size: {SCREEN[0]}x{SCREEN[1]}\n"
        if cmd == "uiautomator" and len(rest) == 2 and rest[0] == "dump":
            tree = self.app.xml(self.screen) if self.screen else render_dump(LAUNCHER_TREE, "com.android.launcher3")
            self.files[rest[1]] = tree
            return 0, f"UI hierchary dumped to: {rest[1]}\n"
        if cmd == "cat" and len(rest) == 1:
            if rest[0] not in self.files:
                return 1, f"cat: {rest[0]}: No such file or directory"
            return 0, self.files[rest[0]]
        if cmd == "input" and rest:
            return self._input(rest)
        if cmd == "am" and rest[:1] == ["force-stop"] and len(rest) == 2:
            if rest[1] == self.app.package:
                self.force_stop()
            return 0, ""
        if cmd == "am" and rest[:2] == ["start", "-n"] and len(rest) == 3:
            if rest[2] != self.app.activity:
                return 1, f"Error: Activity class {rest[2]} does not exist."
            self.launch()
            return 0, f"Starting: Intent {{ cmp={rest[2]} }}\n"
        if cmd == "dumpsys" and rest == ["activity", "activities"]:
            front = self.app.activity if self.screen else LAUNCHER
            return 0, f"  mResumedActivity: ActivityRecord{{5e1c u0 {front} t17}}\n"
        return 1, f"/system/bin/sh: unsupported: {' '.join(args[1:])}"

    def _input(self, rest: list[str]) -> tuple[int, str]:
        verb, params = rest[0], rest[1:]
        try:
            if verb == "tap" and len(params) == 2:
                self.tap(int(params[0]), int(params[1]))
                return 0, ""
            if verb == "swipe" and len(params) in (4, 5):
                x1, y1, x2, y2 = (int(p) for p in params[:4])
                ms = int(params[4]) if len(params) == 5 else 300
                self.idle()
                self.swipe(x1, y1, x2, y2, ms)
                return 0, ""
        except ValueError:
            return 1, f"input: bad coordinates {params}"
        self.idle()
        if verb == "text" and params:
            # the device shell undoes adb's quoting; %s stands for a space
            value = " ".join(shlex.split(" ".join(params))).replace("%s", " ")
            self.type_text(value)
            return 0, ""
        if verb == "keyevent" and params == ["KEYCODE_BACK"]:
            self.press_back()
            return 0, ""
        return 1, f"input: unsupported {rest}"


def command_kind(args: list[str]) -> str:
    """uiautomator, cat, input, logcat, dumpsys, am or wm."""
    if args[:1] == ["shell"] and len(args) > 1:
        return args[1]
    return args[0] if args else "?"


@dataclass
class AdbCall:
    kind: str
    handler_s: float


class AdbServer:
    """Serves phones by serial to the adb client over 127.0.0.1.

    Requests are handled one at a time on the serving thread: the benchmark
    runs one client, and a thread per connection only adds jitter.
    """

    def __init__(self, dump_latency: float, call_latency: float):
        self.dump_latency = dump_latency
        self.call_latency = call_latency
        self.phones: dict[str, Phone] = {}
        self.calls: list[AdbCall] = []
        self._lock = threading.Lock()
        self._server: socketserver.TCPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Start serving; returns the port the adb client must connect to."""
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            timeout = 30

            def handle(self):
                try:
                    args = _read_args(self.rfile)
                except (EOFError, ValueError, OSError):
                    return
                started = time.perf_counter()
                code, out = outer.handle(args)
                payload = out.encode("utf-8")
                # logged before the reply, so the caller never outruns its record
                outer._log(args, time.perf_counter() - started)
                self.wfile.write(f"{code} {len(payload)}\n".encode() + payload)

        self._server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self._server.server_address[1]

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None

    def handle(self, args: list[str]) -> tuple[int, str]:
        serial = None
        if args[:1] == ["-s"] and len(args) >= 2:
            serial, args = args[1], args[2:]
        time.sleep(self.dump_latency if command_kind(args) in DUMP_KINDS else self.call_latency)
        with self._lock:
            phone = self.phones.get(serial)
            if phone is None:
                return 1, f"adb: device '{serial}' not found"
            return phone.command(args)

    def _log(self, args: list[str], handler_s: float) -> None:
        kind = command_kind(args[2:] if args[:1] == ["-s"] else args)
        with self._lock:
            self.calls.append(AdbCall(kind, handler_s))


def _read_args(rfile) -> list[str]:
    def field_() -> str:
        buf = bytearray()
        while True:
            b = rfile.read(1)
            if not b:
                raise EOFError
            if b == b"\0":
                return buf.decode("utf-8")
            buf += b

    count = int(field_())
    return [field_() for _ in range(count)]
