"""Device sessions: a real device over adb, or a simulated app.

A session makes gestures given as the tuples a replay trace logs, in a
list that `perform` runs in order: ("tap", x, y), ("double_tap", x, y),
("long_tap", x, y), ("swipe", x1, y1, x2, y2), ("text", value), ("back",)
and ("restart",); a gesture of another kind raises ValueError, and its
coordinates come from a dump. A session also dumps the view hierarchy and
says whether the app has crashed.

The simulated app is a finite state machine: named states each hold a
view tree, and transitions map (state, gesture, subject) to a successor
state. Gestures address components by the preorder id of the source
state's full encoding; unmapped gestures are no-ops, except that an
unmapped double tap is two taps; crash states model the bug firing. App
spec files are JSON::

    {
      "initial": "home",
      "crash_states": ["boom"],
      "states": {"home": {"tree": {...}}, "other": {"xml": "<node .../>"}},
      "transitions": [
        {"from": "home", "action": "tap", "id": 2, "to": "menu"},
        {"from": "menu", "action": "scroll", "direction": "down", "to": "menu2"},
        {"from": "menu", "action": "back", "to": "home"}
      ]
    }

Tree literals use keys class (a string), resource_id, text and
content_desc (each a string or null), bounds [l, t, r, b] (four integers)
and children (a list of tree literals).
"""
from __future__ import annotations

import json
import logging
import re
import shlex
import subprocess
import time
from abc import ABC, abstractmethod
from pathlib import Path

from .errors import DeviceError
from .gui import Bounds, ViewNode, encode_gui, parse_dump
from .steps import Direction

logger = logging.getLogger(__name__)


class DeviceSession(ABC):
    """The surface shared by real and simulated devices. package, if known,
    is the app's: a dump whose root names it shows the app's own window."""

    package: str | None = None

    @abstractmethod
    def dump_hierarchy(self) -> ViewNode: ...

    @abstractmethod
    def perform(self, gestures: list[tuple]) -> None: ...

    @abstractmethod
    def crashed(self) -> bool: ...


def _tree_from_literal(data: dict) -> ViewNode:
    for key in ("class", "resource_id", "text", "content_desc"):
        value = data.get(key, "")
        if not (isinstance(value, str) or value is None and key != "class"):
            raise ValueError(f"tree field {key!r} must be a string, not {value!r}")
    bounds = data.get("bounds")
    if bounds is not None and not (isinstance(bounds, (list, tuple)) and len(bounds) == 4
                                   and all(type(v) is int for v in bounds)):
        raise ValueError(f"tree field 'bounds' must be four integers, not {bounds!r}")
    return ViewNode(
        class_name=data.get("class", "android.widget.FrameLayout"),
        resource_id=data.get("resource_id"),
        text=data.get("text"),
        content_desc=data.get("content_desc"),
        bounds=Bounds(*bounds) if bounds else Bounds(0, 0, 0, 0),
        children=[_tree_from_literal(c) for c in data.get("children", [])],
    )


class SimulatedApp:
    """Immutable app description, read from a spec dict in the format
    above; sessions hold the moving parts."""

    def __init__(self, spec: dict):
        self.states: dict[str, ViewNode] = {}
        for name, body in spec["states"].items():
            if "tree" in body:
                self.states[name] = _tree_from_literal(body["tree"])
            elif "xml" in body:
                self.states[name] = parse_dump(body["xml"])
            else:
                raise ValueError(f"state {name!r} needs a 'tree' or 'xml' entry")
        if not self.states:
            raise ValueError("simulated app needs at least one state")
        self.initial = spec["initial"]
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} is not defined")
        crash_states = spec.get("crash_states", [])
        if not isinstance(crash_states, list):
            raise ValueError(f"crash_states must be a list, not {crash_states!r}")
        for name in crash_states:
            if name not in self.states:
                raise ValueError(f"crash state {name!r} is not defined")
        self.crash_states = frozenset(crash_states)
        # each state's nodes as (depth, id, node), ids of its full
        # encoding, deepest first and then the later id: a tap's hit order
        self.hit_order: dict[str, list[tuple[int, int, ViewNode]]] = {}
        for name, tree in self.states.items():
            depths = {id(tree): 0}
            order = self.hit_order[name] = []
            for nid, node in encode_gui(tree).index.items():
                depths.update((id(child), depths[id(node)] + 1) for child in node.children)
                order.append((depths[id(node)], nid, node))
            order.sort(key=lambda hit: hit[:2], reverse=True)
        # (state, gesture kind, subject) -> the state it leads to
        self.transitions: dict[tuple, str] = {}
        for t in spec.get("transitions", []):
            state, kind, target = t["from"], t["action"].replace("-", "_"), t["to"]
            if state not in self.states:
                raise ValueError(f"transition from unknown state {state!r}")
            if target not in self.states:
                raise ValueError(f"transition to unknown state {target!r}")
            if kind in ("tap", "double_tap", "long_tap", "input"):
                subject = t["id"]
                count = len(self.hit_order[state])
                if type(subject) is not int or not 0 <= subject < count:
                    raise ValueError(f"transition {(state, kind, subject)} cites id outside 0..{count - 1}")
            elif kind == "scroll":
                subject = t["direction"]
                if subject not in {d.value for d in Direction}:
                    raise ValueError(f"transition {(state, kind, subject)} has unknown direction")
            elif kind == "back":
                subject = None
            else:
                raise ValueError(f"unknown gesture kind {kind!r}")
            if (state, kind, subject) in self.transitions:
                raise ValueError(f"transition {(state, kind, subject)} is given twice")
            self.transitions[(state, kind, subject)] = target

    @classmethod
    def load(cls, path) -> "SimulatedApp":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


class SimulatedDevice(DeviceSession):
    """Deterministic in-memory device over a SimulatedApp.

    Taps hit-test against the current tree: among nodes containing the
    point, the deepest one with a transition for the gesture wins, else
    the deepest plain node. A double tap whose hit has no double-tap
    transition is two taps at that point, as Android reads it on a view
    with no double-tap listener. Typed text goes to the node the last
    plain tap hit; a double tap that has its transition, and a long tap,
    leave that focus alone. A swipe is a scroll in the direction its
    larger leg moves, vertical on a tie; one that stays in place, as a
    Scroll across a root with no bounds does, scrolls nothing. All session
    state lives here, so any number of sessions can share one app.
    """

    def __init__(self, app: SimulatedApp):
        self.app = app
        self.current = app.initial
        self._focused: int | None = None

    def _hit(self, x: int, y: int, kind: str) -> int | None:
        containing = [
            nid
            for _, nid, node in self.app.hit_order[self.current]
            if node.bounds.left <= x < max(node.bounds.right, node.bounds.left + 1)
            and node.bounds.top <= y < max(node.bounds.bottom, node.bounds.top + 1)
        ]
        keyed = [nid for nid in containing if (self.current, kind, nid) in self.app.transitions]
        return (keyed or containing)[0] if containing else None

    def takes_double_tap(self, x: int, y: int) -> bool:
        """Whether the node a double tap at (x, y) hits has a double-tap transition here."""
        return (self.current, "double_tap", self._hit(x, y, "double_tap")) in self.app.transitions

    def dump_hierarchy(self) -> ViewNode:
        return self.app.states[self.current]

    def perform(self, gestures: list[tuple]) -> None:
        for gesture in gestures:
            kind, *args = gesture
            if kind == "restart":
                self.current, self._focused = self.app.initial, None
                continue
            if kind == "double_tap" and not self.takes_double_tap(*args):
                self.perform([("tap", *args)] * 2)
                continue
            # a tap that hits nothing, or text with nothing focused, has
            # subject None, which no such transition has
            if kind in ("tap", "double_tap", "long_tap"):
                subject = self._hit(*args, kind)
                if kind == "tap":
                    self._focused = subject
            elif kind == "swipe":
                x1, y1, x2, y2 = args
                dx, dy = x2 - x1, y2 - y1
                if not dx and not dy:
                    kind, subject = "scroll", None
                elif abs(dy) >= abs(dx):
                    kind, subject = "scroll", "up" if dy < 0 else "down"
                else:
                    kind, subject = "scroll", "left" if dx < 0 else "right"
            elif kind == "text":
                kind, subject = "input", self._focused
            elif kind == "back":
                subject = None
            else:
                raise ValueError(f"unknown gesture {gesture!r}")
            target = self.app.transitions.get((self.current, kind, subject))
            if target is not None:
                logger.debug("%s on %s -> %s", gesture, self.current, target)
                self.current = target

    def crashed(self) -> bool:
        return self.current in self.app.crash_states


# seconds one adb call may take before it counts as hung
ADB_TIMEOUT_SECONDS = 120


class _Output(str):
    """A command's stdout, and its stderr as .stderr; a stand-in runner may return a plain str."""


def _run_subprocess(argv: list[str]) -> str:
    """Run one command with an empty stdin and return its stdout, read as
    UTF-8 with replacement characters and universal newlines, and its stderr,
    which adb fills with daemon notices, as the text's .stderr.

    One subprocess.run waits for the exit and the end of the output under
    one deadline of ADB_TIMEOUT_SECONDS; a child still running at it is
    killed and reaped.
    """
    try:
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=ADB_TIMEOUT_SECONDS)
    except OSError as exc:
        raise DeviceError(f"cannot run {argv[0]}: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        # exc.timeout can be the time left in the last wait, not the deadline
        raise DeviceError(f"{' '.join(argv)} timed out after {ADB_TIMEOUT_SECONDS} s") from exc
    out, err = (data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
                for data in (proc.stdout, proc.stderr))
    if proc.returncode != 0:
        raise DeviceError(f"{' '.join(argv)} exited {proc.returncode}: {err.strip()}")
    result = _Output(out)
    result.stderr = err
    return result


class AdbDevice(DeviceSession):
    """Drives a device through adb shell input commands.

    The exact command strings are part of this module's contract:

        tap         input tap X Y
        double tap  input tap X Y            (twice; see below)
        long tap    input swipe X Y X Y 800
        swipe       input swipe X1 Y1 X2 Y2 300
        text        input text VALUE         (spaces become %s; VALUE splits inside
                                              each literal %s, one call per part)
        back        input keyevent KEYCODE_BACK

    A double tap's second call starts DOUBLE_TAP_GAP_SECONDS after the
    first returns, so its taps land that gap plus one adb call's latency apart.
    `perform` sends each gesture through the method below that makes its
    command, one adb call per `input` command, each word quoted for the device shell.

    A runner callable can replace subprocess execution for tests.
    """

    DOUBLE_TAP_GAP_SECONDS = 0.05
    LONG_TAP_MS = 800
    SWIPE_MS = 300
    DUMP_PATH = "/sdcard/window_dump.xml"
    DUMP_ATTEMPTS = 2
    # each gesture kind and the method that sends its command
    _METHODS = {"tap": "tap", "double_tap": "double_tap", "long_tap": "long_tap", "swipe": "swipe",
                "text": "type_text", "back": "press_back", "restart": "restart"}

    def __init__(self, serial: str | None = None, adb_path: str = "adb", package: str | None = None,
                 launch_command: str | None = None, runner=None):
        self._prefix = [adb_path, "-s", serial] if serial else [adb_path]
        self.package = package
        # split now, so that a command of no words or that the shell cannot parse fails here
        self._launch = shlex.split(launch_command or "")
        if launch_command is not None and not any(self._launch):
            raise ValueError(f"launch command {launch_command!r} holds no command")
        self._runner = runner or _run_subprocess

    def _adb(self, *args: str) -> str:
        return self._runner([*self._prefix, *args])

    def _shell(self, *words) -> str:
        # adb joins the words after shell with plain spaces for the device shell to split again
        return self._adb("shell", *(shlex.quote(str(word)) for word in words))

    def dump_hierarchy(self) -> ViewNode:
        # a dump can fail ("ERROR: could not get idle state.", on either stream)
        # and still exit 0, leaving the last dump's file; only this line says it
        # wrote one, and a file that does not parse counts as a failed dump too
        for _ in range(self.DUMP_ATTEMPTS):
            out = self._shell("uiautomator", "dump", self.DUMP_PATH)
            reason = f"{out.strip()}\n{getattr(out, 'stderr', '').strip()}".strip() or "no output"
            if "dumped to:" in out:
                xml = self._shell("cat", self.DUMP_PATH)
                try:
                    return parse_dump(xml)
                except DeviceError as exc:
                    reason = str(exc)
        raise DeviceError(f"uiautomator dump failed {self.DUMP_ATTEMPTS} times: {reason}")

    def perform(self, gestures: list[tuple]) -> None:
        for gesture in gestures:
            kind, *args = gesture
            if kind not in self._METHODS:
                raise ValueError(f"unknown gesture {gesture!r}")
            getattr(self, self._METHODS[kind])(*args)

    def tap(self, x: int, y: int) -> None:
        self._shell("input", "tap", x, y)

    def double_tap(self, x: int, y: int) -> None:
        self._shell("input", "tap", x, y)
        time.sleep(self.DOUBLE_TAP_GAP_SECONDS)
        self._shell("input", "tap", x, y)

    def long_tap(self, x: int, y: int) -> None:
        self._shell("input", "swipe", x, y, x, y, self.LONG_TAP_MS)

    def swipe(self, x1: int, y1: int, x2: int, y2: int) -> None:
        self._shell("input", "swipe", x1, y1, x2, y2, self.SWIPE_MS)

    def type_text(self, text: str) -> None:
        # input text reads every %s as a space, a literal one too
        for part in re.split(r"(?<=%)(?=s)", text):
            self._shell("input", "text", part.replace(" ", "%s"))

    def press_back(self) -> None:
        self._shell("input", "keyevent", "KEYCODE_BACK")

    def restart(self) -> None:
        if self.package:
            self._shell("am", "force-stop", self.package)
        self._adb("logcat", "-c")
        if self._launch:
            self._shell(*self._launch)

    def crashed(self) -> bool:
        """Whether the crash buffer holds a Java crash (a FATAL EXCEPTION
        whose Process: line names the package) or a native one (a Fatal
        signal line naming it), of the package or one of its :sub
        processes; with no package configured, of any process. Another
        app in front is not a crash."""
        log = self._adb("logcat", "-d", "-b", "crash")
        if not self.package:
            return "FATAL EXCEPTION" in log or "Fatal signal" in log
        ours = re.escape(self.package)
        return bool(
            re.search(rf"FATAL EXCEPTION.*\n.*Process: {ours}[,:\s]", log)
            or re.search(rf"Fatal signal .*\({ours}[):]", log)
        )
