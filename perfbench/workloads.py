"""Seeded workload generator and the independent pre-check of its output.

Each workload is a pool of scenarios. A scenario is a bug report, the
model answers for it (extraction answers plus a guidance answer key), and,
for the replay workloads, the app it crashes. The pool's structure (report
lengths, action mix, omitted steps, decoys) is fixed per workload, so that
per-report figures do not drift between seeds; the seed picks everything
else: labels, screens, which steps get which action, which run deviates.

Nothing here imports bugreplay. The pre-check walks every scenario on a
fresh emulated phone and asserts that the key steps reach the crash, so a
generator bug fails the run instead of reading as a regression.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from emulator import CRASH, SCREEN, App, Node, Phone

WORKLOADS = ("extract-vote", "replay-direct", "replay-detour")

TITLES = [
    "Inbox", "Archive", "Settings", "Profile", "Edit profile", "Notifications", "Privacy",
    "Storage", "Accounts", "Backup", "Labels", "Drafts", "Calendar", "Event details",
    "New event", "Contacts", "Contact details", "Photos", "Album", "Playlist", "Library",
    "Downloads", "Filters", "Cart", "Checkout", "Orders", "Order details", "Wallet",
    "Transfers", "Budget", "Reports", "Tasks", "Task details", "Projects", "Notes",
    "Note editor", "Reminders", "Display", "Sounds", "Language", "About", "Help",
    "Feedback", "Security", "Devices", "Sync", "Trash", "Favorites", "History",
    "Bookmarks", "Reading list", "Messages", "Conversation", "Groups", "Members",
    "Invitations", "Map", "Places", "Routes", "Subscriptions",
]
ROW_LABELS = [
    "Weekly sync", "Grocery list", "Trip to Lisbon", "Tax documents", "Birthday party",
    "Gym plan", "Reading notes", "Project Atlas", "Budget draft", "Team lunch", "Dentist",
    "Car service", "Recipes", "Book club", "Garden plans", "Quarterly review",
    "Design review", "Invoices", "Travel insurance", "Wedding guests", "Packing list",
    "Movie night", "School forms", "Rent receipts", "Bike repair", "Piano lessons",
    "Conference talk", "Lab results", "Hiking route", "Yoga class", "Family photos",
    "Holiday cards", "Phone bill", "Pet vaccines", "Moving boxes", "Code review",
    "Release notes", "Client call", "Sprint board", "Podcast ideas", "Camping gear",
    "Museum tickets", "Coffee beans", "Running log", "Guitar chords", "Kitchen remodel",
    "Language course", "Photo contest", "Beach house", "Volunteer shift",
]
# Button labels, with a paraphrase a reporter might use instead.
BUTTONS = {
    "Delete": "Remove it", "Save": "Keep changes", "Share": "Send to a friend",
    "Archive": "Put away", "Export": "Download a copy", "Sync now": "Synchronize",
    "Refresh": "Reload", "Add": "Create new", "Done": "Finish", "Apply": "Confirm",
    "Send": "Submit", "Upload": "Attach file", "Rename": "Change the name",
    "Move": "Relocate", "Copy link": "Get the link", "Print": "Make a printout",
    "Duplicate": "Clone", "Pin": "Stick to top",
}
# Field labels, with a paraphrase and a value to type.
FIELDS = {
    "Name": ("full name", "Alice Moreau"), "Email": ("email address", "alice@example.com"),
    "Phone": ("phone number", "5550100"), "Title": ("heading", "Weekly sync"),
    "Amount": ("sum", "42"), "Comment": ("remark", "Looks good"),
    "Address": ("street", "12 Rue Verte"), "City": ("town", "Lyon"),
    "Nickname": ("alias", "ally"), "Subject": ("topic", "Crash report"),
}
BRIDGES = ["More", "Show all", "Advanced", "Options", "Details", "Continue", "Open menu", "Next"]
WORDS = (
    "updated shared synced edited moved added pending draft final urgent weekly monthly "
    "with Maria from Tom by Lea three items two photos a comment attached offline since "
    "yesterday morning last week on Friday via email in review approved archived starred"
).split()
DIRECTIONS = ["up", "down", "left", "right"]
ROW_COUNTS = (6, 10, 14, 8, 12)

# Action mix per report length; the seed shuffles the order. Fixing the
# multiset keeps per-report device and model work the same across seeds.
DIRECT_MIX = ["Tap", "Input", "Double-tap", "Long-tap", "Scroll", "Tap", "Tap", "Input",
              "Long-tap", "Double-tap", "Scroll", "Tap"]
DETOUR_MIX = ["Tap", "Input", "Tap", "Long-tap", "Tap", "Tap", "Input", "Tap"]
EXTRACT_SIZES = range(3, 13)
DIRECT_SIZES = range(4, 11)
# Per detour report: full steps, the positions of the navigation steps the
# report omits, and the positions whose first answer is a decoy. Fixed
# positions keep backtrack and restore work per report the same across
# seeds; an odd count puts the median on one report rather than between two.
DETOUR_SHAPES = [
    (4, (1,), (2,)), (5, (0, 2), (3,)), (7, (1, 4), (2, 5)), (4, (0,), (1,)),
    (5, (3,), (0, 1)), (6, (1, 3), (4,)), (7, (2,), (1, 4)),
]
DEVIATIONS = ("different", "no_numbers", "malformed")


def norm(text: str) -> str:
    return " ".join(text.replace("_", " ").casefold().split())


@dataclass(frozen=True)
class Step:
    """A reproduction step as the report states it."""

    action: str
    component: str | None = None
    value: str | None = None
    direction: str | None = None

    def text(self) -> str:
        parts = [f"[{self.action}]"]
        if self.component is not None:
            parts.append(f'["{self.component}"]')
        if self.value is not None:
            parts.append(f'["{self.value}"]')
        if self.direction is not None:
            parts.append(f"[{self.direction}]")
        return " ".join(parts)


def render(steps: list[Step]) -> str:
    """The numbered list format of an extracted step list."""
    return "\n".join(f"{i}. {s.text()}" for i, s in enumerate(steps, 1))


@dataclass(frozen=True)
class Plan:
    """The oracle's answer to one (screen title, step) query.

    It cites target, unless decoy is set and not yet excluded; with missing
    set, target is a navigation component to explore, answered as
    [MISSING] [id=...].
    """

    target: str
    decoy: str | None = None
    missing: bool = False


@dataclass(frozen=True)
class Move:
    """One gesture of the walk that reaches the crash."""

    screen: str
    gesture: str
    subject: str
    value: str | None = None
    reported: bool = True
    component: str | None = None


@dataclass(frozen=True)
class Decoy:
    screen: str
    leaf: str
    dead_end: str
    honours_back: bool


@dataclass
class Scenario:
    id: str
    workload: str
    report: str
    steps: list[Step]
    extraction: list[str]
    app: App | None = None
    key: dict[tuple[str, str], Plan] = field(default_factory=dict)
    walk: list[Move] = field(default_factory=list)
    decoys: list[Decoy] = field(default_factory=list)

    @property
    def expected_steps(self) -> str:
        return render(self.steps) + "\n"


# -- report text and model answers -----------------------------------------

def _prose(rng: random.Random, step: Step) -> str:
    c, v = step.component, step.value
    choices = {
        "Tap": [f'Tap "{c}"', f'Click on "{c}"', f'Open "{c}"', f'Select "{c}"'],
        "Input": [f'Type "{v}" into the "{c}" field', f'Enter "{v}" as the "{c}"'],
        "Double-tap": [f'Double tap "{c}"', f'Quickly tap "{c}" twice'],
        "Long-tap": [f'Long press "{c}"', f'Press and hold "{c}"'],
        "Scroll": [f"Scroll {step.direction}", f"Scroll the list {step.direction}"],
    }[step.action]
    return rng.choice(choices)


def _report(rng: random.Random, steps: list[Step]) -> str:
    lines = [
        f"Crash in build {rng.randint(100, 999)} on a Pixel {rng.randint(4, 8)} with Android {rng.randint(10, 14)}.",
        "Steps to reproduce:",
    ]
    lines += [f"{i}. {_prose(rng, s)}" for i, s in enumerate(steps, 1)]
    lines.append("Expected: the action completes. Actual: the app closes with an error.")
    return "\n".join(lines)


def _answer(steps: list[Step]) -> str:
    reasoning = [f"Step {i} maps to the {s.action} action of the vocabulary."
                 for i, s in enumerate(steps, 1)]
    return "\n".join(reasoning + ["Overall, the extracted S2R entities are:", render(steps)])


def _deviant(rng: random.Random, steps: list[Step], kind: str) -> str:
    if kind == "no_numbers":
        return "The report only describes the crash; I cannot find reproduction steps in it."
    if kind == "malformed":
        lines = _answer(steps).splitlines()
        k = rng.randrange(len(steps))
        lines[len(lines) - len(steps) + k] = f'{k + 1}. [Open] ["{steps[k].component or "menu"}"]'
        return "\n".join(lines)
    return _answer(steps[:-1])


# -- screens ---------------------------------------------------------------

@dataclass
class Layout:
    """What one screen shows; build() turns it into a view tree."""

    title: str
    rows: list[str]
    buttons: list[str]
    fields: list[str] = field(default_factory=list)
    subtitles: list[str] = field(default_factory=list)

    def leaf(self, kind: str, label: str, nth: int = 0) -> str:
        items = {"row": self.rows, "button": self.buttons, "field": self.fields}[kind]
        k = [i for i, x in enumerate(items) if x == label][nth]
        return {"row": f"row{k}_title", "button": f"action_{k}", "field": f"input_{k}"}[kind]

    def build(self) -> Node:
        w, h = SCREEN
        v = "android.view.View"
        fl, ll = "android.widget.FrameLayout", "android.widget.LinearLayout"
        toolbar = Node(ll, "toolbar", bounds=(0, 0, w, 168), children=[
            Node("android.widget.ImageButton", "nav_up", desc="Navigate up", bounds=(0, 24, 120, 144)),
            Node("android.widget.TextView", "toolbar_title", self.title, bounds=(140, 40, 800, 128)),
            Node("android.widget.ImageView", "overflow", desc="More options", bounds=(960, 24, 1080, 144)),
        ])
        main = [toolbar]
        top = 168
        if self.fields:
            form = Node(ll, "form", bounds=(0, top, w, top + 120 * len(self.fields)))
            for k, label in enumerate(self.fields):
                form.children.append(Node("android.widget.EditText", f"input_{k}", label,
                                          bounds=(40, top + 5, 1040, top + 115)))
                top += 120
            main.append(form)
        bottom = h - 160
        rh = (bottom - top) // len(self.rows)
        rows = []
        for k, label in enumerate(self.rows):
            y = top + k * rh
            rows.append(Node(ll, f"row{k}", bounds=(0, y, w, y + rh), children=[
                Node(fl, bounds=(16, y + 4, 112, y + rh - 4), children=[
                    Node("android.widget.ImageView", f"row{k}_icon", desc=f"{label} icon",
                         bounds=(24, y + 8, 104, y + rh - 8)),
                ]),
                Node(ll, f"row{k}_text", bounds=(128, y + 2, 940, y + rh - 2), children=[
                    Node("android.widget.TextView", f"row{k}_title", label,
                         bounds=(128, y + 2, 940, y + rh // 2)),
                    Node("android.widget.TextView", f"row{k}_subtitle", self.subtitles[k],
                         bounds=(128, y + rh // 2, 940, y + rh - 2)),
                ]),
                Node("android.widget.ImageView", f"row{k}_more", desc=f"More options for {label}",
                     bounds=(960, y + 8, 1064, y + rh - 8)),
            ]))
        main.append(Node("androidx.recyclerview.widget.RecyclerView", "list", bounds=(0, top, w, bottom),
                         children=rows))
        bw = w // len(self.buttons)
        main.append(Node(ll, "bottom_bar", bounds=(0, bottom, w, h), children=[
            Node("android.widget.Button", f"action_{k}", label, bounds=(k * bw, bottom + 20, (k + 1) * bw, h - 20))
            for k, label in enumerate(self.buttons)
        ]))
        return Node(fl, bounds=(0, 0, w, h), children=[
            Node(ll, "action_bar_root", bounds=(0, 0, w, h), children=[
                Node(fl, "content", bounds=(0, 0, w, h), children=[
                    Node(ll, "main", bounds=(0, 0, w, h), children=main),
                ]),
            ]),
            Node(v, "navigationBarBackground", bounds=(0, h - 1, w, h)),
        ])


class ScreenMaker:
    """Fills screens with seeded labels around the components a flow needs.

    Row counts cycle through ROW_COUNTS screen by screen rather than being
    drawn, so prompt sizes per report stay put across seeds."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.made = 0

    def subtitle(self, big: bool) -> str:
        n = self.rng.randint(58, 64) if big else self.rng.randint(3, 7)
        return " ".join(self.rng.choice(WORDS) for _ in range(n)).capitalize()

    def layout(self, title: str, *, big: bool = False, rows=(), buttons=(), fields=(),
               avoid=()) -> Layout:
        """A screen holding the given rows, buttons and fields (in seeded
        positions) plus filler; no filler text equals anything in avoid."""
        taken = {norm(x) for x in (*rows, *buttons, *fields, *avoid, title)}
        n_rows = 20 if big else ROW_COUNTS[self.made % len(ROW_COUNTS)]
        self.made += 1
        filler = [x for x in ROW_LABELS if norm(x) not in taken]
        all_rows = list(rows) + self.rng.sample(filler, n_rows - len(rows))
        self.rng.shuffle(all_rows)
        spare = [x for x in BUTTONS if norm(x) not in taken and norm(x) not in {norm(r) for r in all_rows}]
        all_buttons = list(buttons) + self.rng.sample(spare, max(0, self.rng.randint(2, 3) - len(buttons)))
        self.rng.shuffle(all_buttons)
        all_fields = list(fields)
        self.rng.shuffle(all_fields)
        return Layout(title, all_rows, all_buttons, all_fields,
                      [self.subtitle(big) for _ in all_rows])


# -- scenarios ---------------------------------------------------------------

def _package(rng: random.Random) -> str:
    return f"org.perfbench.app{rng.randrange(10**6):06d}"


def _extract_scenario(rng: random.Random, sid: str, n: int, deviation: str | None) -> Scenario:
    labels = rng.sample(ROW_LABELS, n)
    steps = [_step(rng, action, label) for action, label in zip(rng.sample(DIRECT_MIX[:n], n), labels)]
    answers = [_answer(steps)] * 3
    if deviation:
        answers[rng.randrange(3)] = _deviant(rng, steps, deviation)
    return Scenario(sid, "extract-vote", _report(rng, steps), steps, answers)


def _step(rng: random.Random, action: str, label: str) -> Step:
    if action == "Scroll":
        return Step("Scroll", direction=rng.choice(DIRECTIONS))
    if action == "Input":
        name = rng.choice(list(FIELDS))
        return Step("Input", name, FIELDS[name][1])
    return Step(action, label)


_GESTURE = {"Tap": "tap", "Double-tap": "double_tap", "Long-tap": "long_tap", "Input": "input"}


def _direct_scenario(rng: random.Random, sid: str, n: int) -> Scenario:
    """A linear flow; every target is named verbatim and unique on screen."""
    maker = ScreenMaker(rng)
    actions = rng.sample(DIRECT_MIX[:n], n)
    n_big = (n + 2) // 4
    big = set(rng.sample(range(n), n_big))
    titles = iter(rng.sample(TITLES, n + 1))
    app = App(_package(rng), {}, "s0", {})
    steps, walk, key = [], [], {}
    title = next(titles)
    for i, action in enumerate(actions):
        screen, after = f"s{i}", (CRASH if i == n - 1 else f"s{i + 1}")
        if action == "Scroll":
            lay = maker.layout(title, big=i in big)
            step = Step("Scroll", direction=rng.choice(DIRECTIONS))
            move = Move(screen, "scroll", step.direction)
        elif action == "Input":
            name = rng.choice(list(FIELDS))
            lay = maker.layout(title, big=i in big,
                               fields=[name] + rng.sample([f for f in FIELDS if f != name], rng.randint(0, 1)))
            step = Step("Input", name, FIELDS[name][1])
            move = Move(screen, "input", lay.leaf("field", name), step.value, component=name)
        else:
            on_bar = action == "Tap" and rng.random() < 0.5
            label = rng.choice(list(BUTTONS)) if on_bar else rng.choice(ROW_LABELS)
            kind = "button" if on_bar else "row"
            lay = maker.layout(title, big=i in big, **{kind + "s": [label]})
            step = Step(action, label)
            move = Move(screen, _GESTURE[action], lay.leaf(kind, label), component=label)
        app.screens[screen] = lay.build()
        app.moves[(screen, move.gesture, move.subject)] = after
        if move.gesture == "input":
            app.typed[(screen, move.subject)] = move.value
        if i:
            app.back[screen] = f"s{i - 1}"
        if action != "Scroll":
            _add_key(key, lay.title, step, Plan(move.subject))
            title = next(titles)
        steps.append(step)
        walk.append(move)
    answers = [_answer(steps)] * 3
    return Scenario(sid, "replay-direct", _report(rng, steps), steps, answers, app, key, walk)


def _add_key(key: dict, title: str, step: Step, plan: Plan) -> None:
    if (title, step.text()) in key:
        raise AssertionError(f"duplicate answer key for {title!r} / {step.text()}")
    key[(title, step.text())] = plan


def _detour_scenario(rng: random.Random, sid: str, m: int, omitted, decoyed, ignore_back) -> Scenario:
    """A flow whose report omits navigation steps and names its targets by
    paraphrase or by a label that appears twice on screen; some first
    answers are decoys that lead to dead ends."""
    maker = ScreenMaker(rng)
    mix = iter(rng.sample(DETOUR_MIX[:m], m))
    actions = ["Tap" if i in omitted or i in decoyed else next(mix) for i in range(m)]
    titles = iter(rng.sample(TITLES, m + len(decoyed)))
    app = App(_package(rng), {}, "s0", {})
    steps, walk, key, decoys = [], [], {}, []
    pending_bridge: tuple[str, str] | None = None
    for i, action in enumerate(actions):
        screen, after = f"s{i}", (CRASH if i == m - 1 else f"s{i + 1}")
        title = next(titles)
        decoy_leaf = None
        if i in omitted:
            label = rng.choice(BRIDGES)
            lay = maker.layout(title, buttons=[label])
            move = Move(screen, "tap", lay.leaf("button", label), reported=False, component=label)
            step = None
        elif action == "Input":
            name = rng.choice(list(FIELDS))
            para, value = FIELDS[name]
            lay = maker.layout(title, fields=[name], avoid=[para])
            step = Step("Input", para, value)
            move = Move(screen, "input", lay.leaf("field", name), value, component=para)
        elif action == "Tap" and rng.random() < 0.5:
            label = rng.choice(list(BUTTONS))
            para = BUTTONS[label]
            others = [b for b in BUTTONS if b != label and norm(b) != norm(para)]
            extra = [rng.choice(others)] if i in decoyed else []
            lay = maker.layout(title, buttons=[label, *extra], avoid=[para])
            step = Step("Tap", para)
            move = Move(screen, "tap", lay.leaf("button", label), component=para)
            if extra:
                decoy_leaf = lay.leaf("button", extra[0])
        else:
            label = rng.choice(ROW_LABELS)
            lay = maker.layout(title, rows=[label, label])
            nth = rng.randrange(2)
            step = Step(action, label)
            move = Move(screen, _GESTURE[action], lay.leaf("row", label, nth), component=label)
            if i in decoyed:
                decoy_leaf = lay.leaf("row", label, 1 - nth)
        app.screens[screen] = lay.build()
        app.moves[(screen, move.gesture, move.subject)] = after
        if move.gesture == "input":
            app.typed[(screen, move.subject)] = move.value
        if i:
            app.back[screen] = f"s{i - 1}"
        if decoy_leaf:
            dead = f"d{i}"
            app.screens[dead] = maker.layout(next(titles)).build()
            app.moves[(screen, "tap", decoy_leaf)] = dead
            honours = not next(ignore_back)
            if honours:
                app.back[dead] = screen
            decoys.append(Decoy(screen, decoy_leaf, dead, honours))
        if step is not None:
            if pending_bridge:
                _add_key(key, pending_bridge[0], step, Plan(pending_bridge[1], missing=True))
                pending_bridge = None
            _add_key(key, title, step, Plan(move.subject, decoy=decoy_leaf))
            steps.append(step)
        else:
            pending_bridge = (title, move.subject)
        walk.append(move)
    answers = [_answer(steps)]
    return Scenario(sid, "replay-detour", _report(rng, steps), steps, answers, app, key, walk, decoys)


def generate(workload: str, seed: int, quick: bool = False) -> list[Scenario]:
    """The workload's scenario pool for a seed; quick keeps the first one."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    pool: list[Scenario] = []
    if workload == "extract-vote":
        # half the reports get one deviating run, cycling through the kinds
        shapes = [(n, DEVIATIONS[(k + n) % 3] if k % 2 else None) for k in range(4) for n in EXTRACT_SIZES]
        for idx, (n, dev) in enumerate(shapes):
            pool.append(_extract_scenario(rng, f"ev{idx:02d}", n, dev))
    elif workload == "replay-direct":
        for idx, n in enumerate([*DIRECT_SIZES, *DIRECT_SIZES]):
            pool.append(_direct_scenario(rng, f"rd{idx:02d}", n))
    else:
        # half the dead ends ignore Back, alternating through the pool
        flips = iter([k % 2 == 1 for k in range(sum(len(d) for _, _, d in DETOUR_SHAPES))])
        for idx, (m, omitted, decoyed) in enumerate(DETOUR_SHAPES):
            pool.append(_detour_scenario(rng, f"dt{idx:02d}", m, omitted, decoyed, flips))
    order = list(range(len(pool)))
    rng.shuffle(order)
    pool = [pool[i] for i in order]
    return pool[:1] if quick else pool


# -- pre-check ---------------------------------------------------------------

def lexical_matches(root: Node, component: str) -> int:
    """How many views carry the component as text, content-desc or
    resource-id leaf, after normalising case and spaces."""
    want = norm(component)
    return sum(1 for node, _ in root.walk()
               if want in {norm(node.text), norm(node.desc), norm(node.rid)})


def perform(phone: Phone, move: Move) -> None:
    """Carry out one walk move with the gestures a device would see."""
    if move.gesture == "scroll":
        cx, cy = SCREEN[0] // 2, SCREEN[1] // 2
        d = {"up": (0, 500, 0, -500), "down": (0, -500, 0, 500),
             "left": (300, 0, -300, 0), "right": (-300, 0, 300, 0)}[move.subject]
        phone.swipe(cx + d[0], cy + d[1], cx + d[2], cy + d[3], 300)
        return
    x, y = phone.app.find(move.screen, move.subject).center()
    if move.gesture == "long_tap":
        phone.swipe(x, y, x, y, 800)
        return
    phone.tap(x, y)
    if move.gesture == "double_tap":
        phone.tap(x, y)
    elif move.gesture == "input":
        phone.idle()
        phone.type_text(move.value)
    phone.idle()


def precheck(scenario: Scenario) -> None:
    """Raise AssertionError unless the scenario is what its workload claims."""
    if scenario.app is None:
        assert scenario.steps and len(scenario.extraction) == 3, scenario.id
        ok = sum(a == _answer(scenario.steps) for a in scenario.extraction)
        assert ok >= 2, f"{scenario.id}: no majority"
        return
    app = scenario.app
    phone = Phone(app)
    phone.launch()
    for k, move in enumerate(scenario.walk):
        assert phone.screen == move.screen, f"{scenario.id}: at {phone.screen}, expected {move.screen}"
        assert not phone.crashed, f"{scenario.id}: crashed early"
        if move.reported and move.gesture != "scroll":
            hits = lexical_matches(app.screens[move.screen], move.component)
            if scenario.workload == "replay-direct":
                assert hits == 1, f"{scenario.id}: {move.component!r} matches {hits} views"
            else:
                assert hits != 1, f"{scenario.id}: {move.component!r} has a unique lexical match"
        perform(phone, move)
    assert phone.crashed, f"{scenario.id}: the walk does not reach the crash"
    for decoy in scenario.decoys:
        phone = Phone(app)
        phone.launch()
        for move in scenario.walk:
            if move.screen == decoy.screen:
                break
            perform(phone, move)
        x, y = app.find(decoy.screen, decoy.leaf).center()
        phone.tap(x, y)
        assert phone.screen == decoy.dead_end, f"{scenario.id}: decoy does not lead to its dead end"
        phone.press_back()
        back_to = decoy.screen if decoy.honours_back else decoy.dead_end
        assert phone.screen == back_to, f"{scenario.id}: dead end handles Back unexpectedly"
