"""The scene format: ``parse_scene``/``format_scene`` round trips over generated
specs, and a differential check against the parser and formatter the schema
table replaced.  That former code is kept below, verbatim, as the oracle.

Inputs to the differential check are valid documents and single-fault
mutations of them.  Each must give an equal spec, or the same message, line
and column.  There are two intended differences.  A rejected value (a
non-positive refractive index or fab parameter, an empty view range) is
reported at the line of the key that holds it, where the former code named
the first key of its group, or line 1 when that key was absent.  And a
non-finite ``apex_standoff`` or a negative or NaN ``tool_radius``, which the
former parser accepted, is rejected at its own line.
"""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hologlint.errors import SceneParseError
from hologlint.scene import (
    FabConfig,
    HostConfig,
    LightConfig,
    SceneSpec,
    StippleConfig,
    ViewConfig,
    format_scene,
    parse_scene,
)

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---- reference oracle: the parser and formatter before the schema table ----


DEFAULT_DELTA = 0.5
DEFAULT_STEP_DEG = 0.1
DEFAULT_TOOL_RADIUS = 0.2


_SECTIONS = ("media", "light", "host", "view", "fab", "stipples")

_KEYS = {
    "media": {"eta1", "eta2"},
    "light": {"type", "alpha_deg", "position"},
    "host": {"type", "origin", "normal", "center", "radius", "side"},
    "view": {
        "type",
        "theta_min_deg",
        "theta_max_deg",
        "samples",
        "center",
        "radius",
        "elevation_deg",
        "origin",
        "direction",
        "span",
    },
    "fab": {"delta", "pitch", "apex_standoff", "resolution", "tool_radius", "step_deg"},
}


def _parse_float(token: str, line: int, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise SceneParseError(f"malformed number {token!r}", line, col) from None


def _parse_int(token: str, line: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise SceneParseError(f"malformed integer {token!r}", line, col) from None


def _parse_vec(value: str, line: int, col: int) -> tuple[float, float, float]:
    parts = value.split()
    if len(parts) != 3:
        raise SceneParseError(f"expected 3 components, got {len(parts)}", line, col)
    return tuple(_parse_float(p, line, col) for p in parts)  # type: ignore[return-value]


def _old_parse_scene(text: str) -> SceneSpec:
    """Parse a scene document; SceneParseError carries line/column locations."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        body = stripped.strip()
        if body.startswith("["):
            if not body.endswith("]"):
                raise SceneParseError("unterminated section header", lineno, len(stripped))
            name = body[1:-1].strip()
            if name not in _SECTIONS:
                raise SceneParseError(f"unknown section [{name}]", lineno, 1)
            if name in sections:
                raise SceneParseError(f"duplicate section [{name}]", lineno, 1)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SceneParseError("content before any section header", lineno, 1)
        sections[current].append((lineno, stripped))

    for required in ("light", "stipples"):
        if required not in sections:
            raise SceneParseError(f"missing required section [{required}]", len(lines) + 1)

    kv: dict[str, dict[str, tuple[int, str]]] = {}
    for name, body in sections.items():
        if name == "stipples":
            continue
        kv[name] = {}
        for lineno, entry in body:
            if "=" not in entry:
                raise SceneParseError("expected key = value", lineno, 1)
            key, _, value = entry.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS[name]:
                raise SceneParseError(f"unknown key {key!r} in section [{name}]", lineno, 1)
            if key in kv[name]:
                raise SceneParseError(f"duplicate key {key!r}", lineno, 1)
            kv[name][key] = (lineno, value)

    def get(section: str, key: str, default):
        entry = kv.get(section, {}).get(key)
        if entry is None:
            return default, 0
        return entry[1], entry[0]

    # media
    eta1_s, l1 = get("media", "eta1", "1.0")
    eta2_s, l2 = get("media", "eta2", "1.0")
    media = (_parse_float(str(eta1_s), l1, 1), _parse_float(str(eta2_s), l2, 1))
    if media[0] <= 0 or media[1] <= 0:
        raise SceneParseError("refractive indices must be positive", l1 or 1)

    # light
    ltype, lt_line = get("light", "type", "directional")
    if ltype not in ("directional", "point"):
        raise SceneParseError(f"unknown light type {ltype!r}", lt_line or 1)
    if ltype == "point":
        pos_s, lp_line = get("light", "position", None)
        if pos_s is None:
            raise SceneParseError("point light requires 'position'", lt_line or 1)
        light = LightConfig("point", 0.0, _parse_vec(str(pos_s), lp_line, 1))
    else:
        alpha_s, la_line = get("light", "alpha_deg", "0.0")
        light = LightConfig("directional", _parse_float(str(alpha_s), la_line, 1), None)

    # host
    htype, hl = get("host", "type", "plane")
    if htype == "plane":
        origin_s, lo_ = get("host", "origin", "0 0 0")
        normal_s, ln_ = get("host", "normal", "0 0 1")
        normal = _parse_vec(str(normal_s), ln_, 1)
        if math.hypot(*normal) < 1e-12:
            raise SceneParseError("zero-norm host normal", ln_ or 1)
        host = HostConfig("plane", _parse_vec(str(origin_s), lo_, 1), normal)
    elif htype == "sphere":
        center_s, lc_ = get("host", "center", "0 0 0")
        radius_s, lr_ = get("host", "radius", None)
        if radius_s is None:
            raise SceneParseError("sphere host requires 'radius'", hl or 1)
        radius = _parse_float(str(radius_s), lr_, 1)
        if radius <= 0:
            raise SceneParseError("sphere radius must be positive", lr_ or 1)
        side_s, ls_ = get("host", "side", "outside")
        if side_s not in ("outside", "inside"):
            raise SceneParseError(f"unknown sphere side {side_s!r}", ls_ or 1)
        host = HostConfig("sphere", center=_parse_vec(str(center_s), lc_, 1), radius=radius, side=str(side_s))
    else:
        raise SceneParseError(f"unknown host type {htype!r}", hl or 1)

    # view
    vtype, vl = get("view", "type", "infinity")
    tmin_s, l3 = get("view", "theta_min_deg", "-45.0")
    tmax_s, l4 = get("view", "theta_max_deg", "45.0")
    samples_s, l5 = get("view", "samples", "31")
    tmin = _parse_float(str(tmin_s), l3, 1)
    tmax = _parse_float(str(tmax_s), l4, 1)
    samples = _parse_int(str(samples_s), l5, 1)
    if not tmin < tmax:
        raise SceneParseError("view range requires theta_min_deg < theta_max_deg", l3 or 1)
    if samples < 2:
        raise SceneParseError("view needs at least 2 samples", l5 or 1)
    if vtype == "infinity":
        view = ViewConfig("infinity", tmin, tmax, samples)
    elif vtype == "orbit":
        center_s, lc_ = get("view", "center", "0 0 0")
        radius_s, lr_ = get("view", "radius", "1000.0")
        elev_s, le_ = get("view", "elevation_deg", "0.0")
        radius = _parse_float(str(radius_s), lr_, 1)
        if radius <= 0:
            raise SceneParseError("orbit radius must be positive", lr_ or 1)
        view = ViewConfig(
            "orbit",
            tmin,
            tmax,
            samples,
            center=_parse_vec(str(center_s), lc_, 1),
            radius=radius,
            elevation_deg=_parse_float(str(elev_s), le_, 1),
        )
    elif vtype == "line":
        origin_s, lo_ = get("view", "origin", "0 0 1000")
        dir_s, ld_ = get("view", "direction", "1 0 0")
        span_s, lsp = get("view", "span", "100.0")
        direction = _parse_vec(str(dir_s), ld_, 1)
        if math.hypot(*direction) < 1e-12:
            raise SceneParseError("zero-norm view direction", ld_ or 1)
        view = ViewConfig(
            "line",
            tmin,
            tmax,
            samples,
            origin=_parse_vec(str(origin_s), lo_, 1),
            direction=direction,
            span=_parse_float(str(span_s), lsp, 1),
        )
    else:
        raise SceneParseError(f"unknown view type {vtype!r}", vl or 1)

    # fab
    delta_s, lf1 = get("fab", "delta", str(DEFAULT_DELTA))
    pitch_s, lf2 = get("fab", "pitch", "2.0")
    standoff_s, lf3 = get("fab", "apex_standoff", None)
    res_s, lf4 = get("fab", "resolution", "4.0")
    tool_s, lf5 = get("fab", "tool_radius", str(DEFAULT_TOOL_RADIUS))
    step_s, lf6 = get("fab", "step_deg", str(DEFAULT_STEP_DEG))
    fab = FabConfig(
        delta=_parse_float(str(delta_s), lf1, 1),
        pitch=_parse_float(str(pitch_s), lf2, 1),
        apex_standoff=None if standoff_s is None else _parse_float(str(standoff_s), lf3, 1),
        resolution=_parse_float(str(res_s), lf4, 1),
        tool_radius=_parse_float(str(tool_s), lf5, 1),
        step_deg=_parse_float(str(step_s), lf6, 1),
    )
    if fab.delta <= 0 or fab.pitch <= 0 or fab.resolution <= 0 or fab.step_deg <= 0:
        raise SceneParseError("fab parameters must be positive", lf1 or 1)

    # stipples
    stipples: list[StippleConfig] = []
    for lineno, entry in sections["stipples"]:
        parts = entry.split()
        if len(parts) != 7:
            raise SceneParseError(
                f"stipple line needs 7 fields (x y z weight theta_min theta_max priority), got {len(parts)}",
                lineno,
                1,
            )
        x, y, z, w, t0, t1 = (_parse_float(p, lineno, i + 1) for i, p in enumerate(parts[:6]))
        prio = _parse_int(parts[6], lineno, 7)
        if not 0.0 <= w <= 1.0:
            raise SceneParseError("stipple weight must lie in [0, 1]", lineno, 4)
        if not t0 < t1:
            raise SceneParseError("stipple window requires theta_min < theta_max", lineno, 5)
        if light.kind == "point" and light.position is not None:
            dx = (x - light.position[0], y - light.position[1], z - light.position[2])
            if math.hypot(*dx) < 1e-9:
                raise SceneParseError("stipple coincides with the point light", lineno, 1)
        stipples.append(StippleConfig(x, y, z, w, t0, t1, prio))
    if not stipples:
        raise SceneParseError("section [stipples] must contain at least one stipple", len(lines) + 1)

    return SceneSpec(media, light, host, view, fab, tuple(stipples))


def _old_format_scene(spec: SceneSpec) -> str:
    """Canonical scene text; parse(format_scene(s)) == s for valid specs."""
    out: list[str] = []

    def vec(value) -> str:
        return " ".join(repr(float(c)) for c in value)

    out.append("[media]")
    out.append(f"eta1 = {spec.media[0]!r}")
    out.append(f"eta2 = {spec.media[1]!r}")
    out.append("")
    out.append("[light]")
    out.append(f"type = {spec.light.kind}")
    if spec.light.kind == "point":
        out.append(f"position = {vec(spec.light.position)}")
    else:
        out.append(f"alpha_deg = {spec.light.alpha_deg!r}")
    out.append("")
    out.append("[host]")
    out.append(f"type = {spec.host.kind}")
    if spec.host.kind == "plane":
        out.append(f"origin = {vec(spec.host.origin)}")
        out.append(f"normal = {vec(spec.host.normal)}")
    else:
        out.append(f"center = {vec(spec.host.center)}")
        out.append(f"radius = {spec.host.radius!r}")
        out.append(f"side = {spec.host.side}")
    out.append("")
    out.append("[view]")
    out.append(f"type = {spec.view.kind}")
    out.append(f"theta_min_deg = {spec.view.theta_min_deg!r}")
    out.append(f"theta_max_deg = {spec.view.theta_max_deg!r}")
    out.append(f"samples = {spec.view.samples}")
    if spec.view.kind == "orbit":
        out.append(f"center = {vec(spec.view.center)}")
        out.append(f"radius = {spec.view.radius!r}")
        out.append(f"elevation_deg = {spec.view.elevation_deg!r}")
    elif spec.view.kind == "line":
        out.append(f"origin = {vec(spec.view.origin)}")
        out.append(f"direction = {vec(spec.view.direction)}")
        out.append(f"span = {spec.view.span!r}")
    out.append("")
    out.append("[fab]")
    out.append(f"delta = {spec.fab.delta!r}")
    out.append(f"pitch = {spec.fab.pitch!r}")
    if spec.fab.apex_standoff is not None:
        out.append(f"apex_standoff = {spec.fab.apex_standoff!r}")
    out.append(f"resolution = {spec.fab.resolution!r}")
    out.append(f"tool_radius = {spec.fab.tool_radius!r}")
    out.append(f"step_deg = {spec.fab.step_deg!r}")
    out.append("")
    out.append("[stipples]")
    for s in spec.stipples:
        out.append(
            f"{s.x!r} {s.y!r} {s.z!r} {s.weight!r} "
            f"{s.theta_min_deg!r} {s.theta_max_deg!r} {s.priority}"
        )
    out.append("")
    return "\n".join(out)


# ---- generated documents ----

# The format as documented, written out independently of the schema under
# test: section -> kind -> key -> value class.  [media] and [fab] have one kind.
FORMAT = {
    "media": {None: {"eta1": "pos", "eta2": "pos"}},
    "light": {"directional": {"alpha_deg": "num"}, "point": {"position": "vec"}},
    "host": {
        "plane": {"origin": "vec", "normal": "dir"},
        "sphere": {"center": "vec", "radius": "pos", "side": "side"},
    },
    "view": {
        kind: {"theta_min_deg": "tmin", "theta_max_deg": "tmax", "samples": "samples", **extra}
        for kind, extra in (
            ("infinity", {}),
            ("orbit", {"center": "vec", "radius": "pos", "elevation_deg": "num"}),
            ("line", {"origin": "vec", "direction": "dir", "span": "num"}),
        )
    },
    "fab": {
        None: {
            "delta": "pos",
            "pitch": "pos",
            "apex_standoff": "num",
            "resolution": "pos",
            "tool_radius": "nonneg",
            "step_deg": "pos",
        }
    },
}
REQUIRED = {("light", "position"), ("host", "radius")}
DEFAULT_KIND = {"media": None, "light": "directional", "host": "plane", "view": "infinity", "fab": None}
NEWLY_CHECKED = {"apex standoff must be finite", "tool radius must be nonnegative"}
LOCATION_FIXED = {
    "refractive indices must be positive",
    "fab parameters must be positive",
    "view range requires theta_min_deg < theta_max_deg",
}


def _pick(rng, choices, low, high):
    return rng.choice(choices) if rng.random() < 0.6 else repr(rng.uniform(low, high))


def _value(rng, cls: str) -> str:
    if cls == "num":
        return _pick(rng, ("0", "-2.5", "1e3", "0.125", "7", "-0.0", "3"), -100.0, 100.0)
    if cls == "pos":
        return _pick(rng, ("1", "0.5", "2.25", "1e-3", "13", "1.0"), 0.01, 50.0)
    if cls == "nonneg":
        return _pick(rng, ("0", "-0.0", "0.2", "1e3", "3"), 0.0, 100.0)
    if cls == "vec":
        return " ".join(_value(rng, "num") for _ in range(3))
    if cls == "dir":
        return " ".join([_value(rng, "pos")] + [_value(rng, "num") for _ in range(2)])
    if cls == "samples":
        return str(rng.randint(2, 40))
    if cls == "side":
        return rng.choice(("outside", "inside"))
    if cls == "tmin":
        return _pick(rng, ("-60", "-45", "-30.5", "-1e-3"), -89.0, -0.01)
    if cls == "tmax":
        return _pick(rng, ("60", "45", "30.25", "1e-3"), 0.01, 89.0)
    raise AssertionError(cls)


def _stipple(rng) -> str:
    t0 = _value(rng, "tmin")
    t1 = _value(rng, "tmax")
    x, y = (_value(rng, "num") for _ in range(2))
    z = _pick(rng, ("-10", "-1", "-25.5"), -30.0, -1.0)
    w = _pick(rng, ("1", "0", "0.5", "1.0"), 0.0, 1.0)
    return f"{x} {y} {z} {w} {t0} {t1} {rng.randint(-3, 5)}"


def _above(rng) -> str:
    """A point light position above the wall, where no stipple lies."""
    return f"{_value(rng, 'num')} {_value(rng, 'num')} {_value(rng, 'pos')}"


class Doc:
    """A scene document as sections of ``[key, value, marked]`` items; ``key`` is
    None for a raw line (stipples, or a line without ``=``)."""

    def __init__(self, rng):
        self.kinds = {}
        self.sections = {}
        for name, kinds in FORMAT.items():
            if name != "light" and rng.random() < 0.25:
                continue
            kind = rng.choice(list(kinds))
            items = []
            if kind != DEFAULT_KIND[name] or (kind is not None and rng.random() < 0.5):
                items.append(["type", kind, False])
            for key, cls in kinds[kind].items():
                if (name, key) in REQUIRED or rng.random() < 0.6:
                    items.append([key, _value(rng, cls) if key != "position" else _above(rng), False])
            for other, fields in kinds.items():  # keys of the other kinds are read by none
                for key, cls in fields.items():
                    if other != kind and key not in kinds[kind] and rng.random() < 0.2:
                        items.append([key, rng.choice((_value(rng, cls), "zzz", "1 2")), False])
            rng.shuffle(items)
            self.kinds[name], self.sections[name] = kind, items
        self.sections["stipples"] = [[None, _stipple(rng), False] for _ in range(rng.randint(1, 3))]

    def read_items(self, *classes):
        """Items whose key the section's kind reads, optionally of the given value classes."""
        out = []
        for name, kind in self.kinds.items():
            fields = FORMAT[name][kind]
            for item in self.sections[name]:
                if item[0] in fields and (not classes or fields[item[0]] in classes):
                    out.append((name, item))
        return out

    def item(self, name, key):
        return next((it for it in self.sections.get(name, ()) if it[0] == key), None)

    def set(self, rng, name, key, value):
        """Set ``key`` in ``name`` (adding either as needed) and mark it."""
        if name not in self.sections:
            self.kinds[name], self.sections[name] = DEFAULT_KIND[name], []
        item = self.item(name, key)
        if item is None:
            self.sections[name].insert(rng.randint(0, len(self.sections[name])), [key, value, True])
        else:
            item[1:] = [value, True]

    def render(self, rng):
        lines, marked = [], None
        if rng.random() < 0.3:
            lines.append("# generated scene")
        order = list(self.sections)
        rng.shuffle(order)
        for name in order:
            lines.append(f"[{name}]" + ("  # section" if rng.random() < 0.2 else ""))
            for key, value, mark in self.sections[name]:
                if rng.random() < 0.1:
                    lines.append("")
                text = value if key is None else f"{key}{rng.choice((' = ', '=', '  =   '))}{value}"
                lines.append(text + ("  # note" if rng.random() < 0.1 else ""))
                if mark:
                    marked = len(lines)
            lines.append("")
        return "\n".join(lines), marked


# ---- single-fault mutations; each returns False where it does not apply ----


def _bad_number(rng, doc):
    items = doc.read_items("num", "pos", "nonneg", "vec", "dir", "samples", "tmin", "tmax")
    if not items:
        return False
    _, item = rng.choice(items)
    tokens = item[1].split()
    bad = ("abc", "1.2.3", "--1", "1e", "0x10") + (("2.5", "1e3") if item[0] == "samples" else ())
    tokens[rng.randrange(len(tokens))] = rng.choice(bad)
    item[1] = " ".join(tokens)
    return True


def _vector_length(rng, doc):
    items = doc.read_items("vec", "dir")
    if not items:
        return False
    _, item = rng.choice(items)
    tokens = item[1].split()
    item[1] = " ".join(tokens[:2] if rng.random() < 0.5 else tokens + ["1"])
    return True


def _nonpositive(rng, doc):
    items = doc.read_items("pos")
    if not items:
        return False
    _, item = rng.choice(items)
    item[1:] = [rng.choice(("0", "-1.5", "-0.0", "0.0")), True]
    return True


def _zero_norm(rng, doc):
    items = doc.read_items("dir")
    if not items:
        return False
    _, item = rng.choice(items)
    item[1] = rng.choice(("0 0 0", "0 0 1e-13", "-0.0 0 0"))
    return True


def _unknown_type(rng, doc):
    if doc.kinds.get("host") == "sphere" and rng.random() < 0.3:
        doc.set(rng, "host", "side", rng.choice(("middle", "Outside", "")))
        return True
    name = rng.choice([n for n in doc.sections if DEFAULT_KIND.get(n)])
    doc.set(rng, name, "type", rng.choice(("cylinder", "Point", "", "plane sphere")))
    return True


def _missing_required(rng, doc):
    for name, key in REQUIRED:
        item = doc.item(name, key)
        if item is not None and (name, doc.kinds[name]) in (("light", "point"), ("host", "sphere")):
            doc.sections[name].remove(item)
            return True
    return False


def _unknown_key(rng, doc):
    name = rng.choice([n for n in doc.sections if n != "stipples"])
    key = rng.choice(("wavelength", "Delta", "eta3", "type" if DEFAULT_KIND[name] is None else "theta"))
    doc.sections[name].insert(rng.randint(0, len(doc.sections[name])), [key, "1", False])
    return True


def _duplicate_key(rng, doc):
    name = rng.choice([n for n in doc.sections if n != "stipples" and doc.sections[n]] or [None])
    if name is None:
        return False
    items = doc.sections[name]
    k = rng.randrange(len(items))
    items.insert(rng.randint(k + 1, len(items)), list(items[k]))
    return True


def _few_samples(rng, doc):
    doc.set(rng, "view", "samples", rng.choice(("1", "0", "-3")))
    return True


def _empty_range(rng, doc):
    tmin, tmax = doc.item("view", "theta_min_deg"), doc.item("view", "theta_max_deg")
    if tmin is not None:
        top = float(tmax[1]) if tmax is not None else 45.0
        doc.set(rng, "view", "theta_min_deg", repr(top + rng.choice((0.0, 1.0, 100.0))))
    else:
        doc.set(rng, "view", "theta_max_deg", rng.choice(("-45", "-45.0", "-50", "-90")))
    return True


def _stipple_fault(rng, doc):
    item = rng.choice(doc.sections["stipples"])
    tokens = item[1].split()
    fault = rng.randrange(5)
    if fault == 0:
        tokens[rng.randrange(7)] = "x1"
    elif fault == 1:
        tokens = tokens[:6] if rng.random() < 0.5 else tokens + ["0"]
    elif fault == 2:
        tokens[3] = rng.choice(("1.5", "-0.1"))
    elif fault == 3:
        tokens[4], tokens[5] = tokens[5], tokens[4]
    else:
        tokens[6] = "1.0"
    item[1] = " ".join(tokens)
    return True


def _bad_fab_value(rng, doc):
    if rng.random() < 0.5:
        doc.set(rng, "fab", "apex_standoff", rng.choice(("nan", "inf", "-inf", "NaN")))
    else:
        doc.set(rng, "fab", "tool_radius", rng.choice(("nan", "-0.2", "-1e-9", "-inf")))
    return True


def _no_equals(rng, doc):
    name = rng.choice([n for n in doc.sections if n != "stipples"])
    doc.sections[name].insert(rng.randint(0, len(doc.sections[name])), [None, "justtext", False])
    return True


MUTATIONS = (
    _bad_number,
    _vector_length,
    _nonpositive,
    _zero_norm,
    _unknown_type,
    _missing_required,
    _unknown_key,
    _duplicate_key,
    _few_samples,
    _empty_range,
    _stipple_fault,
    _bad_fab_value,
    _no_equals,
)


def _outcome(parse, text):
    try:
        return parse(text)
    except SceneParseError as err:
        return str(err).split(": ", 1)[1], err.line, err.column


def _check_against_oracle(text: str, marked: int | None):
    old, new = _outcome(_old_parse_scene, text), _outcome(parse_scene, text)
    if isinstance(new, tuple) and new[0] in LOCATION_FIXED:
        assert isinstance(old, tuple) and (new[0], new[2]) == (old[0], old[2]), (text, old, new)
        assert new[1] == marked, (text, new)
    elif isinstance(new, tuple) and new[0] in NEWLY_CHECKED:
        assert isinstance(old, SceneSpec) and new[1:] == (marked, 1), (text, old, new)
    else:
        assert new == old, (text, old, new)
    if isinstance(new, SceneSpec):
        assert format_scene(new) == _old_format_scene(new)
    return new


def make_case(rng):
    """A valid document, then one mutation (or none); returns (text, marked line)."""
    doc = Doc(rng)
    text, _ = doc.render(rng)
    assert isinstance(_old_parse_scene(text), SceneSpec), text
    mutation = rng.choice(MUTATIONS + (None,))
    if mutation is not None and mutation(rng, doc):
        text, marked = doc.render(rng)
        return text, marked
    return text, None


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_differential_against_former_parser(rng):
    _check_against_oracle(*make_case(rng))


# ---- round trip over generated specs ----

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False)
vectors = st.tuples(finite, finite, finite)
directions = vectors.filter(lambda v: math.hypot(*v) >= 1e-12)
ranges = st.lists(finite, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def specs(draw):
    light = draw(
        st.one_of(
            st.builds(lambda a: LightConfig("directional", alpha_deg=a), finite),
            st.builds(lambda p: LightConfig("point", position=p), vectors),
        )
    )
    host = draw(
        st.one_of(
            st.builds(lambda o, n: HostConfig("plane", origin=o, normal=n), vectors, directions),
            st.builds(
                lambda c, r, s: HostConfig("sphere", center=c, radius=r, side=s),
                vectors,
                positive,
                st.sampled_from(("outside", "inside")),
            ),
        )
    )
    (tmin, tmax), samples = draw(ranges), draw(st.integers(2, 10**6))
    view = draw(
        st.one_of(
            st.just(ViewConfig("infinity", tmin, tmax, samples)),
            st.builds(
                lambda c, r, e: ViewConfig("orbit", tmin, tmax, samples, center=c, radius=r, elevation_deg=e),
                vectors,
                positive,
                finite,
            ),
            st.builds(
                lambda o, d, s: ViewConfig("line", tmin, tmax, samples, origin=o, direction=d, span=s),
                vectors,
                directions,
                finite,
            ),
        )
    )
    fab = draw(st.builds(FabConfig, positive, positive, st.none() | finite, positive, nonnegative, positive))
    stipple = st.builds(
        lambda xyz, w, window, prio: StippleConfig(*xyz, w, *window, prio),
        vectors,
        st.floats(0.0, 1.0),
        ranges,
        st.integers(-(10**9), 10**9),
    )
    stipples = draw(st.lists(stipple, min_size=1, max_size=4))
    if light.kind == "point":
        assume(all(math.dist((s.x, s.y, s.z), light.position) >= 1e-9 for s in stipples))
    return SceneSpec((draw(positive), draw(positive)), light, host, view, fab, tuple(stipples))


@SETTINGS
@given(specs())
def test_format_round_trips(spec):
    text = format_scene(spec)
    assert text == _old_format_scene(spec)
    assert parse_scene(text) == spec
