"""Scene document parsing, formatting, and construction of pipeline objects.

The scene format is a sectioned key-value text file.  Angles are degrees in
the file (fabrication-operator convention) and converted to radians when
geometry objects are built.  Stipples are one per line under ``[stipples]``:

    x y z weight theta_min theta_max priority

Sections ``[light]`` and ``[stipples]`` are required.  ``_SCHEMA`` names every
key of the other sections, by kind; an absent key keeps the default of its
field in ``SceneSpec`` and the ``*Config`` dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .errors import SceneParseError
from .geom import (
    DirectionalLight,
    HostSurface,
    InfinityView,
    LightSource,
    LineView,
    Media,
    OrbitView,
    PlaneHost,
    PointLight,
    SphereHost,
    ViewPath,
    vec3,
)
from .ridging import FabricationParams
from .striping import DEFAULT_STEP, Stipple


@dataclass(frozen=True)
class LightConfig:
    kind: str = "directional"
    alpha_deg: float = 0.0
    position: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class HostConfig:
    kind: str = "plane"
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 0.0
    side: str = "outside"  # viewer side for spheres


@dataclass(frozen=True)
class ViewConfig:
    kind: str = "infinity"
    theta_min_deg: float = -45.0
    theta_max_deg: float = 45.0
    samples: int = 31
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1000.0
    elevation_deg: float = 0.0
    origin: tuple[float, float, float] = (0.0, 0.0, 1000.0)
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)
    span: float = 100.0


@dataclass(frozen=True)
class FabConfig:
    """The ``[fab]`` section; its defaults are those of the library."""

    delta: float = FabricationParams.delta
    pitch: float = FabricationParams.pitch
    apex_standoff: float | None = FabricationParams.cone_apex_standoff
    resolution: float = FabricationParams.mesh_resolution
    tool_radius: float = FabricationParams.tool_radius
    step_deg: float = math.degrees(DEFAULT_STEP)


@dataclass(frozen=True)
class StippleConfig:
    x: float
    y: float
    z: float
    weight: float = 1.0
    theta_min_deg: float = -45.0
    theta_max_deg: float = 45.0
    priority: int = 0


@dataclass(frozen=True)
class SceneSpec:
    """Parsed scene document; plain data, degrees, byte-stable to reformat."""

    media: tuple[float, float] = (1.0, 1.0)
    light: LightConfig = field(default_factory=LightConfig)
    host: HostConfig = field(default_factory=HostConfig)
    view: ViewConfig = field(default_factory=ViewConfig)
    fab: FabConfig = field(default_factory=FabConfig)
    stipples: tuple[StippleConfig, ...] = ()


def _number(cast: Callable[[str], Any], what: str) -> Callable[[str], Any]:
    def parse(token: str):
        try:
            return cast(token)
        except ValueError:
            raise ValueError(f"malformed {what} {token!r}") from None

    return parse


_float, _int = _number(float, "number"), _number(int, "integer")


def _vec(value: str) -> tuple[float, float, float]:
    parts = value.split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 components, got {len(parts)}")
    return tuple(_float(p) for p in parts)  # type: ignore[return-value]


def _zero_norm(value: tuple[float, float, float]) -> bool:
    return math.hypot(*value) < 1e-12


class _Field(NamedTuple):
    """One ``key = value`` entry: its parser, a test that rejects a parsed value with
    ``message`` (formatted with the value), and whether its kind requires the key."""

    key: str
    parse: Callable[[str], Any] = _float
    reject: Callable[[Any], bool] | None = None
    message: str = ""
    required: bool = False


def _positive(key: str, message: str, required: bool = False) -> _Field:
    return _Field(key, _float, lambda v: not v > 0, message, required)  # NaN fails too


_FAB = "fab parameters must be positive"
_SWEEP = (
    _Field("theta_min_deg"),
    _Field("theta_max_deg"),
    _Field("samples", _int, lambda n: n < 2, "view needs at least 2 samples"),
)

# section -> kind -> fields in file order.  A section with several kinds picks one
# with its ``type`` key and accepts, but ignores, the keys of its other kinds; the
# single kind of [media] and [fab] is ``None``.  An absent key keeps the default of
# its field in SceneSpec or the *Config dataclass.
_SCHEMA: dict[str, dict[str | None, tuple[_Field, ...]]] = {
    "media": {None: tuple(_positive(k, "refractive indices must be positive") for k in ("eta1", "eta2"))},
    "light": {"directional": (_Field("alpha_deg"),), "point": (_Field("position", _vec, required=True),)},
    "host": {
        "plane": (_Field("origin", _vec), _Field("normal", _vec, _zero_norm, "zero-norm host normal")),
        "sphere": (
            _Field("center", _vec),
            _positive("radius", "sphere radius must be positive", required=True),
            _Field("side", str, lambda s: s not in ("outside", "inside"), "unknown sphere side {!r}"),
        ),
    },
    "view": {
        "infinity": _SWEEP,
        "orbit": (
            *_SWEEP,
            _Field("center", _vec),
            _positive("radius", "orbit radius must be positive"),
            _Field("elevation_deg"),
        ),
        "line": (
            *_SWEEP,
            _Field("origin", _vec),
            _Field("direction", _vec, _zero_norm, "zero-norm view direction"),
            _Field("span"),
        ),
    },
    "fab": {
        None: (
            _positive("delta", _FAB),
            _positive("pitch", _FAB),
            _Field("apex_standoff", _float, lambda v: not math.isfinite(v), "apex standoff must be finite"),
            _positive("resolution", _FAB),
            _Field("tool_radius", _float, lambda v: not v >= 0, "tool radius must be nonnegative"),
            _positive("step_deg", _FAB),
        ),
    },
}


def _values(spec: SceneSpec, name: str) -> dict[str, Any]:
    """A section of ``spec`` as ``{key: value}``, with ``kind`` for sections that have one."""
    section = getattr(spec, name)
    if name == "media":
        return {f.key: eta for f, eta in zip(_SCHEMA["media"][None], section)}
    return dict(vars(section))


def _parse(parse: Callable[[str], Any], token: str, line: int, col: int = 1):
    try:
        return parse(token)
    except ValueError as exc:
        raise SceneParseError(str(exc), line, col) from None


def parse_scene(text: str) -> SceneSpec:
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
            if name != "stipples" and name not in _SCHEMA:
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

    # Every section's structure and keys are checked before any value is parsed.
    kv: dict[str, dict[str, tuple[int, str]]] = {name: {} for name in _SCHEMA}
    for name, body in sections.items():
        if name == "stipples":
            continue
        known = {f.key for fields in _SCHEMA[name].values() for f in fields}
        known |= set() if None in _SCHEMA[name] else {"type"}
        for lineno, entry in body:
            if "=" not in entry:
                raise SceneParseError("expected key = value", lineno, 1)
            key, _, value = entry.partition("=")
            key = key.strip()
            if key not in known:
                raise SceneParseError(f"unknown key {key!r} in section [{name}]", lineno, 1)
            if key in kv[name]:
                raise SceneParseError(f"duplicate key {key!r}", lineno, 1)
            kv[name][key] = (lineno, value.strip())

    defaults = SceneSpec()
    built: dict[str, Any] = {}
    for name, kinds in _SCHEMA.items():
        entries = kv[name]
        values = _values(defaults, name)
        kind_line, kind = entries.get("type", (1, values.get("kind")))
        if kind not in kinds:
            raise SceneParseError(f"unknown {name} type {kind!r}", kind_line)
        for f in kinds[kind]:
            if f.key in entries:
                line, token = entries[f.key]
                value = _parse(f.parse, token, line)
                if f.reject is not None and f.reject(value):
                    raise SceneParseError(f.message.format(value), line)
                values[f.key] = value
            elif f.required:
                raise SceneParseError(f"{kind} {name} requires {f.key!r}", kind_line)
        if "kind" in values:
            values["kind"] = kind
        built[name] = tuple(values.values()) if name == "media" else type(getattr(defaults, name))(**values)

    view = built["view"]
    if not view.theta_min_deg < view.theta_max_deg:
        line = kv["view"].get("theta_min_deg") or kv["view"]["theta_max_deg"]
        raise SceneParseError("view range requires theta_min_deg < theta_max_deg", line[0])

    light = built["light"]
    stipples: list[StippleConfig] = []
    for lineno, entry in sections["stipples"]:
        parts = entry.split()
        if len(parts) != 7:
            message = f"stipple line needs 7 fields (x y z weight theta_min theta_max priority), got {len(parts)}"
            raise SceneParseError(message, lineno, 1)
        x, y, z, w, t0, t1 = (_parse(_float, p, lineno, i + 1) for i, p in enumerate(parts[:6]))
        prio = _parse(_int, parts[6], lineno, 7)
        if not 0.0 <= w <= 1.0:
            raise SceneParseError("stipple weight must lie in [0, 1]", lineno, 4)
        if not t0 < t1:
            raise SceneParseError("stipple window requires theta_min < theta_max", lineno, 5)
        if light.kind == "point" and math.dist((x, y, z), light.position) < 1e-9:
            raise SceneParseError("stipple coincides with the point light", lineno, 1)
        stipples.append(StippleConfig(x, y, z, w, t0, t1, prio))
    if not stipples:
        raise SceneParseError("section [stipples] must contain at least one stipple", len(lines) + 1)

    return SceneSpec(**built, stipples=tuple(stipples))


def _text(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(float(c)) for c in value)
    return value if isinstance(value, str) else repr(value)


def format_scene(spec: SceneSpec) -> str:
    """Canonical scene text; parse(format_scene(s)) == s for valid specs."""
    out: list[str] = []
    for name, kinds in _SCHEMA.items():
        values = _values(spec, name)
        kind = values.get("kind")
        out.append(f"[{name}]")
        if kind is not None:
            out.append(f"type = {kind}")
        out.extend(f"{f.key} = {_text(values[f.key])}" for f in kinds[kind] if values[f.key] is not None)
        out.append("")
    out.append("[stipples]")
    out.extend(" ".join(map(_text, vars(s).values())) for s in spec.stipples)
    out.append("")
    return "\n".join(out)


# ---- builders: config -> pipeline objects ----


def build_media(spec: SceneSpec) -> Media:
    return Media(spec.media[0], spec.media[1])


def build_light(spec: SceneSpec) -> LightSource:
    if spec.light.kind == "point":
        return PointLight(vec3(*spec.light.position))
    return DirectionalLight(math.radians(spec.light.alpha_deg))


def build_host(spec: SceneSpec) -> HostSurface:
    h = spec.host
    if h.kind == "sphere":
        return SphereHost(vec3(*h.center), h.radius, viewer_inside=(h.side == "inside"))
    return PlaneHost(vec3(*h.origin), vec3(*h.normal) / math.hypot(*h.normal))


def build_view(spec: SceneSpec) -> ViewPath:
    v = spec.view
    tmin, tmax = math.radians(v.theta_min_deg), math.radians(v.theta_max_deg)
    if v.kind == "orbit":
        return OrbitView(vec3(*v.center), v.radius, math.radians(v.elevation_deg), tmin, tmax, v.samples)
    if v.kind == "line":
        return LineView(vec3(*v.origin), vec3(*v.direction) / math.hypot(*v.direction), v.span, v.samples)
    return InfinityView(tmin, tmax, v.samples)


def build_fab(spec: SceneSpec) -> FabricationParams:
    f = spec.fab
    return FabricationParams(
        delta=f.delta,
        pitch=f.pitch,
        cone_apex_standoff=f.apex_standoff,
        mesh_resolution=f.resolution,
        tool_radius=f.tool_radius,
    )


def build_stipples(spec: SceneSpec) -> list[Stipple]:
    return [
        Stipple(
            p=vec3(s.x, s.y, s.z),
            weight=s.weight,
            window=(math.radians(s.theta_min_deg), math.radians(s.theta_max_deg)),
            priority=s.priority,
            stipple_id=idx,
        )
        for idx, s in enumerate(spec.stipples)
    ]


def integration_step(spec: SceneSpec) -> float:
    return math.radians(spec.fab.step_deg)
