"""Span recorder for the traced benchmark run.

The recorder wraps hologlint's public functions at module boundaries, under
the name by which the calling module looks them up (``cli.make_striping``,
``striping.integrate_toolpath``, ``ridging.radial_roots``, ...). Nothing in
the package itself is edited; ``install`` swaps module attributes and
``uninstall`` restores them, so untraced passes in the same process run the
original functions.

Each call records a span ``[id, parent, name, start_ns, end_ns, attrs]``.
Spans stay in memory and are written out once, when the run ends. A call
into a boundary that is already open on the stack (``find_glints`` on a
list recursing into itself) is passed through without a span, so a span's
children never overlap it and self time is its duration minus the sum of
its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "scene", "geom", "foliation", "ridging", "striping", "simulate", "exporters")


def _target_kind(target) -> str:
    """Glint-search target family: arc (toolpaths), ridging (analytic), mesh."""
    if isinstance(target, (list, tuple)):
        target = target[0] if target else None
    kind = type(target).__name__
    if kind in ("Striping", "StripeArc", "Toolpath"):
        return "arc"
    if kind == "RidgedSurface":
        return "ridging"
    if kind == "Mesh":
        return "mesh"
    return "other"


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def boundaries(hg):
    """(module, attribute, span name, attrs-from-call) for every traced boundary.

    ``hg`` maps module short names to the imported hologlint modules.
    """
    cli, scene, striping = hg["cli"], hg["scene"], hg["striping"]
    foliation, ridging, simulate, exporters = (
        hg["foliation"], hg["ridging"], hg["simulate"], hg["exporters"]
    )

    def rays(caller):
        return lambda args, kwargs, out: {"caller": caller, "rays": len(args[2])}

    def text_bytes(args, kwargs, out):
        return {"bytes": len(out.encode("utf-8"))}

    return [
        (scene, "parse_scene", "scene.parse_scene", None),
        (cli, "sightline_host_intersection", "geom.sightline_host_intersection", None),
        (striping, "sightline_host_intersection", "geom.sightline_host_intersection", None),
        (cli, "make_striping", "striping.make_striping",
         lambda a, k, out: {"accepted": len(out.arcs), "rejected": len(out.rejected)}),
        (striping, "integrate_toolpath", "striping.integrate_toolpath",
         lambda a, k, out: {"samples": len(out.samples)}),
        (foliation, "radial_roots", "foliation.radial_roots", rays("foliation")),
        (ridging, "radial_roots", "foliation.radial_roots", rays("ridging")),
        (cli, "member_through", "foliation.member_through", None),
        (ridging, "member_through", "foliation.member_through", None),
        (cli, "build_ridging", "ridging.build_ridging",
         lambda a, k, out: {"bands": len(out.ridges)}),
        (ridging, "build_ridging", "ridging.build_ridging",
         lambda a, k, out: {"bands": len(out.ridges)}),
        (cli, "mesh_ridging", "ridging.mesh_ridging",
         lambda a, k, out: {"vertices": len(out.vertices), "triangles": len(out.triangles)}),
        (ridging, "mesh_ridging", "ridging.mesh_ridging",
         lambda a, k, out: {"vertices": len(out.vertices), "triangles": len(out.triangles)}),
        (cli, "find_glints", "simulate.find_glints",
         lambda a, k, out: {"target": _target_kind(a[0]), "glints": len(out)}),
        (simulate, "find_glints", "simulate.find_glints",
         lambda a, k, out: {"target": _target_kind(a[0]), "glints": len(out)}),
        (cli, "render_glintmap", "simulate.render_glintmap", None),
        (cli, "triangulate", "simulate.triangulate", None),
        (simulate, "triangulate", "simulate.triangulate", None),
        (exporters, "export_gcode", "exporters.export_gcode", text_bytes),
        (exporters, "format_csv", "exporters.format_csv", text_bytes),
        (exporters, "format_obj", "exporters.format_obj", text_bytes),
        (exporters, "export_frames", "exporters.export_frames",
         lambda a, k, out: {"bytes": _file_bytes(out)}),
    ]


class Recorder:
    """In-memory span store plus the module patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        self._open.add(name)
        span[3] = time.perf_counter_ns()
        return span

    def _exit(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._stack.pop()
        self._open.discard(span[2])

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def _wrap(self, fn, name: str, describe):
        rec = self

        def traced(*args, **kwargs):
            if name in rec._open:
                return fn(*args, **kwargs)
            s = rec._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._exit(s)
            if describe is not None:
                s[5] = describe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, points) -> None:
        for module, attr, name, describe in points:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, describe))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """All spans as JSON: one [id, parent, name, start_ns, end_ns, attrs] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    own = [(s[4] - s[3]) for s in spans]
    by_id = {s[0]: i for i, s in enumerate(spans)}
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None:
            own[parent] -= s[4] - s[3]
    return [ns * 1e-9 for ns in own]


# Every per-layer metric, with its unit, in report order. Idle layers read 0.
LAYER_METRICS = {
    "cli.self_s": "s",
    "scene.parse_scene.calls": "count",
    "scene.parse_scene.s": "s",
    "scene.self_s": "s",
    "geom.sightline_host_intersection.calls": "count",
    "geom.sightline_host_intersection.s": "s",
    "geom.self_s": "s",
    "striping.make_striping.calls": "count",
    "striping.make_striping.s": "s",
    "striping.integrate_toolpath.calls": "count",
    "striping.integrate_toolpath.s": "s",
    "striping.toolpath_samples": "count",
    "striping.arcs_accepted": "count",
    "striping.arcs_rejected": "count",
    "striping.self_s": "s",
    "foliation.radial_roots.calls": "count",
    "foliation.radial_roots.s": "s",
    "foliation.radial_roots.rays": "count",
    "foliation.radial_roots.ridging.calls": "count",
    "foliation.radial_roots.ridging.s": "s",
    "foliation.radial_roots.ridging.rays": "count",
    "foliation.radial_roots.foliation.calls": "count",
    "foliation.radial_roots.foliation.s": "s",
    "foliation.radial_roots.foliation.rays": "count",
    "foliation.member_through.calls": "count",
    "foliation.member_through.s": "s",
    "foliation.self_s": "s",
    "ridging.build_ridging.calls": "count",
    "ridging.build_ridging.s": "s",
    "ridging.mesh_ridging.calls": "count",
    "ridging.mesh_ridging.s": "s",
    "ridging.bands": "count",
    "ridging.mesh_vertices": "count",
    "ridging.mesh_triangles": "count",
    "ridging.self_s": "s",
    "simulate.find_glints.calls": "count",
    "simulate.find_glints.arc_s": "s",
    "simulate.find_glints.ridging_s": "s",
    "simulate.find_glints.mesh_s": "s",
    "simulate.render_glintmap.calls": "count",
    "simulate.render_glintmap.s": "s",
    "simulate.triangulate.calls": "count",
    "simulate.glints_found": "count",
    "simulate.self_s": "s",
    "exporters.export_gcode.s": "s",
    "exporters.format_csv.s": "s",
    "exporters.format_obj.s": "s",
    "exporters.export_frames.s": "s",
    "exporters.bytes": "bytes",
    "exporters.self_s": "s",
}

# attrs key summed into a count metric, per span name
_ATTR_COUNTS = {
    "striping.integrate_toolpath": {"samples": "striping.toolpath_samples"},
    "striping.make_striping": {"accepted": "striping.arcs_accepted",
                               "rejected": "striping.arcs_rejected"},
    "ridging.build_ridging": {"bands": "ridging.bands"},
    "ridging.mesh_ridging": {"vertices": "ridging.mesh_vertices",
                             "triangles": "ridging.mesh_triangles"},
    "simulate.find_glints": {"glints": "simulate.glints_found"},
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one pass's spans."""
    m = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in LAYER_METRICS.items()}
    own = self_times(spans)
    for s, self_s in zip(spans, own):
        name, attrs = s[2], s[5] or {}
        dur = (s[4] - s[3]) * 1e-9
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += self_s
        if f"{name}.calls" in m:
            m[f"{name}.calls"] += 1
        if f"{name}.s" in m:
            m[f"{name}.s"] += dur
        for key, metric in _ATTR_COUNTS.get(name, {}).items():
            m[metric] += attrs.get(key, 0)
        if name == "foliation.radial_roots":
            caller = attrs.get("caller", "foliation")
            m["foliation.radial_roots.rays"] += attrs.get("rays", 0)
            m[f"{name}.{caller}.calls"] += 1
            m[f"{name}.{caller}.s"] += dur
            m[f"{name}.{caller}.rays"] += attrs.get("rays", 0)
        elif name == "simulate.find_glints":
            key = f"{name}.{attrs.get('target', 'other')}_s"
            if key in m:
                m[key] += dur
        elif name.startswith("exporters."):
            m["exporters.bytes"] += attrs.get("bytes", 0)
    return m
