"""Seeded scenes, per-pass operations and output checks of the three workloads.

The program only ever sees the generated scene files (and, for the library
round trip, objects built from them by its own scene module). Stipple
values are stratified so that a different seed moves every stipple but keeps
the amount of work per pass nearly the same.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import random
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STRIPE_ERR_BOUND = 0.05  # |p_hat - p| / |p_z|, acceptance criterion 5 (striping)
RIDGE_ERR_BOUND = 1e-6  # |p_hat - p| / |p|, acceptance criterion 5 (exact ridging)
CONFORMANCE_SLACK = 1e-9  # acceptance criterion 6: distance <= delta + slack
STEREO_EYE_MM = 300.0
STEREO_HALF_DEG = 2.0


@dataclass
class Scene:
    name: str
    text: str
    extra_args: tuple[str, ...] = ()
    max_radius: float | None = None
    path: Path | None = None
    spec: object = None


@dataclass
class OpResult:
    """One operation of one pass: what ran, how long, and what went wrong."""

    name: str
    metric: str
    seconds: float = 0.0  # clock reading
    ref_seconds: float = 0.0  # at reference core speed, set by the runner
    problems: list[str] = field(default_factory=list)
    stdout: str = ""
    facts: dict = field(default_factory=dict)


# ---- scene generation ----


def _stipple_lines(rng, n, x_range, y_range, cols, view_half, width_range):
    """Stipples on a jittered cols x rows grid of the wall, alternately in front and behind.

    Stipple k draws its window width from slice k of ``width_range``, its
    depth from slice 7k mod n of [3, 15] mm and its window centre from slice
    3k mod n of the free range. The pairing of slices is fixed; the seed moves
    every value within its slice, picks the wall cells and the file order.
    """
    def draw(k, lo, hi):
        return lo + (hi - lo) * (k % n + 0.35 + 0.3 * rng.random()) / n

    rows = math.ceil(n / cols)
    cells = [(i % cols, i // cols) for i in range(cols * rows)]
    rng.shuffle(cells)
    cw = (x_range[1] - x_range[0]) / cols
    ch = (y_range[1] - y_range[0]) / rows
    lines = []
    for k in range(n):
        w = draw(k, *width_range)
        z = (1.0 if k % 2 == 0 else -1.0) * draw(7 * k, 3.0, 15.0)
        free = view_half - 0.5 * w
        c = draw(3 * k, -free, free)
        cx, cy = cells[k]
        x = x_range[0] + cw * (cx + 0.1 + 0.8 * rng.random())
        y = y_range[0] + ch * (cy + 0.1 + 0.8 * rng.random())
        lines.append(f"{x:.3f} {y:.3f} {z:.3f} 1.0 {c - 0.5 * w:.3f} {c + 0.5 * w:.3f} 0")
    rng.shuffle(lines)
    return lines


def stripe_flat_scenes(rng: random.Random, smoke: bool) -> list[Scene]:
    n, samples = (2, 5) if smoke else (20, 31)
    fab = ["", "[fab]", "step_deg = 0.5"] if smoke else []
    text = "\n".join(
        ["[light]", "type = directional", "alpha_deg = 30", "",
         "[view]", "type = infinity", "theta_min_deg = -45", "theta_max_deg = 45",
         f"samples = {samples}", *fab, "", "[stipples]"]
        + _stipple_lines(rng, n, (-60.0, 60.0), (-40.0, 40.0), 5, 45.0, (10.0, 40.0))
    ) + "\n"
    return [Scene("scene", text)]


def stripe_sphere_scenes(rng: random.Random, smoke: bool) -> list[Scene]:
    n, samples = (1, 5) if smoke else (5, 31)
    fab = ["", "[fab]", "step_deg = 0.5"] if smoke else []
    text = "\n".join(
        ["[light]", "type = point", "position = 0 300 600", "",
         "[host]", "type = sphere", "center = 0 0 -200", "radius = 200", "",
         "[view]", "type = orbit", "radius = 500", "theta_min_deg = -30",
         "theta_max_deg = 30", f"samples = {samples}", *fab, "", "[stipples]"]
        + _stipple_lines(rng, n, (-40.0, 40.0), (-20.0, 20.0), 5, 30.0, (10.0, 30.0))
    ) + "\n"
    return [Scene("scene", text)]


def ridge_point_scenes(rng: random.Random, smoke: bool) -> list[Scene]:
    """Scene A: p ~ (0,0,-10) with --max-radius; scene B: p ~ (0,0,5), adaptive.

    The seed moves each point along the axis by up to 0.25 mm and picks A's
    footprint radius in [7.5, 8] mm: both keep four bands, so the work per
    pass stays put while the geometry changes.
    """
    za = -10.0 + rng.uniform(-0.25, 0.25)
    zb = 5.0 + rng.uniform(-0.25, 0.25)
    ra = 2.0 if smoke else round(rng.uniform(7.5, 8.0), 3)
    rb = 2.0 if smoke else None  # smoke mode bounds B too: the adaptive default takes seconds

    def text(z):
        return f"[light]\ntype = point\nposition = 0 0 20\n\n[stipples]\n0 0 {z:.4f} 1.0 -45 45 0\n"

    return [
        Scene("a", text(za), ("--max-radius", f"{ra}"), ra),
        Scene("b", text(zb), () if rb is None else ("--max-radius", f"{rb}"), rb),
    ]


# ---- running operations ----


def digest(stdout: str, directory: Path | None) -> tuple[str, int]:
    """sha256 of stdout plus every file under ``directory``, and the files' bytes."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    total = 0
    if directory is not None and directory.exists():
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                total += len(data)
                h.update(path.name.encode("utf-8"))
                h.update(data)
    return h.hexdigest(), total


@dataclass(frozen=True)
class Env:
    """What a pass needs: the imported modules and a span opener."""

    hg: dict
    span: object  # name -> context manager; a no-op when tracing is off


def run_cli(env: Env, name: str, metric: str, argv: list[str]) -> OpResult:
    """Run one CLI command in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    op = OpResult(name, metric)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), env.span(f"cli.{argv[0]}"):
            rc = env.hg["cli"].cli_dispatch(argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        rc = None
        op.problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
    op.seconds = time.perf_counter() - t0
    op.stdout = out.getvalue()
    stderr = err.getvalue()
    if "Traceback" in op.stdout or "Traceback" in stderr:
        op.problems.append("printed a traceback")
    op.facts["rc"] = rc
    op.facts["stderr"] = stderr
    return op


def _check_rc(op: OpResult, allowed: tuple[int, ...]) -> None:
    rc = op.facts["rc"]
    if rc is not None and rc not in allowed:
        detail = op.facts["stderr"].strip().splitlines()[-1:] or [""]
        op.problems.append(f"exit code {rc} ({detail[0]})")


# ---- stripe workloads ----


def stripe_ops(env: Env, scenes: list[Scene], work: Path) -> list:
    """The pass's operations, in order, each a call that returns its OpResult."""
    path = str(scenes[0].path)
    return [
        functools.partial(run_cli, env, "stripe", "stripe_s",
                          ["stripe", path, "-o", str(work / "stripe")]),
        functools.partial(run_cli, env, "simulate", "simulate_s",
                          ["simulate", path, "-o", str(work / "simulate"), "--raster", "128"]),
        functools.partial(run_cli, env, "verify", "verify_s", ["verify", path]),
    ]


_ACCEPTED = re.compile(r"^accepted (\d+) arcs, rejected (\d+)$", re.M)
_VIOLATIONS = re.compile(r"^verify: (\d+) violation\(s\)$", re.M)


def stripe_check(ops: list[OpResult], scenes: list[Scene], work: Path, curved: bool = False) -> None:
    """Output checks of one stripe pass; problems land on the op at fault.

    Acceptance criterion 5 bounds the striping round trip on a flat wall with
    eyes at infinity. On a curved host with finite eyes the seed code exceeds
    that bound for stipples far from the sphere's apex, so there (``curved``)
    an excess is reported as a known problem and does not fail the operation.
    """
    spec = scenes[0].spec
    n_stipples = len(spec.stipples)
    stripe, simulate, verify = ops

    _check_rc(stripe, (0,))
    m = _ACCEPTED.search(stripe.stdout)
    accepted = None
    if m is None:
        stripe.problems.append("no 'accepted N arcs' line")
    else:
        accepted, rejected = int(m.group(1)), int(m.group(2))
        stripe.facts["accepted"] = accepted
        if accepted + rejected != n_stipples:
            stripe.problems.append(f"{accepted}+{rejected} arcs for {n_stipples} stipples")
    gcode = work / "stripe" / "striping.nc"
    if not gcode.exists() or not gcode.read_text(encoding="utf-8").endswith("M2\n"):
        stripe.problems.append("striping.nc missing or not terminated by M2")
    if not (work / "stripe" / "striping.csv").exists():
        stripe.problems.append("striping.csv missing")

    _check_rc(simulate, (0,))
    frames = list((work / "simulate").glob("frame_*.pgm"))
    if len(frames) != spec.view.samples:
        simulate.problems.append(f"{len(frames)} frames for {spec.view.samples} views")
    pairs = []
    tri = work / "simulate" / "triangulation.csv"
    if not tri.exists():
        simulate.problems.append("triangulation.csv missing")
    else:
        zs = [s.z for s in spec.stipples]
        rows = tri.read_text(encoding="utf-8").splitlines()[1:]
        if accepted is not None and len(rows) != accepted:
            simulate.problems.append(f"{len(rows)} triangulation rows for {accepted} arcs")
        for row in rows:
            fields = row.split(",")
            err = float(fields[5])
            ratio = err / abs(zs[int(fields[0])]) if math.isfinite(err) else None
            pairs.append(ratio)
            if ratio is not None and ratio > STRIPE_ERR_BOUND:
                msg = f"stipple {fields[0]}: |p_hat - p| / |p_z| = {ratio:.4g} > {STRIPE_ERR_BOUND}"
                (simulate.facts.setdefault("known", []) if curved else simulate.problems).append(msg)
    simulate.facts["pairs"] = pairs

    _check_rc(verify, (0, 1))
    fails = sum(1 for line in verify.stdout.splitlines() if line.startswith("FAIL "))
    m = _VIOLATIONS.search(verify.stdout)
    if m is not None and int(m.group(1)) == fails and fails > 0:
        verify.facts["violations"] = fails
    elif fails == 0 and "verify: all residual suites passed" in verify.stdout:
        verify.facts["violations"] = 0
    else:
        verify.problems.append("verify summary does not match its FAIL lines")


# ---- ridge workload ----


def _eyes():
    out = []
    for sign in (-1.0, 1.0):
        t = math.radians(sign * STEREO_HALF_DEG)
        out.append(STEREO_EYE_MM * np.array([math.sin(t), 0.0, math.cos(t)]))
    return tuple(out)


def roundtrip(env: Env, scene: Scene) -> OpResult:
    """Library stereo round trip: build, mesh, glints on ridging and mesh, triangulate."""
    scene_io, ridging, simulate = env.hg["scene"], env.hg["ridging"], env.hg["simulate"]
    spec = scene.spec
    light, host, fab = scene_io.build_light(spec), scene_io.build_host(spec), scene_io.build_fab(spec)
    p = scene_io.build_stipples(spec)[0].p
    eyes = _eyes()
    op = OpResult(f"roundtrip-{scene.name}", "roundtrip_s")
    results = []
    t0 = time.perf_counter()
    try:
        with env.span("bench.roundtrip"):
            rs = ridging.build_ridging(p, light, host, fab, max_radius=scene.max_radius)
            mesh = ridging.mesh_ridging(rs, fab)
            for target in (rs, mesh):
                gl = simulate.find_glints(target, eyes[0], light, stipple_p=p)
                gr = simulate.find_glints(target, eyes[1], light, stipple_p=p)
                results.append(simulate.triangulate(gl[0], gr[0], eyes) if gl and gr else None)
    except Exception:  # an escaped exception is a failed operation, not a crash
        op.problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
    op.seconds = time.perf_counter() - t0
    results += [None] * (2 - len(results))
    pairs = []
    for kind, tri in zip(("ridging", "mesh"), results):
        if tri is None or tri.point is None:
            pairs.append(None)
            continue
        err = float(np.linalg.norm(tri.point - p))
        pairs.append(err / abs(float(p[2])))
        if kind == "ridging" and err > RIDGE_ERR_BOUND * float(np.linalg.norm(p)):
            op.problems.append(f"analytic round trip error {err:.3g} mm > 1e-6 |p|")
    if pairs[0] is None:
        op.problems.append("analytic ridging round trip found no stereo pair")
    op.facts["pairs"] = pairs
    # the printed form of the results, compared across passes like a command's stdout
    op.stdout = repr([None if t is None or t.point is None else t.point.tolist() for t in results])
    return op


def ridge_ops(env: Env, scenes: list[Scene], work: Path) -> list:
    """The pass's operations, in order, each a call that returns its OpResult."""
    ops = [
        functools.partial(run_cli, env, f"ridge-{s.name}", "ridge_s",
                          ["ridge", str(s.path), "-o", str(work / f"ridge-{s.name}"),
                           *s.extra_args])
        for s in scenes
    ]
    return ops + [functools.partial(roundtrip, env, s) for s in scenes]


_WROTE = re.compile(r"^wrote \S+ \((\d+) vertices, (\d+) faces\)$", re.M)


def ridge_check(ops: list[OpResult], scenes: list[Scene], work: Path) -> None:
    for op, scene in zip(ops, scenes):
        _check_rc(op, (0,))
        obj = work / op.name / "ridge_000.obj"
        m = _WROTE.search(op.stdout)
        if not obj.exists() or m is None:
            op.problems.append("no OBJ written")
            continue
        host = scene.spec.host
        normal = np.array(host.normal) / math.hypot(*host.normal)
        delta = scene.spec.fab.delta
        verts, faces = [], 0
        for line in obj.read_text(encoding="utf-8").splitlines():
            if line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:4]])
            elif line.startswith("f "):
                faces += 1
        v = np.array(verts).reshape(-1, 3)
        if (len(v), faces) != (int(m.group(1)), int(m.group(2))):
            op.problems.append("OBJ counts differ from the reported ones")
        dist = np.abs((v - np.array(host.origin)) @ normal)
        bad = int(np.count_nonzero(dist > delta + CONFORMANCE_SLACK))
        if bad:
            op.problems.append(f"{bad} OBJ vertices farther than delta from the host")
        op.facts["vertices"] = len(v)


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: object  # (rng, smoke) -> list[Scene]
    ops: object  # (env, scenes, work) -> list of calls, each returning an OpResult
    check: object  # (ops, scenes, work) -> None
    op_metrics: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stripe-flat", stripe_flat_scenes, stripe_ops, stripe_check,
                 ("stripe_s", "simulate_s", "verify_s")),
        Workload("stripe-sphere", stripe_sphere_scenes, stripe_ops,
                 functools.partial(stripe_check, curved=True),
                 ("stripe_s", "simulate_s", "verify_s")),
        Workload("ridge-point", ridge_point_scenes, ridge_ops, ridge_check,
                 ("ridge_s", "roundtrip_s")),
    )
}
