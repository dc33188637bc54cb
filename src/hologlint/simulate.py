"""Glint finder, stereoscopic triangulation, and glint-map rendering.

This module is the verification oracle for the synthesized surfaces: it
locates specular glints for a given eye and light, reports the normality and
colinearity residuals at each one, triangulates binocular glint pairs to the
perceived virtual point, and runs ``verify``'s residual suites as arrays.
Its bisections share ``geom.bisect_brackets``, one call for all arcs of all eyes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby, product

import numpy as np

from .errors import DegenerateGeometryError, DomainError
from .foliation import CartesianOval, ConicKind, ConicSurface, FoliationMember, _surface_scale
from .geom import (REFLECTION, DirectionalLight, EyeAtInfinity, Eye, HostSurface, LightSource, Media, TangentBasis,
                  Vec3, ViewPath, bisect_brackets, colinearity_residual, colinearity_residuals, cross_rows,
                  deficient_bases, eye_direction_from, glint_axes, glint_axis, norm, norm_rows, normality_residuals,
                  root_cells, unit, unit_rows, vec3, view_thetas)
from .ridging import Mesh, RidgedSurface
from .striping import Stipple, StripeArc, Striping, Toolpath


@dataclass(frozen=True)
class Glint:
    """One specularity: where it is, how well it satisfies the constraints."""

    eye: Eye
    point: Vec3
    normal: Vec3
    normality: float  # |unit normal x unit axis|
    colinearity: float | None  # residual norm vs the intended stipple, mm
    tag: str  # "imaging" | "backface-stray"
    theta: float | None = None  # arc parameter for toolpath glints


@dataclass(frozen=True)
class TriangulationResult:
    point: Vec3 | None
    residual: float  # minimum gap between the two sightlines, mm
    baseline: float  # angle between the sightlines, radians
    at_infinity: bool = False


@dataclass(frozen=True)
class RasterParams:
    width: int = 128
    height: int = 128
    mm_per_px: float = 0.25  # orthographic scale
    focal_px: float | None = None  # pinhole focal length; default = height

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DegenerateGeometryError("raster dimensions must be positive")


@dataclass(frozen=True)
class GlintMap:
    thetas: tuple[float, ...]
    glints: tuple[tuple[Glint, ...], ...]
    frames: tuple[np.ndarray, ...] | None
    width: int
    height: int
    warnings: tuple[str, ...] = ()


# ---- glint finding ----


def find_glints(target, eye: Eye | list[Eye], light: LightSource, media: Media = REFLECTION, tol: float = 1e-9,
                stipple_p: Vec3 | None = None, dedupe_radius: float = 0.2,
                seed_angle: float = math.radians(5.0)) -> list[Glint] | list[list[Glint]]:
    """All specular glints on ``target`` for one eye, or a list of them per eye for a list.

    Candidate points are seeded where the surface normal lies within ``seed_angle`` of
    the required eta-weighted axis, then refined until the normal/axis misalignment
    drops below ``tol``; refined hits closer than ``dedupe_radius`` to an earlier one
    are dropped.  On toolpath targets the glints are the roots of <t1, axis>, bisected
    in one batch over all arcs of all eyes; other targets are searched eye by eye, each
    search taking its colinearity residuals as rows.  A list ``target`` as long as a list
    of eyes pairs target i with eye i; any other target (one, or a tuple of several) is
    searched from every eye.  An empty list is a valid answer: the surface is dark."""
    if not isinstance(eye, list):
        return find_glints([target], [eye], light, media, tol, stipple_p, dedupe_radius, seed_angle)[0]
    if isinstance(target, list) and len(target) != len(eye):
        raise DomainError(f"a glint search pairs {len(target)} targets with {len(eye)} eyes")
    pairs = zip(target, eye) if isinstance(target, list) else ((target, e) for e in eye)
    arcs: list = []  # (toolpath, reference point, eye) of every arc searched
    opts = (light, media, tol, stipple_p, dedupe_radius, seed_angle)
    plans = [_plan(t, e, arcs, opts) for t, e in pairs]
    found = _toolpath_glints(arcs, light, media)
    return [plan(found) for plan in plans]


def _plan(target, eye, arcs, opts):
    """``target``'s glints from ``eye`` as a function of the glint lists of ``arcs``, to
    which the toolpath arcs it holds are appended as (toolpath, reference point, eye)."""
    light, media, tol, stipple_p, dedupe_radius, seed_angle = opts
    while isinstance(target, (list, tuple)) and len(target) == 1 and isinstance(target[0], (Striping, list, tuple)):
        target = target[0]  # its glints are deduped already, and a deduped list dedupes to itself
    if isinstance(target, Striping):
        target = list(target.arcs)
    if isinstance(target, (list, tuple)):
        parts = [_plan(t, eye, arcs, opts) for t in target]
        return lambda found: _dedupe([g for part in parts for g in part(found)], dedupe_radius)
    if isinstance(target, (Toolpath, StripeArc)):
        path, p = (target, None) if isinstance(target, Toolpath) else (target.toolpath, target.stipple.p)
        arcs.append((path, p if stipple_p is None else stipple_p, eye))
        return lambda found, i=len(arcs) - 1: found[i]
    if isinstance(target, (ConicSurface, CartesianOval)):
        # of the sightline's roots on the member, the nearest whose normal bisects light and eye glints
        p_ref = stipple_p if stipple_p is not None else target.focus_p
        glints = _sightline_glint(target, target.focus_p, eye, light, media, tol, p_ref)
    elif isinstance(target, RidgedSurface):
        glints = _ridging_glints(target, eye, light, media, tol, stipple_p, dedupe_radius)
    elif isinstance(target, Mesh):
        glints = _mesh_glints(target, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle)
    else:
        raise DomainError(f"cannot search for glints on {type(target).__name__}")
    return lambda found: glints


def _dedupe(glints: list[Glint], radius: float) -> list[Glint]:
    """``glints`` in order, less each one within ``radius`` of an earlier kept one of its tag,
    sought only among the kept glints in the 27 cells (a hair wider than ``radius``) around
    its own; a zero radius or a far or non-finite point puts every glint in one cell."""
    if len(glints) < 2:  # nothing to drop
        return list(glints)
    side, pts = radius * (1.0 + 1e-6), [g.point.tolist() for g in glints]
    hashed = radius != 0 and all(abs(x) < 1e9 * abs(side) for p in pts for x in p)
    kept, grid = [], {}
    for g, p in zip(glints, pts):
        a, b, c = (math.floor(x / side) for x in p) if hashed else (0, 0, 0)
        near = (k for i, j, l in product((-1, 0, 1), repeat=3)
                for k in grid.get((g.tag, a + i, b + j, c + l), ()))
        if all(norm(g.point - k.point) > radius for k in near):
            kept.append(g)
            grid.setdefault((g.tag, a, b, c), []).append(g)
    return kept


def _axis_misalignment(normal: Vec3, axis_raw: Vec3) -> float:
    return norm(np.cross(unit(normal), unit(axis_raw)))


def _sightline_roots(surface: FoliationMember, eye: Eye, p: Vec3):
    """Intersections of the (eye, p) sightline with a member, within 6 scales of its origin."""
    if isinstance(eye, EyeAtInfinity):
        origin, direction = p, eye.direction
    else:
        origin, direction = np.asarray(eye, dtype=float), unit(p - eye)
    scale = max(norm(surface.focus_p - origin), abs(surface.k), 1.0)
    t = surface.line_roots(origin, direction.reshape(1, 3))[0]
    return origin, direction, t[np.abs(t) <= 6.0 * scale].tolist()


def _sightline_glint(member, p, eye, light, media, tol, p_ref, keep=lambda pt: True) -> list[Glint]:
    """The glint on ``member`` at the nearest root of the (eye, p) sightline that ``keep``
    accepts and whose normal lies within ``tol`` of the glint axis, or none."""
    origin, direction, roots = _sightline_roots(member, eye, p)
    # finite eye: smallest positive t first; infinite eye: largest t first
    at_infinity = isinstance(eye, EyeAtInfinity)
    for t in sorted(roots, reverse=True) if at_infinity else sorted(t for t in roots if t > 1e-9):
        pt = origin + t * direction
        if not keep(pt):
            continue
        n = member.normal(pt)
        res = _axis_misalignment(n, glint_axis(pt, light, eye, media))
        if res > tol:
            continue
        col = float(np.hypot(*colinearity_residual(pt, p_ref, eye)))
        return [Glint(eye, pt, n, res, col, "imaging")]
    return []


def _on_band(rs, ridge, pt: Vec3) -> bool:
    """Whether the host footprint of ``pt`` lies in ``ridge``'s radial band and arc intervals."""
    q, _ = rs.host.nearest(pt)
    rel = q - rs.foot
    r = math.hypot(float(np.dot(rel, rs.e1)), float(np.dot(rel, rs.e2)))
    if not ridge.r_in - 1e-9 <= r <= ridge.r_out + 1e-9:
        return False
    phi = math.atan2(float(np.dot(rel, rs.e2)), float(np.dot(rel, rs.e1)))
    return any(lo - 1e-12 <= phi <= hi + 1e-12 for lo, hi in ridge.arc_intervals)


def _ridging_glints(rs, eye, light, media, tol, stipple_p, dedupe_radius) -> list[Glint]:
    p_ref = stipple_p if stipple_p is not None else rs.p
    # the nearest valid hit on each ridge; farther ones are occluded
    hits = (_sightline_glint(ridge.member, rs.p, eye, light, media, tol, p_ref, partial(_on_band, rs, ridge))
            for ridge in rs.ridges)
    return _dedupe([g for hit in hits for g in hit], dedupe_radius)


def _mesh_glints(mesh, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle) -> list[Glint]:
    axes = glint_axes(mesh.vertices, light, eye, media)
    res = norm_rows(np.cross(unit_rows(mesh.normals), unit_rows(axes)))
    seeded, imaging = ~(res >= math.sin(seed_angle)), mesh.vertex_tags == "imaging"
    # the strays, then with no analytic source the best-aligned imaging vertices as they are
    as_is = seeded & imaging & (mesh.source is None)
    rows = np.concatenate([np.flatnonzero(seeded & ~imaging), np.flatnonzero(as_is)])
    cols = [None] * len(rows)
    if stipple_p is not None and len(rows):
        cols = np.hypot(*colinearity_residuals(mesh.vertices[rows], stipple_p, eye).T).tolist()
    found = [Glint(eye, mesh.vertices[i], mesh.normals[i], float(res[i]), col, tag) for i, col, tag
             in zip(rows.tolist(), cols, np.where(imaging[rows], "imaging", "backface-stray").tolist())]
    for band in sorted(set(mesh.vertex_band[seeded & imaging & ~as_is].tolist())):  # the other imaging bands
        sub = replace(mesh.source, ridges=(mesh.source.ridges[band],))
        found.extend(_ridging_glints(sub, eye, light, media, tol, stipple_p, dedupe_radius))
    return _dedupe(found, dedupe_radius)


def _toolpath_glints(arcs, light, media) -> list[list[Glint]]:
    """Per (toolpath, reference point, eye) arc, the roots of <t1, axis> = 0 along it: its groove
    glints.  The samples of an eye's arcs are stacked and their unit tangents taken once, and kept
    while the next eyes search the same toolpaths.  Each eye takes its cosines in one call, through
    one axis row under a directional light seen from infinity, and one bisection halves every
    bracket of every eye."""
    found: list[list[Glint]] = [[] for _ in arcs]
    live = [i for i, (path, _, _) in enumerate(arcs) if len(path.thetas) >= 2]
    if not live:
        return found

    def at(r0: np.ndarray, r1: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rows (theta, position, t1) at fraction u of each cell, from its end rows ``r0`` to ``r1``."""
        return r0 * (1 - u[:, None]) + r1 * u[:, None]

    def cosines(r: np.ndarray, eye: Eye) -> np.ndarray:
        return np.vecdot(unit_rows(r[:, 4:]), unit_rows(glint_axes(r[:, 1:4], light, eye, media)))

    at_infinity = isinstance(arcs[live[0]][2], EyeAtInfinity)
    free = at_infinity and isinstance(light, DirectionalLight)  # the axis is the same at every point
    run, parts = (None,), []  # the last eye's toolpaths: their sample rows, the arc of each, unit t1
    for _, group in groupby(live, key=lambda i: id(arcs[i][2])):  # the arcs of one eye
        group = list(group)
        eye = arcs[group[0]][2]
        if isinstance(eye, EyeAtInfinity) != at_infinity:
            raise DomainError("one glint search takes finite eyes or eyes at infinity, not both")
        paths = [arcs[i][0] for i in group]
        if [id(p) for p in paths] != run[0]:  # a sweep's eyes, or a stereo pair, share one run
            rows = np.concatenate([np.column_stack([p.thetas, p.positions, p.t1]) for p in paths])
            arc_of = np.repeat(np.arange(len(paths)), [len(p.thetas) for p in paths])
            run = [id(p) for p in paths], rows, arc_of, unit_rows(rows[:, 4:])
        _, rows, arc_of, tangents = run
        vals = np.vecdot(tangents, unit_rows(glint_axes(rows[:1 if free else None, 1:4], light, eye, media)))
        c = np.flatnonzero(root_cells(vals) & (arc_of[:-1] == arc_of[1:]))  # none spans two arcs
        xyz = np.tile(eye.direction if at_infinity else eye, (len(c), 1))  # the eye of each cell
        parts.append((rows[c], rows[c + 1], np.asarray(group)[arc_of[c]], vals[c], xyz))
    r0, r1, owners, starts, xyz = map(np.concatenate, zip(*parts))
    eye_rows = EyeAtInfinity if at_infinity else np.asarray  # one eye per row
    change = starts != 0.0  # sign changes are bisected; a zero sample is a root as it is
    b0, b1, eye_b = r0[change], r1[change], eye_rows(xyz[change])
    lo, hi = bisect_brackets(
        lambda u: cosines(at(b0, b1, u), eye_b), np.zeros(len(b0)), np.ones(len(b0)), starts[change], 60
    )
    u = np.zeros(len(r0))
    u[change] = 0.5 * (lo + hi)
    r = at(r0, r1, u)
    axes = unit_rows(glint_axes(r[:, 1:4], light, eye_rows(xyz), media))
    res = np.abs(np.vecdot(unit_rows(r[:, 4:]), axes)).tolist()
    has = [j for j, i in enumerate(owners.tolist()) if arcs[i][1] is not None]  # the glints with a reference point
    refs = np.reshape([arcs[i][1] for i in owners[has]], (-1, 3))
    cols = dict(zip(has, np.hypot(*colinearity_residuals(r[has, 1:4], refs, eye_rows(xyz[has])).T).tolist()))
    for j, i in enumerate(owners.tolist()):
        found[i].append(Glint(arcs[i][2], r[j, 1:4], axes[j], res[j], cols.get(j), "imaging", theta=float(r[j, 0])))
    return found


# ---- triangulation ----


def triangulate(glint_left: Glint, glint_right: Glint, eyes: tuple[Eye, Eye]) -> TriangulationResult:
    """Least-squares intersection of the two glint sightlines; parallel ones give a result at infinity
    whose residual is their gap.  Below |d1 x d2| = 1e-6 the normal equations' condition number,
    about 4 / |d1 x d2|^2, passes 4e12 and their rounding outgrows the sightlines' own error, so
    such pairs count as parallel."""
    q1, q2 = glint_left.point, glint_right.point
    d1 = eye_direction_from(q1, eyes[0])
    d2 = eye_direction_from(q2, eyes[1])
    baseline = math.acos(max(-1.0, min(1.0, float(np.dot(d1, d2)))))

    cross = np.cross(d1, d2)
    cn = norm(cross)
    if not cn >= 1e-6:
        return TriangulationResult(None, norm(np.cross(q2 - q1, d1)), baseline, at_infinity=True)
    m = np.zeros((3, 3))
    b = np.zeros(3)
    for q, d in ((q1, d1), (q2, d2)):
        proj = np.eye(3) - np.outer(d, d)
        m += proj
        b += proj @ q
    residual = abs(float(np.dot(q2 - q1, cross / cn)))
    return TriangulationResult(np.linalg.solve(m, b), residual, baseline)


# ---- rendering ----


def _pixels(points: np.ndarray, eye: Eye, raster: RasterParams) -> tuple[np.ndarray, np.ndarray]:
    """Raster column and row of each of the (N, 3) ``points`` seen from ``eye``, rounded half to
    even as Python's ``round``; NaN for a point not in front of a finite eye (depth <= 1e-9)."""
    w, h = raster.width, raster.height
    if isinstance(eye, EyeAtInfinity):
        up = vec3(0.0, 1.0, 0.0)
        right = np.cross(up, eye.direction)
        right = right / max(norm(right), 1e-12)
        u = np.vecdot(points, right) / raster.mm_per_px + 0.5 * w
        v = 0.5 * h - np.vecdot(points, up) / raster.mm_per_px
    else:
        focal = raster.focal_px if raster.focal_px is not None else float(h)
        depth = eye[2] - points[:, 2]
        depth = np.where(depth <= 1e-9, np.nan, depth)
        u = 0.5 * w + focal * (points[:, 0] - eye[0]) / depth
        v = 0.5 * h - focal * (points[:, 1] - eye[1]) / depth
    return np.round(u), np.round(v)


def render_glintmap(
    targets,
    light: LightSource,
    view: ViewPath,
    media: Media = REFLECTION,
    raster: RasterParams = RasterParams(),
    tol: float = 1e-6,
    dedupe_radius: float = 0.2,
) -> GlintMap:
    """Sweep the view path, splat per-view glints into grayscale frames; one glint
    search covers every eye of the sweep, and each eye's imaging glints are projected
    as rows; a glint off the raster or behind a finite eye is clipped."""
    thetas = tuple(map(float, view_thetas(view)))
    eyes = [view.eye_at(theta) for theta in thetas]
    all_glints = find_glints(tuple(targets), eyes, light, media, tol=tol, dedupe_radius=dedupe_radius)
    frames = [np.zeros((raster.height, raster.width), dtype=np.uint8) for _ in eyes]
    clipped = False
    for eye, glints, frame in zip(eyes, all_glints, frames):
        u, v = _pixels(np.reshape([g.point for g in glints if g.tag == "imaging"], (-1, 3)), eye, raster)
        ok = (0 <= u) & (u < raster.width) & (0 <= v) & (v < raster.height)
        frame[v[ok].astype(int), u[ok].astype(int)] = 255
        clipped |= not ok.all()
    warnings = ("some glints projected outside the raster (projection clipped)",) if clipped else ()
    return GlintMap(thetas, tuple(map(tuple, all_glints)), tuple(frames), raster.width, raster.height, warnings)


# ---- residual suites ----


@dataclass(frozen=True)
class Verification:
    """The suites' FAIL lines in report order, and each constraint's largest |residual|
    over the samples it checked (0 for none)."""

    failures: tuple[str, ...]
    normality: float  # (1) along the arcs, over max(1, |t1| |axis|)
    colinearity: float  # (2) at the design crossings that glint, mm
    conformance: float  # (3) distance from the host, mm
    member_normality: float  # (1) on the foliation members


def _worst(r: np.ndarray) -> np.ndarray:
    """Row-wise ``max(abs(r0), abs(r1))`` of (N, 2) residuals, as Python's ``max`` picks."""
    a, b = np.abs(r).T
    return np.where(b > a, b, a)


def _first(mask: np.ndarray) -> int:
    """Index of the first true row of ``mask``, or its length when there is none."""
    return int(next(iter(np.flatnonzero(mask)), len(mask)))


def _arc_suite(arc: StripeArc, glints, light, host, view, media, fab, failures: list[str]):
    """(1) and (3) at each sample of ``arc`` in turn, then (2) at its design crossing,
    where it found ``glints``; returns the arc's largest (1), (2) and (3) residuals."""
    sid, path = arc.stipple.stipple_id, arc.toolpath
    t2 = cross_rows(path.t1, path.axes)
    n = _first(deficient_bases(path.t1, t2))  # the samples before a deficient one are checked first
    thetas, pos, t1, axis = path.thetas[:n], path.positions[:n], path.t1[:n], path.axes[:n]
    r = normality_residuals(t1, t2[:n], pos, light, view.eyes_at(thetas), media)
    scale = np.sqrt(np.vecdot(t1, t1)) * np.sqrt(np.vecdot(axis, axis))
    normality = _worst(r) / np.where(scale > 1.0, scale, 1.0)
    dist = norm_rows(pos - host.nearest_many(pos)[0])
    if n < len(t2):
        TangentBasis(path.t1[n], t2[n], path.positions[n])  # raises the deficient-basis error
    for j in np.flatnonzero((normality > 1e-9) | (dist > fab.delta + 1e-9)):
        at = f"stipple {sid}, theta={math.degrees(thetas[j]):.4f} deg"
        if normality[j] > 1e-9:
            failures.append(
                f"(1) normality violated at {at}, sample={pos[j]}, residual={tuple(r[j].tolist())}"
            )
        if dist[j] > fab.delta + 1e-9:
            failures.append(
                f"(3) conformance violated at {at}, distance={dist[j]:.6g} mm > delta={fab.delta}"
            )

    if not glints:
        failures.append(f"(2) colinearity: no glint at window center for stipple {sid}")
    elif glints[0].colinearity > fab.tool_radius:
        failures.append(
            f"(2) colinearity violated at stipple {sid}: residual "
            f"{glints[0].colinearity:.6g} mm > tool radius at sample={glints[0].point}"
        )
    return np.max(normality, initial=0.0), glints[0].colinearity if glints else 0.0, np.max(dist, initial=0.0)


def _member_suite(stipple: Stipple, member: FoliationMember, light, media, rng, failures: list[str]):
    """(1) at 32 seeded samples of ``member`` up to its first failure, after which ``rng`` is
    where drawing only the samples up to it leaves it; returns the largest residual checked."""
    drawn = rng.bit_generator.state
    azimuths, latitudes = rng.uniform([-math.pi, 0.05], [math.pi, 0.45], size=(32, 2)).T
    pts = member.points_at(azimuths, latitudes)
    rows = np.flatnonzero(~np.isnan(pts).any(axis=1))  # the other directions miss the sheet
    pts, normals = pts[rows], member.normal_many(pts[rows])
    b1 = cross_rows(normals, np.broadcast_to([0.0, 1.0, 0.0], pts.shape))
    flat = np.sqrt(np.vecdot(b1, b1)) < 1e-9
    b1[flat] = cross_rows(normals[flat], np.broadcast_to([1.0, 0.0, 0.0], normals[flat].shape))
    b1 /= np.sqrt(np.vecdot(b1, b1))[:, None]
    b2 = cross_rows(normals, b1)
    if isinstance(member, CartesianOval):
        real = member.sign > 0
    else:
        real = member.kind in (ConicKind.ELLIPSOID, ConicKind.SPHERE) or member.paraboloid_sign < 0
    eyes = pts + 2.0 * ((stipple.p - pts) if real else (pts - stipple.p))  # past p iff p is real
    n = _first(deficient_bases(b1, b2))
    r = normality_residuals(b1[:n], b2[:n], pts[:n], light, eyes[:n], media)
    faults = {  # what fails at each sample, in the order that names it
        "normality violated on": _worst(r) > 1e-9,
        "normal faces away from the glint axis on":
            ~(np.vecdot(normals[:n], glint_axes(pts[:n], light, eyes[:n], media)) > 0),
        "sample lies off": ~(np.abs(member.implicit_many(pts[:n])) <= 1e-9 * max(1.0, _surface_scale(member))),
    }
    j = _first(np.logical_or.reduce(list(faults.values())))
    if j < n:
        why = next(why for why, at in faults.items() if at[j])
        failures.append(
            f"(1) {why} the foliation member of stipple "
            f"{stipple.stipple_id} at sample={pts[j]}, residual={tuple(r[j].tolist())}"
        )
        rng.bit_generator.state = drawn
        rng.uniform(size=2 * (rows[j] + 1))
    elif n < len(pts):
        TangentBasis(b1[n], b2[n], pts[n])  # raises the deficient-basis error
    return float(np.max(_worst(r[: j + 1]), initial=0.0))


def verify_suites(striping: Striping, members: list[tuple[Stipple, FoliationMember]], light: LightSource,
                  host: HostSurface, view: ViewPath, media: Media = REFLECTION) -> Verification:
    """The paper's three glint constraints, checked as arrays: per arc, (1) normality
    and (3) conformance at each sample in turn, then (2) colinearity at ``theta_c``
    (one glint search finds every arc's crossing glints first); then (1) on each pair's
    member at 32 samples seeded with 7.  A deficient tangent basis raises at the first
    such sample."""
    fab, eyes = striping.fab, [view.eye_at(arc.theta_c) for arc in striping.arcs]
    crossings = find_glints(list(striping.arcs), eyes, light, media, dedupe_radius=fab.tool_radius)
    failures: list[str] = []
    arcs = [_arc_suite(*a, light, host, view, media, fab, failures) for a in zip(striping.arcs, crossings)]
    rng = np.random.default_rng(7)
    on_members = [_member_suite(s, m, light, media, rng, failures) for s, m in members]
    worst = np.max(np.reshape(arcs, (-1, 3)), axis=0, initial=0.0).tolist()
    return Verification(tuple(failures), *worst, max(on_members, default=0.0))
