"""Glint finder, stereoscopic triangulation, and glint-map rendering.

This module is the verification oracle for the synthesized surfaces: it
locates specular glints for a given eye and light, reports the normality and
colinearity residuals at each one, triangulates binocular glint pairs to the
perceived virtual point, and runs ``verify``'s residual suites as arrays.
Its bisections share ``geom.bisect_brackets``, one call for all arcs of a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGeometryError, DomainError
from .foliation import CartesianOval, ConicKind, ConicSurface, FoliationMember
from .geom import (
    REFLECTION,
    EyeAtInfinity,
    Eye,
    HostSurface,
    LightSource,
    Media,
    TangentBasis,
    Vec3,
    ViewPath,
    bisect_brackets,
    colinearity_residual,
    cross_rows,
    deficient_bases,
    eye_direction_from,
    glint_axes,
    glint_axis,
    norm,
    norm_rows,
    normality_residuals,
    root_cells,
    unit,
    unit_rows,
    vec3,
    view_thetas,
)
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


def find_glints(
    target,
    eye: Eye,
    light: LightSource,
    media: Media = REFLECTION,
    tol: float = 1e-9,
    stipple_p: Vec3 | None = None,
    dedupe_radius: float = 0.2,
    seed_angle: float = math.radians(5.0),
) -> list[Glint]:
    """All specular glints on ``target`` for one eye.

    Candidate points are seeded where the surface normal lies within
    ``seed_angle`` of the required eta-weighted axis, then refined until the
    normal/axis misalignment drops below ``tol``; refined hits closer than
    ``dedupe_radius`` to an earlier one are dropped.  On toolpath targets the
    glints are the roots of <t1, axis>, bisected together over all arcs.
    An empty list is a valid answer: the surface is simply dark from that eye.
    """
    if isinstance(target, (list, tuple)):
        found: list[Glint] = []
        for t in target:
            found.extend(
                find_glints(t, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle)
            )
        return _dedupe(found, dedupe_radius)
    if isinstance(target, (ConicSurface, CartesianOval)):
        return _member_glints(target, eye, light, media, tol, stipple_p)
    if isinstance(target, RidgedSurface):
        return _ridging_glints(target, eye, light, media, tol, stipple_p, dedupe_radius)
    if isinstance(target, Mesh):
        return _mesh_glints(target, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle)
    if isinstance(target, Toolpath):
        return _toolpath_glints([(target, None)], eye, light, media, stipple_p)
    if isinstance(target, StripeArc):
        return _toolpath_glints([(target.toolpath, target.stipple.p)], eye, light, media, stipple_p)
    if isinstance(target, Striping):
        arcs = [(arc.toolpath, arc.stipple.p) for arc in target.arcs]
        return _dedupe(_toolpath_glints(arcs, eye, light, media, stipple_p), dedupe_radius)
    raise DomainError(f"cannot search for glints on {type(target).__name__}")


def _dedupe(glints: list[Glint], radius: float) -> list[Glint]:
    kept: list[Glint] = []
    for g in glints:
        if all(norm(g.point - k.point) > radius for k in kept if k.tag == g.tag):
            kept.append(g)
    return kept


def _axis_misalignment(normal: Vec3, axis_raw: Vec3) -> float:
    return norm(np.cross(unit(normal), unit(axis_raw)))


def _sightline_roots(surface: FoliationMember, eye: Eye, p: Vec3, n_grid: int = 4096):
    """Intersections of the (eye, p) sightline with a member's implicit surface."""
    if isinstance(eye, EyeAtInfinity):
        origin, direction = p, eye.direction
    else:
        origin, direction = np.asarray(eye, dtype=float), unit(p - eye)

    scale = max(norm(surface.focus_p - origin), abs(surface.k), 1.0)
    if isinstance(surface, ConicSurface):
        t = surface.line_roots(origin, direction.reshape(1, 3))[0]
        return origin, direction, t[np.abs(t) <= 6.0 * scale].tolist()

    def f(ts: np.ndarray) -> np.ndarray:
        return surface.implicit_many(origin + ts[:, None] * direction)

    ts = np.linspace(-6.0 * scale, 6.0 * scale, n_grid)
    vals = f(ts)
    # cells with a non-finite end are skipped; a zero at a grid point is a root as it is
    cells = root_cells(vals) & np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    k = np.flatnonzero(cells & (vals[:-1] != 0.0))
    lo, hi = bisect_brackets(f, ts[k], ts[k + 1], vals[k], 90)
    roots = ts[:-1].copy()
    roots[k] = 0.5 * (lo + hi)
    return origin, direction, roots[cells].tolist()


def _order_roots_near_eye(eye: Eye, roots):
    # finite eye: smallest positive t first; infinite eye: largest t first
    if isinstance(eye, EyeAtInfinity):
        return sorted(roots, reverse=True)
    return sorted([t for t in roots if t > 1e-9])


def _member_glints(surface, eye, light, media, tol, stipple_p) -> list[Glint]:
    # Both sightline intersections lie on the member, but only the one whose
    # oriented normal bisects light and eye actually glints (on an ellipsoid
    # the ray must pass p before striking the surface).
    p_ref = stipple_p if stipple_p is not None else surface.focus_p
    origin, direction, roots = _sightline_roots(surface, eye, surface.focus_p)
    for t in _order_roots_near_eye(eye, roots):
        pt = origin + t * direction
        n = surface.normal(pt)
        res = _axis_misalignment(n, glint_axis(pt, light, eye, media))
        if res > tol:
            continue
        col = float(np.hypot(*colinearity_residual(pt, p_ref, eye)))
        return [Glint(eye, pt, n, res, col, "imaging")]
    return []


def _ridging_glints(rs, eye, light, media, tol, stipple_p, dedupe_radius) -> list[Glint]:
    p_ref = stipple_p if stipple_p is not None else rs.p
    found: list[Glint] = []
    for ridge in rs.ridges:
        origin, direction, roots = _sightline_roots(ridge.member, eye, rs.p)
        for t in _order_roots_near_eye(eye, roots):
            pt = origin + t * direction
            q, _ = rs.host.nearest(pt)
            rel = q - rs.foot
            r = math.hypot(float(np.dot(rel, rs.e1)), float(np.dot(rel, rs.e2)))
            if not ridge.r_in - 1e-9 <= r <= ridge.r_out + 1e-9:
                continue
            phi = math.atan2(float(np.dot(rel, rs.e2)), float(np.dot(rel, rs.e1)))
            if not any(lo - 1e-12 <= phi <= hi + 1e-12 for lo, hi in ridge.arc_intervals):
                continue
            n = ridge.member.normal(pt)
            res = _axis_misalignment(n, glint_axis(pt, light, eye, media))
            if res > tol:
                continue
            col = float(np.hypot(*colinearity_residual(pt, p_ref, eye)))
            found.append(Glint(eye, pt, n, res, col, "imaging"))
            break  # nearest valid hit on this ridge; farther ones are occluded
    return _dedupe(found, dedupe_radius)


def _mesh_glints(mesh, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle) -> list[Glint]:
    axes = glint_axes(mesh.vertices, light, eye, media)
    res = norm_rows(np.cross(unit_rows(mesh.normals), unit_rows(axes)))
    seeded = ~(res >= math.sin(seed_angle))
    imaging = mesh.vertex_tags == "imaging"

    def vertex_glints(mask: np.ndarray, tag: str) -> list[Glint]:
        out = []
        for idx in np.flatnonzero(mask):
            v = mesh.vertices[idx]
            col = (
                float(np.hypot(*colinearity_residual(v, stipple_p, eye)))
                if stipple_p is not None
                else None
            )
            out.append(Glint(eye, v, mesh.normals[idx], float(res[idx]), col, tag))
        return out

    found = vertex_glints(seeded & ~imaging, "backface-stray")
    if mesh.source is None:
        # no analytic source: report the best-aligned imaging vertices as-is
        found.extend(vertex_glints(seeded & imaging, "imaging"))
        return _dedupe(found, dedupe_radius)
    for band in sorted(set(mesh.vertex_band[seeded & imaging].tolist())):
        sub = replace(mesh.source, ridges=(mesh.source.ridges[band],))
        found.extend(_ridging_glints(sub, eye, light, media, tol, stipple_p, dedupe_radius))
    return _dedupe(found, dedupe_radius)


def _toolpath_glints(arcs, eye, light, media, stipple_p) -> list[Glint]:
    """Roots of <t1, axis> = 0 along each (toolpath, design point) arc: the groove
    glints where its direction is perpendicular to the required reflection axis.
    The arcs' samples are stacked, and one bisection halves every bracket."""
    arcs = [(path, p) for path, p in arcs if len(path.thetas) >= 2]
    if not arcs:
        return []
    paths = [path for path, _ in arcs]
    rows = np.concatenate([np.column_stack([p.thetas, p.positions, p.t1]) for p in paths])
    arc_of = np.repeat(np.arange(len(paths)), [len(p.thetas) for p in paths])

    def at(k: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rows (theta, position, t1) interpolated at fraction u of each cell [k, k + 1]."""
        return rows[k] * (1 - u[:, None]) + rows[k + 1] * u[:, None]

    def cosines(r: np.ndarray) -> np.ndarray:
        return np.vecdot(unit_rows(r[:, 4:]), unit_rows(glint_axes(r[:, 1:4], light, eye, media)))

    vals = cosines(rows)
    cells = np.flatnonzero(root_cells(vals) & (arc_of[:-1] == arc_of[1:]))  # none spans two arcs
    change = vals[cells] != 0.0  # sign changes are bisected; a zero sample is a root as it is
    k = cells[change]
    lo, hi = bisect_brackets(
        lambda u: cosines(at(k, u)), np.zeros(len(k)), np.ones(len(k)), vals[k], 60
    )
    u = np.zeros(len(cells))
    u[change] = 0.5 * (lo + hi)
    r = at(cells, u)
    axes = unit_rows(glint_axes(r[:, 1:4], light, eye, media))
    res = np.abs(np.vecdot(unit_rows(r[:, 4:]), axes))
    found: list[Glint] = []
    for j, i in enumerate(arc_of[cells].tolist()):
        p_ref = stipple_p if stipple_p is not None else arcs[i][1]
        x = r[j, 1:4]
        col = float(np.hypot(*colinearity_residual(x, p_ref, eye))) if p_ref is not None else None
        found.append(Glint(eye, x, axes[j], float(res[j]), col, "imaging", theta=float(r[j, 0])))
    return found


# ---- triangulation ----


def triangulate(
    glint_left: Glint, glint_right: Glint, eyes: tuple[Eye, Eye]
) -> TriangulationResult:
    """Least-squares intersection of the two glint sightlines."""
    q1, q2 = glint_left.point, glint_right.point
    d1 = eye_direction_from(q1, eyes[0])
    d2 = eye_direction_from(q2, eyes[1])
    baseline = math.acos(max(-1.0, min(1.0, float(np.dot(d1, d2)))))

    cross = np.cross(d1, d2)
    cn = norm(cross)
    if cn < 1e-12:
        gap = norm(np.cross(q2 - q1, d1))
        return TriangulationResult(None, gap, baseline, at_infinity=True)

    m = np.zeros((3, 3))
    b = np.zeros(3)
    for q, d in ((q1, d1), (q2, d2)):
        proj = np.eye(3) - np.outer(d, d)
        m += proj
        b += proj @ q
    point = np.linalg.solve(m, b)
    residual = abs(float(np.dot(q2 - q1, cross / cn)))
    return TriangulationResult(point, residual, baseline)


# ---- rendering ----


def _project(point: Vec3, eye: Eye, raster: RasterParams) -> tuple[int, int, bool]:
    w, h = raster.width, raster.height
    if isinstance(eye, EyeAtInfinity):
        d = eye.direction
        up = vec3(0.0, 1.0, 0.0)
        right = np.cross(up, d)
        right = right / max(norm(right), 1e-12)
        u = float(np.dot(point, right)) / raster.mm_per_px + 0.5 * w
        v = 0.5 * h - float(np.dot(point, up)) / raster.mm_per_px
    else:
        focal = raster.focal_px if raster.focal_px is not None else float(h)
        depth = float(eye[2] - point[2])
        if depth <= 1e-9:
            return 0, 0, False
        u = 0.5 * w + focal * float(point[0] - eye[0]) / depth
        v = 0.5 * h - focal * float(point[1] - eye[1]) / depth
    iu, iv = int(round(u)), int(round(v))
    return iu, iv, (0 <= iu < w and 0 <= iv < h)


def render_glintmap(
    targets,
    light: LightSource,
    view: ViewPath,
    media: Media = REFLECTION,
    raster: RasterParams = RasterParams(),
    tol: float = 1e-6,
    dedupe_radius: float = 0.2,
) -> GlintMap:
    """Sweep the view path, splat per-view glints into grayscale frames."""
    thetas = view_thetas(view)
    all_glints: list[tuple[Glint, ...]] = []
    frames: list[np.ndarray] = []
    warnings: list[str] = []
    clipped = False
    for theta in thetas:
        eye = view.eye_at(float(theta))
        glints = find_glints(list(targets), eye, light, media, tol=tol, dedupe_radius=dedupe_radius)
        all_glints.append(tuple(glints))
        frame = np.zeros((raster.height, raster.width), dtype=np.uint8)
        for g in glints:
            if g.tag != "imaging":
                continue
            u, v, ok = _project(g.point, eye, raster)
            if not ok:
                clipped = True
                continue
            frame[v, u] = 255
        frames.append(frame)
    if clipped:
        warnings.append("some glints projected outside the raster (projection clipped)")
    return GlintMap(
        thetas=tuple(float(t) for t in thetas),
        glints=tuple(all_glints),
        frames=tuple(frames),
        width=raster.width,
        height=raster.height,
        warnings=tuple(warnings),
    )


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


def _arc_suite(arc: StripeArc, light, host, view, media, fab, failures: list[str]):
    """(1) and (3) at each sample of ``arc`` in turn, then (2) at its design crossing;
    returns the arc's largest (1), (2) and (3) residuals."""
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

    glints = find_glints(arc, view.eye_at(arc.theta_c), light, media, dedupe_radius=fab.tool_radius)
    if not glints:
        failures.append(f"(2) colinearity: no glint at window center for stipple {sid}")
    elif glints[0].colinearity > fab.tool_radius:
        failures.append(
            f"(2) colinearity violated at stipple {sid}: residual "
            f"{glints[0].colinearity:.6g} mm > tool radius at sample={glints[0].point}"
        )
    colinearity = glints[0].colinearity if glints else 0.0
    return np.max(normality, initial=0.0), colinearity, np.max(dist, initial=0.0)


def _member_suite(stipple: Stipple, member: ConicSurface, light, media, rng, failures: list[str]):
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
    real = member.kind in (ConicKind.ELLIPSOID, ConicKind.SPHERE) or member.paraboloid_sign < 0
    eyes = pts + 2.0 * ((stipple.p - pts) if real else (pts - stipple.p))  # past p iff p is real
    n = _first(deficient_bases(b1, b2))
    r = normality_residuals(b1[:n], b2[:n], pts[:n], light, eyes[:n], media)
    j = _first(_worst(r) > 1e-9)
    if j < n:
        failures.append(
            f"(1) normality violated on the foliation member of stipple "
            f"{stipple.stipple_id} at sample={pts[j]}, residual={tuple(r[j].tolist())}"
        )
        rng.bit_generator.state = drawn
        rng.uniform(size=2 * (rows[j] + 1))
    elif n < len(pts):
        TangentBasis(b1[n], b2[n], pts[n])  # raises the deficient-basis error
    return float(np.max(_worst(r[: j + 1]), initial=0.0))


def verify_suites(
    striping: Striping,
    members: list[tuple[Stipple, FoliationMember]],
    light: LightSource,
    host: HostSurface,
    view: ViewPath,
    media: Media = REFLECTION,
) -> Verification:
    """The paper's three glint constraints, checked as arrays: per arc, (1) normality
    and (3) conformance at each sample in turn, then (2) colinearity at ``theta_c``;
    then (1) on each pair's conic member at 32 samples seeded with 7 (ovals have
    none).  A deficient tangent basis raises at the first such sample."""
    failures: list[str] = []
    arcs = [_arc_suite(arc, light, host, view, media, striping.fab, failures) for arc in striping.arcs]
    rng = np.random.default_rng(7)
    conics = [(s, m) for s, m in members if not isinstance(m, CartesianOval)]
    on_members = [_member_suite(s, m, light, media, rng, failures) for s, m in conics]
    worst = np.max(np.reshape(arcs, (-1, 3)), axis=0, initial=0.0).tolist()
    return Verification(tuple(failures), *worst, max(on_members, default=0.0))
