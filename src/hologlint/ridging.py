"""Fresnel-like ridged surfaces conforming to a host within a thin shell.

Each ridge is the piece of one foliation member over an annular band of the
host, bounded laterally by cones from an apex in front of the host and
closed by a conical riser (the non-imaging backface) down to the next band's
member.  Bands follow the revolute symmetry: circles on the host around the
foot of the light/point axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DomainError,
    ResolutionError,
    RootFindError,
    ShellTooThinError,
    UnsupportedConfigurationError,
)
from .foliation import (
    ConicKind,
    ConicSurface,
    classify_member,
    member_through,
    radial_roots,
)
from .geom import (
    REFLECTION,
    DirectionalLight,
    HostSurface,
    LightSource,
    Media,
    PlaneHost,
    PointLight,
    Vec3,
    light_directions_from,
    norm,
    norm_rows,
    nullspace_basis,
    unit,
    unit_rows,
)

FULL_INTERVAL = (-math.pi, math.pi)


@dataclass(frozen=True)
class FabricationParams:
    """Knobs shared by the ridging and striping fabricators.

    ``delta`` is the conforming-shell half-thickness; ``pitch`` the radial
    ridge width on the host; ``cone_apex_standoff`` the apex height above the
    band midline (defaults to 10*delta); ``mesh_resolution`` is samples per
    millimeter; ``tool_radius`` is used by striping overlap tests.
    """

    delta: float = 0.5
    pitch: float = 2.0
    cone_apex_standoff: float | None = None
    mesh_resolution: float = 4.0
    tool_radius: float = 0.2

    def __post_init__(self):
        if not self.delta > 0:  # "not > 0" rejects NaN too
            raise DegenerateGeometryError("shell half-thickness delta must be positive")
        if not self.pitch > 0:
            raise DegenerateGeometryError("ridge pitch must be positive")
        if not self.mesh_resolution > 0:
            raise DegenerateGeometryError("mesh resolution must be positive")
        if not self.tool_radius >= 0:
            raise DegenerateGeometryError("tool radius must be nonnegative")
        if self.cone_apex_standoff is not None and not math.isfinite(self.cone_apex_standoff):
            raise DegenerateGeometryError("cone apex standoff must be finite")

    @property
    def apex_standoff(self) -> float:
        return self.cone_apex_standoff if self.cone_apex_standoff is not None else 10.0 * self.delta


@dataclass(frozen=True)
class Ridge:
    """One annular band: a foliation member cut by cones and the shell."""

    member: ConicSurface
    r_in: float
    r_out: float
    apex: Vec3
    half_angle_interval: tuple[float, float]
    arc_intervals: tuple[tuple[float, float], ...] = (FULL_INTERVAL,)
    descend: float = 1.0  # how far below the host the cut rays start

    @property
    def k(self) -> float:
        return self.member.k


@dataclass(frozen=True)
class RidgedSurface:
    """Ordered ridges of one stipple's ridging, plus the frame they live in."""

    host: PlaneHost
    p: Vec3
    light: LightSource
    media: Media
    foot: Vec3
    e1: Vec3
    e2: Vec3
    delta: float
    ridges: tuple[Ridge, ...]
    crop_azimuth: tuple[float, float] = FULL_INTERVAL
    crop_elevation: tuple[float, float] = (-0.5 * math.pi, 0.5 * math.pi)
    warnings: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.ridges or all(not r.arc_intervals for r in self.ridges)

    def station_point(self, ridge: Ridge, radius: float, phi: float) -> Vec3:
        """Host point of a band station (radius, azimuth-around-foot)."""
        return self.foot + radius * (math.cos(phi) * self.e1 + math.sin(phi) * self.e2)


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with imaging/backface tags and analytic vertex normals."""

    vertices: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int
    face_tags: np.ndarray  # (M,) str: "imaging" | "backface"
    face_band: np.ndarray  # (M,) int
    vertex_tags: np.ndarray  # (N,) str
    vertex_band: np.ndarray  # (N,) int
    source: RidgedSurface | None = None

    @property
    def backface_area(self) -> float:
        tris = self.triangles[self.face_tags == "backface"]
        a, b, c = (self.vertices[tris[:, k]] for k in range(3))
        return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


# ---- construction ----


def _axis_foot_and_direction(p: Vec3, light: LightSource, host: PlaneHost) -> tuple[Vec3, Vec3]:
    """Foot of the revolute axis on the host and its viewer-side unit direction."""
    n = host.normal
    if isinstance(light, DirectionalLight):
        axis = light.direction
    else:
        axis = light.position - p
        if norm(axis) < 1e-9:
            # Degenerate sphere member: revolve about the host normal through p.
            axis = n
    denom = float(np.dot(axis, n))
    if abs(denom) < 1e-12:
        raise UnsupportedConfigurationError(
            "ridging needs the light axis to meet the host, but the foliation axis "
            "through the virtual point runs parallel to the host plane"
        )
    u = unit(axis)
    if float(np.dot(u, n)) < 0:
        u = -u
    t = -host.signed_distance(p) / float(np.dot(u, n))
    return p + t * u, u


def _member_heights(member: ConicSurface, xs: np.ndarray, n: Vec3, limit: float) -> np.ndarray:
    """Row-wise signed offsets t nearest 0 (the lower on a tie) such that xs + t*n lies
    on the member, |t| <= limit; NaN on a row whose line does not cross within the limit."""
    t = member.line_roots(xs, np.broadcast_to(n, np.shape(xs)))
    t[~(np.abs(t) <= limit)] = np.nan
    lo, hi = t.T
    return np.where(np.isnan(lo) | (np.abs(hi) < np.abs(lo)), hi, lo)


def _crossed(heights: np.ndarray) -> np.ndarray:
    if np.isnan(heights).any():
        raise RootFindError("foliation member does not cross the shell line")
    return heights


def _member_height(member: ConicSurface, x: Vec3, n: Vec3, limit: float) -> float:
    """Signed offset t nearest 0 such that x + t*n lies on the member, |t| <= limit."""
    return float(_crossed(_member_heights(member, np.reshape(x, (1, 3)), n, limit))[0])


def _cos_sin(phis: np.ndarray):
    """math.cos and math.sin of each azimuth (numpy's SIMD loops may round differently)."""
    return (np.fromiter(map(f, phis.tolist()), float, len(phis)) for f in (math.cos, math.sin))


def _ring(e1: Vec3, e2: Vec3, phis: np.ndarray) -> np.ndarray:
    """Unit host offsets cos(phi)*e1 + sin(phi)*e2, one row per azimuth."""
    c, s = _cos_sin(phis)
    return c[:, None] * e1 + s[:, None] * e2


def _cone_cut(
    member: ConicSurface, apex: Vec3, hosts: np.ndarray, n: Vec3, descend: float
) -> np.ndarray:
    """Member points on the cone rays apex -> host points.

    Rays are launched from below the shell and run upward so the nearest root
    is always the shell-conforming face, never the far side of a closed
    member.
    """
    dirs = hosts - apex
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    drop = descend / np.abs(dirs @ n)
    origins = hosts + drop[:, None] * dirs
    return radial_roots(member, origins, -dirs)


def build_ridging(
    p: Vec3,
    light: LightSource,
    host: HostSurface,
    fab: FabricationParams,
    crop: tuple[tuple[float, float], tuple[float, float]] | None = None,
    max_radius: float | None = None,
    media: Media = REFLECTION,
    check_stations: int = 24,
) -> RidgedSurface:
    """Build the ridged surface for one virtual point.

    Bands of width ``fab.pitch`` tile the host annularly around the axis
    foot-point out to ``max_radius``.  Each band's member is the foliation
    member through the band midline, which centers its sag in the shell; a
    band whose sag exceeds ``fab.delta`` raises ShellTooThinError with the
    half-thickness that would be required.  When ``max_radius`` is omitted
    the footprint grows until the shell limit (or a generous cap) is hit, so
    the default build is always fabricable.
    """
    if not isinstance(host, PlaneHost):
        raise UnsupportedConfigurationError("ridging is constructed on plane hosts only")
    if not media.is_reflective:
        raise UnsupportedConfigurationError("ridging is a reflective construction")

    kind = classify_member(p, host, light)
    if kind is ConicKind.PARABOLOID and isinstance(light, PointLight):
        raise DegenerateGeometryError(
            "virtual point on the host surface: degenerate parabolic needle"
        )

    sd_p = host.signed_distance(p)
    foot, axis_dir = _axis_foot_and_direction(p, light, host)
    e1, e2 = nullspace_basis(host.normal)

    adaptive = max_radius is None
    if adaptive:
        max_radius = max(8.0 * fab.pitch, 4.0 * abs(sd_p))
    if not 0 < max_radius < math.inf:  # NaN too
        raise DegenerateGeometryError("ridging footprint radius must be positive")

    n_bands = max(1, int(math.ceil(max_radius / fab.pitch - 1e-12)))
    limit = max(8.0 * fab.delta, fab.pitch, abs(sd_p))
    member_kind = kind if kind in (ConicKind.ELLIPSOID, ConicKind.HYPERBOLOID) else None

    ridges: list[Ridge] = []
    warnings: list[str] = []
    ring = _ring(e1, e2, np.linspace(-math.pi, math.pi, check_stations, endpoint=False))

    for j in range(n_bands):
        r_in = j * fab.pitch
        r_out = min((j + 1) * fab.pitch, max_radius)
        r_mid = 0.5 * (r_in + r_out)
        q_mid = foot + r_mid * e1
        member = member_through(p, light, q_mid, media, kind=member_kind)

        # one three-row solve: mid, inner and outer radius; a miss names the first missing one
        sag_radii = (r_mid, max(r_in, 1e-9), r_out)
        sags = _member_heights(member, foot + np.array(sag_radii)[:, None] * e1, host.normal, limit)
        if np.isnan(sags).any():
            if adaptive and ridges:
                break
            raise ShellTooThinError(
                math.inf,
                f"shell too thin: band {j} member does not cross the shell line within "
                f"{limit:.6g} mm of the host at radius {sag_radii[np.isnan(sags).argmax()]:.6g} mm",
            )
        sag_mid, sag_in, sag_out = sags.tolist()

        # cut rays start far enough below the host to clear the whole face
        peak = max(abs(sag_in), abs(sag_mid), abs(sag_out))
        descend = 2.0 * peak + 0.5 * (r_out - r_in) + 1e-6

        # Keep the cone cut steeper than ~45 degrees over the whole band:
        # a low apex over a wide footprint sends rays nearly tangent to the
        # member, which makes the cut ill-posed.
        height = sag_mid + max(fab.apex_standoff, r_out)
        s_axis = height / float(np.dot(axis_dir, host.normal))
        apex = foot + s_axis * axis_dir

        # shell check along the actual cone rays (the geometry that is tooled
        # and meshed); a member that never crosses cannot serve the band
        radii = np.linspace(max(1e-9, r_in), r_out, 7)
        hosts = (foot + radii[:, None, None] * ring).reshape(-1, 3)
        miss = None
        try:
            pts = _cone_cut(member, apex, hosts, host.normal, descend)
            max_sag = float(np.max(np.abs((pts - host.origin) @ host.normal)))
        except (RootFindError, DomainError):
            max_sag = math.inf
            miss = (
                f"shell too thin: band {j} member misses a cone ray "
                f"between radius {radii[0]:.6g} and {r_out:.6g} mm"
            )
        if max_sag > fab.delta:
            if adaptive and ridges:
                break  # footprint reached the fabricable limit
            raise ShellTooThinError(max_sag, miss)

        if fab.pitch <= 2.0 * abs(sag_out - sag_in):
            warnings.append(f"band {j}: pitch {fab.pitch:.4g} <= 2x sag variation {abs(sag_out - sag_in):.4g}")

        beta_in = _cone_half_angle(apex, foot + max(r_in, 1e-9) * e1, axis_dir)
        beta_out = _cone_half_angle(apex, foot + r_out * e1, axis_dir)
        ridges.append(Ridge(member, r_in, r_out, apex, (beta_in, beta_out), descend=descend))

    rs = RidgedSurface(
        host=host,
        p=p,
        light=light,
        media=media,
        foot=foot,
        e1=e1,
        e2=e2,
        delta=fab.delta,
        ridges=tuple(ridges),
        warnings=tuple(warnings),
    )
    if crop is not None:
        rs = crop_ridging(rs, crop[0], crop[1])
    return rs


def _cone_half_angle(apex: Vec3, rim_point: Vec3, axis_dir: Vec3) -> float:
    d = unit(rim_point - apex)
    c = float(np.clip(np.dot(d, -axis_dir), -1.0, 1.0))
    return math.acos(c)


# ---- cropping ----


def _merge_stations(phis: np.ndarray, keep: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Merge consecutive retained stations into azimuth intervals, in station order: a run across the
    -pi/pi seam gives one interval on each side of it."""
    if keep.all():
        return (FULL_INTERVAL,)
    half = math.pi / len(phis)  # stations tile 2*pi/n each
    edges = np.diff(np.r_[0, keep, 0])  # +1 where a run starts, -1 one past where it ends
    starts, ends = np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()
    return tuple((phis[a] - half, phis[b - 1] + half) for a, b in zip(starts, ends))


def _interval_intersect(
    intervals: tuple[tuple[float, float], ...], other: tuple[tuple[float, float], ...]
) -> tuple[tuple[float, float], ...]:
    pairs = ((max(a0, b0), min(a1, b1)) for a0, a1 in intervals for b0, b1 in other)
    return tuple((lo, hi) for lo, hi in pairs if lo < hi)


def crop_ridging(
    rs: RidgedSurface,
    azimuth: tuple[float, float],
    elevation: tuple[float, float],
) -> RidgedSurface:
    """Retain the imaging area whose reflected sightlines exit inside the windows."""
    if not azimuth[0] < azimuth[1] or not elevation[0] < elevation[1]:
        raise DegenerateGeometryError("crop intervals must be nonempty")

    full_az = azimuth[0] <= -math.pi and azimuth[1] >= math.pi
    full_el = elevation[0] <= -0.5 * math.pi and elevation[1] >= 0.5 * math.pi
    if full_az and full_el:
        return rs

    n_st = 180
    phis = np.linspace(-math.pi, math.pi, n_st, endpoint=False) + math.pi / n_st
    limit, n = max(8.0 * rs.delta, 1.0), rs.host.normal
    ring = _ring(rs.e1, rs.e2, phis)
    ridges = []
    for ridge in rs.ridges:
        xs = rs.foot + 0.5 * (ridge.r_in + ridge.r_out) * ring
        pts = xs + _crossed(_member_heights(ridge.member, xs, n, limit))[:, None] * n
        # exit directions: the direction toward the light mirrored about the member normal
        to_light, normals = light_directions_from(pts, rs.light), ridge.member.normal_many(pts)
        e = ((2.0 * np.vecdot(to_light, normals))[:, None] * normals - to_light).tolist()
        # math's atan2 and asin, not numpy's, whose SIMD loops may round differently
        keep = np.array([
            azimuth[0] <= math.atan2(ex, ez) <= azimuth[1]
            and elevation[0] <= math.asin(max(-1.0, min(1.0, ey))) <= elevation[1]
            for ex, ey, ez in e
        ])
        retained = _interval_intersect(ridge.arc_intervals, _merge_stations(phis, keep))
        if retained:
            ridges.append(replace(ridge, arc_intervals=retained))
    warnings = rs.warnings + (() if ridges else ("crop removed the entire ridged surface",))
    return replace(
        rs, ridges=tuple(ridges), crop_azimuth=azimuth, crop_elevation=elevation, warnings=warnings
    )


# ---- meshing ----

_TAGS = np.array(["imaging", "backface"])
_WINDING_ROWS = 1 << 16  # faces per block of the winding pass: its gathers stay a few MiB


def mesh_ridging(rs: RidgedSurface, fab: FabricationParams) -> Mesh:
    """Triangulate a ridged surface; imaging faces carry analytic member normals.

    Each arc of a band takes two batched root solves: one cone cut for its
    whole imaging grid and one riser cut down to the next band's member.
    Face winding is then oriented by the analytic normals in one pass over
    the whole mesh.
    """
    if rs.is_empty:
        raise DegenerateGeometryError("cannot mesh an empty ridged surface")
    if fab.pitch * fab.mesh_resolution < 4.0:
        raise ResolutionError(
            f"fewer than 4 samples across pitch "
            f"({fab.pitch * fab.mesh_resolution:.2f}); raise mesh_resolution"
        )

    verts: list[np.ndarray] = []
    normals: list[np.ndarray] = []
    faces: list[np.ndarray] = []
    # per arc: its band twice, and its imaging then backface counts
    bands: list[int] = []
    vert_counts: list[int] = []
    face_counts: list[int] = []
    offset = 0  # mesh id of the arc's first vertex

    n = rs.host.normal

    for band_idx, ridge in enumerate(rs.ridges):
        width = ridge.r_out - ridge.r_in
        n_rad = max(4, int(math.ceil(width * fab.mesh_resolution))) + 1
        radii = np.linspace(ridge.r_in, ridge.r_out, n_rad)
        collapsed = int(radii[0] < 1e-9)  # inner ring at the axis foot: one vertex
        next_member = (
            rs.ridges[band_idx + 1].member if band_idx + 1 < len(rs.ridges) else None
        )
        for lo, hi in ridge.arc_intervals:
            arc_len = (hi - lo) * max(ridge.r_out, 1e-6)
            closed = hi - lo >= 2 * math.pi - 1e-12
            n_az = max(8, int(math.ceil(arc_len * fab.mesh_resolution)))
            phis = np.linspace(lo, hi, n_az, endpoint=not closed)
            n_cols = len(phis)
            cols = np.arange(n_cols if closed else n_cols - 1)
            nxt = (cols + 1) % n_cols
            c, s = _cos_sin(phis)

            # imaging grid: the member cut along cone rays from the apex
            hosts = rs.foot + radii[collapsed:, None, None] * (c[:, None] * rs.e1 + s[:, None] * rs.e2)
            hosts = np.vstack([rs.foot[None]] * collapsed + [hosts.reshape(-1, 3)])
            pts = _cone_cut(ridge.member, ridge.apex, hosts, n, ridge.descend)
            # vertex ids by (radius, column) counted from the arc's first vertex; a collapsed
            # inner row is one vertex, whose degenerate first triangles are dropped
            grid = np.arange(n_rad * n_cols).reshape(n_rad, n_cols) - collapsed * (n_cols - 1)
            grid[:collapsed] = 0
            a, b, d0, d1 = grid[:-1, cols], grid[:-1, nxt], grid[1:, cols], grid[1:, nxt]
            quads = np.stack([a, b, d1, a, d1, d0], -1)
            imaging = np.concatenate(
                [quads[:collapsed, :, 3:].reshape(-1, 3), quads[collapsed:].reshape(-1, 3)]
            )

            # backface riser: outer rim down to the next member (or the host)
            top = pts[-n_cols:]
            d = unit_rows(top - ridge.apex)
            if next_member is not None:
                drop = ridge.descend / np.abs(d @ n)
                low = radial_roots(next_member, top + drop[:, None] * d, -d)
            else:
                t = -rs.host.signed_distance(ridge.apex) / (d @ n)
                low = ridge.apex + t[:, None] * d
            bn = np.cross(c[:, None] * rs.e2 + s[:, None] * -rs.e1, d)  # azimuthal tangent x cone ray
            bn_len = norm_rows(bn)[:, None]
            bn = np.where(bn_len > 1e-12, bn / np.where(bn_len > 1e-12, bn_len, 1.0), n)
            bn[np.einsum("ij,ij->i", bn, top - rs.foot) < 0] *= -1.0
            a, b = grid[-1, cols], grid[-1, nxt]
            gap = norm_rows(low - top) < 1e-12
            backface = np.stack([a, b + n_cols, b, a, a + n_cols, b + n_cols], -1)
            backface = backface[~(gap[cols] & gap[nxt])].reshape(-1, 3)

            faces += [offset + imaging, offset + backface]
            verts += [pts, low]
            normals += [ridge.member.normal_many(pts), bn]
            bands += [band_idx, band_idx]
            vert_counts += [len(pts), n_cols]
            face_counts += [len(imaging), len(backface)]
            offset += len(pts) + n_cols

    # orient every face's winding with the analytic normal of its first corner, in blocks of
    # faces so that the per-corner gathers stay small next to the mesh
    vertices, vertex_normals, tris = np.concatenate(verts), np.concatenate(normals), np.concatenate(faces)
    for a in range(0, len(tris), _WINDING_ROWS):
        block = tris[a : a + _WINDING_ROWS]
        f0, f1, f2 = block.T
        v0 = vertices.take(f0, 0)  # take is the faster row gather here
        flip = np.einsum("ij,ij->i", np.cross(vertices.take(f1, 0) - v0, vertices.take(f2, 0) - v0),
                         vertex_normals.take(f0, 0)) < 0
        block[flip] = block[flip][:, [0, 2, 1]]

    tags = np.resize(_TAGS, len(bands))
    return Mesh(
        vertices=vertices,
        normals=vertex_normals,
        triangles=tris,
        face_tags=tags.repeat(face_counts),
        face_band=np.repeat(bands, face_counts),
        vertex_tags=tags.repeat(vert_counts),
        vertex_band=np.repeat(bands, vert_counts),
        source=rs,
    )
