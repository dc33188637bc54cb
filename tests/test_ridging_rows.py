"""Row-wise ridging against its former per-band and per-arc code, kept below verbatim.

``build_ridging`` solves each band's three sags (mid, inner and outer radius)
in one ``_member_heights`` call, and ``mesh_ridging`` numbers its imaging grid
by index arithmetic and orients every face's winding in one pass over the
whole mesh, in blocks of faces.  Both equal the former code bit for bit: the
same ridged surfaces, the same meshes (vertices, normals, triangles, tags and
bands) and the same raised errors, type and text.
"""

import math

import numpy as np
import pytest
from dataclasses import fields, is_dataclass, replace
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.errors import (
    DegenerateGeometryError,
    DomainError,
    HologlintError,
    ResolutionError,
    RootFindError,
    ShellTooThinError,
    UnsupportedConfigurationError,
)
from hologlint.foliation import ConicKind, ConicSurface, classify_member, member_through, radial_roots
from hologlint.geom import (
    REFLECTION,
    HostSurface,
    LightSource,
    Media,
    PlaneHost,
    PointLight,
    Vec3,
    norm_rows,
    nullspace_basis,
    unit_rows,
)
from hologlint import ridging
from hologlint.ridging import (
    _TAGS,
    FabricationParams,
    Mesh,
    Ridge,
    RidgedSurface,
    _axis_foot_and_direction,
    _cone_cut,
    _cone_half_angle,
    _crossed,
    _ring,
    build_ridging,
    crop_ridging,
    mesh_ridging,
)

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
WALL = PlaneHost()


# ---- the former band-sag loop and mesher, verbatim ----


def _member_height(member, x, n, limit):
    """The former ``ridging._member_height``: the one-row ``_member_heights`` call, raising on a miss
    (looked up in ``ridging``, as the former function did, so that a test's patch of it applies)."""
    return float(_crossed(ridging._member_heights(member, np.reshape(x, (1, 3)), n, limit))[0])


def _old_band_sag(member: ConicSurface, x: Vec3, n: Vec3, limit: float, band: int, r: float) -> float:
    """``_member_height`` at band radius ``r``; a miss names the band and radius."""
    try:
        return _member_height(member, x, n, limit)
    except RootFindError:
        raise ShellTooThinError(
            math.inf,
            f"shell too thin: band {band} member does not cross the shell line "
            f"within {limit:.6g} mm of the host at radius {r:.6g} mm",
        ) from None


def _old_build_ridging(
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

        try:
            sag_mid, sag_in, sag_out = (
                _old_band_sag(member, foot + r * e1, host.normal, limit, j, r)
                for r in (r_mid, max(r_in, 1e-9), r_out)
            )
        except ShellTooThinError:
            if adaptive and ridges:
                break
            raise

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


def _old_mesh_ridging(rs: RidgedSurface, fab: FabricationParams) -> Mesh:
    """Triangulate a ridged surface; imaging faces carry analytic member normals.

    Each arc of a band takes two batched root solves: one cone cut for its
    whole imaging grid and one riser cut down to the next band's member.
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
    tris: list[np.ndarray] = []
    # per arc: its band twice, and its imaging then backface counts
    bands: list[int] = []
    vert_counts: list[int] = []
    face_counts: list[int] = []

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

            # imaging grid: the member cut along cone rays from the apex;
            # vertex ids are local to the arc until it is appended
            hosts = rs.foot + radii[collapsed:, None, None] * _ring(rs.e1, rs.e2, phis)
            hosts = np.vstack([rs.foot[None]] * collapsed + [hosts.reshape(-1, 3)])
            pts = _cone_cut(ridge.member, ridge.apex, hosts, n, ridge.descend)
            grid = np.arange(len(pts)).repeat([n_cols] * collapsed + [1] * (len(pts) - collapsed))
            grid = grid.reshape(n_rad, n_cols)
            a, b = grid[:-1, cols], grid[:-1, nxt]
            d0, d1 = grid[1:, cols], grid[1:, nxt]
            faces = np.stack([np.stack([a, b, d1], -1), np.stack([a, d1, d0], -1)], 2)
            imaging = faces[np.stack([a != b, np.ones_like(a, dtype=bool)], 2)]

            # backface riser: outer rim down to the next member (or the host)
            top = pts[-n_cols:]
            d = unit_rows(top - ridge.apex)
            if next_member is not None:
                drop = ridge.descend / np.abs(d @ n)
                low = radial_roots(next_member, top + drop[:, None] * d, -d)
            else:
                t = -rs.host.signed_distance(ridge.apex) / (d @ n)
                low = ridge.apex + t[:, None] * d
            bn = np.cross(_ring(rs.e2, -rs.e1, phis), d)  # azimuthal tangent x cone ray
            bn_len = norm_rows(bn)[:, None]
            bn = np.where(bn_len > 1e-12, bn / np.where(bn_len > 1e-12, bn_len, 1.0), n)
            bn[np.einsum("ij,ij->i", bn, top - rs.foot) < 0] *= -1.0
            rim, lower = grid[-1], len(pts) + np.arange(n_cols)
            a, b, d0, d1 = rim[cols], rim[nxt], lower[cols], lower[nxt]
            gap = norm_rows(low - top) < 1e-12
            faces = np.stack([np.stack([a, d1, b], -1), np.stack([a, d0, d1], -1)], 1)
            backface = faces[~(gap[cols] & gap[nxt])].reshape(-1, 3)

            # orient the winding with the analytic normals
            arc_verts = np.concatenate([pts, low])
            arc_normals = np.concatenate([ridge.member.normal_many(pts), bn])
            faces = np.concatenate([imaging, backface])
            corners = arc_verts[faces]
            fn = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
            flip = np.einsum("ij,ij->i", fn, arc_normals[faces[:, 0]]) < 0
            faces[flip] = faces[flip][:, [0, 2, 1]]

            tris.append(sum(vert_counts) + faces)
            verts.append(arc_verts)
            normals.append(arc_normals)
            bands += [band_idx, band_idx]
            vert_counts += [len(pts), n_cols]
            face_counts += [len(imaging), len(backface)]

    tags = np.resize(_TAGS, len(bands))
    return Mesh(
        vertices=np.concatenate(verts),
        normals=np.concatenate(normals),
        triangles=np.concatenate(tris),
        face_tags=tags.repeat(face_counts),
        face_band=np.repeat(bands, face_counts),
        vertex_tags=tags.repeat(vert_counts),
        vertex_band=np.repeat(bands, vert_counts),
        source=rs,
    )


# ---- comparisons ----


def _bits(value):
    """A hashable form of a value that tells apart any two that differ in a bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if is_dataclass(value):
        return type(value).__name__, tuple((f.name, _bits(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _outcome(fn, *args, **kwargs):
    """The bits of what ``fn`` returns, or the type and text of what it raises."""
    try:
        return "ok", _bits(fn(*args, **kwargs))
    except HologlintError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(p, light, fab, max_radius, crop):
    """Build and mesh with today's code and the former code: equal bits (a mesh's vertices,
    normals, triangles, tags, bands and source) or equal errors."""
    args = (p, light, WALL, fab)
    new = _outcome(build_ridging, *args, crop=crop, max_radius=max_radius)
    assert new == _outcome(_old_build_ridging, *args, crop=crop, max_radius=max_radius)
    if new[0] != "ok":
        return None
    rs = build_ridging(*args, crop=crop, max_radius=max_radius)
    assert _outcome(mesh_ridging, rs, fab) == _outcome(_old_mesh_ridging, rs, fab)
    return rs


# ---- generated ridgings ----


@st.composite
def ridgings(draw):
    """A point in front of or behind the wall, a point or directional light, fabrication
    parameters, an adaptive footprint or a radius off the pitch grid, and maybe a crop."""
    depth = draw(st.floats(2.0, 9.0)) * draw(st.sampled_from([-1.0, 1.0]))
    p = hg.vec3(draw(st.floats(-3, 3)), draw(st.floats(-3, 3)), depth)
    if draw(st.booleans()):
        light = PointLight(hg.vec3(draw(st.floats(-8, 8)), draw(st.floats(-8, 8)), draw(st.floats(12, 60))))
    else:
        light = hg.DirectionalLight(math.radians(draw(st.floats(60, 90))))
    pitch = draw(st.floats(1.0, 3.0))
    fab = FabricationParams(
        delta=draw(st.floats(0.8, 3.0)),
        pitch=pitch,
        cone_apex_standoff=draw(st.none() | st.floats(0.0, 20.0)),
        mesh_resolution=draw(st.sampled_from([4.0, 4.6, 5.3, 6.1, 7.0, 3.9])) / pitch,  # 3.9 samples raise
    )
    max_radius = None
    if draw(st.booleans()):
        max_radius = pitch * (draw(st.integers(0, 5)) + draw(st.floats(0.1, 0.9)))
    crop = None
    if draw(st.booleans()):
        az0 = draw(st.floats(-math.pi, math.pi - 0.2))
        el0 = draw(st.floats(-0.5 * math.pi, 0.4 * math.pi))
        crop = (az0, draw(st.floats(az0 + 0.1, math.pi))), (el0, draw(st.floats(el0 + 0.1, 0.5 * math.pi)))
    return p, light, fab, max_radius, crop


@settings(SETTINGS, max_examples=150)
@given(ridgings(), st.sampled_from([ridging._WINDING_ROWS, 1, 7, 1000]))
def test_ridgings_and_meshes_equal_the_former_code(case, winding_rows):
    # the winding pass in its blocks of faces, or in blocks of 1, 7 or 1,000 faces
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ridging, "_WINDING_ROWS", winding_rows)
        _assert_same(*case)


# ---- the cases the property must reach, pinned ----

CASES = {
    # bounded, behind the wall, radius off the pitch grid; a last band of 0.6 mm
    "behind": (hg.vec3(0, 0, -10), PointLight(hg.vec3(0, 0, 20)), FabricationParams(), 7.6, None),
    # adaptive in front of the wall, as the bench's scene B
    "front": (hg.vec3(0, 0, 5), PointLight(hg.vec3(0, 0, 20)), FabricationParams(), None, None),
    # adaptive with a tilted axis: the footprint stops at the shell limit, after band 0
    "adaptive": (hg.vec3(1, 2, -4), PointLight(hg.vec3(4, 10, 60)), FabricationParams(), None, None),
    # crops that open every arc, the collapsed centre band's too
    "open": (hg.vec3(0, 0, 5), PointLight(hg.vec3(0, 0, 20)), FabricationParams(), 9.3,
             ((-math.pi, -0.1), (-0.2, 0.35))),
    # a crop whose retained stations run across the -pi/pi seam of the host azimuth
    "seam": (hg.vec3(0, 0, 5), PointLight(hg.vec3(0, 0, 20)), FabricationParams(), 9.3,
             ((0.1, math.pi), (-1.2, 1.2))),
    # a single band: its riser ends on the host
    "single": (hg.vec3(0, 0, 3), PointLight(hg.vec3(0, 0, 20)), FabricationParams(), 1.5, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_ridgings_equal_the_former_code(name):
    rs = _assert_same(*CASES[name])
    assert rs is not None and not rs.is_empty
    intervals = [iv for ridge in rs.ridges for iv in ridge.arc_intervals]
    assert rs.ridges[0].r_in == 0.0 or name in ("open", "seam")
    if name in ("open", "seam"):
        assert all(hi - lo < 2 * math.pi - 1e-12 for lo, hi in intervals)
    if name == "seam":  # the retained run across the seam keeps one interval on each side of it
        for ridge in rs.ridges:
            (lo, a), (b, hi) = ridge.arc_intervals
            assert lo == -math.pi and hi == math.pi and a < 0.0 < b
    if name == "adaptive":
        assert len(rs.ridges) == 1 and rs.ridges[0].r_out < 8.0 * FabricationParams().pitch
    if name == "behind":
        assert rs.ridges[-1].r_out - rs.ridges[-1].r_in < FabricationParams().pitch
    if name == "single":
        assert len(rs.ridges) == 1


def test_a_riser_of_zero_height_keeps_no_backface():
    # two bands on one member: the first band's riser runs from its rim to the same points
    rs = build_ridging(hg.vec3(0, 0, 5), PointLight(hg.vec3(0, 0, 20)), WALL, FabricationParams(), max_radius=4.0)
    first, second = rs.ridges
    rs = replace(rs, ridges=(first, replace(second, member=first.member)))
    fab = FabricationParams()
    assert _outcome(mesh_ridging, rs, fab) == _outcome(_old_mesh_ridging, rs, fab)
    mesh = mesh_ridging(rs, fab)
    assert not ((mesh.face_band == 0) & (mesh.face_tags == "backface")).any()
    assert ((mesh.vertex_band == 0) & (mesh.vertex_tags == "backface")).any()  # its lower rim stays


def test_a_sphere_member_misses_the_shell_line_at_the_outer_radius():
    # a sphere member (virtual point at the light, just above the wall) is too small to reach
    # the shell line at the band's outer radius: bounded or adaptive, band 0 raises
    light_pos = hg.vec3(0, 0, 0.5)
    for fab, max_radius in [(FabricationParams(delta=0.5, pitch=4.0), 4.0), (FabricationParams(delta=0.5), None)]:
        args = (light_pos, PointLight(light_pos), WALL, fab)
        new = _outcome(build_ridging, *args, max_radius=max_radius)
        assert new == _outcome(_old_build_ridging, *args, max_radius=max_radius)
        assert new[0] == "ShellTooThinError" and f"radius {fab.pitch:.6g} mm" in new[1]


@pytest.mark.parametrize("max_radius", [7.0, None])
@pytest.mark.parametrize("band", [0, 1])
@pytest.mark.parametrize("missing", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
def test_sag_misses_name_the_first_missing_radius(monkeypatch, max_radius, band, missing):
    # the sags of one band miss at some of its (mid, inner, outer) radii: the error names the
    # first of them, as the former one-radius-at-a-time loop did, and the adaptive loop stops there
    p, light, fab = hg.vec3(0, 0, 5), PointLight(hg.vec3(0, 0, 20)), FabricationParams()
    rs = build_ridging(p, light, WALL, fab, max_radius=max_radius)
    ridge = rs.ridges[band]
    radii = np.array([0.5 * (ridge.r_in + ridge.r_out), max(ridge.r_in, 1e-9), ridge.r_out])[list(missing)]
    heights = ridging._member_heights

    def missing_heights(member, xs, n, limit):
        out = heights(member, xs, n, limit)
        if member.k == ridge.k:  # the band's member, not a neighbour's at a shared radius
            out[(np.abs(norm_rows(xs - rs.foot)[:, None] - radii) < 1e-6).any(axis=1)] = np.nan
        return out

    monkeypatch.setattr(ridging, "_member_heights", missing_heights)
    new = _outcome(build_ridging, p, light, WALL, fab, max_radius=max_radius)
    assert new == _outcome(_old_build_ridging, p, light, WALL, fab, max_radius=max_radius)
    if max_radius is None and band > 0:
        assert new[0] == "ok" and len(build_ridging(p, light, WALL, fab).ridges) == band
    else:
        assert new[0] == "ShellTooThinError"
        assert f"band {band} member does not cross" in new[1] and f"radius {radii[0]:.6g} mm" in new[1]
