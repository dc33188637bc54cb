"""Ridged surfaces: shell conformance, band members, cropping, meshing."""

import hashlib
import math

import numpy as np
import pytest

import hologlint as hg
from hologlint.exporters import format_obj
from hologlint.foliation import ConicKind
from hologlint.geom import light_directions_from, nullspace_basis
from hologlint.ridging import _crossed, _interval_intersect, _member_heights, _merge_stations

LIGHT = hg.PointLight(hg.vec3(0, 0, 20))
WALL = hg.PlaneHost()
FAB = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=4.0)


def point_triangle_distances(point, tri_a, tri_b, tri_c):
    """Distance from one point to each triangle (Ericson's closest-point)."""
    ab = tri_b - tri_a
    ac = tri_c - tri_a
    ap = point - tri_a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = point - tri_b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = point - tri_c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    closest = np.empty_like(tri_a)
    done = np.zeros(len(tri_a), dtype=bool)

    mask = (d1 <= 0) & (d2 <= 0)
    closest[mask] = tri_a[mask]
    done |= mask
    mask = (~done) & (d3 >= 0) & (d4 <= d3)
    closest[mask] = tri_b[mask]
    done |= mask
    mask = (~done) & (d6 >= 0) & (d5 <= d6)
    closest[mask] = tri_c[mask]
    done |= mask

    vc = d1 * d4 - d3 * d2
    mask = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    v = np.where(np.abs(d1 - d3) > 1e-300, d1 / (d1 - d3), 0.0)
    closest[mask] = tri_a[mask] + v[mask, None] * ab[mask]
    done |= mask

    vb = d5 * d2 - d1 * d6
    mask = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    w = np.where(np.abs(d2 - d6) > 1e-300, d2 / (d2 - d6), 0.0)
    closest[mask] = tri_a[mask] + w[mask, None] * ac[mask]
    done |= mask

    va = d3 * d6 - d5 * d4
    mask = (~done) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    w = np.where(np.abs(denom) > 1e-300, (d4 - d3) / denom, 0.0)
    closest[mask] = tri_b[mask] + w[mask, None] * (tri_c[mask] - tri_b[mask])
    done |= mask

    mask = ~done
    denom = va + vb + vc
    denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
    v = vb / denom
    w = vc / denom
    closest[mask] = tri_a[mask] + v[mask, None] * ab[mask] + w[mask, None] * ac[mask]

    return np.linalg.norm(point - closest, axis=1)


def mesh_hausdorff(mesh_a, mesh_b, sample_stride=3):
    def one_sided(src, dst):
        a = dst.vertices[dst.triangles[:, 0]]
        b = dst.vertices[dst.triangles[:, 1]]
        c = dst.vertices[dst.triangles[:, 2]]
        worst = 0.0
        for v in src.vertices[::sample_stride]:
            worst = max(worst, float(point_triangle_distances(v, a, b, c).min()))
        return worst

    return max(one_sided(mesh_a, mesh_b), one_sided(mesh_b, mesh_a))


class TestBuildRidging:
    def test_ellipsoidal_bands_conform_and_match_k(self):
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        assert rs.ridges
        mesh = hg.mesh_ridging(rs, FAB)
        for idx in range(len(mesh.vertices)):
            if mesh.vertex_tags[idx] != "imaging":
                continue
            v = mesh.vertices[idx]
            member = rs.ridges[mesh.vertex_band[idx]].member
            assert abs(member.implicit(v)) < 1e-6  # focal sum within k_band +- 1e-6
            assert hg.conformance_distance(v, WALL) <= FAB.delta + 1e-9

    def test_band_constants_monotone_for_ellipsoids(self):
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        ks = [r.k for r in rs.ridges]
        assert all(k1 < k2 for k1, k2 in zip(ks, ks[1:]))

    def test_fresnel_paraboloid_reflector(self):
        # directional light at normal incidence, point behind: confocal
        # paraboloid bands, concentric about the axis foot
        light = hg.DirectionalLight(math.pi / 2)
        rs = hg.build_ridging(hg.vec3(0, 0, -10), light, WALL, FAB)
        assert all(r.member.kind is ConicKind.PARABOLOID for r in rs.ridges)
        assert np.allclose(rs.foot, [0, 0, 0], atol=1e-12)
        mesh = hg.mesh_ridging(rs, FAB)
        worst = max(
            abs(rs.ridges[mesh.vertex_band[i]].member.implicit(mesh.vertices[i]))
            for i in range(len(mesh.vertices))
            if mesh.vertex_tags[i] == "imaging"
        )
        assert worst < 1e-9  # focus-directrix property
        assert mesh.backface_area > 0.0  # self-occluding risers exist

    def test_unconstrained_limit_single_ridge(self):
        # delta, pitch -> infinity: one ridge equal to one uncropped member
        fab = hg.FabricationParams(delta=1e9, pitch=1e9, mesh_resolution=4.0)
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, fab, max_radius=6.0)
        assert len(rs.ridges) == 1
        assert rs.ridges[0].arc_intervals == ((-math.pi, math.pi),)
        member = hg.member_through(hg.vec3(0, 0, 5), LIGHT, rs.foot + 3.0 * rs.e1)
        assert abs(rs.ridges[0].k - member.k) < 1e-12

    def test_shell_too_thin_reports_required_delta(self):
        # a footprint demanded beyond the fabricable limit names the
        # half-thickness that would be needed
        light = hg.DirectionalLight(math.pi / 2)
        with pytest.raises(hg.ShellTooThinError) as err:
            hg.build_ridging(hg.vec3(0, 0, -10), light, WALL, FAB, max_radius=8.0)
        assert FAB.delta < err.value.required_delta < 10.0

    def test_shell_too_thin_names_failing_band_and_radius(self):
        # a sphere member (virtual point at the light, just above the host)
        # through the band midline never reaches the shell line at r = 4
        light_pos = hg.vec3(0, 0, 0.5)
        fab = hg.FabricationParams(delta=0.5, pitch=4.0)
        with pytest.raises(hg.ShellTooThinError) as err:
            hg.build_ridging(light_pos, hg.PointLight(light_pos), WALL, fab, max_radius=4.0)
        assert err.value.required_delta == math.inf
        assert "band 0" in str(err.value) and "radius 4 mm" in str(err.value)
        assert "inf" not in str(err.value)
        # a member that misses the cone rays of a later band names that band
        fab = hg.FabricationParams(delta=2.0)
        with pytest.raises(hg.ShellTooThinError) as err:
            hg.build_ridging(
                hg.vec3(1, 2, -8), hg.DirectionalLight(math.radians(60)), WALL, fab,
                max_radius=6.0,
            )
        assert err.value.required_delta == math.inf
        assert "band 1" in str(err.value) and "radius 2 and 4 mm" in str(err.value)
        assert "inf" not in str(err.value)

    @pytest.mark.parametrize(
        "field", ["delta", "pitch", "mesh_resolution", "tool_radius", "cone_apex_standoff"]
    )
    def test_nan_fabrication_parameter_rejected(self, field):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.FabricationParams(**{field: math.nan})
        if field == "cone_apex_standoff":  # the standoff must be finite, not positive
            with pytest.raises(hg.DegenerateGeometryError):
                hg.FabricationParams(cone_apex_standoff=math.inf)
            assert hg.FabricationParams(cone_apex_standoff=-1.0).apex_standoff == -1.0

    def test_point_on_host_degenerate(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.build_ridging(hg.vec3(3, 0, 0), LIGHT, WALL, FAB)

    def test_sphere_host_unsupported(self):
        with pytest.raises(hg.UnsupportedConfigurationError):
            hg.build_ridging(
                hg.vec3(0, 0, 5), LIGHT, hg.SphereHost(hg.vec3(0, 0, -200), 200.0), FAB
            )

    def test_pitch_sag_warning(self):
        # shallow footprint: no warning
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB, max_radius=4.0)
        assert rs.warnings == ()
        # steep band with a large pitch: sag variation exceeds pitch / 2 and
        # the build flags it without failing
        fab2 = hg.FabricationParams(delta=8.0, pitch=3.0, mesh_resolution=2.0)
        rs2 = hg.build_ridging(hg.vec3(0, 0, 2.0), LIGHT, WALL, fab2, max_radius=6.0)
        assert any("pitch" in w for w in rs2.warnings)

    def test_imaging_correctness_random_sightlines(self):
        # 10^3 random (band, eye-on-valid-sightline) pairs: the normality residual
        # at the imaging point on that sightline stays below 1e-6
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(1000):
            ridge = rs.ridges[rng.integers(0, len(rs.ridges))]
            # a sightline through p hitting this band: pick a band point and
            # slide the eye out beyond p along (point -> p)
            r = rng.uniform(ridge.r_in + 0.05, ridge.r_out - 0.05)
            phi = rng.uniform(-math.pi, math.pi)
            x = rs.station_point(ridge, r, phi)
            sag = _member_height(ridge.member, x, WALL.normal, 4.0)
            pt = x + sag * WALL.normal
            eye = pt + rng.uniform(20.0, 80.0) * (rs.p - pt)
            b1, b2 = nullspace_basis(ridge.member.normal(pt))
            res = hg.normality_residual(
                hg.TangentBasis(b1, b2, pt), LIGHT, eye, hg.REFLECTION
            )
            assert math.hypot(*res) < 1e-6
            checked += 1
        assert checked == 1000


class TestCropRidging:
    def setup_method(self):
        self.rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)

    def test_full_intervals_identity(self):
        full = hg.crop_ridging(self.rs, (-math.pi, math.pi), (-math.pi / 2, math.pi / 2))
        assert full is self.rs

    def test_zero_width_interval_empty(self):
        tiny = hg.crop_ridging(self.rs, (1e-9, 2e-9), (0.3, 0.30001))
        assert tiny.is_empty
        assert any("empty" in w or "removed" in w for w in tiny.warnings)

    def test_narrow_azimuth_strictly_smaller(self):
        crop = hg.crop_ridging(
            self.rs, (math.radians(-5), math.radians(5)), (-math.pi / 2, math.pi / 2)
        )
        total = sum(
            hi - lo for ridge in crop.ridges for lo, hi in ridge.arc_intervals
        )
        full = sum(
            hi - lo for ridge in self.rs.ridges for lo, hi in ridge.arc_intervals
        )
        assert 0 < total < full

    def test_empty_interval_rejected(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.crop_ridging(self.rs, (0.5, 0.1), (0.0, 0.2))

    def test_crop_applied_at_build(self):
        crop = ((math.radians(-5), math.radians(5)), (-math.pi / 2, math.pi / 2))
        built = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB, crop=crop)
        after = hg.crop_ridging(self.rs, *crop)
        assert built.crop_azimuth == after.crop_azimuth
        assert [r.arc_intervals for r in built.ridges] == [
            r.arc_intervals for r in after.ridges
        ]


def _member_height(member, x, n, limit):
    """The former ``ridging._member_height``: the one-row ``_member_heights`` call, raising on a miss."""
    return float(_crossed(_member_heights(member, np.reshape(x, (1, 3)), n, limit))[0])


def _former_member_height(member, x, n, limit):
    t = member.line_roots(x, n.reshape(1, 3))[0]
    t = t[np.abs(t) <= limit]
    if not t.size:
        raise hg.RootFindError("foliation member does not cross the shell line")
    return float(t[np.argmin(np.abs(t))])


def light_direction_from(s, light):
    """Unit direction from ``s`` toward the light."""
    return light_directions_from(np.reshape(s, (1, 3)), light)[0]


def _former_exit_direction(point, normal, light):
    l_hat = light_direction_from(point, light)
    return 2.0 * float(np.dot(l_hat, normal)) * normal - l_hat


def _former_crop_intervals(rs, azimuth, elevation):
    """``crop_ridging``'s retained intervals as its former station loop found them,
    one ``_member_height`` and one exit direction per station, kept verbatim."""
    n_st = 180
    phis = np.linspace(-math.pi, math.pi, n_st, endpoint=False) + math.pi / n_st
    limit = max(8.0 * rs.delta, 1.0)
    out = []
    for ridge in rs.ridges:
        r_mid = 0.5 * (ridge.r_in + ridge.r_out)
        keep = np.zeros(n_st, dtype=bool)
        for idx, phi in enumerate(phis):
            x = rs.station_point(ridge, r_mid, phi)
            sag = _former_member_height(ridge.member, x, rs.host.normal, limit)
            pt = x + sag * rs.host.normal
            e = _former_exit_direction(pt, ridge.member.normal(pt), rs.light)
            theta = math.atan2(e[0], e[2])
            phi_el = math.asin(max(-1.0, min(1.0, e[1])))
            keep[idx] = (
                azimuth[0] <= theta <= azimuth[1] and elevation[0] <= phi_el <= elevation[1]
            )
        retained = _merge_stations(phis, keep)
        retained = _interval_intersect(ridge.arc_intervals, retained)
        if retained:
            out.append(retained)
    return out


@pytest.mark.parametrize(
    "p, light, max_radius",
    [
        ((0, 0, 5), LIGHT, None),
        ((0, 0, -10), LIGHT, 8.0),
        ((3, -2, -8), hg.DirectionalLight(math.radians(80)), None),
        ((1, 2, 6), hg.PointLight(hg.vec3(4, 10, 60)), None),
        ((2, 1, -6), hg.PointLight(hg.vec3(-1, 2, 40)), None),
    ],
)
def test_crop_keeps_the_intervals_of_the_station_loop(p, light, max_radius):
    rs = hg.build_ridging(hg.vec3(*p), light, WALL, FAB, max_radius=max_radius)
    windows = [
        ((math.radians(-5), math.radians(5)), (-math.pi / 2, math.pi / 2)),
        ((-0.4, 0.9), (-0.2, 0.35)),
        ((0.2, math.pi), (-1.0, 0.0)),
        ((-math.pi, -0.1), (0.05, 1.2)),
        ((1e-9, 2e-9), (0.3, 0.30001)),
    ]
    kept = 0
    for azimuth, elevation in windows:
        crop = hg.crop_ridging(rs, azimuth, elevation)
        want = _former_crop_intervals(rs, azimuth, elevation)
        assert [r.arc_intervals for r in crop.ridges] == want
        kept += sum(len(w) for w in want)
    assert kept > 0


class TestMeshRidging:
    def test_sphere_member_vertices_at_half_k(self):
        light_pos = hg.vec3(0, 0, 12)
        light = hg.PointLight(light_pos)
        fab = hg.FabricationParams(delta=12.0, pitch=4.0, mesh_resolution=4.0)
        rs = hg.build_ridging(light_pos, light, WALL, fab, max_radius=4.0)
        assert len(rs.ridges) == 1
        assert rs.ridges[0].member.kind is ConicKind.SPHERE
        mesh = hg.mesh_ridging(rs, fab)
        k = rs.ridges[0].k
        for idx in range(len(mesh.vertices)):
            if mesh.vertex_tags[idx] == "imaging":
                assert abs(np.linalg.norm(mesh.vertices[idx] - light_pos) - k / 2) < 1e-6

    def test_resolution_error_below_four_samples(self):
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=1.0)
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        with pytest.raises(hg.ResolutionError):
            hg.mesh_ridging(rs, fab)

    def test_empty_surface_rejected(self):
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        empty = hg.crop_ridging(rs, (1e-9, 2e-9), (0.3, 0.3001))
        with pytest.raises(hg.DegenerateGeometryError):
            hg.mesh_ridging(empty, FAB)

    def test_winding_matches_analytic_normals(self):
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        mesh = hg.mesh_ridging(rs, FAB)
        for tri in mesh.triangles[:: max(1, len(mesh.triangles) // 200)]:
            a, b, c = mesh.vertices[tri]
            fn = np.cross(b - a, c - a)
            if np.linalg.norm(fn) < 1e-12:
                continue
            assert float(np.dot(fn, mesh.normals[tri[0]])) > 0

    def test_adaptive_default_footprint(self):
        # what `hologlint ridge` builds without --max-radius: a virtual point
        # behind the wall, default fabrication parameters, 20 hyperboloid bands
        fab = hg.FabricationParams()
        rs = hg.build_ridging(hg.vec3(0, 0, -10), LIGHT, WALL, fab)
        mesh = hg.mesh_ridging(rs, fab)
        assert len(rs.ridges) == 20
        assert (len(mesh.vertices), len(mesh.triangles)) == (105_610, 190_137)
        digest = hashlib.sha256(format_obj(mesh).encode("utf-8")).hexdigest()
        assert digest.startswith("815a86865ab6c39d")
        imaging = np.array(mesh.vertex_tags) == "imaging"
        bands = np.array(mesh.vertex_band)
        for idx, ridge in enumerate(rs.ridges):
            pts = mesh.vertices[imaging & (bands == idx)]
            assert np.abs(ridge.member.implicit_many(pts)).max() <= 1e-9
        host_gap = np.abs((mesh.vertices[imaging] - WALL.origin) @ WALL.normal)
        assert host_gap.max() <= fab.delta + 1e-9

    def test_obj_writes_zero_without_a_sign(self):
        # against the former v/vn formatting, which wrote -0.000000 as %.6f gives it,
        # every changed line holds the same floats
        mesh = hg.mesh_ridging(hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB), FAB)
        lines = format_obj(mesh).splitlines()
        old = [
            f"{tag} {x:.6f} {y:.6f} {z:.6f}"
            for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals))
            for x, y, z in rows
        ]
        changed = [(new, prev) for new, prev in zip(lines[1:], old) if new != prev]
        assert changed and not any("-0.000000" in line for line in lines)
        for new, prev in changed:
            assert new.split()[0] == prev.split()[0]
            assert [float(v) for v in new.split()[1:]] == [float(v) for v in prev.split()[1:]]

    def test_backface_vertices_stay_in_shell(self):
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, FAB)
        mesh = hg.mesh_ridging(rs, FAB)
        worst = max(
            hg.conformance_distance(mesh.vertices[i], WALL)
            for i in range(len(mesh.vertices))
        )
        assert worst <= FAB.delta + 1e-9

    def test_doubling_resolution_hausdorff(self):
        fab_lo = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=2.0)
        fab_hi = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=4.0)
        rs = hg.build_ridging(hg.vec3(0, 0, 5), LIGHT, WALL, fab_lo, max_radius=4.0)
        mesh_lo = hg.mesh_ridging(rs, fab_lo)
        mesh_hi = hg.mesh_ridging(rs, fab_hi)
        assert mesh_hausdorff(mesh_lo, mesh_hi) < fab_lo.pitch / 100.0
