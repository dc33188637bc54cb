"""Glint finding, triangulation, and glint-map rendering."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hologlint as hg
from hologlint.cli import cli_dispatch
from hologlint.geom import view_direction
from test_bar_clip import clipped

SUN = hg.DirectionalLight(0.0)
WALL = hg.PlaneHost()
FAB = hg.FabricationParams(delta=0.5, pitch=2.0, tool_radius=0.2)


def eye_inf(deg):
    return hg.EyeAtInfinity(view_direction(math.radians(deg)))


def build_striping(p=(0, 0, -10), window_deg=45.0):
    stip = hg.Stipple(hg.vec3(*p), window=(-math.radians(window_deg), math.radians(window_deg)))
    view = hg.InfinityView(-math.radians(window_deg), math.radians(window_deg))
    return hg.make_striping([stip], SUN, WALL, view, FAB), stip, view


class TestFindGlints:
    def test_full_member_single_glint_on_sightline(self):
        member = hg.member_through(
            hg.vec3(0, 0, 5), hg.PointLight(hg.vec3(0, 0, 20)), hg.vec3(3, 0, 0)
        )
        eye = hg.vec3(40, 10, 200)
        glints = hg.find_glints(member, eye, hg.PointLight(hg.vec3(0, 0, 20)))
        assert len(glints) == 1
        g = glints[0]
        assert g.tag == "imaging"
        assert g.normality < 1e-9
        assert g.colinearity < 1e-9  # on the sightline through p by construction

    def test_striping_center_glint(self):
        striping, stip, view = build_striping()
        glints = hg.find_glints(striping, eye_inf(0.0), SUN)
        assert len(glints) == 1
        assert glints[0].colinearity < FAB.tool_radius

    def test_outside_window_dark(self):
        striping, _, _ = build_striping(window_deg=10.0)
        glints = hg.find_glints(striping, eye_inf(25.0), SUN)
        assert glints == []

    def test_striping_without_arcs_of_two_samples_is_dark(self):
        striping, _, _ = build_striping()
        arc = striping.arcs[0]
        theta = float(arc.toolpath.thetas[len(arc.toolpath.thetas) // 2])
        single = replace(arc, toolpath=clipped(arc.toolpath, theta, theta))
        assert len(single.toolpath.thetas) == 1
        eye = eye_inf(0.0)
        assert hg.find_glints(hg.Striping((), FAB), eye, SUN) == []
        assert hg.find_glints(replace(striping, arcs=(single, single)), eye, SUN) == []
        assert hg.find_glints(single, eye, SUN) == []
        assert hg.find_glints(single.toolpath, eye, SUN) == []
        assert len(hg.find_glints(replace(striping, arcs=(single, arc)), eye, SUN)) == 1

    def test_simulate_with_every_stipple_rejected_writes_dark_frames(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "[light]\ntype = directional\nalpha_deg = 0\n\n"
            "[view]\ntype = infinity\ntheta_min_deg = -45\ntheta_max_deg = 45\nsamples = 5\n\n"
            "[stipples]\n0 0 -10 1.0 60 80 0\n",  # window outside the view range
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert cli_dispatch(["simulate", str(scene), "-o", str(out), "--raster", "16"]) == 0
        frames = sorted(out.glob("frame_*.pgm"))
        assert len(frames) == 5
        assert all(not any(f.read_bytes()[-16 * 16 :]) for f in frames)
        header = "stipple_id,theta_c_deg,px,py,pz,err_mm,residual_mm\n"
        assert (out / "triangulation.csv").read_text() == header

    def test_reflection_law_roundtrip_at_glints(self):
        tol = 1e-9
        striping, _, _ = build_striping()
        for deg in (-12.0, -3.5, 0.0, 7.25):
            eye = eye_inf(deg)
            for g in hg.find_glints(striping, eye, SUN, tol=tol):
                n = g.normal / np.linalg.norm(g.normal)
                v = view_direction(math.radians(deg))
                reflected = 2.0 * float(np.dot(v, n)) * n - v
                light_dir = SUN.direction
                assert np.linalg.norm(reflected - light_dir) < 10.0 * math.sqrt(tol)

    def test_glint_positions_track_parallax(self):
        striping, stip, _ = build_striping()
        xs = []
        for deg in (-10.0, -5.0, 0.0, 5.0, 10.0):
            g = hg.find_glints(striping, eye_inf(deg), SUN)
            assert len(g) == 1
            xs.append(g[0].point[0])
            want_x = -stip.p[2] * math.tan(math.radians(deg))
            assert abs(g[0].point[0] - want_x) < 1e-6
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_determinism_bit_identical(self):
        striping, _, _ = build_striping()
        a = hg.find_glints(striping, eye_inf(4.2), SUN)
        b = hg.find_glints(striping, eye_inf(4.2), SUN)
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0].point, b[0].point)
        assert a[0].normality == b[0].normality
        assert a[0].colinearity == b[0].colinearity

    def test_ridging_glints_and_crop_soundness(self):
        p = hg.vec3(0, 0, 5)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        rs = hg.build_ridging(p, light, WALL, FAB)
        eye = hg.vec3(0, 30, 300)
        glints = hg.find_glints(rs, eye, light)
        assert glints and all(g.normality < 1e-9 for g in glints)
        # crop to exit azimuths far from this eye: its glints disappear
        crop = hg.crop_ridging(rs, (math.radians(60), math.radians(80)), (-0.7, 0.7))
        if not crop.is_empty:
            assert hg.find_glints(crop, eye, light) == []

    def test_mesh_backface_strays_tagged(self):
        light = hg.DirectionalLight(math.pi / 2)
        rs = hg.build_ridging(hg.vec3(0, 0, -10), light, WALL, FAB, max_radius=6.0)
        mesh = hg.mesh_ridging(rs, FAB)
        eye = hg.vec3(0, 0, 500)
        glints = hg.find_glints(mesh, eye, light, seed_angle=math.radians(25.0))
        tags = {g.tag for g in glints}
        assert "imaging" in tags
        imaging = [g for g in glints if g.tag == "imaging"]
        assert all(g.normality < 1e-9 for g in imaging)

    def test_mesh_seeding_matches_per_vertex_loop(self):
        # seeding scores every vertex at once; the per-vertex scalar residual
        # loop is the reference (a mesh without a source reports the seeds)
        from hologlint.geom import glint_axis
        from hologlint.simulate import _axis_misalignment

        light = hg.PointLight(hg.vec3(0, 0, 20))
        rs = hg.build_ridging(hg.vec3(0, 0, 5), light, WALL, FAB, max_radius=4.0)
        bare = replace(hg.mesh_ridging(rs, FAB), source=None)
        cases = [
            # low light and eye off to +x: only riser (backface) normals align
            (hg.PointLight(hg.vec3(100, 0, 60)), hg.vec3(100, 10, 65), 15.0),
            # light along the normal, distant eye: only imaging normals align
            (hg.DirectionalLight(math.pi / 2), eye_inf(8.0), 5.0),
        ]
        seen = set()
        for light, eye, seed_deg in cases:
            expected = {"backface-stray": [], "imaging": []}
            for idx, (v, n) in enumerate(zip(bare.vertices, bare.normals)):
                res = _axis_misalignment(n, glint_axis(v, light, eye, hg.REFLECTION))
                if res < math.sin(math.radians(seed_deg)):
                    tag = "imaging" if bare.vertex_tags[idx] == "imaging" else "backface-stray"
                    expected[tag].append((idx, res))
            rows = expected["backface-stray"] + expected["imaging"]
            seen.update(tag for tag, found in expected.items() if found)
            glints = hg.find_glints(
                bare, eye, light, seed_angle=math.radians(seed_deg), dedupe_radius=-1.0
            )
            assert [g.tag for g in glints] == (
                ["backface-stray"] * len(expected["backface-stray"])
                + ["imaging"] * len(expected["imaging"])
            )
            for g, (idx, res) in zip(glints, rows):
                assert np.array_equal(g.point, bare.vertices[idx])
                assert g.normality == res
        assert seen == {"backface-stray", "imaging"}

class TestTriangulate:
    def test_exact_sightlines_recover_p(self):
        p = hg.vec3(1, 2, -7)
        e1 = hg.vec3(50, 10, 300)
        e2 = hg.vec3(-60, -5, 280)
        g1 = hg.Glint(e1, p + 0.3 * (p - e1), hg.vec3(0, 0, 1), 0.0, 0.0, "imaging")
        g2 = hg.Glint(e2, p + 0.5 * (p - e2), hg.vec3(0, 0, 1), 0.0, 0.0, "imaging")
        tri = hg.triangulate(g1, g2, (e1, e2))
        assert tri.point is not None
        assert np.linalg.norm(tri.point - p) < 1e-9
        assert tri.residual < 1e-9

    def test_parallel_sightlines_flagged(self):
        e = hg.EyeAtInfinity(hg.vec3(0, 0, 1))
        g1 = hg.Glint(e, hg.vec3(-1, 0, 0), hg.vec3(0, 0, 1), 0.0, 0.0, "imaging")
        g2 = hg.Glint(e, hg.vec3(1, 0, 0), hg.vec3(0, 0, 1), 0.0, 0.0, "imaging")
        tri = hg.triangulate(g1, g2, (e, e))
        assert tri.at_infinity
        assert tri.point is None
        assert abs(tri.residual - 2.0) < 1e-12  # gap between the parallel lines

    def test_striping_stereo_roundtrip(self):
        striping, stip, _ = build_striping()
        eyes = (eye_inf(-1.5), eye_inf(1.5))
        gl = hg.find_glints(striping, eyes[0], SUN)
        gr = hg.find_glints(striping, eyes[1], SUN)
        tri = hg.triangulate(gl[0], gr[0], eyes)
        err = float(np.linalg.norm(tri.point - stip.p))
        assert err < 0.05 * abs(stip.p[2])
        assert abs(math.degrees(tri.baseline) - 3.0) < 1e-9

    def test_exact_ridging_roundtrip(self):
        p = hg.vec3(0, 0, 5)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        rs = hg.build_ridging(p, light, WALL, FAB)
        eyes = (
            300.0 * view_direction(math.radians(-2.0)),
            300.0 * view_direction(math.radians(2.0)),
        )
        gl = hg.find_glints(rs, eyes[0], light)
        gr = hg.find_glints(rs, eyes[1], light)
        tri = hg.triangulate(gl[0], gr[0], eyes)
        assert np.linalg.norm(tri.point - p) < 1e-6 * np.linalg.norm(p)

    def test_virtual_point_ridging_roundtrip(self):
        # hyperboloid bands: the triangulated point lands behind the host
        p = hg.vec3(0, 0, -5)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=3.0)
        rs = hg.build_ridging(p, light, WALL, fab)
        eyes = (
            300.0 * view_direction(math.radians(-2.0)),
            300.0 * view_direction(math.radians(2.0)),
        )
        gl = hg.find_glints(rs, eyes[0], light)
        gr = hg.find_glints(rs, eyes[1], light)
        tri = hg.triangulate(gl[0], gr[0], eyes)
        assert tri.point[2] < 0
        assert np.linalg.norm(tri.point - p) < 1e-6 * np.linalg.norm(p)

    def test_orbit_view_striping_roundtrip(self):
        # finite orbiting eyes exercise the non-analytic sightline path
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, tool_radius=0.2)
        view = hg.OrbitView(hg.vec3(0, 0, 0), 500.0, 0.0, -math.radians(30), math.radians(30))
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-math.radians(30), math.radians(30)))
        striping = hg.make_striping([stip], SUN, WALL, view, fab)
        assert len(striping.arcs) == 1
        glints = hg.find_glints(striping, view.eye_at(0.0), SUN)
        assert glints and glints[0].colinearity < fab.tool_radius

    def test_striping_error_decreases_with_baseline(self):
        striping, stip, _ = build_striping()

        def err(base_deg):
            eyes = (eye_inf(-base_deg / 2), eye_inf(base_deg / 2))
            gl = hg.find_glints(striping, eyes[0], SUN)
            gr = hg.find_glints(striping, eyes[1], SUN)
            tri = hg.triangulate(gl[0], gr[0], eyes)
            return float(np.linalg.norm(tri.point - stip.p))

        e4, e2, e1 = err(4.0), err(2.0), err(1.0)
        assert e4 > e2 > e1

    def test_exact_ridging_residual_flat_in_baseline(self):
        # exact surfaces: sightlines pass through p at any baseline, so the
        # line-gap residual stays at numerical zero (monotone within noise)
        p = hg.vec3(0, 0, 5)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        rs = hg.build_ridging(p, light, WALL, FAB)
        residuals = []
        for base in (4.0, 2.0, 1.0):
            eyes = (
                300.0 * view_direction(math.radians(-base / 2)),
                300.0 * view_direction(math.radians(base / 2)),
            )
            gl = hg.find_glints(rs, eyes[0], light)
            gr = hg.find_glints(rs, eyes[1], light)
            residuals.append(hg.triangulate(gl[0], gr[0], eyes).residual)
        assert residuals[0] + 1e-12 >= residuals[1] - 1e-12
        assert residuals[1] + 1e-12 >= residuals[2] - 1e-12
        assert max(residuals) < 1e-9


class TestCircularArcDegradation:
    def circle_toolpath_from_fit(self, tp, fit_range):
        from hologlint.striping import Toolpath

        fit = hg.circular_arc_fit(tp, fit_range)
        t = np.linspace(-0.9, 0.9, 1801)
        pos = np.column_stack([np.sin(t), np.cos(t), np.zeros_like(t)]) * fit.radius
        pos[:, :2] += fit.center[:2]
        tan = np.column_stack([np.cos(t), -np.sin(t), np.zeros_like(t)])
        return Toolpath(t, pos, tan, np.tile([0.0, 1.0, 1.0], (len(t), 1)), tp.c0, 0.0, WALL)

    def test_substituted_arc_collapses_outside_range(self):
        p = hg.vec3(0, 0, -10)
        c0 = 10.0  # colinearity point at theta = 0
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, c0, (-math.pi / 4, math.pi / 4), math.radians(0.02))
        circle = self.circle_toolpath_from_fit(tp, (-math.radians(4), math.radians(4)))

        def tri_err(target, deg):
            eyes = (eye_inf(-deg), eye_inf(deg))
            gl = hg.find_glints(target, eyes[0], SUN, stipple_p=p)
            gr = hg.find_glints(target, eyes[1], SUN, stipple_p=p)
            tri = hg.triangulate(gl[0], gr[0], eyes)
            return float(np.linalg.norm(tri.point - p))

        hyper_baseline = tri_err(tp, 1.5)
        hyper_wide = tri_err(tp, 20.0)
        circle_wide = tri_err(circle, 20.0)
        assert circle_wide >= 10.0 * hyper_baseline
        assert circle_wide > hyper_wide  # the hyperbola is the better optic throughout


class TestRenderGlintmap:
    def test_empty_scene_black_frames(self):
        view = hg.InfinityView(-0.3, 0.3, samples=4)
        gm = hg.render_glintmap((), SUN, view, raster=hg.RasterParams(32, 32))
        assert len(gm.frames) == 4
        assert all(int(f.sum()) == 0 for f in gm.frames)

    def test_frame_count_matches_view_samples(self):
        striping, _, view = build_striping(window_deg=20.0)
        view = hg.InfinityView(view.theta_min, view.theta_max, samples=7)
        gm = hg.render_glintmap((striping,), SUN, view, raster=hg.RasterParams(64, 64))
        assert len(gm.frames) == 7
        assert gm.thetas == tuple(sorted(gm.thetas))

    def centroid_track(self, p_z):
        stip = hg.Stipple(hg.vec3(0, 0, p_z), window=(-math.radians(12), math.radians(12)))
        view = hg.InfinityView(-math.radians(12), math.radians(12), samples=9)
        striping = hg.make_striping([stip], SUN, WALL, view, FAB)
        gm = hg.render_glintmap((striping,), SUN, view, raster=hg.RasterParams(96, 96, mm_per_px=0.2))
        track = []
        for frame in gm.frames:
            ys, xs = np.nonzero(frame)
            assert len(xs) > 0
            track.append(float(xs.mean()))
        return track

    def test_motion_parallax_monotone_centroid(self):
        track = self.centroid_track(-10.0)
        assert all(a < b for a, b in zip(track, track[1:]))

    def test_front_and_behind_move_oppositely(self):
        behind = self.centroid_track(-10.0)
        front = self.centroid_track(5.0)
        slope_behind = behind[-1] - behind[0]
        slope_front = front[-1] - front[0]
        assert slope_behind > 0 > slope_front

    def test_clipped_projection_warns(self):
        striping, _, view = build_striping(window_deg=30.0)
        gm = hg.render_glintmap((striping,), SUN, view, raster=hg.RasterParams(8, 8, mm_per_px=0.05))
        assert any("clipped" in w for w in gm.warnings)

    def test_raster_validation(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.RasterParams(0, 32)
