"""Toolpaths, stripings, bit profiles, and the circular-arc approximation."""

import math

import numpy as np
import pytest

import hologlint as hg
from hologlint.errors import HologlintError
from hologlint.striping import (
    Toolpath,
    _bar_clip,
    _toolpaths,
    _vertical_gaps,
    glint_normal_raw,
    segment_pair_distance,
    tangent_normal_angle,
)

SUN = hg.DirectionalLight(0.0)
WALL = hg.PlaneHost()


def polyline_min_distance(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    """Exact min distance between two sampled polylines (brute force over every segment pair)."""
    i, j = np.indices((len(pts_a), len(pts_b)))[:, :-1, :-1].reshape(2, -1)
    return float(segment_pair_distance(pts_a[i], pts_a[i + 1], pts_b[j], pts_b[j + 1]).min(initial=math.inf))


def _anchored_toolpath(host, stipple, light, view, theta_c, step):
    """One stipple's toolpath anchored on its specularity curve at theta_c: gap 0 there."""
    (path,) = _toolpaths(host, [stipple], light, view, step, [0.0], theta_c=[theta_c])
    if isinstance(path, Exception):
        raise path
    return path


def make_view(lo_deg=-45.0, hi_deg=45.0):
    return hg.InfinityView(math.radians(lo_deg), math.radians(hi_deg))


class TestConformingTangent:
    def test_symmetric_configuration_runs_horizontal(self):
        assert np.allclose(hg.conforming_tangent(0.0, 0.0), [1, 0, 0], atol=1e-15)

    def test_slope_at_30_degrees(self):
        t1 = hg.conforming_tangent(math.pi / 6, 0.0)
        assert abs(t1[1] / t1[0] - (-0.5)) < 1e-12

    def test_slope_at_45_45(self):
        t1 = hg.conforming_tangent(math.pi / 4, math.pi / 4)
        assert abs(t1[1] / t1[0] - (-1.0)) < 1e-12

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = rng.uniform(-1.4, 1.4)
            alpha = rng.uniform(0.0, 1.2)
            t1 = hg.conforming_tangent(theta, alpha)
            oracle = np.cross(glint_normal_raw(theta, alpha), np.array([0.0, 0.0, 1.0]))
            assert np.allclose(t1, oracle, atol=1e-14)
            assert abs(t1[2]) < 1e-14  # lies in the host tangent plane

    def test_degenerate_returns_zero_flag(self):
        # light along the host normal viewed head on: n parallel to N
        t1 = hg.conforming_tangent(0.0, math.pi / 2)
        assert np.allclose(t1, [0, 0, 0])


class TestOrthogonalTangent:
    def test_frontal_value(self):
        t2 = hg.orthogonal_tangent(0.0, 0.0)
        assert np.allclose(t2, [0, -1, 1], atol=1e-15)
        assert abs(math.degrees(tangent_normal_angle(0.0, 0.0)) - 45.0) < 1e-12

    def test_45_degree_azimuth_gives_30(self):
        assert abs(math.degrees(tangent_normal_angle(math.pi / 4, 0.0)) - 30.0) < 1e-9

    def test_span_is_exactly_15_degrees(self):
        angles = [
            tangent_normal_angle(t, 0.0)
            for t in np.linspace(-math.pi / 4, math.pi / 4, 181)
        ]
        span = math.degrees(max(angles) - min(angles))
        assert abs(span - 15.0) < 0.01

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.uniform(-1.4, 1.4)
            alpha = rng.uniform(0.0, 1.2)
            t2 = hg.orthogonal_tangent(theta, alpha)
            n = glint_normal_raw(theta, alpha)
            t1 = np.cross(n, np.array([0.0, 0.0, 1.0]))
            oracle = np.cross(t1, n)
            # proportional: cross of unit residual
            cosang = np.dot(t2, oracle) / (np.linalg.norm(t2) * np.linalg.norm(oracle))
            assert abs(cosang - 1.0) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(hg.DomainError):
            hg.orthogonal_tangent(math.pi / 2, 0.0)


class TestHyperbolicToolpath:
    def test_vertex_sample(self):
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-math.pi / 4, math.pi / 4))
        mid = int(np.argmin(np.abs(tp.thetas)))
        assert np.allclose(tp.positions[mid], [0, -10, 0], atol=1e-12)

    def test_45_degree_sample(self):
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-math.pi / 4, math.pi / 4))
        assert np.allclose(tp.positions[-1], [10, -10 * math.sqrt(2), 0], atol=1e-9)

    def test_vertex_osculating_radius_second_difference(self):
        # oracle: second-difference curvature on dense samples; R = 10 for
        # p_z = -10 at alpha = 0
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-0.01, 0.01), step=1e-4)
        pts = tp.positions
        mid = len(pts) // 2
        x0, y0 = pts[mid - 1, 0], pts[mid - 1, 1]
        x1, y1 = pts[mid, 0], pts[mid, 1]
        x2, y2 = pts[mid + 1, 0], pts[mid + 1, 1]
        d2y = (y2 - 2 * y1 + y0) / ((x1 - x0) ** 2)
        dy = (y2 - y0) / (x2 - x0)
        curvature = abs(d2y) / (1 + dy * dy) ** 1.5
        assert abs(1.0 / curvature - 10.0) < 1e-3

    def test_sample_tangents_match_conforming_field(self):
        alpha = math.radians(20.0)
        tp = hg.hyperbolic_toolpath(-25.0, alpha, 3.0, (-0.5, 0.5))
        every = len(tp.thetas) // 7
        for theta, t1 in zip(tp.thetas[::every], tp.t1[::every]):
            assert np.allclose(t1, hg.conforming_tangent(theta, alpha), atol=1e-14)

    def test_spacing_respects_step(self):
        step = math.radians(0.3)
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-0.7, 0.7), step)
        gaps = np.diff(tp.thetas)
        assert np.all(gaps <= step + 1e-12)

    def test_domain_errors(self):
        with pytest.raises(hg.DomainError):
            hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-math.pi / 2, 0.0))
        with pytest.raises(hg.DegenerateGeometryError):
            hg.hyperbolic_toolpath(0.0, 0.0, 0.0, (-0.5, 0.5))


class TestIntegrateToolpath:
    def test_matches_closed_form_at_default_step(self):
        rng = (-math.pi / 4, math.pi / 4)
        closed = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, rng)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=rng)
        num = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 0.0, 0.0)
        dev = np.max(np.linalg.norm(num.positions - closed.positions, axis=1))
        assert dev < 1e-6

    def test_fourth_order_convergence(self):
        # measure at a step where truncation dominates roundoff
        rng = (-math.pi / 4, math.pi / 4)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=rng)

        def dev(step):
            closed = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, rng, step)
            num = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 0.0, 0.0, step)
            return np.max(np.linalg.norm(num.positions - closed.positions, axis=1))

        d1 = dev(math.radians(1.0))
        d2 = dev(math.radians(0.5))
        assert d1 / d2 >= 8.0

    def test_randomized_agreement(self):
        rng = np.random.default_rng(17)
        view = make_view()
        span = (-math.pi / 4, math.pi / 4)
        for _ in range(5):
            p_z = -rng.uniform(1.0, 100.0)
            alpha = math.radians(rng.uniform(0.0, 60.0))
            closed = hg.hyperbolic_toolpath(p_z, alpha, 0.0, span)
            stip = hg.Stipple(hg.vec3(0, 0, p_z), window=span)
            num = hg.integrate_toolpath(WALL, stip, hg.DirectionalLight(alpha), view, 0.0, 0.0)
            dev = np.max(np.linalg.norm(num.positions - closed.positions, axis=1))
            assert dev < 1e-6

    def test_offset_stipple_translates(self):
        span = (-0.6, 0.6)
        closed = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, span)
        stip = hg.Stipple(hg.vec3(7.0, -3.0, -10.0), window=span)
        num = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 0.0, 0.0)
        shifted = closed.positions + np.array([7.0, -3.0, 0.0])
        assert np.max(np.linalg.norm(num.positions - shifted, axis=1)) < 1e-6

    def test_c0_produces_exact_vertical_translates(self):
        span = (-0.5, 0.5)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=span)
        base = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 0.0, 0.0)
        lifted = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 2.5, 0.0)
        delta = lifted.positions - base.positions
        assert np.max(np.abs(delta - np.array([0.0, 2.5, 0.0]))) < 1e-12

    def test_c1_offsets_depth(self):
        span = (-0.3, 0.3)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=span)
        deep = hg.integrate_toolpath(WALL, stip, SUN, make_view(), 0.0, -0.4)
        assert np.allclose(deep.positions[:, 2], -0.4, atol=1e-12)

    def test_parallax_consistency(self):
        # each sample's x equals the sightline/host intersection x at its theta
        span = (-0.7, 0.7)
        stip = hg.Stipple(hg.vec3(2.0, 1.0, -15.0), window=span)
        view = make_view()
        tp = hg.integrate_toolpath(WALL, stip, SUN, view, 1.0, 0.0)
        every = max(1, len(tp.thetas) // 16)
        for theta, x in zip(tp.thetas[::every], tp.positions[::every]):
            q = hg.sightline_host_intersection(view.eye_at(theta), stip.p, WALL)
            assert abs(x[0] - q[0]) < 1e-12

    def test_sphere_host_path_conforms(self):
        host = hg.SphereHost(hg.vec3(0, 0, -200), 200.0)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-math.radians(5), math.radians(5)))
        view = hg.InfinityView(-math.radians(5), math.radians(5))
        q0 = hg.sightline_host_intersection(view.eye_at(-math.radians(5)), stip.p, host)
        c0 = float(np.linalg.norm(q0 - stip.p))  # sigma = -1 behind: gap0 = c0 - rho = 0
        tp = hg.integrate_toolpath(host, stip, SUN, view, c0, 0.0, math.radians(0.05))
        worst = max(hg.conformance_distance(x, host) for x in tp.positions)
        assert worst < 1e-6

    def test_tangents_stay_in_host_plane(self):
        host = hg.SphereHost(hg.vec3(0, 0, -200), 200.0)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-0.1, 0.1))
        view = hg.InfinityView(-0.1, 0.1)
        tp = hg.integrate_toolpath(host, stip, SUN, view, 0.0, 0.0)
        for x, t1 in zip(tp.positions, tp.t1):
            n = host.nearest(x)[1]
            t1 = t1 / np.linalg.norm(t1)
            assert abs(float(np.dot(t1, n))) < 1e-9

    def test_window_outside_view_raises(self):
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(1.0, 1.2))
        with pytest.raises(hg.DomainError):
            hg.integrate_toolpath(WALL, stip, SUN, hg.InfinityView(-0.5, 0.5), 0.0, 0.0)


class TestNormalityAlongPath:
    def test_basis_from_tangent_fields_satisfies_normality(self):
        # (t1, t2) at every sample is orthogonal to the design glint axis
        span = (-math.pi / 4, math.pi / 4)
        alpha = math.radians(15.0)
        tp = hg.hyperbolic_toolpath(-20.0, alpha, 5.0, span, math.radians(1.0))
        view = make_view()
        for theta, x, t1, axis in zip(tp.thetas, tp.positions, tp.t1, tp.axes):
            basis = hg.TangentBasis(t1, np.cross(t1, axis), x)
            r = hg.normality_residual(
                basis, hg.DirectionalLight(alpha), view.eye_at(theta), hg.REFLECTION
            )
            assert math.hypot(*r) < 1e-9


class TestMakeStriping:
    def test_single_stipple_accepted(self):
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, tool_radius=0.2)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-math.pi / 4, math.pi / 4))
        striping = hg.make_striping([stip], SUN, WALL, make_view(), fab)
        assert len(striping.arcs) == 1
        assert striping.rejected == ()
        # colinearity residual at the window center is below the tool radius
        arc = striping.arcs[0]
        eye = make_view().eye_at(0.5 * (arc.theta_a + arc.theta_b))
        glints = hg.find_glints(striping, eye, SUN)
        assert len(glints) == 1
        assert glints[0].colinearity < fab.tool_radius

    def test_identical_duplicate_rejected(self):
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, tool_radius=0.2)
        a = hg.Stipple(hg.vec3(0, 0, -10), window=(-0.5, 0.5), priority=1, stipple_id=0)
        b = hg.Stipple(hg.vec3(0, 0, -10), window=(-0.5, 0.5), priority=0, stipple_id=1)
        striping = hg.make_striping([a, b], SUN, WALL, make_view(), fab)
        assert len(striping.arcs) == 1
        assert striping.arcs[0].stipple.stipple_id == 0  # higher priority wins
        assert len(striping.rejected) == 1
        assert striping.rejected[0][0].stipple_id == 1

    def test_zero_weight_stipple_dropped(self):
        fab = hg.FabricationParams()
        stip = hg.Stipple(hg.vec3(0, 0, -10), weight=0.0, window=(-0.5, 0.5))
        striping = hg.make_striping([stip], SUN, WALL, make_view(), fab)
        assert len(striping.arcs) == 0
        assert len(striping.rejected) == 1

    def test_weight_clips_arc_length_linearly(self):
        fab = hg.FabricationParams(delta=0.5)
        full = hg.make_striping(
            [hg.Stipple(hg.vec3(0, 0, -10), weight=1.0, window=(-0.6, 0.6))],
            SUN, WALL, make_view(), fab,
        ).arcs[0]
        half = hg.make_striping(
            [hg.Stipple(hg.vec3(0, 0, -10), weight=0.5, window=(-0.6, 0.6))],
            SUN, WALL, make_view(), fab,
        ).arcs[0]
        len_full = full.theta_b - full.theta_a
        len_half = half.theta_b - half.theta_a
        assert abs(len_half - 0.5 * len_full) < math.radians(0.3)

    def test_bar_clip_keeps_gap_inside_shell(self):
        fab = hg.FabricationParams(delta=0.5)
        view = make_view()
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-math.pi / 4, math.pi / 4))
        arc = hg.make_striping([stip], SUN, WALL, view, fab).arcs[0]
        for theta, x in zip(arc.toolpath.thetas, arc.toolpath.positions):
            q = hg.sightline_host_intersection(view.eye_at(theta), stip.p, WALL)
            assert abs(x[1] - q[1]) <= fab.delta + 1e-9

    def test_point_light_striping_colinearity(self):
        fab = hg.FabricationParams(delta=0.5, tool_radius=0.2)
        light = hg.PointLight(hg.vec3(0, 60, 40))
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-0.4, 0.4))
        striping = hg.make_striping([stip], light, WALL, make_view(), fab)
        assert len(striping.arcs) == 1
        arc = striping.arcs[0]
        eye = make_view().eye_at(0.5 * (arc.theta_a + arc.theta_b))
        glints = hg.find_glints(striping, eye, light)
        assert glints and glints[0].colinearity < fab.tool_radius

    def test_disjointness_with_brute_force_oracle(self):
        # accepted arcs keep >= 2 * tool radius clearance, verified by exact
        # pairwise polyline distances
        fab = hg.FabricationParams(delta=1.0, tool_radius=0.2)
        rng = np.random.default_rng(42)
        stipples = []
        for idx in range(30):
            p = hg.vec3(rng.uniform(-25, 25), rng.uniform(-12, 12), -rng.uniform(4, 18))
            center = math.radians(rng.uniform(-25, 25))
            half = math.radians(rng.uniform(3, 8))
            stipples.append(
                hg.Stipple(
                    p,
                    weight=float(rng.uniform(0.5, 1.0)),
                    window=(center - half, center + half),
                    priority=int(rng.integers(0, 4)),
                    stipple_id=idx,
                )
            )
        striping = hg.make_striping(
            stipples, SUN, WALL, make_view(), fab, step=math.radians(0.25)
        )
        assert striping.arcs  # some must be placeable
        pts = [arc.toolpath.positions for arc in striping.arcs]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dist = polyline_min_distance(pts[i], pts[j])
                assert dist >= 2.0 * fab.tool_radius - 1e-9

    def test_matches_brute_force_placer(self):
        # oracle: the same greedy order with exact O(n^2) distances must
        # accept the same stipples and reject the others with the same texts
        fab = hg.FabricationParams(delta=1.0, tool_radius=0.2)
        rng = np.random.default_rng(77)
        stipples = []
        for idx in range(24):
            p = hg.vec3(rng.uniform(-18, 18), rng.uniform(-8, 8), -rng.uniform(4, 15))
            center = math.radians(rng.uniform(-20, 20))
            half = math.radians(rng.uniform(3, 7))
            stipples.append(
                hg.Stipple(
                    p,
                    weight=float(rng.uniform(0.5, 1.0)),
                    window=(center - half, center + half),
                    priority=int(rng.integers(0, 3)),
                    stipple_id=idx,
                )
            )
        step = math.radians(0.25)
        striping = hg.make_striping(stipples, SUN, WALL, make_view(), fab, step=step)
        got = (
            [arc.stipple.stipple_id for arc in striping.arcs],
            [(s.stipple_id, why) for s, why in striping.rejected],
        )
        assert any(why.startswith("overlaps") for _, why in got[1])
        assert got == brute_force_placement(stipples, make_view(), fab, step)


def brute_force_placement(stipples, view, fab, step):
    """Accepted ids and (id, reason) rejections of the greedy placer, with every
    accepted segment a candidate: an overlap names the owner of the nearest
    segment (the earliest accepted on a tie) to the first colliding segment."""
    order = sorted(stipples, key=lambda s: (-s.priority, -s.weight, s.stipple_id))
    clearance = 2.0 * fab.tool_radius
    p1, p2, owners = np.empty((0, 3)), np.empty((0, 3)), []
    accepted, rejected = [], []
    for s in order:
        lo = max(view.theta_min, s.window[0])
        hi = min(view.theta_max, s.window[1])
        if not lo < hi:
            rejected.append((s.stipple_id, "visibility window outside the view range"))
            continue
        theta_c = 0.5 * (lo + hi)
        try:
            path = _anchored_toolpath(WALL, s, SUN, view, theta_c, step)
        except HologlintError as exc:
            rejected.append((s.stipple_id, f"toolpath failed: {exc}"))
            continue
        gaps = _vertical_gaps(WALL, view, s.p, path.thetas, path.positions)
        arc = _bar_clip(s, path, gaps, theta_c, fab.delta)
        if isinstance(arc, str):  # the text that rejects the stipple
            rejected.append((s.stipple_id, arc))
            continue
        pts = arc.toolpath.positions
        hit = None
        for a, b in zip(pts[:-1], pts[1:]):
            d = segment_pair_distance(np.broadcast_to(a, p1.shape), np.broadcast_to(b, p1.shape), p1, p2)
            if d.size and d.min() < clearance - 1e-12:
                hit = owners[int(np.argmin(d))]
                break
        if hit is not None:
            rejected.append((s.stipple_id, f"overlaps accepted stipple {hit}"))
            continue
        p1, p2 = np.concatenate([p1, pts[:-1]]), np.concatenate([p2, pts[1:]])
        owners += [s.stipple_id] * (len(pts) - 1)
        accepted.append(s.stipple_id)
    return accepted, rejected


class TestBitProfile:
    def test_interval_for_90_degree_sweep(self):
        profile = hg.bit_profile_for((-math.pi / 4, math.pi / 4), alpha=0.0)
        lo, hi = (math.degrees(a) for a in profile.angle_interval)
        assert abs(lo - 30.0) < 0.01
        assert abs(hi - 45.0) < 0.01

    def test_zero_width_range_is_chamfer(self):
        profile = hg.bit_profile_for((0.3, 0.3), alpha=0.0)
        assert len(profile.points) == 2
        lo, hi = profile.angle_interval
        assert abs(lo - hi) < 1e-12

    def test_radius_monotone_and_convex(self):
        profile = hg.bit_profile_for((-math.pi / 4, math.pi / 4), alpha=0.0)
        depths = [p[0] for p in profile.points]
        radii = [p[1] for p in profile.points]
        assert all(d1 < d2 for d1, d2 in zip(depths, depths[1:]))  # increasing depth
        assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))  # radius nonincreasing

    def test_coverage_scan_over_striping(self):
        fab = hg.FabricationParams(delta=0.5)
        stip = hg.Stipple(hg.vec3(0, 0, -10), window=(-0.5, 0.5))
        striping = hg.make_striping([stip], SUN, WALL, make_view(), fab)
        profile = hg.bit_profile_for(striping)
        for arc in striping.arcs:
            for theta in arc.toolpath.thetas:
                assert profile.covers(tangent_normal_angle(theta, 0.0), tol=1e-6)

    def test_angle_steps_bounded(self):
        profile = hg.bit_profile_for((-math.pi / 4, math.pi / 4), alpha=0.0)
        # one meridian segment per <= 0.5 degree of angle coverage
        span = profile.angle_interval[1] - profile.angle_interval[0]
        assert len(profile.points) - 1 >= math.ceil(span / math.radians(0.5))

    def test_unmachinable_range_raises(self):
        with pytest.raises(hg.UnmachinableProfileError):
            hg.bit_profile_for((-1.56, 1.56), alpha=math.radians(-40.0))


class TestCircularArcFit:
    def exact_circle_toolpath(self, radius=7.0, n=100):
        t = np.linspace(-1.0, 1.0, n)
        pos = np.column_stack([radius * np.sin(t), radius * np.cos(t), np.zeros(n)])
        tan = np.column_stack([np.cos(t), -np.sin(t), np.zeros(n)])
        return Toolpath(t, pos, tan, np.tile([0.0, 0.0, 1.0], (n, 1)), 0.0, 0.0, WALL)

    def test_exact_circle_zero_deviation(self):
        fit = hg.circular_arc_fit(self.exact_circle_toolpath())
        assert not fit.is_line
        assert abs(fit.radius - 7.0) < 1e-9
        assert fit.max_deviation < 1e-9

    def test_8_degree_claim(self):
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-math.pi / 4, math.pi / 4), math.radians(0.02))
        fit4 = hg.circular_arc_fit(tp, (-math.radians(4), math.radians(4)))
        assert fit4.max_deviation < 1e-4 * 10.0

    def test_wide_range_deviation_explodes(self):
        tp = hg.hyperbolic_toolpath(-10.0, 0.0, 0.0, (-math.pi / 4, math.pi / 4), math.radians(0.02))
        fit4 = hg.circular_arc_fit(tp, (-math.radians(4), math.radians(4)))
        fit45 = hg.circular_arc_fit(tp)
        assert fit45.max_deviation >= 100.0 * fit4.max_deviation

    def test_colinear_samples_flag_line(self):
        t = np.linspace(0, 1, 20)
        pos = np.column_stack([t, 2 * t, np.zeros(20)])
        t1, axes = np.tile([1.0, 2.0, 0.0], (20, 1)), np.tile([0.0, 0.0, 1.0], (20, 1))
        fit = hg.circular_arc_fit(Toolpath(t, pos, t1, axes, 0.0, 0.0, WALL))
        assert fit.is_line
        assert fit.radius == math.inf
        assert fit.max_deviation < 1e-9

    def test_too_few_samples_raises(self):
        tp = self.exact_circle_toolpath(n=2)
        with pytest.raises(hg.DomainError):
            hg.circular_arc_fit(tp)
