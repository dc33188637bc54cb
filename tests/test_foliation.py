"""Foliation members: conics, Cartesian ovals, classification, exactness."""

import dataclasses
import math

import numpy as np
import pytest

import hologlint as hg
from hologlint.foliation import ConicKind, Sheet
from hologlint.geom import nullspace_basis

I_POS = hg.vec3(0, 0, 20)
LIGHT = hg.PointLight(I_POS)


def focal_sum(s, i, p):
    # brute-force focal oracle: direct distance evaluation
    return float(np.linalg.norm(s - i) + np.linalg.norm(s - p))


def focal_diff(s, i, p):
    return float(abs(np.linalg.norm(s - i) - np.linalg.norm(s - p)))


def weighted_path(s, i, p, eta1, eta2, sign):
    return float(eta1 * np.linalg.norm(s - i) + sign * eta2 * np.linalg.norm(s - p))


class TestClassifyMember:
    def test_point_in_front_is_ellipsoid(self):
        kind = hg.classify_member(hg.vec3(0, 0, 5), hg.PlaneHost(), LIGHT)
        assert kind is ConicKind.ELLIPSOID

    def test_point_behind_is_hyperboloid(self):
        kind = hg.classify_member(hg.vec3(0, 0, -5), hg.PlaneHost(), LIGHT)
        assert kind is ConicKind.HYPERBOLOID

    def test_point_at_light_is_sphere(self):
        kind = hg.classify_member(I_POS, hg.PlaneHost(), LIGHT)
        assert kind is ConicKind.SPHERE

    def test_point_on_host_is_paraboloid_needle(self):
        kind = hg.classify_member(hg.vec3(3, 1, 0), hg.PlaneHost(), LIGHT)
        assert kind is ConicKind.PARABOLOID

    def test_directional_light_is_paraboloid(self):
        kind = hg.classify_member(
            hg.vec3(0, 0, -5), hg.PlaneHost(), hg.DirectionalLight(math.pi / 2)
        )
        assert kind is ConicKind.PARABOLOID

    def test_eccentricity_matches_classification(self):
        # epsilon < 1 iff ellipsoid, > 1 iff hyperboloid, on a randomized suite
        rng = np.random.default_rng(23)
        host = hg.PlaneHost()
        for _ in range(100):
            i = hg.vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(5, 50))
            z = rng.uniform(-30, 30)
            if abs(z) < 0.5:
                continue
            p = hg.vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), z)
            s0 = hg.vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), 0.0)
            kind = hg.classify_member(p, host, hg.PointLight(i))
            try:
                member = hg.member_through(p, hg.PointLight(i), s0, kind=kind)
            except hg.HologlintError:
                continue
            if kind is ConicKind.ELLIPSOID:
                assert member.eccentricity < 1
            else:
                assert member.eccentricity > 1


class TestMemberThrough:
    def test_ellipsoid_constant(self):
        s0 = hg.vec3(3, 0, 0)
        p = hg.vec3(0, 0, 5)
        member = hg.member_through(p, LIGHT, s0)
        assert member.kind is ConicKind.ELLIPSOID
        # oracle: brute-force focal-sum evaluation = sqrt(409) + sqrt(34)
        assert abs(member.k - focal_sum(s0, I_POS, p)) < 1e-12
        assert abs(member.k - 26.054700311001987) < 1e-9
        assert member.eccentricity < 1

    def test_hyperboloid_constant(self):
        s0 = hg.vec3(3, 0, 0)
        p = hg.vec3(0, 0, -5)
        member = hg.member_through(p, LIGHT, s0)
        assert member.kind is ConicKind.HYPERBOLOID
        assert member.sheet is Sheet.TOWARD_P
        assert abs(member.k - focal_diff(s0, I_POS, p)) < 1e-12
        assert abs(member.k - 14.392796521311384) < 1e-9
        assert member.eccentricity > 1

    def test_virtual_image_oval(self):
        member = hg.member_through(
            hg.vec3(0, 0, -10),
            hg.PointLight(hg.vec3(0, 0, 30)),
            hg.vec3(0, 0, 0),
            hg.Media(1.0, 1.5),
        )
        assert isinstance(member, hg.CartesianOval)
        assert member.sign == -1
        assert abs(member.k - 15.0) < 1e-12

    def test_explicit_kind_overrides_inference(self):
        s0 = hg.vec3(3, 0, 0)
        p = hg.vec3(0, 0, 5)
        member = hg.member_through(p, LIGHT, s0, kind=ConicKind.HYPERBOLOID)
        assert member.kind is ConicKind.HYPERBOLOID
        assert abs(member.k - focal_diff(s0, I_POS, p)) < 1e-12

    def test_sphere_member_at_light(self):
        member = hg.member_through(I_POS, LIGHT, hg.vec3(0, 0, 14))
        assert member.kind is ConicKind.SPHERE
        assert abs(member.k - 12.0) < 1e-12  # 2 * radius

    def test_directional_light_paraboloid(self):
        light = hg.DirectionalLight(math.pi / 2)  # normal incidence
        p = hg.vec3(0, 0, -10)
        member = hg.member_through(p, light, hg.vec3(5, 0, 0))
        assert member.kind is ConicKind.PARABOLOID
        # focus-directrix constant through (5,0,0): r + axial
        want = math.sqrt(125) + 10.0
        assert abs(member.k - want) < 1e-12

    def test_refractive_directional_unsupported(self):
        with pytest.raises(hg.UnsupportedConfigurationError):
            hg.member_through(
                hg.vec3(0, 0, -10), hg.DirectionalLight(0.3), hg.vec3(1, 0, 0), hg.Media(1.0, 1.5)
            )

    def test_coincident_point_raises(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.member_through(hg.vec3(1, 1, 1), LIGHT, hg.vec3(1, 1, 1))


class TestSurfacePointAndNormal:
    def test_sphere_points_at_half_k(self):
        member = hg.member_through(I_POS, LIGHT, hg.vec3(0, 0, 14))
        for az, lat in [(0.0, 0.1), (1.0, 1.0), (-2.0, 2.5), (3.0, math.pi - 0.1)]:
            pt, n = hg.surface_point_and_normal(member, az, lat)
            assert abs(np.linalg.norm(pt - I_POS) - member.k / 2) < 1e-9
            # normal is radial (inward toward the light)
            radial = (I_POS - pt) / np.linalg.norm(I_POS - pt)
            assert np.linalg.norm(n - radial) < 1e-9

    def test_ellipsoid_normal_is_half_vector(self):
        s0 = hg.vec3(3, 0, 0)
        p = hg.vec3(0, 0, 5)
        member = hg.member_through(p, LIGHT, s0)
        # find s0 on the surface: it lies at azimuth pi (negative v side), solve latitude
        # instead check the normal formula at a generic sampled point
        pt, n = hg.surface_point_and_normal(member, 0.9, 0.8)
        ui = (I_POS - pt) / np.linalg.norm(I_POS - pt)
        up = (p - pt) / np.linalg.norm(p - pt)
        want = (ui + up) / np.linalg.norm(ui + up)
        assert np.linalg.norm(n - want) < 1e-9
        # and specifically at s0 via the implicit normal
        n0 = member.normal(s0)
        ui0 = (I_POS - s0) / np.linalg.norm(I_POS - s0)
        up0 = (p - s0) / np.linalg.norm(p - s0)
        want0 = (ui0 + up0) / np.linalg.norm(ui0 + up0)
        assert np.linalg.norm(n0 - want0) < 1e-12

    def test_hyperboloid_normal_virtual_sign(self):
        s0 = hg.vec3(3, 0, 0)
        p = hg.vec3(0, 0, -5)
        member = hg.member_through(p, LIGHT, s0)
        n0 = member.normal(s0)
        # oracle: gradient of |s-i| - |s-p| at s0 points against the glint normal
        ui0 = (I_POS - s0) / np.linalg.norm(I_POS - s0)
        usp = (s0 - p) / np.linalg.norm(s0 - p)
        want = (ui0 + usp) / np.linalg.norm(ui0 + usp)
        assert np.linalg.norm(n0 - want) < 1e-12
        # cross-check: normality residual vanishes with the eye behind s0 on the sightline
        b1, b2 = nullspace_basis(n0)
        eye = s0 + 7.0 * (s0 - p) / np.linalg.norm(s0 - p)
        r = hg.normality_residual(hg.TangentBasis(b1, b2, s0), LIGHT, eye, hg.REFLECTION)
        assert math.hypot(*r) < 1e-12

    def test_point_satisfies_implicit_to_tolerance(self):
        member = hg.member_through(hg.vec3(0, 0, 5), LIGHT, hg.vec3(3, 0, 0))
        rng = np.random.default_rng(2)
        for _ in range(50):
            pt = member.point_at(rng.uniform(-math.pi, math.pi), rng.uniform(0.01, math.pi - 0.01))
            assert abs(member.implicit(pt)) < 1e-9 * member.k

    def test_hyperboloid_sheet_domain_error(self):
        member = hg.member_through(hg.vec3(0, 0, -5), LIGHT, hg.vec3(3, 0, 0))
        # latitude beyond the asymptote angle leaves the toward-p sheet
        with pytest.raises(hg.DomainError):
            member.point_at(0.0, math.pi - 1e-3)

    def test_paraboloid_sampling_and_normal(self):
        # virtual-branch paraboloid: sampled points satisfy the
        # focus-directrix equation and the normal bisects light and eye
        light = hg.DirectionalLight(math.pi / 2)
        p = hg.vec3(0, 0, -10)
        member = hg.member_through(p, light, hg.vec3(5, 0, 0))
        rng = np.random.default_rng(3)
        for _ in range(40):
            pt, n = hg.surface_point_and_normal(
                member, rng.uniform(-math.pi, math.pi), rng.uniform(0.05, 2.6)
            )
            assert abs(member.implicit(pt)) < 1e-9 * member.k
            # eye direction extends the virtual ray from p through pt
            eye_dir = (pt - p) / np.linalg.norm(pt - p)
            axis = light.direction + eye_dir
            assert np.linalg.norm(np.cross(n, axis / np.linalg.norm(axis))) < 1e-9

    def test_focal_constancy_randomized(self):
        rng = np.random.default_rng(31)
        ell = hg.member_through(hg.vec3(0, 0, 5), LIGHT, hg.vec3(3, 0, 0))
        hyp = hg.member_through(hg.vec3(0, 0, -5), LIGHT, hg.vec3(3, 0, 0))
        az = rng.uniform(-math.pi, math.pi, size=500)
        lat_e = rng.uniform(0.01, math.pi - 0.01, size=500)
        pts = ell.points_at(az, lat_e)
        sums = np.linalg.norm(pts - I_POS, axis=1) + np.linalg.norm(pts - ell.focus_p, axis=1)
        assert np.max(np.abs(sums - ell.k)) < 1e-9 * ell.k
        lat_h = rng.uniform(0.01, 0.5, size=500)
        pts = hyp.points_at(az, lat_h)
        diffs = np.abs(
            np.linalg.norm(pts - I_POS, axis=1) - np.linalg.norm(pts - hyp.focus_p, axis=1)
        )
        assert np.max(np.abs(diffs - hyp.k)) < 1e-9 * hyp.k


class TestCartesianOval:
    def oval(self, ratio=1.5):
        return hg.member_through(
            hg.vec3(0, 0, -10),
            hg.PointLight(hg.vec3(0, 0, 30)),
            hg.vec3(0, 0, 0),
            hg.Media(1.0, ratio),
        )

    def test_on_axis_solve_hits_origin(self):
        pt = hg.oval_radial_solve(self.oval(), hg.vec3(0, 0, 1))
        assert np.linalg.norm(pt) < 1e-9

    def test_snell_residual_via_bisection_oracle(self):
        # oracle: independent scalar bisection on the implicit function along
        # the ray, then Snell's law checked from raw directions
        oval = self.oval()
        d = hg.vec3(math.sin(math.radians(10)), 0, math.cos(math.radians(10)))

        def implicit_t(t):
            s = oval.focus_p + t * d
            return weighted_path(s, oval.focus_i, oval.focus_p, oval.eta1, oval.eta2, oval.sign) - oval.k

        lo, hi = 1e-6, 40.0
        flo = implicit_t(lo)
        # walk to bracket the first sign change
        ts = np.linspace(lo, hi, 4001)
        vals = [implicit_t(t) for t in ts]
        bracket = None
        for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
            if fa * fb <= 0:
                bracket = (a, b, fa)
                break
        assert bracket is not None
        lo, hi, flo = bracket
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = implicit_t(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        s_oracle = oval.focus_p + 0.5 * (lo + hi) * d

        s = hg.oval_radial_solve(oval, d)
        assert np.linalg.norm(s - s_oracle) < 1e-8

        n = oval.normal(s)
        incident = (s - oval.focus_i) / np.linalg.norm(s - oval.focus_i)
        transmitted = (s - oval.focus_p) / np.linalg.norm(s - oval.focus_p)  # virtual branch
        sin_i = np.linalg.norm(np.cross(incident, n))
        sin_t = np.linalg.norm(np.cross(transmitted, n))
        assert abs(oval.eta1 * sin_i - oval.eta2 * sin_t) < 1e-9

    @pytest.mark.parametrize("ratio", [1.3, 1.5, 1.7])
    def test_snell_residual_across_ratios(self, ratio):
        oval = self.oval(ratio)
        for deg in (2.0, 5.0, 10.0, 15.0):
            d = hg.vec3(math.sin(math.radians(deg)), 0, math.cos(math.radians(deg)))
            s = hg.oval_radial_solve(oval, d)
            n = oval.normal(s)
            incident = (s - oval.focus_i) / np.linalg.norm(s - oval.focus_i)
            transmitted = (s - oval.focus_p) / np.linalg.norm(s - oval.focus_p)
            sin_i = np.linalg.norm(np.cross(incident, n))
            sin_t = np.linalg.norm(np.cross(transmitted, n))
            assert abs(oval.eta1 * sin_i - oval.eta2 * sin_t) < 1e-9

    def test_equal_indices_reduce_to_conic(self):
        # equal indices mean reflection: an oval built with eta1 == eta2 must
        # trace the same surface as the conic member through the same point
        from hologlint.foliation import radial_roots

        p = hg.vec3(0, 0, -10)
        i = hg.vec3(0, 0, 30)
        s0 = hg.vec3(4, 0, 0)
        conic = hg.member_through(p, hg.PointLight(i), s0, hg.REFLECTION)
        assert isinstance(conic, hg.ConicSurface)
        eta = 1.25
        oval = hg.CartesianOval(i, p, eta, eta, k=eta * conic.k, sign=-1)
        for deg in (0.0, 4.0, 9.0, 14.0):
            d = hg.vec3(math.sin(math.radians(deg)), 0, math.cos(math.radians(deg)))
            s_oval = hg.oval_radial_solve(oval, d)
            s_conic = radial_roots(conic, conic.focus_p, d.reshape(1, 3), nearest=True)[0]
            assert np.linalg.norm(s_oval - s_conic) < 1e-9

    def test_fermat_stationarity(self):
        # perturbing along the tangent changes the optical path at second order
        oval = self.oval()
        d = hg.vec3(math.sin(0.2), 0.1, math.cos(0.2))
        d /= np.linalg.norm(d)
        s = hg.oval_radial_solve(oval, d)
        n = oval.normal(s)
        t1, t2 = nullspace_basis(n)
        eps = 1e-4

        def opl(x):
            return weighted_path(x, oval.focus_i, oval.focus_p, oval.eta1, oval.eta2, oval.sign)

        base = opl(s)
        for t in (t1, t2, -t1, -t2):
            delta = abs(opl(s + eps * t) - base)
            assert delta < 1e-7  # O(eps^2) with curvature ~ 1/10 mm^-1

    def test_empty_zero_set_rejected(self):
        with pytest.raises(hg.DomainError):
            hg.CartesianOval(hg.vec3(0, 0, 30), hg.vec3(0, 0, -10), 1.0, 1.5, k=1e6, sign=-1)


BATCH_MEMBERS = {
    "ellipsoid": lambda: hg.member_through(hg.vec3(0, 0, 5), LIGHT, hg.vec3(3, 0, 0)),
    "hyperboloid-toward-p": lambda: hg.member_through(
        hg.vec3(0, 0, -10), LIGHT, hg.vec3(4, 0, 0), kind=ConicKind.HYPERBOLOID
    ),
    "hyperboloid-toward-i": lambda: hg.member_through(
        hg.vec3(0, 0, -30), hg.PointLight(hg.vec3(0, 0, 10)), hg.vec3(4, 0, 0),
        kind=ConicKind.HYPERBOLOID,
    ),
    "paraboloid": lambda: hg.member_through(
        hg.vec3(0, 0, -10), hg.DirectionalLight(math.pi / 2), hg.vec3(3, 0, 0)
    ),
    "sphere": lambda: hg.member_through(I_POS, LIGHT, hg.vec3(3, 0, 0)),
    "oval": lambda: hg.member_through(
        hg.vec3(0, 0, -10), LIGHT, hg.vec3(3, 0, 0), hg.Media(1.0, 1.5)
    ),
}


class _JumpSurface:
    """Implicit function that changes sign by a jump at z = 1 and has no zero."""

    kind = ConicKind.SPHERE
    k = 10.0

    def implicit_many(self, xs):
        return np.where(xs[:, 2] < 1.0, -1.0, 1.0)

    def gradient_many(self, xs):
        return np.zeros_like(xs)


class TestRadialRoots:
    @pytest.mark.parametrize("nearest", [True, False])
    @pytest.mark.parametrize("name", sorted(BATCH_MEMBERS))
    def test_batch_rows_match_one_ray_solves(self, name, nearest):
        from hologlint.foliation import radial_roots

        member = BATCH_MEMBERS[name]()
        if name == "hyperboloid-toward-p":
            assert member.sheet is Sheet.TOWARD_P
        if name == "hyperboloid-toward-i":
            assert member.sheet is Sheet.TOWARD_I
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(40, 3))
        dirs[20:] += 2.0 * member.axis_frame()[0]  # half the rays lean along the axis
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        origins = member.focus_p + rng.normal(scale=0.5, size=(40, 3))
        # rays that start far outside and run further out miss closed members
        origins[:4] = member.focus_p + 1e4 * dirs[:4]

        hits, singles, misses = [], [], []
        for idx in range(len(dirs)):
            try:
                pt = radial_roots(member, origins[idx], dirs[idx : idx + 1], nearest)[0]
            except hg.DomainError:
                misses.append(idx)
                continue
            hits.append(idx)
            singles.append(pt)
        assert len(hits) >= 8 and misses

        batch = radial_roots(member, origins[hits], dirs[hits], nearest)
        assert np.max(np.abs(batch - np.array(singles))) <= 1e-12

        # one missing ray anywhere in a batch fails the whole batch
        rows = hits[:3] + misses[:1] + hits[3:]
        with pytest.raises(hg.DomainError):
            radial_roots(member, origins[rows], dirs[rows], nearest)

    def test_batch_rows_equal_one_ray_solves_for_any_paraboloid_axis(self):
        # a paraboloid axis with nonzero x, unlike any DirectionalLight's
        from hologlint.foliation import radial_roots

        axis = hg.vec3(0.48, -0.6, 0.64)
        member = dataclasses.replace(BATCH_MEMBERS["paraboloid"](), light_dir=axis)
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        origins = member.focus_p + rng.normal(scale=0.5, size=(64, 3))
        hits, singles = [], []
        for idx in range(len(dirs)):
            try:
                singles.append(radial_roots(member, origins[idx], dirs[idx : idx + 1], nearest=True)[0])
            except hg.DomainError:
                continue
            hits.append(idx)
        assert len(hits) >= 32
        batch = radial_roots(member, origins[hits], dirs[hits], nearest=True)
        assert batch.tobytes() == np.array(singles).tobytes()

    def test_residual_check_rejects_a_bracketed_jump(self):
        from hologlint.foliation import radial_roots

        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        with pytest.raises(hg.RootFindError):
            radial_roots(_JumpSurface(), np.zeros(3), dirs, nearest=True)


class TestSurfacePatch:
    def test_interval_validation(self):
        member = hg.member_through(hg.vec3(0, 0, 5), LIGHT, hg.vec3(3, 0, 0))
        hg.SurfacePatch(member, (-0.1, 0.1), (0.0, 0.5))
        with pytest.raises(hg.DegenerateGeometryError):
            hg.SurfacePatch(member, (0.2, 0.1), (0.0, 0.5))
