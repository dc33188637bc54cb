"""Foliation members: conics, Cartesian ovals, classification, exactness."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.foliation import ConicKind, ConicSurface, Sheet, _surface_scale
from hologlint.geom import nullspace_basis, unit

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
            s_conic = radial_roots(conic, conic.focus_p, d.reshape(1, 3))[0]
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

    def line_roots(self, origins, dirs):
        """The jump's crossing as a root, as a search that brackets sign changes reports it."""
        t = (1.0 - np.broadcast_to(origins, dirs.shape)[:, 2]) / dirs[:, 2]
        return np.column_stack([t, np.full_like(t, np.nan)])


class TestRadialRoots:
    @pytest.mark.parametrize("point_origin", [True, False])  # a one-ray call's origin: (3,) or (1, 3)
    @pytest.mark.parametrize("name", sorted(BATCH_MEMBERS))
    def test_batch_rows_match_one_ray_solves(self, name, point_origin):
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
                origin = origins[idx] if point_origin else origins[idx : idx + 1]
                pt = radial_roots(member, origin, dirs[idx : idx + 1])[0]
            except hg.DomainError:
                misses.append(idx)
                continue
            hits.append(idx)
            singles.append(pt)
        assert len(hits) >= 8 and misses

        batch = radial_roots(member, origins[hits], dirs[hits])
        assert batch.tobytes() == np.array(singles).tobytes()

        # one missing ray anywhere in a batch fails the whole batch
        rows = hits[:3] + misses[:1] + hits[3:]
        with pytest.raises(hg.DomainError):
            radial_roots(member, origins[rows], dirs[rows])

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
                singles.append(radial_roots(member, origins[idx], dirs[idx : idx + 1])[0])
            except hg.DomainError:
                continue
            hits.append(idx)
        assert len(hits) >= 32
        batch = radial_roots(member, origins[hits], dirs[hits])
        assert batch.tobytes() == np.array(singles).tobytes()

    def test_residual_check_rejects_a_bracketed_jump(self):
        from hologlint.foliation import radial_roots

        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        with pytest.raises(hg.RootFindError):
            radial_roots(_JumpSurface(), np.zeros(3), dirs)


CONIC_SHEETS = ("ellipsoid", "toward-p", "toward-i", "paraboloid+1", "paraboloid-1", "sphere")
coords = st.floats(-30.0, 30.0)
points = st.builds(hg.vec3, coords, coords, coords)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: unit(np.array(v))
)


@st.composite
def conic_sheets(draw, sheet=st.sampled_from(CONIC_SHEETS)):
    """A conic member of any kind and sheet, with foci drawn directly."""
    name, p = draw(sheet), draw(points)
    if name.startswith("paraboloid"):
        sign = int(name[len("paraboloid"):])
        return ConicSurface(ConicKind.PARABOLOID, p, None, draw(st.floats(0.5, 40.0)), 1.0,
                            light_dir=draw(directions), paraboloid_sign=sign)
    if name == "sphere":
        return ConicSurface(ConicKind.SPHERE, p, p.copy(), draw(st.floats(0.5, 80.0)), 0.0)
    i = p + draw(st.floats(1.0, 40.0)) * draw(directions)
    dist = float(np.linalg.norm(i - p))
    if name == "ellipsoid":
        k = dist * draw(st.floats(1.01, 4.0))
        return ConicSurface(ConicKind.ELLIPSOID, p, i, k, dist / k)
    k = dist * draw(st.floats(0.05, 0.95))
    sheet = Sheet.TOWARD_P if name == "toward-p" else Sheet.TOWARD_I
    return ConicSurface(ConicKind.HYPERBOLOID, p, i, k, dist / k, sheet=sheet)


def _roots_on_member(member, origins, dirs, roots):
    """Every finite root lies on the member to 1e-12 * max(scale, t)."""
    scale = max(_surface_scale(member), 1.0)
    rows, cols = np.nonzero(np.isfinite(roots))
    t = roots[rows, cols]
    pts = np.broadcast_to(origins, dirs.shape)[rows] + t[:, None] * dirs[rows]
    assert np.all(np.abs(member.implicit_many(pts)) <= 1e-12 * np.maximum(scale, np.abs(t)))


class TestLineRoots:
    @settings(max_examples=150)
    @given(conic_sheets(), st.lists(st.tuples(points, directions), min_size=1, max_size=8))
    def test_roots_lie_on_the_sheet_and_rows_equal_one_row_calls(self, member, lines):
        origins = member.focus_p + np.array([o for o, _ in lines])
        dirs = np.array([d for _, d in lines])
        roots = member.line_roots(origins, dirs)
        assert roots.shape == (len(lines), 2)
        _roots_on_member(member, origins, dirs, roots)
        singles = [member.line_roots(origins[k], dirs[k : k + 1])[0] for k in range(len(lines))]
        assert roots.tobytes() == np.array(singles).tobytes()
        shared = member.line_roots(origins[0], dirs)  # one origin for every line
        _roots_on_member(member, origins[0], dirs, shared)
        assert shared[0].tobytes() == roots[0].tobytes()

    @settings(max_examples=60)
    @given(conic_sheets(st.sampled_from(["toward-p", "toward-i"])), st.floats(0.5, 30.0))
    def test_a_line_through_both_hyperboloid_sheets_meets_only_this_one(self, member, reach):
        # the focal axis crosses each sheet once between the foci
        other = dataclasses.replace(
            member, sheet=Sheet.TOWARD_I if member.sheet is Sheet.TOWARD_P else Sheet.TOWARD_P
        )
        d = unit(member.focus_i - member.focus_p).reshape(1, 3)
        origin = member.focus_p - reach * d[0]
        mine, theirs = member.line_roots(origin, d)[0], other.line_roots(origin, d)[0]
        assert np.isfinite(mine).sum() == 1 and np.isfinite(theirs).sum() == 1
        t_mine, t_theirs = np.nanmin(mine), np.nanmin(theirs)
        assert abs(t_mine - t_theirs) > member.k / 2
        assert abs(member.implicit(origin + t_mine * d[0])) <= 1e-12 * max(member.k, t_mine, 1.0)
        assert abs(member.implicit(origin + t_theirs * d[0])) > member.k  # off this sheet

    @settings(max_examples=60)
    @given(
        conic_sheets(st.sampled_from(["paraboloid+1", "paraboloid-1"])),
        st.sampled_from(tuple(np.vstack([np.eye(3), -np.eye(3)]))),
        points,
        st.booleans(),
    )
    def test_a_paraboloid_line_parallel_to_its_axis_meets_it_once(self, member, axis, offset, backward):
        # an axis along a coordinate axis, so that A = |d|^2 - (d.axis)^2 is exactly 0
        member = dataclasses.replace(member, light_dir=axis)
        d = (-axis if backward else axis).reshape(1, 3)
        origin = member.focus_p + offset
        roots = member.line_roots(origin, d)
        assert np.isfinite(roots[0, 0]) and np.isnan(roots[0, 1])
        _roots_on_member(member, origin, d, roots)

    @pytest.mark.parametrize("name", sorted(set(BATCH_MEMBERS) - {"oval"}))
    def test_a_line_that_misses_gives_nan(self, name):
        member = BATCH_MEMBERS[name]()
        u, v, _ = member.axis_frame()
        if member.kind is ConicKind.HYPERBOLOID:
            # on the plane bisecting the foci |x - i| = |x - p|, so neither sheet is met
            origin, d = 0.5 * (member.focus_p + member.focus_i), v
        elif member.kind is ConicKind.PARABOLOID:
            # across the axis beyond the vertex, which sits k/2 from p toward the light
            assert member.paraboloid_sign == 1
            origin, d = member.focus_p + member.k * u, v
        else:  # far off to the side of a closed member, parallel to its axis
            origin, d = member.focus_p + 1e3 * v, u
        roots = member.line_roots(origin, d.reshape(1, 3))
        assert roots.shape == (1, 2) and np.isnan(roots).all()
