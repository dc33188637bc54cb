"""Core geometry: constraint residuals, frames, sightline intersections."""

import dataclasses
import math

import numpy as np
import pytest

import hologlint as hg
from hologlint.geom import _require_unit, norm, nullspace_basis, view_direction


def wall_axis(theta, alpha):
    # independent oracle: the wall-frame glint normal (sin t, cos a, cos t + sin a)
    v = np.array([math.sin(theta), math.cos(alpha), math.cos(theta) + math.sin(alpha)])
    return v / np.linalg.norm(v)


def reflection_axis(dir_to_light, dir_to_eye):
    """Normalized half-vector of the two unit directions (the former ``geom.reflection_axis``).

    Reflecting ``dir_to_eye`` about the result recovers ``dir_to_light``.
    Antiparallel inputs (grazing limit) have no axis and raise.
    """
    _require_unit(dir_to_light, "dir_to_light")
    _require_unit(dir_to_eye, "dir_to_eye")
    s = dir_to_light + dir_to_eye
    n = norm(s)
    if n < 1e-9:
        raise hg.DegenerateGeometryError("antiparallel directions: reflection axis undefined")
    return s / n


class TestReflectionAxis:
    def test_retroreflection_along_normal(self):
        axis = reflection_axis(hg.vec3(0, 0, 1), hg.vec3(0, 0, 1))
        assert np.allclose(axis, [0, 0, 1], atol=1e-15)

    def test_overhead_light_frontal_eye(self):
        # theta=0, alpha=0 in the wall frame
        axis = reflection_axis(hg.vec3(0, 1, 0), hg.vec3(0, 0, 1))
        assert np.allclose(axis, wall_axis(0.0, 0.0), atol=1e-15)
        assert np.allclose(axis, np.array([0, 1, 1]) / math.sqrt(2), atol=1e-15)

    def test_overhead_light_side_eye(self):
        # theta=pi/2, alpha=0
        axis = reflection_axis(hg.vec3(0, 1, 0), hg.vec3(1, 0, 0))
        assert np.allclose(axis, wall_axis(math.pi / 2, 0.0), atol=1e-15)
        assert np.allclose(axis, np.array([1, 1, 0]) / math.sqrt(2), atol=1e-15)

    def test_symmetry_and_reflection_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            if np.linalg.norm(a + b) < 1e-6:
                continue
            n1 = reflection_axis(a, b)
            n2 = reflection_axis(b, a)
            assert np.allclose(n1, n2, atol=1e-14)
            # reflecting the eye direction about the axis recovers the light
            reflected = 2.0 * float(np.dot(b, n1)) * n1 - b
            assert np.linalg.norm(reflected - a) < 1e-12

    def test_antiparallel_raises(self):
        with pytest.raises(hg.DegenerateGeometryError):
            reflection_axis(hg.vec3(0, 0, 1), hg.vec3(0, 0, -1))

    def test_non_unit_rejected(self):
        with pytest.raises(hg.DegenerateGeometryError):
            reflection_axis(hg.vec3(0, 0, 2), hg.vec3(0, 0, 1))


class TestNormalityResidual:
    def test_sphere_retroreflector(self):
        # basis tangent to a sphere centered on the light, eye at the light
        light_pos = hg.vec3(1, 2, 3)
        s = light_pos + 5.0 * view_direction(0.3, 0.2)
        radial = (light_pos - s) / np.linalg.norm(light_pos - s)
        b1, b2 = nullspace_basis(radial)
        basis = hg.TangentBasis(b1, b2, s)
        r = hg.normality_residual(basis, hg.PointLight(light_pos), light_pos, hg.REFLECTION)
        assert abs(r[0]) < 1e-12 and abs(r[1]) < 1e-12

    def test_ellipsoid_member_satisfies_normality(self):
        member = hg.member_through(
            hg.vec3(0, 0, 5), hg.PointLight(hg.vec3(0, 0, 20)), hg.vec3(3, 0, 0)
        )
        pt, n = hg.surface_point_and_normal(member, 0.7, 1.1)
        b1, b2 = nullspace_basis(n)
        eye = pt + 3.0 * (member.focus_p - pt)  # on the sightline through p
        r = hg.normality_residual(
            hg.TangentBasis(b1, b2, pt), hg.PointLight(hg.vec3(0, 0, 20)), eye, hg.REFLECTION
        )
        assert math.hypot(*r) < 1e-9

    def test_axis_parallel_tangent_maximally_violates(self):
        from hologlint.geom import glint_axis

        s = hg.vec3(0, 0, 0)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        eye = hg.vec3(0, 5, 10)
        axis = glint_axis(s, light, eye, hg.REFLECTION)
        t2 = nullspace_basis(axis)[0]
        basis = hg.TangentBasis(axis, t2, s)
        r = hg.normality_residual(basis, light, eye, hg.REFLECTION)
        assert abs(r[0] - float(np.dot(axis, axis))) < 1e-12
        assert abs(r[1]) < 1e-12
        assert abs(r[0]) > 1e-3

    def test_zero_set_invariant_under_basis_rescale(self):
        member = hg.member_through(
            hg.vec3(0, 0, 5), hg.PointLight(hg.vec3(0, 0, 20)), hg.vec3(3, 0, 0)
        )
        pt, n = hg.surface_point_and_normal(member, -0.4, 0.9)
        b1, b2 = nullspace_basis(n)
        eye = pt + 2.0 * (member.focus_p - pt)
        light = hg.PointLight(hg.vec3(0, 0, 20))
        for scale in (1.0, -3.0, 1e6, 1e-6):
            basis = hg.TangentBasis(scale * b1, (1.0 / scale) * b2, pt)
            r = hg.normality_residual(basis, light, eye, hg.REFLECTION)
            assert math.hypot(*r) < 1e-6 * max(abs(scale), 1 / abs(scale))

    def test_coincident_point_raises(self):
        light = hg.PointLight(hg.vec3(0, 0, 20))
        basis = hg.TangentBasis(hg.vec3(1, 0, 0), hg.vec3(0, 1, 0), hg.vec3(0, 0, 20))
        with pytest.raises(hg.SingularConfigurationError):
            hg.normality_residual(basis, light, hg.vec3(5, 5, 5), hg.REFLECTION)


class TestColinearityResidual:
    def test_zero_vector_at_p(self):
        r = hg.colinearity_residual(hg.vec3(1, 2, 3), hg.vec3(1, 2, 3), hg.vec3(9, 9, 9))
        assert r == (0.0, 0.0)

    def test_midpoint_on_segment(self):
        eye = hg.vec3(10, 4, 6)
        p = hg.vec3(-2, 0, 0)
        mid = 0.5 * (eye + p)
        r = hg.colinearity_residual(mid, p, eye)
        assert math.hypot(*r) < 1e-12

    def test_perpendicular_millimeter_displacement(self):
        eye = hg.vec3(0, 0, 100)
        p = hg.vec3(0, 0, -10)
        b1, _ = nullspace_basis(eye - p)
        s = p + 1.0 * b1
        r = hg.colinearity_residual(s, p, eye)
        assert abs(math.hypot(*r) - 1.0) < 1e-12

    def test_norm_invariant_under_nullspace_rotation(self):
        # the residual NORM must not depend on which orthonormal basis is used
        rng = np.random.default_rng(5)
        eye = hg.vec3(3, 1, 50)
        p = hg.vec3(0.5, -2, -8)
        x = eye - p
        x /= np.linalg.norm(x)
        b1, b2 = nullspace_basis(eye - p)
        for _ in range(50):
            s = hg.vec3(*rng.normal(scale=5.0, size=3))
            r = hg.colinearity_residual(s, p, eye)
            ang = rng.uniform(0, 2 * math.pi)
            c1 = math.cos(ang) * b1 + math.sin(ang) * b2
            c2 = -math.sin(ang) * b1 + math.cos(ang) * b2
            rot = (float(np.dot(c1, s - p)), float(np.dot(c2, s - p)))
            assert abs(math.hypot(*r) - math.hypot(*rot)) < 1e-10


class TestConformanceDistance:
    def test_on_plane(self):
        assert hg.conformance_distance(hg.vec3(3, -4, 0), hg.PlaneHost()) == 0.0

    def test_off_plane(self):
        d = hg.conformance_distance(hg.vec3(0, 0, 0.2), hg.PlaneHost())
        assert abs(d - 0.2) < 1e-15

    def test_outside_sphere(self):
        host = hg.SphereHost(hg.vec3(1, 1, 1), 2.0)
        s = hg.vec3(1, 1, 1) + 2.5 * view_direction(0.4, -0.3)
        assert abs(hg.conformance_distance(s, host) - 0.5) < 1e-12

    def test_normal_field_host(self):
        def field(q):
            return q * [1.0, 1.0, 0.0], np.broadcast_to([0.0, 0.0, 1.0], q.shape)

        host = hg.NormalFieldHost(field)
        assert abs(hg.conformance_distance(hg.vec3(5, 5, -0.7), host) - 0.7) < 1e-12


class TestSightlineHostIntersection:
    def test_normal_incidence(self):
        q = hg.sightline_host_intersection(
            hg.EyeAtInfinity(hg.vec3(0, 0, 1)), hg.vec3(0, 0, -10), hg.PlaneHost()
        )
        assert np.allclose(q, [0, 0, 0], atol=1e-12)

    def test_45_degrees_matches_tangent_formula(self):
        # x(theta) = -p_z tan(theta) at theta = pi/4 with p_z = -10
        eye = hg.EyeAtInfinity(view_direction(math.pi / 4))
        q = hg.sightline_host_intersection(eye, hg.vec3(0, 0, -10), hg.PlaneHost())
        assert np.allclose(q, [10, 0, 0], atol=1e-6)

    def test_finite_eye_on_axis(self):
        q = hg.sightline_host_intersection(hg.vec3(0, 0, 100), hg.vec3(0, 0, -10), hg.PlaneHost())
        assert np.allclose(q, [0, 0, 0], atol=1e-12)

    def test_finite_converges_to_infinite(self):
        # relative error < 1e-4 at eye radius 1e6 * |p_z|
        p = hg.vec3(0, 0, -10)
        theta = math.radians(33.0)
        inf_q = hg.sightline_host_intersection(
            hg.EyeAtInfinity(view_direction(theta)), p, hg.PlaneHost()
        )
        radius = 1e6 * 10.0
        eye = radius * view_direction(theta)
        fin_q = hg.sightline_host_intersection(eye, p, hg.PlaneHost())
        assert np.linalg.norm(fin_q - inf_q) / np.linalg.norm(inf_q) < 1e-4

    def test_sphere_nearest_root_picked(self):
        host = hg.SphereHost(hg.vec3(0, 0, -200), 200.0)
        q = hg.sightline_host_intersection(hg.vec3(0, 0, 50), hg.vec3(0, 0, -10), host)
        assert np.allclose(q, [0, 0, 0], atol=1e-9)

    def test_normal_field_square_with_plane(self):
        def field(qq):
            return qq * [1.0, 1.0, 0.0], np.broadcast_to([0.0, 0.0, 1.0], qq.shape)

        p = hg.vec3(2, 1, -7)
        eye = hg.vec3(-5, 3, 60)
        got = hg.sightline_host_intersection(eye, p, hg.NormalFieldHost(field))
        want = hg.sightline_host_intersection(eye, p, hg.PlaneHost())
        assert np.linalg.norm(got - want) < 1e-8

    def test_miss_raises(self):
        with pytest.raises(hg.SightlineMissError):
            hg.sightline_host_intersection(
                hg.EyeAtInfinity(hg.vec3(0, 0, 1)),
                hg.vec3(500, 0, -10),
                hg.SphereHost(hg.vec3(0, 0, -200), 200.0),
            )

    def test_host_behind_finite_eye(self):
        with pytest.raises(hg.SightlineMissError):
            hg.sightline_host_intersection(hg.vec3(0, 0, -50), hg.vec3(0, 0, -60), hg.PlaneHost())


class TestPrimitives:
    def test_directional_light_frame(self):
        alpha = math.radians(25.0)
        d = hg.DirectionalLight(alpha).direction
        assert np.allclose(d, [0, math.cos(alpha), math.sin(alpha)], atol=1e-15)

    def test_directional_light_direction_is_built_once(self):
        light = hg.DirectionalLight(math.radians(25.0))
        d = light.direction
        assert light.direction is d and not d.flags.writeable
        assert d.tobytes() == hg.vec3(0.0, math.cos(light.alpha), math.sin(light.alpha)).tobytes()
        same = hg.DirectionalLight(math.radians(25.0))  # its direction never read
        assert same == light and hash(same) == hash(light) and repr(same) == repr(light)
        assert light != hg.DirectionalLight(0.5)
        moved = dataclasses.replace(light, alpha=0.5)
        assert moved.direction.tobytes() == hg.DirectionalLight(0.5).direction.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            light.alpha = 0.5

    def test_media_reflection_flag(self):
        assert hg.Media(1.0, 1.0).is_reflective
        assert not hg.Media(1.0, 1.5).is_reflective
        with pytest.raises(hg.DegenerateGeometryError):
            hg.Media(0.0, 1.0)

    def test_tangent_basis_rejects_deficient(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.TangentBasis(hg.vec3(1, 0, 0), hg.vec3(2, 0, 0), hg.vec3(0, 0, 0))

    def test_orbit_view_validation(self):
        with pytest.raises(hg.DegenerateGeometryError):
            hg.OrbitView(hg.vec3(0, 0, 0), -1.0, 0.0, -0.5, 0.5)
        with pytest.raises(hg.DegenerateGeometryError):
            hg.OrbitView(hg.vec3(0, 0, 0), 10.0, 0.0, 0.5, -0.5)
