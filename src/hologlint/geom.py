"""Scene primitives and the three glint-constraint residuals.

Coordinate conventions
----------------------
The hologram is wall mounted: the host normal points along +z toward the
viewer, +y is up, +x is horizontal.  A viewpoint at azimuth ``theta`` and
elevation ``phi`` sits along the unit vector
``(cos(phi) sin(theta), sin(phi), cos(phi) cos(theta))``.  An overhead light
offset ``alpha`` from the zenith shines from ``(0, cos(alpha), sin(alpha))``,
so ``alpha = 0`` is straight up and ``alpha = pi/2`` is normal incidence.

All lengths are millimeters; all angles are radians.  Degrees appear only at
the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateGeometryError,
    HostEvaluationError,
    SightlineMissError,
    SingularConfigurationError,
)

Vec3 = np.ndarray

# Unit-direction tolerance: stored unit vectors must satisfy |norm - 1| <= 1e-12,
# but inputs are accepted down to 1e-8 before being rejected as non-unit.
UNIT_TOL = 1e-8


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([float(x), float(y), float(z)])


def norm(v: Vec3) -> float:
    return float(math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))


def unit(v: Vec3) -> Vec3:
    n = norm(v)
    if n < 1e-15:
        raise DegenerateGeometryError("cannot normalize a zero-length vector")
    return v / n


def norm_rows(vs: np.ndarray) -> np.ndarray:
    """Row-wise ``norm`` of an (N, 3) array, with the same arithmetic per row."""
    return np.sqrt(vs[:, 0] * vs[:, 0] + vs[:, 1] * vs[:, 1] + vs[:, 2] * vs[:, 2])


def unit_rows(vs: np.ndarray) -> np.ndarray:
    """Row-wise ``unit`` of an (N, 3) array, with the same arithmetic per row."""
    n = norm_rows(vs)
    if np.any(n < 1e-15):
        raise DegenerateGeometryError("cannot normalize a zero-length vector")
    return vs / n[:, None]


def _require_unit(v: Vec3, name: str) -> None:
    if abs(norm(v) - 1.0) > UNIT_TOL:
        raise DegenerateGeometryError(f"{name} must be a unit vector (norm={norm(v):.6g})")


def nullspace_basis(x: Vec3) -> tuple[Vec3, Vec3]:
    """Deterministic orthonormal basis of the plane perpendicular to ``x``.

    Gram-Schmidt against the coordinate axis of smallest magnitude in
    ``unit(x)``, so repeated calls produce identical residual vectors.
    """
    u = unit(x)
    k = int(np.argmin(np.abs(u)))
    axis = np.zeros(3)
    axis[k] = 1.0
    b1 = unit(axis - u[k] * u)
    b2 = np.cross(u, b1)
    return b1, b2


# ---- lights ----


@dataclass(frozen=True)
class PointLight:
    """Point source at a finite position."""

    position: Vec3


@dataclass(frozen=True)
class DirectionalLight:
    """Source at infinity, offset ``alpha`` from the zenith.

    The direction toward the light is ``(0, cos(alpha), sin(alpha))`` in the
    wall frame; ``alpha = pi/2`` shines along the host normal.
    """

    alpha: float

    @property
    def direction(self) -> Vec3:
        return vec3(0.0, math.cos(self.alpha), math.sin(self.alpha))


LightSource = Union[PointLight, DirectionalLight]


def light_direction_from(s: Vec3, light: LightSource) -> Vec3:
    """Unit direction from ``s`` toward the light."""
    if isinstance(light, DirectionalLight):
        return light.direction
    d = light.position - s
    if norm(d) < 1e-12:
        raise SingularConfigurationError("surface point coincides with the light source")
    return unit(d)


# ---- eyes and view paths ----


@dataclass(frozen=True)
class EyeAtInfinity:
    """Viewpoint at infinity along a unit direction (from the scene toward the eye)."""

    direction: Vec3


Eye = Union[Vec3, EyeAtInfinity]


def eye_direction_from(s: Vec3, eye: Eye) -> Vec3:
    """Unit direction from ``s`` toward the eye."""
    if isinstance(eye, EyeAtInfinity):
        return eye.direction
    d = eye - s
    if norm(d) < 1e-12:
        raise SingularConfigurationError("surface point coincides with the eye")
    return unit(d)


def view_direction(theta: float, phi: float = 0.0) -> Vec3:
    """Unit direction toward a viewpoint at azimuth ``theta``, elevation ``phi``."""
    return vec3(math.cos(phi) * math.sin(theta), math.sin(phi), math.cos(phi) * math.cos(theta))


@dataclass(frozen=True)
class OrbitView:
    """Eye orbiting the center at fixed radius and elevation."""

    center: Vec3
    radius: float
    elevation: float
    theta_min: float
    theta_max: float
    samples: int = 32

    def __post_init__(self):
        if self.radius <= 0:
            raise DegenerateGeometryError("orbit radius must be positive")
        if not self.theta_min < self.theta_max:
            raise DegenerateGeometryError("azimuth range must satisfy theta_min < theta_max")

    def eye_at(self, theta: float) -> Eye:
        return self.center + self.radius * view_direction(theta, self.elevation)


@dataclass(frozen=True)
class InfinityView:
    """Distant eye sweeping azimuth at elevation 0 (orthographic viewing)."""

    theta_min: float
    theta_max: float
    samples: int = 32
    elevation: float = 0.0

    def __post_init__(self):
        if not self.theta_min < self.theta_max:
            raise DegenerateGeometryError("azimuth range must satisfy theta_min < theta_max")

    def eye_at(self, theta: float) -> Eye:
        return EyeAtInfinity(view_direction(theta, self.elevation))


@dataclass(frozen=True)
class LineView:
    """Eye translating along a straight segment of a given length."""

    origin: Vec3
    direction: Vec3
    span: float
    samples: int = 32

    def __post_init__(self):
        _require_unit(self.direction, "line view direction")

    def eye_at(self, t: float) -> Eye:
        # t in [0, 1] along the segment
        return self.origin + (t * self.span) * self.direction


ViewPath = Union[OrbitView, InfinityView, LineView]


def view_thetas(view: ViewPath) -> np.ndarray:
    """Ordered view-parameter samples (azimuth for orbits, [0,1] for lines)."""
    if isinstance(view, LineView):
        return np.linspace(0.0, 1.0, view.samples)
    return np.linspace(view.theta_min, view.theta_max, view.samples)


# ---- host surfaces ----


@dataclass(frozen=True)
class PlaneHost:
    """Infinite plane host; the normal points toward the viewer."""

    origin: Vec3 = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    normal: Vec3 = field(default_factory=lambda: vec3(0.0, 0.0, 1.0))

    def __post_init__(self):
        _require_unit(self.normal, "plane normal")

    def nearest(self, p: Vec3) -> tuple[Vec3, Vec3]:
        h = float(np.dot(p - self.origin, self.normal))
        return p - h * self.normal, self.normal

    def signed_distance(self, p: Vec3) -> float:
        return float(np.dot(p - self.origin, self.normal))


@dataclass(frozen=True)
class SphereHost:
    """Spherical host; ``viewer_inside`` selects which side is tooled."""

    center: Vec3
    radius: float
    viewer_inside: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise DegenerateGeometryError("sphere radius must be positive")

    def nearest(self, p: Vec3) -> tuple[Vec3, Vec3]:
        r = p - self.center
        d = norm(r)
        if d < 1e-12:
            raise HostEvaluationError("point at sphere center has no nearest host point")
        radial = r / d
        q = self.center + self.radius * radial
        n = -radial if self.viewer_inside else radial
        return q, n

    def signed_distance(self, p: Vec3) -> float:
        d = norm(p - self.center) - self.radius
        return -d if self.viewer_inside else d


@dataclass(frozen=True)
class NormalFieldHost:
    """Host defined by a callable ``point -> (nearest host point, unit normal)``."""

    query: Callable[[Vec3], tuple[Vec3, Vec3]]

    def nearest(self, p: Vec3) -> tuple[Vec3, Vec3]:
        try:
            q, n = self.query(p)
        except Exception as exc:  # noqa: BLE001 - field callables are user code
            raise HostEvaluationError(f"normal field query failed: {exc}") from exc
        q = np.asarray(q, dtype=float)
        n = np.asarray(n, dtype=float)
        _require_unit(n, "normal field normal")
        return q, n

    def signed_distance(self, p: Vec3) -> float:
        q, n = self.nearest(p)
        return float(np.dot(p - q, n))


HostSurface = Union[PlaneHost, SphereHost, NormalFieldHost]


# ---- media and tangent bases ----


@dataclass(frozen=True)
class Media:
    """Refractive indices before / after the optical surface."""

    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self):
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise DegenerateGeometryError("refractive indices must be positive")

    @property
    def is_reflective(self) -> bool:
        return self.eta1 == self.eta2


REFLECTION = Media(1.0, 1.0)


@dataclass(frozen=True)
class TangentBasis:
    """Nondeficient basis (t1, t2) of a tangent plane at base point ``s``."""

    t1: Vec3
    t2: Vec3
    s: Vec3

    def __post_init__(self):
        if norm(np.cross(self.t1, self.t2)) <= 1e-9:
            raise DegenerateGeometryError("tangent basis is deficient (t1 x t2 ~ 0)")


# ---- constraint residuals ----


def reflection_axis(dir_to_light: Vec3, dir_to_eye: Vec3) -> Vec3:
    """Normalized half-vector of the two unit directions.

    Reflecting ``dir_to_eye`` about the result recovers ``dir_to_light``.
    Antiparallel inputs (grazing limit) have no axis and raise.
    """
    _require_unit(dir_to_light, "dir_to_light")
    _require_unit(dir_to_eye, "dir_to_eye")
    s = dir_to_light + dir_to_eye
    n = norm(s)
    if n < 1e-9:
        raise DegenerateGeometryError("antiparallel directions: reflection axis undefined")
    return s / n


def glint_axis(s: Vec3, light: LightSource, eye: Eye, media: Media) -> Vec3:
    """Unnormalized eta-weighted axis eta1*u(i-s) + eta2*u(e-s)."""
    return media.eta1 * light_direction_from(s, light) + media.eta2 * eye_direction_from(s, eye)


def normality_residual(
    basis: TangentBasis, light: LightSource, eye: Eye, media: Media
) -> tuple[float, float]:
    """Inner products of the tangent basis with the eta-weighted glint axis.

    Both components vanish exactly when the basis spans the ideal optical
    tangent plane at ``basis.s``.
    """
    a = glint_axis(basis.s, light, eye, media)
    return float(np.dot(basis.t1, a)), float(np.dot(basis.t2, a))


def colinearity_residual(s: Vec3, p: Vec3, eye: Eye) -> tuple[float, float]:
    """Components of ``s - p`` perpendicular to the sightline through ``p``.

    Zero iff ``s`` lies on the line through the eye and ``p``.  The nullspace
    basis is deterministic, so residual vectors are reproducible.
    """
    if isinstance(eye, EyeAtInfinity):
        x = eye.direction
    else:
        x = eye - p
        if norm(x) < 1e-12:
            raise SingularConfigurationError("eye coincides with the virtual point")
    b1, b2 = nullspace_basis(x)
    d = s - p
    return float(np.dot(b1, d)), float(np.dot(b2, d))


def conformance_distance(s: Vec3, host: HostSurface) -> float:
    """Distance from ``s`` to the nearest host point, to compare against the shell Delta."""
    q, _ = host.nearest(s)
    return norm(s - q)


def _line_param_plane(origin: Vec3, direction: Vec3, host: PlaneHost) -> float:
    denom = float(np.dot(direction, host.normal))
    if abs(denom) < 1e-14:
        raise SightlineMissError("sightline parallel to the plane host")
    return float(np.dot(host.origin - origin, host.normal)) / denom


def _line_params_sphere(origin: Vec3, direction: Vec3, host: SphereHost) -> list[float]:
    oc = origin - host.center
    b = float(np.dot(oc, direction))
    c = float(np.dot(oc, oc)) - host.radius * host.radius
    disc = b * b - c
    if disc < 0:
        raise SightlineMissError("sightline misses the sphere host")
    root = math.sqrt(disc)
    return [-b - root, -b + root]


def _line_params_field(
    origin: Vec3, direction: Vec3, host: NormalFieldHost, t_lo: float, t_hi: float
) -> list[float]:
    # Sample the signed distance along the line, bracket sign changes, bisect.
    ts = np.linspace(t_lo, t_hi, 513)
    vals = [host.signed_distance(origin + t * direction) for t in ts]
    roots = []
    for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0:
            lo, hi, flo = float(a), float(b), fa
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = host.signed_distance(origin + mid * direction)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(float(ts[-1]))
    if not roots:
        raise SightlineMissError("sightline misses the normal-field host in the sampled range")
    return roots


def sightline_host_intersection(eye: Eye, p: Vec3, host: HostSurface) -> Vec3:
    """Point where the sightline through ``p`` meets the host, nearest the eye.

    For a finite eye the line is parameterized from the eye toward ``p``; for
    an eye at infinity it is parameterized from ``p`` toward the eye and the
    root farthest along that direction is the one first struck.
    """
    if isinstance(eye, EyeAtInfinity):
        origin, direction = p, eye.direction
        pick = max
    else:
        if norm(eye - p) < 1e-12:
            raise SingularConfigurationError("eye coincides with the virtual point")
        origin, direction = eye, unit(p - eye)
        pick = min

    if isinstance(host, PlaneHost):
        roots = [_line_param_plane(origin, direction, host)]
    elif isinstance(host, SphereHost):
        roots = _line_params_sphere(origin, direction, host)
    else:
        scale = 10.0 * (1.0 + norm(p - host.nearest(p)[0]))
        if isinstance(eye, EyeAtInfinity):
            roots = _line_params_field(origin, direction, host, -scale, scale)
        else:
            reach = 2.0 * norm(p - eye) + scale
            roots = _line_params_field(origin, direction, host, 0.0, reach)

    if not isinstance(eye, EyeAtInfinity):
        forward = [t for t in roots if t > 1e-12]
        if not forward:
            raise SightlineMissError("host surface lies behind the eye on this sightline")
        roots = forward
    return origin + pick(roots) * direction
