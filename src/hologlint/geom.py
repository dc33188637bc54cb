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
from functools import cached_property
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
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # column rolls of an (N, 3) array, for cross_rows
_SCAN_ROWS = 256  # sightlines per block of a normal-field scan: its (rows, 513, 3) samples stay a few MiB


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
    """Row-wise ``norm`` of an (..., 3) array, with the same arithmetic per row."""
    return np.sqrt(np.add.reduce(vs * vs, axis=-1))


def unit_rows(vs: np.ndarray) -> np.ndarray:
    """Row-wise ``unit`` of an (N, 3) array, with the same arithmetic per row."""
    n = norm_rows(vs)
    if (n < 1e-15).any():
        raise DegenerateGeometryError("cannot normalize a zero-length vector")
    return vs / n[:, None]


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (N, 3) arrays, with ``np.cross``'s arithmetic."""
    return a.take(_NEXT, 1) * b.take(_LAST, 1) - a.take(_LAST, 1) * b.take(_NEXT, 1)


def _unit_toward(ds: np.ndarray, coincide: str) -> np.ndarray:
    lengths = norm_rows(ds)
    if (lengths < 1e-12).any():
        raise SingularConfigurationError(coincide)
    return ds / lengths[:, None]


def _require_unit(v: Vec3, name: str) -> None:
    if abs(norm(v) - 1.0) > UNIT_TOL:
        raise DegenerateGeometryError(f"{name} must be a unit vector (norm={norm(v):.6g})")


def nullspace_bases(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``nullspace_basis`` of an (N, 3) array, with the same arithmetic per row."""
    u = unit_rows(xs)
    k = np.argmin(np.abs(u), axis=1)
    b1 = unit_rows(np.eye(3)[k] - np.take_along_axis(u, k[:, None], 1) * u)
    return b1, cross_rows(u, b1)


def nullspace_basis(x: Vec3) -> tuple[Vec3, Vec3]:
    """Deterministic orthonormal basis of the plane perpendicular to ``x``.

    Gram-Schmidt against the coordinate axis of smallest magnitude in
    ``unit(x)``, so repeated calls produce identical residual vectors.
    """
    return tuple(b[0] for b in nullspace_bases(np.reshape(x, (1, 3))))


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

    @cached_property
    def direction(self) -> Vec3:
        """Built on the first read and shared by every later one, so it is read-only."""
        d = vec3(0.0, math.cos(self.alpha), math.sin(self.alpha))
        d.flags.writeable = False
        return d


LightSource = Union[PointLight, DirectionalLight]


def light_directions_from(xs: np.ndarray, light: LightSource) -> np.ndarray:
    """Row-wise unit directions from an (N, 3) array of points toward the light."""
    if isinstance(light, DirectionalLight):
        return np.full(xs.shape, light.direction)
    return _unit_toward(light.position - xs, "surface point coincides with the light source")


# ---- eyes and view paths ----


@dataclass(frozen=True)
class EyeAtInfinity:
    """Viewpoint at infinity along a unit direction (from the scene toward the eye)."""

    direction: Vec3


Eye = Union[Vec3, EyeAtInfinity]


def eye_directions_from(xs: np.ndarray, eye: Eye) -> np.ndarray:
    """Row-wise unit directions from an (N, 3) array of points toward one eye or one per row."""
    if isinstance(eye, EyeAtInfinity):
        return np.full(xs.shape, eye.direction)
    return _unit_toward(eye - xs, "surface point coincides with the eye")


def eye_direction_from(s: Vec3, eye: Eye) -> Vec3:
    """Unit direction from ``s`` toward the eye."""
    return eye_directions_from(np.reshape(s, (1, 3)), eye)[0]


def view_directions(thetas, phi: float = 0.0) -> np.ndarray:
    """Row-wise ``view_direction`` (with ``math``'s sin and cos) for a 1-D array of azimuths."""
    ts = np.ravel(thetas).tolist()
    sin, cos = (np.fromiter(map(f, ts), float, len(ts)) for f in (math.sin, math.cos))
    return np.column_stack([math.cos(phi) * sin, np.full(len(ts), math.sin(phi)), math.cos(phi) * cos])


def view_direction(theta: float, phi: float = 0.0) -> Vec3:
    """Unit direction toward a viewpoint at azimuth ``theta``, elevation ``phi``."""
    return view_directions([theta], phi)[0]


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

    def eyes_at(self, thetas) -> np.ndarray:
        """Row-wise ``eye_at`` for a 1-D array of azimuths."""
        return self.center + self.radius * view_directions(thetas, self.elevation)


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

    def eyes_at(self, thetas) -> EyeAtInfinity:
        """Row-wise ``eye_at``: one eye holding the (N, 3) directions."""
        return EyeAtInfinity(view_directions(thetas, self.elevation))


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


class _NearestPoint:
    """Single-point ``nearest`` and row-wise ``normals_many`` over the row-wise ``nearest_many``."""

    def nearest(self, p: Vec3) -> tuple[Vec3, Vec3]:
        q, n = self.nearest_many(np.reshape(p, (1, 3)))
        return q[0], n[0]

    def normals_many(self, ps: np.ndarray) -> np.ndarray:
        return self.nearest_many(ps)[1]


@dataclass(frozen=True)
class PlaneHost(_NearestPoint):
    """Infinite plane host; the normal points toward the viewer."""

    origin: Vec3 = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    normal: Vec3 = field(default_factory=lambda: vec3(0.0, 0.0, 1.0))

    def __post_init__(self):
        _require_unit(self.normal, "plane normal")

    def nearest_many(self, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.vecdot(ps - self.origin, self.normal)
        return ps - h[:, None] * self.normal, self.normals_many(ps)

    def normals_many(self, ps: np.ndarray) -> np.ndarray:
        return np.full(ps.shape, self.normal)

    def signed_distance(self, p: Vec3) -> float:
        return float(np.dot(p - self.origin, self.normal))


@dataclass(frozen=True)
class SphereHost(_NearestPoint):
    """Spherical host; ``viewer_inside`` selects which side is tooled."""

    center: Vec3
    radius: float
    viewer_inside: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise DegenerateGeometryError("sphere radius must be positive")

    def nearest_many(self, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.normals_many(ps)
        return self.center + self.radius * (-n if self.viewer_inside else n), n

    def normals_many(self, ps: np.ndarray) -> np.ndarray:
        r = ps - self.center
        d = norm_rows(r)
        if (d < 1e-12).any():
            raise HostEvaluationError("point at sphere center has no nearest host point")
        radial = r / d[:, None]
        return -radial if self.viewer_inside else radial

    def signed_distance(self, p: Vec3) -> float:
        d = norm(p - self.center) - self.radius
        return -d if self.viewer_inside else d


@dataclass(frozen=True)
class NormalFieldHost(_NearestPoint):
    """Host defined by a row-wise callable: (N, 3) points -> ((N, 3) nearest host
    points, (N, 3) unit normals).  A one-point query is its one-row case."""

    query: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def nearest_many(self, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        try:
            q, n = (np.asarray(a, dtype=float) for a in self.query(ps))
        except Exception as exc:  # noqa: BLE001 - field callables are user code
            raise HostEvaluationError(f"normal field query failed: {exc}") from exc
        if q.shape != ps.shape or n.shape != ps.shape:
            raise HostEvaluationError(f"normal field query answered {ps.shape} points with {q.shape} and {n.shape}")
        for i in np.flatnonzero(np.abs(norm_rows(n) - 1.0) > UNIT_TOL)[:1]:  # the first non-unit row raises
            _require_unit(n[i], "normal field normal")
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
        if deficient_bases(np.reshape(self.t1, (1, 3)), np.reshape(self.t2, (1, 3)))[0]:
            raise DegenerateGeometryError("tangent basis is deficient (t1 x t2 ~ 0)")


def deficient_bases(t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """Row-wise mask of the (N, 3) bases that ``TangentBasis`` rejects: |t1 x t2| <= 1e-9."""
    return norm_rows(cross_rows(t1s, t2s)) <= 1e-9


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


def glint_axes(xs: np.ndarray, light: LightSource, eye: Eye, media: Media) -> np.ndarray:
    """Row-wise ``glint_axis`` for an (N, 3) array of surface points."""
    return media.eta1 * light_directions_from(xs, light) + media.eta2 * eye_directions_from(xs, eye)


def glint_axis(s: Vec3, light: LightSource, eye: Eye, media: Media) -> Vec3:
    """Unnormalized eta-weighted axis eta1*u(i-s) + eta2*u(e-s)."""
    return glint_axes(np.reshape(s, (1, 3)), light, eye, media)[0]


def normality_residuals(
    t1s: np.ndarray, t2s: np.ndarray, xs: np.ndarray, light: LightSource, eye: Eye, media: Media
) -> np.ndarray:
    """Row-wise ``normality_residual``: (N, 2) inner products of each basis (t1, t2)
    at its point of ``xs`` with the glint axis for ``eye``, one eye or one per row."""
    a = glint_axes(xs, light, eye, media)
    return np.column_stack([np.vecdot(t1s, a), np.vecdot(t2s, a)])


def normality_residual(
    basis: TangentBasis, light: LightSource, eye: Eye, media: Media
) -> tuple[float, float]:
    """Inner products of the tangent basis with the eta-weighted glint axis.

    Both components vanish exactly when the basis spans the ideal optical
    tangent plane at ``basis.s``.
    """
    rows = [np.reshape(v, (1, 3)) for v in (basis.t1, basis.t2, basis.s)]
    r1, r2 = normality_residuals(*rows, light, eye, media)[0].tolist()
    return r1, r2


def colinearity_residuals(s: np.ndarray, p: np.ndarray, eye: Eye) -> np.ndarray:
    """Row-wise ``colinearity_residual``: (N, 2) residuals of the (N, 3) points ``s`` against
    ``p`` (one point or one per row), seen from one eye or one per row; no rows raise nothing."""
    x = np.broadcast_to(eye.direction if isinstance(eye, EyeAtInfinity) else eye - p, np.shape(s))
    if not isinstance(eye, EyeAtInfinity) and (norm_rows(x) < 1e-12).any():
        raise SingularConfigurationError("eye coincides with the virtual point")
    return np.vecdot(np.stack(nullspace_bases(x), axis=1), (s - p)[:, None])  # s - p along b1 and b2


def colinearity_residual(s: Vec3, p: Vec3, eye: Eye) -> tuple[float, float]:
    """Components of ``s - p`` perpendicular to the sightline through ``p``, zero iff ``s``
    lies on it, in the deterministic ``nullspace_basis`` of the sightline."""
    return tuple(colinearity_residuals(np.reshape(s, (1, 3)), p, eye)[0].tolist())


def conformance_distance(s: Vec3, host: HostSurface) -> float:
    """Distance from ``s`` to the nearest host point, to compare against the shell Delta."""
    q, _ = host.nearest(s)
    return norm(s - q)


# ---- root bracketing ----


def root_cells(vals: np.ndarray) -> np.ndarray:
    """Mask of the cells ``[k, k + 1]`` of a function sampled along the last axis that hold
    a root: ``vals[k] == 0`` or a strict sign change across the cell (NaN is neither)."""
    return (vals[..., :-1] == 0.0) | (vals[..., :-1] * vals[..., 1:] < 0)


def bisect_brackets(f, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, iterations: int):
    """Halve the brackets ``[lo, hi]`` of an array function ``f`` (``flo = f(lo)``) in
    lockstep, keeping the lower half where ``flo * f(mid) <= 0``; return ``(lo, hi)``.
    A step that leaves ``lo``, ``hi`` and ``flo`` bit for bit unchanged is a fixed
    point, so the loop ends there."""
    for _ in range(iterations if len(lo) else 0):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0
        step = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
        if all(new.tobytes() == old.tobytes() for new, old in zip(step, (lo, hi, flo))):
            break
        lo, hi, flo = step
    return lo, hi


def _field_roots(host: NormalFieldHost, origin: np.ndarray, direction: np.ndarray, p: np.ndarray,
                 at_infinity: bool) -> np.ndarray:
    """(N, 513) roots of each row's sightline on a normal-field host, NaN elsewhere: the
    signed distance sampled at 513 points of the row's window, each sign change bisected."""
    def f(rows, ts: np.ndarray) -> np.ndarray:  # signed distances at ``ts`` along the sightlines ``rows``
        pts = (origin[rows] + ts[..., None] * direction[rows]).reshape(-1, 3)
        q, n = host.nearest_many(pts)
        return np.vecdot(pts - q, n).reshape(ts.shape)

    scale = 10.0 * (1.0 + norm_rows(p - host.nearest_many(p)[0]))
    window = (-scale, scale) if at_infinity else (np.zeros(len(p)), 2.0 * norm_rows(p - origin) + scale)
    ts = np.linspace(*window, 513, axis=1)
    vals = f(np.arange(len(p))[:, None], ts)
    cells = root_cells(vals)
    r, k = np.nonzero(cells & (vals[:, :-1] != 0.0))
    lo, hi = bisect_brackets(lambda t: f(r, t), ts[r, k], ts[r, k + 1], vals[r, k], 80)
    ts[r, k] = 0.5 * (lo + hi)
    # a grid point where the distance is exactly 0, the last one included, is a root as it is
    return np.where(np.append(cells, vals[:, -1:] == 0.0, axis=1), ts, np.nan)


def sightline_host_intersections(
    eye: Eye, p: np.ndarray, host: HostSurface
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``sightline_host_intersection`` for N eyes (an (N, 3) array or
    an ``EyeAtInfinity`` of (N, 3) directions) and one ``p`` or one per row.

    Returns the (N, 3) host points, NaN where a sightline missed, and per row
    why it missed ("" on a hit).
    """
    at_infinity = isinstance(eye, EyeAtInfinity)
    if at_infinity:
        direction = eye.direction
        origin = np.broadcast_to(p, direction.shape)
    else:
        origin, direction = eye, _unit_toward(p - eye, "eye coincides with the virtual point")
    miss = np.full(len(direction), "", dtype=object)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(host, PlaneHost):
            denom = np.vecdot(direction, host.normal)
            miss[np.abs(denom) < 1e-14] = "sightline parallel to the plane host"
            roots = (np.vecdot(host.origin - origin, host.normal) / denom)[:, None]
        elif isinstance(host, SphereHost):
            oc = origin - host.center
            b = np.vecdot(oc, direction)
            disc = b * b - (np.vecdot(oc, oc) - host.radius * host.radius)
            miss[disc < 0] = "sightline misses the sphere host"
            root = np.sqrt(disc)
            roots = np.column_stack([-b - root, -b + root])
        else:  # normal-field hosts: one sampled scan of every row, _SCAN_ROWS rows at a time
            roots, ps = np.full((len(direction), 513), np.nan), np.broadcast_to(p, origin.shape)
            for a in range(0, len(direction), _SCAN_ROWS):
                block = (v[a : a + _SCAN_ROWS] for v in (origin, direction, ps))
                roots[a : a + _SCAN_ROWS] = _field_roots(host, *block, at_infinity)
            miss[np.isnan(roots).all(axis=1)] = "sightline misses the normal-field host in the sampled range"
        if at_infinity:
            t = np.max(np.where(np.isnan(roots), -np.inf, roots), axis=1)
        else:
            t = np.min(np.where(roots > 1e-12, roots, np.inf), axis=1)
            miss[(miss == "") & np.isinf(t)] = "host surface lies behind the eye on this sightline"
        q = origin + t[:, None] * direction
    q[miss != ""] = np.nan
    return q, miss


def sightline_host_intersection(eye: Eye, p: Vec3, host: HostSurface) -> Vec3:
    """Point where the sightline through ``p`` meets the host, nearest the eye.

    For a finite eye the line is parameterized from the eye toward ``p``; for
    an eye at infinity it is parameterized from ``p`` toward the eye and the
    root farthest along that direction is the one first struck.
    """
    at_infinity = isinstance(eye, EyeAtInfinity)
    eyes = EyeAtInfinity(np.reshape(eye.direction, (1, 3))) if at_infinity else np.reshape(eye, (1, 3))
    q, miss = sightline_host_intersections(eyes, p, host)
    if miss[0]:
        raise SightlineMissError(miss[0])
    return q[0]
