"""Exact single-point optical surfaces.

For a static point light ``i`` and virtual point ``p`` the reflecting
surfaces are confocal conics of revolution: prolate ellipsoids when the
point sits in front of the host, hyperboloids when it sits behind, with a
sphere (point at the light) and a paraboloid (light at infinity) as the
degenerate members.  Single-interface refraction is served by revolute
Cartesian ovals with an eta-weighted path-length constant.

Surfaces are value objects carrying an implicit function.  A line meets a
conic at the roots of a quadratic and an oval at those of a quartic, both
solved in closed form; only normal-field hosts, in ``geom``, are solved by
bracketing and bisection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DomainError,
    RootFindError,
    UnsupportedConfigurationError,
)
from .geom import (
    DirectionalLight,
    HostSurface,
    LightSource,
    Media,
    Vec3,
    norm,
    norm_rows,
    nullspace_basis,
    unit,
    unit_rows,
)

COINCIDENCE_TOL = 1e-9


class ConicKind(enum.Enum):
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID = "hyperboloid"
    PARABOLOID = "paraboloid"
    SPHERE = "sphere"


class Sheet(enum.Enum):
    TOWARD_P = "toward-p"
    TOWARD_I = "toward-i"


def _frame_about(axis: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    u = unit(axis)
    v, w = nullspace_basis(u)
    return u, v, w


class _PointForms:
    """Single-point ``implicit`` and ``normal`` over the (N, 3) forms, and samples
    of the member along rays from ``focus_p`` about its ``axis_frame``."""

    def implicit(self, x: Vec3) -> float:
        return float(self.implicit_many(np.asarray(x, dtype=float).reshape(1, 3))[0])

    def normal(self, x: Vec3) -> Vec3:
        return self.normal_many(np.asarray(x, dtype=float).reshape(1, 3))[0]

    def point_at(self, azimuth: float, latitude: float) -> Vec3:
        pt = self.points_at(np.array([azimuth]), np.array([latitude]))[0]
        if np.isnan(pt).any():
            raise DomainError("ray does not intersect the surface (parameter outside the sheet)")
        return pt

    def points_at(self, azimuths: np.ndarray, latitudes: np.ndarray) -> np.ndarray:
        """Vectorized radial solve from focus_p along (latitude, azimuth) directions.

        ``latitude`` is the polar angle from the revolution axis (pointing from
        p toward i, or toward the light for paraboloids); ``azimuth`` revolves
        about it.  A direction that misses the sheet gives a NaN row.
        """
        u, v, w = self.axis_frame()
        lat = np.asarray(latitudes, dtype=float)
        az = np.asarray(azimuths, dtype=float)
        dirs = (
            np.cos(lat)[:, None] * u
            + (np.sin(lat) * np.cos(az))[:, None] * v
            + (np.sin(lat) * np.sin(az))[:, None] * w
        )
        return self.focus_p + _ray_hits(self, self.focus_p, dirs)[:, None] * dirs


@dataclass(frozen=True)
class ConicSurface(_PointForms):
    """Revolute conic with foci at the light and the virtual point.

    ``k`` is the focal sum (ellipsoid, sphere), the absolute focal difference
    (hyperboloid), or the focus-directrix constant (paraboloid).  Paraboloids
    store the unit direction toward the infinite light in ``light_dir`` and a
    branch sign: +1 when the virtual point lies behind the surface, -1 when
    the reflected rays really converge on it.
    """

    kind: ConicKind
    focus_p: Vec3
    focus_i: Vec3 | None
    k: float
    eccentricity: float
    sheet: Sheet | None = None
    light_dir: Vec3 | None = None
    paraboloid_sign: int = 1

    def __post_init__(self):
        if self.k <= 0:
            raise DegenerateGeometryError("conic constant k must be positive")
        if self.kind is ConicKind.ELLIPSOID and not self.eccentricity < 1:
            raise DegenerateGeometryError("ellipsoid requires k > |i - p| (eccentricity < 1)")
        if self.kind is ConicKind.HYPERBOLOID:
            if not self.eccentricity > 1:
                raise DegenerateGeometryError("hyperboloid requires k < |i - p| (eccentricity > 1)")
            if self.sheet is None:
                raise DegenerateGeometryError("hyperboloid requires a sheet selector")
        if self.kind is ConicKind.PARABOLOID and self.light_dir is None:
            raise DegenerateGeometryError("paraboloid requires the light direction")

    # -- implicit form --

    def implicit_many(self, xs: np.ndarray) -> np.ndarray:
        dp = np.linalg.norm(xs - self.focus_p, axis=1)
        if self.kind is ConicKind.SPHERE:
            return 2.0 * dp - self.k
        if self.kind is ConicKind.PARABOLOID:
            axial = np.vecdot(xs - self.focus_p, self.light_dir)
            return dp + self.paraboloid_sign * axial - self.k
        di = np.linalg.norm(xs - self.focus_i, axis=1)
        if self.kind is ConicKind.ELLIPSOID:
            return di + dp - self.k
        if self.sheet is Sheet.TOWARD_P:
            return di - dp - self.k
        return dp - di - self.k

    def gradient_many(self, xs: np.ndarray) -> np.ndarray:
        up = unit_rows(xs - self.focus_p)
        if self.kind is ConicKind.SPHERE:
            return 2.0 * up
        if self.kind is ConicKind.PARABOLOID:
            return up + self.paraboloid_sign * self.light_dir
        ui = unit_rows(xs - self.focus_i)
        if self.kind is ConicKind.ELLIPSOID:
            return ui + up
        if self.sheet is Sheet.TOWARD_P:
            return ui - up
        return up - ui

    def _normal_sign(self) -> float:
        # Orient normals toward the viewer side of the tooled sheet.
        if self.kind is ConicKind.PARABOLOID:
            return 1.0 if self.paraboloid_sign > 0 else -1.0
        if self.kind is ConicKind.HYPERBOLOID and self.sheet is Sheet.TOWARD_I:
            return 1.0
        return -1.0

    def normal_many(self, xs: np.ndarray) -> np.ndarray:
        return self._normal_sign() * unit_rows(self.gradient_many(xs))

    def line_roots(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """(N, 2) ascending ``t`` where lines ``origins + t*dirs`` meet this sheet; NaN if missing.

        The sheet is ``c*|x - p| = L(x)`` with ``L`` affine and ``L >= 0``.  Squared
        along a line it is ``A t^2 + 2B t + C = 0``, solved in the numerically
        stable form, which also covers ``A = 0``.  Each row equals a one-row call.
        """
        dirs = np.asarray(dirs, dtype=float)
        w = np.broadcast_to(np.asarray(origins, dtype=float) - self.focus_p, dirs.shape)
        # L(x) = L(p) + g.(x - p)
        if self.kind is ConicKind.SPHERE:
            c, l_p, g = 2.0, self.k, np.zeros(3)
        elif self.kind is ConicKind.PARABOLOID:
            c, l_p, g = 1.0, self.k, -self.paraboloid_sign * self.light_dir
        else:  # |x - i|^2 - |x - p|^2 is affine in x; e = i - p
            e, s = self.focus_i - self.focus_p, -1.0 if self.sheet is Sheet.TOWARD_P else 1.0
            c, l_p, g = 2.0 * self.k, s * (self.k**2 - np.vecdot(e, e)), 2.0 * s * e
        l0, l1 = l_p + np.vecdot(w, g), np.vecdot(dirs, g)
        a = c * c * np.vecdot(dirs, dirs) - l1 * l1
        b = c * c * np.vecdot(w, dirs) - l0 * l1
        cc = c * c * np.vecdot(w, w) - l0 * l0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(b * b - a * cc), b))
            t = np.array([q / a, cc / q])
        t[~(np.isfinite(t) & (l0 + t * l1 >= 0))] = np.nan
        return np.sort(t.T, axis=1)

    # -- parameterization --

    def axis_frame(self) -> tuple[Vec3, Vec3, Vec3]:
        if self.kind is ConicKind.PARABOLOID:
            return _frame_about(self.light_dir)
        if self.kind is ConicKind.SPHERE:
            return _frame_about(np.array([0.0, 0.0, 1.0]))
        return _frame_about(self.focus_i - self.focus_p)


@dataclass(frozen=True)
class CartesianOval(_PointForms):
    """Revolute Cartesian oval: eta1*|x-i| + sign*eta2*|x-p| = k.

    ``sign`` is +1 when the refracted rays really pass through ``p`` and -1
    when ``p`` is a virtual image behind the interface.
    """

    focus_i: Vec3
    focus_p: Vec3
    eta1: float
    eta2: float
    k: float
    sign: int = 1

    def __post_init__(self):
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise DegenerateGeometryError("refractive indices must be positive")
        if self.sign not in (1, -1):
            raise DegenerateGeometryError("oval sign convention must be +1 or -1")
        # a revolute oval meets its focal axis or is empty
        if np.isnan(self.line_roots(self.focus_i, self.axis_frame()[0].reshape(1, 3))).all():
            raise DomainError("stored constant k yields an empty Cartesian oval")

    def implicit_many(self, xs: np.ndarray) -> np.ndarray:
        di = np.linalg.norm(xs - self.focus_i, axis=1)
        dp = np.linalg.norm(xs - self.focus_p, axis=1)
        return self.eta1 * di + self.sign * self.eta2 * dp - self.k

    def gradient_many(self, xs: np.ndarray) -> np.ndarray:
        return (
            self.eta1 * unit_rows(xs - self.focus_i)
            + self.sign * self.eta2 * unit_rows(xs - self.focus_p)
        )

    def normal_many(self, xs: np.ndarray) -> np.ndarray:
        # The eta-weighted refraction axis points against the gradient.
        return -unit_rows(self.gradient_many(xs))

    def line_roots(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """(N, 4) ascending ``t`` where lines ``origins + t*dirs`` meet this oval; NaN if missing.

        Along a line, with ``A = |x - i|^2``, ``B = |x - p|^2`` and ``P = k^2 + eta2^2 B -
        eta1^2 A``, squaring ``eta1 sqrt(A) = k - sign*eta2 sqrt(B)`` twice gives the quartic
        ``P^2 - 4 k^2 eta2^2 B = 0``, solved by the eigenvalues of its companion matrices (a
        stable quadratic when eta1 = eta2).  A real root is kept where ``sign*k*P >= 0``, the
        branch the second squaring folded into its mirror, and, after two Newton steps on the
        unsquared function, where that is within 1e-12 scales of 0; coincident roots count
        once.  Each row equals a one-row call.
        """
        dirs = np.asarray(dirs, dtype=float)
        o = np.broadcast_to(np.asarray(origins, dtype=float), dirs.shape)
        (e1, e2), s, k = np.square([self.eta1, self.eta2]), self.sign, self.k
        dd, wi, wp = np.vecdot(dirs, dirs), o - self.focus_i, o - self.focus_p
        b = np.array([dd, 2.0 * np.vecdot(wp, dirs), np.vecdot(wp, wp)])  # B, then P, by powers t^2, t, 1
        p2, p1, p0 = e2 * b - e1 * np.array([dd, 2.0 * np.vecdot(wi, dirs), np.vecdot(wi, wi)]) + [[0], [0], [k * k]]
        c = 4.0 * k * k * e2 * b
        quartic = [p2 * p2, 2 * p2 * p1, p1 * p1 + 2 * p2 * p0 - c[0], 2 * p1 * p0 - c[1], p0 * p0 - c[2]]
        size = np.maximum(np.sqrt(b[2]), max(_surface_scale(self), 1.0))[:, None]  # mm
        span = size / np.sqrt(dd)[:, None]  # size in t

        def at(t):  # x - i and x - p at x = origins + t*dirs, and their lengths
            x = o[:, None] + t[..., None] * dirs[:, None]
            xi, xp = x - self.focus_i, x - self.focus_p
            return xi, xp, norm_rows(xi), norm_rows(xp)

        with np.errstate(divide="ignore", invalid="ignore"):
            if self.eta1 == self.eta2:  # no t^4 or t^3 term
                a2, a1, a0 = quartic[2], 0.5 * quartic[3], quartic[4]
                q = -(a1 + np.copysign(np.sqrt(a1 * a1 - a2 * a0), a1))
                t = np.column_stack([q / a2, a0 / q, np.full((len(q), 2), np.nan)])
            else:
                companion = np.zeros((len(dd), 4, 4))
                companion[:, 0], companion[:, [1, 2, 3], [0, 1, 2]] = -np.transpose(quartic[1:] / quartic[0]), 1.0
                roots = np.linalg.eigvals(companion)  # rounding may split a double root into a complex pair
                t = np.where(np.abs(roots.imag) <= 1e-6 * span, roots.real, np.nan)
            _, _, ri, rp = at(t)
            t[~(s * k * (k * k + e2 * rp * rp - e1 * ri * ri)
                >= -1e-9 * (k * k + e2 * rp * rp + e1 * ri * ri))] = np.nan
            for _ in range(2):
                xi, xp, ri, rp = at(t)
                df = self.eta1 * np.vecdot(xi, dirs[:, None]) / ri + s * self.eta2 * np.vecdot(xp, dirs[:, None]) / rp
                step = (self.eta1 * ri + s * self.eta2 * rp - k) / df
                t = t - np.where(np.isfinite(step), step, 0.0)
        _, _, ri, rp = at(t)
        t[~(np.abs(self.eta1 * ri + s * self.eta2 * rp - k) <= 1e-12 * size)] = np.nan
        t = np.sort(t, axis=1)
        t[:, 1:][np.diff(t, axis=1) <= 1e-9 * span] = np.nan
        return np.sort(t, axis=1)

    def axis_frame(self) -> tuple[Vec3, Vec3, Vec3]:
        # coincident foci make the oval a sphere about them, and any axis serves
        axis = self.focus_i - self.focus_p
        return _frame_about(axis if norm(axis) > 1e-12 else np.array([0.0, 0.0, 1.0]))


FoliationMember = ConicSurface | CartesianOval


# ---- classification and construction ----


def classify_member(p: Vec3, host: HostSurface, light: LightSource) -> ConicKind:
    """Which conic family serves virtual point ``p`` on this host under this light."""
    if isinstance(light, DirectionalLight):
        return ConicKind.PARABOLOID
    if norm(p - light.position) < COINCIDENCE_TOL:
        return ConicKind.SPHERE
    sd = host.signed_distance(p)
    if abs(sd) < COINCIDENCE_TOL:
        # Point on the host: the infinitesimal parabolic needle (eccentricity 1).
        return ConicKind.PARABOLOID
    return ConicKind.ELLIPSOID if sd > 0 else ConicKind.HYPERBOLOID


def _front_side(s0: Vec3, to_light: Vec3, p: Vec3) -> bool:
    # True when p and the light share a hemisphere as seen from s0, i.e. the
    # reflected/refracted rays really pass through p (front-side member).
    return float(np.dot(to_light, unit(p - s0))) >= 0.0


def member_through(
    p: Vec3,
    light: LightSource,
    s0: Vec3,
    media: Media = Media(),
    kind: ConicKind | None = None,
) -> FoliationMember:
    """The unique foliation member with foci (light, p) containing ``s0``.

    Confocal families place both an ellipsoid and a hyperboloid through a
    generic point; when ``kind`` is not given, the member is chosen by whether
    ``p`` and the light share a hemisphere at ``s0`` (front-side points image
    really, behind-side points image virtually).  Callers holding a host
    should pass ``kind=classify_member(...)`` explicitly.
    """
    if norm(s0 - p) < COINCIDENCE_TOL:
        raise DegenerateGeometryError("surface point coincides with the virtual point")

    if not media.is_reflective:
        if isinstance(light, DirectionalLight):
            raise UnsupportedConfigurationError(
                "refracting member with light at infinity is a plano-aspheric lens; not solved here"
            )
        d_i = norm(s0 - light.position)
        d_p = norm(s0 - p)
        sign = 1 if _front_side(s0, unit(light.position - s0), p) else -1
        k = media.eta1 * d_i + sign * media.eta2 * d_p
        return CartesianOval(light.position, p, media.eta1, media.eta2, k, sign)

    if isinstance(light, DirectionalLight):
        d = light.direction
        r = norm(s0 - p)
        axial = float(np.dot(s0 - p, d))
        sign = -1 if _front_side(s0, d, p) else 1
        k = r + sign * axial
        if k <= COINCIDENCE_TOL:
            raise DegenerateGeometryError("point lies on the paraboloid axis toward the light")
        return ConicSurface(
            ConicKind.PARABOLOID, p, None, k, 1.0, light_dir=d, paraboloid_sign=sign
        )

    i = light.position
    d_i = norm(s0 - i)
    d_p = norm(s0 - p)
    dist_ip = norm(i - p)
    if dist_ip < COINCIDENCE_TOL:
        return ConicSurface(ConicKind.SPHERE, p, i, d_i + d_p, 0.0)

    if kind is None:
        kind = ConicKind.ELLIPSOID if _front_side(s0, unit(i - s0), p) else ConicKind.HYPERBOLOID

    if kind is ConicKind.ELLIPSOID:
        k = d_i + d_p
        return ConicSurface(ConicKind.ELLIPSOID, p, i, k, dist_ip / k)
    if kind is ConicKind.HYPERBOLOID:
        k = abs(d_i - d_p)
        if k < COINCIDENCE_TOL:
            raise DomainError(
                "point equidistant from the foci: the hyperboloid degenerates to a plane"
            )
        sheet = Sheet.TOWARD_P if d_i > d_p else Sheet.TOWARD_I
        return ConicSurface(ConicKind.HYPERBOLOID, p, i, k, dist_ip / k, sheet=sheet)
    raise DomainError(f"cannot construct a {kind.value} member through a finite point this way")


def surface_point_and_normal(
    surface: FoliationMember, azimuth: float, latitude: float
) -> tuple[Vec3, Vec3]:
    """Sample a revolute surface and its viewer-oriented unit normal."""
    pt = surface.point_at(azimuth, latitude)
    return pt, surface.normal(pt)


def oval_radial_solve(oval: CartesianOval, direction: Vec3) -> Vec3:
    """Nearest zero of the oval's implicit function along a ray from focus_p."""
    d = unit(np.asarray(direction, dtype=float))
    pts = radial_roots(oval, oval.focus_p, d.reshape(1, 3))
    return pts[0]


# ---- radial root solving ----


def radial_roots(surface: FoliationMember, origin: Vec3, dirs: np.ndarray) -> np.ndarray:
    """Nearest roots of the implicit function along rays ``origin + t*dir``, t > 0.

    ``dirs`` is (N, 3); ``origin`` is one point or (N, 3) per-ray origins.
    Every member takes its nearest ``line_roots`` hit.  Each row of a batch
    equals a one-ray call.  Raises DomainError when any ray never
    crosses the surface and RootFindError when any root misses it.
    """
    dirs = np.asarray(dirs, dtype=float)
    t = _ray_hits(surface, origin, dirs)
    if np.isnan(t).any():
        raise DomainError("ray does not intersect the surface (parameter outside the sheet)")
    pts = origin + t[:, None] * dirs
    if np.max(np.abs(surface.implicit_many(pts))) > 1e-7 * max(_surface_scale(surface), 1.0):
        raise RootFindError("radial root refinement failed to converge")
    return pts


def _ray_hits(surface: FoliationMember, origin: Vec3, dirs: np.ndarray) -> np.ndarray:
    """The smallest root t > 0 per ray; NaN when there is none within 1e9 surface scales."""
    t = surface.line_roots(origin, dirs)
    t = np.where(t > 0, t, np.inf).min(axis=1)
    return np.where(t <= 1e9 * max(_surface_scale(surface), 1.0), t, np.nan)


def _surface_scale(surface: FoliationMember) -> float:
    if isinstance(surface, CartesianOval):
        return max(abs(surface.k) / max(surface.eta1, surface.eta2), norm(surface.focus_i - surface.focus_p))
    if surface.kind in (ConicKind.PARABOLOID, ConicKind.SPHERE):
        return abs(surface.k)
    return max(abs(surface.k), norm(surface.focus_i - surface.focus_p))
