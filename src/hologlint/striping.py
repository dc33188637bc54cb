"""Horizontal-parallax toolpaths, stripings, and the cutting-bit profile.

A glint for a viewpoint at azimuth ``theta`` under an overhead light at
zenith offset ``alpha`` requires the optical normal ``(sin t, cos a,
cos t + sin a)``.  The component of the ideal tangent space that conforms to
the host, ``t1 = n x N``, integrates into toolpaths: closed-form hyperbolas
on flat hosts, numeric curves elsewhere.  The orthogonal component ``t2``
fixes the cutting-bit profile.  A striping selects non-overlapping arcs of
the toolpath foliation, one per stipple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateGeometryError, DomainError, SightlineMissError, UnmachinableProfileError,
                     UnsupportedConfigurationError)
from .geom import (REFLECTION, DirectionalLight, EyeAtInfinity, HostSurface, InfinityView, LightSource, Media,
                   OrbitView, PlaneHost, PointLight, SphereHost, Vec3, ViewPath, _LAST, _NEXT, cross_rows, glint_axes,
                   norm, norm_rows, sightline_host_intersections, vec3)
from .geom import sightline_host_intersection  # noqa: F401 - bench/spans.py traces it under this module
from .ridging import FabricationParams

DEFAULT_STEP = math.radians(0.1)
Z_HAT = np.array([0.0, 0.0, 1.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
_TABLE_COLS = 1024  # stage columns per block of a state-free batch's slope table


@dataclass(frozen=True)
class Stipple:
    """One virtual scene point with its visibility window and placement rank."""

    p: Vec3
    weight: float = 1.0
    window: tuple[float, float] = (-0.25 * math.pi, 0.25 * math.pi)
    priority: int = 0
    stipple_id: int = 0

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise DegenerateGeometryError("stipple weight must lie in [0, 1]")
        if not self.window[0] < self.window[1]:
            raise DegenerateGeometryError("stipple visibility window must be nonempty")


@dataclass(frozen=True)
class Toolpath:
    """Sampled space curve theta -> (position, conforming tangent t1), one row per sample."""

    thetas: np.ndarray  # (N,)
    positions: np.ndarray  # (N, 3)
    t1: np.ndarray  # (N, 3)
    axes: np.ndarray  # (N, 3) unnormalized design glint normal at each theta
    c0: float
    c1: float
    host: HostSurface
    breaks: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()

    def within(self, theta_a: float, theta_b: float) -> np.ndarray:
        """Mask of the samples with theta in [theta_a, theta_b], 1e-12 slack each side."""
        return (theta_a - 1e-12 <= self.thetas) & (self.thetas <= theta_b + 1e-12)

    def clipped(self, theta_a: float, theta_b: float) -> "Toolpath":
        k = self.within(theta_a, theta_b)
        rows = {f: getattr(self, f)[k] for f in ("thetas", "positions", "t1", "axes")}
        return replace(self, **rows, breaks=())


@dataclass(frozen=True)
class StripeArc:
    toolpath: Toolpath
    theta_a: float
    theta_b: float
    stipple: Stipple
    theta_c: float  # design crossing: the azimuth where the arc meets the specularity curve


@dataclass(frozen=True)
class Striping:
    """Accepted non-overlapping arcs plus the stipples that could not be placed."""

    arcs: tuple[StripeArc, ...]
    fab: FabricationParams
    rejected: tuple[tuple[Stipple, str], ...] = ()


@dataclass(frozen=True)
class BitProfile:
    """Cutting-bit meridian as (depth, radius) samples, radius nonincreasing with depth."""

    points: tuple[tuple[float, float], ...]
    angle_interval: tuple[float, float]  # radians, [min, max] angle(N, t2)

    def covers(self, angle: float, tol: float = 1e-9) -> bool:
        lo, hi = self.angle_interval
        return lo - tol <= angle <= hi + tol


@dataclass(frozen=True)
class ArcFit:
    """Least-squares circle through toolpath samples (plane-projected)."""

    center: Vec3 | None
    radius: float
    max_deviation: float
    is_line: bool = False


# ---- tangent fields ----


def glint_normal_raw(theta: float, alpha: float) -> Vec3:
    """Unnormalized optical normal (sin t, cos a, cos t + sin a)."""
    return vec3(math.sin(theta), math.cos(alpha), math.cos(theta) + math.sin(alpha))


def conforming_tangent(theta: float, alpha: float, n_host: Vec3 = Z_HAT) -> Vec3:
    """Host-conforming tangent t1 = n x N; (cos a, -sin t, 0) on the wall frame.

    Returns the zero vector when the glint normal is parallel to the host
    normal (the degenerate retro configuration).
    """
    t1 = np.cross(glint_normal_raw(theta, alpha), n_host)
    if norm(t1) < 1e-12:
        return np.zeros(3)
    return t1


def orthogonal_tangent(theta: float, alpha: float) -> Vec3:
    """Orthogonal tangent t2 = t1 x n, scaled to (-sin t, -cos a, ...)."""
    denom = math.cos(theta) + math.sin(alpha)
    if abs(denom) < 1e-12:
        raise DomainError("orthogonal tangent pole: cos(theta) + sin(alpha) = 0")
    return vec3(-math.sin(theta), -math.cos(alpha), (math.cos(alpha) ** 2 + math.sin(theta) ** 2) / denom)


def tangent_normal_angle(theta: float, alpha: float) -> float:
    """Angle between the host normal and t2 (the bit's required flank angle)."""
    t2 = orthogonal_tangent(theta, alpha)
    return math.atan2(math.hypot(t2[0], t2[1]), t2[2])


# ---- toolpaths ----


def hyperbolic_toolpath(p_z: float, alpha: float, c0: float, theta_range: tuple[float, float],
                        step: float = DEFAULT_STEP) -> Toolpath:
    """Closed-form flat-host toolpath x = -p_z tan t, y = p_z sec a sec t + C0.

    Local wall frame: the stipple sits at (0, 0, p_z) and the specularity
    curve runs along y = 0 on the host plane z = 0.
    """
    lo, hi = theta_range
    if p_z == 0:
        raise DegenerateGeometryError("p_z must be nonzero for the hyperbolic toolpath")
    if not lo < hi:
        raise DomainError("empty theta range")
    if max(abs(lo), abs(hi)) >= 0.5 * math.pi - 1e-9:
        raise DomainError("theta range touches +-90 degrees")
    if step <= 0:
        raise DomainError("step must be positive")

    n = max(1, int(math.ceil((hi - lo) / step - 1e-12)))
    sec_a = 1.0 / math.cos(alpha)
    thetas = [lo + (hi - lo) * k / n for k in range(n + 1)]
    pos = [(-p_z * math.tan(t), p_z * sec_a / math.cos(t) + c0, 0.0) for t in thetas]
    t1 = [conforming_tangent(t, alpha) for t in thetas]
    axes = [glint_normal_raw(t, alpha) for t in thetas]
    return Toolpath(*map(np.array, (thetas, pos, t1, axes)), c0, 0.0, PlaneHost())


_NO_UP = "host normal parallel to +y: no vertical tangent"


def _require_azimuth_view(view: ViewPath) -> None:
    if not isinstance(view, (OrbitView, InfinityView)):
        raise UnsupportedConfigurationError(
            "toolpath integration needs an azimuth-parameterized view (orbit or infinity)"
        )


def _host_up(host: HostSurface, q: np.ndarray) -> np.ndarray:
    """Row-wise host tangent closest to +y at host points ``q``; NaN where there is none."""
    n = host.normals_many(q)
    t = Y_HAT - np.vecdot(Y_HAT, n)[:, None] * n
    nt = norm_rows(t)[:, None]
    return np.where(nt < 1e-9, np.nan, t / nt)


def _vertical_gaps(host, view, p, thetas, positions) -> np.ndarray:
    """Row-wise in-host vertical offset of toolpath points from the specularity curve."""
    q, _ = sightline_host_intersections(view.eyes_at(thetas), p, host)
    return np.vecdot(positions - q, _host_up(host, q))


class _Batch:
    """RK4 state of several stipples' toolpaths, one row per stipple.

    The eye and the specularity point's x and dx/dtheta (NaN where a
    sightline missed) are evaluated once, at every stage theta of every row.
    Columns past a row's last step repeat its last theta.  Each row keeps its
    (y, z) state, step pointer and liveness between ``advance`` calls.

    A run of steps gathers ``x``, ``xdot`` and ``eye_rows`` (stage eyes, or directions for an infinity view)
    once over its rows' stage columns, stage-major and component-major, so a stage reads contiguous rows.
    A row's NaN horizon is its first stage column with a NaN ``x`` or ``xdot``; steps before the first
    horizon of a run's rows cannot truncate, so they skip the NaN tests, and the run ends by the step
    that reaches it.  A stage's slope comes from ``_slope``: ``_tangents`` takes the points it looks toward
    (sphere centre, point light, finite eye) off its points in one block, and one screen of their lengths and
    |t1_x| against ``bound`` gates the exact tests (|t1| <= (eta1 + eta2)(1 + UNIT_TOL), so a split needs
    |t1_x| < bound; NaN never splits).  Where t1 depends on the stage eye alone (plane, directional light,
    eyes at infinity), the first ``advance`` fills ``table`` with ``_slope``'s slopes and split flags (False
    where screened) over every stage column, ``_TABLE_COLS`` at a time (it is row-wise, so the bits agree),
    and ``_sum`` runs such rows as one running sum of table increments per ``advance``.
    """

    def __init__(self, host, light, media, view, ps, sigma, lo, hi, step):
        self.host, self.light, self.media, self.ps, self.sigma = host, light, media, ps, sigma
        self.n = np.maximum(1, np.ceil((hi - lo) / step - 1e-12)).astype(int)
        self.h = (hi - lo) / self.n
        live = np.arange(1, self.n.max() + 1) <= self.n[:, None]
        self.grid = np.add.accumulate(np.column_stack([lo, np.where(live, self.h[:, None], 0.0)]), 1)
        stages = np.repeat(self.grid, 2, axis=1)[:, :-1]
        stages[:, 1::2] += np.where(live, 0.5 * self.h[:, None], 0.0)
        self.cols = stages.shape[1]
        eyes = view.eyes_at(stages.ravel())
        self.infinite = isinstance(eyes, EyeAtInfinity)
        self.eye_rows = eyes.direction if self.infinite else eyes
        self.state_free = self.infinite and isinstance(host, PlaneHost) and isinstance(light, DirectionalLight)
        self.table = None  # (slopes, split flags) of every stage column, once a state-free advance runs
        # the points a stage looks toward, as slots of (slot, 3, rows) blocks: sphere centre, point light, stage eye
        self.sphere, self.point = isinstance(host, SphereHost), isinstance(light, PointLight)
        lead = ([host.center] if self.sphere else []) + ([light.position] if self.point else [])
        self.lead = np.reshape(lead + [Z_HAT] * (not self.infinite), (-1, 3, 1))  # Z_HAT holds the eye's slot
        self.slots, self.field = len(self.lead), not isinstance(host, (SphereHost, PlaneHost))
        self.normal = np.reshape(host.normal, (3, 1)) if isinstance(host, PlaneHost) else None
        self.light_dir = None if self.point else np.reshape(light.direction, (3, 1))
        self.etas, s = None if media.eta1 == media.eta2 == 1.0 else (media.eta1, media.eta2), self.slots
        # t1 = n_raw x n_host (n_host x n_raw inside a sphere) gathers the slots of ``_blocks``' factors
        a, b = (0, s) if self.sphere and host.viewer_inside else (s, 0 if self.sphere else s + 1)
        self.cross_at = np.concatenate([3 * a + np.r_[_NEXT, _LAST], 3 * b + np.r_[_LAST, _NEXT]])
        self.blocks = self._blocks(0)
        self.bound = 2e-12 * max(1.0, media.eta1 + media.eta2)  # |t1_x| below which a stage may split

        def sightlines(eyes):
            q, why = sightline_host_intersections(eyes, np.repeat(ps, self.cols, axis=0), host)
            return q.reshape(*stages.shape, 3), why.reshape(stages.shape)

        q, why = sightlines(eyes)
        self.x = q[..., 0].copy()  # contiguous, so that its flat view is no copy, and q is freed
        ortho = isinstance(view, InfinityView) and abs(view.elevation) < 1e-12
        if ortho and isinstance(host, PlaneHost) and abs(float(np.dot(host.normal, Z_HAT)) - 1.0) < 1e-12:
            c = self.eye_rows[:, 2].reshape(stages.shape)  # cos(theta), as cos(elevation) = 1
            self.xdot = -(ps[:, 2] - host.origin[2])[:, None] / (c * c)
        else:  # Richardson 5-point stencil
            d = 1e-3
            xs = [sightlines(view.eyes_at((stages + e).ravel()))[0][..., 0] for e in (-2 * d, -d, d, 2 * d)]
            self.xdot = (xs[0] - 8.0 * xs[1] + 8.0 * xs[2] - xs[3]) / (12.0 * d)
        bad = np.isnan(self.x) | np.isnan(self.xdot)
        self.horizon = np.where(bad.any(axis=1), bad.argmax(axis=1), self.cols)
        self.q0, self.up0 = q[:, 0].copy(), np.full((len(ps), 3), np.nan)
        hit = ~np.isnan(self.x[:, 0])
        self.up0[hit] = _host_up(host, self.q0[hit])
        self.errors = [
            SightlineMissError(w) if w else DegenerateGeometryError(_NO_UP) if np.isnan(u[0]) else None
            for w, u in zip(why[:, 0], self.up0)
        ]
        self.yz = np.full((len(ps), self.grid.shape[1], 2), np.nan)
        self.kept = np.zeros(self.yz.shape[:2], dtype=bool)
        self.breaks, self.warnings = {}, {}  # row -> break indices, warning texts
        self.state = np.full((len(ps), 2), np.nan)  # (y, z) at each row's step pointer
        self.at, self.live = np.zeros(len(ps), dtype=int), np.zeros(len(ps), dtype=bool)

    def _blocks(self, n: int) -> tuple:
        """The (slot, 3, n) blocks of a call on n points, anchors (centre and light filled in), differences and t1's
        factors (a plane's normal filled in), and the views of them that ``_tangents`` reads and writes."""
        s, anchors, factors = self.slots, np.repeat(self.lead, n, 2), np.empty((self.slots + 2, 3, n))
        factors[-1] = 0.0 if self.normal is None else self.normal
        d, rows = np.empty_like(anchors), factors.reshape(3 * s + 6, n)
        ends = (anchors[-1], anchors[0], d[0]) if s else (None,) * 3
        return anchors, d, factors, factors[:s], factors[s], rows, factors[int(self.sphere)], factors[s - 1], *ends

    def _tangents(self, pos: np.ndarray, e: np.ndarray, eyes=None, lengths=None) -> tuple[np.ndarray, np.ndarray]:
        """t1 = n_raw x n_host and n_raw at ``pos``, seen from stage eyes ``e`` (flat indices) or their ``eyes``
        rows, on the ``_blocks`` kept from the last call on as many points (n_raw is a view of them): the anchors
        take one subtraction (the centre's slot a second, for normals_many's bits), norm and divide, and t1 one
        gather, product and difference.  A point on an anchor raises normals_many's or glint_axes' error before
        the divide, unless a (slots, rows) ``lengths`` buffer takes the anchor lengths for the caller to screen."""
        eyes = self.eye_rows.take(e, 0) if eyes is None else eyes
        p, n, s = pos.T, len(pos), self.slots
        if self.blocks[0].shape[2] != n:
            self.blocks = self._blocks(n)
        anchors, d, factors, units, n_raw, rows, to_light, to_eye, at_eye, centre, from_centre = self.blocks
        if self.field:  # a normal field is queried first, so that its errors come before the anchors'
            factors[-1] = self.host.normals_many(pos).T
        light, eye = self.light_dir, eyes.T
        if s:
            if not self.infinite:
                at_eye[...] = eye
            np.subtract(anchors, p, out=d)
            if self.sphere:
                np.subtract(p, centre, out=from_centre)
            ls = np.sqrt(np.add.reduce(d * d, axis=1), out=lengths)
            if lengths is None and np.fmin.reduce(ls, axis=None, initial=np.inf) < 1e-12:
                if self.sphere:
                    self.host.normals_many(pos)
                glint_axes(pos, self.light, EyeAtInfinity(eyes) if self.infinite else eyes, self.media)
            np.divide(d, ls[:, None], out=units)
            light, eye = to_light if self.point else light, eye if self.infinite else to_eye
        if self.etas:  # None for unit etas, whose products would be exact
            light, eye = self.etas[0] * light, self.etas[1] * eye
        np.add(light, eye, out=n_raw)
        ab = rows.take(self.cross_at, 0)
        ab = ab[:6] * ab[6:]
        return (ab[:3] - ab[3:]).T, n_raw.T

    def _slope(self, s: np.ndarray, yz, pos: np.ndarray, run, screen=None) -> tuple[np.ndarray, np.ndarray | None]:
        """RK4 slopes t1[1:] / t1[0] * dx/dtheta in stage columns ``s`` at (x, ``yz``), written to the (len(s), 3)
        buffer ``pos`` (``yz`` None: ``pos`` holds them), ``run`` their x, dx/dtheta and eye rows, and split flags
        (None: no split).  The anchor lengths and |t1_x| fill one (slots + 1, len(s)) ``screen``; where one is below
        ``bound`` a length under 1e-12 raises, then the exact split test runs (a split needs |t1_x| < bound)."""
        x, xdot, eyes = run
        if yz is not None:
            pos[:, 0], pos[:, 1:] = x, yz
        screen = np.full((self.slots + 1, len(pos)), np.inf) if screen is None else screen
        t1 = self._tangents(pos, s, eyes, screen[:-1])[0].T
        ax, split = np.abs(t1[0], out=screen[-1]), None
        if np.fmin.reduce(screen, axis=None, initial=np.inf) < self.bound:
            if (screen[:-1] < 1e-12).any():
                self._tangents(pos, s, eyes)  # raises before its divide
            nt = norm_rows(t1.T)
            split = (nt < 1e-12) | (ax < 1e-12 * nt)
        return (t1[1:] / t1[0] * xdot).T, split

    def reset(self, rows: np.ndarray, c0: np.ndarray, c1: float) -> None:
        """Put ``rows`` back at step 0 from C0 = ``c0`` (one per row), clearing their samples."""
        gap0 = c0
        if isinstance(self.light, DirectionalLight):
            dist = norm_rows(self.q0[rows] - self.ps[rows])
            gap0 = c0 + self.sigma[rows] * dist / math.cos(self.light.alpha)
        hp, nh = self.host.nearest_many(self.q0[rows] + gap0[:, None] * self.up0[rows])
        self.state[rows] = (hp + c1 * nh)[:, 1:]
        self.yz[rows], self.kept[rows] = np.nan, False
        self.yz[rows, 0], self.kept[rows, 0] = self.state[rows], True
        self.at[rows], self.live[rows] = 0, True
        for row in rows:
            self.breaks[row], self.warnings[row] = [], []

    def _cut(self, row, theta, brk: int | None) -> None:
        """Note a split of ``row`` at break index ``brk``, or its truncation if None, in the step from ``theta``."""
        if brk is not None:
            self.breaks[row].append(brk)
        self.warnings[row].append(
            f"degenerate conforming tangent near theta={theta:.6f}; split" if brk is not None
            else f"sightline missed the host at theta={theta + self.h[row]:.6f}; truncated"
        )

    def _sum(self, r: np.ndarray, stop: np.ndarray) -> None:
        """Run the state-free rows ``r`` to their stops with no step loop.  A step's event is the first
        NaN x, split or NaN xdot of its stage columns; its increment comes from the table.  A row ends at a
        truncation, a clean step ending at or past its first column >= ``stop``, or step n - 1.  Its states
        are one running sum, where -0.0 (the exact additive identity) pads splits and steps past the end."""
        k0, n, slope = self.at[r], self.n[r, None], self.table[0]
        k = k0[:, None] + np.arange((n[:, 0] - k0).max())  # each row's steps from its pointer
        c = (r * self.cols)[:, None] + 2 * np.minimum(k, n - 1)  # their first stage columns
        hit = self.events[c], self.events[c + 1], self.events[c + 2]
        ev = np.where(hit[0], hit[0], np.where(hit[1], hit[1], hit[2]))  # 2 truncates, 1 splits
        past = (self.grid[r] < stop[r, None]).sum(1, keepdims=True)  # each row's first column >= stop
        last = ((ev == 2) | (ev == 0) & (k + 1 >= past) | (k == n - 1)).argmax(1)
        k, c, ev = (a[:, : last.max() + 1] for a in (k, c, ev))  # the steps that some row takes
        taken = k <= (k0 + last)[:, None]
        clean, ys, two = taken & (ev == 0), slope[c], 2 * slope[c + 1]
        ys += two  # the increments (h / 6) * (k1 + 2 k2 + 2 k3 + k4), in that order
        ys += two
        ys += slope[c + 2]
        ys *= (self.h[r] / 6.0)[:, None, None]
        ys[~clean] = -0.0
        np.add(self.state[r], ys[:, 0], out=ys[:, 0])  # y0 + inc: the loop's operand order, for NaN payloads
        np.add.accumulate(ys, 1, out=ys)
        i, j = np.nonzero(clean)
        self.yz[r[i], k[i, j] + 1], self.kept[r[i], k[i, j] + 1] = ys[i, j], True
        m = np.arange(len(r))
        self.state[r], self.at[r], self.live[r] = ys[m, last], k0 + last + 1, ev[m, last] != 2
        for i, j in zip(*np.nonzero(taken & (ev > 0))):  # each row's splits and truncation, in step order
            brk = int(self.kept[r[i], : k[i, j] + 1].sum()) if ev[i, j] == 1 else None
            self._cut(r[i], self.grid[r[i], k[i, j]], brk)

    def advance(self, rows: np.ndarray, stop: np.ndarray) -> None:
        """Run the RK4 of ``rows``, each from its own step pointer, in lockstep runs of steps.

        A row stops at its window end, when truncated, or once it holds a kept
        sample at theta >= ``stop[row]`` (no later sample is nearer that theta).
        State-free rows take one running sum of table increments (``_sum``).  In a state-dependent batch a
        run gathers its rows' stage columns once and keeps its rows until the first reaches its window end
        or its first column at or past ``stop``, or a row splits or truncates: the others finish that step.
        A stage divides by its anchor lengths before its screen raises for a short one (quietly: _toolpaths' errstate).
        """
        every = np.arange(len(self.n))
        run = np.isin(every, rows)
        x, xdot = self.x.reshape(-1), self.xdot.reshape(-1)  # flat views
        if self.state_free and self.table is None:
            self.table = np.empty((len(x), 2)), np.empty(len(x), dtype=bool)
            for a in range(0, len(x), _TABLE_COLS):
                s = np.arange(a, min(a + _TABLE_COLS, len(x)))
                slope, split = self._slope(s, 0.0, np.empty((len(s), 3)), (x[s], xdot[s], self.eye_rows[s]))
                self.table[0][s], self.table[1][s] = slope, False if split is None else split
            # and each stage column's event, in the stage loop's test order: NaN x, split, NaN xdot
            self.events = np.where(np.isnan(x), 2, np.where(self.table[1], 1, 2 * np.isnan(xdot))).astype(np.int8)

        def drop(gone: np.ndarray | None, split: bool, slope=None):
            """Take the ``gone`` rows out of step j of this run: a split or a truncation."""
            nonlocal r, k, y0, hk, half, sixth, ks, g, bx, bxdot, beyes, stage, screen, pos, yz
            if gone is None or not gone.any():  # None: a screened stage, where no row splits
                return slope
            self.live[r[gone]] = split
            for i, theta in zip(r[gone], self.grid[r[gone], k[gone] + j]):
                self._cut(i, theta, int(self.kept[i].sum()) + j if split else None)  # plus unwritten run samples
            r, k, y0, hk, half, sixth, g, bx, bxdot, beyes, *ks = (
                v[..., ~gone] for v in (r, k, y0, hk, half, sixth, g, bx, bxdot, beyes, *ks)
            )
            stage, screen = np.empty((3, len(r))), np.empty((self.slots + 1, len(r)))
            pos, yz = stage.T, stage[1:]
            return None if slope is None else slope[..., ~gone]

        while True:
            held = self.kept[every, self.at] & (self.grid[every, self.at] >= stop)
            r = np.flatnonzero(run & self.live & (self.at < self.n) & ~held)
            if not r.size:
                break
            if self.state_free:
                self._sum(r, stop)  # every row runs to its stop
                break
            k, y0 = self.at[r], self.state[r].T.copy()  # k: each row's first step of the run
            past = np.maximum(k + 1, (self.grid[r] < stop[r, None]).sum(1))  # first column >= stop, past k
            near = ((self.horizon[r] - 1 - 2 * k) // 2).min()  # the first step whose stages reach a NaN
            steps = min((np.minimum(self.n[r], past) - k).min(), max(near, 0) + 1)  # a truncation ends the run
            # stage-major, component-major blocks, so a stage reads and writes contiguous rows: the stage columns as
            # flat indices, their x, dx/dtheta and eyes; each step's (y, z); h, h / 2, h / 6; a stage's points, screen
            g = (r * self.cols + 2 * k) + np.arange(2 * steps + 1)[:, None]
            bx, bxdot, beyes = x[g], xdot[g], self.eye_rows[g[:, None], np.arange(3)[:, None]]
            rr, kk, out, hk = r, k, np.empty((steps, 2, len(r))), np.repeat(self.h[None, r], 2, 0)
            half, sixth = 0.5 * hk, hk / 6.0
            stage, screen = np.empty((3, len(r))), np.empty((self.slots + 1, len(r)))
            pos, yz = stage.T, stage[1:]
            for j in range(steps):
                ks = []
                for c in (2 * j, 2 * j + 1, 2 * j + 1, 2 * j + 2):
                    if j >= near:
                        drop(np.isnan(bx[c]), False)
                    if ks:  # the stage state y0 + (h or h / 2) * slope, in place
                        np.add(y0, np.multiply(hk if len(ks) == 3 else half, ks[-1], out=yz), out=yz)
                    else:
                        yz[...] = y0
                    stage[0] = xc = bx[c]
                    slope, split = self._slope(g[c], None, pos, (xc, bxdot[c], beyes[c].T), screen)
                    slope = slope.T if split is None else drop(split, True, slope.T)
                    if j >= near:
                        slope = drop(np.isnan(bxdot[c]), False, slope)
                    ks.append(slope)
                k1, k2, k3, k4 = ks
                y0 = np.add(y0, sixth * (k1 + 2 * k2 + 2 * k3 + k4), out=out[j] if len(r) == len(rr) else None)
                if len(r) < len(rr):  # a row left step j: the run ends with it
                    break
            done = j + (len(r) == len(rr))  # the steps that every row of the run took
            cols = kk[:, None] + np.arange(1, done + 1)
            self.yz[rr[:, None], cols], self.kept[rr[:, None], cols] = out[:done].transpose(2, 0, 1), True
            self.at[rr] = kk + j + 1
            if done:
                self.state[rr] = out[done - 1].T
            self.state[r], self.yz[r, k + j + 1], self.kept[r, k + j + 1] = y0.T, y0.T, True  # step j's rows

    def toolpath(self, row: int, c0: float, c1: float) -> Toolpath:
        k = np.flatnonzero(self.kept[row])
        pos = np.column_stack([self.x[row, 2 * k], self.yz[row, k]])
        t1, axes = (a.copy() for a in self._tangents(pos, row * self.cols + 2 * k))  # C order, and n_raw is a view
        breaks, warnings = tuple(self.breaks[row]), tuple(self.warnings[row])
        return Toolpath(self.grid[row, k], pos, t1, axes, c0, c1, self.host, breaks, warnings)


def _toolpaths(host, stipples, light, view, step, c0, c1=0.0, theta_c=None, media=REFLECTION) -> list:
    """Batch kernel: each stipple's toolpath, or the error that rejects it.

    Rows are independent; each equals its one-row call bit for bit.  With
    ``theta_c``, C0 starts at the closed form and is polished per row (in
    three lockstep rounds over the rows whose gap is still >= 1e-9) until the
    specularity crossing sits at ``theta_c``.  A polish round steps a row only
    until it holds a kept sample at or past ``theta_c``; the next round
    restarts the unconverged rows and resumes the converged ones to their
    window end, and the last round runs to the end.  Row errors are the
    Domain, DegenerateGeometry or SightlineMiss errors; any other error is raised.
    """
    _require_azimuth_view(view)
    ps = np.array([s.p for s in stipples], dtype=float).reshape(-1, 3)
    lo = np.array([max(view.theta_min, s.window[0]) for s in stipples])
    hi = np.array([min(view.theta_max, s.window[1]) for s in stipples])
    sd = np.array([host.signed_distance(p) for p in ps])
    sigma, c0 = np.where(sd > 0, 1.0, -1.0), np.array(c0, dtype=float)
    out: list = [None] * len(stipples)
    with np.errstate(divide="ignore", invalid="ignore"):
        if theta_c is not None and isinstance(light, DirectionalLight):
            qc, why = sightline_host_intersections(view.eyes_at(theta_c), ps, host)
            c0 = -sigma * norm_rows(qc - ps) / math.cos(light.alpha)
            out = [SightlineMissError(w) if w else None for w in why]
        for i in range(len(stipples)):
            if out[i] is None and not lo[i] < hi[i]:
                out[i] = DomainError("stipple window does not intersect the view range")
            elif out[i] is None and step <= 0:
                out[i] = DomainError("step must be positive")
            elif out[i] is None and abs(sd[i]) < 1e-12:
                out[i] = DegenerateGeometryError("stipple lies on the host surface")
        rows = np.flatnonzero([e is None for e in out])
        if not rows.size:
            return out
        batch = _Batch(host, light, media, view, ps[rows], sigma[rows], lo[rows], hi[rows], step)
        todo, c0 = np.flatnonzero([e is None for e in batch.errors]), c0[rows]
        stop = np.full(len(rows), np.inf) if theta_c is None else np.array(theta_c, dtype=float)[rows]
        batch.reset(todo, c0[todo], c1)
        batch.advance(todo, stop)
        for last in (False, False, True) if theta_c is not None else ():
            # the gap of each row's kept sample nearest theta_c
            near = np.where(batch.kept[todo], np.abs(batch.grid[todo] - stop[todo, None]), np.inf)
            k = np.argmin(near, axis=1)
            pos = np.column_stack([batch.x[todo, 2 * k], batch.yz[todo, k]])
            gap = _vertical_gaps(host, view, ps[rows[todo]], batch.grid[todo, k], pos)
            for b in todo[np.isnan(gap)]:
                batch.errors[b] = DegenerateGeometryError(_NO_UP)
            done = todo[np.abs(gap) < 1e-9]
            todo, gap = todo[np.abs(gap) >= 1e-9], gap[np.abs(gap) >= 1e-9]
            c0[todo] -= gap
            batch.reset(todo, c0[todo], c1)
            going = np.concatenate([done, todo])
            stop[going if last else done] = np.inf  # converged rows (all in the last round) run to the end
            batch.advance(going, stop)
        for b, i in enumerate(rows):
            out[i] = batch.errors[b] or batch.toolpath(b, float(c0[b]), c1)
    return out


def integrate_toolpath(host: HostSurface, stipple: Stipple, light: LightSource, view: ViewPath,
                       c0: float = 0.0, c1: float = 0.0, step: float = DEFAULT_STEP) -> Toolpath:
    """RK4 integration of the conforming tangent field along the specularity curve.

    ``x`` is prescribed by the sightline/host intersection; ``(y, z)`` evolve with slope
    ``(t1_y, t1_z)/t1_x`` times dx/dtheta, evaluated at each RK4 stage on contiguous component rows
    with one subtraction, norm and divide for all the points it looks toward, in runs of steps that end
    where a row stops, splits or truncates, each reading its stage inputs from stage-major blocks
    gathered once per run, with one screen for a point on an anchor or a split; where it ignores
    ``(y, z)`` (plane, directional light, infinity view) the states are one running sum of table increments.
    For a directional light the integration constant matches the closed form: the path starts at vertical
    gap ``C0 + sign(p) * sec(alpha) * |spec - p|`` above the specularity point; for point lights the
    particular solution is anchored on the specularity curve at the range start and C0 offsets it.  A
    degenerate tangent splits the path, a sightline miss truncates it.  This is one row of the batch
    kernel that ``make_striping`` runs, bit for bit.
    """
    (path,) = _toolpaths(host, [stipple], light, view, step, [c0], c1)
    if isinstance(path, Exception):
        raise path
    return path


# ---- striping ----


def make_striping(stipples: list[Stipple], light: LightSource, host: HostSurface, view: ViewPath,
                  fab: FabricationParams, step: float = DEFAULT_STEP, media: Media = REFLECTION) -> Striping:
    """Place one toolpath arc per stipple without destructive overlap.

    C0 puts each arc's colinearity point (where it crosses the stipple's
    specularity curve) at the center of the visibility window; the arc keeps
    the samples inside the bar of half-height ``fab.delta`` around that curve,
    scaled linearly by the stipple weight.  Arcs are accepted greedily in
    (priority, weight) order; an arc whose tool-radius-dilated footprint
    touches an accepted one is rejected.  All toolpaths are integrated first,
    as one ``_toolpaths`` batch of rows, each with its own C0 polish and the
    rejection text of integrating its stipple alone; the bar clip's gaps, too,
    come from one batch.  Placement runs on arrays: each arc's segments join
    ``_SegmentGrid``'s sorted cell table, and an overlap names the owner of
    the nearest accepted segment to the arc's first colliding one.  The
    toolpaths follow the glint axis of ``media``.
    """
    _require_azimuth_view(view)
    if not stipples:
        raise DegenerateGeometryError("striping requires at least one stipple")

    order = sorted(stipples, key=lambda s: (-s.priority, -s.weight, s.stipple_id))
    windows = [(max(view.theta_min, s.window[0]), min(view.theta_max, s.window[1])) for s in order]
    centers = [0.5 * (lo + hi) for lo, hi in windows]
    placeable = [i for i, (lo, hi) in enumerate(windows) if lo < hi]
    solved = _toolpaths(
        host, [order[i] for i in placeable], light, view, step, [0.0] * len(placeable),
        theta_c=[centers[i] for i in placeable], media=media,
    )
    paths = dict(zip(placeable, solved))
    found = [i for i in placeable if not isinstance(paths[i], Exception)]
    lens = [len(paths[i].thetas) for i in found]
    gaps = _vertical_gaps(  # one batch over the samples of every toolpath
        host, view, np.repeat(np.reshape([order[i].p for i in found], (-1, 3)), lens, axis=0),
        np.concatenate([[], *(paths[i].thetas for i in found)]),
        np.concatenate([np.empty((0, 3)), *(paths[i].positions for i in found)]),
    )
    gaps = dict(zip(found, np.split(gaps, np.cumsum(lens)[:-1])))
    accepted: list[StripeArc] = []
    rejected: list[tuple[Stipple, str]] = []
    grid = _SegmentGrid(cell=max(4.0 * fab.tool_radius, 2.0))

    for i, stipple in enumerate(order):
        if i not in paths:
            rejected.append((stipple, "visibility window outside the view range"))
            continue
        path = paths[i]
        if isinstance(path, Exception):
            rejected.append((stipple, f"toolpath failed: {path}"))
            continue

        arc = _bar_clip(stipple, path, gaps[i], centers[i], fab.delta)
        if arc is None:
            rejected.append((stipple, "empty arc after bar clipping"))
            continue

        pts = arc.toolpath.positions
        segs = np.stack([pts[:-1], pts[1:]], axis=1)
        hit = grid.first_collision(segs, 2.0 * fab.tool_radius)
        if hit is not None:
            rejected.append((stipple, f"overlaps accepted stipple {hit}"))
            continue
        grid.insert(segs, stipple.stipple_id)
        accepted.append(arc)

    return Striping(tuple(accepted), fab, tuple(rejected))


def _bar_clip(stipple, path: Toolpath, gaps: np.ndarray, theta_c: float, bar_half: float):
    """Keep the contiguous run around theta_c whose ``_vertical_gaps`` lie inside the specularity bar."""
    thetas = path.thetas
    if np.isnan(gaps).any():
        raise DegenerateGeometryError(_NO_UP)
    inside = np.abs(gaps) <= bar_half + 1e-12
    ic = int(np.argmin(np.abs(thetas - theta_c)))
    if not inside[ic]:
        return None
    out = np.flatnonzero(~inside)  # the run is bounded by the nearest outside samples
    lo_run = thetas[out[out < ic].max(initial=-1) + 1]
    hi_run = thetas[out[out > ic].min(initial=len(inside)) - 1]
    w = stipple.weight  # linear weight clip about the window center
    clipped = path.clipped(theta_c - w * (theta_c - lo_run), theta_c + w * (hi_run - theta_c))
    if len(clipped.thetas) < 2:
        return None
    return StripeArc(clipped, float(clipped.thetas[0]), float(clipped.thetas[-1]), stipple, theta_c)


# ---- overlap testing ----


def segment_pair_distance(p1, p2, q1, q2):
    """Row-wise min distance between the 3D segments of (N, 3) end points p1-p2 and q1-q2."""
    d1, d2, r = p2 - p1, q2 - q1, p1 - q1
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)
    denom = a * e - b * b
    s = np.where(denom > 1e-14, (b * f - c * e) / np.where(denom == 0, 1.0, denom), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 1e-14, (b * s + f) / np.where(e == 0, 1.0, e), 0.0)
    t = np.clip(t, 0.0, 1.0)
    # re-clamp s against the clamped t
    s = np.where(a > 1e-14, (b * t - c) / np.where(a == 0, 1.0, a), 0.0)
    s = np.clip(s, 0.0, 1.0)
    closest1 = p1 + s[:, None] * d1
    closest2 = q1 + t[:, None] * d2
    return np.linalg.norm(closest1 - closest2, axis=1)


def polyline_min_distance(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    """Exact min distance between two sampled polylines (brute force over every segment pair)."""
    i, j = np.indices((len(pts_a), len(pts_b)))[:, :-1, :-1].reshape(2, -1)
    return float(segment_pair_distance(pts_a[i], pts_a[i + 1], pts_b[j], pts_b[j + 1]).min(initial=math.inf))


class _SegmentGrid:
    """Accepted arc segments in an xy cell table, for exact near-pair retrieval.

    Rows ``[0, m)`` of ``p1``, ``p2`` (M, 3) and ``owner`` (M,) hold the
    accepted segments in insertion order; the buffers grow by doubling.  The
    cell table ``keys`` / ``rows`` has one (cell key, segment row) entry per
    cell that a segment's xy bounding box touches, sorted by key and then row.
    """

    def __init__(self, cell: float):
        self.cell, self.m = cell, 0
        self.p1, self.p2, self.owner = np.empty((0, 3)), np.empty((0, 3)), np.empty(0, dtype=int)
        self.keys, self.rows = np.empty(0, dtype=np.int64), np.empty(0, dtype=int)

    def _cells(self, segs: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
        """(cell key ``i * 2**32 + j``, segment) pairs, in segment order, of every cell
        (i, j) that each segment's xy box, padded by ``pad``, touches."""
        lo = np.floor((np.minimum(segs[:, 0], segs[:, 1])[:, :2] - pad) / self.cell).astype(np.int64)
        hi = np.floor((np.maximum(segs[:, 0], segs[:, 1])[:, :2] + pad) / self.cell).astype(np.int64)
        span = hi - lo + 1
        count = span[:, 0] * span[:, 1]
        seg = np.repeat(np.arange(len(segs)), count)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)  # cell number within the box
        i, j = lo[seg, 0] + k // span[seg, 1], lo[seg, 1] + k % span[seg, 1]
        return (i << 32) + j, seg

    def insert(self, segs: np.ndarray, owner: int):
        """Append ``segs`` (S, 2, 3) as rows owned by ``owner``; merge their cells into the table."""
        m, self.m = self.m, self.m + len(segs)
        if self.m > len(self.owner):  # double the buffers
            cap = max(self.m, 2 * len(self.owner))
            self.p1, self.p2 = np.resize(self.p1, (cap, 3)), np.resize(self.p2, (cap, 3))
            self.owner = np.resize(self.owner, cap)
        self.p1[m : self.m], self.p2[m : self.m], self.owner[m : self.m] = segs[:, 0], segs[:, 1], owner
        keys, seg = self._cells(segs, 0.0)
        order = np.argsort(keys, kind="stable")  # by key, then row: the new rows follow every old one
        at = np.searchsorted(self.keys, keys[order], side="right")
        self.keys, self.rows = np.insert(self.keys, at, keys[order]), np.insert(self.rows, at, m + seg[order])

    def first_collision(self, segs: np.ndarray, clearance: float):
        """Owner id of the nearest accepted segment (the lowest row on a tie) to the first
        of ``segs`` that has one closer than ``clearance - 1e-12``, else None."""
        keys, seg = self._cells(segs, clearance)
        lo = np.searchsorted(self.keys, keys, side="left")
        n = np.searchsorted(self.keys, keys, side="right") - lo
        if not n.any():
            return None
        at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        q, idx = np.divmod(np.unique(np.repeat(seg, n) * self.m + self.rows[at]), self.m)  # by seg, then row
        d = segment_pair_distance(segs[q, 0], segs[q, 1], self.p1[idx], self.p2[idx])
        hit = np.flatnonzero(d < clearance - 1e-12)
        if not hit.size:
            return None
        first = q == q[hit[0]]
        return int(self.owner[idx[first][np.argmin(d[first])]])


# ---- bit profile ----


def bit_profile_for(source: Striping | tuple[float, float], alpha: float | None = None,
                    angle_step: float = math.radians(0.5), segment: float = 0.1) -> BitProfile:
    """Convex bit meridian covering the angle(N, t2) range of the served arcs.

    ``source`` is either a theta interval (with ``alpha``) evaluated through
    the local-frame tangent formulas, or a Striping whose stored arc samples
    are swept directly.
    """
    if isinstance(source, Striping):
        angles = []
        for tp in (arc.toolpath for arc in source.arcs):
            n_host = tp.host.normals_many(tp.positions)
            t2 = cross_rows(tp.t1, tp.axes)
            nt = norm_rows(t2)[:, None]
            cosang = np.vecdot(t2 / nt, n_host)[~(nt[:, 0] < 1e-12)]
            angles += [math.acos(max(-1.0, min(1.0, abs(c)))) for c in cosang.tolist()]
        if not angles:
            raise DomainError("striping has no arc samples to profile")
        lo, hi = min(angles), max(angles)
    else:
        if alpha is None:
            raise DomainError("alpha is required when profiling a theta range")
        ta, tb = source
        if ta > tb:
            raise DomainError("empty theta range")
        n = max(1, int(math.ceil((tb - ta) / angle_step))) if tb > ta else 1
        sweep = [tangent_normal_angle(ta + (tb - ta) * k / n, alpha) for k in range(n + 1)]
        lo, hi = min(sweep), max(sweep)

    if hi - lo >= 0.5 * math.pi or hi >= 0.5 * math.pi:
        raise UnmachinableProfileError(
            f"required flank angles [{math.degrees(lo):.2f}, {math.degrees(hi):.2f}] deg "
            "cannot be ground into one convex bit"
        )

    m = max(1, int(math.ceil((hi - lo) / angle_step - 1e-12)))
    psis = [lo + (hi - lo) * k / m for k in range(m + 1)] if hi > lo else [lo]

    # build from the tip upward: tangent angle ascends, giving a convex flank
    pts = [(0.0, 0.0)]
    d, r = 0.0, 0.0
    for psi in psis:
        d -= segment * math.cos(psi)
        r += segment * math.sin(psi)
        pts.append((d, r))
    top = pts[-1][0]
    shifted = tuple((depth - top, radius) for depth, radius in reversed(pts))
    return BitProfile(shifted, (lo, hi))


# ---- circular arc approximation ----


def circular_arc_fit(toolpath: Toolpath, theta_range: tuple[float, float] | None = None) -> ArcFit:
    """Least-squares circle through the samples in range; deviation is max
    point-to-circle distance.  Colinear samples flag an infinite radius and
    report deviation from the least-squares line instead."""
    pts = toolpath.positions
    if theta_range is not None:
        pts = pts[toolpath.within(*theta_range)]
    if len(pts) < 3:
        raise DomainError("circle fit requires at least 3 samples")

    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    u_axis, v_axis = vt[0], vt[1]
    uu = centered @ u_axis
    vv = centered @ v_axis

    # colinear: no spread along the second plane axis
    scale = float(svals[0]) if svals[0] > 0 else 1.0
    if svals[1] <= 1e-9 * scale:
        line_dev = float(np.max(np.abs(vv)))
        return ArcFit(center=None, radius=math.inf, max_deviation=line_dev, is_line=True)

    a_mat = np.column_stack([2.0 * uu, 2.0 * vv, np.ones(len(uu))])
    rhs = uu * uu + vv * vv
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    uc, vc, c = sol
    radius = math.sqrt(max(c + uc * uc + vc * vc, 0.0))
    if radius > 1e9 * scale:
        dists = np.abs((uu - uc) * vc - (vv - vc) * uc)  # defensive; effectively a line
        return ArcFit(center=None, radius=math.inf, max_deviation=float(dists.max()), is_line=True)
    center3 = centroid + uc * u_axis + vc * v_axis
    dev = np.abs(np.hypot(uu - uc, vv - vc) - radius)
    return ArcFit(center=center3, radius=float(radius), max_deviation=float(dev.max()))
