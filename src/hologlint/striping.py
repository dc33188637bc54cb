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
from dataclasses import dataclass

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
_TABLE_COLS = 1024  # stage columns per block of a state-free batch's slope table, and rows per block of a sample table
_SUM_CELLS = 4096  # (row, step) cells per block of a state-free batch's running sums


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
    """RK4 state of several toolpath rows, one row per stipple or per half of an anchored stipple.

    A row runs from ``lo`` toward ``hi`` in n = ceil(|hi - lo| / step) steps of signed h = (hi - lo) / n:
    an anchored stipple's backward half starts at its design crossing theta_c and takes negative steps
    to its window start.  The eye and the specularity point's x and dx/dtheta (NaN where a
    sightline missed) are evaluated once, at the 2n + 1 live stage thetas of
    each row.  The columns past a row's last step repeat its last theta, and
    ``_spread`` copies them from its column 2n.  Each row keeps its (y, z)
    state, step pointer and liveness between the runs of an ``advance``.

    A run of steps gathers ``x``, ``xdot`` and ``eye_rows`` (stage eyes, or directions for an infinity view)
    once over its rows' stage columns, stage-major and component-major, so a stage reads contiguous rows.
    A row's NaN horizon is its first stage column with a NaN ``x`` or ``xdot``; steps before the first
    horizon of a run's rows cannot truncate, so they skip the NaN tests, and the run ends by the step
    that reaches it.  A stage's slope comes from ``_slope``: ``_tangents`` takes the points it looks toward
    (sphere centre, point light, finite eye) off its points in one block, and one screen of their lengths and
    |t1_x| against ``bound`` gates the exact tests (|t1| <= (eta1 + eta2)(1 + UNIT_TOL), so a split needs
    |t1_x| < bound; NaN never splits).  Where t1 depends on the stage eye alone (plane, directional light,
    eyes at infinity), the first ``advance`` fills ``table`` with ``_slope``'s slopes and split flags (False
    where screened) over the live stage columns, ``_TABLE_COLS`` at a time (it is row-wise, so the bits agree),
    copies them to the padding columns, and ``_sum`` runs such rows as one running sum of table increments.
    """

    def __init__(self, host, light, media, view, ps, lo, hi, step):
        self.host, self.light, self.media = host, light, media
        self.n = np.maximum(1, np.ceil(np.abs(hi - lo) / step - 1e-12)).astype(int)
        self.h = (hi - lo) / self.n
        live = np.arange(1, self.n.max() + 1) <= self.n[:, None]
        self.grid = np.add.accumulate(np.column_stack([lo, np.where(live, self.h[:, None], 0.0)]), 1)
        stages = np.repeat(self.grid, 2, axis=1)[:, :-1]
        stages[:, 1::2] += np.where(live, 0.5 * self.h[:, None], 0.0)
        self.cols, width = stages.shape[1], 2 * self.n + 1  # a row's live stage columns: the rest repeat column 2n
        thetas = stages[np.arange(self.cols) < width[:, None]]
        eyes = view.eyes_at(thetas)
        self.infinite = isinstance(eyes, EyeAtInfinity)
        self.eye_rows = self._spread(eyes.direction if self.infinite else eyes)
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
            return sightline_host_intersections(eyes, np.repeat(ps, width, axis=0), host)

        q, why = sightlines(eyes)
        self.x = self._spread(q[:, 0]).reshape(stages.shape)  # contiguous, so that its flat view is no copy
        ortho = isinstance(view, InfinityView) and abs(view.elevation) < 1e-12
        if ortho and isinstance(host, PlaneHost) and abs(float(np.dot(host.normal, Z_HAT)) - 1.0) < 1e-12:
            c = self.eye_rows[:, 2].reshape(stages.shape)  # cos(theta), as cos(elevation) = 1
            self.xdot = -(ps[:, 2] - host.origin[2])[:, None] / (c * c)
        else:  # Richardson 5-point stencil
            d = 1e-3
            xs = [sightlines(view.eyes_at(thetas + e))[0][:, 0].copy() for e in (-2 * d, -d, d, 2 * d)]
            self.xdot = self._spread((xs[0] - 8.0 * xs[1] + 8.0 * xs[2] - xs[3]) / (12.0 * d)).reshape(stages.shape)
        bad = np.isnan(self.x) | np.isnan(self.xdot)
        self.horizon = np.where(bad.any(axis=1), bad.argmax(axis=1), self.cols)
        first = np.cumsum(width) - width  # each row's column 0 among the live columns
        self.q0, why, self.up0 = q[first], why[first], np.full((len(ps), 3), np.nan)
        hit = ~np.isnan(self.x[:, 0])
        self.up0[hit] = _host_up(host, self.q0[hit])
        self.errors = [
            SightlineMissError(w) if w else DegenerateGeometryError(_NO_UP) if np.isnan(u[0]) else None
            for w, u in zip(why, self.up0)
        ]
        self.yz = np.full((len(ps), self.grid.shape[1], 2), np.nan)
        self.kept = np.zeros(self.yz.shape[:2], dtype=bool)
        self.breaks, self.warnings = {}, {}  # row -> break indices, warning texts
        self.state = np.full((len(ps), 2), np.nan)  # (y, z) at each row's step pointer
        self.at, self.live = np.zeros(len(ps), dtype=int), np.zeros(len(ps), dtype=bool)

    def _spread(self, live: np.ndarray) -> np.ndarray:
        """Rows of the live stage columns, row by row, spread to every stage column: a row's column 2n repeats."""
        counts = np.ones(len(live), dtype=int)
        counts[np.cumsum(2 * self.n + 1) - 1] += self.cols - 1 - 2 * self.n
        return np.repeat(live, counts, axis=0)

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

    def reset(self, rows: np.ndarray, gap: np.ndarray, c1: float) -> None:
        """Put ``rows`` back at step 0, ``gap`` (one per row) above the specularity point along the host's
        up direction and ``c1`` along its normal, clearing their samples."""
        hp, nh = self.host.nearest_many(self.q0[rows] + gap[:, None] * self.up0[rows])
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

    def _sum(self, rows: np.ndarray) -> None:
        """Run the state-free ``rows``, fresh from ``reset``, to their ends with no step loop, in blocks of about
        ``_SUM_CELLS`` (row, step) cells (rows are independent, so the blocks bound the (rows, steps) temporaries
        and keep the bits).
        A step's event is the first NaN x, split or NaN xdot of its stage columns; its increment comes from the
        table.  A row ends at a truncation or step n - 1.  Its states are one running sum, where -0.0 (the
        exact additive identity) pads splits and steps past the end."""
        slope, size = self.table[0], max(1, _SUM_CELLS // int(self.n[rows].max()))
        for start in range(0, len(rows), size):
            r = rows[start : start + size]
            n = self.n[r, None]
            k = np.arange(n.max())[None, :]  # each row's steps
            c = (r * self.cols)[:, None] + 2 * np.minimum(k, n - 1)  # their first stage columns
            hit = self.events[c], self.events[c + 1], self.events[c + 2]
            ev = np.where(hit[0], hit[0], np.where(hit[1], hit[1], hit[2]))  # 2 truncates, 1 splits
            last = ((ev == 2) | (k == n - 1)).argmax(1)
            k, c, ev = (a[:, : last.max() + 1] for a in (k, c, ev))  # the steps that some row takes
            taken = k <= last[:, None]
            clean, ys, two = taken & (ev == 0), slope[c], 2 * slope[c + 1]
            ys += two  # the increments (h / 6) * (k1 + 2 k2 + 2 k3 + k4), in that order
            ys += two
            ys += slope[c + 2]
            ys *= (self.h[r] / 6.0)[:, None, None]
            ys[~clean] = -0.0
            np.add(self.state[r], ys[:, 0], out=ys[:, 0])  # y0 + inc: the loop's operand order, for NaN payloads
            np.add.accumulate(ys, 1, out=ys)
            i, j = np.nonzero(clean)
            self.yz[r[i], j + 1], self.kept[r[i], j + 1] = ys[i, j], True
            m = np.arange(len(r))
            self.state[r], self.at[r], self.live[r] = ys[m, last], last + 1, ev[m, last] != 2
            for i, j in zip(*np.nonzero(taken & (ev > 0))):  # each row's splits and truncation, in step order
                brk = int(self.kept[r[i], : j + 1].sum()) if ev[i, j] == 1 else None
                self._cut(r[i], self.grid[r[i], j], brk)

    def advance(self, rows: np.ndarray) -> None:
        """Run the RK4 of ``rows`` from ``reset`` to their ends (window end or theta_c's opposite side), in
        lockstep runs of steps; a backward half runs like any row, on its negative h.

        A row stops at its last step or when truncated.
        State-free rows take one running sum of table increments (``_sum``).  In a state-dependent batch a
        run gathers its rows' stage columns once and keeps its rows until the first reaches its last step,
        or a row splits or truncates: the others finish that step, and the next run resumes each row from
        its own step pointer.
        A stage divides by its anchor lengths before its screen raises for a short one (quietly: _table's errstate).
        """
        run = np.isin(np.arange(len(self.n)), rows)
        x, xdot = self.x.reshape(-1), self.xdot.reshape(-1)  # flat views
        if self.state_free and self.table is None:
            live = np.flatnonzero(np.arange(self.cols) <= 2 * self.n[:, None])
            table = np.empty((len(live), 2)), np.empty(len(live), dtype=bool)
            for a in range(0, len(live), _TABLE_COLS):
                s = live[a : a + _TABLE_COLS]
                slope, split = self._slope(s, 0.0, np.empty((len(s), 3)), (x[s], xdot[s], self.eye_rows[s]))
                table[0][a : a + len(s)], table[1][a : a + len(s)] = slope, False if split is None else split
            self.table = self._spread(table[0]), self._spread(table[1])
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
            r = np.flatnonzero(run & self.live & (self.at < self.n))
            if not r.size:
                break
            if self.state_free:
                self._sum(r)  # every row runs to its end
                break
            k, y0 = self.at[r], self.state[r].T.copy()  # k: each row's first step of the run
            near = ((self.horizon[r] - 1 - 2 * k) // 2).min()  # the first step whose stages reach a NaN
            steps = min((self.n[r] - k).min(), max(near, 0) + 1)  # a truncation ends the run
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

    def samples(self, s: int) -> tuple:
        """The kept samples of the ``s`` stipples of forward rows 0 to s - 1 as one table, each stipple's run
        after that of its backward half (row s + b, if the batch has it), reversed and less its first (the
        shared start at theta_c), so that theta ascends: thetas (M,); positions, t1 and axes (M, 3); row
        offsets (s + 1,); each stipple's theta_c row; its breaks and warnings, merged in theta order.  A
        stipple whose rows were not reset has no samples.  ``_tangents`` takes ``_TABLE_COLS`` rows at a time."""
        back = self.grid.shape[1] - 1 if len(self.n) > s else 0  # a stipple's backward columns
        kept = np.concatenate([self.kept[s:, :0:-1], self.kept[:s]], axis=1) if back else self.kept[:s]
        # the kept cells, row-major; each stipple's backward samples and its first row
        flat, m, offsets = np.flatnonzero(kept), kept[:, :back].sum(1), np.r_[0, np.cumsum(kept.sum(1))]
        thetas, pos, t1, axes = np.empty(len(flat)), *np.empty((3, len(flat), 3))
        for a in range(0, len(flat), _TABLE_COLS):
            b, j = np.divmod(flat[a : a + _TABLE_COLS], kept.shape[1])
            r, k, z = b + s * (j < back), np.where(j < back, back - j, j - back), a + len(b)
            thetas[a:z], pos[a:z, 0], pos[a:z, 1:] = self.grid[r, k], self.x[r, 2 * k], self.yz[r, k]
            t1[a:z], axes[a:z] = self._tangents(pos[a:z], r * self.cols + 2 * k)
        # a break is the index of the first sample after a gap: the backward half's, counted from theta_c, flip
        breaks = [tuple([n + 1 - i for i in self.breaks.get(b + s, [])[::-1]] + [n + i for i in self.breaks.get(b, [])])
                  for b, n in enumerate(m.tolist())]
        warnings = [tuple(self.warnings.get(b + s, [])[::-1] + self.warnings.get(b, [])) for b in range(s)]
        return thetas, pos, t1, axes, offsets, offsets[:-1] + m, breaks, warnings


def _table(host, stipples, light, view, step, c0, c1=0.0, theta_c=None, media=REFLECTION) -> tuple:
    """Batch kernel: each stipple's error or None, the stipples that the batch ran, their C0s and
    one table of their toolpaths' samples (``_Batch.samples``; a rejected stipple has none).

    Rows are independent; each equals its one-row call bit for bit.  Without
    ``theta_c`` a row runs from the window start at C0 = ``c0`` (see
    ``integrate_toolpath``).  With ``theta_c`` each stipple takes two rows that
    start on its specularity curve at ``theta_c`` (gap 0, so no C0 is solved):
    a forward half to the window end and a backward half, on negative steps, to
    the window start, joined in the table.  Such a toolpath's C0 is
    the closed form's, ``-sigma |q(theta_c) - p| sec(alpha)``, under a
    directional light and 0 under a point light.  Row errors are the Domain,
    DegenerateGeometry or SightlineMiss errors; any other error is raised.
    """
    _require_azimuth_view(view)
    ps = np.array([s.p for s in stipples], dtype=float).reshape(-1, 3)
    lo = np.array([max(view.theta_min, s.window[0]) for s in stipples])
    hi = np.array([min(view.theta_max, s.window[1]) for s in stipples])
    sd = np.array([host.signed_distance(p) for p in ps])
    sigma, c0 = np.where(sd > 0, 1.0, -1.0), np.array(c0, dtype=float)
    tc = lo if theta_c is None else np.array(theta_c, dtype=float)
    out: list = [None] * len(stipples)
    for i in range(len(stipples)):
        if not lo[i] < hi[i]:
            out[i] = DomainError("stipple window does not intersect the view range")
        elif step <= 0:
            out[i] = DomainError("step must be positive")
        elif abs(sd[i]) < 1e-12:
            out[i] = DegenerateGeometryError("stipple lies on the host surface")
    rows = np.flatnonzero([e is None for e in out])
    if not rows.size:
        return out, rows, c0, (np.empty(0), *np.empty((3, 0, 3)), np.zeros(1, dtype=int), rows, [], [])
    # one row per stipple, or an anchored stipple's forward halves, then its backward halves
    halves = 1 if theta_c is None else 2
    ends = hi[rows] if theta_c is None else np.r_[hi[rows], lo[rows]]
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = _Batch(host, light, media, view, np.tile(ps[rows], (halves, 1)), np.tile(tc[rows], halves), ends,
                       step)
        todo = np.flatnonzero([e is None for e in batch.errors])
        c0 = c0[rows] if theta_c is None else np.zeros(len(rows))
        gap = c0  # anchored rows start on the specularity curve
        if isinstance(light, DirectionalLight):  # the closed form starts C0 + sigma |q - p| sec(alpha) above q
            closed = sigma[rows] * norm_rows(batch.q0[: len(rows)] - ps[rows]) / math.cos(light.alpha)
            if theta_c is None:
                gap = c0 + closed
            else:
                c0 = -closed
        batch.reset(todo, np.tile(gap, halves)[todo], c1)
        batch.advance(todo)
        batch.xdot = batch.table = batch.events = None  # spent: freed, the sample table stays under the batch peak
        for b, i in enumerate(rows):
            out[i] = batch.errors[b]
        return out, rows, c0, batch.samples(len(rows))


def _toolpaths(host, stipples, light, view, step, c0, c1=0.0, theta_c=None, media=REFLECTION) -> list:
    """Each stipple's toolpath, sliced from ``_table``'s sample table, or the error that rejects it."""
    out, rows, c0, (thetas, pos, t1, axes, offsets, _, breaks, warnings) = _table(
        host, stipples, light, view, step, c0, c1, theta_c, media)
    for b, (i, a, z) in enumerate(zip(rows, offsets, offsets[1:])):
        out[i] = out[i] or Toolpath(thetas[a:z], pos[a:z], t1[a:z], axes[a:z], float(c0[b]), c1, host, breaks[b],
                                    warnings[b])
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
    degenerate tangent splits the path, a sightline miss truncates it.  This is one forward row of the
    batch kernel, bit for bit; ``make_striping`` instead anchors each path at its window center, where it
    starts at gap 0 and runs a forward and a backward half.
    """
    (path,) = _toolpaths(host, [stipple], light, view, step, [c0], c1)
    if isinstance(path, Exception):
        raise path
    return path


# ---- striping ----


def make_striping(stipples: list[Stipple], light: LightSource, host: HostSurface, view: ViewPath,
                  fab: FabricationParams, step: float = DEFAULT_STEP, media: Media = REFLECTION) -> Striping:
    """Place one toolpath arc per stipple without destructive overlap.

    Each arc is the integral curve that crosses the stipple's specularity
    curve (its colinearity point) at the center theta_c of the visibility
    window: its toolpath starts there, at gap 0, and runs forward to the
    window end and backward to the window start.  The arc keeps the samples
    inside the bar of half-height ``fab.delta`` around that curve, clipped
    about theta_c linearly by the stipple weight.  Arcs are accepted greedily
    in (priority, weight) order; an arc whose tool-radius-dilated footprint
    touches an accepted one is rejected.  The striping runs on one ragged
    sample table (``_table``): all toolpaths are integrated as one batch of
    forward and backward half-rows, each with the rejection text of
    integrating its stipple alone, and their samples come as one table.  The
    bar clip's gaps come from one batch over that table, the clip is one
    segmented pass (``_bar_clip``) and the table is compacted once with its
    keep mask.  Every clipped arc is then known before the first is placed,
    so ``_near_pairs`` finds the near segment pairs of all arcs in one cell
    join of the kept samples, and the greedy pass (``_overlap``) only reads
    them against the mask of accepted arcs; an overlap names the owner of the
    nearest accepted segment to the arc's first colliding one.  Only the
    accepted arcs become ``StripeArc``s, each on slices of the kept table.
    The toolpaths follow the glint axis of ``media``.
    """
    _require_azimuth_view(view)
    if not stipples:
        raise DegenerateGeometryError("striping requires at least one stipple")

    order = sorted(stipples, key=lambda s: (-s.priority, -s.weight, s.stipple_id))
    windows = [(max(view.theta_min, s.window[0]), min(view.theta_max, s.window[1])) for s in order]
    centers = [0.5 * (lo + hi) for lo, hi in windows]
    placeable = [i for i, (lo, hi) in enumerate(windows) if lo < hi]
    errors, rows, c0, (thetas, pos, t1, axes, offsets, centre, _, warnings) = _table(
        host, [order[i] for i in placeable], light, view, step, [0.0] * len(placeable),
        theta_c=[centers[i] for i in placeable], media=media,
    )
    clips: list = ["visibility window outside the view range"] * len(order)  # each stipple's arc, or its rejection
    for i, e in zip(placeable, errors):
        clips[i] = e and f"toolpath failed: {e}"
    live = np.flatnonzero(np.diff(offsets))  # the batch's stipples with a toolpath: the others have no samples
    at = np.array(placeable, dtype=int)[rows[live]]  # their places in ``order``
    gaps = _vertical_gaps(  # one batch over the table
        host, view, np.repeat(np.reshape([order[i].p for i in at], (-1, 3)), np.diff(offsets)[live], axis=0),
        thetas, pos,
    )
    keep, counts, texts = _bar_clip(thetas, gaps, np.r_[offsets[live], len(thetas)], centre[live],
                                    np.array([order[i].weight for i in at]), fab.delta)
    for i, text in zip(at.tolist(), texts):
        clips[i] = text
    thetas, pos, t1, axes = thetas[keep], pos[keep], t1[keep], axes[keep]  # the kept table
    arcs = np.flatnonzero(counts)  # the clipped arcs, in placement order
    pairs = _near_pairs(pos, counts[arcs] - 1, max(4.0 * fab.tool_radius, 2.0), 2.0 * fab.tool_radius)
    placed = np.zeros(len(arcs), dtype=bool)
    for k, (j, z) in enumerate(zip(arcs, np.cumsum(counts[arcs]))):  # the greedy pass
        owner, i, a, b = _overlap(pairs, k, placed), at[j], z - counts[j], live[j]
        placed[k] = owner is None
        clips[i] = StripeArc(  # an accepted arc holds slices of the kept table
            Toolpath(thetas[a:z], pos[a:z], t1[a:z], axes[a:z], float(c0[b]), 0.0, host, (), warnings[b]),
            float(thetas[a]), float(thetas[z - 1]), order[i], centers[i],
        ) if owner is None else f"overlaps accepted stipple {order[at[arcs[owner]]].stipple_id}"
    return Striping(tuple(clip for clip in clips if isinstance(clip, StripeArc)), fab,
                    tuple((stipple, clip) for stipple, clip in zip(order, clips) if isinstance(clip, str)))


def _bar_clip(thetas, gaps, offsets, centre, weights, bar_half: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Segmented bar clip of a sample table of nonempty toolpaths (row ``offsets``, S + 1): each keeps the
    contiguous run around its theta_c row (``centre``) whose ``_vertical_gaps`` lie inside the specularity
    bar, clipped about theta_c linearly by its weight.  The run is bounded by the nearest outside-bar rows
    either side of theta_c's.  Returns the keep mask of the rows, each toolpath's kept count and the text
    that rejects it (None for an arc); a rejected toolpath keeps no row."""
    if np.isnan(gaps).any():
        raise DegenerateGeometryError(_NO_UP)
    out = np.r_[-1, np.flatnonzero(~(np.abs(gaps) <= bar_half + 1e-12)), len(gaps)]
    lo = np.maximum(offsets[:-1], out[np.searchsorted(out, centre) - 1] + 1)
    hi = np.minimum(offsets[1:], out[np.searchsorted(out, centre, "right")]) - 1
    tc, lens = thetas[centre], np.diff(offsets)
    keep = np.repeat(tc - weights * (tc - thetas[lo]) - 1e-12, lens) <= thetas
    keep &= thetas <= np.repeat(tc + weights * (thetas[hi] - tc) + 1e-12, lens)
    counts = np.diff(np.r_[0, np.cumsum(keep)][offsets])
    texts = ["arc crosses the specularity bar within one step" if one else "empty arc after bar clipping" if n < 2
             else None for one, n in zip((thetas[lo] == thetas[hi]).tolist(), counts.tolist())]
    arc = np.array([text is None for text in texts], dtype=bool)
    return keep & np.repeat(arc, lens), counts * arc, texts


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


_PAIR_ROWS = 4096  # query segments per block of the near-pair join: their padded cells stay a few MiB


def _cells(lo: np.ndarray, hi: np.ndarray, cell: float, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """(cell key ``i * 2**32 + j``, box) pairs, in box order, of every cell (i, j) of side ``cell``
    that each xy box from ``lo`` to ``hi`` ((S, 2) corners), padded by ``pad``, touches."""
    lo = np.floor((lo - pad) / cell).astype(np.int64)
    span = np.floor((hi + pad) / cell).astype(np.int64) - lo + 1
    rows = np.repeat(np.arange(len(lo)), span[:, 0])  # one per (box, i)
    i = np.arange(len(rows)) - np.repeat(np.cumsum(span[:, 0]) - span[:, 0] - lo[:, 0], span[:, 0])
    wide = span[rows, 1]
    box = np.repeat(rows, wide)
    j = np.arange(len(box)) - np.repeat(np.cumsum(wide) - wide - lo[rows, 1], wide)
    return (np.repeat(i, wide) << 32) + j, box


def _near_pairs(pts: np.ndarray, lens, cell: float, clearance: float) -> tuple:
    """Every pair of a segment of an arc and a segment of an earlier arc closer than ``clearance - 1e-12``, as
    (bounds, q, owner, d): the rows q of the near pairs' segments among every arc's (``pts``: the arcs'
    samples, in placement order, ``lens`` segments each) sorted by q and then the other row, the arc
    ``owner`` of that row, their distance ``d``, and each arc's first pair in ``bounds`` (one more entry:
    the end).

    A pair's xy boxes share a cell of side ``cell``, q's padded by ``clearance``.  The unpadded cells of
    every segment form one table sorted by cell and then row; a padded cell of q reads the rows of its
    cell before its arc's first by ``searchsorted``, ``_PAIR_ROWS`` query segments at a time."""
    m, first, owner = int(np.sum(lens)), np.cumsum(lens) - lens, np.repeat(np.arange(len(lens)), lens)
    if not m:
        return np.zeros(len(lens) + 1, dtype=int), owner, owner, np.empty(0)
    a = np.arange(m) + owner  # each segment's first sample
    lo, hi = np.minimum(pts[a, :2], pts[a + 1, :2]), np.maximum(pts[a, :2], pts[a + 1, :2])  # xy boxes
    keys, rows = _cells(lo, hi, cell, 0.0)
    order = np.argsort(keys, kind="stable")  # stable: by key, then row
    keys, rows = keys[order], rows[order]
    group = np.cumsum(np.r_[False, keys[1:] != keys[:-1]])  # each entry's cell, numbered
    table = group * m + rows  # ascending
    found = []
    for b in range(0, m, _PAIR_ROWS):
        key, seg = _cells(lo[b : b + _PAIR_ROWS], hi[b : b + _PAIR_ROWS], cell, clearance)
        seg += b
        start = np.searchsorted(keys, key)
        at = np.minimum(start, len(keys) - 1)
        n = np.where(keys[at] == key, np.searchsorted(table, group[at] * m + first[owner[seg]]) - start, 0)
        at = np.repeat(start - (np.cumsum(n) - n), n) + np.arange(n.sum())
        pair = np.repeat(seg, n) * m + rows[at]
        pair.sort(kind="stable")  # as the table's argsort: the default kind pages in SIMD sort code on first use
        q, t = np.divmod(pair[np.diff(pair, prepend=-1) != 0], m)  # each pair once
        d = segment_pair_distance(pts[a[q]], pts[a[q] + 1], pts[a[t]], pts[a[t] + 1])
        near = d < clearance - 1e-12  # an owner's pair is always near: no other pair decides a verdict
        found.append((q[near], t[near], d[near]))
    q, t, d = (np.concatenate(v) for v in zip(*found))
    return np.searchsorted(q, np.r_[first, m]), q, owner[t], d


def _overlap(pairs: tuple, k: int, accepted: np.ndarray) -> int | None:
    """The arc that arc ``k`` overlaps among the ``accepted`` (a mask of arcs), from its ``_near_pairs``: the
    arc of the nearest accepted segment to k's first segment with one near, the lowest row on a tie; else None."""
    bounds, q, owner, d = pairs
    live = bounds[k] + np.flatnonzero(accepted[owner[bounds[k] : bounds[k + 1]]])
    if not live.size:
        return None
    first = live[q[live] == q[live[0]]]
    return int(owner[first[np.argmin(d[first])]])


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
