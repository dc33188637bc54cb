"""Root searches against their former loops, kept below verbatim as oracles.

Every site that routes through the shared bisection kernel,
``geom.bisect_brackets`` (normal-field hosts, toolpath arcs), returns the
roots of its former hand-written loop bit for bit; the normal-field scan of
many sightlines at once equals its former one-sightline scan, and so do the searches
that bisect a whole sweep at once: ``find_glints`` over a list of eyes,
``render_glintmap``, the stereo pairs of ``simulate`` and check (2) of
``verify_suites`` equal their former per-eye calls, kept below as well, as
does the hashed ``_dedupe``.  Foliation members, conics and Cartesian ovals,
are solved in closed form (``line_roots``), so at those sites the former loops
are tolerance oracles: positions agree to 1e-12 surface scales wherever the
former search reached the root, and an oval's emptiness test decides as the
former axis scan did wherever that scan's window held the oval.
"""

import contextlib
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import cli, exporters, simulate
from hologlint.errors import DomainError, HologlintError, RootFindError
from hologlint.foliation import (
    CartesianOval,
    ConicKind,
    ConicSurface,
    _frame_about,
    _surface_scale,
    classify_member,
    member_through,
    radial_roots,
)
from hologlint.geom import (
    Eye,
    EyeAtInfinity,
    TangentBasis,
    Vec3,
    bisect_brackets,
    colinearity_residual,
    cross_rows,
    deficient_bases,
    glint_axes,
    glint_axis,
    norm,
    norm_rows,
    normality_residuals,
    root_cells,
    unit,
    unit_rows,
    view_direction,
    view_directions,
    vec3,
    view_thetas,
)
from hologlint import geom
from hologlint.ridging import _member_height
from hologlint.simulate import (
    Glint, RasterParams, _first, _pixels, _sightline_roots, _toolpath_glints, _worst, find_glints,
)
from hologlint.striping import Toolpath

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SOLVE_TOL, MAX_NEWTON = 1e-12, 64  # the former oval Newton loop's step tolerance and step cap


# ---- reference oracles: the loops each site ran before the kernel ----


def _old_sightline_roots(surface, eye, p, n_grid: int = 4096):
    """Intersections of the (eye, p) sightline with a member's implicit surface."""
    if isinstance(eye, EyeAtInfinity):
        origin, direction = p, eye.direction
    else:
        origin, direction = np.asarray(eye, dtype=float), unit(p - eye)
    scale = max(norm(surface.focus_p - origin), abs(getattr(surface, "k", 1.0)), 1.0)
    ts = np.linspace(-6.0 * scale, 6.0 * scale, n_grid)
    pts = origin + ts[:, None] * direction
    vals = surface.implicit_many(pts)
    roots = []
    for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if not (np.isfinite(fa) and np.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0:
            lo, hi, flo = float(a), float(b), float(fa)
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                fm = surface.implicit(origin + mid * direction)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return origin, direction, roots


def _old_line_params_field(origin, direction, host, t_lo: float, t_hi: float) -> list[float]:
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
    return roots


def _line_params_field(
    origin: Vec3, direction: Vec3, host: hg.NormalFieldHost, t_lo: float, t_hi: float
) -> list[float]:
    # Sample the signed distance along the line, bracket sign changes, bisect.
    def f(ts: np.ndarray) -> np.ndarray:
        return np.array([host.signed_distance(origin + t * direction) for t in ts])

    ts = np.linspace(t_lo, t_hi, 513)
    vals = f(ts)
    cells = root_cells(vals)
    k = np.flatnonzero(cells & (vals[:-1] != 0.0))
    lo, hi = bisect_brackets(f, ts[k], ts[k + 1], vals[k], 80)
    roots = ts.copy()
    roots[k] = 0.5 * (lo + hi)
    # a grid point where the distance is exactly 0, the last one included, is a root as it is
    return roots[np.append(cells, vals[-1] == 0.0)].tolist()


def _old_field_intersections(eye, p, host):
    """``sightline_host_intersections`` on a normal-field host as it was: one scan per sightline."""
    at_infinity = isinstance(eye, EyeAtInfinity)
    if at_infinity:
        direction = eye.direction
        origin = np.broadcast_to(p, direction.shape)
    else:
        origin, direction = eye, unit_rows(p - eye)
    miss = np.full(len(direction), "", dtype=object)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.full((len(direction), 513), np.nan)
        for i, (o, d, pi) in enumerate(zip(origin, direction, np.broadcast_to(p, origin.shape))):
            scale = 10.0 * (1.0 + norm(pi - host.nearest(pi)[0]))
            span = (-scale, scale) if at_infinity else (0.0, 2.0 * norm(pi - o) + scale)
            ts = _line_params_field(o, d, host, *span)
            roots[i, : len(ts)] = ts
        miss[np.isnan(roots[:, 0])] = "sightline misses the normal-field host in the sampled range"
        if at_infinity:
            t = np.max(np.where(np.isnan(roots), -np.inf, roots), axis=1)
        else:
            t = np.min(np.where(roots > 1e-12, roots, np.inf), axis=1)
            miss[(miss == "") & np.isinf(t)] = "host surface lies behind the eye on this sightline"
        q = origin + t[:, None] * direction
    q[miss != ""] = np.nan
    return q, miss


def _old_has_zero_set(i, p, eta1, eta2, k, sign) -> bool:
    """``CartesianOval``'s former emptiness test: scan the implicit function along the focal axis."""
    axis = p - i
    span = norm(axis) + 1.0
    u, v, _ = _frame_about(axis if norm(axis) > 1e-12 else np.array([0.0, 0.0, 1.0]))
    ts = np.linspace(-4.0 * span, 4.0 * span, 2048)
    pts = i + ts[:, None] * u + 1e-9 * v
    vals = eta1 * np.linalg.norm(pts - i, axis=1) + sign * eta2 * np.linalg.norm(pts - p, axis=1) - k
    return bool(np.any(vals <= 0) and np.any(vals >= 0))


def _old_bisect_height(f, limit: float) -> float:
    """Zero of ``f`` (evaluated on arrays of t) nearest 0 within [-limit, limit]."""
    ts = np.linspace(-limit, limit, 257)
    vals = f(ts)
    k = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    if not k.size:
        raise RootFindError("foliation member does not cross the shell line")
    lo, hi, flo = ts[k], ts[k + 1], vals[k]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0
        lo, hi, flo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
    t = 0.5 * (lo + hi)
    return float(t[np.argmin(np.abs(t))])


def _eval_along(surface, origin, dirs: np.ndarray, ts: np.ndarray):
    return surface.implicit_many(origin + ts[:, None] * dirs)


def _old_radial_roots(surface, origin, dirs: np.ndarray, nearest: bool) -> np.ndarray:
    dirs = np.asarray(dirs, dtype=float)
    n = dirs.shape[0]
    scale = max(_surface_scale(surface), 1.0)

    if nearest:
        # march outward on a geometric grid and take the first sign change
        grid = scale * np.geomspace(1e-7, 8.0, 160)
        lo = np.full(n, np.nan)
        hi = np.full(n, np.nan)
        prev_t = np.full(n, grid[0] * 1e-3)
        prev_f = _eval_along(surface, origin, dirs, prev_t)
        done = np.zeros(n, dtype=bool)
        for t in grid:
            tt = np.full(n, t)
            f = _eval_along(surface, origin, dirs, tt)
            bracket = (~done) & (prev_f * f <= 0) & np.isfinite(f)
            lo[bracket] = prev_t[bracket]
            hi[bracket] = t
            done |= bracket
            prev_t, prev_f = tt, f
            if done.all():
                break
    else:
        t0 = np.full(n, 1e-9 * scale)
        f0 = _eval_along(surface, origin, dirs, t0)
        lo = t0.copy()
        hi = np.full(n, np.nan)
        t = np.full(n, 0.125 * scale)
        done = np.zeros(n, dtype=bool)
        for _ in range(96):
            f = _eval_along(surface, origin, dirs, t)
            bracket = (~done) & (f0 * f <= 0)
            hi[bracket] = t[bracket]
            done |= bracket
            lo = np.where(done, lo, t)
            t = t * 2.0
            if done.all() or t[0] > 1e9 * scale:
                break

    if np.isnan(hi).any():
        raise DomainError("ray does not intersect the surface (parameter outside the sheet)")

    flo = _eval_along(surface, origin, dirs, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _eval_along(surface, origin, dirs, mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)

    origins = np.broadcast_to(np.asarray(origin, dtype=float), dirs.shape)
    t = 0.5 * (lo + hi)
    live = np.arange(n)  # rays whose last Newton step was not below SOLVE_TOL
    for _ in range(MAX_NEWTON):
        d, t_old = dirs[live], t[live]
        pts = origins[live] + t_old[:, None] * d
        f = surface.implicit_many(pts)
        g = surface.gradient_many(pts)
        df = g[:, 0] * d[:, 0] + g[:, 1] * d[:, 1] + g[:, 2] * d[:, 2]
        step = np.where(np.abs(df) > 1e-14, f / np.where(df == 0, 1.0, df), 0.0)
        t[live] = np.clip(t_old - step, lo[live], hi[live])
        live = live[~(np.abs(t[live] - t_old) < SOLVE_TOL)]
        if not live.size:
            break
    pts = origin + t[:, None] * dirs
    if np.max(np.abs(surface.implicit_many(pts))) > 1e-7 * scale:
        raise RootFindError("radial root refinement failed to converge")
    return pts


def _old_toolpath_glints(path, design_p, eye, light, media, stipple_p) -> list[Glint]:
    """Roots of <t1, axis> = 0 along the arc: the groove glints where its
    direction is perpendicular to the required reflection axis."""
    p_ref = stipple_p if stipple_p is not None else design_p
    if len(path.thetas) < 2:
        return []

    def along(k: int, u: float) -> tuple[Vec3, Vec3]:
        """Position and t1 interpolated at fraction u of segment k."""
        pos, t1 = path.positions, path.t1
        return pos[k] * (1 - u) + pos[k + 1] * u, t1[k] * (1 - u) + t1[k + 1] * u

    def alignment(pos: Vec3, t1: Vec3) -> float:
        return float(np.dot(unit(t1), unit(glint_axis(pos, light, eye, media))))

    vals = np.vecdot(unit_rows(path.t1), unit_rows(glint_axes(path.positions, light, eye, media)))
    found: list[Glint] = []
    for k in np.flatnonzero(root_cells(vals)):
        u, lo, hi, flo = 0.0, 0.0, 1.0, vals[k]
        # kept scalar: an arc rarely holds a sign change and never two, where arrays cost more
        if flo != 0.0:  # a sign change: bisect it
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = alignment(*along(k, mid))
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            u = 0.5 * (lo + hi)
        pos, t1 = along(k, u)
        theta = float(path.thetas[k] * (1 - u) + path.thetas[k + 1] * u)
        axis = unit(glint_axis(pos, light, eye, media))
        res = abs(float(np.dot(unit(t1), axis)))
        col = (
            float(np.hypot(*colinearity_residual(pos, p_ref, eye)))
            if p_ref is not None
            else None
        )
        found.append(Glint(eye, pos, axis, res, col, "imaging", theta=theta))
    return found


def _solve(fn):
    """A result, or the name of the error type it raised."""
    try:
        return fn()
    except HologlintError as exc:
        return type(exc).__name__


def _outcome(fn):
    """A result as exact bytes (or an exact list), or the error type it raised."""
    out = _solve(fn)
    return out.tobytes() if isinstance(out, np.ndarray) else out


# ---- strategies ----


@st.composite
def members(draw):
    """A foliation member of a wall scene: ellipsoid, hyperboloid, paraboloid,
    sphere or (refracting, point light) Cartesian oval.  Directional lights
    shine from (0, cos a, sin a), as every scene's do."""
    p = hg.vec3(draw(st.floats(-20, 20)), draw(st.floats(-20, 20)), 0.0)
    p[2] = draw(st.floats(2.0, 20.0)) * draw(st.sampled_from([-1.0, 1.0]))
    kind = draw(st.sampled_from(["directional", "point", "sphere", "oval"]))
    if kind == "directional":
        light = hg.DirectionalLight(draw(st.floats(0.2, 1.4)))
    elif kind == "sphere":
        light = hg.PointLight(p.copy())
    else:
        light = hg.PointLight(
            hg.vec3(draw(st.floats(-30, 30)), draw(st.floats(-30, 30)), draw(st.floats(25, 60)))
        )
    media = hg.Media(1.0, draw(st.floats(1.2, 1.6))) if kind == "oval" else hg.REFLECTION
    s0 = hg.vec3(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)), 0.0)
    host_kind = classify_member(p, hg.PlaneHost(), light)
    try:
        return member_through(
            p, light, s0, media,
            kind=host_kind if host_kind in (ConicKind.ELLIPSOID, ConicKind.HYPERBOLOID) else None,
        )
    except HologlintError:
        assume(False)


@st.composite
def eyes(draw):
    theta = draw(st.floats(-0.8, 0.8))
    if draw(st.booleans()):
        return EyeAtInfinity(view_direction(theta, draw(st.floats(-0.3, 0.3))))
    r = draw(st.floats(60.0, 600.0))
    return hg.vec3(r * math.sin(theta), draw(st.floats(-30, 30)), r * math.cos(theta))


@st.composite
def toolpath_arcs(draw):
    """1-4 (toolpath, design point) arcs of 2-30 samples, now and then with a
    1-sample arc among them.  The samples wander near the wall z = 0 and t1
    turns in it, so <t1, axis> changes sign inside arcs and between them."""
    sizes = [draw(st.integers(2, 30)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 3)) == 0:
        sizes.insert(draw(st.integers(0, len(sizes))), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arcs = []
    for n in sizes:
        thetas = np.sort(rng.uniform(-0.8, 0.8, n))
        steps = rng.normal(0.0, 1.0, (n, 3)) * [1.0, 1.0, 0.05]
        positions = rng.uniform(-20.0, 20.0, 3) * [1.0, 1.0, 0.0] + np.cumsum(steps, axis=0)
        phi = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.normal(0.0, 0.6, n))
        t1 = rng.uniform(0.5, 2.0) * np.column_stack([np.cos(phi), np.sin(phi), rng.normal(0.0, 0.1, n)])
        design_p = hg.vec3(*rng.uniform(-20.0, 20.0, 2), rng.uniform(-15.0, 15.0))
        path = Toolpath(thetas, positions, t1, t1.copy(), 0.0, 0.0, hg.PlaneHost())
        arcs.append((path, draw(st.sampled_from([None, design_p]))))
    return arcs


@st.composite
def lights(draw):
    if draw(st.booleans()):
        return hg.DirectionalLight(draw(st.floats(0.2, 1.4)))
    return hg.PointLight(
        hg.vec3(draw(st.floats(-30, 30)), draw(st.floats(-30, 30)), draw(st.floats(25, 60)))
    )


# ---- simulate._sightline_roots ----


@SETTINGS
@given(members(), eyes())
def test_sightline_roots_match_the_scalar_loop(member, eye):
    new = _sightline_roots(member, eye, member.focus_p)
    old = _old_sightline_roots(member, eye, member.focus_p)
    assert new[0].tobytes() == old[0].tobytes() and new[1].tobytes() == old[1].tobytes()
    scale = max(norm(member.focus_p - new[0]), abs(member.k), 1.0)
    assert len(new[2]) == len(old[2])
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(new[2], old[2]))


# ---- normal-field hosts: the row-wise scan against the per-sightline oracle ----


def _wavy_host(amp, freq, tilt):
    def query(p):
        z = amp * np.sin(freq * p[:, 0]) + tilt * p[:, 1]
        n = np.column_stack([-amp * freq * np.cos(freq * p[:, 0]), np.full(len(p), -tilt), np.ones(len(p))])
        return np.column_stack([p[:, 0], p[:, 1], z]), unit_rows(n)

    return hg.NormalFieldHost(query)


@SETTINGS
@given(
    st.floats(0.1, 3.0), st.floats(0.05, 1.5), st.floats(-0.3, 0.3),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.05, 1)),
    st.floats(5.0, 60.0),
)
def test_line_params_field_matches_the_scalar_loop(amp, freq, tilt, origin, direction, span):
    host = _wavy_host(amp, freq, tilt)
    origin, direction = np.array(origin), unit(np.array(direction))
    new = _line_params_field(origin, direction, host, -span, span)
    assert new == _old_line_params_field(origin, direction, host, -span, span)


@pytest.mark.parametrize("t_hi", [2.0, 1.0])  # zero at the middle grid point, at the last one
def test_line_params_field_keeps_exact_grid_zeros(t_hi):
    host = _wavy_host(0.0, 1.0, 0.0)  # the plane z = 0
    origin, direction = hg.vec3(0.0, 0.0, -1.0), hg.vec3(0.0, 0.0, 1.0)
    new = _line_params_field(origin, direction, host, t_hi - 2.0, t_hi)
    assert new == _old_line_params_field(origin, direction, host, t_hi - 2.0, t_hi) == [1.0]


def _field_outcome(q, miss):
    return q.tobytes(), miss.tolist()


def _scan_rows(eye, p):
    """The origins, directions and points that ``sightline_host_intersections`` scans."""
    if isinstance(eye, EyeAtInfinity):
        return np.broadcast_to(p, eye.direction.shape), eye.direction, p
    return eye, unit_rows(p - eye), p


@SETTINGS
@given(
    st.floats(0.0, 3.0), st.floats(0.05, 1.5), st.floats(-0.3, 0.3),
    st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=6),
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)), min_size=6, max_size=6),
    st.floats(5.0, 200.0), st.booleans(), st.booleans(), st.integers(1, 7),
)
def test_field_sightlines_equal_the_per_sightline_oracle(amp, freq, tilt, ps, offsets, reach, at_infinity,
                                                         one_p, block):
    # rows of finite eyes at p + reach * offset, or eyes at infinity along the offsets; one p or one per
    # row; scanned in blocks of 1 to 7 rows
    host, ps = _wavy_host(amp, freq, tilt), np.array(ps)
    offsets = np.array(offsets)[: len(ps)]
    assume((norm_rows(offsets) > 1e-3).all())
    p = ps[0] if one_p else ps
    eye = EyeAtInfinity(unit_rows(offsets)) if at_infinity else p + reach * offsets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_SCAN_ROWS", block)
        new = _field_outcome(*geom.sightline_host_intersections(eye, p, host))
    assert new == _field_outcome(*_old_field_intersections(eye, p, host))


def test_field_sightlines_keep_exact_grid_zeros():
    # on the plane z = 0: a zero at grid point 280 of an eye at infinity, at the last grid point of
    # another (t = 20 on the grid from -20 to 20), and at grid point 128 of a finite eye (t = 11 of 44)
    host = _wavy_host(0.0, 1.0, 0.0)
    far = EyeAtInfinity(np.array([[0.0, 0.0, 1.0], [0.9, 0.0, 0.05]]))
    far_ps = np.array([[0.0, 0.0, -15.0], [0.0, 0.0, -1.0]])
    near, near_p = np.array([[0.0, 0.0, 11.0]]), np.array([[0.0, 0.0, -1.0]])
    for eye, p, grid in [(far, far_ps, [280, 512]), (near, near_p, [128])]:
        roots = geom._field_roots(host, *_scan_rows(eye, p), isinstance(eye, EyeAtInfinity))
        assert [np.flatnonzero(~np.isnan(r)).tolist() for r in roots] == [[g] for g in grid]
        q, miss = _old_field_intersections(eye, p, host)
        assert _field_outcome(*geom.sightline_host_intersections(eye, p, host)) == _field_outcome(q, miss)
        assert (q[:, 2] == 0.0).all()


def _field_rows(rng, n, at_infinity):
    """n sightlines toward the wavy host: eyes 100 mm above points near it, or at infinity."""
    p = rng.uniform(-10.0, 10.0, (n, 3))
    toward = unit_rows(rng.uniform(-1.0, 1.0, (n, 3)) + [0.0, 0.0, 1.5])
    return (EyeAtInfinity(toward) if at_infinity else p + 100.0 * toward), p


@pytest.mark.parametrize("at_infinity", [False, True])
def test_field_sightlines_of_three_blocks_equal_the_oracle(at_infinity):
    host, (eye, p) = _wavy_host(1.5, 0.3, 0.1), _field_rows(np.random.default_rng(3), 20, at_infinity)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_SCAN_ROWS", 8)  # blocks of 8, 8 and 4 rows
        new = _field_outcome(*geom.sightline_host_intersections(eye, p, host))
    assert new == _field_outcome(*_old_field_intersections(eye, p, host))
    assert "" in new[1]


def test_field_scan_memory_is_per_block():
    # a three-block scan may peak above a one-block scan only by the rows it adds: its output
    # (q and miss) and the row-wise arrays of its setup and tail, far below a 513-column table
    host, rows = _wavy_host(1.5, 0.3, 0.1), geom._SCAN_ROWS
    eye, p = _field_rows(np.random.default_rng(4), 3 * rows, False)

    def peak(n):
        tracemalloc.start()
        try:
            q, miss = geom.sightline_host_intersections(eye[:n], p[:n], host)
            return tracemalloc.get_traced_memory()[1], _field_outcome(q, miss)
        finally:
            tracemalloc.stop()

    (one, one_rows), (three, three_rows) = peak(rows), peak(3 * rows)
    assert three - one <= 256 * 2 * rows
    assert three_rows[0][: len(one_rows[0])] == one_rows[0] and three_rows[1][:rows] == one_rows[1]


# ---- geom.bisect_brackets ----


def _all_steps(f, lo, hi, flo, iterations):
    """The kernel as it was before it stopped at a fixed point: every step runs."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0
        lo, hi, flo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
    return lo, hi


def test_bisect_brackets_stops_once_no_bracket_moves():
    calls = []

    def f(ts):
        calls.append(len(ts))
        return np.tanh(ts - np.array([0.3, -0.7, 2.0 / 3.0]))

    lo, hi = np.array([0.0, -1.0, 0.5]), np.array([1.0, 0.5, 4.0])
    flo = f(lo)
    calls.clear()
    new = bisect_brackets(f, lo, hi, flo, 200)
    # one step past the last one that moves a bracket: far fewer than 200
    assert 50 <= len(calls) <= 70
    old = _all_steps(f, lo, hi, flo, 200)
    assert new[0].tobytes() == old[0].tobytes() and new[1].tobytes() == old[1].tobytes()


# ---- ridging._member_height ----


@SETTINGS
@given(members(), st.floats(0.0, 12.0), st.floats(-math.pi, math.pi), st.floats(0.2, 25.0))
def test_bisect_height_matches_the_array_loop(member, r, phi, limit):
    assume(isinstance(member, ConicSurface))
    x = hg.vec3(r * math.cos(phi), r * math.sin(phi), 0.0)
    n = hg.vec3(0.0, 0.0, 1.0)

    def f(ts):
        return member.implicit_many(x + ts[:, None] * n)

    new = _outcome(lambda: _member_height(member, x, n, limit))
    old = _outcome(lambda: _old_bisect_height(f, limit))
    if isinstance(old, str):
        assert new == old
    else:
        assert abs(new - old) <= 1e-12 * max(_surface_scale(member), 1.0)


@pytest.mark.parametrize("k", [128, 40, 256])  # a crossing at t = 0, at an inner grid point, at the end
def test_bisect_height_keeps_exact_grid_zeros(k):
    limit, radius = 3.0, 50.0
    root = np.linspace(-limit, limit, 257)[k]
    x, n = hg.vec3(0.3, -0.2, 0.0), hg.vec3(0.0, 0.0, 1.0)
    center = x + (root - radius) * n  # a sphere member whose near crossing is at t = root
    member = ConicSurface(ConicKind.SPHERE, center, center, 2.0 * radius, 0.0)

    def f(ts):
        return member.implicit_many(x + ts[:, None] * n)

    assert abs(_member_height(member, x, n, limit) - root) <= 1e-12 * radius
    old = _outcome(lambda: _old_bisect_height(f, limit))
    if k == 256:  # the former grid saw no sign change at its last point
        assert old == "RootFindError"
    else:
        assert abs(old - root) <= 1e-12 * radius


# ---- foliation.CartesianOval's emptiness test ----


@SETTINGS
@pytest.mark.parametrize("sign", [1, -1])
@given(
    st.tuples(st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30)),
    st.one_of(st.just(None), st.tuples(st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30))),
    st.floats(1.0, 2.0), st.sampled_from([0.0, 0.05, 0.3, -0.05, -0.3]), st.floats(-3.0, 3.0),
)
def test_oval_emptiness_is_exact_and_matches_the_former_scan_where_it_could_see(sign, i, p, eta1, gap, u):
    # the oval is empty exactly when k is outside the range of eta1|x - i| + sign*eta2|x - p|:
    # [min(eta1, eta2) d, inf) for sign +1; [-eta2 d, eta1 d] for -1, the larger index's end at infinity
    i, p, eta2 = np.array(i), np.array(i if p is None else p), eta1 + gap
    d = norm(p - i)
    k = u * max(d, 1.0) * max(eta1, eta2)
    if sign > 0:
        lo, hi = min(eta1, eta2) * d, math.inf
    else:
        lo, hi = (-eta2 * d if gap <= 0 else -math.inf), (eta1 * d if gap >= 0 else math.inf)
    assume(min(abs(k - lo), abs(k - hi)) > 1e-9 * max(d, 1.0))  # not on the edge, where the oval is a point
    new = _solve(lambda: CartesianOval(i, p, eta1, eta2, k, sign))
    assert isinstance(new, CartesianOval) == (lo <= k <= hi)
    old = _old_has_zero_set(i, p, eta1, eta2, k, sign)
    if old != isinstance(new, CartesianOval):
        # the scan missed a real oval: one outside its window, or one thinner than its step
        assert not old
        span = d + 1.0
        axis = (p - i) / d if d > 1e-12 else np.array([0.0, 0.0, 1.0])
        t = new.line_roots(i, axis.reshape(1, 3))[0]
        t = t[np.isfinite(t)]
        assert (np.abs(t) > 4.0 * span).all() or np.ptp(t) < 8.0 * span / 2047


# ---- foliation.radial_roots ----


@SETTINGS
@given(
    members(),
    st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.0, 1.2)), min_size=1, max_size=6),
)
def test_radial_roots_match_the_old_loop(member, angles):
    u, v, w = member.axis_frame()
    dirs = np.array([math.cos(b) * u + math.sin(b) * (math.cos(a) * v + math.sin(a) * w) for a, b in angles])
    p = member.focus_p
    scale = max(_surface_scale(member), 1.0)
    for d in dirs.reshape(-1, 1, 3):
        new = _solve(lambda: radial_roots(member, p, d))
        old = _solve(lambda: _old_radial_roots(member, p, d, True))
        if isinstance(old, np.ndarray):  # the former sweep reached the root: t <= 8 scales
            assert np.abs(new - old).max() <= 1e-12 * scale
        elif isinstance(new, np.ndarray):
            # a root past the former sweep is a hit now; the former doubling search
            # reached it, and both points satisfy the implicit function
            t = norm(new[0] - p)
            assert old == "DomainError" and t > 8.0 * scale
            far = _old_radial_roots(member, p, d, False)
            for pt in (new, far):
                assert abs(member.implicit(pt[0])) <= 1e-12 * max(scale, t)
        else:
            assert new == old


@pytest.mark.parametrize("latitude", [0.3, 0.05])
def test_radial_roots_reach_past_the_former_sweep(latitude):
    # a real-image paraboloid opens away from the light: near its axis the root
    # k / (1 - cos(latitude)) lies past the former sweep's 8 scales, which missed it
    light = hg.DirectionalLight(math.pi / 2)
    member = member_through(hg.vec3(0.0, 0.0, 10.0), light, hg.vec3(3.0, 0.0, 0.0))
    assert member.paraboloid_sign == -1
    u, v, _ = member.axis_frame()
    d = (math.cos(latitude) * u + math.sin(latitude) * v).reshape(1, 3)
    t = member.k / (1.0 - math.cos(latitude))
    assert t > 8.0 * member.k
    with pytest.raises(DomainError):
        _old_radial_roots(member, member.focus_p, d, True)
    pt = radial_roots(member, member.focus_p, d)[0]
    assert np.abs(pt - (member.focus_p + t * d[0])).max() <= 1e-12 * t


# ---- simulate._toolpath_glints ----


def _glint_bits(g: Glint, eye):
    """A glint as exact bytes and hex floats, and whether it holds ``eye`` itself."""
    col = None if g.colinearity is None else g.colinearity.hex()
    return (
        g.eye is eye, g.point.tobytes(), g.normal.tobytes(), g.normality.hex(), col, g.tag,
        g.theta.hex(),
    )


def _per_arc_glints(arcs, eye, light, media, stipple_p):
    """The oracle's glints of each arc in turn, concatenated."""
    return [g for path, p in arcs for g in _old_toolpath_glints(path, p, eye, light, media, stipple_p)]


def _arc_rows_glints(arcs, eye, light, media, stipple_p):
    """``_toolpath_glints`` on (toolpath, reference point, eye) rows of one eye, concatenated."""
    rows = [(path, p if stipple_p is None else stipple_p, eye) for path, p in arcs]
    return [g for found in _toolpath_glints(rows, light, media) for g in found]


@SETTINGS
@given(
    toolpath_arcs(), eyes(), lights(), st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5)]),
    st.sampled_from([None, hg.vec3(1.5, -2.0, -8.0)]),
)
def test_toolpath_glints_match_the_per_arc_loop(arcs, eye, light, media, stipple_p):
    new = _solve(lambda: [_glint_bits(g, eye) for g in _arc_rows_glints(arcs, eye, light, media, stipple_p)])
    old = _solve(lambda: [_glint_bits(g, eye) for g in _per_arc_glints(arcs, eye, light, media, stipple_p)])
    assert new == old


_UP, _ACROSS, _DOWN = (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.5, -2.0, 0.0)


def _flat_arc(t1_rows):
    """An arc of unit steps along x whose tangents are ``t1_rows``; from the eye at
    +z under a light at +y, <t1, axis> is positive, zero and negative for
    ``_UP``, ``_ACROSS`` and ``_DOWN``."""
    t1 = np.array(t1_rows)
    positions = np.column_stack([np.arange(len(t1)), np.zeros((len(t1), 2))])
    return Toolpath(np.linspace(0.0, 0.1, len(t1)), positions, t1, t1, 0.0, 0.0, hg.PlaneHost()), None


@pytest.mark.parametrize(
    "tangents, thetas",
    [
        ([[_UP, _ACROSS, _DOWN]], [0.05]),  # a zero at an inner sample is a root at u = 0
        ([[_UP, _UP], [_DOWN, _DOWN]], []),  # a sign change from one arc to the next is none
        ([[_UP, _ACROSS], [_DOWN, _DOWN]], []),  # nor is a zero at an arc's last sample
        ([[_UP, _DOWN], [_DOWN, _UP]], [0.1 / 3, 0.2 / 3]),  # one bisected root in each arc
    ],
)
def test_toolpath_glints_keep_zero_samples_and_stay_within_arcs(tangents, thetas):
    arcs = [_flat_arc(rows) for rows in tangents]
    eye, light = EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0)), hg.DirectionalLight(0.0)
    new = _arc_rows_glints(arcs, eye, light, hg.REFLECTION, None)
    assert [g.theta for g in new] == pytest.approx(thetas, abs=1e-15)
    old = _per_arc_glints(arcs, eye, light, hg.REFLECTION, None)
    assert [_glint_bits(g, eye) for g in new] == [_glint_bits(g, eye) for g in old]
    if tangents[0][1] == _ACROSS and thetas:
        assert new[0].theta == 0.05 and new[0].point.tobytes() == arcs[0][0].positions[1].tobytes()


# ---- many eyes in one _toolpath_glints call ----


@st.composite
def eye_lists(draw):
    """1-8 eyes at azimuths in [-0.8, 0.8], all at infinity or all finite, now and then one
    azimuth twice (two eyes, equal but not the same object)."""
    thetas = draw(st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=8))
    if draw(st.booleans()):
        thetas.insert(draw(st.integers(0, len(thetas))), thetas[0])
    phi, r = draw(st.sampled_from([0.0, 0.2])), draw(st.floats(60.0, 600.0))
    if draw(st.booleans()):
        return [EyeAtInfinity(view_direction(t, phi)) for t in thetas]
    return [r * view_direction(t, phi) for t in thetas]


MEDIA = st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5)])


def _rows_bits(rows, per_row):
    """Each (toolpath, reference point, eye) row's glints as ``_glint_bits``."""
    return [[_glint_bits(g, eye) for g in glints] for (_, _, eye), glints in zip(rows, per_row)]


def _search_matches_the_oracle(rows, light, media):
    new = _solve(lambda: _rows_bits(rows, _toolpath_glints(rows, light, media)))
    old = _solve(lambda: _rows_bits(rows, [_old_toolpath_glints(*row, light, media, None) for row in rows]))
    assert new == old


@SETTINGS
@given(toolpath_arcs(), eye_lists(), lights(), MEDIA)
def test_toolpath_glints_of_a_sweep_match_the_per_arc_loop(arcs, eyes, light, media):
    # every eye over the same arcs, as render_glintmap searches them
    _search_matches_the_oracle([(path, p, eye) for eye in eyes for path, p in arcs], light, media)


@SETTINGS
@given(toolpath_arcs(), eye_lists(), lights(), MEDIA)
def test_toolpath_glints_of_stereo_pairs_match_the_per_arc_loop(arcs, eyes, light, media):
    # each arc twice, one eye each time, as simulate's stereo pairs search them
    pairs = [(path, p, eyes[(2 * a + side) % len(eyes)]) for a, (path, p) in enumerate(arcs) for side in (0, 1)]
    _search_matches_the_oracle(pairs, light, media)


def test_mixed_eyes_and_a_zero_tangent_raise_in_search_order():
    """Finite eyes and eyes at infinity in one search raise DomainError, and a zero-length t1
    raises DegenerateGeometryError; the runs of arcs that share an eye are taken in order,
    and the error met first is raised."""
    good, zero = _flat_arc([_UP, _DOWN])[0], _flat_arc([_UP, (0.0, 0.0, 0.0)])[0]
    near, near2, far = hg.vec3(0.0, 0.0, 100.0), hg.vec3(1.0, 0.0, 100.0), EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0))
    cases = [
        ([(zero, None, near), (good, None, far)], "DegenerateGeometryError"),
        ([(good, None, near), (zero, None, far)], "DomainError"),
        ([(good, None, near), (zero, None, near2), (good, None, far)], "DegenerateGeometryError"),
        ([(good, None, far), (good, None, near), (zero, None, far)], "DomainError"),
        ([(good, None, far), (zero, None, far), (good, None, near)], "DegenerateGeometryError"),
        ([(good, None, near), (zero, None, far), (zero, None, near2)], "DomainError"),
    ]
    for light in (hg.DirectionalLight(0.0), hg.PointLight(hg.vec3(0.0, 50.0, 60.0))):
        assert [_solve(lambda: _toolpath_glints(rows, light, hg.REFLECTION)) for rows, _ in cases] == [
            error for _, error in cases
        ]


# ---- render_glintmap's projection ----

_EDGE_Z = (-16.0, -1e-9, math.nextafter(-1e-9, -1.0), 0.0, 5.0, -40.0)  # depths from an eye at z = 0


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(-80, 80), st.integers(-80, 80), st.sampled_from(_EDGE_Z)), max_size=12),
    st.sampled_from([EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0)), EyeAtInfinity(view_direction(0.3, 0.2)),
                     hg.vec3(0.0, 0.0, 0.0), hg.vec3(3.0, -2.0, 0.0)]),
    st.integers(1, 17), st.integers(1, 17), st.sampled_from([0.25, 0.5, 1.0, 0.3]), st.sampled_from([None, 16.0, 7]),
)
def test_pixels_match_the_former_projection(points, eye, width, height, mm_per_px, focal):
    """x and y on an eighth-millimeter lattice put u or v exactly at .5 (half to even) now and
    then; points fall off the raster, and a finite eye's depth is exactly 1e-9 (clipped) or
    just over it."""
    raster = RasterParams(width, height, mm_per_px, focal)
    pts = np.reshape([(x / 8, y / 8, z) for x, y, z in points], (-1, 3))
    u, v = _pixels(pts, eye, raster)
    for point, pu, pv in zip(pts, u.tolist(), v.tolist()):
        iu, iv, ok = _old_project(point, eye, raster)
        if math.isnan(pu) or math.isnan(pv):  # not in front of the eye: the former answer was (0, 0, False)
            assert (iu, iv, ok) == (0, 0, False) and math.isnan(pu) and math.isnan(pv)
        else:
            assert (pu, pv) == (iu, iv) and (0 <= pu < width and 0 <= pv < height) == ok


def test_pixels_round_half_to_even_and_clip_at_the_depth_bound():
    raster = RasterParams(8, 8, 1.0, 1.0)
    pts = np.array([[0.5, -1.5, -1.0], [2.5, 0.5, -1.0], [0.0, 0.0, -1e-9], [0.0, 0.0, math.nextafter(-1e-9, -1.0)]])
    u, v = _pixels(pts, hg.vec3(0.0, 0.0, 0.0), raster)
    assert u[:2].tolist() == [4.0, 6.0] and v[:2].tolist() == [6.0, 4.0]
    assert math.isnan(u[2]) and math.isnan(v[2]) and not math.isnan(u[3])
    assert [_old_project(p, hg.vec3(0.0, 0.0, 0.0), raster) for p in pts[:3]] == [(4, 6, True), (6, 4, True), (0, 0, False)]


def test_pixels_of_a_non_finite_point_are_off_the_raster():
    """The former projection raised on ``int(round(nan))``; a NaN pixel lies on no raster."""
    with pytest.raises(ValueError):
        _old_project(hg.vec3(math.nan, 0.0, 0.0), EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0)), RasterParams())
    u, v = _pixels(np.array([[math.nan, 0.0, 0.0]]), EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0)), RasterParams())
    assert math.isnan(u[0]) and not 0 <= u[0] < 128


# ---- one glint search per sweep: find_glints over a list of eyes ----


def _old_dedupe(glints, radius):
    kept = []
    for g in glints:
        if all(norm(g.point - k.point) > radius for k in kept if k.tag == g.tag):
            kept.append(g)
    return kept


def _old_find_glints(
    target, eye, light, media=hg.REFLECTION, tol=1e-9, stipple_p=None, dedupe_radius=0.2,
    seed_angle=math.radians(5.0),
):
    """The former one-eye search, its toolpath arcs through the per-arc oracle."""
    if isinstance(target, (list, tuple)):
        found = []
        for t in target:
            found.extend(
                _old_find_glints(t, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle)
            )
        return _old_dedupe(found, dedupe_radius)
    if isinstance(target, (ConicSurface, CartesianOval)):
        p_ref = stipple_p if stipple_p is not None else target.focus_p
        return simulate._sightline_glint(target, target.focus_p, eye, light, media, tol, p_ref)
    if isinstance(target, hg.RidgedSurface):
        return simulate._ridging_glints(target, eye, light, media, tol, stipple_p, dedupe_radius)
    if isinstance(target, hg.Mesh):
        return simulate._mesh_glints(target, eye, light, media, tol, stipple_p, dedupe_radius, seed_angle)
    if isinstance(target, Toolpath):
        return _per_arc_glints([(target, None)], eye, light, media, stipple_p)
    if isinstance(target, hg.StripeArc):
        return _per_arc_glints([(target.toolpath, target.stipple.p)], eye, light, media, stipple_p)
    if isinstance(target, hg.Striping):
        arcs = [(arc.toolpath, arc.stipple.p) for arc in target.arcs]
        return _old_dedupe(_per_arc_glints(arcs, eye, light, media, stipple_p), dedupe_radius)
    raise DomainError(f"cannot search for glints on {type(target).__name__}")


def _old_project(point: Vec3, eye: Eye, raster: RasterParams) -> tuple[int, int, bool]:
    w, h = raster.width, raster.height
    if isinstance(eye, EyeAtInfinity):
        d = eye.direction
        up = vec3(0.0, 1.0, 0.0)
        right = np.cross(up, d)
        right = right / max(norm(right), 1e-12)
        u = float(np.dot(point, right)) / raster.mm_per_px + 0.5 * w
        v = 0.5 * h - float(np.dot(point, up)) / raster.mm_per_px
    else:
        focal = raster.focal_px if raster.focal_px is not None else float(h)
        depth = float(eye[2] - point[2])
        if depth <= 1e-9:
            return 0, 0, False
        u = 0.5 * w + focal * float(point[0] - eye[0]) / depth
        v = 0.5 * h - focal * float(point[1] - eye[1]) / depth
    iu, iv = int(round(u)), int(round(v))
    return iu, iv, (0 <= iu < w and 0 <= iv < h)


def _old_render_glintmap(targets, light, view, media=hg.REFLECTION, raster=simulate.RasterParams(),
                         tol=1e-6, dedupe_radius=0.2):
    """Sweep the view path, splat per-view glints into grayscale frames."""
    thetas = view_thetas(view)
    all_glints = []
    frames = []
    warnings = []
    clipped = False
    for theta in thetas:
        eye = view.eye_at(float(theta))
        glints = _old_find_glints(list(targets), eye, light, media, tol=tol, dedupe_radius=dedupe_radius)
        all_glints.append(tuple(glints))
        frame = np.zeros((raster.height, raster.width), dtype=np.uint8)
        for g in glints:
            if g.tag != "imaging":
                continue
            u, v, ok = _old_project(g.point, eye, raster)
            if not ok:
                clipped = True
                continue
            frame[v, u] = 255
        frames.append(frame)
    if clipped:
        warnings.append("some glints projected outside the raster (projection clipped)")
    return simulate.GlintMap(
        thetas=tuple(float(t) for t in thetas),
        glints=tuple(all_glints),
        frames=tuple(frames),
        width=raster.width,
        height=raster.height,
        warnings=tuple(warnings),
    )


def _old_cmd_simulate(args) -> int:
    """The former ``cmd_simulate``: two one-eye searches per arc for the stereo pairs."""
    if not math.isfinite(args.baseline_deg):
        raise HologlintError(f"stereo baseline must be finite, got {args.baseline_deg}")
    if not 0.0 < abs(args.baseline_deg) < 180.0:
        raise HologlintError(f"stereo baseline must be 0 < |deg| < 180, got {args.baseline_deg}")
    spec = cli._load(args.scene)
    media, light, host, view, fab, stipples, striping = cli._make_striping(spec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    glintmap = _old_render_glintmap((striping,), light, view, media, simulate.RasterParams(args.raster, args.raster))
    paths = exporters.export_frames(glintmap, outdir)
    print(f"wrote {len(paths)} frames to {outdir}")

    half = math.radians(args.baseline_deg) / 2.0
    report = ["stipple_id,theta_c_deg,px,py,pz,err_mm,residual_mm"]
    for arc in striping.arcs:
        s = arc.stipple
        theta_c = 0.5 * (arc.theta_a + arc.theta_b)
        eyes = (view.eye_at(theta_c - half), view.eye_at(theta_c + half))
        gl = _old_find_glints(arc, eyes[0], light, media, dedupe_radius=fab.tool_radius)
        gr = _old_find_glints(arc, eyes[1], light, media, dedupe_radius=fab.tool_radius)
        if not gl or not gr:
            report.append(f"{s.stipple_id},{math.degrees(theta_c):.4f},nan,nan,nan,nan,nan")
            continue
        tri = simulate.triangulate(gl[0], gr[0], eyes)
        if tri.point is None:
            report.append(f"{s.stipple_id},{math.degrees(theta_c):.4f},inf,inf,inf,inf,inf")
            continue
        err = float(np.linalg.norm(tri.point - s.p))
        report.append(
            f"{s.stipple_id},{math.degrees(theta_c):.4f},"
            f"{tri.point[0]:.6f},{tri.point[1]:.6f},{tri.point[2]:.6f},"
            f"{err:.6f},{tri.residual:.6f}"
        )
    (outdir / "triangulation.csv").write_text("\n".join(report) + "\n", encoding="utf-8")
    print(f"wrote {outdir / 'triangulation.csv'}")
    return 0


def _old_arc_suite(arc, light, host, view, media, fab, failures):
    """(1) and (3) at each sample of ``arc`` in turn, then (2) at its design crossing;
    returns the arc's largest (1), (2) and (3) residuals."""
    sid, path = arc.stipple.stipple_id, arc.toolpath
    t2 = cross_rows(path.t1, path.axes)
    n = _first(deficient_bases(path.t1, t2))  # the samples before a deficient one are checked first
    thetas, pos, t1, axis = path.thetas[:n], path.positions[:n], path.t1[:n], path.axes[:n]
    r = normality_residuals(t1, t2[:n], pos, light, view.eyes_at(thetas), media)
    scale = np.sqrt(np.vecdot(t1, t1)) * np.sqrt(np.vecdot(axis, axis))
    normality = _worst(r) / np.where(scale > 1.0, scale, 1.0)
    dist = norm_rows(pos - host.nearest_many(pos)[0])
    if n < len(t2):
        TangentBasis(path.t1[n], t2[n], path.positions[n])  # raises the deficient-basis error
    for j in np.flatnonzero((normality > 1e-9) | (dist > fab.delta + 1e-9)):
        at = f"stipple {sid}, theta={math.degrees(thetas[j]):.4f} deg"
        if normality[j] > 1e-9:
            failures.append(
                f"(1) normality violated at {at}, sample={pos[j]}, residual={tuple(r[j].tolist())}"
            )
        if dist[j] > fab.delta + 1e-9:
            failures.append(
                f"(3) conformance violated at {at}, distance={dist[j]:.6g} mm > delta={fab.delta}"
            )

    glints = _old_find_glints(arc, view.eye_at(arc.theta_c), light, media, dedupe_radius=fab.tool_radius)
    if not glints:
        failures.append(f"(2) colinearity: no glint at window center for stipple {sid}")
    elif glints[0].colinearity > fab.tool_radius:
        failures.append(
            f"(2) colinearity violated at stipple {sid}: residual "
            f"{glints[0].colinearity:.6g} mm > tool radius at sample={glints[0].point}"
        )
    colinearity = glints[0].colinearity if glints else 0.0
    return np.max(normality, initial=0.0), colinearity, np.max(dist, initial=0.0)


def _old_verify_suites(striping, members, light, host, view, media=hg.REFLECTION):
    failures = []
    arcs = [_old_arc_suite(arc, light, host, view, media, striping.fab, failures) for arc in striping.arcs]
    rng = np.random.default_rng(7)
    conics = [(s, m) for s, m in members if not isinstance(m, CartesianOval)]
    on_members = [simulate._member_suite(s, m, light, media, rng, failures) for s, m in conics]
    worst = np.max(np.reshape(arcs, (-1, 3)), axis=0, initial=0.0).tolist()
    return simulate.Verification(tuple(failures), *worst, max(on_members, default=0.0))


_SCENE = "[light]\ntype = directional\nalpha_deg = 30\n\n[stipples]\n0 0 -10 1.0 -45 45 0\n"


@st.composite
def stripings(draw):
    """A striping of ``toolpath_arcs``' arcs, each stippled at its design point or a
    drawn one, with axes across its tangents (every basis sound) and now and then a
    tangent along x: from an eye at azimuth 0 under a directional light, <t1, axis>
    is exactly 0 there.  ``theta_c`` is now and then exactly 0."""
    arcs = []
    for i, (path, p) in enumerate(draw(toolpath_arcs())):
        t1 = path.t1.copy()
        if draw(st.booleans()):
            j = draw(st.integers(0, len(t1) - 1))
            t1[j] = (draw(st.floats(0.5, 2.0)), 0.0, 0.0)
        axes = np.tile([0.0, 0.0, 1.0], (len(t1), 1))
        path = Toolpath(path.thetas, path.positions, t1, axes, 0.0, 0.0, hg.PlaneHost())
        if p is None:
            p = hg.vec3(draw(st.floats(-20, 20)), draw(st.floats(-20, 20)), draw(st.floats(-15, -2)))
        a, b = float(path.thetas[0]), float(path.thetas[-1])
        theta_c = draw(st.sampled_from([0.0, 0.5 * (a + b), a]))
        arcs.append(hg.StripeArc(path, a, b, hg.Stipple(p, stipple_id=i), theta_c))
    fab = hg.FabricationParams(
        delta=draw(st.sampled_from([0.05, 0.5])), pitch=2.0, tool_radius=draw(st.sampled_from([0.2, 2.0]))
    )
    return hg.Striping(tuple(arcs), fab)


@st.composite
def views(draw):
    """An infinity or orbit view over [-0.8, 0.8]; an odd sample count holds azimuth 0."""
    samples = draw(st.integers(1, 9))
    elevation = draw(st.sampled_from([0.0, 0.2]))
    if draw(st.booleans()):
        return hg.InfinityView(-0.8, 0.8, samples, elevation)
    center = hg.vec3(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)), 0.0)
    return hg.OrbitView(center, draw(st.floats(60.0, 600.0)), elevation, -0.8, 0.8, samples)


def _glint_rows(per_eye, eyes):
    return [[_glint_bits(g, eye) for g in glints] for glints, eye in zip(per_eye, eyes)]


@SETTINGS
@given(
    stripings(), views(), lights(), st.integers(0, 5), st.sampled_from(["striping", "tuple", "paired"]),
    st.sampled_from([None, hg.vec3(1.5, -2.0, -8.0)]), st.sampled_from([0.2, 2.0]),
)
def test_find_glints_over_eyes_matches_per_eye_calls(striping, view, light, n_eyes, form, stipple_p, radius):
    eyes = [view.eye_at(float(t)) for t in np.linspace(-0.8, 0.8, n_eyes)]
    target = {
        "paired": [striping.arcs[k % len(striping.arcs)] for k in range(n_eyes)],
        "striping": striping,
        "tuple": (striping, striping.arcs[0].toolpath),  # a Striping deduped twice, a bare toolpath
    }[form]
    per_eye = target if form == "paired" else [target] * n_eyes
    kw = {"stipple_p": stipple_p, "dedupe_radius": radius}
    new = _solve(lambda: _glint_rows(find_glints(target, eyes, light, **kw), eyes))
    old = _solve(lambda: _glint_rows([_old_find_glints(t, e, light, **kw) for t, e in zip(per_eye, eyes)], eyes))
    assert new == old


@SETTINGS
@given(stripings(), views(), lights(), st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5)]))
def test_render_glintmap_matches_the_per_eye_loop(striping, view, light, media):
    raster = simulate.RasterParams(16, 16, mm_per_px=2.0)
    new = _solve(lambda: simulate.render_glintmap((striping,), light, view, media, raster))
    old = _solve(lambda: _old_render_glintmap((striping,), light, view, media, raster))
    if isinstance(old, str):
        assert new == old
        return
    eyes = [view.eye_at(t) for t in new.thetas]
    assert new.thetas == old.thetas and new.warnings == old.warnings
    assert _glint_rows(new.glints, eyes) == _glint_rows(old.glints, eyes)
    assert [f.tobytes() for f in new.frames] == [f.tobytes() for f in old.frames]


@SETTINGS
@given(stripings(), views(), lights(), st.sampled_from(["one-striping", "two-targets", "one-toolpath"]))
def test_nested_targets_dedupe_once_per_eye_and_match_the_per_eye_loop(striping, view, light, form):
    # a container of one Striping is searched as that Striping: each eye's glints are deduped once,
    # as a deduped list dedupes to itself; two targets take the Striping's dedupe and their own, and a
    # container of one Toolpath keeps its dedupe, which can drop glints
    targets = {
        "one-striping": (striping,),
        "two-targets": (striping, striping.arcs[-1].toolpath),
        "one-toolpath": [striping.arcs[0].toolpath],
    }[form]
    raster, dedupe, calls = simulate.RasterParams(16, 16, mm_per_px=2.0), simulate._dedupe, []

    def spy(glints, radius):
        calls.append(len(glints))
        return dedupe(glints, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_dedupe", spy)
        new = _solve(lambda: simulate.render_glintmap(targets, light, view, hg.REFLECTION, raster))
    old = _solve(lambda: _old_render_glintmap(targets, light, view, hg.REFLECTION, raster))
    if isinstance(old, str):
        assert new == old
        return
    eyes = [view.eye_at(t) for t in new.thetas]
    assert new.thetas == old.thetas and new.warnings == old.warnings
    assert _glint_rows(new.glints, eyes) == _glint_rows(old.glints, eyes)
    assert [f.tobytes() for f in new.frames] == [f.tobytes() for f in old.frames]
    assert len(calls) == len(eyes) * (2 if form == "two-targets" else 1)


@SETTINGS
@given(stripings(), views(), lights())
def test_verify_colinearity_matches_the_per_arc_calls(striping, view, light):
    host = hg.PlaneHost()
    new = _solve(lambda: simulate.verify_suites(striping, [], light, host, view))
    old = _solve(lambda: _old_verify_suites(striping, [], light, host, view))
    assert new == old


@SETTINGS
@given(stripings(), views(), lights(), st.sampled_from([3.0, -7.5, 40.0]))
def test_simulate_matches_the_per_arc_stereo_calls(striping, view, light, baseline):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        scene = Path(tmp) / "scene.txt"
        scene.write_text(_SCENE, encoding="utf-8")
        made = (hg.REFLECTION, light, hg.PlaneHost(), view, striping.fab, [], striping)
        mp.setattr(cli, "_make_striping", lambda spec: made)
        runs = []
        for name, command in (("new", cli.cmd_simulate), ("old", _old_cmd_simulate)):
            mp.setattr(cli, "cmd_simulate", command)
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                    contextlib.redirect_stderr(io.StringIO()) as stderr:
                rc = cli.cli_dispatch(["simulate", str(scene), "-o", str(out), "--raster", "8",
                                       "--baseline-deg", str(baseline)])
            files = {f.name: f.read_bytes() for f in sorted(out.glob("*"))} if out.is_dir() else {}
            runs.append((rc, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 or runs[0][2].startswith("error: ")
    assert runs[0][0] != 0 or len(runs[0][3]) == len(view_thetas(view)) + 1


def _rows_of_every_eye(per_eye):
    return [[(g.point.tobytes(), g.normal.tobytes(), g.normality, g.colinearity, g.tag) for g in glints]
            for glints in per_eye]


def _other_targets():
    light = hg.PointLight(hg.vec3(0, 0, 20))
    rs = hg.build_ridging(hg.vec3(0, 0, 5), light, hg.PlaneHost(), hg.FabricationParams(0.5, 2.0))
    member = member_through(hg.vec3(0, 0, 5), light, hg.vec3(3, 0, 0))
    return light, {"ridging": rs, "mesh": hg.mesh_ridging(rs, hg.FabricationParams(0.5, 2.0)), "member": member}


@pytest.mark.parametrize("kind", ["ridging", "mesh", "member"])
def test_find_glints_over_eyes_matches_per_eye_calls_on_other_targets(kind):
    light, targets = _other_targets()
    target = targets[kind]
    eyes = [300.0 * view_direction(math.radians(d)) + (0.0, 30.0, 0.0) for d in (-4.0, -1.0, 0.0, 2.5)]
    per_eye = [find_glints(target, e, light) for e in eyes]
    assert any(per_eye)
    assert _rows_of_every_eye(find_glints(target, eyes, light)) == _rows_of_every_eye(per_eye)
    assert _rows_of_every_eye(find_glints([target] * len(eyes), eyes, light)) == _rows_of_every_eye(per_eye)
    assert find_glints(target, [], light) == [] and find_glints([], [], light) == []


def test_find_glints_refuses_unpaired_or_mixed_eyes():
    striping, _ = _real_striping()
    eyes = [view_direction(0.0) * 300.0, EyeAtInfinity(view_direction(0.1))]
    with pytest.raises(DomainError):
        find_glints(list(striping.arcs) * 3, eyes, hg.DirectionalLight(0.5))
    with pytest.raises(DomainError):
        find_glints(striping, eyes, hg.DirectionalLight(0.5))


def _real_striping():
    view = hg.InfinityView(-math.radians(30), math.radians(30), 9)
    stipples = [hg.Stipple(hg.vec3(x, 0.0, -10.0), stipple_id=i) for i, x in enumerate((-15.0, 0.0, 15.0))]
    fab = hg.FabricationParams(delta=0.5, pitch=2.0, tool_radius=0.2)
    return hg.make_striping(stipples, hg.DirectionalLight(0.5), hg.PlaneHost(), view, fab), view


def test_each_command_bisects_once_per_sweep(monkeypatch, tmp_path):
    calls = []
    kernel = simulate.bisect_brackets

    def counted(f, lo, *rest):
        calls.append(len(lo))
        return kernel(f, lo, *rest)

    monkeypatch.setattr(simulate, "bisect_brackets", counted)
    striping, view = _real_striping()
    light = hg.DirectionalLight(0.5)
    assert len(striping.arcs) == 3
    glintmap = simulate.render_glintmap((striping,), light, view)
    assert len(calls) == 1 and calls[0] >= len(view_thetas(view))  # every eye's brackets
    assert sum(map(len, glintmap.glints)) >= len(view_thetas(view))
    calls.clear()
    simulate.verify_suites(striping, [], light, hg.PlaneHost(), view)
    assert len(calls) == 1  # one sweep: each arc's crossing at theta_c is an exact zero sample
    calls.clear()
    scene = tmp_path / "scene.txt"
    scene.write_text(_SCENE, encoding="utf-8")
    made = (hg.REFLECTION, light, hg.PlaneHost(), view, striping.fab, [], striping)
    monkeypatch.setattr(cli, "_make_striping", lambda spec: made)
    assert cli.cli_dispatch(["simulate", str(scene), "-o", str(tmp_path / "out"), "--raster", "8"]) == 0
    assert len(calls) == 2 and calls[1] == 6  # the sweep, then both eyes of every arc


# ---- simulate._dedupe ----


@st.composite
def glint_sets(draw):
    """Glints on a quarter-unit lattice, so that distances equal the radius now and then;
    in half the sets a far or non-finite coordinate turns up at times."""
    coords = st.integers(-12, 12).map(lambda k: 0.25 * k)
    specials = [None] * 12 + ([math.nan, math.inf, 1e12] if draw(st.booleans()) else [])
    out = []
    for _ in range(draw(st.integers(0, 40))):
        point = hg.vec3(draw(coords), draw(coords), draw(coords))
        special = draw(st.sampled_from(specials))
        if special is not None:
            point[draw(st.integers(0, 2))] = special
        tag = draw(st.sampled_from(["imaging", "backface-stray"]))
        out.append(Glint(None, point, point, 0.0, None, tag))
    return out


@settings(max_examples=300, deadline=None)
@given(glint_sets(), st.sampled_from([-1.0, 0.0, 1e-3, 0.2, 0.25, 0.5, 1.0, 3.0, math.inf, math.nan]))
def test_dedupe_matches_the_pairwise_loop(glints, radius):
    with np.errstate(invalid="ignore"):  # inf - inf
        assert [id(g) for g in simulate._dedupe(glints, radius)] == [id(g) for g in _old_dedupe(glints, radius)]


def test_dedupe_returns_short_lists_as_the_pairwise_loop():
    """No glint, one glint (a non-finite one too), and two that lie within the radius, of one
    tag or of two."""
    near = [hg.vec3(0.0, 0.0, 0.0), hg.vec3(0.1, 0.0, 0.0)]
    cases = [[], [Glint(None, hg.vec3(math.nan, 0.0, 0.0), near[0], 0.0, None, "imaging")]]
    cases += [[Glint(None, q, q, 0.0, None, tag) for q, tag in zip(near, tags)]
              for tags in (("imaging", "imaging"), ("imaging", "backface-stray"))]
    for glints in cases:
        for radius in (0.0, 0.2, math.nan):
            assert [id(g) for g in simulate._dedupe(glints, radius)] == [id(g) for g in _old_dedupe(glints, radius)]
    assert len(simulate._dedupe(cases[2], 0.2)) == 1 and simulate._dedupe(cases[1], 0.2) == cases[1]


# ---- geom.view_directions ----


def _old_view_directions(thetas, phi=0.0):
    c, s = math.cos(phi), math.sin(phi)
    rows = [(c * math.sin(t), s, c * math.cos(t)) for t in np.ravel(thetas).tolist()]
    return np.array(rows).reshape(-1, 3)


@SETTINGS
@given(st.lists(st.floats(-10.0, 10.0), max_size=50), st.floats(-1.5, 1.5))
def test_view_directions_match_the_per_element_rows(thetas, phi):
    new = view_directions(np.array(thetas), phi)
    assert new.shape == (len(thetas), 3)
    assert new.tobytes() == _old_view_directions(thetas, phi).tobytes()
