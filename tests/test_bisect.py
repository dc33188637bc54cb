"""Root searches against their former loops, kept below verbatim as oracles.

Every site that routes through the shared bisection kernel,
``geom.bisect_brackets`` (Cartesian ovals, stand-in members, normal-field
hosts, toolpath arcs), returns the roots of its former hand-written loop bit
for bit.  Conic
members are solved in closed form (``ConicSurface.line_roots``), so at those
sites the former loops are tolerance oracles: positions agree to 1e-12 surface
scales wherever the former search reached the root.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint.errors import DomainError, HologlintError, RootFindError
from hologlint.foliation import (
    MAX_NEWTON,
    SOLVE_TOL,
    CartesianOval,
    ConicKind,
    ConicSurface,
    _surface_scale,
    classify_member,
    member_through,
    radial_roots,
)
from hologlint.geom import (
    EyeAtInfinity,
    Vec3,
    _line_params_field,
    bisect_brackets,
    colinearity_residual,
    glint_axes,
    glint_axis,
    norm,
    root_cells,
    unit,
    unit_rows,
    view_direction,
)
from hologlint.ridging import _member_height
from hologlint.simulate import Glint, _sightline_roots, _toolpath_glints
from hologlint.striping import Toolpath

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


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
    if isinstance(member, CartesianOval):
        assert new[2] == old[2]
    else:
        scale = max(norm(member.focus_p - new[0]), member.k, 1.0)
        assert len(new[2]) == len(old[2])
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(new[2], old[2]))


class _AxisLine:
    """A stand-in member whose implicit value is ``g(z)`` along the z axis."""

    focus_p = np.zeros(3)
    k = 1.0

    def __init__(self, g):
        self.g = g

    def implicit_many(self, xs):
        return self.g(xs[:, 2])

    def implicit(self, x):
        return float(self.implicit_many(np.reshape(x, (1, 3)))[0])


_GRID = np.linspace(-6.0, 6.0, 4096)  # the sightline grid for _AxisLine seen along +z


@pytest.mark.parametrize(
    "g",
    [
        lambda z: z - _GRID[1000],  # exact zero at an inner grid point
        lambda z: z - _GRID[-1],  # exact zero at the last grid point: not a root
        lambda z: np.where(z < 2.5, z - 1.0, np.inf),  # a sign change into inf is skipped
        lambda z: np.where(z <= _GRID[3000], z - _GRID[3000], np.nan),  # zero next to a NaN
        lambda z: np.where(np.abs(z) < 4.0, z * z - 1.0, np.nan),  # two roots inside NaN
    ],
)
def test_sightline_roots_keep_grid_zeros_and_skip_non_finite_cells(g):
    surface, eye = _AxisLine(g), EyeAtInfinity(hg.vec3(0.0, 0.0, 1.0))
    assert _sightline_roots(surface, eye, np.zeros(3))[2] == _old_sightline_roots(
        surface, eye, np.zeros(3)
    )[2]


# ---- geom._line_params_field on a normal-field host ----


def _wavy_host(amp, freq, tilt):
    def query(p):
        z = amp * math.sin(freq * p[0]) + tilt * p[1]
        return hg.vec3(p[0], p[1], z), unit(hg.vec3(-amp * freq * math.cos(freq * p[0]), -tilt, 1.0))

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
    if isinstance(member, CartesianOval):  # still the sweep, bisection and Newton of the old loop
        new = _outcome(lambda: radial_roots(member, p, dirs))
        assert new == _outcome(lambda: _old_radial_roots(member, p, dirs, True))
        return
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


@SETTINGS
@given(
    toolpath_arcs(), eyes(), lights(), st.sampled_from([hg.REFLECTION, hg.Media(1.0, 1.5)]),
    st.sampled_from([None, hg.vec3(1.5, -2.0, -8.0)]),
)
def test_toolpath_glints_match_the_per_arc_loop(arcs, eye, light, media, stipple_p):
    new = _solve(lambda: [_glint_bits(g, eye) for g in _toolpath_glints(arcs, eye, light, media, stipple_p)])
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
    new = _toolpath_glints(arcs, eye, light, hg.REFLECTION, None)
    assert [g.theta for g in new] == pytest.approx(thetas, abs=1e-15)
    old = _per_arc_glints(arcs, eye, light, hg.REFLECTION, None)
    assert [_glint_bits(g, eye) for g in new] == [_glint_bits(g, eye) for g in old]
    if tangents[0][1] == _ACROSS and thetas:
        assert new[0].theta == 0.05 and new[0].point.tobytes() == arcs[0][0].positions[1].tobytes()
