"""The text exporters format rows in chunks of ``_CHUNK_ROWS``: OBJ records
through the NumPy digit kernel (``%`` for a chunk the kernel cannot write
exactly), G-code and CSV rows through one ``%`` template each.
``format_obj``, ``format_csv`` and ``export_gcode`` equal the former per-line
and per-number formatting byte for byte, and the chunk lists that the CLI
writes with ``writelines`` give the same file bytes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hologlint as hg
from hologlint import exporters
from hologlint.errors import EnvelopeError

CHUNK = exporters._CHUNK_ROWS
SPECIAL = [0.0, -0.0, -4e-7, 4e-7, -4e-5, 4e-5, -5e-7, -5e-5, 1e-300, -1e-300,
           math.nan, math.inf, -math.inf, 1e300, -1e300, 0.5, -1.25, 123.4567895]


# ---- the former exporters, verbatim ----


def _former_format_obj(mesh, name: str = "ridging") -> str:
    """OBJ text with v/vn/f records; faces grouped by imaging/backface tag."""
    lines = [f"o {name}"]
    for tag, rows in (("v", mesh.vertices), ("vn", mesh.normals)):
        for x, y, z in rows:
            # fixed 6-decimal coordinates, no negative zero
            lines.append(f"{tag} {x:.6f} {y:.6f} {z:.6f}".replace(" -0.000000", " 0.000000"))
    current_tag = None
    for tri, tag in zip(mesh.triangles, mesh.face_tags):
        if tag != current_tag:
            lines.append(f"g {tag}")
            current_tag = tag
        a, b, c = (int(i) + 1 for i in tri)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    lines.append("")
    return "\n".join(lines)


def _former_format_csv(striping) -> str:
    """Per-arc sample rows: stipple id, azimuth (degrees), position (mm)."""
    rows = ["stipple_id,theta_deg,x_mm,y_mm,z_mm"]
    for arc in striping.arcs:
        sid = arc.stipple.stipple_id
        for theta, (x, y, z) in zip(arc.toolpath.thetas.tolist(), arc.toolpath.positions.tolist()):
            rows.append(f"{sid},{math.degrees(theta):.6f},{x:.6f},{y:.6f},{z:.6f}")
    rows.append("")
    return "\n".join(rows)


def _fmt(value: float) -> str:
    # fixed 4-decimal G-code coordinate formatting, no negative zero
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _former_export_gcode(
    striping, fab, envelope=None, feed=exporters.GCODE_FEED, safe_height=exporters.SAFE_HEIGHT
) -> str:
    """Millimeter/absolute program: one plunge and one retract per arc."""
    retract = f"G0 Z{_fmt(safe_height)}"
    lines = ["( hologlint striping toolpath )", "G21 ( millimeters )", "G90 ( absolute )", retract]
    for arc in striping.arcs:
        pts, sid = arc.toolpath.positions, arc.stipple.stipple_id
        rows = np.column_stack([pts[:, :2], pts[:, 2] - fab.delta])  # x, y and cut depth
        if envelope is not None and (
            (rows.min(axis=0) < envelope[::2]).any() or (rows.max(axis=0) > envelope[1::2]).any()
        ):
            raise EnvelopeError(f"arc for stipple {sid} leaves the machine envelope")
        (x, y, z), *rest = rows.tolist()  # Python floats: one array read per arc, not per coordinate
        lines += [f"( stipple {sid} )", f"G0 X{_fmt(x)} Y{_fmt(y)}", f"G1 Z{_fmt(z)} F{_fmt(feed)}"]
        lines += [f"G1 X{_fmt(x)} Y{_fmt(y)} Z{_fmt(z)}" for x, y, z in rest] + [retract]
    return "\n".join([*lines, "M2", ""])


# ---- generated inputs ----

# row counts at the chunk edges, and small ones
ROW_COUNTS = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]) | st.integers(0, 12)


def _values(seed: int, shape, special_share: float, top: float = 6.0) -> np.ndarray:
    """Floats of ``shape``: the SPECIAL values at ``special_share``, else spread over 1e-9..10**top."""
    rng = np.random.default_rng(seed)
    out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-9.0, top, size=shape)
    pick = rng.random(shape) < special_share
    out[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return out


def _tags(pattern: str, n: int, seed: int) -> np.ndarray:
    names = np.array(["imaging", "backface"])
    if pattern == "imaging":
        return names[np.zeros(n, dtype=int)]
    if pattern == "backface":
        return names[np.ones(n, dtype=int)]
    if pattern == "alternating":
        return names[np.arange(n) % 2]
    return names[np.random.default_rng(seed).integers(0, 2, size=n)]  # random runs


def _mesh(n_verts: int, n_faces: int, seed: int, special_share: float, pattern: str) -> hg.Mesh:
    rng = np.random.default_rng(seed + 1)
    top = max(n_verts, 1) if seed % 3 else 2**40  # vertex ids past 32 bits, too
    return hg.Mesh(  # values past the digit kernel's |x| < 1e9, too
        vertices=_values(seed, (n_verts, 3), special_share, 10.0),
        normals=_values(seed + 2, (n_verts, 3), special_share, 10.0),
        triangles=rng.integers(0, top, size=(n_faces, 3)),
        face_tags=_tags(pattern, n_faces, seed),
        face_band=np.zeros(n_faces, dtype=int),
        vertex_tags=_tags("imaging", n_verts, seed),
        vertex_band=np.zeros(n_verts, dtype=int),
    )


def _striping(lengths, seed: int, special_share: float) -> hg.Striping:
    fab = hg.FabricationParams()
    arcs = []
    for k, n in enumerate(lengths):
        thetas = _values(seed + k, n, special_share)
        thetas[~np.isfinite(thetas)] = 0.5  # toolpath azimuths are finite
        pos = _values(seed + 100 + k, (n, 3), special_share)
        tp = hg.Toolpath(thetas, pos, pos, pos, 0.0, 0.0, hg.PlaneHost())
        stipple = hg.Stipple(hg.vec3(0, 0, -10), stipple_id=(seed * 7 + k) % 1000)
        arcs.append(hg.StripeArc(tp, 0.0, 1.0, stipple, 0.5))
    return hg.Striping(tuple(arcs), fab)


SHARES = st.sampled_from([0.0, 0.3, 1.0])
SEEDS = st.integers(0, 2**16)


# ---- OBJ ----


@settings(max_examples=60)
@given(ROW_COUNTS, ROW_COUNTS, SEEDS, SHARES,
       st.sampled_from(["imaging", "backface", "alternating", "runs"]))
def test_obj_text_equals_the_former_per_line_formatting(n_verts, n_faces, seed, share, pattern):
    mesh = _mesh(n_verts, n_faces, seed, share, pattern)
    assert exporters.format_obj(mesh, name="stipple_3") == _former_format_obj(mesh, name="stipple_3")


@pytest.mark.parametrize("pattern", ["imaging", "backface", "alternating", "runs"])
@pytest.mark.parametrize("n_faces", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_obj_face_groups_at_the_chunk_edges(n_faces, pattern):
    mesh = _mesh(5, n_faces, 11, 0.3, pattern)
    text = exporters.format_obj(mesh)
    assert text == _former_format_obj(mesh)
    assert text.count("\nf ") == n_faces


def test_obj_of_a_mesh_without_faces_is_its_name_and_vertices():
    mesh = _mesh(3, 0, 5, 0.0, "imaging")
    text = exporters.format_obj(mesh, name="empty")
    assert text == _former_format_obj(mesh, name="empty")
    assert text.startswith("o empty\n") and "g " not in text and len(text.splitlines()) == 7
    assert exporters.format_obj(_mesh(0, 0, 5, 0.0, "imaging"), name="empty") == "o empty\n"


def test_obj_writes_no_negative_zero_but_keeps_small_negatives():
    mesh = _mesh(4, 2, 0, 0.0, "alternating")
    mesh.vertices[:] = [[-0.0, -4e-7, -5e-7], [-4e-5, 0.0, -1e-300], [math.nan, math.inf, -math.inf],
                        [1e300, -1e300, -0.0000006]]
    text = exporters.format_obj(mesh)
    assert text == _former_format_obj(mesh)
    assert "-0.000000" not in text
    assert "v 0.000000 0.000000 0.000000\n" in text and "v -0.000040 0.000000 0.000000\n" in text
    assert "v nan inf -inf\n" in text and text.count(" -0.000001\n") == 1


def _kernel_calls(monkeypatch) -> list:
    """The ``_rows`` calls made from now on: the chunks that the digit kernel left to ``%``."""
    calls = []
    rows = exporters._rows
    monkeypatch.setattr(exporters, "_rows", lambda *a: calls.append(a) or rows(*a))
    return calls


def _one_row_records(values) -> tuple[str, str]:
    """Each value alone in a one-row ``v`` chunk (x, -x, x), through the exporter and formerly."""
    rows = np.array([[x, -x, x] for x in values])
    mesh = _mesh(len(rows), 0, 1, 0.0, "imaging")
    mesh.vertices[:] = rows
    new = "".join(exporters._fixed6("v", rows[k : k + 1]) for k in range(len(rows)))
    return new, _former_format_obj(mesh).split("\n", 1)[1].split("vn ", 1)[0]


def test_obj_kernel_equals_the_former_formatting_at_rounding_ties(monkeypatch):
    ties = np.arange(1, 400, 2) / 128  # x * 1e6 = k * 7812.5: exact half-integers
    # their neighbours' products round to the float next to the half-integer, so stay on the kernel
    neighbours = [np.nextafter(x, x * s) for x in ties for s in (-np.inf, np.inf)]
    near = [np.nextafter(x, s * np.inf) for x in (np.arange(0, 50) + 0.5) * 1e-6 for s in (-1, 1)]
    near += [(k + 0.5) * 1e-6 for k in (0, 1, 999, 123_456, 999_999_999, 123_456_789_012)]
    steps = [x for x in near for x in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf))]
    calls = _kernel_calls(monkeypatch)
    for values, fallbacks in ((ties, len(ties)), (neighbours, 0), (steps, None)):
        calls.clear()
        new, former = _one_row_records(values)
        assert new == former
        assert len(calls) == (len(calls) if fallbacks is None else fallbacks)


def test_obj_kernel_equals_the_former_formatting_at_the_digit_group_and_domain_edges(monkeypatch):
    inside = [1000.0, 1e6, 999.999999, 1000.000001, 999999.999999, 1e9 - 1e-6, 999_999_999.999999,
              123_456_789.123456, np.nextafter(1e9, 0.0), 1e-6, 0.0, -0.0, 4e-7, -4e-7, 4.9999e-7, -5.0001e-7]
    ties = [999.9999995, 999999.9999995, 0.9999995, 1e6 + 0.5e-6, 0.0999995, 1.5e-6, 5e-7, -5e-7]
    outside = [1e9, np.nextafter(1e9, np.inf), 2e9, 1e10, 1e14, 1e15, 1e16, 1e300]
    calls = _kernel_calls(monkeypatch)
    for values, fallbacks in ((inside, 0), (ties, None), (outside, len(outside))):
        calls.clear()
        new, former = _one_row_records(values)
        assert new == former
        assert len(calls) == (len(calls) if fallbacks is None else fallbacks)
    new = _one_row_records(inside)[0]
    assert "-0.000000" not in new and "v 0.000000 0.000000 0.000000\n" in new and " -0.000001 " in new


def test_obj_face_ids_at_the_digit_group_edges(monkeypatch):
    ids = [1, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 10**6, 10**6 + 1, 999_999_999, 10**9, 2**40 + 1,
           10**15, 2**62]
    mesh = _mesh(2, len(ids), 1, 0.0, "imaging")
    mesh.triangles[:] = np.array([ids, ids[::-1], ids[3:] + ids[:3]]).T - 1  # 1-based ids
    mesh.vertices[:] = mesh.normals[:] = 0.5
    calls = _kernel_calls(monkeypatch)
    assert exporters.format_obj(mesh) == _former_format_obj(mesh)
    assert calls == []
    mesh.triangles[5, 1] = -2  # a negative 1-based id: its face chunk goes to % alone
    text = exporters.format_obj(mesh)
    assert text == _former_format_obj(mesh) and " -1//-1 " in text
    assert [len(c[1]) for c in calls] == [len(ids)]


def test_word_tables_equal_the_per_word_build():
    # each word was once its own np.frombuffer of the NUL-padded text
    def word(text):
        return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]

    groups = np.array([word(f % k) for f in (b"%03d", b"%d") for k in range(1000)] + [0] * 1000, np.uint32)
    point = np.array([word(b".%03d" % k) for k in range(1000)], np.uint32)
    for new, old in ((exporters._GROUPS, groups), (exporters._POINT, point)):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


def test_obj_of_empty_arrays():
    for n_verts, n_faces in ((0, 0), (0, 3), (3, 0)):
        mesh = _mesh(n_verts, n_faces, 4, 0.0, "alternating")
        assert exporters.format_obj(mesh, name="e") == _former_format_obj(mesh, name="e")
    assert exporters._digits(np.zeros((0, 3), np.int64)).shape == (0, 3, 1)


def test_a_nan_chunk_falls_back_alone(monkeypatch):
    mesh = _mesh(3 * CHUNK, 2 * CHUNK, 6, 0.0, "imaging")
    mesh.vertices[:] = _values(6, (3 * CHUNK, 3), 0.0)  # inside the kernel's domain
    mesh.normals[:] = _values(7, (3 * CHUNK, 3), 0.0)
    mesh.triangles[:] %= 3 * CHUNK
    mesh.vertices[CHUNK + 17, 1] = math.nan  # the second v chunk
    calls = _kernel_calls(monkeypatch)
    chunks = exporters.obj_chunks(mesh)
    assert "".join(chunks) == _former_format_obj(mesh)
    assert len(calls) == 1 and len(calls[0][1]) == CHUNK and math.isnan(calls[0][1][17, 1])
    assert " nan " in chunks[2] and "nan" not in "".join(chunks[:2] + chunks[3:])


LIGHT = hg.PointLight(hg.vec3(0, 0, 20))


@pytest.fixture(scope="module")
def ridged_meshes():
    """The ridge-point meshes of seed 1 (bounded p = (0, 0, -10.1828), adaptive p = (0, 0, 5.1737))
    and the adaptive p = (0, 0, -10) mesh whose OBJ digest ``test_ridging`` pins."""
    fab = hg.FabricationParams()
    return [hg.mesh_ridging(hg.build_ridging(hg.vec3(0, 0, z), LIGHT, hg.PlaneHost(), fab, max_radius=r), fab)
            for z, r in ((-10.1828, 7.882), (5.1737, None), (-10.0, None))]


def test_ridged_meshes_take_the_digit_kernel_throughout(ridged_meshes, monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for mesh in ridged_meshes:
        exporters.obj_chunks(mesh)
    assert calls == []


def _held_over_output_kib(mesh) -> float:
    """tracemalloc peak of ``obj_chunks(mesh)`` above what it returns, KiB."""
    tracemalloc.start()
    try:
        chunks = exporters.obj_chunks(mesh)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chunks
    return (peak - held) / 1024


def test_obj_export_holds_no_whole_mesh_temporary(ridged_meshes):
    small, large = (_mesh(k * CHUNK, k * CHUNK, 3, 0.0, "imaging") for k in (2, 40))
    for mesh in (small, large):
        mesh.vertices[:] = _values(4, mesh.vertices.shape, 0.0)
        mesh.triangles[:] %= len(mesh.vertices)
    over_small, over_large = _held_over_output_kib(small), _held_over_output_kib(large)
    assert over_large < 1.5 * over_small, (over_small, over_large)
    assert all(_held_over_output_kib(mesh) < 512 for mesh in ridged_meshes[:2])


# ---- CSV and G-code ----

ARC_LENGTHS = st.lists(st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1]) | st.integers(1, 9),
                       min_size=0, max_size=4)


@settings(max_examples=40)
@given(ARC_LENGTHS, SEEDS, SHARES)
def test_csv_text_equals_the_former_per_row_formatting(lengths, seed, share):
    striping = _striping(lengths, seed, share)
    assert exporters.format_csv(striping) == _former_format_csv(striping)


@settings(max_examples=40)
@given(ARC_LENGTHS, SEEDS, SHARES, st.sampled_from(SPECIAL + [exporters.GCODE_FEED]),
       st.sampled_from(SPECIAL + [exporters.SAFE_HEIGHT, -0.00001]))
def test_gcode_text_equals_the_former_per_number_formatting(lengths, seed, share, feed, safe):
    striping = _striping(lengths, seed, share)
    text = exporters.export_gcode(striping, striping.fab, feed=feed, safe_height=safe)
    assert text == _former_export_gcode(striping, striping.fab, feed=feed, safe_height=safe)
    assert "-0.0000 " not in text.replace("\n", " ")


def _outcome(export, *args, **kwargs):
    try:
        return export(*args, **kwargs)
    except EnvelopeError as exc:
        return f"EnvelopeError: {exc}"


@settings(max_examples=40)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), SEEDS,
       st.lists(st.sampled_from([-1e7, -1e3, -1.0, 0.0, 1.0, 1e3, 1e7, math.nan]), min_size=6, max_size=6))
def test_gcode_envelope_equals_the_former_per_arc_check(lengths, seed, envelope):
    striping = _striping(lengths, seed, 0.0)
    new = _outcome(exporters.export_gcode, striping, striping.fab, envelope=tuple(envelope))
    assert new == _outcome(_former_export_gcode, striping, striping.fab, envelope=tuple(envelope))


def test_gcode_envelope_checks_every_arc():
    striping = _striping([4, 4, 4], 2, 0.0)
    for k, arc in enumerate(striping.arcs):  # an envelope around arc k alone
        rows = arc.toolpath.positions - [0.0, 0.0, striping.fab.delta]
        env = tuple(v for lo, hi in zip(rows.min(axis=0), rows.max(axis=0)) for v in (lo, hi))
        new = _outcome(exporters.export_gcode, striping, striping.fab, envelope=env)
        assert new == _outcome(_former_export_gcode, striping, striping.fab, envelope=env)
        first_out = striping.arcs[1 if k == 0 else 0].stipple.stipple_id
        assert new == f"EnvelopeError: arc for stipple {first_out} leaves the machine envelope"


def test_gcode_envelope_raises_before_any_chunk_is_formatted(monkeypatch):
    striping = _striping([3, 4], 1, 0.0)
    calls = []
    monkeypatch.setattr(exporters, "_rows", lambda *a: calls.append(a) or [])
    with pytest.raises(EnvelopeError):
        exporters.gcode_chunks(striping, striping.fab, envelope=(0, 0, 0, 0, 0, 0))
    assert calls == []


# ---- the files the CLI writes ----


def test_written_chunks_equal_the_joined_text(tmp_path):
    mesh = _mesh(CHUNK + 1, 2 * CHUNK + 1, 3, 0.3, "runs")
    striping = _striping([CHUNK + 1, 5], 3, 0.3)
    cases = {
        "m.obj": (exporters.obj_chunks(mesh, name="s"), exporters.format_obj(mesh, name="s")),
        "s.csv": (exporters.csv_chunks(striping), exporters.format_csv(striping)),
        "s.nc": (exporters.gcode_chunks(striping, striping.fab),
                 exporters.export_gcode(striping, striping.fab)),
    }
    for name, (chunks, text) in cases.items():
        assert len(chunks) > 2 and all(isinstance(c, str) for c in chunks)
        exporters.write_chunks(tmp_path / name, chunks)
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


def test_obj_chunks_hold_at_most_a_chunk_of_rows():
    mesh = _mesh(2 * CHUNK + 1, CHUNK + 1, 9, 0.0, "imaging")
    counts = [c.count("\n") for c in exporters.obj_chunks(mesh)]
    assert max(counts) == CHUNK
    assert sum(counts) == 1 + 2 * (2 * CHUNK + 1) + 1 + CHUNK + 1  # o, v and vn, g, f
