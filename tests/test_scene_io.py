"""Scene parsing/formatting and the deterministic exporters."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import hologlint as hg
from hologlint import exporters, scene as scene_io

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """\
[light]
type = directional
alpha_deg = 0

[stipples]
0 0 -10 1.0 -45 45 0
"""


def make_striping_from(text):
    spec = scene_io.parse_scene(text)
    return (
        scene_io.build_fab(spec),
        hg.make_striping(
            scene_io.build_stipples(spec),
            scene_io.build_light(spec),
            scene_io.build_host(spec),
            scene_io.build_view(spec),
            scene_io.build_fab(spec),
            step=scene_io.integration_step(spec),
        ),
    )


class TestParseScene:
    def test_minimal_document_fills_defaults(self):
        spec = scene_io.parse_scene(MINIMAL)
        assert spec.fab.delta == 0.5
        assert spec.fab.step_deg == 0.1
        assert spec.fab.tool_radius == 0.2
        assert spec.media == (1.0, 1.0)
        assert spec.host.kind == "plane"
        assert spec.view.kind == "infinity"
        assert len(spec.stipples) == 1

    def test_stipple_line_mapping(self):
        spec = scene_io.parse_scene(MINIMAL)
        s = spec.stipples[0]
        assert (s.x, s.y, s.z) == (0.0, 0.0, -10.0)
        assert s.weight == 1.0
        assert (s.theta_min_deg, s.theta_max_deg) == (-45.0, 45.0)
        assert s.priority == 0
        built = scene_io.build_stipples(spec)[0]
        assert np.allclose(built.p, [0, 0, -10])
        assert abs(built.window[0] + math.pi / 4) < 1e-12

    def test_missing_light_section_named(self):
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene("[stipples]\n0 0 -10 1 -45 45 0\n")
        assert "[light]" in str(err.value)

    def test_missing_stipples_section_named(self):
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene("[light]\ntype = directional\nalpha_deg = 0\n")
        assert "[stipples]" in str(err.value)

    def test_unknown_key_rejected_with_location(self):
        bad = MINIMAL.replace("alpha_deg = 0", "alpha_deg = 0\nwavelength = 550")
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene(bad)
        assert "wavelength" in str(err.value)
        assert err.value.line == 4

    def test_unknown_section_rejected(self):
        with pytest.raises(hg.SceneParseError):
            scene_io.parse_scene("[optics]\nfoo = 1\n" + MINIMAL)

    def test_malformed_number_has_line(self):
        bad = MINIMAL.replace("0 0 -10 1.0 -45 45 0", "0 0 ten 1.0 -45 45 0")
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene(bad)
        assert err.value.line == 6

    def test_degenerate_light_direction_rejected(self):
        bad = """\
[light]
type = point
position = 0 0 20

[host]
type = plane
origin = 0 0 0
normal = 0 0 0

[stipples]
0 0 -10 1.0 -45 45 0
"""
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene(bad)
        assert "zero-norm" in str(err.value)

    def test_stipple_on_point_light_rejected(self):
        bad = """\
[light]
type = point
position = 0 0 20

[stipples]
0 0 20 1.0 -45 45 0
"""
        with pytest.raises(hg.SceneParseError):
            scene_io.parse_scene(bad)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL.replace("[light]", "[light]  # the sun")
        spec = scene_io.parse_scene(text)
        assert spec.light.kind == "directional"

    def test_duplicate_section_rejected(self):
        with pytest.raises(hg.SceneParseError):
            scene_io.parse_scene(MINIMAL + "\n[light]\ntype = directional\n")

    def test_roundtrip_identity(self):
        spec = scene_io.parse_scene(MINIMAL)
        assert scene_io.parse_scene(scene_io.format_scene(spec)) == spec

    def test_roundtrip_rich_scene(self):
        text = """\
[media]
eta1 = 1.0
eta2 = 1.5

[light]
type = point
position = 1.5 60.25 40.125

[host]
type = sphere
center = 0 0 -200.5
radius = 200.5
side = outside

[view]
type = orbit
theta_min_deg = -30.5
theta_max_deg = 30.25
samples = 17
center = 0 0 0
radius = 750.125
elevation_deg = 2.5

[fab]
delta = 0.75
pitch = 1.5
apex_standoff = 9.0
resolution = 3.0
tool_radius = 0.15
step_deg = 0.05

[stipples]
0.125 -0.5 -10.75 0.8 -20.5 20.25 3
1.0 2.0 -12.0 0.6 -15.0 15.0 1
"""
        spec = scene_io.parse_scene(text)
        assert scene_io.parse_scene(scene_io.format_scene(spec)) == spec
        assert scene_io.build_view(spec).samples == 17
        assert scene_io.build_host(spec).radius == 200.5


class TestLocations:
    """A rejected value is reported at the line of the key that holds it."""

    @pytest.mark.parametrize(
        "section, message",
        [
            ("[media]\neta1 = 1.0\neta2 = 0\n", "refractive indices must be positive"),
            ("[media]\neta2 = -1.5\n", "refractive indices must be positive"),
            ("[fab]\npitch = 0\n", "fab parameters must be positive"),
            ("[fab]\ndelta = 0.5\npitch = 2\nresolution = -4\n", "fab parameters must be positive"),
            ("[fab]\ndelta = 0.5\nstep_deg = 0\n", "fab parameters must be positive"),
            ("[view]\ntheta_max_deg = -50\n", "view range requires theta_min_deg < theta_max_deg"),
            # NaN is not positive either
            ("[media]\neta1 = nan\n", "refractive indices must be positive"),
            ("[media]\neta1 = 1.0\neta2 = NaN\n", "refractive indices must be positive"),
            ("[host]\ntype = sphere\nradius = nan\n", "sphere radius must be positive"),
            ("[view]\ntype = orbit\nradius = nan\n", "orbit radius must be positive"),
            ("[fab]\ndelta = nan\n", "fab parameters must be positive"),
            ("[fab]\npitch = -nan\n", "fab parameters must be positive"),
            ("[fab]\ndelta = 0.5\nresolution = nan\n", "fab parameters must be positive"),
            ("[fab]\nstep_deg = nan\n", "fab parameters must be positive"),
            # a standoff may be negative but not infinite; a tool radius may be 0
            ("[fab]\napex_standoff = nan\n", "apex standoff must be finite"),
            ("[fab]\ndelta = 0.5\napex_standoff = -inf\n", "apex standoff must be finite"),
            ("[fab]\ntool_radius = nan\n", "tool radius must be nonnegative"),
            ("[fab]\ndelta = 0.5\ntool_radius = -0.2\n", "tool radius must be nonnegative"),
        ],
    )
    def test_rejected_value_names_its_own_line(self, section, message):
        text = "# scene\n" + section + MINIMAL
        bad_line = section.count("\n") + 1  # the section's last key, after the comment
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene(text)
        assert message in str(err.value)
        assert (err.value.line, err.value.column) == (bad_line, 1)

    def test_empty_range_names_theta_min_when_present(self):
        text = "[view]\ntheta_min_deg = 50\ntheta_max_deg = 40\n" + MINIMAL
        with pytest.raises(hg.SceneParseError) as err:
            scene_io.parse_scene(text)
        assert err.value.line == 2

    def test_type_is_no_key_of_single_kind_sections(self):
        with pytest.raises(hg.SceneParseError, match="unknown key 'type' in section \\[fab\\]"):
            scene_io.parse_scene("[fab]\ntype = mill\n" + MINIMAL)


class TestReadme:
    def test_ini_examples_parse(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            spec = scene_io.parse_scene(block)
            assert scene_io.parse_scene(scene_io.format_scene(spec)) == spec

    def test_scene_reference_matches_the_schema(self):
        rows = [
            [cell.strip() for cell in line.split("|")[1:-1]]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `[")
        ]
        documented, default_kinds = set(), {}
        for section, kind, key, default, *_ in rows:
            name = section.strip("`[]")
            if kind.endswith("(default)"):
                default_kinds[name] = kind.split()[0].strip("`")
            kinds = list(scene_io._SCHEMA[name]) if kind in ("any", "") else [kind.split()[0].strip("`")]
            documented |= {(name, k, key.strip("`"), default) for k in kinds if key}

        defaults = scene_io.SceneSpec()
        expected = set()
        for name, kinds in scene_io._SCHEMA.items():
            values = scene_io._values(defaults, name)
            if "kind" in values:
                assert default_kinds[name] == values["kind"]
            for kind, fields in kinds.items():
                for f in fields:
                    value = values[f.key]
                    text = "unset" if value is None else f"`{scene_io._text(value)}`"
                    expected.add((name, kind, f.key, "required" if f.required else text))
        assert documented == expected


class TestGcodeExport:
    def test_empty_striping_header_footer_only(self):
        fab = hg.FabricationParams()
        text = exporters.export_gcode(hg.Striping((), fab), fab)
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[0].startswith("(")
        assert "G21" in text and "G90" in text and lines[-1] == "M2"
        assert "G1 X" not in text

    def test_one_arc_one_plunge_one_retract(self):
        fab, striping = make_striping_from(MINIMAL)
        assert len(striping.arcs) == 1
        text = exporters.export_gcode(striping, fab)
        plunges = [ln for ln in text.splitlines() if ln.startswith("G1 Z")]
        retracts = [ln for ln in text.splitlines() if ln.startswith("G0 Z")]
        assert len(plunges) == 1
        assert len(retracts) == 2  # initial safe lift + one per-arc retract
        assert "( stipple 0 )" in text

    def test_plunge_depth_derives_from_delta(self):
        fab, striping = make_striping_from(MINIMAL)
        text = exporters.export_gcode(striping, fab)
        plunge = next(ln for ln in text.splitlines() if ln.startswith("G1 Z"))
        assert f"Z{-fab.delta:.4f}" in plunge

    def test_fixed_decimal_formatting(self):
        fab, striping = make_striping_from(MINIMAL)
        for line in exporters.export_gcode(striping, fab).splitlines():
            for token in line.split():
                if token[0] in "XYZF" and token[1:].lstrip("-").replace(".", "").isdigit():
                    assert len(token.split(".")[1]) == 4

    def test_reexport_byte_identical(self):
        fab, striping = make_striping_from(MINIMAL)
        assert exporters.export_gcode(striping, fab) == exporters.export_gcode(striping, fab)

    def test_envelope_violation(self):
        fab, striping = make_striping_from(MINIMAL)
        with pytest.raises(hg.EnvelopeError):
            exporters.export_gcode(striping, fab, envelope=(-1, 1, -1, 1, -1, 1))


class TestCsvExport:
    def test_header_and_rows(self):
        fab, striping = make_striping_from(MINIMAL)
        text = exporters.format_csv(striping)
        lines = text.splitlines()
        assert lines[0] == "stipple_id,theta_deg,x_mm,y_mm,z_mm"
        n_samples = sum(len(arc.toolpath.thetas) for arc in striping.arcs)
        assert len(lines) == 1 + n_samples
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 5


class TestObjExport:
    def test_obj_structure(self):
        fab = hg.FabricationParams(delta=0.5, pitch=2.0, mesh_resolution=2.0)
        rs = hg.build_ridging(
            hg.vec3(0, 0, 5), hg.PointLight(hg.vec3(0, 0, 20)), hg.PlaneHost(), fab
        )
        mesh = hg.mesh_ridging(rs, fab)
        assert mesh.face_tags.shape == mesh.face_band.shape == (len(mesh.triangles),)
        assert mesh.vertex_tags.shape == mesh.vertex_band.shape == (len(mesh.vertices),)
        text = exporters.format_obj(mesh)
        v_count = sum(1 for ln in text.splitlines() if ln.startswith("v "))
        vn_count = sum(1 for ln in text.splitlines() if ln.startswith("vn "))
        f_count = sum(1 for ln in text.splitlines() if ln.startswith("f "))
        assert v_count == len(mesh.vertices)
        assert vn_count == len(mesh.vertices)
        assert f_count == len(mesh.triangles)
        assert "g imaging" in text and "g backface" in text
        # indices are 1-based and in range
        for ln in text.splitlines():
            if ln.startswith("f "):
                for chunk in ln.split()[1:]:
                    idx = int(chunk.split("//")[0])
                    assert 1 <= idx <= v_count


class TestFrameExport:
    def test_p5_header_and_size(self, tmp_path):
        frames = (np.zeros((64, 64), dtype=np.uint8), np.full((64, 64), 7, dtype=np.uint8))
        gm = hg.GlintMap(
            thetas=(0.0, 0.1), glints=((), ()), frames=frames, width=64, height=64
        )
        paths = exporters.export_frames(gm, tmp_path)
        assert [p.name for p in paths] == ["frame_0000.pgm", "frame_0001.pgm"]
        for path in paths:
            data = path.read_bytes()
            header = b"P5\n64 64\n255\n"
            assert data.startswith(header)
            assert len(data) == len(header) + 64 * 64
        assert paths[0].read_bytes()[len(b"P5\n64 64\n255\n"):] == b"\x00" * 4096

    def test_frame_count_matches_views(self, tmp_path):
        striping_fab = make_striping_from(MINIMAL)
        fab, striping = striping_fab
        view = hg.InfinityView(-0.3, 0.3, samples=5)
        gm = hg.render_glintmap((striping,), hg.DirectionalLight(0.0), view, raster=hg.RasterParams(32, 32))
        paths = exporters.export_frames(gm, tmp_path)
        assert len(paths) == 5

    def test_pgm_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            exporters.format_pgm(np.zeros((4, 4), dtype=np.float64))
