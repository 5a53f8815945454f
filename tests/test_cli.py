import dataclasses
import hashlib
import json
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from sonolens import analysis, cli, io, lensmap, optim, solver
from sonolens.analysis import ThermalConfig
from sonolens.cli import (
    ConfigError,
    load_config,
    strip_comments,
)
from sonolens.grid import GridSpec
from sonolens.medium import AcousticMedium, embed_lens
from sonolens.optim import OptimConfig
from sonolens.solver import ComplexField, SolverConfig


def base_config(**overrides):
    cfg = {
        "grid": {"nx": 24, "ny": 24, "nz": 32, "spacing_um": 125,
                 "frequency_mhz": 2},
        "source": {"full_plane": True},
        "medium": {"kind": "homogeneous", "material": "water"},
        "target": {"focus_centers_mm": [[1.5, 1.5, 3.0]], "radius_um": 200},
        "optim": {"iterations": 3},
        "solver": {"reflection_order": 0},
        "method": "thickness",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted([*REPO.glob("demos/*.cfg"),
                          *REPO.glob("perfbench/*.cfg")])


def header_commands(path):
    """The `sonolens <command>` names in a config's leading comment."""
    header = []
    for line in path.read_text().splitlines():
        if not line.startswith("//"):
            break
        header.append(line)
    return sorted(set(re.findall(r"sonolens\s+(\w+)", "\n".join(header))))


class ConfigRead(Exception):
    """Raised by the first step after a command has read its config."""


def _config_read(*args, **kwargs):
    raise ConfigRead


# command -> (owner, name of its first step after reading the config,
#             extra arguments)
FIRST_STEP = {
    "design": (cli, "write_snapshot", []),
    "sweep": (cli, "_sweep_case",
              ["--axis", "perturbation", "--lens",
               str(REPO / "perfbench" / "base_lens.csv")]),
    "gradcheck": (optim, "gradcheck", []),
}


class TestShippedConfigs:
    def test_every_shipped_config_names_its_commands(self):
        assert SHIPPED_CONFIGS
        for path in SHIPPED_CONFIGS:
            commands = header_commands(path)
            assert commands and set(commands) <= set(FIRST_STEP), path

    @pytest.mark.parametrize("path, command", [
        (path, command) for path in SHIPPED_CONFIGS
        for command in header_commands(path)
    ], ids=lambda v: v.name if isinstance(v, Path) else v)
    def test_every_section_is_accepted(self, tmp_path, monkeypatch, path,
                                       command):
        # the command reads and builds every section it uses, then stops at
        # its first step after that; nothing may be rejected on the way
        owner, name, extra = FIRST_STEP[command]
        monkeypatch.setattr(owner, name, _config_read)
        with pytest.raises(ConfigRead):
            run([command, "--config", str(path), "--out", str(tmp_path / "o"),
                 *extra])


class TestConfigParsing:
    def test_strip_comments(self):
        text = '{\n  "a": 1, // trailing note\n  // whole line\n  "b": 2\n}'
        assert json.loads(strip_comments(text)) == {"a": 1, "b": 2}

    def test_slashes_inside_strings_preserved(self):
        text = '{"url": "http://example//x", "n": 1 // note\n}'
        parsed = json.loads(strip_comments(text))
        assert parsed["url"] == "http://example//x"

    def test_string_ending_in_escaped_backslash(self):
        # the closing quote of "C:\\data\\" ends the string, so the
        # comment after it is stripped
        text = r'{"path": "C:\\data\\", "n": 1 // note' + '\n}'
        parsed = json.loads(strip_comments(text))
        assert parsed == {"path": "C:\\data\\", "n": 1}

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n"a": 1,\n}')
        with pytest.raises(ConfigError, match="bad.json:3"):
            load_config(path)

    @pytest.mark.parametrize("kind", ["directory", "not text"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, kind):
        # both ended in a traceback with exit code 1
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": 0}\xff')
        assert run(["design", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"error: config file {path} is unreadable"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_unit_suffixes(self):
        grid = cli.build_grid({"grid": {"nx": 24, "ny": 24, "nz": 32,
                                        "spacing_um": 125,
                                        "frequency_mhz": 2}})
        target = cli.build_config(
            {"target": {"focus_centers": [[0, 0, 0]], "radius_mm": 0.2}},
            "target")
        assert grid.dx == pytest.approx(125e-6)
        assert grid.frequency == pytest.approx(2e6)
        assert target.radius == pytest.approx(2e-4)

    def test_bare_key_is_si(self):
        grid = cli.build_grid({"grid": {"nx": 24, "ny": 24, "nz": 32,
                                        "spacing": 1.25e-4,
                                        "frequency": 2e6}})
        assert grid.dx == 1.25e-4

    def test_conflicting_keys_rejected(self):
        with pytest.raises(ConfigError, match="conflicting"):
            cli._match({"spacing_um": 125, "spacing_mm": 0.125}, "grid",
                       GridSpec)

    def test_required_key_message(self):
        cfg = {"target": {"focus_centers_mm": [[1.0, 1.0, 1.0]]}}
        with pytest.raises(ConfigError, match="target: radius: required"):
            cli.build_config(cfg, "target")


class TestDesignCommand:
    def test_end_to_end_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        for name in ("resolved_config.json", "lens.stl", "lens_thickness.csv",
                     "lens_thickness.pgm", "loss_history.csv", "report.json",
                     "foci.csv", "field_optimization.raw",
                     "field_fabrication.raw"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert "psnr_cross_domain" in report
        snapshot = json.loads((out / "resolved_config.json").read_text())
        assert snapshot["seed"] == 0
        assert len(snapshot["config_hash"]) == 16

    def test_bitwise_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["design", "--config", cfg, "--out", str(a),
                    "--seed", "5"]) == 0
        assert run(["design", "--config", cfg, "--out", str(b),
                    "--seed", "5"]) == 0
        for name in ("field_fabrication.raw", "field_optimization.raw",
                     "lens_thickness.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_phase_method_writes_phase_map(self, tmp_path):
        cfg = write_config(tmp_path, base_config(method="phase"))
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        phi = np.loadtxt(out / "phase_map.csv", delimiter=",")
        assert phi.shape == (24, 24)
        assert (out / "loss_history.csv").exists()

    def test_time_reversal_method(self, tmp_path):
        cfg = write_config(tmp_path, base_config(method="time_reversal"))
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "phase_map.csv").exists()
        assert not (out / "loss_history.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flat_phase_lens_pgm_spans_its_fabrication_bounds(self,
                                                              tmp_path):
        # a phase design of no iterations is a uniform t_min lens; its PGM
        # used to divide by the zero-width scale [min(t), ceil(max(t))] =
        # [2, 2] and write NaN-cast pixels. Its bounds are now the lens
        # section's: t_min/dz = 2 is black, t_max/dz = 15.2 white.
        cfg = write_config(tmp_path, base_config(
            method="phase", optim={"iterations": 0}))
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        t = np.loadtxt(out / "lens_thickness.csv", delimiter=",") / 125e-6
        assert np.allclose(t, 2.0)
        data = (out / "lens_thickness.pgm").read_bytes()
        header = b"P5\n24 24\n65535\n"
        assert data.startswith(header)
        img = np.frombuffer(data[len(header):], dtype=">u2")
        assert img.size == 24 * 24 and np.all(img == 0)

    def test_missing_target_exit_2(self, tmp_path, capsys):
        cfg_dict = base_config()
        del cfg_dict["target"]
        cfg = write_config(tmp_path, cfg_dict)
        assert run(["design", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "target: required" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [
        {"full_plane": True, "amplitude": 0},
        {"aperture_diameter_mm": 2, "amplitude": 0},
        {"full_plane": True, "amplitude": -1},
    ])
    def test_non_positive_amplitude_exit_2(self, tmp_path, capsys, source):
        # a zero amplitude used to run the whole design, then fail on a
        # zero reference field
        out = tmp_path / "o"
        cfg = write_config(tmp_path, base_config(source=source))
        assert run(["design", "--config", cfg, "--out", str(out)]) == 2
        assert "source: amplitude must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, message", [
        ({"source": {"aperture_diameter_mm": -1.5}},
         "source: aperture_diameter must be positive"),
        ({"source": {"aperture_diameter_mm": 0}},
         "source: aperture_diameter must be positive"),
        # the voxel centres nearest the axis lie 88 um from it at 125 um
        ({"source": {"aperture_diameter_mm": 0.1}},
         "m covers no voxel of the grid"),
        ({"target": {"focus_centers_mm": [[1.5, 1.5, 3.0]],
                     "radius_um": -187.5}},
         "m must be non-negative"),
    ])
    def test_wrong_sign_or_empty_length_exit_2(self, tmp_path, capsys,
                                               section, message):
        # a negative diameter used to fail with a traceback in prepare, a
        # zero or sub-voxel one to run the design on an all-zero source
        # and fail in the PSNR, and a negative radius to run as |radius|
        out = tmp_path / "o"
        cfg = write_config(tmp_path, base_config(**section))
        assert run(["design", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        name, = section
        assert f"error: {name}: " in err and message in err
        assert not out.exists()

    def test_gradcheck_of_an_empty_aperture_exit_2(self, tmp_path, capsys):
        # it used to check the gradient of an all-zero field, print a
        # relative error of 0 and exit 0
        cfg = write_config(tmp_path, {"source": {"aperture_diameter_mm": 0.1},
                                      "gradcheck": {"n_coords": 1}})
        assert run(["gradcheck", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "source: aperture_diameter 0.0001 m covers no voxel" in (
            captured.err)
        assert "max relative error" not in captured.out

    def test_unknown_method_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config(method="magic"))
        assert run(["design", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_flag_exit_2(self, capsys):
        assert run(["design"]) == 2
        assert "config" in capsys.readouterr().err

    def test_removed_solver_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            solver={"reflection_order": 0, "evanescent_mode": "truncate"}))
        assert run(["design", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "evanescent_mode" in err and "angular_cutoff" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", [
        ("optim", "iteration"),
        ("lens", "kernel"),
        ("lens", "t_min_inch"),
        # lens settings that are fixed or derived from t_min/t_max
        ("lens", "kernel_size"),
        ("lens", "smooth_sigma"),
        ("lens", "v_min"),
        ("lens", "v_max"),
        ("grid", "spacing_umm"),
        ("source", "aperture_diam_mm"),
        ("target", "radius_mmm"),
        ("sweep", "realisations"),
        ("gradcheck", "n_coord"),
        ("thermal", "n_cycle"),
        ("backproject", "distance_mm"),
    ])
    def test_unknown_section_key_exit_2(self, tmp_path, capsys, section, key):
        # every section is checked when the config is loaded, whichever
        # command reads it
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: 1}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{section}: unknown key '{key}' (known: " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, hint", [
        ("optim", "iteration", "iterations"),
        ("lens", "t_min_inch", "t_min_nm"),
        ("lens", "v_max", "t_max"),
        ("grid", "spacing_umm", "spacing_um"),
        ("source", "aperture_diam_mm", "aperture_diameter_mm"),
        ("target", "radius_mmm", "radius_mm"),
        ("sweep", "realisations", "realizations"),
        ("thermal", "n_cycle", "n_cycles"),
        ("backproject", "distance_mm", "distances_mm"),
    ])
    def test_unknown_key_names_the_closest_known_key(self, tmp_path, capsys,
                                                     section, key, hint):
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: 1}
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert f"did you mean '{hint}'?" in capsys.readouterr().err

    @pytest.mark.parametrize("medium, key", [
        ({"kind": "homogeneous", "material": "water"}, "center_mm"),
        ({"kind": "phantom", "center_mm": [1.5, 1.5, 2.0],
          "inner_radius_mm": 1.0, "thickness_mm": 0.25}, "material"),
        ({"kind": "hu_file", "path": "ct"}, "material"),
    ])
    def test_medium_keys_checked_against_its_kind(self, tmp_path, capsys,
                                                  medium, key):
        cfg = base_config(medium={**medium, key: 1})
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"medium (kind {medium['kind']}): unknown key '{key}'"
                in err)
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys):
        cfg = base_config(optimm={"iterations": 1})
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config: unknown key 'optimm' (known: " in err
        assert "did you mean 'optim'?" in err
        assert not (tmp_path / "o").exists()

    def test_lens_quantity_with_unit_suffix_accepted(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            optim={"iterations": 1},
            lens={"material": "form_clear", "t_min_um": 250, "t_max_mm": 1.5}))
        assert run(["design", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("lens, message", [
        ({"z_offset": 60}, "z_offset"),
        ({"z_offset": -1}, "z_offset"),
        ({"t_max_mm": 25}, "z_offset"),  # a 200-voxel lens
        ({"t_min_mm": 1.0, "t_max_mm": 0.5}, "v_min must be smaller"),
        ({"alpha": 0}, "alpha must be positive"),
        # thinner than one voxel: v_min = 1 > v_max = 0.8
        ({"t_min_um": 50, "t_max_um": 100}, "v_min must be smaller"),
        # 50 um on the 125 um grid: 0.4 grid spacings
        ({"fab_cutoff_um": 50}, "fab_cutoff 0.4 must be at least 1 voxel"),
    ])
    def test_bad_lens_geometry_exit_2(self, tmp_path, capsys, lens, message):
        # the shipped water demo has 64 slices and a 16-voxel lens
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "demos" / "single_focus_water.cfg")
        cfg["lens"].update(lens)
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert f"lens: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:marginal axial sampling")
    @pytest.mark.parametrize("spacing_um, t_max_mm, n_v", [
        (100, 1.0, 10), (50, 1.0, 20), (150, 1.5, 10),
        (125, 1.9, 16),     # the shipped configs: 15.2 voxels
    ])
    def test_lens_depth_of_a_whole_number_of_slices(self, spacing_um,
                                                    t_max_mm, n_v):
        # t_max/dz in floating point lands just above the whole number
        # for the first three (1 mm at 100 um is 10.000000000000002); the
        # slab is that many slices deep, not one more
        cfg = base_config(lens={"t_max_mm": t_max_mm})
        cfg["grid"] = {**cfg["grid"], "spacing_um": spacing_um}
        grid = cli.build_grid(cfg)
        _, design = cli.build_lens_params(cfg, grid, 0)
        assert design.n_v == n_v

    def test_negative_t_min_exit_2(self, tmp_path, capsys):
        # a phase design's lens is clamped to [t_min, t_max]: a negative
        # t_min used to exit 0 and export negative column thicknesses
        cfg = load_config(REPO / "demos" / "single_focus_water.cfg")
        cfg["method"] = "time_reversal"
        cfg["lens"]["t_min_um"] = -400
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert ("lens: t_min -0.0004 m must be non-negative"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["design", "gradcheck"])
    def test_fab_cutoff_reaches_the_design_chain(self, tmp_path, monkeypatch,
                                                 command):
        # the design carries lens.fab_cutoff, in grid spacings, into the
        # chain that the loop and the gradient check differentiate
        seen = []
        inner = optim.lens_objective

        def spy(prepared, target, design, cfg):
            seen.append(design.fab_cutoff)
            return inner(prepared, target, design, cfg)

        monkeypatch.setattr(optim, "lens_objective", spy)
        for lens, cutoff in (({}, 2.0), ({"fab_cutoff_um": 375}, 3.0)):
            cfg = base_config(lens=lens)
            if command == "gradcheck":
                cfg["gradcheck"] = {"n_coords": 1}
            assert run([command, "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "o")]) == 0
            assert seen[-1] == pytest.approx(cutoff)

    @pytest.mark.parametrize("flag, key", [(["--seed", "-1"], None),
                                           ([], -3)])
    def test_negative_seed_exit_2(self, tmp_path, capsys, flag, key):
        # a negative seed used to be reported as a lens error
        cfg = base_config() if key is None else base_config(seed=key)
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o"), *flag]) == 2
        seed = -1 if key is None else key
        assert (f"error: seed: {seed} must be non-negative"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_full_plane_must_be_a_boolean_exit_2(self, tmp_path, capsys,
                                                 value):
        # the string "false" used to run a full-plane source
        cfg = base_config(source={"full_plane": value,
                                  "aperture_diameter_mm": 2})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"source: full_plane: expected a boolean, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, value", [
        ("sweep", "sweep", {"lens": True}),
        ("design", "medium", {"kind": "hu_file", "path": 1.5}),
        # CSV lines, which np.loadtxt used to read as an inline lens
        ("sweep", "sweep", {"lens": ["0.001,0.001", "0.001,0.001"]}),
    ])
    def test_string_field_must_be_a_string_exit_2(self, tmp_path, capsys,
                                                  command, section, value):
        cfg = base_config(**{section: value})
        args = ["--axis", "perturbation"] if command == "sweep" else []
        assert run([command, "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o"), *args]) == 2
        key = "path" if section == "medium" else "lens"
        assert (f"{section}: {key}: expected a string, got {value[key]!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, material", [
        ("medium", {"sound_speed": None, "density": 1000}),
        ("lens", {"sound_speed": 2500, "density": [1100]}),
        # float(True) is 1.0: this used to run at a density of 1 kg/m^3
        ("lens", {"sound_speed": 2500, "density": True}),
        # a NaN attenuation used to pass and die with a traceback
        ("medium", {"sound_speed": 1500, "density": 1000,
                    "attenuation_coeff": float("nan")}),
    ])
    def test_material_field_not_a_number_exit_2(self, tmp_path, capsys,
                                                section, material):
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), "material": material}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert f"{section}: bad material spec" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", [
        ("medium", "material"),
        ("lens", "material"),
    ])
    def test_unknown_material_key_exit_2(self, tmp_path, capsys, section,
                                         key):
        # a misspelled attenuation_coeff must not become zero attenuation
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: {
            "sound_speed": 2591, "density": 1178, "attenuation_coef": 2.9}}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{section} material: unknown key 'attenuation_coef'" in err
        assert "did you mean 'attenuation_coeff'?" in err
        assert not (tmp_path / "o").exists()

    def test_jobs_is_a_sweep_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            run(["design", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", "2"])
        assert exc.value.code == 2

    def test_precision_flag_removed(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            run(["design", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--precision", "f32"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("section, key, value", [
        ("lens", "alpha", "x"),
        ("grid", "nx", "x"),
        ("grid", "spacing_um", "x"),
        ("source", "amplitude", "x"),
        ("target", "radius_um", "x"),
    ])
    def test_non_numeric_value_exit_2(self, tmp_path, capsys, section, key,
                                      value):
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: value}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"{section}: {key}: expected a number, got 'x'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "reflection_order", 2.5),
        ("optim", "iterations", 2.7),
        ("grid", "nx", 24.5),
        ("lens", "z_offset", 1.5),
        ("solver", "reflection_order", True),
        ("optim", "iterations", float("inf")),
    ])
    def test_non_integral_integer_key_exit_2(self, tmp_path, capsys, section,
                                             key, value):
        # int() used to truncate these: order 2.5 ran at order 2
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: value}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"{section}: {key}: expected an integer, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_integral_float_for_integer_key_accepted(self):
        ocfg = cli.build_config({"optim": {"iterations": 3.0}}, "optim")
        assert ocfg.iterations == 3

    def test_nan_angular_cutoff_exit_2(self, tmp_path, capsys):
        # JSON's NaN used to pass and disable the angular cutoff
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(
            solver={"reflection_order": 0, "angular_cutoff": float("nan")})))
        assert "NaN" in path.read_text()
        assert run(["design", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == 2
        assert ("solver: angular_cutoff: expected a finite number"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        # NaN thickness noise used to wipe the lens out of every row
        ("sweep", "sweep", "sigma_um", float("nan")),
        # these used to run the whole design and exit 3 ("optimization
        # diverged")
        ("design", "lens", "alpha", float("nan")),
        ("design", "optim", "beta_start", float("nan")),
        ("design", "optim", "lambda_energy", float("nan")),
        ("design", "optim", "learning_rate", float("nan")),
        ("design", "source", "amplitude", float("nan")),
        ("design", "optim", "learning_rate", float("inf")),
        ("design", "target", "focus_centers_mm", [[1.5, 1.5, float("-inf")]]),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, command,
                                      section, key, value):
        # Python's json reads NaN and Infinity
        cfg = base_config()
        cfg[section] = {**cfg.get(section, {}), key: value}
        args = [command, "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "o")]
        if command == "sweep":
            lens = tmp_path / "lens.csv"
            np.savetxt(lens, np.full((24, 24), 500e-6), delimiter=",")
            args += ["--axis", "perturbation", "--lens", str(lens)]
        assert run(args) == 2
        assert (f"{section}: {key}: expected a finite number"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        # float(True) is 1.0: these used to run at learning rate 1.0 and a
        # 1 um target radius
        ("optim", "learning_rate", True),
        ("target", "radius_um", True),
        ("target", "focus_centers_mm", [[1.5, 1.5, True]]),
    ])
    def test_boolean_for_number_key_exit_2(self, tmp_path, capsys, section,
                                           key, value):
        cfg = base_config()
        cfg[section] = {**cfg[section], key: value}
        path = write_config(tmp_path, cfg)
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"{section}: {key}: expected a number, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, base, keys", [
        ("target", "focus_centers",
         {"focus_centers_mm": [[1.5, 1.5, 3.0]],
          "focus_centers_um": [[1500, 1500, 3000]], "radius_um": 200}),
        ("medium", "center",
         {"kind": "phantom", "center_mm": [1.5, 1.5, 2.0],
          "center_um": [1500, 1500, 2000], "inner_radius_mm": 1.0,
          "thickness_mm": 0.25}),
        # design reads no thermal section: this used to run and exit 0
        ("thermal", "heat_time", {"heat_time_ms": 10, "heat_time_s": 0.01}),
    ])
    def test_conflicting_list_keys_exit_2(self, tmp_path, capsys, section,
                                          base, keys):
        # a list quantity given in two units is as ambiguous as a scalar,
        # and so are two keys of a section the command does not read
        path = write_config(tmp_path, base_config(**{section: keys}))
        assert run(["design", "--config", path,
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"conflicting keys for '{base}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_hu_header_without_dims_exit_2(self, tmp_path, capsys):
        grid = cli.build_grid(base_config())
        io.save_hu_volume(tmp_path / "ct", grid, np.zeros(grid.shape, int))
        header = tmp_path / "ct.json"
        fields = json.loads(header.read_text())
        del fields["dims"]
        header.write_text(json.dumps(fields))
        cfg = base_config(medium={"kind": "hu_file",
                                  "path": str(tmp_path / "ct")})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert "medium: 'dims'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_hu_payload_with_a_stray_byte_exit_2(self, tmp_path, capsys):
        # the payload used to be read up to its last whole voxel
        grid = cli.build_grid(base_config())
        io.save_hu_volume(tmp_path / "ct", grid, np.zeros(grid.shape, int))
        raw = tmp_path / "ct.raw"
        raw.write_bytes(raw.read_bytes() + b"\0")
        cfg = base_config(medium={"kind": "hu_file",
                                  "path": str(tmp_path / "ct")})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert ("raw payload size does not match the header"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("kind", [["phantom"], {}])
    def test_medium_kind_that_is_not_a_name_exit_2(self, tmp_path, capsys,
                                                   kind):
        # an unhashable kind used to end in a TypeError traceback
        cfg = base_config(medium={"kind": kind})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert (f"medium: unknown kind '{kind}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_hu_volume_at_another_spacing_exit_2(self, tmp_path, capsys):
        # the shape of the config grid, recorded at 100 um: it used to be
        # read as-is on the 125 um grid
        other = GridSpec(24, 24, 32, 100e-6, 100e-6, 100e-6, 2e6)
        io.save_hu_volume(tmp_path / "ct", other, np.zeros(other.shape, int))
        cfg = base_config(medium={"kind": "hu_file",
                                  "path": str(tmp_path / "ct")})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 2
        assert ("medium: HU volume header does not match config grid"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_hu_volume_at_another_frequency_accepted(self, tmp_path):
        # a CT volume's frequency plays no part in the run
        other = GridSpec(24, 24, 32, 125e-6, 125e-6, 125e-6, 1e6)
        io.save_hu_volume(tmp_path / "ct", other, np.zeros(other.shape, int))
        cfg = base_config(medium={"kind": "hu_file",
                                  "path": str(tmp_path / "ct")},
                          optim={"iterations": 1})
        assert run(["design", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]) == 0


class TestOnePreparedMediumPerRun:
    """`design`, with every method, and `gradcheck` prepare the medium
    once, with the lens slab, and release the base medium before the
    first run: every field of the call runs on that one prepared slab,
    in complex64 for `design` and in complex128 for `gradcheck`."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"prepare": 0, "propagate": 0}
        built, alive, dtypes = [], [], set()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        # every binding of the two solver entry points in the package
        modules = [m for n, m in sys.modules.items()
                   if n == "sonolens" or n.startswith("sonolens.")]
        for name in calls:
            fn = getattr(solver, name)
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        build_medium, forward = cli.build_medium, solver.PreparedMedium._forward

        def recording(*args):
            medium = build_medium(*args)
            built.append(weakref.ref(medium))
            return medium

        def checking(self, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            dtypes.add(self.dtype)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(cli, "build_medium", recording)
        monkeypatch.setattr(solver.PreparedMedium, "_forward", checking)
        return calls, built, alive, dtypes

    @pytest.mark.parametrize("method", ["thickness", "phase", "time_reversal"])
    def test_design(self, tmp_path, monkeypatch, method):
        calls, built, alive, dtypes = self.spy(monkeypatch)
        cfg = write_config(tmp_path, base_config(
            method=method, solver={"reflection_order": 2}))
        assert run(["design", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0
        assert calls == {"prepare": 1, "propagate": 0}
        assert len(built) == 1 and alive and not any(alive)
        assert dtypes == {np.dtype(np.complex64)}

    def test_gradcheck(self, tmp_path, monkeypatch):
        calls, built, alive, dtypes = self.spy(monkeypatch)
        cfg = write_config(tmp_path, {"gradcheck": {"n_coords": 1}})
        assert run(["gradcheck", "--config", cfg]) == 0
        assert calls == {"prepare": 1, "propagate": 0}
        assert len(built) == 1 and alive and not any(alive)
        assert dtypes == {np.dtype(np.complex128)}


class TestImpossibleFocusExit2:
    """A focus that is no voxel of the grid, or one that time reversal
    cannot march back from, exits 2 before any field is computed."""

    def demo_config(self, tmp_path, center_mm, method="thickness"):
        cfg = load_config(REPO / "demos" / "single_focus_water.cfg")
        cfg["target"] = {"focus_centers_mm": [center_mm], "radius_um": 500}
        cfg["method"] = method
        return write_config(tmp_path, cfg)

    @pytest.mark.parametrize("command", ["design", "sweep", "evaluate"])
    def test_focus_outside_the_grid(self, tmp_path, capsys, command):
        # x = 6.2 mm is voxel 50 of the 48 (6 mm) of the demo grid, while
        # the 500 um sphere around it still reaches into the grid
        cfg = self.demo_config(tmp_path, [6.2, 3.0, 5.0])
        grid = cli.build_grid(load_config(cfg))
        np.savetxt(tmp_path / "lens.csv", np.zeros((grid.nx, grid.ny)),
                   delimiter=",")
        io.save_field(tmp_path / "f",
                      ComplexField(np.ones(grid.shape, complex), grid))
        extra = {"design": [],
                 "sweep": ["--axis", "material",
                           "--lens", str(tmp_path / "lens.csv")],
                 "evaluate": ["--field", str(tmp_path / "f")]}[command]
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out), *extra]) == 2
        assert ("target: focus center (50, 24, 40) is not a voxel of the "
                "(48, 48, 64) grid" in capsys.readouterr().err)
        assert not out.exists()

    def test_time_reversal_focus_on_the_source_slice(self, tmp_path, capsys):
        cfg = self.demo_config(tmp_path, [3.0, 3.0, 0.0], "time_reversal")
        out = tmp_path / "out"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 2
        assert ("target: focus (24, 24, 0) is degenerate"
                in capsys.readouterr().err)
        assert not out.exists()


class TestDefaultsComeFromTheLibrary:
    """The CLI passes only the keys a config gives: with the library's
    defaults patched, a config without the key gets the patched value."""

    PATCHED = {
        SolverConfig: (2, 0.5),
        OptimConfig: (0.5, 7, 0.1, 0.3, 2.0, 9.0),
        ThermalConfig: (5e-3, 95e-3, 3, 2e6, 0.01),
    }

    @pytest.fixture(autouse=True)
    def patched(self, monkeypatch):
        for cls, defaults in self.PATCHED.items():
            assert len(defaults) == len(cls.__init__.__defaults__)
            monkeypatch.setattr(cls.__init__, "__defaults__", defaults)

    def test_design(self, tmp_path, monkeypatch):
        seen = {}

        def design(prepared, target, design, cfg):
            seen.update(solver=prepared.cfg, optim=cfg)
            raise ConfigRead

        monkeypatch.setattr(optim, "optimize_lens_geometry", design)
        cfg = base_config()     # optim: iterations 3 only
        del cfg["solver"]
        with pytest.raises(ConfigRead):
            run(["design", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
        assert seen["solver"] == SolverConfig(2, 0.5)
        assert seen["optim"] == OptimConfig(0.5, 3, 0.1, 0.3, 2.0, 9.0)

    def test_evaluate_thermal(self, tmp_path, monkeypatch):
        seen = {}

        def simulate(p, medium, cfg, normalize_mask=None):
            seen["thermal"] = cfg
            raise ConfigRead

        monkeypatch.setattr(analysis, "bioheat_simulate", simulate)
        g = cli.build_grid(base_config())
        io.save_field(tmp_path / "f", ComplexField(np.ones(g.shape, complex), g))
        cfg = base_config(thermal={"n_cycles": 1})
        with pytest.raises(ConfigRead):
            run(["evaluate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--field", str(tmp_path / "f")])
        assert seen["thermal"] == ThermalConfig(5e-3, 95e-3, 1, 2e6, 0.01)

    def test_gradcheck(self, capsys, monkeypatch):
        # the built-in problem has no solver section, and no n_coords
        calls = []
        real = optim.gradcheck
        monkeypatch.setattr(optim, "gradcheck",
                            lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        assert run(["gradcheck"]) == 0
        assert "reflection order 2" in capsys.readouterr().out
        assert "n_coords" not in calls[0]


class TestSnapshot:
    """`resolved_config.json` records the effective value of every field
    of every section a run reads, defaults included."""

    def snapshot(self, tmp_path, monkeypatch, name, cfg=None):
        # design writes its snapshot before the first design iteration
        monkeypatch.setattr(optim, "optimize_lens_geometry", _config_read)
        out = tmp_path / name
        with pytest.raises(ConfigRead):
            run(["design", "--config",
                 write_config(tmp_path, cfg or base_config(), name + ".json"),
                 "--out", str(out)])
        return json.loads((out / "resolved_config.json").read_text())

    def test_a_changed_library_default_changes_the_hash(self, tmp_path,
                                                        monkeypatch):
        cfg = base_config()
        del cfg["solver"]
        before = self.snapshot(tmp_path, monkeypatch, "a", cfg)
        monkeypatch.setattr(SolverConfig.__init__, "__defaults__", (4, 0.9))
        after = self.snapshot(tmp_path, monkeypatch, "b", cfg)
        assert after["config_hash"] != before["config_hash"]
        assert after["effective"]["solver"] == {"reflection_order": 4,
                                                "angular_cutoff": 0.9}
        # what perfbench reads stays as it was
        assert after["grid"] == before["grid"] == {
            "nx": 24, "ny": 24, "nz": 32, "dx_m": 125e-6, "dy_m": 125e-6,
            "dz_m": 125e-6, "frequency_hz": 2e6, "c_ref": 1500.0}
        assert (after["target"]["focus_centers_mm"]
                == before["target"]["focus_centers_mm"] == [[1.5, 1.5, 3.0]])

    def test_every_field_of_the_sections_read(self, tmp_path, monkeypatch):
        snap = self.snapshot(tmp_path, monkeypatch, "a")
        effective = snap["effective"]
        assert sorted(effective) == ["grid", "lens", "medium", "method",
                                     "optim", "solver", "source", "target"]
        assert effective["method"] == "thickness"
        assert effective["optim"] == vars(OptimConfig(iterations=3))
        assert effective["medium"] == {"kind": "homogeneous", "material": {
            "sound_speed": 1500.0, "density": 1000.0,
            "attenuation_coeff": 0.0, "attenuation_power": 1.0}}
        assert effective["target"] == {
            "focus_centers": [[1.5e-3, 1.5e-3, 3e-3]],
            "radius": pytest.approx(2e-4)}
        # null: the library's default (fabrication's 2 dx)
        assert effective["lens"]["fab_cutoff"] is None

    def test_the_effective_values_are_a_config_of_the_same_run(
            self, tmp_path, monkeypatch):
        cfg = base_config(medium={"kind": "phantom",
                                  "center_mm": [1.5, 1.5, 2.0],
                                  "inner_radius_mm": 1.0,
                                  "thickness_mm": 0.25},
                          lens={"material": "veroclear", "t_max_mm": 1.5})
        first = self.snapshot(tmp_path, monkeypatch, "a", cfg)
        # a null is left to the library
        again = self.snapshot(tmp_path, monkeypatch, "b", {
            name: {k: v for k, v in sec.items() if v is not None}
            if isinstance(sec, dict) else sec
            for name, sec in first["effective"].items()})
        assert again["effective"] == first["effective"]
        assert again["grid"] == first["grid"]


def config_key_table():
    """The (section, key) pairs of the README's "Config keys" table."""
    text = (REPO / "README.md").read_text()
    table = text.split("### Config keys", 1)[1].split("\n###", 1)[0]
    pairs = set()
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[1].startswith("`"):
            continue
        section = cells[0].replace("`", "")
        pairs |= {(section, key) for key in re.findall(r"`(\w+)`", cells[1])}
    return pairs


# the unit suffixes the README names, with their SI scales
SUFFIXES = {
    "m": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "Hz": {"hz": 1.0, "khz": 1e3, "mhz": 1e6},
    "s": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "Pa": {"pa": 1.0, "kpa": 1e3, "mpa": 1e6},
}
QUANTITIES = [
    (name, cls, f) for name, cls in [
        *cli.SECTIONS.items(),
        *(("medium", cls) for cls in cli.MEDIUM_KINDS.values())]
    for f in dataclasses.fields(cls) if "unit" in f.metadata
]


class TestUnitSuffixes:
    """Every quantity of the schema takes the suffixes of its own unit,
    and only those."""

    def test_the_schema_has_quantities_of_every_unit(self):
        assert set(SUFFIXES) == set(cli.UNIT_SUFFIXES)
        assert {f.metadata["unit"] for _, _, f in QUANTITIES} == {
            *SUFFIXES, "m/s"}

    @pytest.mark.parametrize("name, cls, f", QUANTITIES,
                             ids=[f"{cls.__name__}.{f.name}"
                                  for _, cls, f in QUANTITIES])
    def test_own_unit_suffixes_read_in_si(self, name, cls, f):
        value = [1.5, 2.5, 3.5] if f.type.startswith("np.") else 1.5
        unset = dict.fromkeys(g.name for g in dataclasses.fields(cls))
        own = SUFFIXES.get(f.metadata["unit"], {})
        spellings = {f.name: 1.0,
                     **{f"{f.name}_{s}": scale for s, scale in own.items()},
                     **{f"{f.name}_{s.upper()}": scale
                        for s, scale in own.items()}}
        for key, scale in spellings.items():
            got = cli._read_fields({key: value}, name, cls, unset)[f.name]
            assert got == pytest.approx(np.asarray(value) * scale), key

    @pytest.mark.parametrize("name, cls, f", QUANTITIES,
                             ids=[f"{cls.__name__}.{f.name}"
                                  for _, cls, f in QUANTITIES])
    def test_suffix_of_another_unit_exit_2(self, tmp_path, capsys, name, cls,
                                           f):
        # c_ref_khz: 1500 used to run at c_ref = 1.5e6 m/s
        other = [s for unit, table in SUFFIXES.items()
                 if unit != f.metadata["unit"] for s in table]
        assert other
        for suffix in other:
            key = f"{f.name}_{suffix}"
            section = ({"kind": cls.kind} if name == "medium"
                       else base_config().get(name, {}))
            path = write_config(tmp_path, base_config(
                **{name: {**section, key: 1}}))
            assert run(["design", "--config", path,
                        "--out", str(tmp_path / "o")]) == 2, key
            assert f"unknown key '{key}'" in capsys.readouterr().err, key
            assert not (tmp_path / "o").exists()


class TestConfigKeysTable:
    def test_the_readme_table_lists_the_schema(self):
        schema = {("(top)", key) for key in cli.TOP_KEYS}
        for name, cls in cli.SECTIONS.items():
            schema |= {(name, key) for key in cli._match({}, name, cls)}
        for kind, cls in cli.MEDIUM_KINDS.items():
            schema |= {("medium" if key == "kind" else f"medium ({kind})", key)
                       for key in cli._match({}, "medium", cls)}
        assert config_key_table() == schema


class TestEvaluateCommand:
    def test_same_field_psnr_cap(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "d"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        ev = tmp_path / "ev"
        field = str(out / "field_fabrication")
        assert run(["evaluate", "--config", cfg, "--out", str(ev),
                    "--field", field, "--field2", field]) == 0
        report = json.loads((ev / "report.json").read_text())
        assert report["psnr_cross_domain"] == 300.0

    def test_foci_rows_match_seed_count(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["target"]["focus_centers_mm"] = [[1.0, 1.5, 3.0],
                                                  [2.0, 1.5, 3.0]]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "d"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "foci.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        assert rows.shape[0] == 2

    def test_grid_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "d"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        other = base_config()
        other["grid"]["nz"] = 40
        cfg2 = write_config(tmp_path, other, "cfg2.json")
        assert run(["evaluate", "--config", cfg2, "--out",
                    str(tmp_path / "ev"), "--field",
                    str(out / "field_fabrication")]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_frequency_mismatch_exit_2(self, tmp_path, capsys):
        # a 2 MHz field under a 1.5 MHz config: the bioheat model would
        # take the attenuation at the wrong frequency
        cfg = base_config(thermal={})
        cfg["grid"]["frequency_mhz"] = 1.5
        out = tmp_path / "ev"
        assert run(["evaluate", "--config", write_config(tmp_path, cfg),
                    "--out", str(out),
                    "--field", str(self.write_field(tmp_path))]) == 2
        assert "does not match config grid" in capsys.readouterr().err
        assert not out.exists()

    def write_field(self, tmp_path, grid=None, name="f"):
        g = grid or cli.build_grid(base_config())
        io.save_field(tmp_path / name,
                      ComplexField(np.ones(g.shape, complex), g))
        return tmp_path / name

    def test_field2_on_another_grid_exit_2(self, tmp_path, capsys):
        # the dims of the config grid, recorded at 100 um and 1 MHz: the
        # PSNR of the pair used to be reported (300 dB for this one)
        other = GridSpec(24, 24, 32, 100e-6, 100e-6, 100e-6, 1e6)
        out = tmp_path / "ev"
        assert run(["evaluate", "--config",
                    write_config(tmp_path, base_config()), "--out", str(out),
                    "--field", str(self.write_field(tmp_path)),
                    "--field2", str(self.write_field(tmp_path, other, "f2"))
                    ]) == 2
        assert ("evaluate: field2 header does not match config grid"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--field", "--field2"])
    def test_missing_field_exit_2(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, base_config())
        field = str(self.write_field(tmp_path))
        args = {"--field": field, "--field2": field, flag: str(tmp_path / "nope")}
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "ev"),
                    *(x for kv in args.items() for x in kv)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_truncated_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        prefix = self.write_field(tmp_path)
        raw = prefix.with_suffix(".raw")
        raw.write_bytes(raw.read_bytes()[:-8])
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "ev"),
                    "--field", str(prefix)]) == 2
        assert "size" in capsys.readouterr().err

    def test_malformed_field_header_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        prefix = self.write_field(tmp_path)
        prefix.with_suffix(".json").write_text("{\"dims\": ")
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "ev"),
                    "--field", str(prefix)]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("heat_time_ms", float("nan"), "heat_time_ms: expected a finite number"),
        ("cool_time_ms", float("nan"), "cool_time_ms: expected a finite number"),
        ("reference_peak_pressure_mpa", float("nan"),
         "reference_peak_pressure_mpa: expected a finite number"),
        ("reference_peak_pressure", 0, "reference_peak_pressure must be positive"),
        ("perfusion_rate", float("nan"), "perfusion_rate: expected a finite number"),
        ("perfusion_rate", -0.5, "perfusion_rate must be non-negative"),
    ])
    def test_bad_thermal_value_exit_2(self, tmp_path, capsys, key, value,
                                      message):
        # NaN passed the `<= 0` checks: a NaN heat time died with a
        # traceback, a NaN reference pressure wrote an all-NaN rise; a NaN
        # is now rejected as it is read
        cfg = write_config(tmp_path, base_config(
            thermal={"n_cycles": 1, "heat_time_ms": 1, "cool_time_ms": 1,
                     key: value}))
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "ev"),
                    "--field", str(self.write_field(tmp_path))]) == 2
        assert f"thermal: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_thermal_header_carries_the_config_hash(self, tmp_path):
        # every exported header carries the hash of the creating config;
        # thermal.json used to be the one without it
        cfg = write_config(tmp_path, base_config(
            thermal={"n_cycles": 1, "heat_time_ms": 1, "cool_time_ms": 1}))
        ev = tmp_path / "ev"
        assert run(["evaluate", "--config", cfg, "--out", str(ev),
                    "--field", str(self.write_field(tmp_path))]) == 0
        snapshot = json.loads((ev / "resolved_config.json").read_text())
        header = json.loads((ev / "thermal.json").read_text())
        assert header["config_hash"] == snapshot["config_hash"]
        assert (header["dtype"], header["units"]) == ("float32", "degC")

    def test_thermal_export(self, tmp_path):
        cfg_dict = base_config(thermal={"n_cycles": 1, "heat_time_ms": 1,
                                        "cool_time_ms": 1})
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "d"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        ev = tmp_path / "ev"
        assert run(["evaluate", "--config", cfg, "--out", str(ev),
                    "--field", str(out / "field_fabrication")]) == 0
        assert (ev / "thermal.raw").exists()
        header = json.loads((ev / "thermal.json").read_text())
        assert header["fields"] == ["temperature_rise"]


class TestSweepCommand:
    def design_lens(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "d"
        assert run(["design", "--config", cfg, "--out", str(out)]) == 0
        return cfg, str(out / "lens_thickness.csv")

    def test_zero_sigma_identical_rows(self, tmp_path):
        cfg, lens = self.design_lens(tmp_path)
        cfg_dict = base_config(sweep={"sigma": 0.0, "realizations": 3})
        cfg2 = write_config(tmp_path, cfg_dict, "sw.json")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg2, "--out", str(out),
                    "--axis", "perturbation", "--lens", lens,
                    "--jobs", "2"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 realizations
        values = {line.split(",", 1)[1] for line in lines[1:]}
        assert len(values) == 1  # all rows identical at sigma = 0

    def test_material_axis_default_variants(self, tmp_path):
        cfg, lens = self.design_lens(tmp_path)
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "material", "--lens", lens]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(cli.CLEAR_RESIN_VARIANTS)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["axis"] == "material"

    def write_flat_lens(self, tmp_path):
        path = tmp_path / "flat_lens.csv"
        np.savetxt(path, np.full((24, 24), 4 * 125e-6), delimiter=",")
        return str(path)

    def material_sweep(self, tmp_path, materials):
        cfg = write_config(tmp_path, base_config(sweep={"materials": materials}),
                           "sw.json")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "material",
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        return (out / "sweep.csv").read_text().strip().splitlines()

    def test_material_axis_identical_materials_identical_rows(self, tmp_path):
        lines = self.material_sweep(tmp_path, ["form_clear", "form_clear"])
        assert len(lines) == 3
        assert lines[1] == lines[2]
        # label "c=..,rho=.." then peak, leakage, uniformity, n_components
        values = [float(v) for v in lines[1].split(",")[2:]]
        assert values[0] > 0.0 and values[3] == 1.0

    def test_material_field_not_a_number_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(sweep={"materials": [
            {"sound_speed": 2500, "density": None}]}), "sw.json")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                    "--axis", "material",
                    "--lens", self.write_flat_lens(tmp_path)]) == 2
        assert "sweep: bad material spec" in capsys.readouterr().err

    def test_materials_must_be_a_list_exit_2(self, tmp_path, capsys):
        # a string used to be read one character at a time
        cfg = write_config(tmp_path, base_config(
            sweep={"materials": "form_clear"}), "sw.json")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "material",
                    "--lens", self.write_flat_lens(tmp_path)]) == 2
        assert ("sweep: materials: expected a list, got 'form_clear'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("axis, sweep, message", [
        ("material", {"sigma_um": "x"}, "sigma_um: expected a number"),
        ("material", {"realizations": 1.5}, "realizations: expected an "
                                            "integer"),
        ("perturbation", {"materials": "form_clear"},
         "materials: expected a list"),
    ])
    def test_the_section_is_read_whole_on_either_axis(
            self, tmp_path, capsys, axis, sweep, message):
        # the snapshot records every field of the section, so a bad value
        # of a key that the other axis uses exits 2 too
        cfg = write_config(tmp_path, base_config(sweep=sweep), "sw.json")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", axis,
                    "--lens", self.write_flat_lens(tmp_path)]) == 2
        assert f"sweep: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        # these used to run the cases in turn and exit 0
        cfg = write_config(tmp_path, base_config(sweep={"realizations": 1}))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "perturbation", "--jobs", jobs,
                    "--lens", self.write_flat_lens(tmp_path)]) == 2
        assert ("error: sweep: --jobs must be at least 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_material_axis_empty_list_header_only(self, tmp_path):
        lines = self.material_sweep(tmp_path, [])
        assert lines == ["case,peak_pressure,leakage_ratio,uniformity,"
                         "n_components"]

    def test_zero_realizations_header_only(self, tmp_path):
        cfg, lens = self.design_lens(tmp_path)
        cfg_dict = base_config(sweep={"realizations": 0})
        cfg2 = write_config(tmp_path, cfg_dict, "sw.json")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg2, "--out", str(out),
                    "--axis", "perturbation", "--lens", lens]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines == ["case,peak_pressure,leakage_ratio,uniformity,"
                         "n_components"]

    def test_the_base_lens_is_part_of_the_record(self, tmp_path):
        # two lenses at one path used to write one config_hash
        cfg = write_config(tmp_path, base_config(sweep={"realizations": 1}))
        lens = tmp_path / "lens.csv"
        records = []
        for voxels in (4, 8):
            np.savetxt(lens, np.full((24, 24), voxels * 125e-6),
                       delimiter=",")
            out = tmp_path / f"sw{voxels}"
            assert run(["sweep", "--config", cfg, "--out", str(out),
                        "--axis", "perturbation", "--lens", str(lens)]) == 0
            snap = json.loads((out / "resolved_config.json").read_text())
            manifest = json.loads((out / "manifest.json").read_text())
            digest = hashlib.sha256(lens.read_bytes()).hexdigest()
            assert snap["lens_sha256"] == manifest["lens_sha256"] == digest
            assert snap["effective"]["sweep"]["lens"] == str(lens)
            records.append(snap["config_hash"])
        assert records[0] != records[1]

    def test_the_digest_is_of_the_lens_the_cases_ran(self, tmp_path,
                                                     monkeypatch):
        # the lens file is rewritten after the sweep's first input read:
        # the recorded digest is still that of the bytes its cases ran
        cfg = write_config(tmp_path, base_config(sweep={"realizations": 1}))
        lens = tmp_path / "lens.csv"
        np.savetxt(lens, np.full((24, 24), 4 * 125e-6), delimiter=",")
        ran = lens.read_bytes()
        args = ["sweep", "--config", cfg, "--axis", "perturbation",
                "--lens", str(lens)]
        assert run([*args, "--out", str(tmp_path / "expected")]) == 0

        load, reads = cli._load_input, []

        def rewriting(*load_args):
            value = load(*load_args)
            if not reads:
                np.savetxt(lens, np.full((24, 24), 8 * 125e-6),
                           delimiter=",")
            reads.append(load_args)
            return value

        monkeypatch.setattr(cli, "_load_input", rewriting)
        out = tmp_path / "sw"
        assert run([*args, "--out", str(out)]) == 0
        assert lens.read_bytes() != ran
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["lens_sha256"] == hashlib.sha256(ran).hexdigest()
        assert ((out / "sweep.csv").read_text()
                == (tmp_path / "expected" / "sweep.csv").read_text())

    def test_missing_lens_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                    "--axis", "perturbation"]) == 2
        assert "base design" in capsys.readouterr().err

    @pytest.mark.parametrize("lens", ["non-numeric", "directory"])
    def test_unreadable_lens_exit_2(self, tmp_path, capsys, lens):
        path = tmp_path / "lens.csv"
        if lens == "directory":
            path.mkdir()
        else:
            path.write_text("0.1,0.2\nx,0.3\n")
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "perturbation", "--lens", str(path)]) == 2
        assert "error: sweep: " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sigma_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(sweep={"sigma_um": -5}))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "perturbation",
                    "--lens", self.write_flat_lens(tmp_path)]) == 2
        assert "sweep: sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("voxels, code, message", [
        (16, 0, None),  # 2 mm fills the 16 slices of t_max 1.9 mm
        (24, 2, "lens thickness 0.003 m is more than the 16 slices of "
                "t_max 0.0019 m"),
        (-1, 2, "lens thickness -0.000125 m"),
    ])
    def test_lens_must_fit_the_slab(self, tmp_path, capsys, voxels, code,
                                    message):
        thickness = np.full((24, 24), 4 * 125e-6)
        thickness[3, 5] = voxels * 125e-6
        lens = tmp_path / "lens.csv"
        np.savetxt(lens, thickness, delimiter=",")
        cfg = write_config(tmp_path, base_config(sweep={"realizations": 1}))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                    "--axis", "perturbation", "--lens", str(lens)]) == code
        if message is not None:
            assert f"sweep: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, sweep", [
        ("perturbation", {"realizations": 3}),
        ("material", {"materials": ["form_clear", "form_clear", "veroclear"]}),
    ])
    def test_one_prepared_slab_per_sweep(self, tmp_path, monkeypatch, axis,
                                         sweep):
        # the medium is prepared once per sweep call, in complex64; each
        # material's copy of it shares the prepared kernel, screens and
        # coefficients
        prepared, copies = [], []
        with_lens = solver.PreparedMedium.with_lens

        def counting_prepare(*args, **kwargs):
            prepared.append(solver.prepare(*args, **kwargs))
            return prepared[-1]

        def recording_with_lens(self, lens_mat):
            copies.append(with_lens(self, lens_mat))
            return copies[-1]

        monkeypatch.setattr(cli, "prepare", counting_prepare)
        monkeypatch.setattr(solver.PreparedMedium, "with_lens",
                            recording_with_lens)
        cfg = write_config(tmp_path, base_config(sweep=sweep))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", axis,
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        assert len(prepared) == 1 and prepared[0].dtype == np.complex64
        assert len((out / "sweep.csv").read_text().splitlines()) == 4
        assert copies
        for copy in copies:
            assert copy.H is prepared[0].H
            assert copy.screen is prepared[0].screen
            assert copy.coeff is prepared[0].coeff

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_prepared_medium_alive_at_a_time(self, tmp_path, monkeypatch,
                                                 jobs):
        # the slab from `prepare` is the one copy kept across cases: in
        # turn, each case's `with_lens` copy for another material is
        # released before the next case makes its own, so at every call
        # after `prepare`'s only that slab is alive; at --jobs 2 the
        # cases' copies are made in the workers, none in this process
        made, alive = [], []
        with_lens = solver.PreparedMedium.with_lens

        def tracking_with_lens(self, lens_mat):
            alive.append([i for i, ref in enumerate(made)
                          if ref() is not None])
            copy = with_lens(self, lens_mat)
            made.append(weakref.ref(copy))
            return copy

        monkeypatch.setattr(solver.PreparedMedium, "with_lens",
                            tracking_with_lens)
        cfg = write_config(tmp_path,
                           base_config(solver={"reflection_order": 2}))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                    "--axis", "material", "--jobs", jobs,
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        # one default variant is the lens section's own form_clear
        copies = sum(m != cli.FORM_CLEAR for m in cli.CLEAR_RESIN_VARIANTS)
        assert copies == 3
        assert alive == [[]] + [[0]] * (copies if jobs == "1" else 0)

    @pytest.mark.parametrize("medium", [
        {"kind": "homogeneous", "material": "water"},
        {"kind": "phantom", "center_mm": [1.5, 1.5, 3.0],
         "inner_radius_mm": 0.8, "thickness_mm": 0.25},
    ])
    @pytest.mark.parametrize("axis", ["perturbation", "material"])
    def test_cases_run_without_the_base_medium_and_target(
            self, tmp_path, monkeypatch, axis, medium):
        # the sweep reads only the focus centres of the target and only the
        # prepared slab of the medium: both, and their full-grid arrays,
        # are released before the first case runs
        built = []

        def recording(build):
            def wrapped(*args, **kwargs):
                obj = build(*args, **kwargs)
                arrays = ((obj.c, obj.rho, obj.att, obj.att_power)
                          if isinstance(obj, AcousticMedium)
                          else (obj.a_target,))
                built.extend(weakref.ref(x) for x in (obj, *arrays))
                return obj
            return wrapped

        for name in ("make_homogeneous", "make_skull_phantom", "build_target"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        alive = []
        sweep_case = cli._sweep_case

        def checking_case(*args):
            alive.append(sum(ref() is not None for ref in built))
            return sweep_case(*args)

        monkeypatch.setattr(cli, "_sweep_case", checking_case)
        cfg = write_config(tmp_path, base_config(
            medium=medium, sweep={"realizations": 2,
                                  "materials": ["form_clear", "veroclear"]}))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                    "--axis", axis, "--jobs", "1",
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        assert len(built) == 7          # the medium, the target, their arrays
        assert alive == [0, 0]

    @pytest.mark.parametrize("axis, sweep, n_cases", [
        pytest.param("perturbation", {"realizations": 6}, 6,
                     id="perturbation"),
        # the four default variants, each its own material
        pytest.param("material", {}, 4, id="material"),
    ])
    def test_jobs_pickle_the_prepared_medium_once_per_chunk(
            self, tmp_path, monkeypatch, axis, sweep, n_cases):
        # the cases on 2 workers are 2 chunks: the prepared medium is sent
        # to the workers twice, not once per case or per material
        pickled = []
        getstate = solver.PreparedMedium.__getstate__

        def counting_getstate(prepared):
            pickled.append(1)
            return getstate(prepared)

        monkeypatch.setattr(solver.PreparedMedium, "__getstate__",
                            counting_getstate)
        cfg = write_config(tmp_path, base_config(sweep=sweep))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", axis, "--jobs", "2",
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + n_cases
        assert len(pickled) == 2

    def test_jobs_start_no_more_workers_than_cases(self, tmp_path,
                                                   monkeypatch):
        # with the fork start method the executor starts all of its
        # workers at the first submit: 2 cases at --jobs 6 start 2
        started = []

        class CountingExecutor(cli.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                started.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingExecutor)
        cfg = write_config(tmp_path, base_config(sweep={"realizations": 2}))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", "perturbation", "--jobs", "6",
                    "--lens", self.write_flat_lens(tmp_path)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert len(started) == 1 and 0 < started[0] <= 2


def embedded_lens_rows(cfg_path, lens_csv, cases):
    """sweep.csv rows computed the way the sweep once did: each case
    embeds its (perturbed) lens into a copy of the medium and propagates
    the whole medium from scratch. cases: (label, material, sigma, seed),
    seed None for an unperturbed lens.

    The embedded medium is prepared as the sweep prepares its medium, in
    complex64 with the lens slab, and run with an empty occupancy, so the
    slab keeps the embedded properties. Its slab pairs keep their r
    planes, zero or not, as the sweep's do, so both march the same
    segments. Prepared without the slab, a run continues a segment across
    a slab pair of equal impedance, and at complex64 that other order of
    the same products moves the rows' ninth digit."""
    cfg = load_config(cfg_path)
    grid = cli.build_grid(cfg)
    src, medium = cli.build_source(cfg, grid), cli.build_medium(cfg, grid)
    seeds = [tuple(c) for c in cli.build_target(cfg, grid).focus_centers]
    section, design = cli.build_lens_params(cfg, grid, 0)
    n_v = design.n_v
    lens = lensmap.binarize(lensmap.LensVolume(
        np.zeros((grid.nx, grid.ny, n_v)),
        np.loadtxt(lens_csv, delimiter=",") / grid.dz,
        design.v_min, float(n_v)))
    rows = []
    for label, mat, sigma, seed in cases:
        case_lens = lens if seed is None else analysis.perturb_lens(
            lens, sigma, grid.dz, seed=seed)
        embedded = embed_lens(medium, case_lens.occupancy, mat,
                              section.z_offset)
        field_ = solver.prepare(
            src, embedded, cli.build_config(cfg, "solver", SolverConfig),
            mat, section.z_offset, n_v, np.complex64,
        ).field_only(np.zeros_like(case_lens.occupancy))
        report = analysis.focal_report(field_, seeds)
        if report.foci:
            values = [max(f.peak_pressure for f in report.foci),
                      report.leakage_ratio, report.uniformity,
                      report.n_components]
        else:
            values = [float(np.abs(field_.values).max()), np.nan, np.nan, 0]
        rows.append(f"{label}," + ",".join(f"{v:.9g}" for v in values))
    return rows


class TestSweepMatchesTheEmbeddedLens:
    # a 16 x 16 x 32 grid at reflection order 4; the lens slab (8 slices
    # of t_max 1 mm) is water and a bone shell lies behind it. The concave
    # lens below puts a focus at the target in every case, so the rows
    # carry focal metrics, not the no-focus fallback.
    CONFIG = {
        "grid": {"nx": 16, "ny": 16, "nz": 32, "spacing_um": 125,
                 "frequency_mhz": 2},
        "source": {"full_plane": True},
        "medium": {"kind": "phantom", "center_mm": [1.0, 1.0, 2.6],
                   "inner_radius_mm": 0.8, "thickness_mm": 0.25},
        "target": {"focus_centers_mm": [[1.0, 1.0, 3.375]],
                   "radius_um": 200},
        "solver": {"reflection_order": 4},
        "lens": {"t_max_mm": 1.0},
        # form_clear twice: its rows stay in case order around the others
        "sweep": {"sigma_um": 100, "realizations": 3,
                  "materials": ["form_clear", "veroclear",
                                {"sound_speed": 2200, "density": 1100,
                                 "attenuation_coeff": 5.0,
                                 "attenuation_power": 1.1}, "form_clear"]},
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("axis", ["perturbation", "material"])
    def test_rows_equal_the_embedded_lens_rows(self, tmp_path, axis, jobs):
        cfg = write_config(tmp_path, self.CONFIG)
        lens = tmp_path / "lens.csv"
        r2 = ((np.arange(16) - 7.5) ** 2)[:, None] + (np.arange(16) - 7.5) ** 2
        voxels = np.round(1 + 7 * r2 / r2.max())
        np.savetxt(lens, voxels * 125e-6, delimiter=",")
        if axis == "perturbation":
            mat = cli.FORM_CLEAR
            cases = [(f"seed={i}", mat, 100e-6, i) for i in range(3)]
        else:
            mats = [cli._material(m, "sweep")
                    for m in self.CONFIG["sweep"]["materials"]]
            cases = [(f"c={m.sound_speed:g},rho={m.density:g}", m, 0.0, None)
                     for m in mats]
        out = tmp_path / "sw"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--axis", axis, "--lens", str(lens), "--seed", "0",
                    "--jobs", str(jobs)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",1,1") for row in rows)  # one focus found
        assert rows == embedded_lens_rows(cfg, str(lens), cases)


class TestBackprojectCommand:
    def make_plane(self, tmp_path, grid, plane):
        io.save_plane(tmp_path / "plane", plane, grid)
        return str(tmp_path / "plane")

    def grid64(self):
        return GridSpec(64, 64, 32, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)

    def cfg64(self, tmp_path, **overrides):
        cfg = base_config(**overrides)
        cfg["grid"].update({"nx": 64, "ny": 64})
        return write_config(tmp_path, cfg)

    def test_zero_plane_zero_volume(self, tmp_path):
        g = self.grid64()
        cfg = self.cfg64(tmp_path)
        plane = self.make_plane(tmp_path, g, np.zeros((64, 64), complex))
        out = tmp_path / "bp"
        assert run(["backproject", "--config", cfg, "--out", str(out),
                    "--plane", plane, "--distances", "1,2"]) == 0
        data = np.fromfile(out / "backprojection.raw", dtype="<f4")
        assert data.size == 64 * 64 * 2 * 2
        assert np.all(data == 0.0)

    def test_converging_plane_peaks_at_focal_distance(self, tmp_path):
        # a converging spherical profile refocuses at its design distance
        g = self.grid64()
        cfg = self.cfg64(tmp_path)
        xs = (np.arange(64) - 32) * g.dx
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        r2 = X**2 + Y**2
        F = 2e-3
        ap = (np.sqrt(r2) < 3e-3).astype(float)
        plane = ap * np.exp(-1j * g.k0 * (np.sqrt(r2 + F**2) - F))
        prefix = self.make_plane(tmp_path, g, plane)
        out = tmp_path / "bp"
        assert run(["backproject", "--config", cfg, "--out", str(out),
                    "--plane", prefix,
                    "--distances=-1,-1.5,-2,-2.5,-3"]) == 0
        inter = np.fromfile(out / "backprojection.raw", dtype="<f4")
        vol = (inter[0::2] + 1j * inter[1::2]).reshape(64, 64, 5)
        peaks = np.abs(vol).max(axis=(0, 1))
        assert peaks.argmax() == 2  # the -2 mm slice

    def test_distances_flag_is_in_the_run_record(self, tmp_path):
        # runs that differ only in --distances used to share a hash
        g = self.grid64()
        cfg = self.cfg64(tmp_path)
        plane = self.make_plane(tmp_path, g, np.ones((64, 64), complex))
        snaps = []
        for name, flag in (("a", "1,2"), ("b", "3")):
            out = tmp_path / name
            assert run(["backproject", "--config", cfg, "--out", str(out),
                        "--plane", plane, "--distances", flag]) == 0
            snaps.append(json.loads(
                (out / "resolved_config.json").read_text()))
        a, b = snaps
        assert a["config_hash"] != b["config_hash"]
        assert a["effective"]["backproject"] == {"distances": [1e-3, 2e-3]}
        assert b["effective"]["backproject"] == {"distances": [3e-3]}

    def test_empty_distances_exit_2(self, tmp_path, capsys):
        g = self.grid64()
        cfg = self.cfg64(tmp_path)
        plane = self.make_plane(tmp_path, g, np.ones((64, 64), complex))
        assert run(["backproject", "--config", cfg,
                    "--out", str(tmp_path / "bp"), "--plane", plane,
                    "--distances", ""]) == 2
        assert "distance" in capsys.readouterr().err
        assert run(["backproject", "--config", cfg,
                    "--out", str(tmp_path / "bp"), "--plane", plane,
                    "--distances", "1,x"]) == 2
        assert "backproject: --distances" in capsys.readouterr().err

    @pytest.mark.parametrize("distances", [["--distances", "1,nan"], []])
    def test_nan_distance_exit_2(self, tmp_path, capsys, distances):
        # a NaN distance used to write an all-NaN volume
        g = self.grid64()
        cfg = self.cfg64(tmp_path, backproject={"distances_mm": [float("nan")]})
        plane = self.make_plane(tmp_path, g, np.ones((64, 64), complex))
        assert run(["backproject", "--config", cfg,
                    "--out", str(tmp_path / "bp"), "--plane", plane,
                    *distances]) == 2
        # the config's NaN is rejected as it is read, the flag's by
        # backproject
        assert (("backproject: distance is NaN or beyond the domain depth"
                 if distances else
                 "backproject: distances_mm: expected a finite number")
                in capsys.readouterr().err)
        assert not (tmp_path / "bp").exists()

    def test_conflicting_distance_keys_exit_2(self, tmp_path, capsys):
        g = self.grid64()
        cfg = self.cfg64(tmp_path, backproject={"distances_mm": [1, 2],
                                                "distances_um": [1000]})
        plane = self.make_plane(tmp_path, g, np.ones((64, 64), complex))
        assert run(["backproject", "--config", cfg,
                    "--out", str(tmp_path / "bp"), "--plane", plane]) == 2
        assert ("conflicting keys for 'distances'"
                in capsys.readouterr().err)

    def test_missing_plane_exit_2(self, tmp_path):
        cfg = self.cfg64(tmp_path)
        assert run(["backproject", "--config", cfg,
                    "--out", str(tmp_path / "bp")]) == 2

    def test_plane_on_another_grid_exit_2(self, tmp_path, capsys):
        # 64 x 64 like the config grid, but recorded at 100 um and 1 MHz
        other = GridSpec(64, 64, 32, 100e-6, 100e-6, 100e-6, 1e6)
        plane = self.make_plane(tmp_path, other, np.ones((64, 64), complex))
        out = tmp_path / "bp"
        assert run(["backproject", "--config", self.cfg64(tmp_path),
                    "--out", str(out), "--plane", plane,
                    "--distances", "1"]) == 2
        assert ("backproject: plane header does not match config grid"
                in capsys.readouterr().err)
        assert not out.exists()


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        assert "gradcheck" in capsys.readouterr().out

    def test_config_sections_replace_the_built_in_problem(self, tmp_path,
                                                           monkeypatch):
        # the built-in problem goes through the same build_* readers as a
        # user config; a user section replaces only its own section
        from sonolens import optim

        seen = []
        inner = optim.lens_objective

        def spy(prepared, target, *rest, **kw):
            seen.append((prepared, target))
            return inner(prepared, target, *rest, **kw)

        monkeypatch.setattr(optim, "lens_objective", spy)
        assert run(["gradcheck", "--config", write_config(tmp_path, {
            "gradcheck": {"n_coords": 1}})]) == 0
        prepared, target = seen[-1]
        assert prepared.grid.shape == (16, 16, 24)
        assert target.focus_centers == [(8, 8, 18)]
        # a grid without a target keeps the built-in focus (not the centre)
        assert run(["gradcheck", "--config", write_config(tmp_path, {
            "grid": base_config()["grid"], "gradcheck": {"n_coords": 1}})]) == 0
        prepared, target = seen[-1]
        assert prepared.grid.shape == (24, 24, 32)
        assert target.focus_centers == [(8, 8, 18)]

    @pytest.mark.parametrize("key, value, message", [
        # these used to pass with a max relative error of 0 (no coordinate
        # checked, or a NaN error dropped)...
        ("n_coords", 0, "n_coords 0 must be at least 1"),
        ("tolerance", float("nan"), "tolerance: expected a finite number"),
        ("beta", float("nan"), "beta: expected a finite number"),
        # ... and these to end in a traceback
        ("n_coords", -1, "n_coords -1 must be at least 1"),
        ("step", 0, "step 0 must be positive"),
        ("beta", 0, "beta 0 must be positive"),
        ("tolerance", 0, "tolerance 0 must be positive"),
    ])
    def test_bad_gradcheck_value_exit_2(self, tmp_path, capsys, key, value,
                                        message):
        cfg = write_config(tmp_path, {"gradcheck": {"n_coords": 1,
                                                    key: value}})
        assert run(["gradcheck", "--config", cfg]) == 2
        assert f"gradcheck: {message}" in capsys.readouterr().err

    def test_impossible_tolerance_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"gradcheck": {"tolerance": 1e-16,
                                                    "n_coords": 4}})
        assert run(["gradcheck", "--config", cfg]) == 3
        assert "FAIL" in capsys.readouterr().err

    def test_loss_weights_come_from_the_optim_section(self, tmp_path,
                                                      monkeypatch):
        from sonolens import optim

        seen = []
        inner = optim.loss_and_gradient

        def spy(values, target, lambda_energy, lambda_balance):
            seen.append((lambda_energy, lambda_balance))
            return inner(values, target, lambda_energy, lambda_balance)

        monkeypatch.setattr(optim, "loss_and_gradient", spy)
        cfg = write_config(tmp_path, {"optim": {"lambda_balance": 2},
                                      "gradcheck": {"n_coords": 1}})
        assert run(["gradcheck", "--config", cfg]) == 0
        assert seen and set(seen) == {(0.2, 2.0)}
