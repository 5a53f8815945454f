"""Configuration-driven command line for reproducible design and analysis runs.

Subcommands: design, evaluate, sweep, backproject, gradcheck.
Configs are JSON with ``//`` line comments allowed; every physical
quantity carries its unit as a key suffix (``spacing_um``,
``radius_mm``, ``frequency_mhz``). A key that no section knows is a
configuration error, in every section and at the top level. A key that
a config leaves out is not passed on, so a default that the library
holds is written only there. Each run writes a snapshot of the config
as given, comment-free, with `grid` in SI and the seed added but no
default filled in (ROADMAP item 11(a)), whose hash is embedded in the
headers of all exported arrays. Exit codes: 0 success, 2 configuration
error, 3 numeric failure.

`design`, `gradcheck` and `sweep` share one set-up, `_prepared_problem`,
which prepares the medium once with the lens slab of the lens section
(`solver.prepare`); the base medium never leaves it, and `sweep` keeps
only the target's focus centres. Every field of a design comes from that
slab and its one solver config: the lens runs of the design loop and of
fabrication, and the base-medium runs (no occupancy) of the phase
methods. Each sweep case, a material variant or a thickness-noise
realization, is one `PreparedMedium.field_only` run of the lens slab: no
adjoint follows, so no cache is kept. All cases go through one map, in
turn or one chunk per worker; a case of another material than the lens
section's runs on its own `PreparedMedium.with_lens` copy of the slab.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, baselines, io, lensmap, optim
from .grid import (
    AGILUS30, BONE, FORM_CLEAR, VEROCLEAR, WATER,
    GridSpec, MaterialProperties, SourceSpec,
)
from .lensmap import DesignField, LensVolume
from .medium import make_homogeneous, make_skull_phantom, ingest_hu_volume
from .optim import OptimConfig, TargetSpec
from .solver import SolverConfig, apply_phase_delays, backproject, prepare
# unused here: bound only for perfbench/tracer.py until ROADMAP item 5(e)
from .solver import propagate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

MATERIALS = {
    "water": WATER,
    "form_clear": FORM_CLEAR,
    "veroclear": VEROCLEAR,
    "agilus30": AGILUS30,
    "bone": BONE,
}

# Published measurement variants of the clear SLA resin used for the
# default material-robustness sweep (sound speed, density); attenuation
# is held at the catalog value.
CLEAR_RESIN_VARIANTS = [
    MaterialProperties(2424.0, 1100.0, 2.922, 1.044),
    MaterialProperties(2440.0, 1162.0, 2.922, 1.044),
    MaterialProperties(2591.0, 1178.0, 2.922, 1.044),
    MaterialProperties(2700.0, 1180.0, 2.922, 1.044),
]


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class _Section(dict):
    """A config section that knows its name, for error messages."""

    def __init__(self, name: str, items=()):
        super().__init__(items)
        self.name = name


# ------------------------------------------------------------------ config

_UNIT_SCALE = {
    "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6,
    "s": 1.0, "ms": 1e-3, "us": 1e-6,
    "pa": 1.0, "kpa": 1e3, "mpa": 1e6,
}


# a JSON string token (escapes included) or a // comment to the end of line
_STRING_OR_COMMENT = re.compile(r'"(?:[^"\\\n]|\\.)*"|//[^\n]*')


def strip_comments(text: str) -> str:
    """Remove // line comments outside of string literals."""
    return _STRING_OR_COMMENT.sub(
        lambda m: "" if m.group().startswith("//") else m.group(), text)


def load_config(path) -> dict:
    """Parse a config file and check its keys (see `check_config`)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(strip_comments(path.read_text()))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    check_config(cfg)
    return cfg


def _has_bool(value) -> bool:
    """Whether `value`, or an item of any list nested in it, is a boolean."""
    if isinstance(value, list):
        return any(_has_bool(item) for item in value)
    return isinstance(value, bool)


def _number(section: dict, key: str, default=None, kind=float):
    """`kind` of `section[key]` (or `default`); a value that is not a
    number, holds a boolean, a NaN or an infinity (in a list too; JSON's
    NaN and Infinity parse) or, for `int`, has a fraction is a config
    error naming the section and the key."""
    value = section.get(key, default)
    where = f"{section.name}: " if isinstance(section, _Section) else ""
    if _has_bool(value) or (kind is int and isinstance(value, float)
                            and not value.is_integer()):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}{key}: expected {expected}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}{key}: expected a number, "
                          f"got {value!r}") from None
    if not np.all(np.isfinite(number)):
        raise ConfigError(f"{where}{key}: expected a finite number, "
                          f"got {value!r}")
    return number


def _given(section: dict, key: str, kind=float) -> dict:
    """{key: its number} if `section` gives `key`, else {} (the default)."""
    return {key: _number(section, key, kind=kind)} if key in section else {}


def _read_fields(section: dict, cls, quantities=()) -> dict:
    """The fields of the dataclass `cls` that `section` gives, each read as
    its field's type (int or float; a quantity in SI from any unit
    suffix); a field with a default is left out unless given."""
    given = {}
    for f in fields(cls):
        kind = int if f.type in (int, "int") else float
        if f.name in quantities:
            if (value := get_quantity(section, f.name, kind=kind)) is not None:
                given[f.name] = value
        elif f.name in section or f.default is MISSING:
            given[f.name] = _number(section, f.name, kind=kind)
    return given


def _unit_keys(section: dict, base: str):
    """(key, SI scale) of each key of `section` that names `base`."""
    for key in section:
        suffix = key[len(base) + 1 :].lower()
        if key == base:
            yield key, 1.0
        elif key.startswith(base + "_") and suffix in _UNIT_SCALE:
            yield key, _UNIT_SCALE[suffix]


def get_quantity(section: dict, base: str, default=None, required=False,
                 kind=float):
    """Fetch `base` with any recognized unit suffix, converted to SI; `kind`
    reads the value (`_floats` for lists, or lists of lists, of numbers)."""
    hits = [(key, _number(section, key, kind=kind) * scale)
            for key, scale in _unit_keys(section, base)]
    if len(hits) > 1:
        names = ", ".join(k for k, _ in hits)
        raise ConfigError(f"conflicting keys for '{base}': {names}")
    if hits:
        return hits[0][1]
    if required:
        raise ConfigError(f"{base}: required")
    return default


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _section(cfg: dict, name: str, required=True) -> _Section:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"{name}: required")
        return _Section(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    return _Section(name, sec)


def _check_keys(sec: dict, name: str, known, quantities=()) -> None:
    """Reject keys of section `name` that are neither in `known` nor a
    quantity of `quantities` (bare SI or with a unit suffix)."""
    for key in sec:
        if key in known or key in quantities:
            continue
        base, _, suffix = key.rpartition("_")
        if base in quantities and suffix.lower() in _UNIT_SCALE:
            continue
        names = sorted(set(known) | {q + "_<unit>" for q in quantities})
        spelled = [*known, *quantities,
                   *(f"{q}_{u}" for q in quantities for u in _UNIT_SCALE)]
        hint = difflib.get_close_matches(key, spelled, n=1)
        raise ConfigError(f"{name}: unknown key '{key}' "
                          f"(known: {', '.join(names)})"
                          + (f"; did you mean '{hint[0]}'?" if hint else ""))


def _field_keys(cls, quantities=()):
    """(plain keys, quantities) of a section of the fields of `cls`."""
    return (tuple(f.name for f in fields(cls) if f.name not in quantities),
            quantities)


# section -> (plain keys, quantities); a quantity takes a unit suffix
_SECTION_KEYS = {
    "grid": (("nx", "ny", "nz"),
             ("spacing", "dx", "dy", "dz", "frequency", "c_ref")),
    "source": (("amplitude", "full_plane"), ("aperture_diameter",)),
    "target": ((), ("focus_centers", "radius")),
    "solver": _field_keys(SolverConfig),
    "optim": _field_keys(OptimConfig),
    "lens": (("material", "alpha", "z_offset"),
             ("t_min", "t_max", "fab_cutoff")),
    "sweep": (("lens", "materials", "realizations"), ("sigma",)),
    "gradcheck": (("beta", "tolerance", "step", "n_coords"), ()),
    "thermal": _field_keys(analysis.ThermalConfig, (
        "heat_time", "cool_time", "reference_peak_pressure")),
    "backproject": ((), ("distances",)),
}
# medium kind -> (plain keys, quantities), "kind" itself aside
_MEDIUM_KEYS = {
    "homogeneous": (("material",), ()),
    "phantom": (("bone_material", "background_material"),
                ("center", "inner_radius", "thickness")),
    "hu_file": (("path",), ()),
}


def check_config(cfg: dict) -> None:
    """Reject a key that no reader of its section knows, at the top level,
    in every section, and in `medium` against the keys of its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: must be an object")
    _check_keys(cfg, "config", (*_SECTION_KEYS, "medium", "method", "seed"))
    for name, (known, quantities) in _SECTION_KEYS.items():
        if isinstance(cfg.get(name), dict):
            _check_keys(cfg[name], name, known, quantities)
    medium = cfg.get("medium")
    if isinstance(medium, dict):
        kind = medium.get("kind", "homogeneous")
        if kind in _MEDIUM_KEYS:
            known, quantities = _MEDIUM_KEYS[kind]
            _check_keys(medium, f"medium (kind {kind})", ("kind", *known),
                        quantities)


def _material(name_or_obj, context: str) -> MaterialProperties:
    if isinstance(name_or_obj, str):
        key = name_or_obj.lower()
        if key not in MATERIALS:
            known = ", ".join(sorted(MATERIALS))
            raise ConfigError(f"{context}: unknown material '{name_or_obj}' "
                              f"(known: {known})")
        return MATERIALS[key]
    if isinstance(name_or_obj, dict):
        _check_keys(name_or_obj, f"{context} material",
                    *_field_keys(MaterialProperties))
        try:
            return MaterialProperties(
                **_read_fields(name_or_obj, MaterialProperties))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{context}: bad material spec: {exc}") from exc
    raise ConfigError(f"{context}: material must be a name or an object")


def build_grid(cfg: dict) -> GridSpec:
    sec = _section(cfg, "grid")
    for k in ("nx", "ny", "nz"):
        if k not in sec:
            raise ConfigError(f"grid: missing {k}")
    nx, ny, nz = (_number(sec, k, kind=int) for k in ("nx", "ny", "nz"))
    spacing = get_quantity(sec, "spacing")
    dx = get_quantity(sec, "dx", spacing)
    dy = get_quantity(sec, "dy", spacing)
    dz = get_quantity(sec, "dz", spacing)
    if dx is None or dy is None or dz is None:
        raise ConfigError("grid: spacing (or dx/dy/dz) required")
    frequency = get_quantity(sec, "frequency", required=True)
    c_ref = get_quantity(sec, "c_ref", GridSpec.c_ref)
    try:
        return GridSpec(nx, ny, nz, dx, dy, dz, frequency, c_ref)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_source(cfg: dict, grid: GridSpec) -> SourceSpec:
    sec = _section(cfg, "source")
    amplitude = _given(sec, "amplitude")
    full_plane = sec.get("full_plane", False)
    if not isinstance(full_plane, bool):
        raise ConfigError(f"source: full_plane: expected a boolean, "
                          f"got {full_plane!r}")
    try:
        if full_plane:
            return SourceSpec.full_plane(grid, **amplitude)
        diameter = get_quantity(sec, "aperture_diameter", required=True)
        return SourceSpec.disk(grid, diameter, **amplitude)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc


def build_medium(cfg: dict, grid: GridSpec):
    sec = _section(cfg, "medium")
    kind = sec.get("kind", "homogeneous")
    try:
        if kind == "homogeneous":
            return make_homogeneous(grid, _material(sec.get("material", "water"),
                                                    "medium"))
        if kind == "phantom":
            center = get_quantity(sec, "center", required=True, kind=_floats)
            inner = get_quantity(sec, "inner_radius", required=True)
            thick = get_quantity(sec, "thickness", required=True)
            bone = _material(sec.get("bone_material", "bone"), "medium")
            bg = _material(sec.get("background_material", "water"), "medium")
            return make_skull_phantom(grid, tuple(center), inner, thick, bone, bg)
        if kind == "hu_file":
            if "path" not in sec:
                raise ConfigError("medium: path required for kind hu_file")
            hu_grid, hu = _load_input(io.load_hu_volume, sec["path"],
                                      "medium")
            if hu_grid.shape != grid.shape:
                raise ConfigError("medium: HU volume grid does not match config grid")
            return ingest_hu_volume(grid, hu)
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from exc
    raise ConfigError(f"medium: unknown kind '{kind}'")


def build_target(cfg: dict, grid: GridSpec, method=None) -> TargetSpec:
    """The target; with `method` time_reversal, checked before the set-up
    for foci that time reversal cannot march back from."""
    sec = _section(cfg, "target")
    centers = get_quantity(sec, "focus_centers", required=True,
                           kind=_floats)
    centers = np.atleast_2d(centers)
    if centers.shape[1] != 3:
        raise ConfigError("target: focus centers must be (x, y, z) triples")
    radius = get_quantity(sec, "radius", required=True)
    try:
        target = TargetSpec.from_spheres(grid, centers, radius)
        if method == "time_reversal":
            baselines.time_reversal_foci(grid, target.focus_centers)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc
    return target


def build_config(cfg: dict, name: str, cls, required=False):
    """The dataclass `cls` of section `name` (`SolverConfig`,
    `OptimConfig`, `ThermalConfig`) from the keys the section gives."""
    sec = _section(cfg, name, required)
    try:
        return cls(**_read_fields(sec, cls, _SECTION_KEYS[name][1]))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_lens_params(cfg: dict, grid: GridSpec, seed: int) -> dict:
    """The lens section: material, slab offset, thickness bounds t_min and
    t_max in meters, fabrication cutoff, and the seeded initial design
    ("design"), whose voxel bounds are max(t_min/dz, 1) and t_max/dz."""
    sec = _section(cfg, "lens", required=False)
    material = _material(sec.get("material", "form_clear"), "lens")
    t_min = get_quantity(sec, "t_min", baselines.T_MIN)
    t_max = get_quantity(sec, "t_max", 1.9e-3)
    if t_min < 0:
        raise ConfigError(f"lens: t_min {t_min:g} m must be non-negative")
    try:  # DesignField's own checks of alpha and the bounds
        design = DesignField.random(
            grid.nx, grid.ny, seed=seed, v_min=max(t_min / grid.dz, 1.0),
            v_max=t_max / grid.dz, **_given(sec, "alpha"),
        )
    except ValueError as exc:
        raise ConfigError(f"lens: {exc} (v_min = max(t_min/dz, 1), "
                          f"v_max = t_max/dz)") from exc
    z_offset = _number(sec, "z_offset", 0, int)
    if z_offset < 0 or z_offset + design.n_v > grid.nz:
        raise ConfigError(
            f"lens: z_offset {z_offset} with a depth of {design.n_v} voxels "
            f"(ceil of t_max/dz) does not fit the {grid.nz} grid slices"
        )
    fab_cutoff = get_quantity(sec, "fab_cutoff")
    if fab_cutoff is not None and fab_cutoff < grid.dx:
        raise ConfigError(f"lens: fab_cutoff {fab_cutoff:g} m is below the "
                          f"grid spacing {grid.dx:g} m")
    return {"material": material, "design": design, "z_offset": z_offset,
            "t_min": t_min, "t_max": t_max, "fab_cutoff": fab_cutoff}


def write_snapshot(out: Path, cfg: dict, grid: GridSpec, seed) -> str:
    """Write the snapshot of the config as given to
    `out/resolved_config.json`: only the `grid` section is in SI, the seed
    is added, and no default is filled in (effective values are ROADMAP
    item 11(a)); returns its hash."""
    snap = json.loads(json.dumps(cfg))  # deep copy
    snap["grid"] = {
        "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
        "dx_m": grid.dx, "dy_m": grid.dy, "dz_m": grid.dz,
        "frequency_hz": grid.frequency, "c_ref": grid.c_ref,
    }
    snap["seed"] = seed
    blob = json.dumps(snap, sort_keys=True).encode()
    h = hashlib.sha256(blob).hexdigest()[:16]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "resolved_config.json", "w") as fh:
        json.dump({"config_hash": h, **snap}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return h


def _seed(args, cfg: dict) -> int:
    seed = args.seed if args.seed is not None else _number(cfg, "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed: {seed} must be non-negative")
    return seed


def _load_input(load, prefix, context: str):
    """Read an input file; a missing or malformed one is a config error."""
    try:
        return load(prefix)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _check_recorded_grid(what: str, shape, spacing, frequency,
                         grid: GridSpec) -> None:
    """An input array of another shape (a plane's: nx, ny), spacing or
    frequency than the config grid's is a config error."""
    try:
        same = shape == grid.shape[:len(shape)] and np.allclose(
            (*spacing, frequency), (grid.dx, grid.dy, grid.dz, grid.frequency))
    except (TypeError, ValueError):     # a header without them
        same = False
    if not same:
        raise ConfigError(f"{what} header does not match config grid")


def _load_field(prefix, grid: GridSpec, flag: str):
    """The field of `evaluate --<flag>`, recorded on the config grid."""
    p = _load_input(io.load_field, prefix, "evaluate")
    g = p.grid
    _check_recorded_grid(f"evaluate: {flag}", p.values.shape,
                         (g.dx, g.dy, g.dz), g.frequency, grid)
    return p


def _prepared_problem(cfg: dict, grid: GridSpec, seed: int):
    """(source, lens section, medium prepared with the lens slab) of a
    run; the base medium is built last and released as `prepare` returns."""
    src = build_source(cfg, grid)
    lens = build_lens_params(cfg, grid, seed)
    prepared = prepare(src, build_medium(cfg, grid),
                       build_config(cfg, "solver", SolverConfig),
                       lens["material"], lens["z_offset"], lens["design"].n_v)
    return src, lens, prepared


def _write_report(out: Path, field_, seeds, psnr):
    report = analysis.focal_report(field_, seeds)
    report.psnr_cross_domain = psnr
    report.to_json(out / "report.json")
    by_label = {f.label: [f.peak_pressure, f.fwhm_lateral_x, f.fwhm_lateral_y,
                          f.fwhm_axial, f.volume_m3] for f in report.foci}
    rows = [[i, *by_label.get(i, [0.0] * 5)] for i in range(len(seeds))]
    np.savetxt(
        out / "foci.csv", np.asarray(rows), delimiter=",",
        header="focus,peak_pressure,fwhm_x_m,fwhm_y_m,fwhm_z_m,volume_m3",
        comments="",
    )


# ------------------------------------------------------------------ design

def cmd_design(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    seed = _seed(args, cfg)
    ocfg = build_config(cfg, "optim", OptimConfig)
    method = cfg.get("method", "thickness")
    if method not in ("thickness", "phase", "time_reversal"):
        raise ConfigError(f"method: unknown '{method}' "
                          "(use thickness | phase | time_reversal)")
    target = build_target(cfg, grid, method)
    src, lens_params, prepared = _prepared_problem(cfg, grid, seed)

    out = Path(args.out)
    extra = {"config_hash": write_snapshot(out, cfg, grid, seed)}

    if method == "thickness":
        result = optim.optimize_lens_geometry(
            prepared, target, lens_params["design"], ocfg)
        result.report.to_csv(out / "loss_history.csv")
        design_obj = result.lens
        p_opt = result.field_optimization
    else:
        if method == "phase":
            phase, report = baselines.optimize_phase_map(prepared, target, ocfg)
            report.to_csv(out / "loss_history.csv")
        else:
            phase = baselines.time_reversal(prepared, target.focus_centers)
        np.savetxt(out / "phase_map.csv", phase.phi, delimiter=",")
        plane = apply_phase_delays(src, phase.phi, grid)
        p_opt = prepared.field_only(source_plane=plane)
        design_obj = phase

    p_fab, lens = baselines.fabricate_and_simulate(
        design_obj, prepared, t_min=lens_params["t_min"],
        t_max=lens_params["t_max"], fab_cutoff=lens_params["fab_cutoff"],
    )

    io.thickness_to_csv(out / "lens_thickness.csv", lens.thickness_map, grid.dz)
    io.thickness_to_pgm(out / "lens_thickness.pgm", lens.thickness_map,
                        lens.v_min, lens.v_max)
    io.thickness_to_stl(out / "lens.stl", lens.thickness_map, grid.dx, grid.dz)
    io.save_field(out / "field_optimization", p_opt, extra)
    io.save_field(out / "field_fabrication", p_fab, extra)
    psnr = analysis.cross_domain_psnr(p_opt, p_fab)
    _write_report(out, p_fab, target.focus_centers, psnr)
    return EXIT_OK


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    target = build_target(cfg, grid)
    if args.field is None:
        raise ConfigError("evaluate: --field is required")
    p = _load_field(args.field, grid, "field")

    psnr = None
    if args.field2 is not None:
        psnr = analysis.cross_domain_psnr(
            p, _load_field(args.field2, grid, "field2"))

    if "thermal" in cfg:        # read before anything is written
        medium = build_medium(cfg, grid)
        tcfg = build_config(cfg, "thermal", analysis.ThermalConfig,
                            required=True)

    out = Path(args.out)
    h = write_snapshot(out, cfg, grid, _seed(args, cfg))
    _write_report(out, p, target.focus_centers, psnr)
    if "thermal" in cfg:
        dT = analysis.bioheat_simulate(p, medium, tcfg,
                                       normalize_mask=target.omega)
        io.save_raw(out / "thermal", grid, dT.astype("<f4"),
                    ["temperature_rise"], {"config_hash": h, "units": "degC"})
    return EXIT_OK


# ------------------------------------------------------------------- sweep

def _load_lens(prefix_or_csv, grid: GridSpec, lens_params: dict) -> LensVolume:
    """A thickness CSV (meters) as a binarized lens of design.n_v slices;
    a negative thickness, or one that rounds to more slices than t_max
    gives, is a config error."""
    thickness_m = np.atleast_2d(_load_input(
        lambda path: np.loadtxt(path, delimiter=","), prefix_or_csv, "sweep"))
    if thickness_m.shape != (grid.nx, grid.ny):
        raise ConfigError("sweep: lens thickness map does not match the grid")
    if not np.all(thickness_m >= 0):
        raise ConfigError(f"sweep: lens thickness {np.min(thickness_m):g} m "
                          "is not a non-negative number")
    design = lens_params["design"]
    lens = lensmap.binarize(LensVolume(
        np.zeros((grid.nx, grid.ny, design.n_v)), thickness_m / grid.dz,
        v_min=design.v_min, v_max=float(design.n_v)))
    if lens.thickness_map.max() > design.n_v:
        raise ConfigError(
            f"sweep: lens thickness {thickness_m.max():g} m is more than the "
            f"{design.n_v} slices of t_max {lens_params['t_max']:g} m")
    return lens


def _sweep_case(prepared, lens: LensVolume, seeds, case):
    """One sweep case (material, thickness noise sigma in meters, noise
    seed): the lens, perturbed unless sigma is 0, relaxed into the slab
    (of a `with_lens` copy for another material than the slab's); one
    `PreparedMedium.field_only`, then the focal figures of the field."""
    mat, sigma, case_seed = case
    if mat != prepared.lens_mat:
        prepared = prepared.with_lens(mat)
    lens = analysis.perturb_lens(lens, sigma, prepared.grid.dz, seed=case_seed)
    field_ = prepared.field_only(lens.occupancy)
    report = analysis.focal_report(field_, seeds)
    if not report.foci:
        return [float(np.abs(field_.values).max()), np.nan, np.nan, 0]
    peak = max(f.peak_pressure for f in report.foci)
    return [peak, report.leakage_ratio, report.uniformity, report.n_components]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("sweep: --jobs must be at least 1")
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    seed = _seed(args, cfg)
    sec = _section(cfg, "sweep", required=False)
    lens_path = args.lens or sec.get("lens")
    if lens_path is None:
        raise ConfigError("sweep: a base design is required "
                          "(--lens or sweep.lens, a thickness CSV)")
    _, lens_params, prepared = _prepared_problem(cfg, grid, seed)
    # the cases read only the focus centres of the target
    seeds = build_target(cfg, grid).focus_centers
    lens = _load_lens(lens_path, grid, lens_params)

    # a case is (material, thickness noise sigma, noise seed)
    if args.axis == "material":
        if "materials" in sec:
            if not isinstance(sec["materials"], list):
                raise ConfigError("sweep: materials: expected a list, "
                                  f"got {sec['materials']!r}")
            mats = [_material(m, "sweep") for m in sec["materials"]]
        else:
            mats = list(CLEAR_RESIN_VARIANTS)
        cases = [(m, 0.0, None) for m in mats]
        labels = [f"c={m.sound_speed:g},rho={m.density:g}" for m in mats]
    else:
        sigma = get_quantity(sec, "sigma", 50e-6)
        if sigma < 0:
            raise ConfigError(f"sweep: sigma {sigma:g} m must be non-negative")
        n = _number(sec, "realizations", 50, int)
        if n < 0:
            raise ConfigError("sweep: realizations must be non-negative")
        cases = [(lens_params["material"], sigma, seed + i) for i in range(n)]
        labels = [f"seed={seed + i}" for i in range(n)]

    # one chunk of cases per worker: the prepared medium is pickled once
    # per chunk, not once per case
    run_case = partial(_sweep_case, prepared, lens, seeds)
    workers = min(args.jobs, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_case, cases,
                                 chunksize=-(-len(cases) // workers)))
    else:
        rows = list(map(run_case, cases))

    out = Path(args.out)
    write_snapshot(out, cfg, grid, seed)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("case,peak_pressure,leakage_ratio,uniformity,n_components\n")
        for label, row in zip(labels, rows):
            fh.write(f"{label}," + ",".join(f"{v:.9g}" for v in row) + "\n")
    with open(out / "manifest.json", "w") as fh:
        json.dump({"axis": args.axis, "cases": labels, "seed": seed},
                  fh, indent=2)
        fh.write("\n")
    return EXIT_OK


# ------------------------------------------------------------- backproject

def cmd_backproject(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    if args.plane is None:
        raise ConfigError("backproject: --plane is required")
    header, plane = _load_input(io.load_plane, args.plane, "backproject")
    _check_recorded_grid("backproject: plane", plane.shape,
                         header.get("spacing_m", ()),
                         header.get("frequency_hz"), grid)

    sec = _section(cfg, "backproject", required=False)
    if args.distances is not None:
        try:
            distances = np.asarray(
                [float(v) for v in args.distances.split(",") if v.strip()]
            ) * 1e-3
        except ValueError as exc:
            raise ConfigError(f"backproject: --distances: {exc}") from exc
    else:
        distances = get_quantity(sec, "distances", kind=_floats)
    if distances is None or np.size(distances) == 0:
        raise ConfigError("backproject: at least one distance is required "
                          "(--distances in mm or backproject.distances_mm)")

    try:
        volume = backproject(plane, grid, distances,
                             build_config(cfg, "solver", SolverConfig))
    except ValueError as exc:
        raise ConfigError(f"backproject: {exc}") from exc

    out = Path(args.out)
    h = write_snapshot(out, cfg, grid, _seed(args, cfg))
    io.save_raw(out / "backprojection", grid, volume, ["backprojection"],
                {"config_hash": h, "distances_m": list(map(float, distances))})
    return EXIT_OK


# --------------------------------------------------------------- gradcheck

# The problem `sonolens gradcheck` checks; a section of the user's config
# replaces the one of the same name.
GRADCHECK_PROBLEM = {
    "grid": {"nx": 16, "ny": 16, "nz": 24, "spacing": 125e-6,
             "frequency": 2e6},
    "source": {"full_plane": True},
    "medium": {},
    "target": {"focus_centers": [[1e-3, 1e-3, 2.25e-3]], "radius": 1.875e-4},
}


def cmd_gradcheck(args) -> int:
    cfg = {**GRADCHECK_PROBLEM,
           **(load_config(args.config) if args.config else {})}
    sec = _section(cfg, "gradcheck", required=False)
    grid = build_grid(cfg)
    seed = _seed(args, cfg)
    ocfg = build_config(cfg, "optim", OptimConfig)
    target = build_target(cfg, grid)
    _, lens_params, prepared = _prepared_problem(cfg, grid, seed)
    design = lens_params["design"]
    order = prepared.cfg.reflection_order
    beta = _number(sec, "beta", 5.0)
    tolerance = _number(sec, "tolerance", 1e-5 if order == 0 else 1e-3)
    step = _number(sec, "step", 1e-4)
    n_coords = _given(sec, "n_coords", int)
    if n_coords.get("n_coords", 1) < 1:
        raise ConfigError(f"gradcheck: n_coords {n_coords['n_coords']} "
                          "must be at least 1")
    for key, value in (("step", step), ("beta", beta), ("tolerance", tolerance)):
        if not value > 0:
            raise ConfigError(f"gradcheck: {key} {value:g} must be positive")

    objective = optim.lens_objective(prepared, target, design, ocfg)
    err = optim.gradcheck(lambda theta: objective(theta, beta)[:2],
                          design.theta, step, seed=seed, **n_coords)
    print(f"gradcheck: max relative error {err:.3e} "
          f"(tolerance {tolerance:.1e}, reflection order {order})")
    if not np.isfinite(err) or err > tolerance:
        print("gradcheck: FAIL", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonolens",
        description="Design and evaluate thickness-modulated acoustic "
                    "hologram lenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config (// comments allowed)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("design", help="run a hologram design end to end")
    common(p)
    p = sub.add_parser("evaluate", help="compute focal metrics for a field")
    common(p)
    p.add_argument("--field", help="field file prefix")
    p.add_argument("--field2", help="second field prefix for cross-domain PSNR")
    p = sub.add_parser("sweep", help="robustness sweep over a fixed design")
    common(p)
    p.add_argument("--axis", choices=("material", "perturbation"),
                   required=True)
    p.add_argument("--lens", help="base design thickness CSV")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep cases")
    p = sub.add_parser("backproject", help="reconstruct a volume from a plane")
    common(p)
    p.add_argument("--plane", help="complex plane file prefix")
    p.add_argument("--distances", help="comma-separated distances in mm")
    p = sub.add_parser("gradcheck", help="verify adjoint gradients")
    common(p)
    return parser


_COMMANDS = {
    "design": cmd_design,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "backproject": cmd_backproject,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "gradcheck" and args.config is None:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
