"""Configuration-driven command line for reproducible design and analysis runs.

Subcommands: design, evaluate, sweep, backproject, gradcheck.
Configs are JSON with ``//`` line comments allowed. Each section is read
into one dataclass whose fields are its keys (`SECTIONS`, `MEDIUM_KINDS`);
a quantity's key may carry a suffix of its field's unit (``spacing_um``,
``radius_mm``, ``frequency_mhz``; `UNIT_SUFFIXES`). One function,
`_match`, matches each key to its field and SI scale, both when a config
is loaded and when a section is read: a key that its section does not
know, a suffix of another unit, or two keys of one field is a
configuration error, in every section and at the top level. Each run
writes a snapshot of the config as given, `grid` in SI and the seed added,
with every field of each section the run read, defaults included, under
`effective`; its hash, which a changed default changes too, is embedded
in the headers of all exported arrays. Exit codes: 0 success, 2
configuration error, 3 numeric failure.

`design`, `gradcheck` and `sweep` share one set-up, `_prepared_problem`,
which prepares the medium once with the lens slab of the lens section
(`solver.prepare`): in complex64 for `design` and `sweep`, whose outputs
are single-precision field files and whole-voxel lenses, and in
complex128 for `gradcheck`, whose finite differences need double. The
base medium never leaves it, and `sweep` keeps only the target's focus
centres. Every field of a design comes from that slab and its one solver
config: the lens runs of the design loop and of fabrication, and the
base-medium runs (no occupancy) of the phase methods, whose print takes
the bounds of the design's. Each sweep case,
a material variant or a thickness-noise realization, is one
`PreparedMedium.field_only` run of the lens slab: no adjoint follows, so
no cache is kept. All cases go through one map, in turn or one chunk per
worker; a case of another material than the lens section's runs on its
own `PreparedMedium.with_lens` copy of the slab.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import (
    MISSING, asdict, dataclass, field, fields, make_dataclass,
)
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, baselines, io, lensmap, optim
from .grid import (
    AGILUS30, BONE, FORM_CLEAR, VEROCLEAR, WATER,
    SOURCE_AMPLITUDE, GridSpec, MaterialProperties, disk_source,
    full_plane_source,
)
from .lensmap import DesignField, LensVolume
from .medium import make_homogeneous, make_skull_phantom, ingest_hu_volume
from .optim import OptimConfig, TargetSpec
from .solver import SolverConfig, backproject, prepare
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
CLEAR_RESIN_VARIANTS = (
    MaterialProperties(2424.0, 1100.0, 2.922, 1.044),
    MaterialProperties(2440.0, 1162.0, 2.922, 1.044),
    MaterialProperties(2591.0, 1178.0, 2.922, 1.044),
    MaterialProperties(2700.0, 1180.0, 2.922, 1.044),
)


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class _Config(dict):
    """A loaded config, with the fields of each section as the run read
    them (`build_config`), for its snapshot."""

    def __init__(self, items):
        super().__init__(items)
        self.read = {}


# ------------------------------------------------------------------ schema
# The keys of a section are the fields of one dataclass. The metadata of a
# quantity names its SI unit; its key takes a suffix of that unit
# (`UNIT_SUFFIXES`). A default of None is settled where the section is used.

LENGTH = {"unit": "m"}


@dataclass(frozen=True)
class Source:
    amplitude: float = SOURCE_AMPLITUDE
    full_plane: bool = False
    # required unless full_plane
    aperture_diameter: float | None = field(default=None, metadata=LENGTH)


@dataclass(frozen=True)
class Target:
    focus_centers: np.ndarray = field(metadata=LENGTH)      # (x, y, z) rows
    radius: float = field(metadata=LENGTH)


@dataclass(frozen=True)
class Lens:
    material: MaterialProperties = FORM_CLEAR
    alpha: float = DesignField.alpha
    z_offset: int = 0                                       # slices
    t_min: float = field(default=baselines.T_MIN, metadata=LENGTH)
    t_max: float = field(default=1.9e-3, metadata=LENGTH)
    # None: lensmap.FAB_CUTOFF, 2 dx
    fab_cutoff: float | None = field(default=None, metadata=LENGTH)


@dataclass(frozen=True)
class Sweep:
    lens: str | None = None                                 # or --lens
    materials: tuple[MaterialProperties, ...] = CLEAR_RESIN_VARIANTS
    realizations: int = 50
    sigma: float = field(default=50e-6, metadata=LENGTH)


@dataclass(frozen=True)
class Gradcheck:
    beta: float = 5.0
    tolerance: float | None = None      # None: 1e-5 at order 0, else 1e-3
    step: float = 1e-4
    n_coords: int | None = None         # None: optim.gradcheck's


@dataclass(frozen=True)
class Backproject:
    # or --distances
    distances: np.ndarray | None = field(default=None, metadata=LENGTH)


@dataclass(frozen=True)
class Homogeneous:
    material: MaterialProperties = WATER
    kind: str = "homogeneous"           # the medium's default kind


@dataclass(frozen=True)
class Phantom:
    center: np.ndarray = field(metadata=LENGTH)
    inner_radius: float = field(metadata=LENGTH)
    thickness: float = field(metadata=LENGTH)
    bone_material: MaterialProperties = BONE
    background_material: MaterialProperties = WATER
    kind: str = "phantom"


@dataclass(frozen=True)
class HuFile:
    path: str                           # prefix of an int16 HU volume
    kind: str = "hu_file"


# the grid's `spacing` stands for each of dx, dy and dz that it leaves out
SECTIONS = {"grid": GridSpec, "source": Source, "target": Target,
            "solver": SolverConfig, "optim": OptimConfig, "lens": Lens,
            "sweep": Sweep, "gradcheck": Gradcheck,
            "thermal": analysis.ThermalConfig, "backproject": Backproject}
MEDIUM_KINDS = {cls.kind: cls for cls in (Homogeneous, Phantom, HuFile)}
TOP_KEYS = ("method", "seed")
METHODS = ("thickness", "phase", "time_reversal")


# ------------------------------------------------------------------ config

# unit -> {key suffix, in any case: SI scale}; a quantity of another unit
# (`GridSpec.c_ref`, m/s) takes no suffix
UNIT_SUFFIXES = {
    "m": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "Hz": {"hz": 1.0, "khz": 1e3, "mhz": 1e6},
    "s": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "Pa": {"pa": 1.0, "kpa": 1e3, "mpa": 1e6},
}

# the top level's keys, as a section's
_TOP = make_dataclass("Config", (*SECTIONS, "medium", *TOP_KEYS))

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    check_config(cfg)
    return _Config(cfg)


def _has_bool(value) -> bool:
    """Whether `value`, or an item of any list nested in it, is a boolean."""
    if isinstance(value, list):
        return any(_has_bool(item) for item in value)
    return isinstance(value, bool)


def _number(value, where: str, kind=float):
    """`kind` of the config value `where` names; a value that is not a
    number, holds a boolean, a NaN or an infinity (in a list too; JSON's
    NaN and Infinity parse) or, for `int`, has a fraction is a config
    error naming `where`."""
    if _has_bool(value) or (kind is int and isinstance(value, float)
                            and not value.is_integer()):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, "
                          f"got {value!r}") from None
    if not np.all(np.isfinite(number)):
        raise ConfigError(f"{where}: expected a finite number, "
                          f"got {value!r}")
    return number


def _typed(value, where: str, kind, expected: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return value


# field type (`| None` aside) -> reader of (value, section name, where:
# the key as messages name it)
_READERS = {
    "int": lambda value, name, where: _number(value, where, int),
    "float": lambda value, name, where: _number(value, where),
    "np.ndarray": lambda value, name, where: _number(
        value, where, partial(np.asarray, dtype=float)),
    "bool": lambda value, name, where: _typed(value, where, bool,
                                              "a boolean"),
    "str": lambda value, name, where: _typed(value, where, str, "a string"),
    "MaterialProperties": lambda value, name, where: _material(value, name),
    "tuple[MaterialProperties, ...]": lambda value, name, where: tuple(
        _material(m, name) for m in _typed(value, where, list, "a list")),
}


def _match(sec: dict, name: str, cls) -> dict:
    """{schema key: (config key, SI scale), or None if not given} of
    section `name` read into the dataclass `cls`. The schema's keys are
    the fields of `cls` (and the grid's `spacing`); a config key is one of
    them, or a quantity's with a suffix of its field's unit
    (`UNIT_SUFFIXES`). Any other key, or two keys of one field, is a
    config error."""
    units = {f.name: UNIT_SUFFIXES.get(f.metadata.get("unit"), {})
             for f in fields(cls)}
    if cls is GridSpec:
        units["spacing"] = UNIT_SUFFIXES["m"]
    hits = {}
    for key in sec:
        base, _, suffix = key.rpartition("_")
        field_, scale = ((key, 1.0) if key in units else
                         (base, units.get(base, {}).get(suffix.lower())))
        if scale is None:
            known = sorted(q + "_<unit>" if table else q
                           for q, table in units.items())
            spelled = [*units, *(f"{q}_{unit}" for q, table in units.items()
                                 for unit in table)]
            hint = difflib.get_close_matches(key, spelled, n=1)
            raise ConfigError(
                f"{name}: unknown key '{key}' (known: {', '.join(known)})"
                + (f"; did you mean '{hint[0]}'?" if hint else ""))
        hits.setdefault(field_, []).append((key, scale))
    for field_, found in hits.items():
        if len(found) > 1:
            raise ConfigError(f"conflicting keys for '{field_}': "
                              + ", ".join(key for key, _ in found))
    return {q: hits[q][0] if q in hits else None for q in units}


def _read_fields(section: dict, name: str, cls, defaults=()) -> dict:
    """{name: value} of each field of the dataclass `cls` that section
    `name` gives (`_match`), read by the field's type (a quantity in SI),
    over `defaults`; a field without a default that neither gives is a
    config error. Messages name the section, unless `name` is empty."""
    given, prefix = dict(defaults), f"{name}: " if name else ""
    matched = _match(section, name, cls)
    for f in fields(cls):
        value = None
        if matched[f.name]:
            key, scale = matched[f.name]
            read = _READERS[f.type.removesuffix(" | None")]
            value = read(section[key], name, prefix + key)
            if "unit" in f.metadata:
                value = value * scale
        if value is not None:
            given[f.name] = value
        elif f.name not in given and f.default is MISSING:
            raise ConfigError(f"{prefix}{f.name}: required")
    return given


def _section(cfg: dict, name: str, required=True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"{name}: required")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    return sec


def _medium_class(sec: dict):
    """The dataclass of the medium's kind; None for an unknown kind."""
    kind = sec.get("kind", Homogeneous.kind)
    return MEDIUM_KINDS.get(kind) if isinstance(kind, str) else None


def check_config(cfg: dict) -> None:
    """Reject a key that its section's schema does not know, or two keys
    of one field (`_match`), at the top level, in every section, and in
    `medium` against the keys of its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: must be an object")
    _match(cfg, "config", _TOP)
    for name, cls in SECTIONS.items():
        if isinstance(cfg.get(name), dict):
            _match(cfg[name], name, cls)
    medium = cfg.get("medium")
    if isinstance(medium, dict) and (cls := _medium_class(medium)):
        _match(medium, f"medium (kind {cls.kind})", cls)


def _material(name_or_obj, context: str) -> MaterialProperties:
    if isinstance(name_or_obj, str):
        key = name_or_obj.lower()
        if key not in MATERIALS:
            known = ", ".join(sorted(MATERIALS))
            raise ConfigError(f"{context}: unknown material '{name_or_obj}' "
                              f"(known: {known})")
        return MATERIALS[key]
    if isinstance(name_or_obj, dict):
        # an unknown key names "<context> material"; a bad value is named
        # by its key alone under "<context>: bad material spec"
        _match(name_or_obj, f"{context} material", MaterialProperties)
        try:
            return MaterialProperties(
                **_read_fields(name_or_obj, "", MaterialProperties))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{context}: bad material spec: {exc}") from exc
    raise ConfigError(f"{context}: material must be a name or an object")


def build_config(cfg: dict, name: str, cls=None, required=False,
                 defaults=()):
    """Section `name` of `cfg` as its dataclass, `cls` or `SECTIONS[name]`:
    the keys the section gives, over `defaults`, the others at their
    field's default; a loaded config records its fields."""
    cls = cls or SECTIONS[name]
    try:
        sec = cls(**_read_fields(_section(cfg, name, required), name, cls,
                                 defaults))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    getattr(cfg, "read", {})[name] = asdict(sec)
    return sec


def build_grid(cfg: dict) -> GridSpec:
    sec, steps = _section(cfg, "grid"), ("dx", "dy", "dz")
    matched, spacing = _match(sec, "grid", GridSpec), None
    if matched["spacing"]:
        key, scale = matched["spacing"]
        spacing = _number(sec[key], f"grid: {key}") * scale
    elif not all(matched[d] for d in steps):
        raise ConfigError("grid: spacing (or dx/dy/dz) required")
    return build_config(cfg, "grid", defaults=dict.fromkeys(steps, spacing))


def build_source(cfg: dict, grid: GridSpec) -> np.ndarray:
    """The source section as its complex plane at slice 0."""
    src = build_config(cfg, "source", required=True)
    try:
        if src.full_plane:
            return full_plane_source(grid, src.amplitude)
        if src.aperture_diameter is None:
            raise ConfigError("source: aperture_diameter: required")
        return disk_source(grid, src.aperture_diameter, src.amplitude)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc


def build_medium(cfg: dict, grid: GridSpec):
    sec = _section(cfg, "medium")
    if (cls := _medium_class(sec)) is None:
        raise ConfigError(f"medium: unknown kind '{sec['kind']}'")
    medium = build_config(cfg, "medium", cls)
    try:
        if cls is Homogeneous:
            return make_homogeneous(grid, medium.material)
        if cls is Phantom:
            return make_skull_phantom(grid, tuple(medium.center),
                                      medium.inner_radius, medium.thickness,
                                      medium.bone_material,
                                      medium.background_material)
        hu_grid, hu = _load_input(io.load_hu_volume, medium.path, "medium")
        # a CT volume has no use for the frequency: its spacing must match
        _check_recorded_grid("medium: HU volume", hu.shape, grid,
                             (hu_grid.dx, hu_grid.dy, hu_grid.dz))
        return ingest_hu_volume(grid, hu)
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from exc


def build_target(cfg: dict, grid: GridSpec, method=None) -> TargetSpec:
    """The target; with `method` time_reversal, checked before the set-up
    for foci that time reversal cannot march back from."""
    sec = build_config(cfg, "target", required=True)
    centers = np.atleast_2d(sec.focus_centers)
    if centers.shape[1] != 3:
        raise ConfigError("target: focus centers must be (x, y, z) triples")
    try:
        target = TargetSpec.from_spheres(grid, centers, sec.radius)
        if method == "time_reversal":
            baselines.time_reversal_foci(grid, target.focus_centers)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc
    return target


def build_lens_params(cfg: dict, grid: GridSpec,
                      seed: int) -> tuple[Lens, DesignField]:
    """The lens section and the seeded initial design, whose voxel bounds
    max(t_min/dz, 1) and t_max/dz bound every lens of the run."""
    lens = build_config(cfg, "lens")
    if lens.t_min < 0:
        raise ConfigError(f"lens: t_min {lens.t_min:g} m must be non-negative")
    try:  # DesignField's own checks of alpha, the bounds and the cutoff
        design = DesignField.random(
            grid.nx, grid.ny, seed=seed, alpha=lens.alpha,
            v_min=max(lens.t_min / grid.dz, 1.0), v_max=lens.t_max / grid.dz,
            **({} if lens.fab_cutoff is None
               else {"fab_cutoff": lens.fab_cutoff / grid.dx}))
    except ValueError as exc:
        raise ConfigError(f"lens: {exc} (v_min = max(t_min/dz, 1), "
                          "v_max = t_max/dz, fab_cutoff in dx)") from exc
    if lens.z_offset < 0 or lens.z_offset + design.n_v > grid.nz:
        raise ConfigError(
            f"lens: z_offset {lens.z_offset} with a depth of {design.n_v} "
            f"voxels (ceil of t_max/dz) does not fit the {grid.nz} grid "
            "slices")
    return lens, design


def _method(cfg: dict) -> str:
    """The top-level method, recorded like a section."""
    method = cfg.get("method", METHODS[0])
    if method not in METHODS:
        raise ConfigError(f"method: unknown '{method}' "
                          f"(use {' | '.join(METHODS)})")
    getattr(cfg, "read", {})["method"] = method
    return method


def write_snapshot(out: Path, cfg: dict, grid: GridSpec, seed,
                   **inputs) -> str:
    """Write the snapshot of a run to `out/resolved_config.json` and
    return its hash: the config as given, with `grid` in SI, the seed and
    `inputs` (the digest of an input file) added, and under `effective`
    every field of each section the run read (`_Config.read`) in SI,
    defaults included (null: settled where the section is used)."""
    snap = json.loads(json.dumps(cfg))  # deep copy
    snap["grid"] = {
        "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
        "dx_m": grid.dx, "dy_m": grid.dy, "dz_m": grid.dz,
        "frequency_hz": grid.frequency, "c_ref": grid.c_ref,
    }
    snap["seed"] = seed
    snap.update(inputs)
    snap["effective"] = getattr(cfg, "read", {})
    dump = partial(json.dumps, sort_keys=True, default=np.ndarray.tolist)
    h = hashlib.sha256(dump(snap).encode()).hexdigest()[:16]
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        dump({"config_hash": h, **snap}, indent=2) + "\n")
    return h


def _seed(args, cfg: dict) -> int:
    seed = (args.seed if args.seed is not None
            else _number(cfg.get("seed", 0), "seed", int))
    if seed < 0:
        raise ConfigError(f"seed: {seed} must be non-negative")
    return seed


def _load_input(load, prefix, context: str):
    """Read an input file; a missing or malformed one is a config error."""
    try:
        return load(prefix)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _check_recorded_grid(what: str, shape, grid: GridSpec, spacing,
                         *frequency) -> None:
    """An input array of another shape (a plane's: nx, ny), spacing or
    frequency than the config grid's is a config error; a CT volume
    passes no frequency, which it has no use for."""
    config = (grid.dx, grid.dy, grid.dz, grid.frequency)[:3 + len(frequency)]
    try:
        same = shape == grid.shape[:len(shape)] and np.allclose(
            (*spacing, *frequency), config)
    except (TypeError, ValueError):     # a header without them
        same = False
    if not same:
        raise ConfigError(f"{what} header does not match config grid")


def _load_field(prefix, grid: GridSpec, flag: str):
    """The field of `evaluate --<flag>`, recorded on the config grid."""
    p = _load_input(io.load_field, prefix, "evaluate")
    g = p.grid
    _check_recorded_grid(f"evaluate: {flag}", p.values.shape, grid,
                         (g.dx, g.dy, g.dz), g.frequency)
    return p


def _prepared_problem(cfg: dict, grid: GridSpec, seed: int, dtype):
    """(lens section, initial design, medium prepared with the lens slab
    in the precision `dtype`) of a run; the base medium is built last and
    released as `prepare` returns."""
    source = build_source(cfg, grid)
    lens, design = build_lens_params(cfg, grid, seed)
    prepared = prepare(source, build_medium(cfg, grid),
                       build_config(cfg, "solver"),
                       lens.material, lens.z_offset, design.n_v, dtype)
    return lens, design, prepared


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
    ocfg = build_config(cfg, "optim")
    method = _method(cfg)
    target = build_target(cfg, grid, method)
    _, design, prepared = _prepared_problem(cfg, grid, seed, np.complex64)

    out = Path(args.out)
    extra = {"config_hash": write_snapshot(out, cfg, grid, seed)}

    if method == "thickness":
        result = optim.optimize_lens_geometry(prepared, target, design, ocfg)
        result.report.to_csv(out / "loss_history.csv")
        # the loop's lens, printer blur included, is the print
        p_opt, lens = result.field_optimization, result.lens
        p_fab = prepared.field_only(lens.occupancy)
    else:
        if method == "phase":
            phase, report = baselines.optimize_phase_map(prepared, target, ocfg)
            report.to_csv(out / "loss_history.csv")
        else:
            phase = baselines.time_reversal(prepared, target.focus_centers)
        np.savetxt(out / "phase_map.csv", phase.phi, delimiter=",")
        p_opt = prepared.field_only(
            sources={0: baselines.phase_plane(prepared, phase.phi)})
        p_fab, lens = baselines.fabricate_and_simulate(phase, prepared,
                                                       design)

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
        tcfg = build_config(cfg, "thermal", required=True)

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

def _load_lens(csv: bytes, grid: GridSpec, design: DesignField,
               t_max: float) -> LensVolume:
    """The bytes of a thickness CSV (meters) as a binarized lens of
    design.n_v slices; a negative thickness, or one that rounds to more
    slices than t_max gives, is a config error."""
    thickness_m = np.atleast_2d(_load_input(
        lambda data: np.loadtxt(data.decode().splitlines(), delimiter=","),
        csv, "sweep"))
    if thickness_m.shape != (grid.nx, grid.ny):
        raise ConfigError("sweep: lens thickness map does not match the grid")
    if not np.all(thickness_m >= 0):
        raise ConfigError(f"sweep: lens thickness {np.min(thickness_m):g} m "
                          "is not a non-negative number")
    binary = lensmap.binarize(LensVolume(
        np.zeros((grid.nx, grid.ny, design.n_v)), thickness_m / grid.dz,
        v_min=design.v_min, v_max=float(design.n_v)))
    if binary.thickness_map.max() > design.n_v:
        raise ConfigError(
            f"sweep: lens thickness {thickness_m.max():g} m is more than the "
            f"{design.n_v} slices of t_max {t_max:g} m")
    return binary


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
    sweep = build_config(cfg, "sweep")
    lens_path = args.lens or sweep.lens
    if lens_path is None:
        raise ConfigError("sweep: a base design is required "
                          "(--lens or sweep.lens, a thickness CSV)")
    section, design, prepared = _prepared_problem(cfg, grid, seed,
                                                  np.complex64)
    # the cases read only the focus centres of the target
    seeds = build_target(cfg, grid).focus_centers
    # one read: the digest is of the bytes the cases run
    csv = _load_input(lambda path: Path(path).read_bytes(), lens_path,
                      "sweep")
    lens_sha256 = hashlib.sha256(csv).hexdigest()
    lens = _load_lens(csv, grid, design, section.t_max)
    cfg.read["sweep"]["lens"] = lens_path       # from --lens or the config

    # a case is (material, thickness noise sigma, noise seed)
    if args.axis == "material":
        cases = [(m, 0.0, None) for m in sweep.materials]
        labels = [f"c={m.sound_speed:g},rho={m.density:g}"
                  for m in sweep.materials]
    else:
        sigma, n = sweep.sigma, sweep.realizations
        if sigma < 0:
            raise ConfigError(f"sweep: sigma {sigma:g} m must be non-negative")
        if n < 0:
            raise ConfigError("sweep: realizations must be non-negative")
        cases = [(section.material, sigma, seed + i) for i in range(n)]
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
    write_snapshot(out, cfg, grid, seed, lens_sha256=lens_sha256)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("case,peak_pressure,leakage_ratio,uniformity,n_components\n")
        for label, row in zip(labels, rows):
            fh.write(f"{label}," + ",".join(f"{v:.9g}" for v in row) + "\n")
    with open(out / "manifest.json", "w") as fh:
        json.dump({"axis": args.axis, "cases": labels,
                   "lens_sha256": lens_sha256, "seed": seed}, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


# ------------------------------------------------------------- backproject

def cmd_backproject(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    if args.plane is None:
        raise ConfigError("backproject: --plane is required")
    header, plane = _load_input(io.load_plane, args.plane, "backproject")
    _check_recorded_grid("backproject: plane", plane.shape, grid,
                         header.get("spacing_m", ()),
                         header.get("frequency_hz"))

    if args.distances is not None:
        _section(cfg, "backproject", required=False)    # still an object
        try:
            distances = np.asarray(
                [float(v) for v in args.distances.split(",") if v.strip()]
            ) * 1e-3
        except ValueError as exc:
            raise ConfigError(f"backproject: --distances: {exc}") from exc
        cfg.read["backproject"] = {"distances": distances}  # from the flag
    else:
        distances = build_config(cfg, "backproject").distances
    if distances is None or np.size(distances) == 0:
        raise ConfigError("backproject: at least one distance is required "
                          "(--distances in mm or backproject.distances_mm)")

    try:
        volume = backproject(plane, grid, distances,
                             build_config(cfg, "solver"))
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
    check = build_config(cfg, "gradcheck")
    grid = build_grid(cfg)
    seed = _seed(args, cfg)
    ocfg = build_config(cfg, "optim")
    target = build_target(cfg, grid)
    # double: a central difference at step 1e-4 of a single-precision
    # loss would be rounding noise near 1e-3
    _, design, prepared = _prepared_problem(cfg, grid, seed, np.complex128)
    order = prepared.cfg.reflection_order
    tolerance = (check.tolerance if check.tolerance is not None
                 else 1e-5 if order == 0 else 1e-3)
    n_coords = {} if check.n_coords is None else {"n_coords": check.n_coords}
    if n_coords and check.n_coords < 1:
        raise ConfigError(f"gradcheck: n_coords {check.n_coords} "
                          "must be at least 1")
    for key, value in (("step", check.step), ("beta", check.beta),
                       ("tolerance", tolerance)):
        if not value > 0:
            raise ConfigError(f"gradcheck: {key} {value:g} must be positive")

    objective = optim.lens_objective(prepared, target, design, ocfg)
    err = optim.gradcheck(lambda theta: objective(theta, check.beta)[:2],
                          design.theta, check.step, seed=seed, **n_coords)
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
