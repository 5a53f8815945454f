"""File formats: raw voxel arrays with JSON sidecar headers, CSV, PGM, STL.

Raw files are little-endian, C-order, and hold exactly the header's dims.
A complex field is stored as interleaved (re, im) float32 pairs; CT
volumes are int16. Every header carries a schema_version and, when
produced by the CLI, the hash of the creating configuration. The lens
STL is the closed surface of the voxels that `lensmap.binarize` makes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import GridSpec
from .solver import ComplexField

SCHEMA_VERSION = 1


def save_raw(prefix, grid: GridSpec, values: np.ndarray, fields,
             extra: dict | None = None) -> None:
    """Write `values` to prefix.raw and its header to prefix.json.

    The header's dims are the array's shape and its dtype the array's
    type: a complex array is stored as interleaved (re, im) float32 pairs
    ("complex64_interleaved"), any other array little-endian in its own
    type. `extra` (such as the creating config's hash) joins the header.
    The payload is cast into a C-order array, which `tofile` writes in
    one pass; a run's field is a slice-major view, which it would walk
    element by element.
    """
    values = np.asarray(values)
    if values.dtype.kind == "c":
        values = values.astype("<c8", order="C")
        dtype = "complex64_interleaved"
    else:
        values = values.astype(values.dtype.newbyteorder("<"), order="C",
                               copy=False)
        dtype = values.dtype.name
    header = {
        "schema_version": SCHEMA_VERSION,
        "dims": list(values.shape),
        "spacing_m": [grid.dx, grid.dy, grid.dz],
        "frequency_hz": grid.frequency,
        "c_ref": grid.c_ref,
        "fields": list(fields),
        "dtype": dtype,
        **(extra or {}),
    }
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(".json"), "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    values.tofile(prefix.with_suffix(".raw"))


def _read(prefix) -> tuple[dict, np.ndarray]:
    """The header and the payload, shaped by the header's dims; a .raw
    file whose size is not dims times the item size is a ValueError."""
    prefix = Path(prefix)
    with open(prefix.with_suffix(".json")) as fh:
        header = json.load(fh)
    dims = [int(n) for n in header["dims"]]
    name = {"complex64_interleaved": "<c8"}.get(header["dtype"], header["dtype"])
    dtype = np.dtype(name).newbyteorder("<")
    raw = prefix.with_suffix(".raw")
    if raw.stat().st_size != dtype.itemsize * int(np.prod(dims)):
        raise ValueError(f"{prefix}: raw payload size does not match the header")
    return header, np.fromfile(raw, dtype=dtype).reshape(dims)


def _grid_from_header(header: dict) -> GridSpec:
    nx, ny, nz = header["dims"]
    dx, dy, dz = header["spacing_m"]
    return GridSpec(nx, ny, nz, dx, dy, dz, header["frequency_hz"],
                    header.get("c_ref", GridSpec.c_ref))


def save_hu_volume(prefix, grid: GridSpec, hu: np.ndarray) -> None:
    save_raw(prefix, grid, np.asarray(hu).astype("<i2"), ["hu"])


def load_hu_volume(prefix) -> tuple[GridSpec, np.ndarray]:
    header, data = _read(prefix)
    return _grid_from_header(header), data.astype(np.int64)


def save_field(prefix, field: ComplexField, extra: dict | None = None) -> None:
    save_raw(prefix, field.grid, field.values, ["pressure"], extra)


def load_field(prefix) -> ComplexField:
    """The field in the precision its file records: complex64 for the
    interleaved float32 pairs that `save_field` writes."""
    header, values = _read(prefix)
    values = values.astype(np.result_type(values, np.complex64), copy=False)
    return ComplexField(values, _grid_from_header(header))


def save_plane(prefix, plane: np.ndarray, grid: GridSpec,
               extra: dict | None = None) -> None:
    """2D complex plane (e.g. a measured hydrophone scan)."""
    save_raw(prefix, grid, np.asarray(plane, dtype="<c8"), ["plane"], extra)


def load_plane(prefix):
    header, plane = _read(prefix)
    if plane.ndim != 2:
        raise ValueError(f"{prefix}: a plane file must have 2 dims")
    return header, plane.astype(np.complex128)


def thickness_to_csv(path, thickness_vox: np.ndarray, dz: float) -> None:
    """Thickness map exported in meters."""
    np.savetxt(path, np.asarray(thickness_vox) * dz, delimiter=",")


def thickness_to_pgm(path, thickness_vox: np.ndarray, v_min: float,
                     v_max: float) -> None:
    """16-bit grayscale PGM scaled so [v_min, v_max] spans [0, 65535]."""
    t = np.clip((np.asarray(thickness_vox) - v_min) / (v_max - v_min), 0.0, 1.0)
    img = np.round(t * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(img.tobytes())


_STL_TRIANGLE = np.dtype(
    [("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attribute", "<u2")]
)


def thickness_to_stl(path, thickness_vox: np.ndarray, dx: float,
                     dz: float) -> None:
    """Binary STL of the lens: the closed surface of its voxels.

    Column (i, j) is solid on slices k < floor(t + 0.5), as
    `lensmap.binarize` rounds. Each face between a solid voxel and an
    empty one (or the outside) is a quad of two triangles, normal
    outward, split along its diagonal from its lowest corner. The header
    counts the faces first; then each axis's records are written in
    turn, their vertices looked up in float32 tables of the grid points'
    coordinates (each product rounded once from double, as the records
    store it), indexed by the narrowest unsigned type.
    """
    n_solid = np.floor(np.asarray(thickness_vox, dtype=np.float64) + 0.5)
    depth = int(n_solid.max(initial=0))
    solid = np.pad(np.arange(depth) < n_solid[:, :, None], 1).astype(np.int8)
    index = np.min_scalar_type(max(solid.shape))
    coords = [(np.arange(n - 1) * d).astype("<f4")
              for n, d in zip(solid.shape, (dx, dx, dz))]
    faces = sum(int(np.count_nonzero(np.diff(solid, axis=a)))
                for a in range(3))
    with open(path, "wb") as fh:
        fh.write(b"\0" * 80)
        fh.write((2 * faces).to_bytes(4, "little"))
        for a, e in enumerate(np.eye(3, dtype=index)):
            # the face across axis a at grid point lo: lo + ccw,
            # counterclockwise about +a from its lowest corner (outward
            # normal +a), or reversed
            b, c = np.roll(e, 1), np.roll(e, 2)
            ccw = np.array([0 * e, b, b + c, c])
            step = np.diff(solid, axis=a)   # -1: solid below, empty above
            at = np.nonzero(step)
            up = step[at] < 0
            lo = np.stack(at, axis=1).astype(index) + e - 1     # unpadded
            quads = lo[:, None] + np.where(up[:, None, None], ccw,
                                           ccw[[0, 3, 2, 1]])
            tris = quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3, 3)
            records = np.zeros(len(tris), dtype=_STL_TRIANGLE)
            records["normal"][:, a] = np.repeat(np.where(up, 1, -1), 2)
            for k in range(3):
                records["vertices"][:, :, k] = coords[k][tris[:, :, k]]
            records.tofile(fh)
