import json
import struct

import numpy as np
import pytest

from sonolens import io
from sonolens.grid import WATER, GridSpec, SourceSpec
from sonolens.medium import make_homogeneous
from sonolens.solver import ComplexField, prepare


def make_grid(nx=8, ny=8, nz=12, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


def loop_stl(path, t, dx, dz):
    """Reference STL writer: one column and one struct-packed triangle at a time."""
    nx, ny = t.shape
    tris = []

    def quad(a, b, c, d):
        tris.append((a, b, c))
        tris.append((a, c, d))

    for i in range(nx):
        for j in range(ny):
            h = t[i, j] * dz
            if h <= 0:
                continue
            x0, x1 = i * dx, (i + 1) * dx
            y0, y1 = j * dx, (j + 1) * dx
            quad((x0, y0, 0), (x0, y1, 0), (x1, y1, 0), (x1, y0, 0))
            quad((x0, y0, h), (x1, y0, h), (x1, y1, h), (x0, y1, h))
            quad((x0, y0, 0), (x1, y0, 0), (x1, y0, h), (x0, y0, h))
            quad((x1, y0, 0), (x1, y1, 0), (x1, y1, h), (x1, y0, h))
            quad((x1, y1, 0), (x0, y1, 0), (x0, y1, h), (x1, y1, h))
            quad((x0, y1, 0), (x0, y0, 0), (x0, y0, h), (x0, y1, h))

    with open(path, "wb") as fh:
        fh.write(b"\0" * 80)
        fh.write(struct.pack("<I", len(tris)))
        for a, b, c in tris:
            n = np.cross(np.subtract(b, a), np.subtract(c, a))
            norm = np.linalg.norm(n)
            n = n / norm if norm > 0 else n
            fh.write(struct.pack("<3f", *n))
            for p in (a, b, c):
                fh.write(struct.pack("<3f", *p))
            fh.write(b"\0\0")


class TestSaveRaw:
    @pytest.mark.parametrize("values, dtype, itemsize", [
        (np.zeros((3, 4, 5), dtype=">i2"), "int16", 2),
        (np.zeros((3, 4, 5), dtype=np.float32), "float32", 4),
        (np.zeros((3, 4), dtype=np.complex128), "complex64_interleaved", 8),
    ])
    def test_dims_and_dtype_follow_the_array(self, tmp_path, values, dtype,
                                             itemsize):
        io.save_raw(tmp_path / "a", make_grid(), values, ["x"],
                    {"config_hash": "abc"})
        header = json.loads((tmp_path / "a.json").read_text())
        assert header["dims"] == list(values.shape)
        assert header["dtype"] == dtype
        assert header["fields"] == ["x"] and header["config_hash"] == "abc"
        assert (tmp_path / "a.raw").stat().st_size == itemsize * values.size

    def test_big_endian_input_written_little_endian(self, tmp_path):
        io.save_raw(tmp_path / "a", make_grid(), np.array([1, -2], dtype=">i2"),
                    ["x"])
        assert (tmp_path / "a.raw").read_bytes() == struct.pack("<2h", 1, -2)


class TestHuRoundTrip:
    def test_round_trip(self, tmp_path):
        g = make_grid()
        rng = np.random.default_rng(0)
        hu = rng.integers(-500, 1500, size=g.shape)
        io.save_hu_volume(tmp_path / "ct", g, hu)
        g2, back = io.load_hu_volume(tmp_path / "ct")
        assert np.array_equal(back, hu)
        assert g2.shape == g.shape

    def test_int16_payload(self, tmp_path):
        g = make_grid()
        io.save_hu_volume(tmp_path / "ct", g, np.zeros(g.shape, dtype=int))
        assert (tmp_path / "ct.raw").stat().st_size == 8 * 8 * 12 * 2


class TestFieldRoundTrip:
    def test_complex_round_trip(self, tmp_path):
        g = make_grid()
        rng = np.random.default_rng(1)
        v = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        io.save_field(tmp_path / "f", ComplexField(v, g))
        back = io.load_field(tmp_path / "f")
        assert np.allclose(back.values, v, rtol=1e-6, atol=1e-7)
        assert back.values.dtype == np.complex128

    def test_slice_major_run_field_writes_c_order_bytes(self, tmp_path):
        # a run stores its field slice-major and hands out an (nx, ny, nz)
        # view; the file holds the same C-order bytes as a C-order copy
        g = make_grid(8, 6, 12)
        p = prepare(SourceSpec.disk(g, 0.6e-3),
                    make_homogeneous(g, WATER)).field_only()
        assert not p.values.flags.c_contiguous
        io.save_field(tmp_path / "run", p)
        io.save_field(tmp_path / "copy",
                      ComplexField(np.ascontiguousarray(p.values), g))
        assert ((tmp_path / "run.raw").read_bytes()
                == (tmp_path / "copy.raw").read_bytes())
        back = io.load_field(tmp_path / "run")
        assert np.array_equal(back.values, p.values.astype(np.complex64))

    def test_interleaved_layout(self, tmp_path):
        # first two float32 words are (re, im) of the first voxel
        g = make_grid()
        v = np.zeros(g.shape, dtype=complex)
        v[0, 0, 0] = 3.0 - 4.0j
        io.save_field(tmp_path / "f", ComplexField(v, g))
        words = np.fromfile(tmp_path / "f.raw", dtype="<f4", count=2)
        assert words[0] == 3.0 and words[1] == -4.0

    def test_header_dims_from_shape(self, tmp_path):
        g = make_grid(8, 6, 4)
        io.save_field(tmp_path / "f", ComplexField(np.ones(g.shape, complex), g))
        header = json.loads((tmp_path / "f.json").read_text())
        assert header["dims"] == [8, 6, 4]
        assert (tmp_path / "f.raw").stat().st_size == 8 * 6 * 4 * 2 * 4

    @pytest.mark.parametrize("cut", [8, 4])
    def test_truncated_payload_rejected(self, tmp_path, cut):
        g = make_grid()
        io.save_field(tmp_path / "f", ComplexField(np.ones(g.shape, complex), g))
        raw = (tmp_path / "f.raw").read_bytes()
        (tmp_path / "f.raw").write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="size"):
            io.load_field(tmp_path / "f")

    def test_payload_with_a_trailing_word_rejected(self, tmp_path):
        # half a complex value past the header's dims is a size mismatch,
        # not a payload to read up to its last whole value
        g = make_grid()
        io.save_field(tmp_path / "f", ComplexField(np.ones(g.shape, complex), g))
        with open(tmp_path / "f.raw", "ab") as fh:
            fh.write(np.float32(1.0).tobytes())
        with pytest.raises(ValueError, match="size"):
            io.load_field(tmp_path / "f")


class TestPlaneRoundTrip:
    def test_round_trip(self, tmp_path):
        g = make_grid()
        rng = np.random.default_rng(2)
        plane = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        io.save_plane(tmp_path / "p", plane, g)
        header, back = io.load_plane(tmp_path / "p")
        assert np.allclose(back, plane, rtol=1e-6, atol=1e-7)
        assert header["dims"] == [8, 8]

    def test_truncated_payload_rejected(self, tmp_path):
        g = make_grid()
        io.save_plane(tmp_path / "p", np.ones((8, 8), dtype=complex), g)
        raw = (tmp_path / "p.raw").read_bytes()
        (tmp_path / "p.raw").write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="size"):
            io.load_plane(tmp_path / "p")

    def test_volume_file_is_not_a_plane(self, tmp_path):
        g = make_grid()
        io.save_field(tmp_path / "f", ComplexField(np.ones(g.shape, complex), g))
        with pytest.raises(ValueError, match="2 dims"):
            io.load_plane(tmp_path / "f")


class TestThicknessExports:
    def test_csv_in_meters(self, tmp_path):
        t_vox = np.array([[2.0, 4.0], [6.0, 8.0]])
        io.thickness_to_csv(tmp_path / "t.csv", t_vox, dz=125e-6)
        back = np.loadtxt(tmp_path / "t.csv", delimiter=",")
        assert np.allclose(back, t_vox * 125e-6)

    def test_pgm_header_and_scaling(self, tmp_path):
        t = np.array([[1.0, 5.5], [10.0, 12.0]])
        io.thickness_to_pgm(tmp_path / "t.pgm", t, v_min=1.0, v_max=10.0)
        data = (tmp_path / "t.pgm").read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert data.startswith(header)
        img = np.frombuffer(data[len(header):], dtype=">u2").reshape(2, 2)
        assert img[0, 0] == 0          # v_min maps to black
        assert img[1, 0] == 65535      # v_max maps to white
        assert img[1, 1] == 65535      # clipped above v_max
        assert img[0, 1] == round((5.5 - 1.0) / 9.0 * 65535)

    def test_stl_size_and_triangle_count(self, tmp_path):
        # 12 triangles (50 bytes each) per retained column + 84-byte header
        t = np.array([[2.0, 0.0], [3.0, 4.0]])
        io.thickness_to_stl(tmp_path / "l.stl", t, dx=125e-6, dz=125e-6)
        data = (tmp_path / "l.stl").read_bytes()
        n_cols = 3  # zero-thickness column skipped
        assert struct.unpack("<I", data[80:84])[0] == 12 * n_cols
        assert len(data) == 84 + 50 * 12 * n_cols

    @pytest.mark.parametrize("seed", range(5))
    def test_stl_matches_loop_writer(self, tmp_path, seed):
        # random maps with zero and negative columns; files must be
        # byte-identical
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 12, size=2))
        t = rng.uniform(0.0, 16.0, size=shape)
        t[rng.random(shape) < 0.2] = 0.0
        t[rng.random(shape) < 0.1] = -3.0
        dx, dz = rng.uniform(5e-5, 2e-4, size=2)
        io.thickness_to_stl(tmp_path / "vec.stl", t, dx, dz)
        loop_stl(tmp_path / "loop.stl", t, dx, dz)
        assert ((tmp_path / "vec.stl").read_bytes()
                == (tmp_path / "loop.stl").read_bytes())

    def test_stl_empty_map_header_only(self, tmp_path):
        io.thickness_to_stl(tmp_path / "l.stl", np.zeros((3, 4)), 1e-4, 1e-4)
        data = (tmp_path / "l.stl").read_bytes()
        assert len(data) == 84
        assert struct.unpack("<I", data[80:84])[0] == 0
