import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sonolens import io
from sonolens.grid import WATER, GridSpec, disk_source
from sonolens.medium import make_homogeneous
from sonolens.solver import ComplexField, prepare


def make_grid(nx=8, ny=8, nz=12, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


REPO = Path(__file__).resolve().parents[1]
STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)),
                       ("attribute", "<u2")])


def pack_stl(path, tris):
    """Binary STL of triangles (a, b, c), one struct-packed record at a
    time, each with its normalized (b - a) x (c - a)."""
    with open(path, "wb") as fh:
        fh.write(b"\0" * 80)
        fh.write(struct.pack("<I", len(tris)))
        for a, b, c in tris:
            n = np.cross(np.subtract(b, a), np.subtract(c, a))
            norm = np.linalg.norm(n)
            n = n / norm + 0.0 if norm > 0 else n      # + 0.0: no -0.0
            fh.write(struct.pack("<3f", *n))
            for p in (a, b, c):
                fh.write(struct.pack("<3f", *p))
            fh.write(b"\0\0")


def loop_stl(path, t, dx, dz):
    """The solid as column prisms, one column at a time: a prism of height
    t*dz per column of positive t, 12 triangles, its inner walls
    included. On a whole-voxel map it encloses the voxels' solid."""
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
    pack_stl(path, tris)


def voxel_stl(path, t, dx, dz):
    """Reference surface writer, one voxel at a time: column (i, j) is
    solid on slices k < floor(t + 0.5), and each face of a solid voxel
    toward an empty neighbour (or the outside) is a quad from its lowest
    corner, counterclockwise seen from outside, split along the diagonal
    from that corner."""
    nx, ny = t.shape
    n = np.floor(t + 0.5)

    def solid(i, j, k):
        return 0 <= i < nx and 0 <= j < ny and 0 <= k < n[i, j]

    tris = []

    def quad(a, b, c, d):
        tris.append((a, b, c))
        tris.append((a, c, d))

    for i, j, k in np.ndindex(nx, ny, int(n.max(initial=0))):
        if not solid(i, j, k):
            continue
        x0, x1 = i * dx, (i + 1) * dx
        y0, y1 = j * dx, (j + 1) * dx
        z0, z1 = k * dz, (k + 1) * dz
        if not solid(i - 1, j, k):
            quad((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0))
        if not solid(i + 1, j, k):
            quad((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1))
        if not solid(i, j - 1, k):
            quad((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1))
        if not solid(i, j + 1, k):
            quad((x0, y1, z0), (x0, y1, z1), (x1, y1, z1), (x1, y1, z0))
        if not solid(i, j, k - 1):
            quad((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0))
        if not solid(i, j, k + 1):
            quad((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1))
    pack_stl(path, tris)


def stl_records(path):
    data = Path(path).read_bytes()
    (n,) = struct.unpack("<I", data[80:84])
    assert len(data) == 84 + 50 * n
    return np.frombuffer(data, STL_RECORD, count=n, offset=84)


def stl_volume(path):
    """The enclosed volume by the divergence theorem: the sum of the
    signed tetrahedra (0, a, b, c) over the triangles."""
    v = stl_records(path)["vertices"].astype(np.float64)
    return np.einsum("ij,ij", v[:, 0], np.cross(v[:, 1], v[:, 2])) / 6


def directed_edges(path, dx, dz):
    """How often each directed edge (p, q) of the mesh occurs, its
    vertices as points of the voxel lattice."""
    v = stl_records(path)["vertices"] / np.array([dx, dx, dz])
    p = [tuple(x) for x in np.rint(v).astype(int).reshape(-1, 3).tolist()]
    tris = zip(p[0::3], p[1::3], p[2::3])
    return Counter(e for a, b, c in tris for e in ((a, b), (b, c), (c, a)))


def diagonal_contacts(t):
    """The lattice edges, as sets of their two end points, along which two
    solid voxels touch diagonally: of the four voxels around the edge,
    two solid ones face each other across it and the other two are
    empty."""
    n = np.floor(t + 0.5)
    depth = int(n.max(initial=0))
    s = np.pad(np.arange(depth) < n[:, :, None], 1)
    edges = set()
    for a in range(3):
        m = np.moveaxis(s, a, 0)[1:-1]
        q00, q10, q01, q11 = (m[:, :-1, :-1], m[:, 1:, :-1], m[:, :-1, 1:],
                              m[:, 1:, 1:])
        off_axis = [b for b in range(3) if b != a]
        for k, u, v in np.argwhere((q00 == q11) & (q10 == q01) & (q00 != q10)):
            lo = [0, 0, 0]
            lo[a], lo[off_axis[0]], lo[off_axis[1]] = k, u, v
            hi = list(lo)
            hi[a] += 1
            edges.add(frozenset((tuple(lo), tuple(hi))))
    return edges


def random_map(seed):
    """A random map with zero, negative and fractional columns, and a
    random (dx, dz)."""
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 12, size=2))
    t = rng.uniform(0.0, 16.0, size=shape)
    t[rng.random(shape) < 0.2] = 0.0
    t[rng.random(shape) < 0.1] = -3.0
    dx, dz = rng.uniform(5e-5, 2e-4, size=2)
    return t, dx, dz


def lens_maps():
    """The benchmark's base lens (voxels of 125 um) and five random maps,
    as (t, dx, dz)."""
    base = np.loadtxt(REPO / "perfbench" / "base_lens.csv", delimiter=",")
    return [pytest.param(base / 125e-6, 125e-6, 125e-6, id="base_lens"),
            *(pytest.param(*random_map(seed), id=f"random{seed}")
              for seed in range(5))]


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
        p = prepare(disk_source(g, 0.6e-3),
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
        # columns round half up to 2, 0, 3 and 4 voxels: 9 voxels with 6
        # vertical and 5 lateral contacts show 6*9 - 2*11 = 32 faces, two
        # triangles (50 bytes each) per face + 84-byte header
        t = np.array([[2.0, 0.4], [2.5, 3.5]])
        io.thickness_to_stl(tmp_path / "l.stl", t, dx=125e-6, dz=125e-6)
        data = (tmp_path / "l.stl").read_bytes()
        assert struct.unpack("<I", data[80:84])[0] == 2 * 32
        assert len(data) == 84 + 50 * 2 * 32

    @pytest.mark.parametrize("seed", range(5))
    def test_stl_matches_loop_writer(self, tmp_path, seed):
        # the same triangles, normals included, as the voxel-by-voxel
        # writer's
        t, dx, dz = random_map(seed)
        io.thickness_to_stl(tmp_path / "vec.stl", t, dx, dz)
        voxel_stl(tmp_path / "loop.stl", t, dx, dz)
        vec, loop = (sorted(r.tobytes() for r in stl_records(tmp_path / name))
                     for name in ("vec.stl", "loop.stl"))
        assert vec == loop

    @pytest.mark.parametrize("t, dx, dz", lens_maps())
    def test_stl_is_closed_and_oriented(self, tmp_path, t, dx, dz):
        # every directed edge occurs as often as its reverse, once, or
        # twice where two solid voxels touch along it diagonally: no face
        # lies inside the solid (the column prisms' inner walls did)
        io.thickness_to_stl(tmp_path / "l.stl", t, dx, dz)
        edges = directed_edges(tmp_path / "l.stl", dx, dz)
        contacts = diagonal_contacts(t)
        assert edges
        for (p, q), count in edges.items():
            assert edges[q, p] == count
            assert count == (2 if frozenset((p, q)) in contacts else 1)

    @pytest.mark.parametrize("t, dx, dz", lens_maps())
    def test_stl_edges_of_more_than_two_triangles_are_diagonal_contacts(
            self, tmp_path, t, dx, dz):
        # STL identifies vertices by coordinates, so an edge where two
        # solid voxels touch diagonally is shared by 4 triangles and cannot
        # be split; every other edge by 2
        io.thickness_to_stl(tmp_path / "l.stl", t, dx, dz)
        shared = Counter()
        for (p, q), count in directed_edges(tmp_path / "l.stl", dx,
                                            dz).items():
            shared[frozenset((p, q))] += count
        assert ({e for e, count in shared.items() if count > 2}
                == diagonal_contacts(t))

    def test_base_lens_has_eight_diagonal_contacts(self):
        t = np.loadtxt(REPO / "perfbench" / "base_lens.csv",
                       delimiter=",") / 125e-6
        assert len(diagonal_contacts(t)) == 8

    @pytest.mark.parametrize("t, dx, dz", lens_maps())
    def test_stl_volume_is_the_rounded_voxel_count(self, tmp_path, t, dx,
                                                   dz):
        io.thickness_to_stl(tmp_path / "l.stl", t, dx, dz)
        n_voxels = np.clip(np.floor(t + 0.5), 0, None).sum()
        assert stl_volume(tmp_path / "l.stl") / (dx * dx * dz) == \
            pytest.approx(n_voxels, rel=1e-6)

    @pytest.mark.parametrize("t, dx, dz", lens_maps())
    def test_stl_volume_equals_the_prism_oracle_on_whole_voxels(
            self, tmp_path, t, dx, dz):
        # the column prisms enclose the solid of a whole-voxel map
        t = np.floor(t + 0.5)
        io.thickness_to_stl(tmp_path / "vec.stl", t, dx, dz)
        loop_stl(tmp_path / "prisms.stl", t, dx, dz)
        assert stl_volume(tmp_path / "vec.stl") == pytest.approx(
            stl_volume(tmp_path / "prisms.stl"), rel=1e-6, abs=0.0)

    def test_stl_empty_map_header_only(self, tmp_path):
        io.thickness_to_stl(tmp_path / "l.stl", np.zeros((3, 4)), 1e-4, 1e-4)
        data = (tmp_path / "l.stl").read_bytes()
        assert len(data) == 84
        assert struct.unpack("<I", data[80:84])[0] == 0
