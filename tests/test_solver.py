import importlib.util
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _diffract,
    _diffract_transpose,
    embedded_arrays,
    full_grid_adjoint,
    full_grid_forward,
    full_grid_sweeps,
)
from sonolens import solver
from sonolens.grid import (
    BONE,
    FORM_CLEAR,
    VEROCLEAR,
    WATER,
    GridSpec,
    MaterialProperties,
    disk_source,
    full_plane_source,
)
from sonolens.medium import make_homogeneous
from sonolens.solver import (
    SolverConfig,
    _diffraction_kernel,
    backproject,
    prepare,
    propagate,
    propagate_adjoint,
    propagate_with_lens,
)


def make_grid(nx=16, ny=16, nz=24, d=125e-6):
    return GridSpec(nx, ny, nz, d, d, d, 2e6, 1500.0)


def lens_run(src, med, occ, mat, z_offset, cfg=None):
    """One forward run with a lens, on a medium prepared for it alone."""
    return propagate_with_lens(
        prepare(src, med, cfg, mat, z_offset, occ.shape[2]), occ)


class TestPassband:
    """The diffraction step on the kernel's passband (`solver._Passband`)
    against the full-grid FFT step of the oracles."""

    # odd sizes have no Nyquist row or column; the 65x65 grid is the
    # piston reference's; cutoff 3.2 keeps the Nyquist row of a 16-point
    # x axis (at 3.0*k0 on this grid) but not every bin
    CASES = [(16, 16, 0.5), (16, 16, 1.0), (16, 16, 1.5), (24, 20, 0.5),
             (24, 20, 1.0), (24, 20, 1.5), (64, 64, 0.5), (64, 64, 1.0),
             (64, 64, 1.5), (24, 20, 5.0), (15, 17, 1.0), (15, 17, 5.0),
             (65, 65, 1.0), (16, 16, 3.2)]

    @staticmethod
    def steps(nx, ny, cutoff, planes=1):
        g = make_grid(nx, ny, 4)
        H = _diffraction_kernel(g, cutoff, g.dz)
        band = solver._Passband.of(H)
        rng = np.random.default_rng(nx + ny)
        u = (rng.normal(size=(planes, nx, ny))
             + 1j * rng.normal(size=(planes, nx, ny)))
        return H, band, u

    @staticmethod
    def step(band, mats_in, mats_out, u):
        K = np.empty((*u.shape[:-2], *band.H.shape), dtype=complex)
        solver._into_band(mats_in, u, K, band.tmp)
        K *= band.H
        return solver._out_of_band(mats_out, K, np.empty_like(u), band.tmp)

    @pytest.mark.parametrize("nx, ny, cutoff", CASES)
    def test_step_and_its_transpose_match_the_fft_oracle(self, nx, ny, cutoff):
        H, band, (u,) = self.steps(nx, ny, cutoff)
        if cutoff == 5.0:       # every bin within the cutoff
            assert band.H.shape == (nx, ny) and np.all(H)
        elif cutoff == 3.2:     # the Nyquist row, not the corners
            assert H[nx // 2].any() and not np.all(H)
            assert band.H.shape == (nx, ny)
        else:
            assert band.H.shape[0] < nx and band.H.shape[1] < ny
        for mats, oracle in (
                ((band.into, band.back), _diffract),
                ((band.into_t, band.back_t), _diffract_transpose)):
            ref = oracle(u, H)
            err = np.abs(self.step(band, *mats, u) - ref).max()
            assert err <= 1e-14 * np.abs(ref).max()

    def test_block_products_match_plane_by_plane(self):
        # a block of more planes than one product takes (_BLOCK) runs in
        # blocks, the last one partial
        H, band, u = self.steps(24, 20, 1.0, planes=2 * solver._BLOCK + 3)
        for mats in ((band.into, band.back), (band.into_t, band.back_t)):
            block = self.step(band, *mats, u)
            for k, plane in enumerate(u):
                assert_close(block[k], self.step(band, *mats, plane))


class TestDiffractionKernel:
    def wavenumbers(self, g):
        kx = 2 * np.pi * np.fft.fftfreq(g.nx, g.dx)
        ky = 2 * np.pi * np.fft.fftfreq(g.ny, g.dy)
        return np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)

    @pytest.mark.parametrize("nx, ny", [(16, 16), (15, 17), (64, 20)])
    @pytest.mark.parametrize("cutoff", [1.0, 1.5, 5.0])
    def test_kernel_is_bitwise_even_in_kx(self, nx, ny, cutoff):
        # the premise of the passband's real form along x: rows k and -k
        # (mod nx) are equal, bit for bit, at either sign of the distance
        g = make_grid(nx, ny, 4)
        for d in (g.dz, -3 * g.dz):
            H = _diffraction_kernel(g, cutoff, d)
            assert np.array_equal(H, H[(-np.arange(nx)) % nx])

    def test_cutoff_above_one_keeps_decaying_evanescent_bins(self):
        # oracle: k0 < kt <= 1.5*k0 decays as exp(-sqrt(kt^2 - k0^2)*dz),
        # kt > 1.5*k0 is removed, kt <= k0 advances by exp(i*kz*dz)
        g = make_grid(32, 32, 8)
        k0, kt = g.k0, self.wavenumbers(g)
        H = _diffraction_kernel(g, 1.5, g.dz)
        prop = kt <= k0
        evan = (kt > k0) & (kt <= 1.5 * k0)
        beyond = kt > 1.5 * k0
        assert evan.any() and beyond.any()
        assert np.allclose(H[evan], np.exp(-np.sqrt(kt[evan] ** 2 - k0**2) * g.dz),
                           rtol=1e-12, atol=0.0)
        assert np.all(H[beyond] == 0.0)
        assert np.allclose(H[prop], np.exp(1j * np.sqrt(k0**2 - kt[prop] ** 2) * g.dz),
                           rtol=1e-12, atol=0.0)

    def test_default_cutoff_removes_all_evanescent_bins(self):
        g = make_grid(32, 32, 8)
        H = _diffraction_kernel(g, 1.0, g.dz)
        assert np.all(H[self.wavenumbers(g) > g.k0] == 0.0)

    def test_negative_distance_conjugates_and_still_decays(self):
        g = make_grid(32, 32, 8)
        d = 3 * g.dz
        prop = self.wavenumbers(g) <= g.k0
        forward = _diffraction_kernel(g, 1.5, d)
        back = _diffraction_kernel(g, 1.5, -d)
        assert np.allclose(back[prop], np.conj(forward[prop]), rtol=1e-12, atol=0.0)
        assert np.array_equal(back[~prop], forward[~prop])
        assert np.all(np.abs(back[~prop]) < 1.0)


class TestPropagate:
    def test_plane_wave_invariance(self):
        # unit plane wave is an eigenfunction of the periodic spectral step
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        p, _ = propagate(src, med, SolverConfig())
        assert np.max(np.abs(np.abs(p.values) - 1.0)) < 1e-9

    def test_slab_attenuation_closed_form(self):
        # oracle: power-law attenuation over 1 cm of resin at 2 MHz plus
        # the two interface pressure-transmission factors, all closed form
        g = GridSpec(8, 8, 96, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
        med = make_homogeneous(g, WATER)
        med.c[:, :, 8:88] = FORM_CLEAR.sound_speed
        med.rho[:, :, 8:88] = FORM_CLEAR.density
        med.att[:, :, 8:88] = FORM_CLEAR.attenuation_coeff
        med.att_power[:, :, 8:88] = FORM_CLEAR.attenuation_power
        src = full_plane_source(g)
        p, _ = propagate(src, med, SolverConfig(reflection_order=0))

        z1, z2 = WATER.impedance, FORM_CLEAR.impedance
        t_in = 2.0 * z2 / (z1 + z2)
        t_out = 2.0 * z1 / (z1 + z2)
        alpha_np = FORM_CLEAR.attenuation_np_per_m(2e6)
        # 6.02 dB over the 1 cm slab -> amplitude factor ~0.500
        assert np.exp(-alpha_np * 0.01) == pytest.approx(0.500, abs=0.002)
        expected = t_in * t_out * np.exp(-alpha_np * 80 * g.dz)
        assert np.abs(p.values[4, 4, 90]) == pytest.approx(expected, rel=1e-9)

    def test_energy_conservation_per_slice(self):
        # Parseval: propagating-only transfer function is unitary
        g = make_grid(32, 32, 32)
        med = make_homogeneous(g, WATER)
        rng = np.random.default_rng(0)
        plane = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        cfg = SolverConfig(reflection_order=0)
        p, _ = propagate(plane, med, cfg)
        energy = np.sum(np.abs(p.values) ** 2, axis=(0, 1))
        # slice 0 still carries evanescent content; compare the rest
        rel = np.abs(energy[1:] - energy[1]) / energy[1]
        assert np.max(rel) < 1e-9

    def test_reciprocity(self):
        g = make_grid(24, 24, 24)
        med = make_homogeneous(g, WATER)
        prepared = prepare(full_plane_source(g), med,
                           SolverConfig(reflection_order=0))
        a, b = (5, 7, 3), (16, 12, 20)

        def point_field(source_xy, source_slice, direction):
            plane = np.zeros((24, 24), dtype=np.complex128)
            plane[source_xy] = 1.0
            p, _ = prepared.run(sources={source_slice: plane},
                                direction=direction)
            return p.values

        p_ab = point_field(a[:2], a[2], +1)[b]
        p_ba = point_field(b[:2], b[2], -1)[a]
        assert abs(p_ab - p_ba) / abs(p_ab) < 1e-6

    def test_nan_medium_rejected(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        med.att[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            propagate(full_plane_source(g), med)

    def test_nan_attenuation_power_rejected(self):
        # set after construction, it used to run to an all-NaN field,
        # also where att is 0
        g = make_grid()
        med = make_homogeneous(g, WATER)
        med.att_power[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            propagate(full_plane_source(g), med)

    def test_reflection_order_convergence(self):
        # per-order increments bounded by |r_max|^order * |P0|_inf
        g = make_grid()
        med = make_homogeneous(g, WATER)
        med.c[:, :, 10:14] = FORM_CLEAR.sound_speed
        med.rho[:, :, 10:14] = FORM_CLEAR.density
        src = full_plane_source(g)
        r = (FORM_CLEAR.impedance - WATER.impedance) / (
            FORM_CLEAR.impedance + WATER.impedance
        )
        fields = []
        for order in range(5):
            p, _ = propagate(src, med, SolverConfig(reflection_order=order))
            fields.append(p.values)
        p0_max = np.abs(fields[0]).max()
        for order in range(1, 5):
            inc = np.abs(fields[order] - fields[order - 1]).max()
            assert inc <= abs(r) ** order * p0_max * (1.0 + 1e-9)

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            SolverConfig(reflection_order=9)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan")])
    def test_cutoff_must_be_positive(self, cutoff):
        # a NaN cutoff used to pass and zero no bin of the kernel
        with pytest.raises(ValueError, match="angular_cutoff"):
            SolverConfig(angular_cutoff=cutoff)


class TestAdjoint:
    def test_zero_upstream_zero_gradient(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        occ = np.full((16, 16, 2), 0.5)
        _, cache = lens_run(full_plane_source(g), med, occ,
                                       FORM_CLEAR, 4)
        adj = propagate_adjoint(cache, np.zeros(g.shape, dtype=np.complex128))
        assert np.all(adj.occupancy == 0.0)
        assert np.all(adj.source_plane == 0.0)

    def test_source_cotangent_exact_by_linearity(self):
        # forward is complex-linear in the source plane, so the source
        # dot-product identity holds to machine precision (no FD involved)
        g = make_grid()
        med = make_homogeneous(g, WATER)
        med.c[:, :, 8:10] = FORM_CLEAR.sound_speed
        med.rho[:, :, 8:10] = FORM_CLEAR.density
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=2)
        rng = np.random.default_rng(4)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        delta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))

        p0, cache = propagate(src, med, cfg)
        adj = propagate_adjoint(cache, upstream)
        p1, _ = propagate(src + delta, med, cfg)
        lhs = np.real(np.sum(upstream * (p1.values - p0.values)))
        rhs = np.real(np.sum(adj.source_plane * delta))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-300) < 1e-10

    def test_occupancy_dot_product(self):
        # directional central difference vs adjoint pairing
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=2)
        rng = np.random.default_rng(7)
        occ = rng.uniform(0.1, 0.9, size=(16, 16, 3))
        delta = rng.normal(size=occ.shape)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)

        _, cache = lens_run(src, med, occ, FORM_CLEAR, 6, cfg)
        adj = propagate_adjoint(cache, upstream)
        rhs = np.sum(adj.occupancy * delta)

        eps = 1e-6
        pp, _ = lens_run(src, med, occ + eps * delta, FORM_CLEAR, 6, cfg)
        pm, _ = lens_run(src, med, occ - eps * delta, FORM_CLEAR, 6, cfg)
        lhs = np.real(np.sum(upstream * (pp.values - pm.values))) / (2 * eps)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7

    def test_gradient_sign_flips_with_sound_speed(self):
        # FD sign oracle: a faster-than-water voxel lowers |P|^2 at the
        # on-axis point, a slower one raises it; adjoint reproduces both
        g = make_grid()
        med = make_homogeneous(g, WATER)
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=0)
        focus = (8, 8, 18)

        def adjoint_and_fd(mat):
            occ = np.zeros((16, 16, 1))
            occ[8, 8, 0] = 0.5
            p, cache = lens_run(src, med, occ, mat, 5, cfg)
            upstream = np.zeros(g.shape, dtype=np.complex128)
            upstream[focus] = 2.0 * np.conj(p.values[focus])
            adj = propagate_adjoint(cache, upstream)

            def loss(v):
                o = np.zeros((16, 16, 1))
                o[8, 8, 0] = v
                q, _ = lens_run(src, med, o, mat, 5, cfg)
                return abs(q.values[focus]) ** 2

            fd = (loss(0.5 + 1e-6) - loss(0.5 - 1e-6)) / 2e-6
            return adj.occupancy[8, 8, 0], fd

        g_fast, fd_fast = adjoint_and_fd(MaterialProperties(1600.0, 1000.0))
        g_slow, fd_slow = adjoint_and_fd(MaterialProperties(1400.0, 1000.0))
        assert np.sign(g_fast) == np.sign(fd_fast)
        assert np.sign(g_slow) == np.sign(fd_slow)
        assert np.sign(g_fast) != np.sign(g_slow)

    def test_stale_cache_shape_rejected(self):
        g = make_grid()
        med = make_homogeneous(g, WATER)
        _, cache = propagate(full_plane_source(g), med)
        with pytest.raises(ValueError, match="shape"):
            propagate_adjoint(cache, np.zeros((8, 8, 8), dtype=np.complex128))


def assert_close(value, oracle):
    """Agreement to 1e-12 of the oracle's largest magnitude: the solver
    reorders the oracle's arithmetic (homogeneous runs march in the
    spectral domain; the slab gradients sum over sweeps first)."""
    err = np.max(np.abs(value - oracle), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(oracle), initial=0.0)


def bone_layers(g, *slabs, mat=BONE):
    """Water with full-plane layers of `mat` on the given slice ranges."""
    med = make_homogeneous(g, WATER)
    for sl in slabs:
        med.c[:, :, sl] = mat.sound_speed
        med.rho[:, :, sl] = mat.density
        med.att[:, :, sl] = mat.attenuation_coeff
        med.att_power[:, :, sl] = mat.attenuation_power
    return med


# a soft-tissue-like fluid: its whole-plane screen is a scalar other than 1
TISSUE = MaterialProperties(1540.0, 1040.0, 0.6, 1.1)
# absorbing water: no interface with water, so one homogeneous run crosses
# from a screen of 1 into its scalar and back
ABSORBING_WATER = MaterialProperties(1500.0, 1000.0, 0.6, 1.1)


class TestLeanAdjoint:
    """Slab-only property gradients against the full-grid adjoint oracle."""

    GRID = GridSpec(16, 16, 32, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    N_V = 3

    @pytest.mark.parametrize("layers, order, z_offset", [
        ((), 0, 8),
        ((slice(2, 4), slice(20, 23)), 4, 0),
        ((slice(2, 4), slice(20, 23)), 4, 14),
        ((slice(2, 4), slice(20, 23)), 4, 29),   # z_offset = nz - n_v
        ((slice(2, 4), slice(20, 23)), 0, 0),
        ((slice(2, 4), slice(20, 23)), 0, 14),
        ((slice(2, 4), slice(20, 23)), 0, 29),
        ((slice(2, 4), slice(20, 23)), 8, 8),    # bone on both sides
    ])
    def test_matches_full_grid_oracle(self, layers, order, z_offset):
        # one prepared medium, reused for several occupancies; each run
        # against a fresh forward and adjoint on embedded full-grid arrays
        g = self.GRID
        med = bone_layers(g, *layers)
        src = disk_source(g, 1.2e-3)
        cfg = SolverConfig(reflection_order=order)
        prepared = prepare(src, med, cfg, FORM_CLEAR, z_offset, self.N_V)
        rng = np.random.default_rng(z_offset)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        sl = np.s_[:, :, z_offset : z_offset + self.N_V]
        occs = []
        for _ in range(3):
            occ = rng.uniform(0.1, 0.9, size=(16, 16, self.N_V))
            occ[:4] = rng.integers(0, 2, size=(4, 16, self.N_V))
            occs.append(occ)
        # whole slices at 1, 1 and 0: slab pairs with no impedance change
        # (t = 1, no reflection) next to pairs with one
        occs.append(np.zeros((16, 16, self.N_V)))
        occs[-1][:, :, :2] = 1.0

        for occ in occs:
            p, cache = propagate_with_lens(prepared, occ)
            adj = propagate_adjoint(cache, upstream)
            c, rho, att = embedded_arrays(med, occ, FORM_CLEAR, z_offset)
            assert_close(p.values, full_grid_forward(g, cfg, c, rho, att,
                                                     src))
            source, gc, grho, gatt, occupancy = full_grid_adjoint(
                cache, full_grid_sweeps(g, cfg, c, rho, att,
                                        src),
                upstream, c, rho, att)
            assert_close(adj.source_plane, source)
            assert_close(adj.occupancy, occupancy)
            assert_close(adj.c, gc[sl])
            assert_close(adj.rho, grho[sl])
            assert_close(adj.att_np, gatt[sl])

    def test_without_lens_only_source_cotangent(self):
        g = self.GRID
        med = bone_layers(g, slice(2, 4), slice(20, 23))
        upstream = np.random.default_rng(3).normal(size=g.shape) + 0j
        src, cfg = disk_source(g, 1.2e-3), SolverConfig()
        _, cache = propagate(src, med, cfg)
        adj = propagate_adjoint(cache, upstream)
        att = med.attenuation_np_per_m()
        source, *_ = full_grid_adjoint(
            cache, full_grid_sweeps(g, cfg, med.c, med.rho, att,
                                    src),
            upstream, med.c, med.rho, att)
        assert_close(adj.source_plane, source)
        assert adj.occupancy is None
        for grad in (adj.c, adj.rho, adj.att_np):
            assert grad.shape == (16, 16, 0)

    def test_interface_mask_marks_impedance_changes(self):
        g = self.GRID
        med = bone_layers(g, slice(2, 4), slice(20, 23))
        _, cache = propagate(full_plane_source(g), med)
        assert [k for k, r in enumerate(cache.coeff)
                if r is not None] == [1, 3, 19, 22]

    def test_every_slab_pair_carries_one_reflection_plane(self):
        # slab slices at occupancy 1, 1 and 0 at z0 = 14: pairs 13-16 touch
        # the slab; 14 (lens on both sides) and 16 (water on both sides)
        # have equal impedance and keep a zero plane
        g = self.GRID
        med = bone_layers(g, slice(2, 4), slice(20, 23))
        occ = np.zeros((16, 16, self.N_V))
        occ[:, :, :2] = 1.0
        _, cache = lens_run(full_plane_source(g), med, occ, FORM_CLEAR, 14)
        assert [k for k, r in enumerate(cache.coeff)
                if r is not None] == [1, 3, 13, 14, 15, 16, 19, 22]
        c, rho, _ = embedded_arrays(med, occ, FORM_CLEAR, 14)
        Z = rho * c
        for k in range(13, 17):
            # r in the run's complex dtype, r + 0j
            r = cache.coeff[k]
            assert isinstance(r, np.ndarray) and r.dtype == np.complex128
            assert r.shape == (16, 16) and not r.imag.any()
            Z1, Z2 = Z[:, :, k], Z[:, :, k + 1]
            np.testing.assert_allclose(r.real, (Z2 - Z1) / (Z1 + Z2),
                                       rtol=1e-15, atol=0.0)
        assert not cache.coeff[14].any() and not cache.coeff[16].any()

    @pytest.mark.parametrize("z_offset, order", [
        pytest.param(0, 4, id="0"),
        pytest.param(8, 4, id="8"),
        pytest.param(29, 4, id="29"),
        pytest.param(0, 8, id="0-order8"),
        pytest.param(8, 8, id="8-order8"),
        pytest.param(29, 8, id="29-order8"),
    ])
    def test_occupancy_dot_product_through_bone_order_4(self, z_offset, order):
        # directional central difference with bone layers on both sides of
        # the lens: interface pairs off the slab still carry t and r
        g = self.GRID
        med = bone_layers(g, slice(2, 4), slice(20, 23))
        src = full_plane_source(g)
        cfg = SolverConfig(reflection_order=order)
        rng = np.random.default_rng(11)
        occ = rng.uniform(0.1, 0.9, size=(16, 16, self.N_V))
        delta = rng.normal(size=occ.shape)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)

        _, cache = lens_run(src, med, occ, FORM_CLEAR, z_offset, cfg)
        rhs = np.sum(propagate_adjoint(cache, upstream).occupancy * delta)
        # at 1e-6 the quotient's rounding noise reaches 1e-7 on 29-order8
        eps = 1e-5
        pp, _ = lens_run(src, med, occ + eps * delta, FORM_CLEAR,
                                    z_offset, cfg)
        pm, _ = lens_run(src, med, occ - eps * delta, FORM_CLEAR,
                                    z_offset, cfg)
        lhs = np.real(np.sum(upstream * (pp.values - pm.values))) / (2 * eps)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7


# (layers, layer material, z_offset, source_slice, direction, order, slab
# slices set to one occupancy across the plane, as {slab index: occupancy})
HOMOGENEOUS_CASES = [
    pytest.param((slice(3, 12),), TISSUE, 16, 0, 1, 4, {},
                 id="fluid-layer"),
    pytest.param((slice(3, 12),), ABSORBING_WATER, 16, 0, 1, 4, {},
                 id="absorbing-water-layer"),
    pytest.param((slice(2, 4),), BONE, 8, 25, -1, 4, {},
                 id="mid-grid-source-down"),
    pytest.param((slice(20, 23),), BONE, 8, 0, 1, 0, {0: 0.0},
                 id="empty-slab-slice-order0"),
    pytest.param((slice(20, 23),), BONE, 8, 0, 1, 4, {0: 0.0},
                 id="empty-slab-slice-order4"),
    # two lens slices next to each other: a slab pair with the lens
    # material on both sides, so r = 0 there and dr/dZ is not
    pytest.param((slice(20, 23),), BONE, 8, 0, 1, 4, {0: 1.0, 1: 1.0},
                 id="full-slab-slices-order4"),
]


class TestHomogeneousRuns:
    """Cases that march homogeneous runs (scalar screen, no interface, no
    injection) in the spectral domain: a long run with a scalar other than
    1, a run whose scalar changes without an interface, a run marched
    toward -z from a mid-grid source, and slab slices that are uniform for
    one run."""

    GRID = GridSpec(16, 16, 32, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    N_V = 3

    def setup_case(self, layers, mat, z_offset, source_slice, direction,
                   order, uniform):
        g = self.GRID
        med = bone_layers(g, *layers, mat=mat)
        cfg = SolverConfig(reflection_order=order)
        prepared = prepare(full_plane_source(g), med, cfg, FORM_CLEAR,
                           z_offset, self.N_V)
        rng = np.random.default_rng(17)
        plane = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        occ = rng.uniform(0.1, 0.9, size=(16, 16, self.N_V))
        for k, value in uniform.items():
            occ[:, :, k] = value
        delta = rng.normal(size=occ.shape)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)

        def run(o):
            return prepared.run(o, sources={source_slice: plane},
                                direction=direction)

        return med, cfg, plane, run, occ, delta, upstream

    @pytest.mark.parametrize("layers, mat, z_offset, source_slice, "
                             "direction, order, uniform", HOMOGENEOUS_CASES)
    def test_matches_full_grid_oracles(self, layers, mat, z_offset,
                                       source_slice, direction, order,
                                       uniform):
        g = self.GRID
        med, cfg, plane, run, occ, _, upstream = self.setup_case(
            layers, mat, z_offset, source_slice, direction, order, uniform)
        p, cache = run(occ)
        if mat is not BONE:
            assert np.ndim(cache.screen[7]) == 0 and cache.screen[7] != 1.0
        for k, value in uniform.items():
            assert np.ndim(cache.screen[z_offset + k]) == 0
            assert (cache.screen[z_offset + k] == 1.0) == (value == 0.0)
        c, rho, att = embedded_arrays(med, occ, FORM_CLEAR, z_offset)
        assert_close(p.values, full_grid_forward(
            g, cfg, c, rho, att, plane, source_slice, direction))
        adj = propagate_adjoint(cache, upstream)
        source, gc, grho, gatt, occupancy = full_grid_adjoint(
            cache, full_grid_sweeps(g, cfg, c, rho, att, plane, source_slice,
                                    direction),
            upstream, c, rho, att)
        sl = np.s_[:, :, z_offset : z_offset + self.N_V]
        assert_close(adj.source_plane, source)
        assert_close(adj.occupancy, occupancy)
        assert_close(adj.c, gc[sl])
        assert_close(adj.rho, grho[sl])
        assert_close(adj.att_np, gatt[sl])

    @pytest.mark.parametrize("layers, mat, z_offset, source_slice, "
                             "direction, order, uniform", HOMOGENEOUS_CASES)
    def test_occupancy_dot_product(self, layers, mat, z_offset, source_slice,
                                   direction, order, uniform):
        # a slab pair whose impedance is equal across the plane still
        # moves r at first order: the adjoint must apply dr/dZ there
        _, _, _, run, occ, delta, upstream = self.setup_case(
            layers, mat, z_offset, source_slice, direction, order, uniform)
        _, cache = run(occ)
        rhs = np.sum(propagate_adjoint(cache, upstream).occupancy * delta)
        eps = 1e-5
        pp, _ = run(occ + eps * delta)
        pm, _ = run(occ - eps * delta)
        lhs = np.real(np.sum(upstream * (pp.values - pm.values))) / (2 * eps)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7

    @pytest.mark.parametrize("layers, mat, z_offset, source_slice, "
                             "direction, order, uniform", HOMOGENEOUS_CASES)
    def test_each_sweep_keeps_the_plan_it_marched(self, layers, mat, z_offset,
                                                  source_slice, direction,
                                                  order, uniform):
        # each cached sweep's segments tile its slices after the first and
        # end exactly at the last slice and at the steps that fail the
        # homogeneous rule, written out here
        g = self.GRID
        *_, run, occ, _, _ = self.setup_case(
            layers, mat, z_offset, source_slice, direction, order, uniform)
        _, cache = run(occ)
        assert len(cache.sweeps) == order + 1
        for sweep in cache.sweeps:
            seq, segments = sweep.order, sweep.segments
            if sweep.direction > 0:
                assert seq == range(min(sweep.inject), g.nz)
            else:
                assert seq == range(max(sweep.inject), -1, -1)
            assert all(first <= last for first, last in segments)
            assert [i for first, last in segments
                    for i in range(first, last + 1)] == list(range(1, len(seq)))
            ends = {last for _, last in segments}
            for i in range(1, len(seq)):
                prev, s = seq[i - 1], seq[i]
                homogeneous = (np.ndim(cache.screen[s]) == 0
                               and cache.coeff[min(prev, s)] is None
                               and s not in sweep.inject)
                assert (i in ends) == (i == len(seq) - 1 or not homogeneous)
        assert any(last > first for sweep in cache.sweeps
                   for first, last in sweep.segments)
        assert ({sweep.direction for sweep in cache.sweeps}
                == ({1, -1} if order else {direction}))

    def test_a_screen_plane_without_an_interface_ends_a_segment(self):
        # absorbing water on half of each plane of slices 6-11: no
        # interface, but a screen that varies across the plane, which the
        # spectral domain cannot apply as one factor
        g = self.GRID
        med = make_homogeneous(g, WATER)
        med.att[:8, :, 6:12] = ABSORBING_WATER.attenuation_coeff
        med.att_power[:8, :, 6:12] = ABSORBING_WATER.attenuation_power
        src, cfg = disk_source(g, 1.2e-3), SolverConfig(reflection_order=0)
        p, cache = propagate(src, med, cfg)
        (sweep,) = cache.sweeps
        assert all(r is None for r in cache.coeff)
        assert ([sweep.order[last] for _, last in sweep.segments]
                == [*range(6, 12), g.nz - 1])
        att = med.attenuation_np_per_m()
        assert_close(p.values, full_grid_forward(g, cfg, med.c, med.rho, att,
                                                 src))
        rng = np.random.default_rng(5)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        source, *_ = full_grid_adjoint(
            cache, full_grid_sweeps(g, cfg, med.c, med.rho, att,
                                    src),
            upstream, med.c, med.rho, att)
        assert_close(propagate_adjoint(cache, upstream).source_plane, source)

    def test_water_march_makes_fewer_transforms_than_steps(self, monkeypatch):
        # through water every step after the source is homogeneous: one
        # transform into the passband on entry and one block product out
        # of it forward; the adjoint adds one block product of the
        # upstream planes to its entry and exit pair
        calls = []
        for name in ("_into_band", "_out_of_band"):
            def counted(*args, _fn=getattr(solver, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        g = self.GRID
        src = disk_source(g, 1.2e-3)
        p, cache = propagate(src, make_homogeneous(g, WATER),
                             SolverConfig(reflection_order=0))
        forward = len(calls)
        assert forward < 2 * (g.nz - 1)
        propagate_adjoint(cache, np.conj(p.values))
        assert len(calls) - forward < 2 * (g.nz - 1)

        # a bone layer on slices 20-22 cuts the sweep into three segments,
        # ending at slice 20, at slice 23 and at the last slice: each is
        # one transform into the passband and one out of it forward, and
        # one of vbar into it, one block product of its upstream planes
        # and one out of it adjoint
        calls.clear()
        p, cache = propagate(src, bone_layers(g, slice(20, 23)),
                             SolverConfig(reflection_order=0))
        assert len(calls) == 6
        propagate_adjoint(cache, np.conj(p.values))
        assert len(calls) == 6 + 9


class TestPreparedMedium:
    """Runs of one prepared medium are independent of each other."""

    GRID = GridSpec(16, 16, 32, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    N_V = 3

    def test_later_run_leaves_earlier_field_and_cache_unchanged(self):
        g = self.GRID
        prepared = prepare(disk_source(g, 1.2e-3),
                           bone_layers(g, slice(2, 4), slice(20, 23)),
                           SolverConfig(reflection_order=4), FORM_CLEAR, 14,
                           self.N_V)
        rng = np.random.default_rng(5)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        p1, cache1 = propagate_with_lens(
            prepared, rng.uniform(0.1, 0.9, size=(16, 16, self.N_V)))
        adj1 = propagate_adjoint(cache1, upstream)

        def state():
            arrays = [p1.values, cache1.c, cache1.rho, cache1.att_np,
                      *cache1.screen, *cache1.Z.values()]
            arrays += [r for r in cache1.coeff if r is not None]
            for sw in cache1.sweeps:
                arrays += [u for u in sw.u + sw.v if u is not None]
            return [a.copy() for a in arrays]

        before = state()
        p2, _ = propagate_with_lens(prepared, np.ones((16, 16, self.N_V)))
        assert not np.array_equal(p2.values, p1.values)
        after = state()
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        again = propagate_adjoint(cache1, upstream)
        assert np.array_equal(again.occupancy, adj1.occupancy)
        assert np.array_equal(again.source_plane, adj1.source_plane)

    def test_run_without_lens_matches_full_grid_run(self):
        g = self.GRID
        med = bone_layers(g, slice(2, 4), slice(20, 23))
        cfg = SolverConfig(reflection_order=4)
        plane = np.zeros((16, 16), dtype=np.complex128)
        plane[5, 9] = 1.0
        p, _ = prepare(full_plane_source(g), med, cfg).run(
            sources={25: plane}, direction=-1)
        fresh = full_grid_forward(g, cfg, med.c, med.rho,
                                  med.attenuation_np_per_m(), plane, 25, -1)
        assert_close(p.values, fresh)

    def lens_medium(self, dtype=np.complex128):
        g = self.GRID
        return prepare(disk_source(g, 1.2e-3),
                       bone_layers(g, slice(2, 4), slice(20, 23)),
                       SolverConfig(reflection_order=4), FORM_CLEAR, 14,
                       self.N_V, dtype)

    def cache_planes(self, cache):
        """The distinct planes held by the sweeps of `cache`."""
        planes = {}
        for sw in cache.sweeps:
            for a in sw.u + sw.v + list(sw.inject.values()):
                if a is not None:
                    planes[id(a)] = a
        return list(planes.values())

    def test_cache_keeps_slab_v_planes_and_one_injection_per_sweep(self):
        # the adjoint reads v only on the slab pairs, z0-1 .. z0+n_v, and
        # of the injections only their slices
        prepared = self.lens_medium()
        occ = np.random.default_rng(2).uniform(0.1, 0.9,
                                               size=(16, 16, self.N_V))
        _, cache = prepared.run(occ)
        n = len(cache.sweeps)
        assert n == 5
        v_planes = [v for sw in cache.sweeps for v in sw.v if v is not None]
        planes = self.cache_planes(cache)
        assert 0 < len(v_planes) <= n * (self.N_V + 2)
        assert len(planes) <= len(v_planes) + n
        # the kept planes are the cache's own, not views of the stack that
        # the next run marches through
        assert not any(np.shares_memory(a, prepared._spare) for a in planes)

    @pytest.mark.parametrize("z0", [0, 14, 29])
    def test_every_kept_v_plane_is_read_by_the_adjoint(self, z0):
        # a -z sweep marches past z0+n_v, but only from z0+n_v+1, outside
        # the slab pairs: that plane is not kept. The slab at either end
        # of the grid has no slice beyond it.
        g = self.GRID
        prepared = prepare(disk_source(g, 1.2e-3),
                           bone_layers(g, slice(2, 4), slice(20, 23)),
                           SolverConfig(reflection_order=4), FORM_CLEAR, z0,
                           self.N_V)
        rng = np.random.default_rng(4)
        _, cache = prepared.run(rng.uniform(0.1, 0.9, size=(16, 16, self.N_V)))

        class Reads(list):
            def __init__(self, planes):
                super().__init__(planes)
                self.read = set()

            def __getitem__(self, s):
                self.read.add(s)
                return super().__getitem__(s)

        for sw in cache.sweeps:
            sw.v = Reads(sw.v)
        propagate_adjoint(cache, rng.normal(size=g.shape) + 0j)
        for sw in cache.sweeps:
            kept = {s for s, v in enumerate(sw.v) if v is not None}
            assert kept == sw.v.read

    def test_second_run_reuses_the_plane_stack(self):
        g = self.GRID
        prepared = self.lens_medium()
        occ = np.random.default_rng(2).uniform(0.1, 0.9,
                                               size=(16, 16, self.N_V))
        prepared.run(occ)
        stack_bytes = (g.nz + 1) * g.nx * g.ny * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p, cache = prepared.run(occ)
            allocated = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in self.cache_planes(cache))
        # besides its fresh field and the planes its cache keeps, the run
        # allocates its reflected sources, the slab's screens and
        # coefficients and small per-slice temporaries, which take less
        # than the plane stack a run without reuse would allocate
        assert allocated - p.values.nbytes - kept < stack_bytes

    def test_field_outlives_its_cache_and_later_runs(self):
        prepared = self.lens_medium()
        rng = np.random.default_rng(3)
        p1, cache1 = prepared.run(rng.uniform(0.1, 0.9, size=(16, 16, self.N_V)))
        kept = p1.values.copy()
        del cache1
        for _ in range(2):
            p, _ = prepared.run(rng.uniform(0.1, 0.9, size=(16, 16, self.N_V)))
            assert not np.array_equal(p.values, kept)
        assert np.array_equal(p1.values, kept)

    def test_with_lens_copy_runs_on_the_same_plane_stack(self):
        # a sweep over materials holds one plane stack, not one for the
        # prepared medium and one for each material's copy of it; the copy
        # runs in the medium's precision
        g = self.GRID
        occ = np.full((16, 16, self.N_V), 0.5)
        for dtype in (np.complex128, np.complex64):
            prepared = self.lens_medium(dtype)
            prepared.field_only(occ)
            stack = prepared._spare
            copy = prepared.with_lens(VEROCLEAR)
            p = copy.field_only(occ)
            assert copy._spare is stack and prepared._spare is stack
            assert copy.dtype == dtype and p.values.dtype == dtype
            fresh = prepare(disk_source(g, 1.2e-3),
                            bone_layers(g, slice(2, 4), slice(20, 23)),
                            SolverConfig(reflection_order=4), VEROCLEAR, 14,
                            self.N_V, dtype)
            assert np.array_equal(p.values, fresh.field_only(occ).values)

    def test_pickle_carries_no_spare_stacks(self):
        # the prepared medium a sweep worker unpickles keeps its precision
        occ = np.full((16, 16, self.N_V), 0.5)
        for dtype in (np.complex128, np.complex64):
            prepared = self.lens_medium(dtype)
            size = len(pickle.dumps(prepared))
            p, cache = prepared.run(occ)
            del cache
            assert len(pickle.dumps(prepared)) == size
            p2, _ = pickle.loads(pickle.dumps(prepared)).run(occ)
            assert p2.values.dtype == dtype
            assert np.array_equal(p2.values, p.values)

    def test_uniform_screens_are_stored_as_scalars(self):
        # each slice of a water medium has one screen value across the
        # plane: the prepared medium keeps that value, not a plane, so its
        # pickle is smaller than one screen plane per slice
        g = self.GRID
        prepared = prepare(full_plane_source(g), make_homogeneous(g, WATER))
        assert all(np.ndim(scr) == 0 for scr in prepared.screen)
        plane_bytes = g.nx * g.ny * np.dtype(np.complex128).itemsize
        assert len(pickle.dumps(prepared)) < g.nz * plane_bytes

    def field_only_case(self, case, dtype):
        """(prepared medium, keyword arguments of one run) for `case`."""
        g = self.GRID
        layers = bone_layers(g, slice(2, 4), slice(20, 23))
        occ = np.random.default_rng(7).uniform(0.1, 0.9,
                                               size=(16, 16, self.N_V))
        if case == "lens":
            return self.lens_medium(dtype), dict(occupancy=occ)
        if case == "order0":
            return prepare(disk_source(g, 1.2e-3), layers,
                           SolverConfig(reflection_order=0), FORM_CLEAR, 14,
                           self.N_V, dtype), dict(occupancy=occ)
        if case == "delta_toward_minus_z":
            # the time-reversal run: a point source marched back to slice 0
            plane = np.zeros((16, 16), dtype=np.complex128)
            plane[6, 9] = 1.0
            return prepare(full_plane_source(g), layers,
                           SolverConfig(reflection_order=4),
                           dtype=dtype), dict(
                sources={17: plane}, direction=-1)
        return prepare(disk_source(g, 1.2e-3),
                       make_homogeneous(g, WATER), dtype=dtype), {}

    @pytest.mark.parametrize("case", ["lens", "order0",
                                      "delta_toward_minus_z", "water"])
    def test_field_only_is_the_run_field_bitwise(self, case):
        for dtype in (np.complex128, np.complex64):
            prepared, kwargs = self.field_only_case(case, dtype)
            first = prepared.field_only(**kwargs)
            p, cache = prepared.run(**kwargs)
            again = prepared.field_only(**kwargs)
            assert np.any(p.values != 0) and p.values.dtype == dtype
            assert first.values.tobytes() == p.values.tobytes()
            assert again.values.tobytes() == p.values.tobytes()

    def test_second_field_only_run_reuses_its_plane_stack(self):
        g = self.GRID
        prepared = self.lens_medium()
        occ = np.random.default_rng(2).uniform(0.1, 0.9,
                                               size=(16, 16, self.N_V))
        prepared.field_only(occ)
        stack_bytes = (g.nz + 1) * g.nx * g.ny * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = prepared.field_only(occ)
            allocated = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # besides its fresh field, the run allocates its reflected sources
        # and small per-slice temporaries, which take less than the one
        # plane stack a run without reuse would allocate
        assert allocated - p.values.nbytes < stack_bytes

    def test_first_field_only_run_allocates_one_plane_per_slice(self):
        # the plane stack holds a v plane per slice and one work plane:
        # no contribution planes, and no per-slice add after the sweep
        g = self.GRID
        prepared = prepare(disk_source(g, 1.2e-3),
                           bone_layers(g, slice(2, 4), slice(20, 23)),
                           SolverConfig(reflection_order=4))
        interfaces = sum(pair is not None for pair in prepared.coeff)
        assert interfaces == 4
        plane_bytes = g.nx * g.ny * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = prepared.field_only()
            allocated = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # besides its field: nz + 1 stack planes, the reflected sources of
        # at most two sweeps (one per interface each) and small
        # temporaries, under one plane here
        planes = g.nz + 1 + 2 * interfaces + 1
        assert allocated - p.values.nbytes < planes * plane_bytes

    def test_field_only_leaves_a_live_cache_unchanged(self):
        prepared = self.lens_medium()
        rng = np.random.default_rng(5)
        upstream = (rng.normal(size=self.GRID.shape)
                    + 1j * rng.normal(size=self.GRID.shape))
        p1, cache1 = prepared.run(rng.uniform(0.1, 0.9,
                                              size=(16, 16, self.N_V)))
        adj1 = propagate_adjoint(cache1, upstream)
        planes = [u.copy() for sw in cache1.sweeps for u in sw.u + sw.v
                  if u is not None]
        p2 = prepared.field_only(np.ones((16, 16, self.N_V)))
        assert not np.array_equal(p2.values, p1.values)
        after = [u for sw in cache1.sweeps for u in sw.u + sw.v
                 if u is not None]
        assert len(after) == len(planes)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, planes))
        again = propagate_adjoint(cache1, upstream)
        assert again.occupancy.tobytes() == adj1.occupancy.tobytes()
        assert again.source_plane.tobytes() == adj1.source_plane.tobytes()

    @pytest.mark.parametrize("entry", ["run", "field_only"])
    @pytest.mark.parametrize("direction", [0, 2, -2])
    def test_direction_other_than_plus_or_minus_one_rejected(self, entry,
                                                             direction):
        # direction 0 used to march every sweep toward +z (-0 == 0)
        g = self.GRID
        prepared = prepare(full_plane_source(g),
                           bone_layers(g, slice(2, 4), slice(20, 23)),
                           SolverConfig(reflection_order=2))
        with pytest.raises(ValueError, match="direction"):
            getattr(prepared, entry)(sources={20: prepared.source_plane},
                                     direction=direction)

    @pytest.mark.parametrize("source_slice", [-1, 32])
    def test_source_slice_outside_grid_rejected(self, source_slice):
        prepared = prepare(full_plane_source(self.GRID),
                           make_homogeneous(self.GRID, WATER))
        with pytest.raises(ValueError, match="outside the grid"):
            prepared.run(sources={source_slice: prepared.source_plane})

    @pytest.mark.parametrize("entry", ["run", "field_only"])
    @pytest.mark.parametrize("sources, message", [
        ({3: np.ones((16, 15))}, "shape does not match"),
        ({0: np.ones((16, 16)), 5: np.ones((16, 16, 1))},
         "shape does not match"),
        ({}, "at least one source"),
        ({0: np.ones((16, 16)), 32: np.ones((16, 16))}, "outside the grid"),
    ])
    def test_sources_rejected(self, entry, sources, message):
        prepared = prepare(full_plane_source(self.GRID),
                           make_homogeneous(self.GRID, WATER))
        with pytest.raises(ValueError, match=message):
            getattr(prepared, entry)(sources=sources)

    @pytest.mark.parametrize("lens_mat, occupancy, message", [
        (FORM_CLEAR, np.zeros((16, 16, 4)), "prepared slab"),
        (None, np.zeros((16, 16, 3)), "without a lens material"),
        (FORM_CLEAR, np.zeros((16, 16, 2)), "prepared slab"),
    ])
    def test_occupancy_must_fit_the_prepared_slab(self, lens_mat, occupancy,
                                                  message):
        g = self.GRID
        prepared = prepare(full_plane_source(g), make_homogeneous(g, WATER),
                           None, lens_mat, 4, self.N_V)
        with pytest.raises(ValueError, match=message):
            prepared.run(occupancy)

    @pytest.mark.parametrize("order", [0, 4])
    def test_base_run_of_a_lens_prepared_medium(self, order):
        # without an occupancy, a medium prepared with a lens slab runs its
        # base medium bitwise as one prepared without a slab: the same
        # field and source-plane cotangent, and a cache with no slab. The
        # bone layer puts a water-bone interface on a slab pair (13, 14).
        g = self.GRID
        src = disk_source(g, 1.2e-3)
        med = bone_layers(g, slice(14, 17), slice(24, 26))
        cfg = SolverConfig(reflection_order=order)
        lensed = prepare(src, med, cfg, FORM_CLEAR, 12, 4)
        plain = prepare(src, med, cfg)
        assert lensed.coeff[13] is not None
        rng = np.random.default_rng(order)
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        plane = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for kwargs in ({}, {"sources": {0: plane}},
                       {"sources": {28: plane}, "direction": -1}):
            p, cache = lensed.run(**kwargs)
            q, oracle = plain.run(**kwargs)
            assert p.values.tobytes() == q.values.tobytes()
            assert lensed.field_only(**kwargs).values.tobytes() == \
                q.values.tobytes()
            assert cache.c.shape == cache.rho.shape == (16, 16, 0)
            assert cache.Z == {} and cache.lens_z_offset is None
            adj = propagate_adjoint(cache, upstream)
            expected = propagate_adjoint(oracle, upstream)
            assert adj.source_plane.tobytes() == expected.source_plane.tobytes()
            assert adj.occupancy is None and adj.c.shape == (16, 16, 0)

    def test_with_lens_records_its_material(self):
        g = self.GRID
        prepared = prepare(full_plane_source(g), make_homogeneous(g, WATER),
                           None, FORM_CLEAR, 4, self.N_V)
        assert prepared.lens_mat is FORM_CLEAR
        assert prepared.with_lens(BONE).lens_mat is BONE
        assert prepare(full_plane_source(g),
                       make_homogeneous(g, WATER)).lens_mat is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_other_than_complex64_or_128_rejected(self, dtype):
        g = self.GRID
        with pytest.raises(ValueError, match="neither complex64 nor"):
            prepare(full_plane_source(g), make_homogeneous(g, WATER),
                    dtype=dtype)

    def test_slab_beyond_grid_rejected(self):
        g = self.GRID
        with pytest.raises(ValueError, match="axial extent"):
            prepare(full_plane_source(g), make_homogeneous(g, WATER),
                    None, FORM_CLEAR, 30, self.N_V)

    @pytest.mark.parametrize("shape", [(16, 15), (15, 16), (16, 16, 1)])
    def test_source_plane_of_another_shape_rejected(self, shape):
        g = self.GRID
        with pytest.raises(ValueError, match="source plane shape"):
            prepare(np.ones(shape, dtype=complex), make_homogeneous(g, WATER))

    def test_fortran_ordered_source_plane_matches_its_c_copy(self):
        # the passband's real products act on each plane's float view,
        # which needs a contiguous last axis: a run casts its planes so
        g = self.GRID
        prepared = self.lens_medium()
        occ = np.random.default_rng(8).uniform(0.1, 0.9,
                                               size=(16, 16, self.N_V))
        rng = np.random.default_rng(9)
        plane = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        upstream = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        runs = []
        for p in (plane, np.asfortranarray(plane)):
            field, cache = prepared.run(occ, sources={0: p})
            adj = propagate_adjoint(cache, upstream)
            runs.append((field.values, adj.occupancy,
                         prepared.field_only(occ, sources={0: p}).values))
        for c_order, f_order in zip(*runs):
            assert np.array_equal(c_order, f_order)
        fortran = prepare(np.asfortranarray(disk_source(g, 1.2e-3)),
                          make_homogeneous(g, WATER))
        assert fortran.source_plane.flags.c_contiguous

    @pytest.mark.parametrize("dtype, ulps", [(np.complex128, 4),
                                             (np.complex64, 1)])
    def test_screens_match_one_complex_exp(self, dtype, ulps):
        # exp(-a*dz)*(cos(phi) + i*sin(phi)) against exp(i*phi - a*dz) on
        # bone-to-water properties: exp, cos and sin round once each on
        # either side, so double may differ in its last bits, and single,
        # rounded from double, by one ulp
        g = self.GRID
        rng = np.random.default_rng(10)
        c = rng.uniform(WATER.sound_speed, BONE.sound_speed, size=(16, 16, 40))
        att = rng.uniform(0.0, 2e3, size=c.shape)
        screen, _ = solver._per_slice(g, c, c, att, dtype)
        ref = np.exp(1j * g.k0 * (g.c_ref / c - 1.0) * g.dz
                     - att * g.dz).astype(dtype)
        got = np.stack(screen, axis=2)
        assert got.dtype == dtype
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(ref, part)
            assert np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b)))


class TestSinglePrecision:
    """A medium prepared in complex64 stores and marches its planes in
    complex64, and its fields and gradients lie within 1e-5 of the peak
    of the same run prepared in complex128."""

    REPO = Path(__file__).resolve().parents[1]

    def test_planes_are_single_and_the_slab_sums_double(self):
        g = TestPreparedMedium.GRID
        prepared = TestPreparedMedium().lens_medium(np.complex64)
        band = prepared.band
        # the left matrices act on float views, the right ones on planes
        mats = (band.into, band.back, band.into_t, band.back_t)
        assert all(L.dtype == np.float32 for L, _ in mats)
        assert all(m.dtype == np.complex64
                   for m in (band.H, band.tmp, *(R for _, R in mats)))
        assert prepared.source_plane.dtype == np.complex64
        occ = np.random.default_rng(4).uniform(0.1, 0.9,
                                               size=(16, 16, 3))
        p, cache = prepared.run(occ)
        assert p.values.dtype == np.complex64
        for c in (prepared, cache):
            assert all(np.asarray(scr).dtype == np.complex64
                       for scr in c.screen)
            assert all(r.dtype == np.complex64 for r in c.coeff
                       if r is not None)
        assert any(r is not None for r in cache.coeff)
        assert all(plane.dtype == np.complex64 for sw in cache.sweeps
                   for plane in sw.u + sw.v if plane is not None)
        upstream = np.ones(g.shape, dtype=np.complex128)  # cast on entry
        adj = propagate_adjoint(cache, upstream)
        assert adj.source_plane.dtype == np.complex64
        assert adj.occupancy.dtype == np.float64

    @pytest.mark.parametrize("config", ["perfbench/skull_r4.cfg",
                                        "demos/single_focus_water.cfg"])
    def test_field_and_gradients_agree_with_double(self, config):
        # the benchmark's order-4 skull phantom and the water demo, at a
        # random occupancy with a random upstream cotangent
        from sonolens import cli

        cfg = cli.load_config(self.REPO / config)
        grid = cli.build_grid(cfg)
        runs = []
        for dtype in (np.complex128, np.complex64):
            prepared = cli._prepared_problem(cfg, grid, 0, dtype)[2]
            rng = np.random.default_rng(11)
            occ = rng.uniform(size=prepared.dc.shape)
            upstream = (rng.normal(size=grid.shape)
                        + 1j * rng.normal(size=grid.shape))
            p, cache = prepared.run(occ)
            adj = propagate_adjoint(cache, upstream)
            runs.append((p.values, adj.source_plane, adj.occupancy))
        for double, single in zip(*runs):
            peak = np.max(np.abs(double))
            assert np.max(np.abs(single - double)) <= 1e-5 * peak


def load_benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracerContract:
    def test_solver_probes_read_forward_and_adjoint_results(self):
        # the benchmark's probes read SliceCache, _Sweep and AdjointResult
        # fields; a solver change that breaks them must fail here
        tracer_mod = load_benchmark_tracer()
        tracer = tracer_mod.Tracer("contract")
        forward = tracer.wrap("solver.forward", propagate_with_lens,
                              tracer_mod._probe_forward, True)
        adjoint = tracer.wrap("solver.adjoint", propagate_adjoint,
                              tracer_mod._probe_adjoint, True)
        g = make_grid(16, 16, 16)
        med = bone_layers(g, slice(10, 12))
        occ = np.full((16, 16, 2), 0.5)
        prepared = prepare(full_plane_source(g), med,
                           SolverConfig(reflection_order=2), FORM_CLEAR, 3, 2)
        p, cache = forward(prepared, occ)
        adjoint(cache, np.conj(p.values))

        counters = tracer.counters
        assert counters["solver.fft_pairs"][0] > 0
        assert counters["solver.cache_bytes"][0] > 0
        assert 0.0 < counters["solver.grad_useful_frac"][0] <= 1.0
        metrics = tracer_mod.layer_metrics(tracer.record())
        assert metrics["solver.forward_calls"] == 1
        assert metrics["solver.adjoint_calls"] == 1


class TestBackproject:
    def test_roundtrip_recovers_source(self):
        g = make_grid(32, 32, 32)
        med = make_homogeneous(g, WATER)
        src = disk_source(g, 2.5e-3)
        cfg = SolverConfig(reflection_order=0)
        p, _ = propagate(src, med, cfg)
        m = 20
        recovered = backproject(p.values[:, :, m], g, [m * g.dz], cfg)[:, :, 0]

        # reference: source plane with evanescent content removed
        kx = 2 * np.pi * np.fft.fftfreq(32, g.dx)
        kt2 = kx[:, None] ** 2 + kx[None, :] ** 2
        spec = np.fft.fft2(src)
        spec[kt2 > g.k0**2] = 0.0
        reference = np.fft.ifft2(spec)
        err = np.linalg.norm(recovered - reference) / np.linalg.norm(reference)
        assert err < 1e-6

    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 1.5])
    def test_passband_step_matches_the_fft_oracle(self, cutoff):
        # the march's passband products give the full-grid step
        # ifft2(H * fft2(plane)) on a non-square grid, evanescent bins
        # included at cutoff 1.5
        g = make_grid(20, 16, 32)
        rng = np.random.default_rng(3)
        plane = rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))
        distances = [-1e-3, 0.0, 0.5e-3, 3e-3]
        out = backproject(plane, g, distances,
                          SolverConfig(angular_cutoff=cutoff))
        oracle = np.stack([
            np.fft.ifft2(solver._diffraction_kernel(g, cutoff, -d)
                         * np.fft.fft2(plane))
            for d in distances], axis=-1)
        assert out.shape == (20, 16, 4)
        peak = np.abs(oracle).max()
        assert np.abs(out - oracle).max() <= 1e-12 * peak

    def test_fortran_ordered_plane_matches_its_c_copy(self):
        g = make_grid(20, 16, 32)
        rng = np.random.default_rng(3)
        plane = rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))
        out = backproject(np.asfortranarray(plane), g, [1e-3])
        assert np.array_equal(out, backproject(plane, g, [1e-3]))

    def test_zero_plane_zero_volume(self):
        g = make_grid()
        out = backproject(np.zeros((16, 16), dtype=complex), g, [1e-3])
        assert np.all(out == 0.0)

    def test_empty_distances_rejected(self):
        g = make_grid()
        with pytest.raises(ValueError, match="distance"):
            backproject(np.zeros((16, 16), dtype=complex), g, [])

    def test_distance_beyond_domain_rejected(self):
        g = make_grid()
        with pytest.raises(ValueError, match="domain"):
            backproject(np.zeros((16, 16), dtype=complex), g, [1.0])


class TestGridRefinement:
    def test_focal_peak_stable_under_dz_halving(self):
        # spherical-converger phase aperture focused at 3 mm
        f_target = 3e-3
        results = {}
        for dz, nz in ((125e-6, 48), (62.5e-6, 96)):
            g = GridSpec(32, 32, nz, 125e-6, 125e-6, dz, 2e6, 1500.0)
            med = make_homogeneous(g, WATER)
            src = disk_source(g, 3.5e-3)
            x = (np.arange(32) - 15.5) * g.dx
            rr2 = x[:, None] ** 2 + x[None, :] ** 2
            phase = -g.k0 * (np.sqrt(rr2 + f_target**2) - f_target)
            plane = src * np.exp(1j * phase)
            p, _ = propagate(plane, med, SolverConfig(reflection_order=0))
            axial = np.abs(p.values[16, 16, :])
            results[dz] = np.argmax(axial) * dz
        assert abs(results[125e-6] - results[62.5e-6]) <= 62.5e-6 + 1e-12
