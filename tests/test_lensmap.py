import numpy as np
import pytest

import oracles
from sonolens import lensmap
from sonolens.lensmap import (
    FAB_CUTOFF,
    DesignField,
    LensVolume,
    binarize,
    fabrication_filter,
    gaussian_kernel,
    map_thickness,
    voxelize,
)

SIGMOID_1 = 1.0 / (1.0 + np.exp(-1.0))  # 0.7311 to 4 decimals


def blur_matrices(shape, size, sigma):
    """(Bx, By) of a blur: the Gaussian of `size` taps and `sigma`, or for
    size "chain" the design chain's blur at a cutoff of `sigma` voxels."""
    if size == "chain":
        return [lensmap.chain_blur(n, sigma) for n in shape]
    return [lensmap._blur_matrix(n, size, sigma) for n in shape]


def blur(t, size, sigma):
    """The library's blur of `t`, Bx @ t @ By.T as `forward` applies it."""
    bx, by = blur_matrices(t.shape, size, sigma)
    return bx @ t @ by.T


def blur_transpose(gbar, size, sigma):
    """The exact transpose of `blur`, Bx.T @ g @ By as `backward` applies
    it."""
    bx, by = blur_matrices(gbar.shape, size, sigma)
    return bx.T @ gbar @ by


class TestMapThickness:
    def test_zero_theta_is_midpoint(self):
        d = DesignField(np.zeros((4, 4)), alpha=0.1, v_min=2.0, v_max=14.0)
        assert np.allclose(map_thickness(d), 8.0)

    def test_saturation_toward_v_max(self):
        d = DesignField(np.full((4, 4), 1e4), alpha=0.1, v_min=2.0, v_max=14.0)
        assert np.allclose(map_thickness(d), 14.0, atol=1e-9)

    def test_sigmoid_one_point(self):
        # theta = 10, alpha = 0.1 -> v_min + sigmoid(1)*(v_max - v_min)
        d = DesignField(np.full((4, 4), 10.0), alpha=0.1, v_min=1.0, v_max=12.0)
        expected = 1.0 + 0.7311 * 11.0
        assert np.allclose(map_thickness(d), expected, atol=11 * 1e-4)

    def test_sigmoid_is_bitwise_the_masked_stable_form(self):
        # 1/(1 + exp(-x)) for x >= 0 and e/(1 + e), e = exp(x), below,
        # computed on boolean masks: both tails, 0 and +-1e3
        x = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                            [-1e3, -745.2, -0.0, 0.0, 1e-300, 1e3]])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        ref[~pos] = e / (1.0 + e)
        got = lensmap.sigmoid(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert got[-1] == 1.0 and got[-6] == 0.0

    def test_strictly_inside_bounds(self):
        rng = np.random.default_rng(0)
        d = DesignField(rng.normal(scale=50, size=(16, 16)))
        t = map_thickness(d)
        assert np.all(t > d.v_min) and np.all(t < d.v_max)

    def test_depth_is_ceil_of_v_max(self):
        assert DesignField(np.zeros((2, 2)), v_max=12.0).n_v == 12
        assert DesignField(np.zeros((2, 2)), v_max=15.2).n_v == 16
        assert lensmap.forward(DesignField(np.zeros((2, 2)), v_max=15.2),
                               5.0).occupancy.shape == (2, 2, 16)

    def test_invariants(self):
        with pytest.raises(ValueError):
            DesignField(np.zeros((4, 4)), v_min=0.5)
        with pytest.raises(ValueError):
            DesignField(np.zeros((4, 4)), v_min=5.0, v_max=5.0)
        with pytest.raises(ValueError):
            DesignField(np.zeros((4, 4)), alpha=0.0)

    @pytest.mark.parametrize("fab_cutoff", [0.5, 0.0, -2.0, np.nan])
    def test_printer_cutoff_below_one_voxel_rejected(self, fab_cutoff):
        # 0.5 used to be accepted and fail only at the first forward, NaN
        # there with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="fab_cutoff .* at least 1 voxel"):
            DesignField(np.zeros((4, 4)), fab_cutoff=fab_cutoff)
        assert DesignField(np.zeros((4, 4)), fab_cutoff=1.0).fab_cutoff == 1.0

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", np.nan, "alpha"),
        ("alpha", np.inf, "alpha"),
        ("v_max", np.inf, "v_max"),
        ("fab_cutoff", np.inf, "fab_cutoff"),
    ])
    def test_non_finite_parameters_rejected(self, field, value, message):
        # a NaN alpha used to build an all-NaN thickness map, and an
        # infinite v_max or fab_cutoff to fail later in n_v or printer_blur
        with pytest.raises(ValueError, match=message):
            DesignField(np.zeros((4, 4)), **{field: value})


class TestSmoothThickness:
    def test_constant_unchanged(self):
        t = np.full((12, 12), 3.7)
        assert np.allclose(blur(t, 9, 1.5), 3.7)

    def test_impulse_center_weight(self):
        # oracle: independently normalized 9x9 Gaussian center weight
        r = np.arange(9) - 4
        g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2 * 1.5**2))
        center = g[4, 4] / g.sum()
        t = np.zeros((21, 21))
        t[10, 10] = 5.0
        out = blur(t, 9, 1.5)
        assert out[10, 10] == pytest.approx(5.0 * center, rel=1e-12)

    def test_linear_ramp_interior_unchanged(self):
        x = np.arange(24, dtype=float)
        t = np.broadcast_to(x, (24, 24)).copy()
        out = blur(t, 9, 1.5)
        assert np.allclose(out[4:-4, 4:-4], t[4:-4, 4:-4], atol=1e-10)

    def test_range_preserved(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(1.0, 9.0, size=(16, 16))
        out = blur(t, 9, 1.5)
        assert out.min() >= t.min() - 1e-12 and out.max() <= t.max() + 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            gaussian_kernel(8, 1.5)

    def test_design_smoothing_is_the_9x9_kernel_then_the_printer_kernel(self):
        # forward blurs with the fixed DHLA kernel (9 taps, sigma 1.5), then
        # with the printer's at the design's cutoff (sigma cutoff/2, taps
        # out to 3 sigma), by default fabrication's 2 voxels
        assert (lensmap.KERNEL_SIZE, lensmap.SMOOTH_SIGMA) == (9, 1.5)
        assert DesignField(np.zeros((2, 2))).fab_cutoff == 2.0
        for fab_cutoff, printer in ((2.0, (7, 1.0)), (5.0, (17, 2.5))):
            d = DesignField.random(12, 12, seed=4, fab_cutoff=fab_cutoff)
            lens = lensmap.forward(d, 5.0)
            expected = oracles.smooth_thickness(
                oracles.smooth_thickness(map_thickness(d), 9, 1.5), *printer)
            assert max_rel_err(lens.thickness_map, expected) <= 1e-12

    def test_chain_blur_is_built_once_per_design(self, monkeypatch):
        # one DHLA and one printer matrix for a square map, however many
        # forward and backward passes the design takes
        built = []
        blur_matrix = lensmap._blur_matrix
        monkeypatch.setattr(lensmap, "_blur_matrix",
                            lambda *a: built.append(a) or blur_matrix(*a))
        lensmap.chain_blur.cache_clear()
        d = DesignField.random(10, 10, seed=2, fab_cutoff=3.0)
        for beta in (1.0, 2.0, 4.0):
            lens = lensmap.forward(d, beta)
            lensmap.backward(d, beta, np.ones((10, 10, d.n_v)), lens.occupancy)
        assert sorted(built) == [(10, 9, 1.5), (10, 11, 1.5)]


# (map shape, kernel size, sigma): the DHLA blur on the two design grids,
# a kernel far wider than a 3x7 map, fabrication_filter's kernel for a
# cutoff of 20 grid spacings (sigma 10 voxels, 61 taps) on a 4x4 lens, and
# non-square maps where the kernel is wider than one dimension only. Then
# the design chain's blur (size "chain", the DHLA blur and the printer's
# at cutoff sigma voxels) on the water demo's grid at the default cutoff,
# and at a cutoff wider than one side of a 5x40 map.
BLUR_CASES = [((48, 48), 9, 1.5), ((64, 64), 9, 1.5), ((3, 7), 25, 4.0),
              ((4, 4), 61, 10.0), ((5, 40), 61, 10.0), ((40, 5), 61, 10.0),
              ((6, 33), 9, 1.5), ((48, 48), "chain", 2.0),
              ((5, 40), "chain", 12.0)]


def max_rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def printer_kernel(cutoff):
    """(taps, sigma) of the printer's Gaussian for a cutoff in voxels:
    sigma = cutoff/2, taps out to 3 sigma."""
    return 2 * int(np.ceil(1.5 * cutoff)) + 1, cutoff / 2.0


def oracle_blur(t, size, sigma):
    if size != "chain":
        return oracles.smooth_thickness(t, size, sigma)
    return oracles.smooth_thickness(oracles.smooth_thickness(t, 9, 1.5),
                                    *printer_kernel(sigma))


def oracle_transpose(gbar, size, sigma):
    if size != "chain":
        return oracles.smooth_transpose(gbar, gbar.shape, size, sigma)
    return oracles.smooth_transpose(
        oracles.smooth_transpose(gbar, gbar.shape, *printer_kernel(sigma)),
        gbar.shape, 9, 1.5)


class TestSmoothAgainstConvolution:
    """Separable blur matrices and their transpose against direct 2D
    convolution with the full 2D kernel."""

    @pytest.mark.parametrize("shape, size, sigma", BLUR_CASES)
    def test_blur_matches_oracle(self, shape, size, sigma):
        t = np.random.default_rng(5).uniform(1.0, 12.0, size=shape)
        assert max_rel_err(blur(t, size, sigma),
                           oracle_blur(t, size, sigma)) <= 1e-12

    @pytest.mark.parametrize("shape, size, sigma", BLUR_CASES)
    def test_transpose_matches_oracle(self, shape, size, sigma):
        gbar = np.random.default_rng(6).normal(size=shape)
        assert max_rel_err(blur_transpose(gbar, size, sigma),
                           oracle_transpose(gbar, size, sigma)) <= 1e-12

    @pytest.mark.parametrize("shape, size, sigma", BLUR_CASES)
    def test_dot_product_identity(self, shape, size, sigma):
        # <B t, g> = <t, B^T g>
        rng = np.random.default_rng(7)
        t, gbar = rng.normal(size=shape), rng.normal(size=shape)
        lhs = np.vdot(blur(t, size, sigma), gbar)
        rhs = np.vdot(t, blur_transpose(gbar, size, sigma))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize("size", [8, 60])
    def test_even_kernel_size_raises(self, size):
        for n in (5, 40):
            with pytest.raises(ValueError, match="odd"):
                lensmap._blur_matrix(n, size, 10.0)

    def test_wide_fabrication_cutoff_matches_oracle(self):
        t = np.random.default_rng(8).uniform(1.0, 7.0, size=(4, 4))
        out = fabrication_filter(LensVolume(np.zeros((4, 4, 8)), t), 20.0)
        assert np.array_equal(
            out.thickness_map,
            np.floor(oracles.smooth_thickness(t, 61, 10.0) + 0.5))


class TestVoxelize:
    def test_empty_column_limit(self):
        t = np.zeros((4, 4))
        lens = voxelize(t, beta=50.0, n_v=6)
        assert np.all(lens.occupancy < 0.5)
        assert lens.occupancy.max() < 1e-8

    def test_heaviside_limit(self):
        lens = voxelize(np.full((2, 2), 6.0), beta=1e4, n_v=12)
        col = lens.occupancy[0, 0]
        assert np.allclose(col, [1] * 6 + [0] * 6, atol=1e-12)

    def test_sigmoid_point(self):
        # beta = 2, t = 3, voxel center z = 2.5 -> sigmoid(1)
        lens = voxelize(np.full((2, 2), 3.0), beta=2.0, n_v=4)
        assert lens.occupancy[0, 0, 2] == pytest.approx(SIGMOID_1, abs=1e-12)

    def test_single_transition_per_column(self):
        rng = np.random.default_rng(5)
        lens = voxelize(rng.uniform(1, 7, size=(8, 8)), beta=8.0, n_v=8)
        diffs = np.diff(lens.occupancy, axis=2)
        assert np.all(diffs <= 1e-15)  # monotone non-increasing along depth

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            voxelize(np.ones((2, 2)), beta=0.0, n_v=4)


class TestForward:
    def test_constant_theta_flat_slab(self):
        d = DesignField(np.zeros((8, 8)), v_min=2.0, v_max=10.0)
        lens = lensmap.forward(d, beta=100.0)
        assert lens.occupancy.shape == (8, 8, 10)
        assert np.allclose(lens.thickness_map, 6.0)
        assert np.allclose(lens.occupancy[:, :, :6], 1.0, atol=1e-10)
        assert np.allclose(lens.occupancy[:, :, 6:], 0.0, atol=1e-10)

    def test_occupancy_in_unit_interval(self):
        d = DesignField.random(16, 16, seed=2)
        lens = lensmap.forward(d, beta=3.0)
        assert lens.occupancy.min() >= 0.0 and lens.occupancy.max() <= 1.0

    def test_column_sum_matches_thickness(self):
        # column-sum oracle at beta = 20: deviation < 0.6 voxel
        d = DesignField.random(16, 16, seed=7)
        lens = lensmap.forward(d, beta=20.0)
        col = lens.occupancy.sum(axis=2)
        assert np.max(np.abs(col - lens.thickness_map)) < 0.6


class TestBackward:
    @staticmethod
    def loss_fn(design, beta, weights):
        lens = lensmap.forward(design, beta)
        return float(np.sum(weights * lens.occupancy))

    def test_zero_upstream_zero_gradient(self):
        d = DesignField.random(8, 8, seed=0)
        g = lensmap.backward(d, 5.0, np.zeros((8, 8, d.n_v)),
                             lensmap.forward(d, 5.0).occupancy)
        assert np.all(g == 0.0)

    def test_locality_of_kernel_footprint(self):
        d = DesignField.random(16, 16, seed=1)
        up = np.zeros((16, 16, d.n_v))
        up[8, 8, 2] = 1.0
        g = lensmap.backward(d, 5.0, up, lensmap.forward(d, 5.0).occupancy)
        mask = np.zeros((16, 16), dtype=bool)
        mask[1:16, 1:16] = True  # 15x15: the 9-tap DHLA and 7-tap printer blur
        assert np.all(g[~mask] == 0.0)
        assert np.all(g[mask] != 0.0)

    def test_matches_finite_differences(self):
        # FD oracle, 100 random instances on 8x8x8, rel. error < 1e-6; the
        # chain includes the printer blur at a cutoff of 1 to 6 voxels
        rng = np.random.default_rng(42)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            theta = rng.uniform(-1, 1, size=(8, 8))
            weights = rng.normal(size=(8, 8, 8))
            beta = rng.uniform(1.0, 20.0)
            params = dict(v_max=8.0, fab_cutoff=rng.uniform(1.0, 6.0))
            d = DesignField(theta, **params)
            grad = lensmap.backward(d, beta, weights,
                                    lensmap.forward(d, beta).occupancy)
            i, j = rng.integers(0, 8, size=2)
            tp = theta.copy(); tp[i, j] += step
            tm = theta.copy(); tm[i, j] -= step
            fd = (
                self.loss_fn(DesignField(tp, **params), beta, weights)
                - self.loss_fn(DesignField(tm, **params), beta, weights)
            ) / (2 * step)
            denom = max(abs(fd), abs(grad[i, j]), 1e-6 * np.abs(grad).max())
            worst = max(worst, abs(fd - grad[i, j]) / denom)
        assert worst < 1e-6

    def test_monotonicity(self):
        # increasing theta never decreases occupancy in the kernel footprint
        d = DesignField.random(12, 12, seed=9)
        lens0 = lensmap.forward(d, 5.0)
        theta2 = d.theta.copy()
        theta2[6, 6] += 0.5
        lens1 = lensmap.forward(DesignField(theta2), 5.0)
        assert np.all(lens1.occupancy >= lens0.occupancy - 1e-14)

    def test_shape_mismatch_rejected(self):
        d = DesignField.random(8, 8, seed=0)
        occ = lensmap.forward(d, 5.0).occupancy
        with pytest.raises(ValueError):
            lensmap.backward(d, 5.0, np.zeros((4, 4, d.n_v)), occ)
        with pytest.raises(ValueError):  # depth other than n_v = ceil(v_max)
            lensmap.backward(d, 5.0, np.zeros((8, 8, 8)), occ)
        with pytest.raises(ValueError):  # an occupancy of another shape
            lensmap.backward(d, 5.0, np.zeros(occ.shape), occ[:4])


class TestBinarize:
    def test_sharp_input_near_fixed_point(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(1, 7, size=(8, 8))
        lens = voxelize(t, beta=50.0, n_v=8)
        hard = binarize(lens)
        z = np.arange(8) + 0.5
        away = np.abs(t[:, :, None] - z[None, None, :]) >= 0.1
        expected = (z[None, None, :] < np.floor(t + 0.5)[:, :, None]).astype(float)
        assert np.allclose(hard.occupancy[away], expected[away])
        assert np.allclose(np.round(lens.occupancy[away]), hard.occupancy[away])

    def test_tie_rounds_half_up(self):
        lens = LensVolume(np.zeros((2, 2, 10)), np.full((2, 2), 6.5))
        hard = binarize(lens)
        assert np.all(hard.occupancy.sum(axis=2) == 7)

    def test_idempotent(self):
        lens = voxelize(np.full((4, 4), 3.2), beta=30.0, n_v=6)
        once = binarize(lens)
        twice = binarize(once)
        assert np.array_equal(once.occupancy, twice.occupancy)


class TestFabricationFilter:
    def test_degenerate_cutoff_near_identity(self):
        t = np.full((12, 12), 4.0)
        lens = binarize(LensVolume(np.zeros((12, 12, 8)), t))
        out = fabrication_filter(lens, 1.0)
        assert np.array_equal(out.occupancy, lens.occupancy)

    def test_checkerboard_flattened(self):
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        t = np.where((i + j) % 2 == 0, 2.0, 6.0)
        lens = LensVolume(np.zeros((16, 16, 8)), t.astype(float))
        out = fabrication_filter(lens, 8.0)
        interior = out.thickness_map[4:-4, 4:-4]
        assert np.ptp(interior) <= 1.0  # near-constant after binarize

    def test_ramp_interior_unchanged(self):
        # ramp values avoid half-integer rounding ties after the blur
        t = np.broadcast_to(np.arange(24, dtype=float) / 4 + 2.1, (24, 24)).copy()
        lens = LensVolume(np.zeros((24, 24, 10)), t)
        out = fabrication_filter(lens, 2.0)
        expected = binarize(lens)
        assert np.array_equal(
            out.occupancy[8:-8, 8:-8], expected.occupancy[8:-8, 8:-8]
        )

    def test_default_cutoff_is_two_grid_spacings(self):
        # the cutoff a design prints at unless its lens section sets one
        t = np.random.default_rng(9).uniform(1.0, 7.0, size=(12, 12))
        lens = LensVolume(np.zeros((12, 12, 8)), t)
        assert DesignField(np.zeros((12, 12))).fab_cutoff == FAB_CUTOFF == 2.0
        default = fabrication_filter(lens, FAB_CUTOFF)
        assert not np.array_equal(default.thickness_map,
                                  binarize(lens).thickness_map)

    def test_cutoff_below_spacing_rejected(self):
        lens = LensVolume(np.zeros((4, 4, 4)), np.full((4, 4), 2.0))
        with pytest.raises(ValueError, match="cutoff"):
            fabrication_filter(lens, 0.48)
