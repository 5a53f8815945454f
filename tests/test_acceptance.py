"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `ACCEPTANCE <n> PASS|FAIL` verdict line.
"""

import json
import time

import numpy as np
import pytest
from oracles import (
    bfs_segment,
    loss_acc,
    loss_balance,
    loss_energy,
    thickness_to_phase,
)

from sonolens import analysis, baselines, cli, optim
from sonolens.analysis import HEAT_CAPACITY_BONE, ThermalConfig, _fwhm_1d
from sonolens.grid import FORM_CLEAR, WATER, GridSpec, SourceSpec
from sonolens.lensmap import DesignField
from sonolens.medium import make_homogeneous, make_skull_phantom
from sonolens.optim import (
    OptimConfig,
    TargetSpec,
    gradcheck,
)
from sonolens.solver import (
    SolverConfig,
    prepare,
    propagate,
)


def verdict(n: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n}: {detail}"


def full_chain_fn(grid, src, medium, target, solver, mat, beta=5.0, n_v=16):
    """The design loop's lens objective at a fixed beta, as (loss, gradient)."""
    template = DesignField(np.zeros((grid.nx, grid.ny)), v_max=float(n_v))
    objective = optim.lens_objective(prepare(src, medium, solver, mat, 0, n_v),
                                     target, template, OptimConfig())
    return lambda theta: objective(theta, beta)[:2]


@pytest.fixture(scope="module")
def trifocal_phantom():
    """Shared tri-focal skull-phantom designs for the ordering criteria."""
    g = GridSpec(64, 64, 96, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    cx = 32 * g.dx
    med = make_skull_phantom(g, (cx, cx, 4.5e-3), 2.5e-3, 0.5e-3)
    src = SourceSpec.disk(g, 7e-3)
    centers = [(cx - 1.5e-3, cx, 4.5e-3), (cx, cx, 4.5e-3),
               (cx + 1.5e-3, cx, 4.5e-3)]
    target = TargetSpec.from_spheres(g, centers, 1.6 * g.dx)
    solver = SolverConfig(reflection_order=0)
    iters = 60
    ocfg = OptimConfig(iterations=iters)

    design = DesignField.random(64, 64, v_max=1.9e-3 / g.dz, seed=0)
    # one prepared lens slab for both designs and their fabrication; the
    # thickness design's binarized lens is its print
    prepared = prepare(src, med, solver, FORM_CLEAR, 0, design.n_v)
    res = optim.optimize_lens_geometry(prepared, target, design, ocfg)
    p_fab_t = prepared.field_only(res.lens.occupancy)
    psnr_t = analysis.cross_domain_psnr(res.field_optimization, p_fab_t)

    pm, _ = baselines.optimize_phase_map(prepared, target, ocfg)
    p_opt_p = prepared.field_only(
        sources={0: baselines.phase_plane(prepared, pm.phi)})
    p_fab_p, _ = baselines.fabricate_and_simulate(pm, prepared, design)
    psnr_p = analysis.cross_domain_psnr(p_opt_p, p_fab_p)
    return {
        "medium": med, "target": target,
        "psnr_thickness": psnr_t, "psnr_phase": psnr_p,
        "field_thickness": p_fab_t, "field_phase": p_fab_p,
    }


def test_criterion_01_gradient_exactness():
    t0 = time.time()
    g = GridSpec(16, 16, 24, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    med = make_homogeneous(g, WATER)
    src = SourceSpec.full_plane(g)
    target = TargetSpec.from_spheres(g, [(8 * g.dx, 8 * g.dy, 18 * g.dz)],
                                     1.5 * g.dx)
    theta0 = np.random.default_rng(0).uniform(-1, 1, size=(16, 16))
    errs = {}
    for order, tol in ((0, 1e-5), (4, 1e-3)):
        chain = full_chain_fn(g, src, med, target,
                              SolverConfig(reflection_order=order), FORM_CLEAR)
        errs[order] = gradcheck(chain, theta0, step=1e-4, n_coords=32, seed=1)
    elapsed = time.time() - t0
    ok = errs[0] < 1e-5 and errs[4] < 1e-3 and elapsed < 120.0
    verdict(1, ok, f"err(order 0)={errs[0]:.2e} err(order 4)={errs[4]:.2e} "
                   f"t={elapsed:.0f}s")


def test_criterion_02_plane_wave_invariance():
    g = GridSpec(32, 32, 64, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    med = make_homogeneous(g, WATER)
    src = SourceSpec.full_plane(g)
    p, _ = propagate(src, med, SolverConfig())
    dev = float(np.abs(np.abs(p.values) - 1.0).max())
    verdict(2, dev < 1e-9, f"max |P| deviation {dev:.2e}")


def test_criterion_03_analytic_focusing():
    t0 = time.time()
    g = GridSpec(128, 128, 96, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    med = make_homogeneous(g, WATER)
    F, diameter = 6e-3, 13e-3
    src = SourceSpec.disk(g, diameter)
    c = 64
    xs = (np.arange(128) - c) * g.dx
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    r2 = X**2 + Y**2
    # converging-aperture delay profile, realized as a lens thickness map
    phi = np.mod(-g.k0 * (np.sqrt(r2 + F**2) - F), 2 * np.pi)
    thickness = baselines.phase_to_thickness(phi, g.frequency, g.c_ref,
                                             FORM_CLEAR.sound_speed)
    phi_lens = thickness_to_phase(thickness, g.frequency, g.c_ref,
                                  FORM_CLEAR.sound_speed)
    plane = src.source_plane(g) * np.exp(1j * phi_lens)
    p, _ = propagate(src, med, SolverConfig(reflection_order=0),
                     source_plane=plane)
    amp = np.abs(p.values)
    iz = int(np.argmax(amp[c, c, :]))
    axial_err_m = abs(iz * g.dz - F)
    fwhm_sim = _fwhm_1d(amp[:, c, iz], g.dx)

    # Rayleigh-Sommerfeld direct summation along the focal-plane x line
    ap = src.aperture_mask > 0.5
    u0 = (src.aperture_mask * np.exp(1j * phi))[ap]
    xa, ya = X[ap], Y[ap]
    k = g.k0
    line = np.zeros(128, dtype=complex)
    for ix, xv in enumerate(xs):
        R = np.sqrt((xv - xa) ** 2 + ya**2 + F**2)
        line[ix] = np.sum(u0 * np.exp(1j * k * R) / R * (F / R)
                          * (1.0 / R - 1j * k)) / (2.0 * np.pi)
    fwhm_rs = _fwhm_1d(np.abs(line), g.dx)
    ratio = fwhm_sim / fwhm_rs
    elapsed = time.time() - t0
    ok = (axial_err_m <= g.dz * (1 + 1e-9) and 0.85 <= ratio <= 1.15
          and elapsed < 300.0)
    verdict(3, ok, f"axial err {axial_err_m * 1e6:.0f}um "
                   f"FWHM ratio {ratio:.3f} t={elapsed:.0f}s")


def test_criterion_04_thickness_conversion():
    t2pi = baselines.full_cycle_thickness(2e6, 1500.0, 2591.0)
    rng = np.random.default_rng(0)
    phi = rng.uniform(0, 2 * np.pi, size=(32, 32))
    t = baselines.phase_to_thickness(phi, 2e6, 1500.0, 2591.0,
                                     t_min=250e-6, t_max=1.9e-3)
    ok = (abs(t2pi - 1.78e-3) <= 0.01e-3
          and t.min() >= 250e-6 and t.max() <= 1.9e-3)
    verdict(4, ok, f"T_2pi={t2pi * 1e3:.4f}mm "
                   f"range=[{t.min() * 1e6:.0f}um, {t.max() * 1e3:.3f}mm]")


def test_criterion_05_desk_scale_optimization():
    t0 = time.time()
    g = GridSpec(64, 64, 96, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    med = make_homogeneous(g, WATER)
    src = SourceSpec.disk(g, 7e-3)
    cx = 32 * g.dx
    tgt = (32, 32, 64)
    target = TargetSpec.from_spheres(g, [(cx, cx, 64 * g.dz)], 0.9 * g.dx)
    ocfg = OptimConfig(iterations=200, learning_rate=1.0, lambda_energy=0.2,
                       lambda_balance=0.5, beta_start=1.0, beta_end=20.0)
    design = DesignField.random(64, 64, v_max=1.9e-3 / g.dz, seed=0)
    prepared = prepare(src, med, SolverConfig(reflection_order=0), FORM_CLEAR,
                       0, design.n_v)
    res = optim.optimize_lens_geometry(prepared, target, design, ocfg)
    initial, final = res.report.total[0], res.report.total[-1]
    amp = np.abs(res.field_optimization.values)
    am = np.unravel_index(int(np.argmax(amp)), amp.shape)
    off = max(abs(a - b) for a, b in zip(am, tgt))
    elapsed = time.time() - t0
    ok = final <= 0.5 * initial and off <= 1 and elapsed < 1800.0
    verdict(5, ok, f"loss {initial:.3f}->{final:.3f} argmax offset {off} "
                   f"t={elapsed:.0f}s")


def test_criterion_06_cross_domain_ordering(trifocal_phantom):
    pt = trifocal_phantom["psnr_thickness"]
    pp = trifocal_phantom["psnr_phase"]
    verdict(6, pt > pp, f"PSNR thickness {pt:.1f}dB > phase {pp:.1f}dB")


def test_criterion_07_segmentation_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        amp = rng.random((20, 20, 20))
        seed = tuple(rng.integers(0, 20, size=3))
        mask = analysis.segment_foci(amp, [seed])[0]
        if not np.array_equal(mask, bfs_segment(amp, seed)):
            ok = False
            break
    verdict(7, ok, "100/100 fields match the flood-fill oracle")


def test_criterion_08_metric_identities():
    g = GridSpec(48, 48, 48, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    # leakage on a uniform field
    from sonolens.solver import ComplexField
    uniform = ComplexField(np.ones(g.shape, dtype=complex), g)
    region = np.zeros(g.shape, dtype=bool)
    region[10:20, 10:20, 10:20] = True
    leak = analysis.focal_metrics(uniform, [region]).leakage_ratio
    # uniformity for equal peaks
    amp = np.zeros(g.shape)
    amp[10, 10, 10] = amp[30, 30, 30] = 3.0
    m1 = np.zeros(g.shape, dtype=bool); m1[10, 10, 10] = True
    m2 = np.zeros(g.shape, dtype=bool); m2[30, 30, 30] = True
    unif = analysis.focal_metrics(ComplexField(amp.astype(complex), g),
                                  [m1, m2]).uniformity
    # FWHM of a sampled Gaussian
    sigma = 4.0
    i = np.arange(48) - 24
    X, Y, Z = np.meshgrid(i, i, i, indexing="ij")
    gauss = np.exp(-(X**2 + Y**2 + Z**2) / (2 * sigma**2))
    p = ComplexField(gauss.astype(complex), g)
    segs = analysis.segment_foci(p, [(24, 24, 24)])
    fw = analysis.focal_metrics(p, segs).foci[0].fwhm_lateral_x
    fw_expected = 2.3548 * sigma * g.dx
    # PSNR hand case
    psnr = analysis.cross_domain_psnr(
        np.array([1.0, 0.0]).reshape(2, 1, 1),
        np.array([1.0, 1.0]).reshape(2, 1, 1))
    ok = (leak == pytest.approx(1.0)
          and unif == pytest.approx(1.0)
          and abs(fw - fw_expected) <= 0.02 * fw_expected
          and abs(psnr - 3.01) <= 0.01)
    verdict(8, ok, f"leakage={leak:.3f} uniformity={unif:.3f} "
                   f"FWHM={fw * 1e6:.1f}um (exp {fw_expected * 1e6:.1f}) "
                   f"PSNR={psnr:.3f}dB")


def test_criterion_09_thermal_conservation(trifocal_phantom):
    # closed-form uniform heating
    from sonolens.grid import BONE
    from sonolens.solver import ComplexField
    g = GridSpec(8, 8, 8, 125e-6, 125e-6, 125e-6, 2e6, 1500.0)
    med = make_homogeneous(g, BONE)
    cfg = ThermalConfig(n_cycles=2)
    amp = 1e6
    dT = analysis.bioheat_simulate(
        ComplexField(np.full(g.shape, amp, dtype=complex), g), med, cfg)
    q = BONE.attenuation_np_per_m(2e6) * amp**2 / (BONE.density
                                                   * BONE.sound_speed)
    expected = q * cfg.heat_time * cfg.n_cycles / (BONE.density
                                                   * HEAT_CAPACITY_BONE)
    uniform_ok = bool(np.allclose(dT, expected, rtol=0.01))

    # ordering on the shared tri-focal phantom designs at 1 MPa target peak
    med3 = trifocal_phantom["medium"]
    omega = trifocal_phantom["target"].omega
    tc = ThermalConfig()
    dT_t = analysis.bioheat_simulate(trifocal_phantom["field_thickness"],
                                     med3, tc, normalize_mask=omega)
    dT_p = analysis.bioheat_simulate(trifocal_phantom["field_phase"],
                                     med3, tc, normalize_mask=omega)
    ordering_ok = dT_t.max() < dT_p.max()
    verdict(9, uniform_ok and ordering_ok,
            f"uniform rel err {abs(dT - expected).max() / expected:.1e}; "
            f"dT thickness {dT_t.max():.3f}C < phase {dT_p.max():.3f}C")


def test_criterion_10_loss_hand_values():
    a2 = np.zeros((2, 1, 1)); a2[0, 0, 0] = 1.0
    t2 = TargetSpec(a2, [(0, 0, 0)])
    acc = loss_acc(np.ones((2, 1, 1), dtype=complex), t2)

    a_both = np.zeros((2, 1, 1)); a_both[:, 0, 0] = 1.0
    t_both = TargetSpec(a_both, [(0, 0, 0)])
    en = loss_energy(np.array([2.0, 4.0]).reshape(2, 1, 1).astype(complex),
                     t_both)
    bal = loss_balance(np.sqrt(np.array([1.0, 3.0])).reshape(2, 1, 1)
                       .astype(complex), t_both)
    ok = (abs(acc - (1.0 - 1.0 / np.sqrt(2.0))) < 1e-6
          and abs(en - (-3.0)) < 1e-6
          and abs(bal - 1.0) < 1e-6)
    verdict(10, ok, f"acc={acc:.7f} energy={en:.7f} balance={bal:.7f}")


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "grid": {"nx": 24, "ny": 24, "nz": 32, "spacing_um": 125,
                 "frequency_mhz": 2},
        "source": {"full_plane": True},
        "medium": {"kind": "homogeneous", "material": "water"},
        "target": {"focus_centers_mm": [[1.5, 1.5, 3.0]], "radius_um": 200},
        "optim": {"iterations": 5},
        "solver": {"reflection_order": 0},
        "method": "thickness",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = cli.main(["design", "--config", str(path), "--out", str(a),
                    "--seed", "3"])
    rc2 = cli.main(["design", "--config", str(path), "--out", str(b),
                    "--seed", "3"])
    ok = rc1 == 0 and rc2 == 0
    for name in ("field_optimization.raw", "field_fabrication.raw",
                 "lens_thickness.csv", "lens.stl"):
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    verdict(11, ok, "identical config+seed -> bitwise-identical exports")
