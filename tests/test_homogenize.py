import numpy as np
import pytest
from helpers import simplex_monomial
from scipy.optimize import brentq

from xfft.element import evaluate_strain
from xfft.homogenize import (
    EffectiveResult,
    bulk_modulus_hydrostatic,
    convergence_study,
    effective_stiffness,
    energy_bound_check,
    fit_slope,
    hashin_bulk_reference,
    hashin_cell,
    hashin_reference,
    hashin_system,
    homogeneous_cell,
    l2_norm_field,
    laminate_cell,
    laminate_cell_reference,
    laminate_reference,
    quadrature_set,
    rel_error,
    strain_error,
)
from xfft.mesh import Grid
from xfft.solver import SolverConfig, build_system, run_scheme
from xfft.voigt import MaterialIso, iso_stiffness

EPS_HYDRO = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_rel_error_basics():
    assert rel_error(1.0, 1.0) == 0.0
    assert np.isclose(rel_error(1.001, 1.0), 1e-3)


def test_hashin_reference_limits():
    k = hashin_reference(2.0, 1.0, 2.0, 0.5, 1.0)
    assert np.isclose(k, 2.0)  # equal phases
    # c -> 1: coating vanishes, K -> K_i
    k = hashin_reference(2.0, 1.0, 7.0, 0.999999, 1.0)
    assert np.isclose(k, 7.0, rtol=1e-4)
    with pytest.raises(ValueError):
        hashin_reference(1.0, 1.0, 1.0, 2.0, 1.0)


def test_hashin_reference_neutral_condition():
    # solving the neutral condition numerically recovers the bundled radii
    mats = hashin_cell()[1]
    kc, muc, ki = mats[1].bulk, mats[1].shear, mats[2].bulk
    km = mats[0].bulk

    def f(c):
        return hashin_reference(kc, muc, ki, c ** (1.0 / 3.0), 1.0) - km

    c_star = brentq(f, 1e-6, 0.999)
    assert np.isclose(c_star, (6 * np.e / 5 / (2 * np.pi)) ** 3, rtol=1e-6)
    assert np.isclose(hashin_bulk_reference(mats), 1.0, atol=1e-6)


def test_effective_stiffness_homogeneous_exact():
    assembly, mats, lengths = homogeneous_cell()
    system = build_system(assembly, Grid((4, 4, 4), lengths), mats)
    eff = effective_stiffness(system, SolverConfig("lcg", 1e-10, 50))
    assert eff.converged
    assert np.allclose(eff.stiffness, iso_stiffness(mats[0]), rtol=1e-12)
    assert eff.asymmetry < 1e-14
    assert np.isclose(eff.bulk_modulus, mats[0].bulk, rtol=1e-12)


def test_laminate_reference_identities():
    # equal phases reduce to the phase stiffness; axis handling consistent
    c = iso_stiffness(MaterialIso(2.0, 0.3))
    for axis in range(3):
        assert np.allclose(laminate_reference([c, c], (0.5, 0.5), axis), c, rtol=1e-13)
    a = iso_stiffness(MaterialIso(2.0, 0.3))
    b = iso_stiffness(MaterialIso(1.0, 0.2))
    lam = laminate_reference([a, b], (0.5, 0.5), axis=0)
    assert np.allclose(lam, lam.T, atol=1e-13)
    # normal uniaxial-strain modulus mixes harmonically, shear 2mu likewise
    assert np.isclose(lam[0, 0], 2.0 / (1.0 / a[0, 0] + 1.0 / b[0, 0]), rtol=1e-13)
    for shear_idx in (4, 5):
        assert np.isclose(
            lam[shear_idx, shear_idx],
            2.0 / (1.0 / a[shear_idx, shear_idx] + 1.0 / b[shear_idx, shear_idx]),
            rtol=1e-13,
        )
    # in-plane normal response exceeds harmonic and stays below arithmetic
    assert lam[1, 1] <= 0.5 * (a[1, 1] + b[1, 1]) + 1e-12
    assert lam[1, 1] >= 2.0 / (1.0 / a[1, 1] + 1.0 / b[1, 1]) - 1e-12
    with pytest.raises(ValueError):
        laminate_reference([a, b], (0.7, 0.7))


def test_effective_stiffness_laminate_closed_form():
    assembly, mats, lengths = laminate_cell()
    system = build_system(assembly, Grid((4, 4, 4), lengths), mats)
    eff = effective_stiffness(system, SolverConfig("lcg", 1e-12, 400))
    ref = laminate_cell_reference(mats)
    assert eff.converged
    err = np.abs(eff.stiffness - ref).max() / np.abs(ref).max()
    assert err < 1e-8
    assert eff.asymmetry < 1e-8


def test_l2_norm_field_basics():
    w = np.array([0.5, 0.5, 1.0])
    assert l2_norm_field(np.zeros((3, 6)), w) == 0.0
    # constant unit 6-field over a domain of total weight |Y|
    ones = np.ones((3, 6))
    assert np.isclose(l2_norm_field(ones, w), np.sqrt(6 * w.sum()), rtol=1e-14)


def test_l2_norm_field_piecewise_linear_closed_form():
    # random linear scalar field on one reference tet vs analytic integral
    from xfft.element import shunn_ham_4

    rng = np.random.default_rng(0)
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    q, w = shunn_ham_4(verts)
    a, b, c, d = rng.standard_normal(4)
    vals = a + b * q[:, 0] + c * q[:, 1] + d * q[:, 2]
    # integral of (a + bx + cy + dz)^2 over the reference tet, expanded in
    # closed-form monomial integrals
    terms = {
        (0, 0, 0): a * a,
        (1, 0, 0): 2 * a * b,
        (0, 1, 0): 2 * a * c,
        (0, 0, 1): 2 * a * d,
        (2, 0, 0): b * b,
        (0, 2, 0): c * c,
        (0, 0, 2): d * d,
        (1, 1, 0): 2 * b * c,
        (1, 0, 1): 2 * b * d,
        (0, 1, 1): 2 * c * d,
    }
    exact = sum(coef * simplex_monomial(*mono) for mono, coef in terms.items())
    assert np.isclose(l2_norm_field(vals, w), np.sqrt(exact), rtol=1e-13)


def test_quadrature_set_total_weight_is_cell_volume():
    system, _ = hashin_system(8)
    _, w = quadrature_set(system)
    assert np.isclose(w.sum(), system.grid.volume, rtol=1e-12)
    assert np.all(w > 0)


def test_evaluate_strain_homogeneous_field():
    assembly, mats, lengths = homogeneous_cell()
    system = build_system(assembly, Grid((4, 4, 4), lengths), mats)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 16, size=(200, 3))
    u = system.zeros()
    eps = evaluate_strain(system.caches, u.grid, u.enr, EPS_HYDRO, pts)
    assert np.allclose(eps, EPS_HYDRO, atol=1e-14)


def test_evaluate_strain_linear_displacement():
    # u(x) = G x with periodic wrap is not periodic, so use a pure fourier
    # mode instead: strain from evaluate_strain matches an analytic gradient
    assembly, mats, lengths = homogeneous_cell()
    grid = Grid((8, 8, 8), lengths)
    system = build_system(assembly, grid, mats)
    x = grid.node_coords()
    k = 2 * np.pi / 16.0
    u = system.zeros()
    amp = np.array([0.3, -0.2, 0.5])
    u.grid[:] = np.sin(k * x[..., :1]) * amp
    # P1 interpolation of a sine: compare at element centroids against the
    # piecewise-linear gradient, i.e. the finite difference of nodal values
    pts = (x + np.array(grid.h) * 0.25).reshape(-1, 3)[::7]
    eps = evaluate_strain(system.caches, u.grid, u.enr, np.zeros(6), pts)
    # all strains bounded by the max slope of the interpolant
    hmax = np.max(np.diff(np.sin(k * np.arange(8) * 2.0)) / 2.0)
    assert eps[:, 0].max() <= hmax * np.abs(amp[0]) + 1e-12
    # and the 11-component at points inside the first voxel equals the
    # forward difference there
    p0 = np.array([[0.5, 0.3, 0.2]])
    e0 = evaluate_strain(system.caches, u.grid, u.enr, np.zeros(6), p0)
    fd = (np.sin(k * 2.0) - 0.0) / 2.0
    assert np.isclose(e0[0, 0], fd * amp[0], rtol=1e-12)


def test_evaluate_strain_reproduces_kink_exactly():
    # X-FEM laminate solution evaluated off-node matches the exact field
    assembly = hashin_cell()[0]  # reuse nothing; build laminate instead
    from xfft.microstructure import PhaseAssembly, Plane, Region

    assembly = PhaseAssembly([Region(Plane((3.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    mats = [MaterialIso(2.0, 0.3), MaterialIso(1.0, 0.2)]
    system = build_system(assembly, Grid((4, 4, 4), (16.0,) * 3), mats)
    res = run_scheme(system, SolverConfig("lcg", 1e-12, 300), EPS_HYDRO)
    # strain is piecewise constant per phase; sample far from interfaces
    pts_a = np.column_stack([np.full(20, 8.0), *np.random.default_rng(2).uniform(0, 16, (2, 20))])
    pts_b = np.column_stack([np.full(20, 14.0), *np.random.default_rng(3).uniform(0, 16, (2, 20))])
    e_a = evaluate_strain(system.caches, res.u.grid, res.u.enr, EPS_HYDRO, pts_a)
    e_b = evaluate_strain(system.caches, res.u.grid, res.u.enr, EPS_HYDRO, pts_b)
    assert np.allclose(e_a, e_a[0], atol=1e-9)
    assert np.allclose(e_b, e_b[0], atol=1e-9)
    # stress continuity of the normal components across the interface
    c_a = iso_stiffness(mats[1])  # x=8 lies inside phase 1 (slab interior)
    c_b = iso_stiffness(mats[0])
    s_a = c_a @ e_a[0]
    s_b = c_b @ e_b[0]
    assert np.isclose(s_a[0], s_b[0], rtol=1e-8)  # sigma_xx continuous


def test_strain_error_rejects_coarser_reference():
    sys16, _ = hashin_system(8)
    sys8, _ = hashin_system(4)
    u16, u8 = sys16.zeros(), sys8.zeros()
    with pytest.raises(ValueError):
        strain_error(sys16, u16, sys8, u8, EPS_HYDRO)


def test_strain_error_zero_for_identical_fields():
    system, _ = hashin_system(4)
    res = run_scheme(system, SolverConfig("lcg", 1e-8, 200), EPS_HYDRO)
    err = strain_error(system, res.u, system, res.u, EPS_HYDRO)
    assert err.abs_l2 < 1e-12
    assert err.mean_square < 1e-24


def test_energy_bound_check_trivial_and_scaling():
    ok, lo, mid, up = energy_bound_check(
        np.eye(6), np.eye(6), 0.0, EPS_HYDRO, 1.0, 2.0
    )
    assert ok and lo == mid == up == 0.0
    # scaling both bounds by t scales lower/upper by t
    _, lo1, _, up1 = energy_bound_check(2 * np.eye(6), np.eye(6), 0.5, EPS_HYDRO, 1.0, 2.0)
    _, lo2, _, up2 = energy_bound_check(2 * np.eye(6), np.eye(6), 0.5, EPS_HYDRO, 3.0, 6.0)
    assert np.isclose(lo2, 3 * lo1) and np.isclose(up2, 3 * up1)


def test_fit_slope_synthetic():
    hs = [1.0, 0.5, 0.25]
    errs = [4.0, 1.0, 0.25]  # exactly quadratic
    assert np.isclose(fit_slope(hs, errs), 2.0, rtol=1e-12)
    # guard drops a flat coarsest point
    errs_flat = [0.3, 1.0, 0.25]
    s = fit_slope(hs, errs_flat)
    assert np.isclose(s, 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        fit_slope([1.0, 0.5], [1.0, 0.0])


def test_convergence_study_synthetic_slope():
    def solve_at(n):
        return 1.0 + (1.0 / n) ** 2, n

    study = convergence_study(solve_at, [4, 8, 16], reference=1.0)
    assert study.slope is not None and np.isclose(study.slope, 2.0, rtol=1e-10)
    assert study.errors == sorted(study.errors, reverse=True)
    no_slope = convergence_study(solve_at, [4, 8], reference=1.0)
    assert no_slope.slope is None
    with pytest.raises(ValueError):
        convergence_study(solve_at, [4, 4, 8], reference=1.0)


def test_hashin_bulk_modulus_converges():
    system, mats = hashin_system(16)
    k_eff, res = bulk_modulus_hydrostatic(system, SolverConfig("lcg", 1e-7, 200))
    assert res.converged
    assert rel_error(k_eff, hashin_bulk_reference(mats)) < 1e-3
