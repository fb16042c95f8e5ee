import copy

import numpy as np
import pytest
from helpers import dense_system, flatten_dofs, solve_dense, unflatten_dofs

from xfft import solver
from xfft.homogenize import hashin_cell, hashin_system, homogeneous_cell
from xfft.mesh import Grid
from xfft.microstructure import PhaseAssembly, Plane, Region, Sphere
from xfft.solver import (
    SolverConfig,
    System,
    build_system,
    run_basic,
    run_bb,
    run_lcg,
    run_ncg,
    run_scheme,
)
from xfft.voigt import MaterialIso, iso_stiffness

EPS_HYDRO = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def laminate_n4():
    # N=4 cut-plane problem: interfaces at x = 3 and x = 11 cut mid-voxel
    assembly = PhaseAssembly(
        [Region(Plane((3.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 1, 0)], 0
    )
    mats = [MaterialIso(2.0, 0.3), MaterialIso(1.0, 0.2)]
    system = build_system(assembly, Grid((4, 4, 4), (16.0,) * 3), mats)
    return system, assembly


@pytest.fixture(scope="module")
def homog_n4():
    assembly, mats, lengths = homogeneous_cell()
    return build_system(assembly, Grid((4, 4, 4), lengths), mats)


def test_residual_zero_for_homogeneous_at_rest(homog_n4):
    r = homog_n4.residual(homog_n4.zeros(), EPS_HYDRO)
    assert np.allclose(r.grid, 0.0, atol=1e-12)


def test_residual_zero_without_load(laminate_n4):
    system, _ = laminate_n4
    r = system.residual(system.zeros(), np.zeros(6))
    assert np.allclose(r.grid, 0.0, atol=1e-14)
    assert np.allclose(r.enr, 0.0, atol=1e-14)


def test_residual_matches_dense_assembly(laminate_n4):
    system, assembly = laminate_n4
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = system.zeros()
        u.grid[:] = rng.standard_normal(u.grid.shape)
        u.enr[:] = rng.standard_normal(u.enr.shape)
        eps = rng.standard_normal(6)
        r = system.residual(u, eps)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        scale = np.abs(r_dense).max()
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * scale)


@pytest.fixture(scope="module")
def two_spheres_n8():
    # two close spheres in three phases: cut elements plus multi-interface
    # fallback elements where single tets see both interfaces
    assembly = PhaseAssembly(
        [
            Region(Sphere((6.0, 8.0, 8.0), 2.2), 1, 0),
            Region(Sphere((10.6, 8.0, 8.0), 2.2), 2, 0),
        ],
        0,
    )
    mats = [MaterialIso(1.0, 0.3), MaterialIso(10.0, 0.3), MaterialIso(1.0 / 3.0, 0.2)]
    system = build_system(assembly, Grid((8, 8, 8), (16.0,) * 3), mats)
    return system, assembly


def test_cut_and_fallback_elements_match_dense_assembly(two_spheres_n8):
    system, assembly = two_spheres_n8
    assert system.caches.n_cut > 0 and system.caches.n_mi > 0
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(5)
    vecs = []
    for _ in range(2):
        u = system.zeros()
        u.grid[:] = rng.standard_normal(u.grid.shape)
        u.enr[:] = rng.standard_normal(u.enr.shape)
        eps = rng.standard_normal(6)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        scale = np.abs(r_dense).max()
        r = system.residual(u, eps)
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * scale)
        sigma = system.average_stress(u, eps)
        expect = (bmat.T @ flatten_dofs(u) + system.caches.total_cv @ eps) / system.grid.volume
        assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())
        vecs.append(u)
    v, w = vecs
    vaw = v.dot(system.operator(w))
    wav = w.dot(system.operator(v))
    assert np.isclose(vaw, wav, rtol=1e-12)


def test_res_norm_zero_and_enriched_passthrough(laminate_n4):
    system, _ = laminate_n4
    f = system.zeros()
    assert system.res_norm(f) == 0.0
    rng = np.random.default_rng(1)
    f.enr[:] = rng.standard_normal(f.enr.shape)
    # identity block: norm equals the Euclidean norm of the enriched part
    assert np.isclose(system.res_norm(f), np.linalg.norm(f.enr), rtol=1e-14)


def test_res_norm_matches_dense_quadratic_form(laminate_n4):
    system, _ = laminate_n4
    rng = np.random.default_rng(2)
    f = system.zeros()
    f.grid[:] = rng.standard_normal(f.grid.shape)
    f.enr[:] = rng.standard_normal(f.enr.shape)
    z = system.precondition(f)
    # dense P^-1: apply the preconditioner columnwise to unit impulses
    assert np.isclose(system.res_norm(f), np.sqrt(f.dot(z)), rtol=1e-14)
    # self-adjointness implies f.P^-1 f == z-weighted inner product; compare
    # against an explicit dense quadratic form on a random subspace
    vecs = [system.zeros() for _ in range(4)]
    for v in vecs:
        v.grid[:] = rng.standard_normal(v.grid.shape)
        v.enr[:] = rng.standard_normal(v.enr.shape)
    gram = np.array([[a.dot(system.precondition(b)) for b in vecs] for a in vecs])
    assert np.allclose(gram, gram.T, rtol=1e-11)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_average_stress_homogeneous(homog_n4):
    c = iso_stiffness(MaterialIso(1.5, 0.25))
    sigma = homog_n4.average_stress(homog_n4.zeros(), EPS_HYDRO)
    assert np.allclose(sigma, c @ EPS_HYDRO, rtol=1e-13)
    assert np.allclose(
        homog_n4.average_stress(homog_n4.zeros(), np.zeros(6)), 0.0, atol=1e-15
    )


def test_average_stress_matches_dense_maps(laminate_n4):
    # <sigma> = (1/|Y|)(B^T u + total_cv eps) with B the dense load matrix
    system, assembly = laminate_n4
    _, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(3)
    u = system.zeros()
    u.grid[:] = rng.standard_normal(u.grid.shape)
    u.enr[:] = rng.standard_normal(u.enr.shape)
    eps = rng.standard_normal(6)
    sigma = system.average_stress(u, eps)
    expect = (bmat.T @ flatten_dofs(u) + system.caches.total_cv @ eps) / system.grid.volume
    assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12)


def test_lcg_homogeneous_converges_immediately(homog_n4):
    cfg = SolverConfig("lcg", tol=1e-7, maxit=50)
    res = run_lcg(homog_n4, cfg, EPS_HYDRO)
    assert res.converged
    assert res.iterations <= 1
    assert np.allclose(res.u.grid, 0.0, atol=1e-14)


def test_lcg_matches_dense_direct_solve(laminate_n4):
    system, assembly = laminate_n4
    u_direct, a, bmat = solve_dense(system, assembly, EPS_HYDRO)
    cfg = SolverConfig("lcg", tol=1e-13, maxit=500)
    res = run_lcg(system, cfg, EPS_HYDRO)
    scale = max(np.abs(u_direct.grid).max(), 1e-30)
    assert np.allclose(res.u.grid, u_direct.grid, atol=1e-9 * scale)
    assert np.allclose(res.u.enr, u_direct.enr, atol=1e-9 * scale)


def test_lcg_energy_monotone_and_posthoc_criterion(laminate_n4):
    system, _ = laminate_n4
    cfg = SolverConfig("lcg", tol=1e-10, maxit=200)
    res = run_lcg(system, cfg, EPS_HYDRO)
    assert res.converged
    energies = np.array(res.energies)
    assert np.all(np.diff(energies) <= 1e-12 * np.abs(energies[0]) + 1e-30)
    # re-verified residual satisfies the stopping criterion
    assert res.res_verified <= cfg.tol * np.linalg.norm(res.sigma) * (1 + 1e-9)


def test_basic_richardson_exact_on_identity_coefficient():
    # with C = Mandel identity (E=1, nu=0) the system operator equals the
    # preconditioner block; one basic step from a random start is exact
    assembly, _, lengths = homogeneous_cell()
    system = build_system(
        assembly, Grid((4, 4, 4), lengths), [MaterialIso(1.0, 0.0)]
    )
    assert np.isclose(system.step_size, 1.0)
    rng = np.random.default_rng(4)
    f_target = system.zeros()
    f_target.grid[:] = rng.standard_normal(f_target.grid.shape)
    f_target.grid -= f_target.grid.mean(axis=(0, 1, 2))
    u = system.precondition(f_target)  # u solves A u = f_target
    r = system.operator(u)
    assert np.allclose(r.grid, f_target.grid, rtol=1e-11, atol=1e-11)
    # one Richardson step u1 = u0 - P^-1 (A u0 - f) lands on u for any u0
    u0 = system.zeros()
    u0.grid[:] = rng.standard_normal(u0.grid.shape)
    g = system.operator(u0)
    g.grid -= f_target.grid
    z = system.precondition(g)
    u1 = u0.copy()
    u1.axpy(-1.0, z)
    u1.grid -= u1.grid.mean(axis=(0, 1, 2))
    assert np.allclose(u1.grid, u.grid, rtol=1e-10, atol=1e-10)


def test_basic_monotone_decrease_on_hashin():
    system, _ = hashin_system(8)
    cfg = SolverConfig("basic", tol=1e-7, maxit=40)
    res = run_basic(system, cfg, EPS_HYDRO)
    r = [row[1] for row in res.history]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(r, r[1:]))


def test_bb_scalar_surrogate_step_is_inverse_curvature():
    # BB1 on a quadratic: after the first step the step equals 1/curvature
    a = 3.7
    u, g_prev, tau_prev = 0.0, None, None
    b = 2.0
    taus = []
    for _ in range(3):
        g = a * u - b
        if g_prev is not None:
            s = -tau_prev * g_prev
            tau = (s * s) / (s * (g - g_prev))
        else:
            tau = 0.1
        taus.append(tau)
        g_prev, tau_prev = g, tau
        u = u - tau * g
    assert np.isclose(taus[1], 1.0 / a, rtol=1e-14)


def test_bb_agrees_with_lcg_on_sphere():
    from xfft.microstructure import Sphere

    assembly = PhaseAssembly([Region(Sphere((8.0, 8, 8), 4.0), 1, 0)], 0)
    mats = [MaterialIso(1.5, 0.25), MaterialIso(15.0, 0.25)]
    system = build_system(assembly, Grid((8, 8, 8), (16.0,) * 3), mats)
    res_l = run_lcg(system, SolverConfig("lcg", tol=1e-10, maxit=400), EPS_HYDRO)
    res_b = run_bb(system, SolverConfig("bb", tol=1e-10, maxit=2000), EPS_HYDRO)
    assert res_b.converged
    assert np.allclose(res_b.sigma, res_l.sigma, rtol=1e-6)


def test_ncg_exact_line_search_reproduces_lcg(laminate_n4):
    system, _ = laminate_n4
    cfg = SolverConfig("ncg", tol=1e-11, maxit=300)
    res_n = run_ncg(system, cfg, EPS_HYDRO)
    res_l = run_lcg(system, SolverConfig("lcg", tol=1e-11, maxit=300), EPS_HYDRO)
    assert res_n.converged
    scale = np.abs(res_l.u.grid).max()
    assert np.allclose(res_n.u.grid, res_l.u.grid, atol=1e-8 * scale)
    # iterate-by-iterate residual histories coincide while both run
    rn = [row[1] for row in res_n.history]
    rl = [row[1] for row in res_l.history]
    m = min(len(rn), len(rl))
    assert np.allclose(rn[:m], rl[:m], rtol=1e-6)


def test_ncg_default_matches_lcg_one_sweep_per_iteration():
    # the default ncg takes its exact line-search step from a single A d
    # sweep, so on the quadratic energy it is linear CG at the same cost.
    # In floating point the two recurrences separate once CG loses
    # orthogonality (~15 iterations on this cell), so the comparison runs
    # at a tolerance reached before that.
    system, _ = hashin_system(8)
    sweep = system._sweep
    calls = []

    def counted_sweep(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    system._sweep = counted_sweep
    cfg = SolverConfig("ncg", tol=1e-6, maxit=100)
    res_n = run_ncg(system, cfg, EPS_HYDRO)
    n_sweeps = len(calls)
    res_l = run_lcg(system, SolverConfig("lcg", tol=1e-6, maxit=100), EPS_HYDRO)
    assert res_n.converged
    assert res_n.iterations == res_l.iterations
    # initial residual, one sweep per iteration, final verified residual
    assert n_sweeps == res_n.iterations + 2
    rn = [row[1] for row in res_n.history]
    rl = [row[1] for row in res_l.history]
    assert np.allclose(rn, rl, rtol=1e-8, atol=0.0)
    assert np.allclose(res_n.sigma, res_l.sigma, rtol=1e-10)
    assert np.isclose(res_n.res_verified, res_n.res_final, rtol=1e-6)


def test_ncg_homogeneous_zero_iterations(homog_n4):
    res = run_ncg(homog_n4, SolverConfig("ncg", tol=1e-7, maxit=50), EPS_HYDRO)
    assert res.converged
    assert res.iterations == 0


def test_solution_mean_free(laminate_n4):
    system, _ = laminate_n4
    res = run_lcg(system, SolverConfig("lcg", tol=1e-10, maxit=300), EPS_HYDRO)
    assert np.allclose(res.u.grid.mean(axis=(0, 1, 2)), 0.0, atol=1e-13)


def test_scheme_dispatch_and_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("sor", 1e-7, 10)
    with pytest.raises(ValueError):
        SolverConfig("lcg", -1.0, 10)
    with pytest.raises(ValueError):
        SolverConfig("lcg", 1e-7, 0)
    assembly, mats, lengths = homogeneous_cell()
    system = build_system(assembly, Grid((4, 4, 4), lengths), mats)
    for scheme in ("lcg", "basic", "bb", "ncg"):
        res = run_scheme(system, SolverConfig(scheme, 1e-7, 50), EPS_HYDRO)
        assert res.converged and res.scheme == scheme


@pytest.mark.parametrize("maxit", [2.5, 3.0, True, "3"])
def test_config_rejects_maxit_that_is_not_an_integer(maxit):
    # maxit=2.5 used to run 3 iterations
    with pytest.raises(ValueError, match="integer"):
        SolverConfig("lcg", 1e-7, maxit)


def test_config_rejects_boolean_tol():
    # maxit=True is rejected, and tol=True used to pass as a tolerance of 1
    with pytest.raises(ValueError, match="tol"):
        SolverConfig("lcg", True, 10)


@pytest.mark.parametrize("scheme", ["lcg", "basic", "bb", "ncg"])
def test_nonconverged_flagged(scheme):
    system, _ = hashin_system(8)
    res = run_scheme(system, SolverConfig(scheme, tol=1e-13, maxit=3), EPS_HYDRO)
    assert not res.converged
    assert res.iterations == 3


@pytest.mark.parametrize("mode", ["p1", "xfem"])
def test_multi_phase_voxel_stencil_matches_dense_assembly(mode):
    # coated sphere at N=6, three phases.  p1: every voxel is in the voxel
    # pass; xfem: the voxels holding cut elements also hold plain tets of
    # phases 0 and 1, which go through the special operator
    system, _ = hashin_system(6, mode=mode)
    assembly = hashin_cell()[0]
    c = system.caches
    plain = c.ptype[:, c.voxel_phase < 0]
    if mode == "p1":
        assert len(c.special_dofs) == 0 and np.all(np.diff(c.voxel_bounds) > 0)
    else:
        assert set(plain[plain >= 0]) == {0, 1}
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(6)
    for _ in range(2):
        u = system.zeros()
        u.data[:] = rng.standard_normal(u.data.shape)
        eps = rng.standard_normal(6)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        r = system.residual(u, eps)
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * np.abs(r_dense).max())
        sigma = system.average_stress(u, eps)
        expect = (bmat.T @ flatten_dofs(u) + c.total_cv @ eps) / system.grid.volume
        assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("mode", ["xfem", "p1"])
def test_phase_without_material_rejected(mode):
    grid = Grid((4, 4, 4), (16.0,) * 3)
    mats = [MaterialIso(1.0, 0.3), MaterialIso(2.0, 0.3)]
    sphere = Sphere((8.0, 8.0, 8.0), 4.0)
    for assembly in (
        PhaseAssembly([Region(sphere, 2, 0)], 0),
        PhaseAssembly([Region(sphere, 1, 2)], 0),
        PhaseAssembly([Region(sphere, 1, -1)], 0),
        PhaseAssembly([], 2),
    ):
        with pytest.raises(ValueError, match="has no material"):
            build_system(assembly, grid, mats, mode=mode)


@pytest.mark.parametrize("mode", ["xfem", "p1"])
def test_more_phases_or_regions_than_int8_rejected(mode):
    grid = Grid((4, 4, 4), (16.0,) * 3)
    sphere = Sphere((8.0, 8.0, 8.0), 4.0)
    with pytest.raises(ValueError, match="at most 127"):
        build_system(PhaseAssembly([], 0), grid, [MaterialIso(1.0, 0.3)] * 128, mode=mode)
    regions = [Region(sphere, 0, 0)] * 128
    with pytest.raises(ValueError, match="at most 127"):
        build_system(PhaseAssembly(regions, 0), grid, [MaterialIso(1.0, 0.3)], mode=mode)


def test_results_bitwise_equal_for_one_and_two_fft_workers():
    from xfft import greenop

    system, _ = hashin_system(8)
    config = SolverConfig(scheme="lcg", tol=1e-10, maxit=200)
    before = greenop.fft_workers()
    runs = []
    try:
        for workers in (1, 2):
            greenop.set_fft_workers(workers)
            runs.append(run_lcg(system, config, EPS_HYDRO))
    finally:
        greenop.set_fft_workers(before)
    one, two = runs
    assert one.converged and one.iterations == two.iterations
    assert np.array_equal(one.sigma, two.sigma)
    # (iteration, res, res_rel) rows; the wall time differs
    assert [row[:3] for row in one.history] == [row[:3] for row in two.history]


def test_results_bitwise_equal_for_one_and_two_openblas_threads():
    from xfft.cli import openblas_threads, set_openblas_threads

    before = openblas_threads()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS is not reachable")
    system, _ = hashin_system(8)
    config = SolverConfig(scheme="lcg", tol=1e-10, maxit=200)
    runs = []
    try:
        for threads in (1, 2):
            set_openblas_threads(threads)
            assert openblas_threads() == threads
            runs.append(run_lcg(system, config, EPS_HYDRO))
    finally:
        set_openblas_threads(before)
    one, two = runs
    assert one.converged and one.iterations == two.iterations
    assert np.array_equal(one.sigma, two.sigma)
    assert [row[:3] for row in one.history] == [row[:3] for row in two.history]


@pytest.mark.parametrize("scheme", ["lcg", "basic", "bb", "ncg"])
def test_progress_logged_once_per_iteration_at_debug(caplog, scheme):
    import logging

    system, _ = hashin_system(8)
    with caplog.at_level(logging.DEBUG, logger="xfft.solver"):
        res = run_scheme(system, SolverConfig(scheme=scheme, tol=1e-10, maxit=200), EPS_HYDRO)
    records = [r for r in caplog.records if r.name == "xfft.solver"]
    # one record per history row: iterations 0 .. res.iterations
    assert len(records) == len(res.history) == res.iterations + 1
    assert all(r.levelno == logging.DEBUG for r in records)
    assert all(f"{scheme} iteration {k}:" in r.getMessage() for k, r in enumerate(records))
    assert not [r for r in caplog.records if r.levelno >= logging.INFO]


def test_voxel_index_on_non_cubic_grid_matches_dense_assembly():
    # distinct voxel counts and lengths per axis: swapping two axes or two
    # corner slots of the voxel dof index changes the residual
    assembly = PhaseAssembly([Region(Sphere((5.0, 7.0, 9.0), 5.5), 1, 0)], 0)
    mats = [MaterialIso(1.0, 0.3), MaterialIso(10.0, 0.25)]
    system = build_system(assembly, Grid((4, 5, 6), (12.0, 15.0, 18.0)), mats)
    c = system.caches
    assert c.voxel_dofs.dtype == np.intp and c.voxel_dofs.shape[1] == 24
    assert np.all(np.diff(c.voxel_bounds) > 0) and len(c.special_dofs) > 0
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(456)
    for _ in range(2):
        u = system.zeros()
        u.data[:] = rng.standard_normal(u.data.shape)
        eps = rng.standard_normal(6)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        r = system.residual(u, eps)
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * np.abs(r_dense).max())
        sigma = system.average_stress(u, eps)
        expect = (bmat.T @ flatten_dofs(u) + c.total_cv @ eps) / system.grid.volume
        assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


def test_cut_cell_on_a_two_voxel_axis_matches_dense_assembly():
    # on a 2-voxel axis the +1 and -1 neighbours of a node coincide, so two
    # elements can hold the same node pair in opposite corner order and the
    # special operator must merge both orientations into one block
    assembly = PhaseAssembly([Region(Sphere((3.0, 8.0, 10.0), 2.6), 1, 0)], 0)
    mats = [MaterialIso(1.0, 0.3), MaterialIso(10.0, 0.25)]
    system = build_system(assembly, Grid((2, 4, 5), (6.0, 16.0, 20.0)), mats)
    c = system.caches
    assert c.n_cut > 0 and len(c.voxel_dofs) > 0
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(25)
    for _ in range(2):
        u = system.zeros()
        u.data[:] = rng.standard_normal(u.data.shape)
        eps = rng.standard_normal(6)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        r = system.residual(u, eps)
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * np.abs(r_dense).max())
        sigma = system.average_stress(u, eps)
        expect = (bmat.T @ flatten_dofs(u) + c.total_cv @ eps) / system.grid.volume
        assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("cell", ["hashin", "two_spheres", "hashin_p1"])
def test_sweep_in_row_blocks_matches_one_block(monkeypatch, request, cell):
    # 11-row blocks end short, the blocks holding the last voxel layer wrap
    # to the first node layer, and where several phases have regular voxels
    # (p1 mode) blocks cut across the phase boundaries of `voxel_dofs`: the
    # sweep must still equal the one-block sweep
    if cell == "two_spheres":
        system = request.getfixturevalue("two_spheres_n8")[0]
    else:
        system = hashin_system(8, mode="p1" if cell == "hashin_p1" else "xfem")[0]
    monkeypatch.setattr(solver, "SWEEP_ROWS", 11)
    blocked = System(system.layout, system.caches, system.symbol)
    idx, bounds = system.caches.voxel_dofs, system.caches.voxel_bounds
    n1, n2, n3 = system.grid.n
    last_layer = idx[:, 0] // 3 // (n2 * n3) == n1 - 1
    blocks = blocked._sweep_blocks
    assert len(system._sweep_blocks) == 1
    assert len(blocks) == -(-len(idx) // 11) and len(idx) % 11
    assert any(last_layer[rows].any() for rows, *_ in blocks)
    straddle = any(sum(r.stop > r.start for r in phase_rows) > 1 for *_, phase_rows in blocks)
    assert straddle == (np.count_nonzero(np.diff(bounds)) > 1) == (cell == "hashin_p1")

    rng = np.random.default_rng(31)
    u = system.zeros()
    u.data[:] = rng.standard_normal(u.data.shape)
    for eps in (rng.standard_normal(6), np.zeros(6)):
        (r_one, sig_one), (r_blk, sig_blk) = system._sweep(u, eps), blocked._sweep(u, eps)
        assert np.abs(r_blk.data - r_one.data).max() <= 1e-13 * np.abs(r_one.data).max()
        assert np.abs(sig_blk - sig_one).max() <= 1e-13 * np.abs(sig_one).max()
        assert np.abs(blocked.average_stress(u, eps) - system.average_stress(u, eps)).max() <= (
            1e-13 * np.abs(sig_one).max() / system.grid.volume
        )
    config = SolverConfig("lcg", 1e-8, 500)
    for eps in (EPS_HYDRO, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])):
        one, blk = run_lcg(system, config, eps), run_lcg(blocked, config, eps)
        assert one.converged and blk.iterations == one.iterations


def _with_caches(system, caches):
    return System(system.layout, caches, system.symbol)


@pytest.mark.parametrize("cell", ["hashin", "two_spheres", "hashin_p1"])
def test_sweep_residual_bitwise_equal_for_any_block_size(monkeypatch, request, cell):
    # every block adds its corner forces into one vector in index order, so
    # the residual is the one-block residual bit for bit, loaded or not
    if cell == "two_spheres":
        system = request.getfixturevalue("two_spheres_n8")[0]
    else:
        system = hashin_system(8, mode="p1" if cell == "hashin_p1" else "xfem")[0]
    monkeypatch.setattr(solver, "SWEEP_ROWS", 11)
    blocked = _with_caches(system, system.caches)
    assert len(system._sweep_blocks) == 1 and len(blocked._sweep_blocks) > 1
    rng = np.random.default_rng(17)
    u = system.zeros()
    u.data[:] = rng.standard_normal(u.data.shape)
    for eps in (rng.standard_normal(6), np.zeros(6)):
        assert np.array_equal(blocked._sweep(u, eps)[0].data, system._sweep(u, eps)[0].data)


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_lcg_history_equal_for_any_block_size_after_ulp_nudges(monkeypatch, two_spheres_n8, seed):
    # a one-ulp change of the special operator must not make a one-block
    # and an 11-row-block solve stop at different iterates
    system = two_spheres_n8[0]
    k = system.caches.special_k.copy()
    rng = np.random.default_rng(seed)
    nudge = rng.random(k.data.shape) < 0.5
    towards = np.where(rng.random(np.count_nonzero(nudge)) < 0.5, -np.inf, np.inf)
    k.data[nudge] = np.nextafter(k.data[nudge], towards)
    caches = copy.copy(system.caches)
    caches.special_k = k
    one = _with_caches(system, caches)
    monkeypatch.setattr(solver, "SWEEP_ROWS", 11)
    blocked = _with_caches(system, caches)
    assert len(one._sweep_blocks) == 1 and len(blocked._sweep_blocks) > 1
    config = SolverConfig("lcg", 1e-8, 500)
    for eps in (EPS_HYDRO, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])):
        a, b = run_lcg(one, config, eps), run_lcg(blocked, config, eps)
        assert a.converged and a.iterations == b.iterations
        assert [row[:2] for row in a.history] == [row[:2] for row in b.history]


def test_results_bitwise_equal_for_one_and_two_openblas_threads_n16():
    # above ~10k entries a BLAS dot product splits its sum by thread; at
    # N=16 the vector products must still not depend on the thread count
    from xfft.cli import openblas_threads, set_openblas_threads

    before = openblas_threads()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS is not reachable")
    system, _ = hashin_system(16)
    config = SolverConfig(scheme="lcg", tol=1e-10, maxit=200)
    runs = []
    try:
        for threads in (1, 2):
            set_openblas_threads(threads)
            runs.append(run_lcg(system, config, EPS_HYDRO))
    finally:
        set_openblas_threads(before)
    one, two = runs
    assert one.converged and one.iterations == two.iterations
    assert np.array_equal(one.sigma, two.sigma)
    assert [row[:3] for row in one.history] == [row[:3] for row in two.history]


def test_quadrature_set_equal_with_and_without_stored_record(two_spheres_n8):
    from xfft.homogenize import quadrature_set

    lazy, assembly = two_spheres_n8
    c = lazy.caches
    assert (c.n_cut, c.n_mi, c.n_dropped_dofs) == (206, 10, 24)
    stored = build_system(assembly, lazy.grid, list(c.stiffness))
    stored.caches.cut_qp, stored.caches.mi_qp  # computed right after the build, and kept
    for got, want in zip(quadrature_set(lazy), quadrature_set(stored)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["p1", "xfem"])
def test_majority_split_matches_dense_assembly(monkeypatch, mode):
    # the background phase 1 holds most regular voxels, and each sphere
    # holds whole voxels of phase 0 or 2: the sweep applies phase 1 on every
    # voxel by FFT and the rows of phases 0 and 2 as differences to it, in
    # one block or in 11-row blocks that hold rows on both sides of phase 1's
    assembly = PhaseAssembly(
        [
            Region(Sphere((5.0, 5.0, 5.0), 3.5), 0, 1),
            Region(Sphere((11.0, 11.0, 11.0), 3.5), 2, 1),
        ],
        1,
    )
    mats = [MaterialIso(10.0, 0.3), MaterialIso(1.0, 0.25), MaterialIso(1.0 / 3.0, 0.2)]
    system = build_system(assembly, Grid((8, 8, 8), (16.0,) * 3), mats, mode=mode)
    c = system.caches
    n_voxels = np.diff(c.voxel_bounds)
    assert c.majority == 1 and n_voxels[1] > max(n_voxels[0], n_voxels[2])
    assert n_voxels[0] > 0 and n_voxels[2] > 0 and (c.n_cut > 0) == (mode == "xfem")
    # the sweep's index holds the rows of phases 0 and 2 alone
    b = c.voxel_bounds
    assert np.array_equal(c.minority_dofs, c.voxel_dofs[np.r_[b[0] : b[1], b[2] : b[3]]])
    monkeypatch.setattr(solver, "SWEEP_ROWS", 11)
    blocked = System(system.layout, c, system.symbol)
    assert any(r.start < b[1] < r.stop for r, _ in blocked._sweep_blocks)
    assert any(r.start < b[2] < r.stop for r, _ in blocked._sweep_blocks)
    a, bmat = dense_system(system, assembly)
    rng = np.random.default_rng(23)
    for _ in range(2):
        u = system.zeros()
        u.data[:] = rng.standard_normal(u.data.shape)
        eps = rng.standard_normal(6)
        r_dense = a @ flatten_dofs(u) + bmat @ eps
        r = system.residual(u, eps)
        assert np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * np.abs(r_dense).max())
        assert np.array_equal(blocked.residual(u, eps).data, r.data)
        expect = (bmat.T @ flatten_dofs(u) + c.total_cv @ eps) / system.grid.volume
        for sigma in (system.average_stress(u, eps), blocked.average_stress(u, eps)):
            assert np.allclose(sigma, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("scheme", ["lcg", "ncg"])
def test_carried_majority_force_matches_fresh_transforms(monkeypatch, two_spheres_n8, scheme):
    # lcg and ncg carry dm = A_m d by linearity and hand it to the sweep of
    # d; a sweep that ignores it transforms d afresh, and the solve must
    # agree to round-off.  On these cells CG loses orthogonality after ~17
    # iterations, and from there a 1e-16 relative change of one sweep grows
    # ~30x per iteration whatever its source, so the solves stop at tol
    # 1e-5 (11 to 19 iterations), before that
    sweep = System._sweep
    carried_calls = []

    def counted(self, u, eps_bar, majority_force=None):
        carried_calls.append(majority_force is not None)
        return sweep(self, u, eps_bar, majority_force)

    def fresh(self, u, eps_bar, majority_force=None):
        return sweep(self, u, eps_bar)

    config = SolverConfig(scheme, 1e-5, 500)
    for system in (hashin_system(8)[0], two_spheres_n8[0]):
        for eps in (EPS_HYDRO, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])):
            carried_calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(System, "_sweep", counted)
                got = run_scheme(system, config, eps)
                # the start and the verified residual transform u
                assert carried_calls == [False] + [True] * got.iterations + [False]
                patch.setattr(System, "_sweep", fresh)
                want = run_scheme(system, config, eps)
            assert got.converged and got.iterations == want.iterations
            rows = np.array([row[1:3] for row in got.history])
            assert np.allclose(rows, [row[1:3] for row in want.history], rtol=1e-10, atol=0.0)
            assert np.abs(got.sigma - want.sigma).max() <= 1e-12 * np.abs(want.sigma).max()


def test_homogeneous_cell_has_no_sweep_rows_and_rests_at_exactly_zero(homog_n4):
    # the one phase is the majority phase: A_m alone is the operator, and
    # it carries no load
    c = homog_n4.caches
    assert c.majority == 0 and len(c.voxel_dofs) == 64
    assert len(c.minority_dofs) == 0 and len(c.special_dofs) == 0
    r = homog_n4.residual(homog_n4.zeros(), EPS_HYDRO)
    assert not r.data.any()


@pytest.mark.parametrize("scheme", ["lcg", "ncg"])
def test_cg_schemes_reject_a_negative_preconditioned_form(monkeypatch, scheme):
    # a preconditioner whose second output is negated gives f^T P^-1 f < 0 in
    # the first CG step; clamped to 0, it would read as a converged solve
    precondition = System.precondition
    calls = []

    def negated_second(self, f, with_majority=False):
        calls.append(1)
        out = precondition(self, f, with_majority)
        if len(calls) != 2:
            return out
        if with_majority:
            return out[0].scaled(-1.0), -out[1]
        return out.scaled(-1.0)

    system, _ = hashin_system(8)
    monkeypatch.setattr(System, "precondition", negated_second)
    with pytest.raises(RuntimeError, match="negative quadratic form"):
        run_scheme(system, SolverConfig(scheme, 1e-7, 100), EPS_HYDRO)
    assert len(calls) == 2
