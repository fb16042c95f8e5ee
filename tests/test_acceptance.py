"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The coated-sphere benchmark solves at several resolutions are shared
through module-scoped fixtures; the N=128 reference for the energy-bound
criterion is the slowest part of the suite.
"""

import itertools

import numpy as np
import pytest
from helpers import dense_system, flatten_dofs, simplex_monomial

from xfft.element import (
    CUT_TEMPLATES,
    cut_tet,
    enrichment_quadrature,
    modified_abs,
    shunn_ham_4,
    sym_grad_cols,
)
from xfft.greenop import apply_preconditioner, apply_stencil
from xfft.homogenize import (
    bulk_modulus_hydrostatic,
    energy_bound_check,
    fit_slope,
    hashin_system,
    laminate_cell,
    laminate_cell_reference,
    effective_stiffness,
    rel_error,
    strain_error,
)
from xfft.mesh import Grid, build_topology
from xfft.microstructure import PhaseAssembly, Plane, Region
from xfft.solver import SolverConfig, build_system, run_scheme
from xfft.voigt import MaterialIso

EPS_HYDRO = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
TOL = 1e-7
K_REF = 1.0  # neutral inclusion: effective bulk modulus equals the matrix one


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def xfem_solves():
    out = {}
    for n in (16, 32, 64):
        system, mats = hashin_system(n)
        k_eff, res = bulk_modulus_hydrostatic(
            system, SolverConfig("lcg", TOL, 400)
        )
        out[n] = dict(system=system, mats=mats, k=k_eff, res=res)
    return out


@pytest.fixture(scope="module")
def reference128():
    system, _ = hashin_system(128)
    k_eff, res = bulk_modulus_hydrostatic(system, SolverConfig("lcg", TOL, 400))
    return dict(system=system, k=k_eff, res=res)


def test_criterion_1_hashin_n16_accuracy(xfem_solves):
    err = rel_error(xfem_solves[16]["k"], K_REF)
    ok = err < 1e-3 and xfem_solves[16]["res"].converged
    assert report(1, ok, f"N=16 effective bulk modulus rel error {err:.3e} < 1e-3")


def test_criterion_2_convergence_slopes(xfem_solves):
    hs = [16.0 / n for n in (16, 32, 64)]
    errs = [rel_error(xfem_solves[n]["k"], K_REF) for n in (16, 32, 64)]
    slope_x = fit_slope(hs, errs)
    ok_x = abs(slope_x - 2.0) <= 0.4
    p1_errs = []
    for n in (16, 32, 64):
        system, _ = hashin_system(n, mode="p1")
        k_eff, _ = bulk_modulus_hydrostatic(system, SolverConfig("lcg", TOL, 300))
        p1_errs.append(rel_error(k_eff, K_REF))
    slope_p1 = fit_slope(hs, p1_errs)
    ok_p1 = abs(slope_p1 - 1.0) <= 0.3
    detail = (
        f"enriched slope {slope_x:.2f} (want 2.0 +/- 0.4, errors "
        + "/".join(f"{e:.2e}" for e in errs)
        + f"), plain slope {slope_p1:.2f} (want 1.0 +/- 0.3)"
    )
    assert report(2, ok_x and ok_p1, detail)


def test_criterion_3_iteration_counts(xfem_solves):
    counts = [xfem_solves[n]["res"].iterations for n in (16, 32, 64)]
    ok = all(24 <= c <= 36 for c in counts) and max(counts) - min(counts) <= 5
    assert report(3, ok, f"lcg iterations at N=16/32/64: {counts}, spread {max(counts)-min(counts)}")


def test_criterion_4_contrast_trend():
    kappas = (10.0, 100.0, 1000.0)
    its = []
    for kappa in kappas:
        system, _ = hashin_system(
            32, inclusion_young=1.212036 * kappa
        )
        _, res = bulk_modulus_hydrostatic(system, SolverConfig("lcg", TOL, 3000))
        assert res.converged
        its.append(res.iterations)
    slope = float(np.polyfit(np.log(kappas), np.log(its), 1)[0])
    ok = abs(slope - 0.5) <= 0.2
    assert report(4, ok, f"iterations {its} for contrast {kappas}, slope {slope:.2f}")


def test_criterion_5_solver_cross_validation(xfem_solves):
    # (a) lcg/bb/ncg agree on <sigma> at N=16, tol 1e-9
    system = xfem_solves[16]["system"]
    sigmas = {}
    for scheme, maxit in (("lcg", 400), ("bb", 4000), ("ncg", 2000)):
        r = run_scheme(system, SolverConfig(scheme, 1e-9, maxit), EPS_HYDRO)
        assert r.converged, scheme
        sigmas[scheme] = r.sigma
    dev = max(
        np.linalg.norm(sigmas[s] - sigmas["lcg"]) / np.linalg.norm(sigmas["lcg"])
        for s in ("bb", "ncg")
    )
    ok_agree = dev < 1e-5
    # (b) lcg matches a dense direct solve on an N=4 cut-plane problem
    assembly = PhaseAssembly([Region(Plane((3.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    mats = [MaterialIso(2.0, 0.3), MaterialIso(1.0, 0.2)]
    sys4 = build_system(assembly, Grid((4, 4, 4), (16.0,) * 3), mats)
    a, bmat = dense_system(sys4, assembly)
    direct, *_ = np.linalg.lstsq(a, -bmat @ EPS_HYDRO, rcond=None)
    res4 = run_scheme(sys4, SolverConfig("lcg", 1e-13, 500), EPS_HYDRO)
    dense_dev = np.abs(flatten_dofs(res4.u) - direct).max() / np.abs(direct).max()
    ok_dense = dense_dev < 1e-9
    # (c) iteration-count ordering basic > bb > ncg >= lcg at N=32
    sys32 = xfem_solves[32]["system"]
    counts = {}
    for scheme, maxit in (("lcg", 400), ("ncg", 2000), ("bb", 4000), ("basic", 8000)):
        r = run_scheme(sys32, SolverConfig(scheme, TOL, maxit), EPS_HYDRO)
        assert r.converged, scheme
        counts[scheme] = r.iterations
    ok_order = counts["basic"] > counts["bb"] > counts["ncg"] >= counts["lcg"]
    detail = (
        f"scheme agreement {dev:.1e} (<1e-5), dense-solve deviation "
        f"{dense_dev:.1e} (<1e-9), N=32 iterations {counts}"
    )
    assert report(5, ok_agree and ok_dense and ok_order, detail)


def test_criterion_6_property_suite(xfem_solves):
    rng = np.random.default_rng(0)
    checks = []

    # quadrature weights sum to element volumes
    verts = rng.uniform(-1, 1, (4, 3))
    verts[0] = 0
    _, w = shunn_ham_4(verts)
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    checks.append(("weights sum", np.isclose(w.sum(), vol, rtol=1e-13)))

    # degree-2 monomial exactness of the 4-point rule
    ref = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    q, w = shunn_ham_4(ref)
    ok = all(
        np.isclose(
            np.sum(w * q[:, 0] ** a * q[:, 1] ** b * q[:, 2] ** c),
            simplex_monomial(a, b, c),
            rtol=1e-13,
            atol=1e-17,
        )
        for a, b, c in itertools.product(range(3), repeat=3)
        if a + b + c <= 2
    )
    checks.append(("degree-2 exactness", ok))

    # subtet volume conservation for all 16 sign patterns
    ok = True
    for code in range(16):
        lev = rng.uniform(0.2, 1.5, 4)
        for i in range(4):
            if not code >> i & 1:
                lev[i] *= -1
        subs = cut_tet(ref, lev)
        ok &= np.isclose(sum(s.volume for s in subs), 1.0 / 6.0, rtol=1e-13)
    checks.append(("subtet volume conservation", ok))

    # rho == 0 on uncut elements and at all nodes (exact)
    lev_uncut = np.array([0.4, 1.0, 0.2, 0.9])
    lev_cut = np.array([-0.5, 1.0, 0.2, 0.9])
    ok = all(
        modified_abs(lev_uncut, ref, lam @ ref)[0] == 0.0
        for lam in np.vstack([np.eye(4), rng.dirichlet(np.ones(4), 5)])
    )
    ok &= all(abs(modified_abs(lev_cut, ref, ref[i])[0]) < 1e-15 for i in range(4))
    checks.append(("enrichment vanishes uncut/nodes", ok))

    # internal scaling: gradient norm 1 per enriched dof, recomputed through
    # the quadrature of the built caches
    system = xfem_solves[16]["system"]
    c = system.caches
    alive = c.scale > 0
    norms = np.zeros_like(c.d0)
    from xfft.mesh import tet_vertices

    for e in range(c.n_cut):
        verts_e = tet_vertices(system.topo, system.grid, int(c.cut_ttype[e]))
        for _, wq, _, gx, _ in enrichment_quadrature(verts_e, c.cut_levels[e]):
            cols = sym_grad_cols(gx) * c.cut_scale[e][None, :, None, :]
            norms[c.cut_enr[e]] += np.einsum("q,qjca->ja", wq, cols**2)
    ok = np.allclose(norms[alive], 1.0, rtol=1e-12)
    checks.append(("scaled gradient norms == 1", ok))

    # A_e symmetry / PSD on sampled cut elements
    ok = True
    for e in rng.choice(c.n_cut, 10, replace=False):
        ae = c.cut_a[e]
        ok &= np.allclose(ae, ae.T, rtol=1e-13)
        ev = np.linalg.eigvalsh(ae)
        ok &= ev[0] >= -1e-10 * abs(ev[-1])
    checks.append(("element matrices symmetric PSD", ok))

    # preconditioner round trip on mean-free fields
    grid8 = Grid((8, 8, 8), (16.0,) * 3)
    topo = build_topology()
    sys8, _ = hashin_system(8)
    v = rng.standard_normal((8, 8, 8, 3))
    v -= v.mean(axis=(0, 1, 2))
    z = apply_preconditioner(sys8.symbol, apply_stencil(grid8, topo, v))
    checks.append(("preconditioner round trip", np.allclose(z, v, rtol=1e-12, atol=1e-12)))

    # residual vs dense assembly on N=4
    assembly = PhaseAssembly([Region(Plane((3.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    mats = [MaterialIso(2.0, 0.3), MaterialIso(1.0, 0.2)]
    sys4 = build_system(assembly, Grid((4, 4, 4), (16.0,) * 3), mats)
    a, bmat = dense_system(sys4, assembly)
    u = sys4.zeros()
    u.grid[:] = rng.standard_normal(u.grid.shape)
    u.enr[:] = rng.standard_normal(u.enr.shape)
    r = sys4.residual(u, EPS_HYDRO)
    r_dense = a @ flatten_dofs(u) + bmat @ EPS_HYDRO
    checks.append(
        (
            "residual vs dense assembly",
            np.allclose(flatten_dofs(r), r_dense, rtol=1e-12, atol=1e-12 * np.abs(r_dense).max()),
        )
    )

    # at most 144 quadrature points per voxel
    max_pts = 6 * 4 * max(len(t) for t in CUT_TEMPLATES.values())
    stored_max = int((c.cut_qw > 0).sum(axis=1).max()) if c.n_cut else 0
    checks.append(("<= 144 quadrature points per voxel", max_pts == 144 and stored_max <= 24))

    ok_all = all(ok for _, ok in checks)
    detail = "; ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks)
    assert report(6, ok_all, detail)


def hydrostatic_stiffness(k):
    """6x6 whose hydrostatic quadratic form eps:C:eps equals 9k."""
    c = np.zeros((6, 6))
    c[:3, :3] = k
    return c


def test_criterion_7_energy_bound_oracle(xfem_solves, reference128):
    sys_ref, k_ref = reference128["system"], reference128["k"]
    u_ref = reference128["res"].u
    sys16 = xfem_solves[16]["system"]
    err16 = strain_error(sys16, xfem_solves[16]["res"].u, sys_ref, u_ref, EPS_HYDRO)
    ok_bound, lo, mid, up = energy_bound_check(
        hydrostatic_stiffness(xfem_solves[16]["k"]),
        hydrostatic_stiffness(k_ref),
        err16.mean_square,
        EPS_HYDRO,
        sys16.c_minus,
        sys16.c_plus,
        slack=0.1,
    )
    # effective-error slope ~ 2x local-error slope (N=16, 32 vs reference)
    err32 = strain_error(
        xfem_solves[32]["system"],
        xfem_solves[32]["res"].u,
        sys_ref,
        u_ref,
        EPS_HYDRO,
    )
    e_eff = [abs(9.0 * (xfem_solves[n]["k"] - k_ref)) for n in (16, 32)]
    e_loc = [err16.abs_l2, err32.abs_l2]
    s_eff = np.log(e_eff[0] / e_eff[1]) / np.log(2.0)
    s_loc = np.log(e_loc[0] / e_loc[1]) / np.log(2.0)
    ok_coupling = abs(s_eff - 2.0 * s_loc) <= 0.4
    detail = (
        f"bound {lo:.3e} <= {mid:.3e} <= {up:.3e} (10% slack): "
        f"{'ok' if ok_bound else 'FAIL'}; slopes eff {s_eff:.2f} vs 2x local "
        f"{2 * s_loc:.2f}: {'ok' if ok_coupling else 'FAIL'}"
    )
    assert report(7, ok_bound and ok_coupling, detail)


def test_criterion_8_laminate_golden():
    assembly, mats, lengths = laminate_cell()
    ref = laminate_cell_reference(mats)
    worst = 0.0
    for n in (4, 8):
        system = build_system(assembly, Grid((n,) * 3, lengths), mats)
        eff = effective_stiffness(system, SolverConfig("lcg", 1e-12, 500))
        assert eff.converged
        worst = max(worst, float(np.abs(eff.stiffness - ref).max() / np.abs(ref).max()))
    ok = worst < 1e-8
    assert report(8, ok, f"laminate effective stiffness max rel error {worst:.2e} (<1e-8)")
