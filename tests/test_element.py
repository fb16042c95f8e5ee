import itertools

import numpy as np
import pytest
from helpers import deg3_quadrature, point_in_tet, simplex_monomial
from hypothesis import given, settings, strategies as st

from xfft.element import (
    CUT_TEMPLATES,
    SH_BARY,
    assemble_enriched,
    assemble_plain,
    b_matrix,
    barycentric,
    cut_tet,
    d0_element,
    enrichment_quadrature,
    modified_abs,
    p1_grads,
    shunn_ham_4,
    sym_grad_cols,
)
from xfft.voigt import MaterialIso, iso_stiffness, mandel_to_tensor

REF_TET = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])


def rand_tet(rng, scale=1.0):
    while True:
        v = rng.uniform(-1, 1, size=(4, 3)) * scale
        if abs(np.linalg.det(v[1:] - v[0])) > 0.05 * scale**3:
            return v


def mixed_levels(rng, code):
    lev = rng.uniform(0.2, 1.5, size=4)
    for i in range(4):
        if not code >> i & 1:
            lev[i] *= -1.0
    return lev


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------


def test_p1_grads_reference_tet():
    g = p1_grads(REF_TET)
    assert np.allclose(g[0], [-1.0, -1.0, -1.0])
    assert np.allclose(g[1:], np.eye(3))


def test_p1_grads_partition_of_unity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = p1_grads(rand_tet(rng))
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)


def test_p1_grads_kronecker_property_finite_difference():
    # independent oracle: N_i(x_j) = delta_ij and the gradient matches a
    # finite-difference derivative of the barycentric interpolant
    rng = np.random.default_rng(1)
    verts = rand_tet(rng)
    g = p1_grads(verts)
    lam = barycentric(verts, verts)
    assert np.allclose(lam, np.eye(4), atol=1e-12)
    x0 = verts.mean(axis=0)
    eps = 1e-6
    for i in range(4):
        for d in range(3):
            dx = np.zeros(3)
            dx[d] = eps
            fd = (
                barycentric(verts, x0 + dx)[i] - barycentric(verts, x0 - dx)[i]
            ) / (2 * eps)
            assert np.isclose(fd, g[i, d], rtol=1e-6, atol=1e-8)


def test_p1_grads_scale_inversely_with_edge_length():
    g1 = p1_grads(REF_TET)
    for h in (0.25, 2.0, 7.5):
        gh = p1_grads(REF_TET * h)
        assert np.allclose(gh, g1 / h, rtol=1e-12)


def test_p1_grads_degenerate_rejected():
    flat = REF_TET.copy()
    flat[3] = [0.5, 0.5, 0.0]
    with pytest.raises(ValueError):
        p1_grads(flat)


def test_sym_grad_cols_matches_tensor_definition():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.standard_normal(3)
        cols = sym_grad_cols(g)
        for c in range(3):
            e = np.zeros(3)
            e[c] = 1.0
            sym = 0.5 * (np.outer(e, g) + np.outer(g, e))
            assert np.allclose(mandel_to_tensor(cols[:, c]), sym, atol=1e-14)


# ---------------------------------------------------------------------------
# modified abs enrichment
# ---------------------------------------------------------------------------


def test_modified_abs_zero_on_uncut():
    rng = np.random.default_rng(3)
    verts = rand_tet(rng)
    levels = np.array([0.3, 1.2, 0.7, 2.0])
    for _ in range(20):
        lam = rng.dirichlet(np.ones(4))
        x = lam @ verts
        val, grad = modified_abs(levels, verts, x)
        assert abs(val) < 1e-14
        assert np.allclose(grad, 0.0, atol=1e-12)


def test_modified_abs_zero_at_nodes():
    rng = np.random.default_rng(4)
    verts = rand_tet(rng)
    levels = np.array([-0.8, 0.5, 1.1, -0.2])
    for i in range(4):
        val, _ = modified_abs(levels, verts, verts[i])
        assert abs(val) < 1e-13


def test_modified_abs_barycenter_hand_value():
    # nodal L = (-1, 1, 1, 1): rho(center) = 1 - |1/2| = 1/2
    levels = np.array([-1.0, 1.0, 1.0, 1.0])
    center = REF_TET.mean(axis=0)
    val, _ = modified_abs(levels, REF_TET, center)
    assert np.isclose(val, 0.5, rtol=1e-14)


def test_modified_abs_gradient_is_side_restricted():
    # finite differences on one side of the cut match the returned gradient
    levels = np.array([-1.0, 1.0, 1.0, 1.0])
    x = np.array([0.6, 0.2, 0.1])  # on the positive side
    val, grad = modified_abs(levels, REF_TET, x)
    eps = 1e-7
    for d in range(3):
        dx = np.zeros(3)
        dx[d] = eps
        vp, _ = modified_abs(levels, REF_TET, x + dx)
        vm, _ = modified_abs(levels, REF_TET, x - dx)
        assert np.isclose((vp - vm) / (2 * eps), grad[d], rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# cut-tet subdivision
# ---------------------------------------------------------------------------


def test_cut_tet_uncut_returns_parent():
    subs = cut_tet(REF_TET, np.array([1.0, 2.0, 0.5, 0.1]))
    assert len(subs) == 1
    assert subs[0].side == 1
    assert np.isclose(subs[0].volume, 1.0 / 6.0, rtol=1e-14)


@pytest.mark.parametrize("code", range(16))
def test_cut_tet_volume_conservation_all_patterns(code):
    rng = np.random.default_rng(100 + code)
    for _ in range(10):
        verts = rand_tet(rng)
        parent = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        levels = mixed_levels(rng, code)
        subs = cut_tet(verts, levels)
        n_neg = sum(1 for i in range(4) if not code >> i & 1)
        expected = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}[n_neg]
        assert len(subs) == expected
        assert np.isclose(sum(s.volume for s in subs), parent, rtol=1e-13)


@given(
    code=st.integers(1, 14),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_cut_tet_sides_partition_by_interpolated_sign(code, seed):
    # Monte-Carlo oracle: points classified by the sign of the interpolated
    # level set land in a subtet of the same side, and per-side volumes match
    rng = np.random.default_rng(seed)
    verts = rand_tet(rng)
    levels = mixed_levels(rng, code)
    subs = cut_tet(verts, levels)
    pts_lam = rng.dirichlet(np.ones(4), size=400)
    pts = pts_lam @ verts
    signs = np.sign(pts_lam @ levels)
    for x, s in zip(pts, signs):
        hit_sides = [sub.side for sub in subs if point_in_tet(sub.vertices, x, 1e-9)]
        assert hit_sides, "point escaped all subtets"
        if all(abs(lam) > 1e-3 for lam in pts_lam[0]):
            pass
        assert s in hit_sides or any(
            point_in_tet(sub.vertices, x, 1e-6) for sub in subs if sub.side == s
        )


def test_cut_tet_monte_carlo_side_volumes():
    rng = np.random.default_rng(9)
    verts = rand_tet(rng)
    levels = np.array([-0.7, -0.3, 0.9, 0.4])
    subs = cut_tet(verts, levels)
    vol_pos = sum(s.volume for s in subs if s.side > 0)
    parent = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    n = 200_000
    lam = rng.dirichlet(np.ones(4), size=n)
    frac = np.count_nonzero(lam @ levels > 0) / n
    assert np.isclose(vol_pos / parent, frac, atol=0.01)


def test_cut_tet_max_subtets_per_voxel():
    # 6 tets x max 6 subtets = 36 subtets, 144 quadrature points per voxel
    assert max(len(t) for t in CUT_TEMPLATES.values()) == 6
    assert 6 * 6 * 4 == 144


def test_cut_tet_degenerate_sliver_dropped():
    levels = np.array([-1e-14, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cut_tet(REF_TET, np.array([0.0, 1.0, 1.0, 1.0]))
    subs = cut_tet(REF_TET, levels)
    # apex sliver has volume ~1e-42 and is dropped; volume renormalized
    assert sum(1 for s in subs if s.side < 0) == 0
    assert np.isclose(sum(s.volume for s in subs), 1.0 / 6.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_shunn_ham_weights_sum_to_volume():
    rng = np.random.default_rng(10)
    for _ in range(10):
        verts = rand_tet(rng)
        _, w = shunn_ham_4(verts)
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        assert np.isclose(w.sum(), vol, rtol=1e-14)


def test_shunn_ham_centroid_exact():
    rng = np.random.default_rng(11)
    verts = rand_tet(rng)
    q, w = shunn_ham_4(verts)
    vol = w.sum()
    assert np.allclose(w @ q / vol, verts.mean(axis=0), rtol=1e-13)


def test_shunn_ham_degree2_monomials_closed_form():
    q, w = shunn_ham_4(REF_TET)
    for a, b, c in itertools.product(range(3), repeat=3):
        if a + b + c > 2:
            continue
        approx = np.sum(w * q[:, 0] ** a * q[:, 1] ** b * q[:, 2] ** c)
        assert np.isclose(approx, simplex_monomial(a, b, c), rtol=1e-14, atol=1e-16)


def test_deg3_oracle_rule_is_degree3():
    # self-validate the independent degree-3 rule used below
    q, w = deg3_quadrature(REF_TET)
    for a, b, c in itertools.product(range(4), repeat=3):
        if a + b + c > 3:
            continue
        approx = np.sum(w * q[:, 0] ** a * q[:, 1] ** b * q[:, 2] ** c)
        assert np.isclose(approx, simplex_monomial(a, b, c), rtol=1e-13, atol=1e-16)


# ---------------------------------------------------------------------------
# element assembly
# ---------------------------------------------------------------------------


def test_assemble_plain_matches_closed_form():
    rng = np.random.default_rng(12)
    c = iso_stiffness(MaterialIso(1.5, 0.25))
    for _ in range(10):
        verts = rand_tet(rng)
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        b = b_matrix(p1_grads(verts))
        mats = assemble_plain(verts, c)
        assert np.allclose(mats.a, vol * b.T @ c @ b, rtol=1e-13)
        assert np.allclose(mats.bfac, vol * b.T @ c, rtol=1e-13)
        assert np.allclose(mats.cv, vol * c, rtol=1e-14)


def test_assemble_plain_rigid_translation_in_kernel():
    rng = np.random.default_rng(13)
    c = iso_stiffness(MaterialIso(2.0, 0.3))
    mats = assemble_plain(rand_tet(rng), c)
    for comp in range(3):
        u = np.zeros(12)
        u[comp::3] = 1.0
        assert np.allclose(mats.a @ u, 0.0, atol=1e-13)


def enriched_fixture(rng, code=0b1110):
    verts = rand_tet(rng)
    levels = mixed_levels(rng, code)
    scale = 1.0 / np.sqrt(d0_element(verts, levels))
    cp = iso_stiffness(MaterialIso(3.0, 0.25))
    cm = iso_stiffness(MaterialIso(1.0, 0.2))
    return verts, levels, scale, cp, cm


def test_assemble_enriched_equal_materials_keeps_fe_block():
    rng = np.random.default_rng(14)
    verts, levels, scale, cp, _ = enriched_fixture(rng)
    mats = assemble_enriched(verts, levels, cp, cp, scale)
    plain = assemble_plain(verts, cp)
    assert np.allclose(mats.a[:12, :12], plain.a, rtol=1e-12)
    assert np.allclose(mats.bfac[:12], plain.bfac, rtol=1e-12)


def test_assemble_enriched_rigid_translation():
    rng = np.random.default_rng(15)
    verts, levels, scale, cp, cm = enriched_fixture(rng, code=0b0110)
    mats = assemble_enriched(verts, levels, cp, cm, scale)
    for comp in range(3):
        u = np.zeros(24)
        u[comp:12:3] = 1.0  # constant FE, zero enriched
        assert np.allclose(mats.a @ u, 0.0, atol=1e-12 * np.abs(mats.a).max())


def test_assemble_enriched_symmetric_psd():
    rng = np.random.default_rng(16)
    for code in (0b0001, 0b0011, 0b0111):
        verts, levels, scale, cp, cm = enriched_fixture(rng, code)
        mats = assemble_enriched(verts, levels, cp, cm, scale)
        assert np.allclose(mats.a, mats.a.T, rtol=1e-13)
        ev = np.linalg.eigvalsh(mats.a)
        assert ev[0] >= -1e-10 * abs(ev[-1])


def test_assemble_enriched_4pt_equals_degree3_rule():
    # exact-integration property: the integrand is quadratic per subtet
    rng = np.random.default_rng(17)
    verts, levels, scale, cp, cm = enriched_fixture(rng, code=0b0101)
    mats = assemble_enriched(verts, levels, cp, cm, scale)
    grads = p1_grads(verts)
    a3 = np.zeros((24, 24))
    for sub in cut_tet(verts, levels):
        q, w = deg3_quadrature(sub.vertices)
        w *= sub.volume / (abs(np.linalg.det(sub.vertices[1:] - sub.vertices[0])) / 6.0)
        lam = barycentric(verts, q)
        coef = np.abs(levels) - sub.side * levels
        rho = lam @ coef
        grho = grads.T @ coef
        gx = rho[:, None, None] * grads[None] + lam[..., None] * grho[None, None]
        cols = sym_grad_cols(gx) * scale[None, :, None, :]
        bx = cols.transpose(0, 2, 1, 3).reshape(len(q), 6, 12)
        bfe = b_matrix(grads)
        b = np.concatenate([np.broadcast_to(bfe, (len(q), 6, 12)), bx], axis=2)
        c = cp if sub.side > 0 else cm
        a3 += np.einsum("q,qci,cd,qdj->ij", w, b, c, b)
    assert np.allclose(mats.a, a3, rtol=1e-12, atol=1e-13 * np.abs(mats.a).max())


def test_scaling_identity_half_gradsq_plus_half_component():
    # |sym(e_a (x) g)|^2 == |g|^2/2 + g_a^2/2, checked via the Mandel columns
    rng = np.random.default_rng(18)
    for _ in range(50):
        g = rng.standard_normal(3)
        cols = sym_grad_cols(g)
        for a in range(3):
            assert np.isclose(
                cols[:, a] @ cols[:, a], 0.5 * g @ g + 0.5 * g[a] ** 2, rtol=1e-13
            )


def test_d0_scaling_normalizes_gradient_norm():
    # after scaling, the L2 norm of each enriched column equals one;
    # recomputed through the assembled B columns with unit stiffness
    rng = np.random.default_rng(19)
    verts, levels, scale, _, _ = enriched_fixture(rng, code=0b1000)
    mats = assemble_enriched(verts, levels, np.eye(6), np.eye(6), scale)
    # diagonal of the enriched block of A with C = identity is the squared
    # symmetrized-gradient norm of the scaled functions
    diag = np.diag(mats.a)[12:]
    assert np.allclose(diag, 1.0, rtol=1e-12)


def test_d0_symmetry_for_mirror_levels():
    # symmetric cut: mirrored nodal levels give mirrored scaling integrals
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    lev = np.array([-0.5, 0.5, -0.5, -0.5])
    d = d0_element(verts, lev)
    d_swapped = d0_element(verts[[1, 0, 3, 2]][:, [0, 1, 2]] * [-1, 1, 1] + [1, 0, 0],
                           lev[[1, 0, 3, 2]])
    assert np.allclose(np.sort(d.ravel()), np.sort(d_swapped.ravel()), rtol=1e-12)


def test_enrichment_vanishes_on_uncut_shared_facets():
    # rho = 0 on facets where the level set does not change sign
    rng = np.random.default_rng(20)
    verts = rand_tet(rng)
    levels = np.array([-1.0, 0.8, 0.6, 0.9])  # facet (1,2,3) is uncut
    for _ in range(20):
        lam = np.zeros(4)
        lam[1:] = rng.dirichlet(np.ones(3))
        x = lam @ verts
        val, _ = modified_abs(levels, verts, x)
        assert abs(val) < 1e-13


def test_quadrature_weights_cover_voxel_any_pattern():
    # union of quadrature weights over a voxel equals the voxel volume
    from xfft.homogenize import hashin_system

    system, _ = hashin_system(8, store_quadrature=True)
    c = system.caches
    vol_voxel = float(np.prod(system.grid.h))
    cut_map = c.slot_map("cut")
    mi_map = c.slot_map("mi")
    # pick voxels with at least one cut tet
    cut_vox = np.argwhere((cut_map >= 0).any(axis=0))
    rng = np.random.default_rng(21)
    for idx in rng.choice(len(cut_vox), size=min(20, len(cut_vox)), replace=False):
        i, j, k = cut_vox[idx]
        total = 0.0
        for t in range(6):
            cs = cut_map[t, i, j, k]
            ms = mi_map[t, i, j, k]
            if cs >= 0:
                total += c.cut_qw[cs].sum()
            elif ms >= 0:
                total += c.mi_qw[ms].sum()
            else:
                total += c.tet_volume
        assert np.isclose(total, vol_voxel, rtol=1e-13)


def test_vectorized_caches_match_reference_elements():
    from helpers import element_matrices_reference
    from xfft.homogenize import hashin_cell, hashin_system

    assembly, _, _ = hashin_cell()
    system, _ = hashin_system(8, store_quadrature=False)
    c = system.caches
    rng = np.random.default_rng(22)
    for e in rng.choice(c.n_cut, size=10, replace=False):
        t, vox = int(c.cut_ttype[e]), tuple(c.cut_voxel[e])
        a_ref, bfac_ref, _, _ = element_matrices_reference(system, assembly, t, vox)
        assert np.allclose(c.cut_a[e], a_ref, rtol=1e-12, atol=1e-13 * np.abs(a_ref).max())
        assert np.allclose(c.cut_bfac[e], bfac_ref, rtol=1e-12, atol=1e-13)


def test_cut_kernel_matches_reference_every_pattern():
    # the block-structured chunk kernel against the per-element reference,
    # for every tet type and sign pattern, with distinct stiffnesses per side
    from xfft.element import _cut_matrices
    from xfft.mesh import Grid, build_topology, tet_vertices

    grid = Grid((4, 5, 6), (2.0, 3.0, 4.5))
    topo = build_topology()
    vol_tet = float(np.prod(grid.h)) / 6.0
    rng = np.random.default_rng(23)

    def spd(m):
        r = rng.standard_normal((m, 6, 6))
        return r @ r.transpose(0, 2, 1) + 6.0 * np.eye(6)

    m = 3
    for t in range(6):
        verts = tet_vertices(topo, grid, t)
        grads = p1_grads(verts)
        for code in range(1, 15):
            levels = np.array([mixed_levels(rng, code) for _ in range(m)])
            c_plus, c_minus = spd(m), spd(m)
            a, bfac, cv, d0, _, _ = _cut_matrices(
                levels, grads, b_matrix(grads), CUT_TEMPLATES[code], c_plus, c_minus, vol_tet
            )
            for e in range(m):
                ref = assemble_enriched(verts, levels[e], c_plus[e], c_minus[e], np.ones((4, 3)))
                d0_ref = d0_element(verts, levels[e])
                for got, want in ((a[e], ref.a), (bfac[e], ref.bfac), (cv[e], ref.cv), (d0[e], d0_ref)):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (t, code)


def test_cut_kernel_matches_reference_on_sliver_subtets():
    # a level within 1e-14 of zero at one node leaves subtets below
    # DEGENERATE_REL_VOLUME, which both the chunk kernel and the reference
    # drop before renormalizing the rest; every order of the levels, with
    # both signs, reaches every sign pattern.  Keeping the slivers moves
    # the matrices by ~1e-13 of their size, so the bound is tighter than in
    # the test above
    from xfft.element import _cut_matrices
    from xfft.mesh import Grid, build_topology, tet_vertices

    grid = Grid((4, 5, 6), (2.0, 3.0, 4.5))
    topo = build_topology()
    vol_tet = float(np.prod(grid.h)) / 6.0
    rng = np.random.default_rng(24)
    levels = np.array(
        [
            sign * np.array(base)[list(perm)]
            for base in ([1e-14, -1.0, -0.7, -0.4], [0.3, -1e-15, 0.8, -0.6])
            for perm in itertools.permutations(range(4))
            for sign in (1.0, -1.0)
        ]
    )
    codes = ((levels > 0) << np.arange(4)).sum(axis=1)
    c_plus, c_minus = rng.standard_normal((2, len(levels), 6, 6))
    c_plus = c_plus @ c_plus.transpose(0, 2, 1) + 6.0 * np.eye(6)
    c_minus = c_minus @ c_minus.transpose(0, 2, 1) + 6.0 * np.eye(6)
    dropped = 0
    for t in range(6):
        verts = tet_vertices(topo, grid, t)
        grads = p1_grads(verts)
        for code in np.unique(codes):
            sel = np.nonzero(codes == code)[0]
            a, bfac, cv, d0, _, _ = _cut_matrices(
                levels[sel], grads, b_matrix(grads), CUT_TEMPLATES[code],
                c_plus[sel], c_minus[sel], vol_tet,
            )
            for k, e in enumerate(sel):
                dropped += len(CUT_TEMPLATES[code]) - len(cut_tet(verts, levels[e]))
                ref = assemble_enriched(verts, levels[e], c_plus[e], c_minus[e], np.ones((4, 3)))
                d0_ref = d0_element(verts, levels[e])
                for got, want in ((a[k], ref.a), (bfac[k], ref.bfac), (cv[k], ref.cv), (d0[k], d0_ref)):
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (t, code)
    assert len(np.unique(codes)) == 14 and dropped > 0


def test_caches_hold_no_cut_element_matrix_until_asked():
    from xfft.homogenize import hashin_system

    system, _ = hashin_system(8)
    c = system.caches
    held = [v for v in vars(c).values() if isinstance(v, np.ndarray)]
    held += c._derived.values()
    shapes = {a.shape for a in held}
    assert c.n_cut and not {(c.n_cut, 24, 24), (c.n_cut, 24, 6)} & shapes
    before = c.nbytes
    a, bfac = c.cut_a, c.cut_bfac
    assert a.shape == (c.n_cut, 24, 24) and bfac.shape == (c.n_cut, 24, 6)
    assert c.nbytes == before + a.nbytes + bfac.nbytes
    assert c.cut_a is a  # kept, not recomputed


def test_nbytes_counts_slot_maps():
    from xfft.homogenize import hashin_system

    system, _ = hashin_system(8)
    c = system.caches
    before = c.nbytes
    m = c.slot_map("cut")
    assert m.nbytes > 0 and c.nbytes == before + m.nbytes
    assert c.slot_map("cut") is m  # kept, not recomputed
