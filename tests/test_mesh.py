import numpy as np
import pytest
from helpers import node_id, point_in_tet

from xfft.mesh import (
    CORNER_OFFSETS,
    Grid,
    build_topology,
    corner_nodes,
    detect_enrichment,
    tet_vertices,
)
from xfft.microstructure import PhaseAssembly, Plane, Region, Sphere, sample_nodal

LENGTHS = (16.0, 16.0, 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((1, 4, 4), LENGTHS)
    with pytest.raises(ValueError):
        Grid((4, 4, 4), (0.0, 1.0, 1.0))
    g = Grid((4, 8, 16), (16.0, 16.0, 16.0))
    assert g.h == (4.0, 2.0, 1.0)
    assert g.n_nodes == 4 * 8 * 16


def test_six_tets_volume_and_orientation():
    topo = build_topology()
    grid = Grid((2, 2, 2), (2.0, 2.0, 2.0))  # unit voxels
    total = 0.0
    for t in range(6):
        v = tet_vertices(topo, grid, t)
        signed = np.linalg.det(v[1:] - v[0]) / 6.0
        assert signed > 0  # positively oriented
        assert np.isclose(signed, 1.0 / 6.0, rtol=1e-14)
        total += signed
    assert np.isclose(total, 1.0, rtol=1e-14)


def test_all_tets_share_main_diagonal():
    topo = build_topology()
    for t in range(6):
        offs = [tuple(o) for o in topo.offsets[t]]
        assert (0, 0, 0) in offs
        assert (1, 1, 1) in offs


def test_tets_tile_voxel_monte_carlo():
    topo = build_topology()
    grid = Grid((2, 2, 2), (2.0, 2.0, 2.0))
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.uniform(0.02, 0.98, size=3)
        hits = sum(
            point_in_tet(tet_vertices(topo, grid, t), x, tol=1e-12) for t in range(6)
        )
        assert hits >= 1
        # interior points away from shared faces land in exactly one tet
        if len(set(np.round(np.sort(x), 6))) == 3:
            assert hits == 1


def test_tet_region_matches_coordinate_ordering():
    # tet t covers xi_{p0} >= xi_{p1} >= xi_{p2}
    topo = build_topology()
    grid = Grid((2, 2, 2), (2.0, 2.0, 2.0))
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.uniform(0.01, 0.99, size=3)
        order = tuple(np.argsort(-x, kind="stable"))
        t = topo.perms.index(order)
        assert point_in_tet(tet_vertices(topo, grid, t), x, tol=1e-9)


def test_detect_enrichment_homogeneous_empty():
    grid = Grid((4, 4, 4), LENGTHS)
    topo = build_topology()
    nodal = np.full((1, 4, 4, 4), 3.0)  # single sign everywhere
    layout = detect_enrichment(nodal, topo, grid)
    assert layout.n_x == 0
    assert np.all(layout.cut_region == -1)
    assert layout.n_dofs == 3 * grid.n_nodes


def test_detect_enrichment_midplane_two_node_layers():
    # plane between node layers at x = 0.5 l1 / N=4: layers 2 and 3 enriched
    # (and the conjugate interface at x = 0 enriches layers 0 and 3 -> wrap)
    a = PhaseAssembly([Region(Plane((6.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    grid = Grid((4, 4, 4), LENGTHS)  # h = 4; interfaces at x=6 and x=14
    topo = build_topology()
    nodal = sample_nodal(a, grid)
    layout = detect_enrichment(nodal, topo, grid)
    enriched_layers = sorted(set(np.argwhere(layout.enr_index >= 0)[:, 0]))
    # x=6 lies between layers 1,2; x=14 between layers 3,0
    assert enriched_layers == [0, 1, 2, 3]
    per_layer = [(layout.enr_index[i] >= 0).all() for i in range(4)]
    assert all(per_layer)
    # exactly the two voxel layers containing the interfaces are cut
    cut_any = (layout.cut_region >= 0).any(axis=0)
    assert sorted(set(np.argwhere(cut_any)[:, 0])) == [1, 3]


def test_detect_enrichment_hashin_counts():
    from xfft.homogenize import hashin_cell

    assembly, _, lengths = hashin_cell()
    grid = Grid((16, 16, 16), lengths)
    topo = build_topology()
    nodal = sample_nodal(assembly, grid)
    layout = detect_enrichment(nodal, topo, grid)
    assert layout.n_x > 0
    assert layout.n_x < 0.5 * grid.n_nodes  # enriched set much smaller than I


def test_detect_enrichment_idempotent_deterministic():
    from xfft.homogenize import hashin_cell

    assembly, _, lengths = hashin_cell()
    grid = Grid((8, 8, 8), lengths)
    topo = build_topology()
    nodal = sample_nodal(assembly, grid)
    a = detect_enrichment(nodal, topo, grid)
    b = detect_enrichment(nodal, topo, grid)
    assert np.array_equal(a.enr_index, b.enr_index)
    assert np.array_equal(a.cut_region, b.cut_region)


def test_cut_element_nodes_all_enriched():
    from xfft.homogenize import hashin_cell

    assembly, _, lengths = hashin_cell()
    grid = Grid((8, 8, 8), lengths)
    topo = build_topology()
    nodal = sample_nodal(assembly, grid)
    layout = detect_enrichment(nodal, topo, grid)
    enr = layout.enr_index
    for t in range(6):
        for idx in np.argwhere(layout.cut_region[t] >= 0):
            for o in topo.offsets[t]:
                node = (idx + o) % np.array(grid.n)
                assert enr[tuple(node)] >= 0


def test_gather_scatter_round_trip():
    # scatter(gather(u)) sums each grid dof once per incident element slot
    from xfft.homogenize import hashin_system

    system, _ = hashin_system(4, store_quadrature=False)
    rng = np.random.default_rng(3)
    u = system.zeros()
    u.grid[:] = rng.standard_normal(u.grid.shape)
    acc = np.zeros_like(u.grid)
    for t in range(6):
        ue = system._gather(u.grid, t)
        system._scatter(acc, t, ue)
    # every node appears in 6 tets x 4 slots = 24 slots per voxel incidence;
    # with the shared corner table each node collects exactly 24 copies
    assert np.allclose(acc, 24.0 * u.grid, rtol=1e-13)


def test_corner_nodes_match_independent_node_ids():
    # a grid with three different axis lengths catches swapped or
    # unwrapped axes
    grid = Grid((4, 5, 6), (4.0, 5.0, 6.0))
    topo = build_topology()
    voxels = np.indices(grid.n).reshape(3, -1).T
    shared = corner_nodes(voxels, CORNER_OFFSETS, grid.n)
    ttype = np.arange(len(voxels)) % 6
    per_tet = corner_nodes(voxels, topo.offsets[ttype], grid.n)
    assert shared.shape == (len(voxels), 8) and per_tet.shape == (len(voxels), 4)
    for v, (i, j, k) in enumerate(voxels):
        assert list(shared[v]) == [
            node_id(i + a, j + b, k + c, grid.n) for a, b, c in CORNER_OFFSETS
        ]
        assert list(per_tet[v]) == [
            node_id(i + a, j + b, k + c, grid.n) for a, b, c in topo.offsets[ttype[v]]
        ]


def test_gather_reads_independent_node_ids():
    from xfft.solver import build_system
    from xfft.voigt import MaterialIso

    grid = Grid((4, 5, 6), (4.0, 5.0, 6.0))
    system = build_system(PhaseAssembly([], 0), grid, [MaterialIso(1.0, 0.3)])
    u = system.zeros()
    u.grid[:] = 3 * np.arange(grid.n_nodes).reshape(grid.n)[..., None] + np.arange(3)
    for t in range(6):
        ue = system._gather(u.grid, t)
        for i, j, k in np.ndindex(*grid.n):
            want = [
                3 * node_id(i + a, j + b, k + c, grid.n) + comp
                for a, b, c in system.topo.offsets[t]
                for comp in range(3)
            ]
            assert list(ue[i, j, k]) == want


def test_multi_interface_elements_detected():
    # two spheres so close that single tets see both interfaces
    a = PhaseAssembly(
        [
            Region(Sphere((6.0, 8.0, 8.0), 2.2), 1, 0),
            Region(Sphere((10.6, 8.0, 8.0), 2.2), 2, 0),
        ],
        0,
    )
    grid = Grid((8, 8, 8), LENGTHS)  # h = 2: gap between spheres ~ 0.2 < h
    topo = build_topology()
    nodal = sample_nodal(a, grid)
    layout = detect_enrichment(nodal, topo, grid)
    assert layout.n_multi_interface > 0
    assert np.all(layout.cut_region[layout.cut_region < -2] == -1)
