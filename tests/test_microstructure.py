import numpy as np
import pytest

from xfft.mesh import Grid, build_topology
from xfft.microstructure import (
    PhaseAssembly,
    Plane,
    Region,
    SNAP_ETA,
    Sphere,
    SphereUnion,
    sample_nodal,
)

LENGTHS = (16.0, 16.0, 16.0)


def coated_sphere_assembly():
    c = (8.0, 8.0, 8.0)
    return PhaseAssembly(
        regions=[
            Region(Sphere(c, 6.0 * np.e / 5.0), inside_phase=2, outside_phase=1),
            Region(Sphere(c, 2.0 * np.pi), inside_phase=1, outside_phase=0),
        ],
        background=0,
    )


def test_sphere_center_distance():
    s = Sphere((8.0, 8.0, 8.0), 2.0 * np.pi)
    assert np.isclose(s.distance(np.array([8.0, 8.0, 8.0]), LENGTHS), 2.0 * np.pi)


def test_plane_axis_distance():
    p = Plane(point=(0.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0))
    assert np.isclose(p.distance(np.array([3.0, 5.0, 7.0]), LENGTHS), 3.0)


def test_sphere_negative_distance():
    c = np.array([8.0, 8.0, 8.0])
    x = c + np.array([7.0, 0.0, 0.0])
    s = Sphere(tuple(c), 2.0 * np.pi)
    assert np.isclose(s.distance(x, LENGTHS), 2.0 * np.pi - 7.0)


def test_sphere_periodic_minimum_image():
    s = Sphere((15.5, 8.0, 8.0), 2.0)
    # point across the seam: true distance via the periodic image
    assert np.isclose(s.distance(np.array([0.5, 8.0, 8.0]), LENGTHS), 1.0)


def test_sphere_union_is_max_of_members():
    u = SphereUnion((Sphere((4.0, 8, 8), 2.0), Sphere((10.0, 8, 8), 3.0)))
    x = np.array([7.0, 8.0, 8.0])
    assert np.isclose(u.distance(x, LENGTHS), max(2.0 - 3.0, 3.0 - 3.0))


def test_plane_conjugate_interface_and_continuity():
    # a single plane in a periodic cell bounds a half-period slab
    p = Plane(point=(0.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0))
    xs = np.linspace(0.0, 16.0, 1601, endpoint=False)
    pts = np.zeros((len(xs), 3))
    pts[:, 0] = xs
    vals = p.distance(pts, LENGTHS)
    # inside (0, 8): positive; (8, 16): negative
    assert np.all(vals[(xs > 0.01) & (xs < 7.99)] > 0)
    assert np.all(vals[(xs > 8.01) & (xs < 15.99)] < 0)
    # |L| equals the distance to the nearest interface near both interfaces
    assert np.isclose(p.distance(np.array([0.5, 1, 1]), LENGTHS), 0.5)
    assert np.isclose(p.distance(np.array([8.5, 1, 1]), LENGTHS), -0.5)
    assert np.isclose(p.distance(np.array([15.5, 1, 1]), LENGTHS), -0.5)
    # continuous across the periodic seam
    assert np.isclose(
        p.distance(np.array([15.999, 1, 1]), LENGTHS),
        p.distance(np.array([0.001, 1, 1]), LENGTHS),
        atol=5e-3,
    )


def test_phase_at_coated_sphere_precedence():
    a = coated_sphere_assembly()
    c = np.array([8.0, 8.0, 8.0])
    assert a.phase_at(c, LENGTHS) == 2  # inclusion
    assert a.phase_at(c + [5.0, 0, 0], LENGTHS) == 1  # coating
    assert a.phase_at(c + [7.0, 0, 0], LENGTHS) == 0  # matrix
    # vectorized lookup agrees with scalar calls
    pts = c + np.array([[0.0, 0, 0], [5.0, 0, 0], [7.0, 0, 0]])
    assert list(a.phase_at(pts, LENGTHS)) == [2, 1, 0]


def test_phase_at_empty_assembly_is_background():
    a = PhaseAssembly(regions=[], background=4)
    assert a.phase_at(np.array([1.0, 2.0, 3.0]), LENGTHS) == 4


def test_first_region_wins_where_regions_overlap():
    # two half-cell slabs, x in (0.5, 2.5) and y in (0.5, 2.5), overlap on
    # the nodes x, y in {1, 2}; the first slab's phase 1 must win there, and
    # nodes in neither slab take the last region's outside phase 3
    from xfft.solver import build_system
    from xfft.voigt import MaterialIso

    assembly = PhaseAssembly(
        [
            Region(Plane((0.5, 0.0, 0.0), (1.0, 0.0, 0.0)), inside_phase=1, outside_phase=0),
            Region(Plane((0.0, 0.5, 0.0), (0.0, 1.0, 0.0)), inside_phase=2, outside_phase=3),
        ],
        0,
    )
    grid = Grid((4, 4, 4), (4.0, 4.0, 4.0))
    rows = [[3, 2, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1], [3, 2, 2, 3]]  # [x][y]
    expect = np.repeat(np.array(rows)[:, :, None], 4, axis=2)
    assert np.array_equal(assembly.phase_at(grid.node_coords(), grid.lengths), expect)
    system = build_system(assembly, grid, [MaterialIso(1.0 + p, 0.3) for p in range(4)])
    assert np.array_equal(system.caches.base_phase, expect)


def test_sample_nodal_plane_snap():
    # plane through x = 0: nodes on both interfaces snap to +eta*h
    a = PhaseAssembly([Region(Plane((0.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    grid = Grid((4, 4, 4), LENGTHS)
    nodal = sample_nodal(a, grid)
    assert nodal.shape == (1, 4, 4, 4)
    snap = SNAP_ETA * grid.h[0]
    assert np.all(nodal[0, 0] == snap)  # x = 0 plane
    assert np.all(nodal[0, 2] == snap)  # x = 8 conjugate plane
    assert np.allclose(nodal[0, 1], 4.0)
    assert np.allclose(nodal[0, 3], -4.0)
    assert np.all(np.abs(nodal) >= snap * (1 - 1e-15))


def test_sample_nodal_hashin_two_fields():
    a = coated_sphere_assembly()
    grid = Grid((16, 16, 16), LENGTHS)
    nodal = sample_nodal(a, grid)
    assert nodal.shape == (2, 16, 16, 16)
    # both fields change sign somewhere and are exact at sampled nodes
    for k in range(2):
        assert nodal[k].min() < 0 < nodal[k].max()
    x = grid.node_coords()
    d = np.linalg.norm(x - np.array([8.0, 8, 8]), axis=-1)
    expect = 2.0 * np.pi - d
    mask = np.abs(expect) > 1e-6
    assert np.allclose(nodal[1][mask], expect[mask], rtol=1e-12)


def test_sample_nodal_small_sphere_sign_scan():
    # sphere inside one voxel layer: sign changes confined to that layer
    a = PhaseAssembly([Region(Sphere((8.0, 8.0, 8.0), 1.4), 1, 0)], 0)
    grid = Grid((8, 8, 8), LENGTHS)  # h = 2
    nodal = sample_nodal(a, grid)[0]
    pos = np.argwhere(nodal > 0)
    assert len(pos) > 0
    assert np.all(np.abs(pos - 4) <= 1)  # only nodes adjacent to the center


def test_plane_interpolation_is_exact():
    # linear interpolant of nodal values reproduces the plane level set at
    # arbitrary interior points: the triangle wave is affine with breakpoints
    # on lattice nodes here, so the only deviation is the snap at the
    # interface nodes (bounded by eta * h)
    a = PhaseAssembly([Region(Plane((2.0, 0, 0), (1.0, 0, 0)), 1, 0)], 0)
    grid = Grid((8, 8, 8), LENGTHS)
    nodal = sample_nodal(a, grid)[0]
    rng = np.random.default_rng(5)
    snap = SNAP_ETA * grid.h[0]
    for x in rng.uniform(0.01, 15.99, size=100):
        i = int(x // 2)
        t = (x - 2 * i) / 2.0
        interp = (1 - t) * nodal[i, 0, 0] + t * nodal[(i + 1) % 8, 0, 0]
        exact = a.eval(0, np.array([x, 0.0, 0.0]), LENGTHS)
        assert abs(interp - exact) <= 2 * snap + 1e-12 * abs(exact)


@pytest.mark.slow
def test_sphere_volume_by_subtet_cutting_converges_h2():
    # discretized inclusion volume errs at ~O(h^2) (linearized interface)
    from xfft.element import cut_tet
    from xfft.mesh import detect_enrichment, tet_vertices

    sphere_vol = 4.0 / 3.0 * np.pi * (2.0 * np.pi) ** 3
    a = PhaseAssembly([Region(Sphere((8.0, 8, 8), 2 * np.pi), 1, 0)], 0)
    errs = []
    for n in (8, 16, 32):
        grid = Grid((n,) * 3, LENGTHS)
        topo = build_topology()
        nodal = sample_nodal(a, grid)
        layout = detect_enrichment(nodal, topo, grid)
        vol = 0.0
        tet_vol = np.prod(grid.h) / 6.0
        for t in range(6):
            corner_vals = np.stack(
                [
                    np.roll(nodal[0], shift=(-o[0], -o[1], -o[2]), axis=(0, 1, 2))
                    for o in topo.offsets[t]
                ],
                axis=-1,
            )
            cut = layout.cut_region[t] >= 0
            vol += tet_vol * np.count_nonzero(~cut & (corner_vals[..., 0] > 0))
            verts = tet_vertices(topo, grid, t)
            for idx in np.argwhere(cut):
                for sub in cut_tet(verts, corner_vals[tuple(idx)]):
                    if sub.side > 0:
                        vol += sub.volume
        errs.append(abs(vol - sphere_vol) / sphere_vol)
    rate = np.log2(errs[0] / errs[-1]) / 2.0
    assert 1.5 < rate < 2.8


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_sphere_rejects_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        Sphere((8.0, 8.0, 8.0), radius)


@pytest.mark.parametrize("normal", [(1.0, 1.0, 0.0), (0.0, 0.6, 0.8), (0.0, 0.0, 0.0)])
def test_plane_rejects_normal_off_axis(normal):
    with pytest.raises(ValueError, match="axis"):
        Plane(point=(0.0, 0.0, 0.0), normal=normal)
    Plane(point=(0.0, 0.0, 0.0), normal=(0.0, -2.0, 0.0))  # any axis, any length


def test_sphere_reaching_half_the_cell_rejected():
    from xfft.solver import build_system
    from xfft.voigt import MaterialIso

    mats = [MaterialIso(1.0, 0.3), MaterialIso(2.0, 0.3)]
    grid = Grid((4, 4, 4), (16.0, 16.0, 10.0))
    small = Sphere((8.0, 8.0, 5.0), 2.0)
    for shape in (
        Sphere((8.0, 8.0, 5.0), 5.0),  # half the shortest axis
        Sphere((8.0, 8.0, 5.0), 7.0),  # below half of the two long axes only
        SphereUnion((small, Sphere((4.0, 4.0, 5.0), 6.0))),
    ):
        for mode in ("xfem", "p1"):
            with pytest.raises(ValueError, match="region 1: sphere radius"):
                build_system(
                    PhaseAssembly([Region(small, 1, 0), Region(shape, 1, 0)]), grid, mats, mode=mode
                )
    build_system(PhaseAssembly([Region(Sphere((8.0, 8.0, 5.0), 4.99), 1, 0)]), grid, mats)
