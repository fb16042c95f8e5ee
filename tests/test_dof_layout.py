"""The flat dof numbering has one owner, `DofLayout`.

The build, the sweep, the special operator and the vector views read the
numbering from the layout alone: patched to another numbering, the layout
must give the same answers, and the default numbering must agree with the
test oracles' own arithmetic.
"""

import math

import numpy as np
import pytest
from helpers import node_id

from xfft.homogenize import hashin_system
from xfft.mesh import DofLayout, Grid
from xfft.microstructure import PhaseAssembly, Region, Sphere
from xfft.solver import DofVector, SolverConfig, build_system, run_lcg
from xfft.voigt import MaterialIso

EPS_HYDRO = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
EPS_SHEAR = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
THREE_PHASES = [MaterialIso(1.0, 0.3), MaterialIso(10.0, 0.3), MaterialIso(1.0 / 3.0, 0.2)]


def two_spheres(grid, first, second, radius):
    assembly = PhaseAssembly(
        [Region(Sphere(first, radius), 1, 0), Region(Sphere(second, radius), 2, 0)], 0
    )
    return build_system(assembly, grid, THREE_PHASES)


def two_spheres_n8():
    # two close spheres: cut elements plus multi-interface fallback elements
    return two_spheres(Grid((8, 8, 8), (16.0,) * 3), (6.0, 8.0, 8.0), (10.6, 8.0, 8.0), 2.2)


def hashin_n8():
    return hashin_system(8)[0]


def component_major(monkeypatch, reverse_slots):
    """Patch `DofLayout` to number dof c * n_ids + id; with `reverse_slots`
    enriched slot s also gets the id n_ids - 1 - s instead of n_nodes + s."""

    def dofs(self, ids, comp):
        return comp * self.n_ids + ids

    def views(self, data):
        by_id = data.reshape(3, self.n_ids).T
        n = self.grid.n_nodes
        grid, enr = by_id[:n].reshape(self.grid.n + (3,)), by_id[n:]
        assert np.shares_memory(grid, data)
        return grid, enr[::-1] if reverse_slots else enr

    monkeypatch.setattr(DofLayout, "dofs", dofs)
    monkeypatch.setattr(DofLayout, "views", views)
    if reverse_slots:
        monkeypatch.setattr(DofLayout, "enr_ids", lambda self, slots: self.n_ids - 1 - slots)


def residual_and_stress(system):
    """Residual and average stress at a fixed random field, set and read
    through the views."""
    rng = np.random.default_rng(12)
    u = system.zeros()
    u.grid[:] = rng.standard_normal(u.grid.shape)
    u.enr[:] = rng.standard_normal(u.enr.shape)
    eps = rng.standard_normal(6)
    r = system.residual(u, eps)
    return r.grid.copy(), r.enr.copy(), system.average_stress(u, eps)


def assert_same_sweep(other, default, answers):
    """`other`, built with a patched layout, numbers its dofs differently
    from `default` and reproduces its sweep `answers`."""
    for name in ("voxel_dofs", "special_dofs"):
        got, want = getattr(other.caches, name), getattr(default.caches, name)
        assert got.shape == want.shape and not np.array_equal(got, want), name
    for got, want in zip(residual_and_stress(other), answers):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("make", [hashin_n8, two_spheres_n8])
def test_component_major_numbering_gives_the_same_answers(monkeypatch, make):
    # the production dot sums in storage order, which the numbering changes,
    # and lcg amplifies that rounding; an exactly rounded dot in both runs
    # leaves the numbering as the only difference
    monkeypatch.setattr(DofVector, "dot", lambda self, other: math.fsum(self.data * other.data))
    loads = (EPS_HYDRO, EPS_SHEAR)
    config = SolverConfig("lcg", 1e-8, 500)
    default = make()
    answers = residual_and_stress(default)
    runs = [run_lcg(default, config, eps) for eps in loads]
    component_major(monkeypatch, reverse_slots=False)
    other = make()
    assert other.layout.n_x == default.layout.n_x > 0
    assert_same_sweep(other, default, answers)
    for eps, want in zip(loads, runs):
        got = run_lcg(other, config, eps)
        assert got.converged and got.iterations == want.iterations
        assert np.abs(got.sigma - want.sigma).max() <= 1e-12 * np.abs(want.sigma).max()


@pytest.mark.parametrize("make", [hashin_n8, two_spheres_n8])
def test_reversed_enriched_ids_give_the_same_sweep(monkeypatch, make):
    # the enriched ids run backwards as well: the special operator then sums
    # its blocks in another order, so only the sweep is compared
    default = make()
    answers = residual_and_stress(default)
    component_major(monkeypatch, reverse_slots=True)
    assert_same_sweep(make(), default, answers)


def test_default_numbering_matches_independent_node_ids():
    # three axis lengths, cut and fallback elements and dropped enriched
    # dofs; the oracle numbers grid dof 3 nid + c and enriched dof
    # 3 n_fe + 3 es + c, as `helpers.dense_system` does
    grid = Grid((4, 5, 6), (12.0, 15.0, 18.0))
    system = two_spheres(grid, (4.1, 7.3, 8.6), (10.4, 7.9, 9.4), 3.5)
    c, n_fe, n = system.caches, grid.n_nodes, grid.n
    assert c.n_cut > 0 and c.n_mi > 0 and c.n_dropped_dofs > 0

    corners = [(a, b, cc) for cc in (0, 1) for b in (0, 1) for a in (0, 1)]
    want, bounds = [], [0]
    for p in range(len(c.stiffness)):
        for i, j, k in np.argwhere(c.voxel_phase == p):
            nodes = [node_id(i + a, j + b, k + cc, n) for a, b, cc in corners]
            want.append([3 * nid + comp for nid in nodes for comp in range(3)])
        bounds.append(len(want))
    assert np.array_equal(c.voxel_dofs, np.array(want))
    assert list(c.voxel_bounds) == bounds

    special_nodes = set()
    for i, j, k in np.argwhere(c.voxel_phase < 0):
        special_nodes.update(node_id(i + a, j + b, k + cc, n) for a, b, cc in corners)
    want = [3 * nid + comp for nid in sorted(special_nodes) for comp in range(3)]
    want += [3 * n_fe + 3 * es + comp for es in sorted(set(c.cut_enr.ravel())) for comp in range(3)]
    assert np.array_equal(c.special_dofs, want)

    u = system.zeros()
    u.data[:] = np.arange(len(u.data))
    for i, j, k in np.ndindex(*n):
        assert list(u.grid[i, j, k]) == [3 * node_id(i, j, k, n) + comp for comp in range(3)]
    for es in range(system.layout.n_x):
        assert list(u.enr[es]) == [3 * n_fe + 3 * es + comp for comp in range(3)]


def test_cut_slot_search_matches_slot_map():
    c = two_spheres_n8().caches
    rng = np.random.default_rng(31)
    # the cut elements themselves, and the elements holding random points
    x = rng.uniform(0.0, 16.0, size=(2000, 3))
    vox = (x / np.asarray(c.grid.h)).astype(np.int64)
    xi = x / np.asarray(c.grid.h) - vox
    # tet t covers xi_p0 >= xi_p1 >= xi_p2 for p = perms[t]
    ttype = np.array([c.topo.perms.index(tuple(p)) for p in np.argsort(-xi, axis=1)])
    ttype = np.concatenate([c.cut_ttype, ttype])
    vox = np.concatenate([c.cut_voxel, vox])
    got = c.cut_slot(ttype, vox)
    want = c.slot_map("cut")[ttype, vox[:, 0], vox[:, 1], vox[:, 2]]
    assert np.array_equal(got, want)
    assert np.array_equal(got[: c.n_cut], np.arange(c.n_cut)) and (got[c.n_cut :] < 0).any()
