"""Property tests of the assembled operator on random small cells.

Each example is a periodic cell of N = 4-6 voxels per axis with one or two
randomly placed spheres, discretized with or without enrichment, so the
voxels holding cut and fallback elements land in random places.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xfft.mesh import Grid
from xfft.microstructure import PhaseAssembly, Region, Sphere
from xfft.solver import ZERO6, build_system
from xfft.voigt import MaterialIso

CELL = 16.0
MATERIALS = [MaterialIso(1.0, 0.3), MaterialIso(10.0, 0.25), MaterialIso(1.0 / 3.0, 0.2)]

coordinate = st.floats(0.0, CELL, allow_nan=False)
spheres = st.tuples(st.tuples(coordinate, coordinate, coordinate), st.floats(1.5, 6.0))


@st.composite
def cells(draw):
    n = draw(st.integers(4, 6))
    placed = draw(st.lists(spheres, min_size=1, max_size=2))
    mode = draw(st.sampled_from(["xfem", "p1"]))
    regions = [Region(Sphere(c, r), i + 1, 0) for i, (c, r) in enumerate(placed)]
    system = build_system(
        PhaseAssembly(regions, 0), Grid((n, n, n), (CELL,) * 3), MATERIALS, mode=mode
    )
    return system, draw(st.integers(0, 2**32 - 1))


def random_vector(system, rng):
    v = system.zeros()
    v.data[:] = rng.standard_normal(v.data.shape)
    return v


def scale(system, *vecs):
    """Magnitude of vAw for unit-scale vectors, for the round-off bound."""
    return np.abs(system.caches.stiffness).max() * np.prod([np.linalg.norm(v.data) for v in vecs])


SETTINGS = settings(max_examples=12, deadline=None)


@SETTINGS
@given(cells())
def test_operator_is_symmetric(cell):
    system, seed = cell
    rng = np.random.default_rng(seed)
    v, w = random_vector(system, rng), random_vector(system, rng)
    vaw = v.dot(system.operator(w))
    wav = w.dot(system.operator(v))
    assert abs(vaw - wav) <= 1e-12 * scale(system, v, w)


@SETTINGS
@given(cells())
def test_constant_translation_is_in_kernel(cell):
    system, seed = cell
    rng = np.random.default_rng(seed)
    u = system.zeros()
    u.grid[:] = rng.standard_normal(3)
    r = system.operator(u)
    assert np.abs(r.data).max() <= 1e-12 * scale(system, u)


@SETTINGS
@given(cells())
def test_energy_is_nonnegative(cell):
    system, seed = cell
    v = random_vector(system, np.random.default_rng(seed))
    assert v.dot(system.operator(v)) >= -1e-12 * scale(system, v, v)


@SETTINGS
@given(cells())
def test_load_map_is_transpose_of_stress_map(cell):
    # eps . sigma_int(u, 0) = u . r(0, eps)
    system, seed = cell
    rng = np.random.default_rng(seed)
    u, eps = random_vector(system, rng), rng.standard_normal(6)
    sig_int = system.average_stress(u, ZERO6) * system.grid.volume
    load = system.residual(system.zeros(), eps)
    lhs, rhs = eps @ sig_int, u.dot(load)
    assert abs(lhs - rhs) <= 1e-12 * scale(system, u) * np.linalg.norm(eps) * system.grid.volume
