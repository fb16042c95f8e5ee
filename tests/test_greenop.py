import numpy as np
import pytest

from xfft.greenop import (
    apply_operator,
    apply_preconditioner,
    apply_stencil,
    build_symbol,
    unit_stencil,
)
from xfft.mesh import Grid, build_topology


@pytest.fixture(scope="module")
def setup():
    grid = Grid((8, 8, 8), (16.0, 16.0, 16.0))
    topo = build_topology()
    return grid, topo, build_symbol(grid, topo)


def test_stencil_row_sums_vanish():
    grid = Grid((4, 4, 4), (8.0, 8.0, 8.0))
    topo = build_topology()
    total = sum(block for block in unit_stencil(grid, topo).values())
    assert np.allclose(total, 0.0, atol=1e-13)


def test_stencil_symmetry():
    grid = Grid((4, 4, 4), (8.0, 8.0, 8.0))
    topo = build_topology()
    st = unit_stencil(grid, topo)
    for key, block in st.items():
        mirror = tuple(-k for k in key)
        assert np.allclose(block, st[mirror].T, atol=1e-13)


def test_symbol_zero_frequency_is_zero(setup):
    _, _, symbol = setup
    assert np.all(symbol.ghat[0, 0, 0] == 0.0)


def test_symbol_hermitian_psd_all_frequencies(setup):
    # dense eigensolve over every stored frequency of the forward symbol
    grid, topo, symbol = setup
    n1, n2, n3 = grid.n
    k1 = np.arange(n1)[:, None, None]
    k2 = np.arange(n2)[None, :, None]
    k3 = np.arange(n3 // 2 + 1)[None, None, :]
    ahat = np.zeros((n1, n2, n3 // 2 + 1, 3, 3), dtype=complex)
    for (da, db, dc), block in unit_stencil(grid, topo).items():
        phase = np.exp(-2j * np.pi * (k1 * da / n1 + k2 * db / n2 + k3 * dc / n3))
        ahat += phase[..., None, None] * block
    flat = ahat.reshape(-1, 3, 3)
    assert np.allclose(flat, np.conj(np.transpose(flat, (0, 2, 1))), atol=1e-12)
    ev = np.linalg.eigvalsh(flat)
    assert ev.reshape(-1)[3:].min() > 0  # all but the zero frequency positive
    # inverse symbol is Hermitian PSD as well
    g = symbol.ghat.reshape(-1, 3, 3)
    assert np.allclose(g, np.conj(np.transpose(g, (0, 2, 1))), atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > -1e-14


def test_preconditioner_round_trip(setup):
    # P^-1 (A0 v) = v for mean-free v, with A0 applied by direct convolution
    grid, topo, symbol = setup
    rng = np.random.default_rng(0)
    v = rng.standard_normal(tuple(grid.n) + (3,))
    v -= v.mean(axis=(0, 1, 2))
    f = apply_stencil(grid, topo, v)
    z = apply_preconditioner(symbol, f)
    assert np.allclose(z, v, rtol=1e-12, atol=1e-12 * np.abs(v).max())


def test_preconditioner_constant_field_maps_to_zero(setup):
    grid, _, symbol = setup
    f = np.ones(tuple(grid.n) + (3,))
    z = apply_preconditioner(symbol, f)
    assert np.allclose(z, 0.0, atol=1e-13)


def test_preconditioner_output_mean_free_and_real(setup):
    grid, _, symbol = setup
    rng = np.random.default_rng(1)
    f = rng.standard_normal(tuple(grid.n) + (3,))
    z = apply_preconditioner(symbol, f)
    assert z.dtype == np.float64
    assert np.allclose(z.mean(axis=(0, 1, 2)), 0.0, atol=1e-14 * np.abs(z).max())


def test_preconditioner_linear_self_adjoint(setup):
    grid, _, symbol = setup
    rng = np.random.default_rng(2)
    f = rng.standard_normal(tuple(grid.n) + (3,))
    g = rng.standard_normal(tuple(grid.n) + (3,))
    zf = apply_preconditioner(symbol, f)
    zg = apply_preconditioner(symbol, g)
    assert np.isclose(np.vdot(zf, g), np.vdot(f, zg), rtol=1e-12)
    # linearity
    z2 = apply_preconditioner(symbol, 2.0 * f + 0.5 * g)
    assert np.allclose(z2, 2.0 * zf + 0.5 * zg, rtol=1e-12, atol=1e-13)


def test_enriched_block_passthrough_bit_identical():
    from xfft.homogenize import hashin_system

    system, _ = hashin_system(4)
    rng = np.random.default_rng(3)
    f = system.zeros()
    f.enr[:] = rng.standard_normal(f.enr.shape)
    z = system.precondition(f)
    assert np.array_equal(z.enr, f.enr)
    assert z.enr is not f.enr


def test_anisotropic_grid_round_trip():
    grid = Grid((4, 6, 8), (8.0, 6.0, 16.0))
    topo = build_topology()
    symbol = build_symbol(grid, topo)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(tuple(grid.n) + (3,))
    v -= v.mean(axis=(0, 1, 2))
    f = apply_stencil(grid, topo, v)
    z = apply_preconditioner(symbol, f)
    assert np.allclose(z, v, rtol=1e-11, atol=1e-11)


def test_odd_grid_round_trip_and_real_symbol():
    # odd, non-cubic grid: N3 = 7 gives a half-spectrum axis of 4 without a
    # Nyquist plane, and the axes differ in both N and h
    grid = Grid((5, 6, 7), (5.0, 9.0, 7.0))
    topo = build_topology()
    symbol = build_symbol(grid, topo)
    assert symbol.ghat.dtype == np.float64 and symbol.ghat.shape == (5, 6, 4, 3, 3)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(tuple(grid.n) + (3,))
    v -= v.mean(axis=(0, 1, 2))
    z = apply_preconditioner(symbol, apply_stencil(grid, topo, v))
    assert np.allclose(z, v, rtol=1e-12, atol=1e-12 * np.abs(v).max())
    # the real symbol is the inverse of the complex sum over the stencil
    k = np.meshgrid(np.arange(5) / 5, np.arange(6) / 6, np.arange(4) / 7, indexing="ij")
    ahat = sum(
        np.exp(-2j * np.pi * (k[0] * da + k[1] * db + k[2] * dc))[..., None, None] * block
        for (da, db, dc), block in unit_stencil(grid, topo).items()
    ).reshape(-1, 3, 3)
    ahat[0] = np.eye(3)
    want = np.linalg.inv(ahat)
    want[0] = 0.0
    got = symbol.ghat.reshape(-1, 3, 3)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_majority_operator_of_preconditioner_matches_stencil_convolution():
    # odd, non-cubic grid without a Nyquist plane, and a stiffness that is
    # not the identity: A_m z from the preconditioner's spectrum equals A_m z
    # transformed afresh and a direct 27-point periodic convolution
    grid = Grid((5, 6, 7), (5.0, 9.0, 7.0))
    topo = build_topology()
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6))
    c = m @ m.T + 6.0 * np.eye(6)
    symbol = build_symbol(grid, topo, c)
    assert symbol.gplanes.shape == symbol.ahat.shape == (6, 5, 6, 4)
    f = rng.standard_normal(tuple(grid.n) + (3,))
    z, az = apply_preconditioner(symbol, f, with_majority=True)
    assert np.array_equal(z, apply_preconditioner(symbol, f))
    direct = np.zeros_like(z)
    for (da, db, dc), block in unit_stencil(grid, topo, c).items():
        direct += np.roll(z, shift=(-da, -db, -dc), axis=(0, 1, 2)) @ block.T
    for want in (apply_operator(symbol, z), direct):
        assert np.allclose(az, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
