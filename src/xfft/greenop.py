"""FFT-diagonal inverse of the constant-coefficient operator.

The standard-node block of the preconditioner is the Galerkin operator of
the unit-coefficient problem (Mandel-identity stiffness, symmetrized
gradient) on the fixed six-tet voxel mesh.  Because every voxel carries
the same element table, this operator is a periodic convolution with a
27-neighbor 3x3-matrix stencil; its Fourier symbol is inverted frequency
by frequency and cached.  The stencil is assembled from the actual element
matrices, so symbol and element residual agree to round-off by
construction.

Transforms use the real-to-complex half-spectrum layout; the zero
frequency of the inverse symbol is set to zero, which projects the output
onto mean-free fields.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .element import tet_table
from .mesh import ElementTopology, Grid

_FFT_WORKERS = 1


def set_fft_workers(n: int):
    """Thread count for the FFT backend (deterministic for any value)."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def fft_workers() -> int:
    """Thread count the FFT backend currently uses."""
    return _FFT_WORKERS


def unit_stencil(grid: Grid, topo: ElementTopology) -> dict:
    """27-neighbor stencil of the unit-coefficient operator.

    Maps lattice offset (da, db, dc) in {-1, 0, 1}^3 to the 3x3 block
    coupling a node to its neighbor at that offset.
    """
    vol = float(np.prod(grid.h)) / 6.0
    stencil = {}
    _, _, b_mats = tet_table(topo, grid)
    for b, offs in zip(b_mats, topo.offsets):
        a_ref = vol * b.T @ b  # Mandel-identity coefficient
        for l in range(4):
            for lp in range(4):
                key = tuple(offs[lp] - offs[l])
                block = a_ref[3 * l : 3 * l + 3, 3 * lp : 3 * lp + 3]
                stencil[key] = stencil.get(key, 0.0) + block
    return stencil


@dataclass
class GreenSymbol:
    """Half-spectrum inverse symbol: (N1, N2, N3//2+1, 3, 3) real symmetric.

    `ghat` is an entry-major view: each `ghat[..., i, j]` is one
    contiguous plane over the frequencies.
    """

    grid: Grid
    ghat: np.ndarray


def build_symbol(grid: Grid, topo: ElementTopology) -> GreenSymbol:
    """Fourier-diagonalize and invert the constant-coefficient operator.

    Every stencil block is symmetric and equals the block at the opposite
    offset, so the symbol sum_d A_d exp(-i k.d) is real symmetric.  Its
    phase factor is a product of one factor per axis, so the sum is
    contracted one axis at a time, the last contraction forms only the
    real part, and each frequency's 3x3 block is inverted in closed form.
    """
    n1, n2, n3 = grid.n
    nh = n3 // 2 + 1
    iu = np.triu_indices(3)
    # upper-triangle entry q of the block at offset (da, db, dc)
    blocks = np.zeros((6, 3, 3, 3))
    for (da, db, dc), block in unit_stencil(grid, topo).items():
        blocks[:, da + 1, db + 1, dc + 1] = block[iu]
    e1, e2, e3 = (
        np.exp(-2j * np.pi * np.outer(np.arange(nk), np.arange(-1, 2)) / n)
        for nk, n in ((n1, n1), (n2, n2), (nh, n3))
    )
    part = np.einsum("kc,qabc->qabk", e3, blocks)
    part = np.einsum("jb,qabk->qajk", e2, part).reshape(6, 3, n2 * nh)
    ahat = (e1.real @ part.real - e1.imag @ part.imag).reshape(6, -1)
    ahat[:, 0] = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]  # placeholder; zero frequency is zeroed below
    a00, a01, a02, a11, a12, a22 = ahat
    cof = np.empty((3, 3) + a00.shape)
    cof[0, 0] = a11 * a22 - a12 * a12
    cof[0, 1] = cof[1, 0] = a02 * a12 - a01 * a22
    cof[0, 2] = cof[2, 0] = a01 * a12 - a02 * a11
    cof[1, 1] = a00 * a22 - a02 * a02
    cof[1, 2] = cof[2, 1] = a01 * a02 - a00 * a12
    cof[2, 2] = a00 * a11 - a01 * a01
    det = a00 * cof[0, 0] + a01 * cof[0, 1] + a02 * cof[0, 2]
    ref = np.abs(ahat).max()
    if np.any(np.abs(det) < 1e-12 * ref**3):
        raise RuntimeError(
            "singular constant-coefficient symbol at a nonzero frequency; "
            "the operator must be coercive on mean-free fields"
        )
    cof /= det
    cof[:, :, 0] = 0.0
    ghat = cof.reshape(3, 3, n1, n2, nh).transpose(2, 3, 4, 0, 1)
    return GreenSymbol(grid=grid, ghat=ghat)


def apply_preconditioner(symbol: GreenSymbol, f_grid: np.ndarray) -> np.ndarray:
    """Apply the inverse constant-coefficient operator to a nodal field.

    Input and output have shape (N1, N2, N3, 3); the output is real and
    mean-free by construction.  The enriched block of the preconditioner is
    the identity and is handled by the caller.
    """
    fhat = scipy.fft.rfftn(f_grid, axes=(0, 1, 2), workers=_FFT_WORKERS)
    g = symbol.ghat
    # sum in place through one plane; the inverse transform holds only zhat
    zhat = np.empty_like(fhat)
    plane = np.empty_like(fhat[..., 0])
    for i in range(3):
        z = np.multiply(g[..., i, 0], fhat[..., 0], out=zhat[..., i])
        z += np.multiply(g[..., i, 1], fhat[..., 1], out=plane)
        z += np.multiply(g[..., i, 2], fhat[..., 2], out=plane)
    del fhat, plane
    return scipy.fft.irfftn(
        zhat, s=symbol.grid.n, axes=(0, 1, 2), overwrite_x=True, workers=_FFT_WORKERS
    )


def apply_stencil(grid: Grid, topo: ElementTopology, v_grid: np.ndarray) -> np.ndarray:
    """Direct real-space application of the unit-coefficient operator.

    Plain 27-point periodic convolution; used as an independent check of
    the Fourier path and for small-scale verification.
    """
    out = np.zeros_like(v_grid)
    for (da, db, dc), block in unit_stencil(grid, topo).items():
        shifted = np.roll(v_grid, shift=(-da, -db, -dc), axis=(0, 1, 2))
        out += shifted @ block.T
    return out
