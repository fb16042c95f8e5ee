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

from .element import b_matrix, p1_grads
from .mesh import ElementTopology, Grid, tet_vertices

_FFT_WORKERS = 1


def set_fft_workers(n: int):
    """Thread count for the FFT backend (deterministic for any value)."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def fft_workers() -> int:
    """Thread count the FFT backend currently uses."""
    return _FFT_WORKERS


def rfftn(a, axes=(0, 1, 2)):
    return scipy.fft.rfftn(a, axes=axes, workers=_FFT_WORKERS)


def irfftn(a, s, axes=(0, 1, 2)):
    return scipy.fft.irfftn(a, s=s, axes=axes, workers=_FFT_WORKERS)


def unit_stencil(grid: Grid, topo: ElementTopology) -> dict:
    """27-neighbor stencil of the unit-coefficient operator.

    Maps lattice offset (da, db, dc) in {-1, 0, 1}^3 to the 3x3 block
    coupling a node to its neighbor at that offset.
    """
    vol = float(np.prod(grid.h)) / 6.0
    stencil = {}
    for t in range(6):
        verts = tet_vertices(topo, grid, t)
        b = b_matrix(p1_grads(verts))
        a_ref = vol * b.T @ b  # Mandel-identity coefficient
        offs = topo.offsets[t]
        for l in range(4):
            for lp in range(4):
                key = tuple(offs[lp] - offs[l])
                block = a_ref[3 * l : 3 * l + 3, 3 * lp : 3 * lp + 3]
                stencil[key] = stencil.get(key, 0.0) + block
    return stencil


@dataclass
class GreenSymbol:
    """Half-spectrum inverse symbol: (N1, N2, N3//2+1, 3, 3) complex."""

    grid: Grid
    ghat: np.ndarray


def build_symbol(grid: Grid, topo: ElementTopology) -> GreenSymbol:
    """Fourier-diagonalize and invert the constant-coefficient operator."""
    n1, n2, n3 = grid.n
    nh = n3 // 2 + 1
    k1 = np.arange(n1)[:, None, None]
    k2 = np.arange(n2)[None, :, None]
    k3 = np.arange(nh)[None, None, :]
    ahat = np.zeros((n1, n2, nh, 3, 3), dtype=complex)
    for (da, db, dc), block in unit_stencil(grid, topo).items():
        phase = np.exp(
            -2j * np.pi * (k1 * da / n1 + k2 * db / n2 + k3 * dc / n3)
        )
        ahat += phase[..., None, None] * block
    flat = ahat.reshape(-1, 3, 3)
    flat[0] = np.eye(3)  # placeholder; zero frequency is zeroed below
    dets = np.abs(np.linalg.det(flat))
    ref = np.abs(flat).max()
    if np.any(dets < 1e-12 * ref**3):
        raise RuntimeError(
            "singular constant-coefficient symbol at a nonzero frequency; "
            "the operator must be coercive on mean-free fields"
        )
    ghat = np.linalg.inv(flat).reshape(n1, n2, nh, 3, 3)
    ghat[0, 0, 0] = 0.0
    return GreenSymbol(grid=grid, ghat=ghat)


def apply_preconditioner(symbol: GreenSymbol, f_grid: np.ndarray) -> np.ndarray:
    """Apply the inverse constant-coefficient operator to a nodal field.

    Input and output have shape (N1, N2, N3, 3); the output is real and
    mean-free by construction.  The enriched block of the preconditioner is
    the identity and is handled by the caller.
    """
    fhat = rfftn(f_grid, axes=(0, 1, 2))
    zhat = np.einsum("xyzij,xyzj->xyzi", symbol.ghat, fhat)
    return irfftn(zhat, s=symbol.grid.n, axes=(0, 1, 2))


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
