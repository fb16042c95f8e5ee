"""FFT-diagonal constant-coefficient operators and the inverse of one.

The standard-node block of the preconditioner is the Galerkin operator of
the unit-coefficient problem (Mandel-identity stiffness, symmetrized
gradient) on the fixed six-tet voxel mesh.  Because every voxel carries
the same element table, this operator, like the operator of any one
stiffness on every voxel, is a periodic convolution with a 27-neighbor
3x3-matrix stencil; its Fourier symbol is real and symmetric.  The unit
symbol is inverted frequency by frequency and cached, and so is the symbol
of the majority phase's operator A_m, which the sweep applies on every
voxel: both as six planes, applied by one product routine.  The stencils
are assembled from the actual element matrices, so symbols and element
residual agree to round-off by construction.

Transforms use the real-to-complex half-spectrum layout; the zero
frequency of the inverse symbol is set to zero, which projects the output
onto mean-free fields, and so is the zero frequency of A_m's symbol: a
translation has no strain.
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


def unit_stencil(grid: Grid, topo: ElementTopology, stiffness=None) -> dict:
    """27-neighbor stencil of the constant-coefficient operator.

    Maps lattice offset (da, db, dc) in {-1, 0, 1}^3 to the 3x3 block
    coupling a node to its neighbor at that offset.  The stiffness (6, 6)
    is the Mandel identity unless given.
    """
    vol = float(np.prod(grid.h)) / 6.0
    c = np.eye(6) if stiffness is None else stiffness
    stencil = {}
    _, _, b_mats = tet_table(topo, grid)
    for b, offs in zip(b_mats, topo.offsets):
        a_ref = vol * b.T @ c @ b
        for l in range(4):
            for lp in range(4):
                key = tuple(offs[lp] - offs[l])
                block = a_ref[3 * l : 3 * l + 3, 3 * lp : 3 * lp + 3]
                stencil[key] = stencil.get(key, 0.0) + block
    return stencil


# plane of entry (i, j) of a real symmetric 3x3 symbol: 00, 01, 02, 11, 12, 22
_PLANE = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


@dataclass
class GreenSymbol:
    """Half-spectrum symbols of two constant-coefficient operators.

    Both are real symmetric and stored as their six distinct planes
    (6, N1, N2, N3//2+1), entry (i, j) in plane `_PLANE[i][j]`.
    `gplanes` is the inverse of the unit-coefficient symbol; `ahat` is the
    symbol of A_m, the operator of the majority phase's stiffness on every
    voxel.
    """

    grid: Grid
    gplanes: np.ndarray
    ahat: np.ndarray

    @property
    def ghat(self) -> np.ndarray:
        """A copy (N1, N2, N3//2+1, 3, 3) of the inverse unit symbol."""
        return self.gplanes[np.array(_PLANE)].transpose(2, 3, 4, 0, 1)


def _symbol_planes(grid: Grid, topo: ElementTopology, stiffness) -> np.ndarray:
    """(6, N1, N2, N3//2+1) upper-triangle planes of the operator's symbol.

    Every stencil block is symmetric and equals the block at the opposite
    offset (the Kuhn voxel is symmetric about its centre), so the symbol
    sum_d A_d exp(-i k.d) is real symmetric.  Its phase factor is a
    product of one factor per axis, so the sum is contracted one axis at a
    time, and the last contraction forms only the real part.
    """
    n1, n2, n3 = grid.n
    nh = n3 // 2 + 1
    iu = np.triu_indices(3)
    # upper-triangle entry q of the block at offset (da, db, dc)
    blocks = np.zeros((6, 3, 3, 3))
    for (da, db, dc), block in unit_stencil(grid, topo, stiffness).items():
        blocks[:, da + 1, db + 1, dc + 1] = block[iu]
    e1, e2, e3 = (
        np.exp(-2j * np.pi * np.outer(np.arange(nk), np.arange(-1, 2)) / n)
        for nk, n in ((n1, n1), (n2, n2), (nh, n3))
    )
    part = np.einsum("kc,qabc->qabk", e3, blocks)
    part = np.einsum("jb,qabk->qajk", e2, part).reshape(6, 3, n2 * nh)
    planes = e1.real @ part.real
    planes -= e1.imag @ part.imag
    return planes.reshape(6, n1, n2, nh)


def build_symbol(grid: Grid, topo: ElementTopology, stiffness=None) -> GreenSymbol:
    """Fourier-diagonalize and invert the constant-coefficient operator.

    Each frequency's 3x3 block of the unit symbol is inverted in closed
    form, its adjugate's six planes over its determinant.  `ahat` is the
    symbol of the operator with `stiffness`, the majority phase's (the
    Mandel identity unless given).
    """
    unit = _symbol_planes(grid, topo, None)
    unit[:, 0, 0, 0] = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]  # placeholder; zeroed below
    a00, a01, a02, a11, a12, a22 = unit
    cof = np.empty_like(unit)  # the six planes of the adjugate
    cof[0] = a11 * a22 - a12 * a12
    cof[1] = a02 * a12 - a01 * a22
    cof[2] = a01 * a12 - a02 * a11
    cof[3] = a00 * a22 - a02 * a02
    cof[4] = a01 * a02 - a00 * a12
    cof[5] = a00 * a11 - a01 * a01
    det = a00 * cof[0] + a01 * cof[1] + a02 * cof[2]
    ref = np.abs(unit).max()
    if np.any(np.abs(det) < 1e-12 * ref**3):
        raise RuntimeError(
            "singular constant-coefficient symbol at a nonzero frequency; "
            "the operator must be coercive on mean-free fields"
        )
    cof /= det
    cof[:, 0, 0, 0] = 0.0
    del unit, a00, a01, a02, a11, a12, a22, det
    ahat = _symbol_planes(grid, topo, stiffness)
    ahat[:, 0, 0, 0] = 0.0
    return GreenSymbol(grid=grid, gplanes=cof, ahat=ahat)


def _forward(v_grid):
    """Half spectrum (3, N1, N2, N3//2+1) of a nodal field (N1, N2, N3, 3):
    one contiguous plane per component, so that the plane products read
    and write contiguous planes (at N=128 that took the nine products of
    an apply from ~108 to ~60 ms)."""
    return scipy.fft.rfftn(v_grid.transpose(3, 0, 1, 2), axes=(1, 2, 3), workers=_FFT_WORKERS)


def _multiply(planes, xhat, out):
    """out[i] = sum_j S_ij xhat[j] over the 3 component planes, S the
    symmetric symbol of six `planes`, summed in place through one plane."""
    plane = np.empty_like(xhat[0])
    for i, (p0, p1, p2) in enumerate(_PLANE):
        z = np.multiply(planes[p0], xhat[0], out=out[i])
        z += np.multiply(planes[p1], xhat[1], out=plane)
        z += np.multiply(planes[p2], xhat[2], out=plane)


def _inverse(symbol: GreenSymbol, xhat):
    """The nodal field (N1, N2, N3, 3) of a `_forward` spectrum, which it
    overwrites: a view of its component planes."""
    n, workers = symbol.grid.n, _FFT_WORKERS
    v = scipy.fft.irfftn(xhat, s=n, axes=(1, 2, 3), overwrite_x=True, workers=workers)
    return v.transpose(1, 2, 3, 0)


def apply_preconditioner(symbol: GreenSymbol, f_grid: np.ndarray, with_majority: bool = False):
    """Apply the inverse constant-coefficient operator to a nodal field.

    Input and output have shape (N1, N2, N3, 3); the output z is real and
    mean-free by construction.  The enriched block of the preconditioner is
    the identity and is handled by the caller.  With `with_majority`,
    returns (z, A_m z): the spectrum of z gives A_m z by nine more plane
    products and one more inverse transform.
    """
    fhat = _forward(f_grid)
    zhat = np.empty_like(fhat)
    _multiply(symbol.gplanes, fhat, zhat)
    if not with_majority:
        # the inverse transform holds only zhat
        del fhat
        return _inverse(symbol, zhat)
    # A_m zhat into the planes of fhat, which is read no more
    _multiply(symbol.ahat, zhat, fhat)
    z = _inverse(symbol, zhat)
    del zhat
    return z, _inverse(symbol, fhat)


def apply_operator(symbol: GreenSymbol, u_grid: np.ndarray) -> np.ndarray:
    """A_m u of a nodal field (N1, N2, N3, 3), by `rfftn`, nine plane
    products with `symbol.ahat` and `irfftn`."""
    uhat = _forward(u_grid)
    out = np.empty_like(uhat)
    _multiply(symbol.ahat, uhat, out)
    del uhat
    return _inverse(symbol, out)


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
