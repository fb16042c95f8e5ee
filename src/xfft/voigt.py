"""Mandel-notation tensor algebra and isotropic stiffness construction.

Symmetric second-order tensors are stored as 6-vectors in the orthonormal
Mandel convention with component order (11, 22, 33, 23, 13, 12) and a
factor sqrt(2) on the shear entries.  With this convention the Frobenius
norm of the 3x3 tensor equals the Euclidean norm of the 6-vector and
double contractions become plain dot products, for strains and stresses
alike.  Stiffness tensors are 6x6 symmetric matrices in the same basis.

Units: stresses and stiffnesses in MPa, strains dimensionless.
"""

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)

# (i, j) index pairs of the six Mandel slots
MANDEL_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def tensor_to_mandel(t):
    """(..., 3, 3) symmetric tensor -> (..., 6) Mandel vector."""
    t = np.asarray(t, dtype=float)
    v = np.empty(t.shape[:-2] + (6,))
    v[..., 0] = t[..., 0, 0]
    v[..., 1] = t[..., 1, 1]
    v[..., 2] = t[..., 2, 2]
    v[..., 3] = SQRT2 * t[..., 1, 2]
    v[..., 4] = SQRT2 * t[..., 0, 2]
    v[..., 5] = SQRT2 * t[..., 0, 1]
    return v


def mandel_to_tensor(v):
    """(..., 6) Mandel vector -> (..., 3, 3) symmetric tensor."""
    v = np.asarray(v, dtype=float)
    t = np.empty(v.shape[:-1] + (3, 3))
    t[..., 0, 0] = v[..., 0]
    t[..., 1, 1] = v[..., 1]
    t[..., 2, 2] = v[..., 2]
    t[..., 1, 2] = t[..., 2, 1] = v[..., 3] / SQRT2
    t[..., 0, 2] = t[..., 2, 0] = v[..., 4] / SQRT2
    t[..., 0, 1] = t[..., 1, 0] = v[..., 5] / SQRT2
    return t


def stiffness_to_mandel(c4):
    """(3,3,3,3) minor/major-symmetric stiffness -> (6,6) Mandel matrix."""
    c4 = np.asarray(c4, dtype=float)
    m = np.empty((6, 6))
    for a, (i, j) in enumerate(MANDEL_PAIRS):
        for b, (k, l) in enumerate(MANDEL_PAIRS):
            fac = (SQRT2 if i != j else 1.0) * (SQRT2 if k != l else 1.0)
            m[a, b] = fac * c4[i, j, k, l]
    return m


@dataclass(frozen=True)
class MaterialIso:
    """Isotropic material: Young's modulus (MPa) and Poisson's ratio."""

    young: float
    poisson: float

    def __post_init__(self):
        if not 0.0 < self.young < np.inf:
            raise ValueError(f"Young's modulus must be positive and finite, got {self.young}")
        if not -1.0 < self.poisson < 0.5:
            raise ValueError(
                f"Poisson's ratio must lie in (-1, 0.5), got {self.poisson}"
            )

    @property
    def shear(self):
        return self.young / (2.0 * (1.0 + self.poisson))

    @property
    def lame(self):
        return (
            self.young
            * self.poisson
            / ((1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))
        )

    @property
    def bulk(self):
        return self.young / (3.0 * (1.0 - 2.0 * self.poisson))


def iso_stiffness(m: MaterialIso) -> np.ndarray:
    """6x6 Mandel stiffness C = 2 mu I_sym + lambda 1(x)1 of an isotropic material.

    Eigenvalues are 3K (hydrostatic) and 2 mu (five-fold deviatoric).
    """
    mu, lam = m.shear, m.lame
    c = 2.0 * mu * np.eye(6)
    c[:3, :3] += lam
    return c


def stiffness_bounds(materials) -> tuple[float, float]:
    """Smallest and largest stiffness eigenvalue over a list of 6x6 matrices.

    The pair (C_minus, C_plus) bounds eps:C:eps between C_minus*|eps|^2 and
    C_plus*|eps|^2 for every phase.  Rejects non-symmetric or
    non-positive-definite input.
    """
    mats = [np.asarray(c, dtype=float) for c in materials]
    if not mats:
        raise ValueError("need at least one material")
    c_minus = np.inf
    c_plus = -np.inf
    for c in mats:
        if c.shape != (6, 6) or not np.allclose(c, c.T, rtol=1e-12, atol=1e-12):
            raise ValueError("stiffness matrix must be symmetric 6x6")
        ev = np.linalg.eigvalsh(c)
        if ev[0] <= 0.0:
            raise ValueError(f"stiffness not positive definite (min eig {ev[0]:g})")
        c_minus = min(c_minus, ev[0])
        c_plus = max(c_plus, ev[-1])
    return float(c_minus), float(c_plus)
