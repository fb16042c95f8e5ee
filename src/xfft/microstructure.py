"""Analytic level-set geometry and phase assignment on the periodic cell.

Each geometric region carries a signed-distance-like level set (inside
positive) plus an inside-phase and outside-phase tag.  Phase lookup walks
the region list in order: the first region whose level set is positive
wins with its inside phase; if none matches, the outside phase of the
last region (or the assembly background) applies.  Near an interface the
magnitude of the level set approximates the distance to it, which is all
the enrichment machinery relies on.

Periodicity: sphere distances use the minimum-image convention per axis,
which is exact only while the radius stays below half the cell on every
axis; `check_cell` rejects larger spheres.  A single plane
cannot partition a periodic cell, so the plane level set is the centered
triangle wave along the normal: the zero set consists of the requested
plane and its conjugate half a period away, bounding a half-cell slab.
That wave is periodic on the cell only for a normal along a coordinate
axis, so other normals are rejected, as are spheres of radius <= 0.
"""

from dataclasses import dataclass, field

import numpy as np


def _wrap_delta(d, period):
    """Minimum-image displacement: wrap d into [-period/2, period/2)."""
    return d - period * np.round(np.asarray(d, dtype=float) / period)


@dataclass(frozen=True)
class Plane:
    """Half-period slab bounded by the plane through `point` with `normal`."""

    point: tuple
    normal: tuple

    def __post_init__(self):
        if np.count_nonzero(np.asarray(self.normal, dtype=float)) != 1:
            raise ValueError(
                f"plane normal must lie along a coordinate axis, got {self.normal}"
            )

    def distance(self, x, lengths):
        n = np.asarray(self.normal, dtype=float)
        n = n / np.linalg.norm(n)
        # period of the cell along the (axis-aligned) normal
        period = float(np.abs(n) @ np.asarray(lengths, dtype=float))
        s = (np.asarray(x, dtype=float) - np.asarray(self.point, dtype=float)) @ n
        # triangle wave: zero at the plane and at the conjugate plane period/2
        # away; positive on the near side, continuous across the cell seam
        sc = s - period * np.round((s - period / 4.0) / period) - period / 4.0
        return period / 4.0 - np.abs(sc)


@dataclass(frozen=True)
class Sphere:
    """Sphere with inside-positive signed distance r - |x - c|."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")

    def distance(self, x, lengths):
        x = np.asarray(x, dtype=float)
        d = _wrap_delta(x - np.asarray(self.center, dtype=float), np.asarray(lengths))
        return self.radius - np.linalg.norm(d, axis=-1)


@dataclass(frozen=True)
class SphereUnion:
    """Union of spheres; signed distance is the max over the members."""

    spheres: tuple

    def distance(self, x, lengths):
        dists = [s.distance(x, lengths) for s in self.spheres]
        return np.max(dists, axis=0)


@dataclass(frozen=True)
class Region:
    """Level-set geometry tagged with its inside and outside phase index."""

    shape: object
    inside_phase: int
    outside_phase: int


@dataclass
class PhaseAssembly:
    """Ordered regions over a background phase.

    Precedence is first-match-wins on the inside of each region; points
    inside no region take the outside phase of the last region, or
    `background` when the region list is empty.
    """

    regions: list = field(default_factory=list)
    background: int = 0

    @property
    def n_interfaces(self):
        return len(self.regions)

    def eval(self, index, x, lengths):
        """Signed distance of region `index` at point(s) x (inside positive)."""
        return self.regions[index].shape.distance(x, lengths)

    def phase_of(self, inside):
        """Int8 phase from per-region inside flags (n_regions, ...).

        The regions are assigned in reverse order, so the first region whose
        flag is set wins; where none is, the last region's outside phase (or
        `background`) stays.
        """
        last = self.regions[-1].outside_phase if self.regions else self.background
        out = np.full(inside.shape[1:], last, dtype=np.int8)
        for reg, flag in zip(self.regions[::-1], inside[::-1]):
            out[flag] = reg.inside_phase
        return out

    def phase_at(self, x, lengths):
        """Phase index at point(s) x; vectorized over leading axes of x."""
        x = np.asarray(x, dtype=float)
        inside = np.empty((self.n_interfaces,) + x.shape[:-1], dtype=bool)
        for k in range(self.n_interfaces):
            inside[k] = self.eval(k, x, lengths) > 0.0
        out = self.phase_of(inside)
        return int(out) if x.ndim == 1 else out


def check_cell(assembly: PhaseAssembly, lengths):
    """Raise ValueError for a sphere, or union member, with r >= L_a / 2.

    Beyond that radius a sphere meets its own periodic image on axis a,
    where the minimum-image distance no longer describes it.
    """
    half = 0.5 * min(lengths)
    for i, reg in enumerate(assembly.regions):
        for s in getattr(reg.shape, "spheres", (reg.shape,)):
            if isinstance(s, Sphere) and not s.radius < half:
                raise ValueError(
                    f"region {i}: sphere radius {s.radius:g} must be below half the "
                    f"shortest cell length ({half:g})"
                )


SNAP_ETA = 1e-8


def sample_nodal(assembly: PhaseAssembly, grid) -> np.ndarray:
    """Sample every interface level set at the grid nodes.

    Returns an array of shape (n_interfaces, N1, N2, N3).  Nodal values
    with magnitude below SNAP_ETA * h_min are replaced by +SNAP_ETA * h_min
    so that downstream cut-case enumeration sees strict signs only; the
    induced geometry perturbation is far below discretization error.
    """
    nodes = grid.node_coords()
    snap = SNAP_ETA * min(grid.h)
    fields = np.empty((assembly.n_interfaces,) + tuple(grid.n))
    for k in range(assembly.n_interfaces):
        vals = assembly.eval(k, nodes, grid.lengths)
        vals = np.where(np.abs(vals) < snap, snap, vals)
        fields[k] = vals
    return fields
