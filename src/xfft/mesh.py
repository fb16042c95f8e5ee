"""Periodic voxel grid, six-tetrahedra topology and degree-of-freedom layout.

Every voxel is split into the same six positively oriented tetrahedra
sharing the main diagonal from corner (0,0,0) to corner (1,1,1) (Kuhn
subdivision, one fixed orientation for all voxels so the constant
coefficient operator stays translation invariant).  Nodes sit on voxel
corners and are identified periodically; fields are stored node-major
with the z index fastest and the three displacement components last.
`corner_nodes` is the one place that turns voxels and corner offsets into
these periodic node ids.
"""

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Periodic voxel grid: n voxels per axis, cell lengths in micrometers."""

    n: tuple
    lengths: tuple

    def __post_init__(self):
        if len(self.n) != 3 or len(self.lengths) != 3:
            raise ValueError("grid needs three axes")
        if any(int(k) < 2 for k in self.n):
            raise ValueError(f"need at least 2 voxels per axis, got {self.n}")
        if any(l <= 0 for l in self.lengths):
            raise ValueError(f"cell lengths must be positive, got {self.lengths}")
        object.__setattr__(self, "n", tuple(int(k) for k in self.n))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))

    @property
    def h(self):
        return tuple(l / k for l, k in zip(self.lengths, self.n))

    @property
    def n_nodes(self):
        n1, n2, n3 = self.n
        return n1 * n2 * n3

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    def node_coords(self):
        """(N1, N2, N3, 3) physical node positions."""
        xs = [np.arange(self.n[a]) * self.h[a] for a in range(3)]
        return np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)


# Corner numbering of the unit voxel: corner (a, b, c) -> a + 2b + 4c.
CORNER_OFFSETS = np.array([[a, b, c] for c in (0, 1) for b in (0, 1) for a in (0, 1)])


def _kuhn_tets():
    """Six tets of the unit voxel, each listed as 4 corner ids, oriented."""
    tets = []
    for perm in itertools.permutations((0, 1, 2)):
        verts = np.zeros((4, 3), dtype=int)
        verts[1] = np.eye(3, dtype=int)[perm[0]]
        verts[2] = verts[1] + np.eye(3, dtype=int)[perm[1]]
        verts[3] = (1, 1, 1)
        det = np.linalg.det((verts[1:] - verts[0]).astype(float))
        if det < 0:
            verts[[1, 2]] = verts[[2, 1]]
        tets.append(verts @ [1, 2, 4])
    return np.array(tets), list(itertools.permutations((0, 1, 2)))


@dataclass(frozen=True)
class ElementTopology:
    """Fixed table of six tetrahedra per voxel.

    corners[t] holds the 4 local voxel-corner ids of tet t; offsets[t] the
    corresponding (a, b, c) lattice offsets.  Tet t covers the region of
    the unit voxel where xi_{perm[t][0]} >= xi_{perm[t][1]} >= xi_{perm[t][2]}.
    """

    corners: np.ndarray
    offsets: np.ndarray
    perms: tuple

    @property
    def n_tets(self):
        return 6


def build_topology() -> ElementTopology:
    corners, perms = _kuhn_tets()
    return ElementTopology(
        corners=corners, offsets=CORNER_OFFSETS[corners], perms=tuple(perms)
    )


def tet_vertices(topo: ElementTopology, grid: Grid, ttype: int) -> np.ndarray:
    """Physical vertices (4, 3) of tet `ttype` in the voxel at the origin."""
    return topo.offsets[ttype] * np.asarray(grid.h)


def corner_nodes(voxels, offsets, n):
    """Flat periodic node ids (m, k) of k corners of the voxels `voxels` (m, 3).

    `offsets` holds the corner offsets, (k, 3) shared by every voxel or
    (m, k, 3) per voxel.  Node (i, j, k) has id (i * N2 + j) * N3 + k, each
    index wrapped into the cell.  The ids are formed one corner at a time.
    """
    n1, n2, n3 = n
    offsets = np.asarray(offsets)
    out = np.empty((len(voxels), offsets.shape[-2]), dtype=np.intp)
    for l in range(out.shape[1]):
        i, j, k = (voxels + offsets[..., l, :]).T
        out[:, l] = (i % n1 * n2 + j % n2) * n3 + k % n3
    return out


def corner_fields(nodal: np.ndarray, topo: ElementTopology, ttype: int):
    """Values of a nodal field at the 4 corners of tet `ttype` of every voxel.

    `nodal` has shape (..., N1, N2, N3); the result is a list of 4 arrays of
    the same shape, entry l holding the field at corner l of the tet (the
    voxel index is the voxel's origin corner).
    """
    out = []
    for a, b, c in topo.offsets[ttype]:
        out.append(np.roll(nodal, shift=(-a, -b, -c), axis=(-3, -2, -1)))
    return out


@dataclass
class DofLayout:
    """Node indexing plus the enriched-node bookkeeping.

    enr_index maps node -> dense enriched slot (-1 when not enriched).
    cut_region[t] identifies, per voxel, the single interface cutting tet t
    (-1: uncut, -2: more than one interface, routed to the fallback path).
    """

    grid: Grid
    enr_index: np.ndarray
    n_x: int
    cut_region: np.ndarray
    n_multi_interface: int

    @property
    def n_dofs(self):
        return 3 * (self.grid.n_nodes + self.n_x)


def detect_enrichment(nodal: np.ndarray, topo: ElementTopology, grid: Grid) -> DofLayout:
    """Mark cut elements and collect the enriched node set.

    A tet is cut by interface k when its 4 nodal values of field k carry
    mixed signs (values are snapped, so no zeros occur).  Tets cut by more
    than one interface are excluded from enrichment and counted.
    """
    nodal = np.asarray(nodal)
    if nodal.ndim == 3:
        nodal = nodal[None]
    n_regions = nodal.shape[0]
    shape = tuple(grid.n)
    cut_region = np.full((topo.n_tets,) + shape, -1, dtype=np.int8)
    n_cut_fields = np.zeros((topo.n_tets,) + shape, dtype=np.int8)
    for t in range(topo.n_tets):
        for k in range(n_regions):
            vals = corner_fields(nodal[k], topo, t)
            pos = np.zeros(shape, dtype=bool)
            neg = np.zeros(shape, dtype=bool)
            for v in vals:
                pos |= v > 0
                neg |= v < 0
            mixed = pos & neg
            cut_region[t][mixed] = k
            n_cut_fields[t] += mixed
        cut_region[t][n_cut_fields[t] > 1] = -2

    enriched = np.zeros(shape, dtype=bool)
    for t in range(topo.n_tets):
        is_cut = cut_region[t] >= 0
        if not is_cut.any():
            continue
        for a, b, c in topo.offsets[t]:
            enriched |= np.roll(is_cut, shift=(a, b, c), axis=(0, 1, 2))

    enr_index = np.full(shape, -1, dtype=np.int64)
    n_x = int(enriched.sum())
    enr_index[enriched] = np.arange(n_x)
    n_multi = int((cut_region == -2).sum())
    return DofLayout(
        grid=grid,
        enr_index=enr_index,
        n_x=n_x,
        cut_region=cut_region,
        n_multi_interface=n_multi,
    )
