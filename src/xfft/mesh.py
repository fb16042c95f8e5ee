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
import numbers
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
        if not all(isinstance(k, numbers.Integral) and type(k) is not bool for k in self.n):
            raise ValueError(f"voxel counts must be integers, got {self.n}")
        if any(k < 2 for k in self.n):
            raise ValueError(f"need at least 2 voxels per axis, got {self.n}")
        if not all(type(l) is not bool and 0 < l < np.inf for l in self.lengths):
            raise ValueError(f"cell lengths must be positive and finite, got {self.lengths}")
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


@dataclass
class DofLayout:
    """Enriched-node bookkeeping and the numbering of the flat dof vector.

    enr_index maps node -> dense enriched slot (-1 when not enriched).
    cut_region[t] identifies, per voxel, the single interface cutting tet t
    (-1: uncut, -2: more than one interface, routed to the fallback path).
    The flat dof vector holds three dofs per id: id i < n_nodes is grid node
    i, id n_nodes + s is enriched slot s, and component c of id i is dof
    3 i + c.  No other code knows these rules.
    """

    grid: Grid
    enr_index: np.ndarray
    n_x: int
    cut_region: np.ndarray
    n_multi_interface: int

    @property
    def n_ids(self):
        return self.grid.n_nodes + self.n_x

    @property
    def n_dofs(self):
        return 3 * self.n_ids

    def enr_ids(self, slots):
        return self.grid.n_nodes + slots

    def dofs(self, ids, comp):
        """Flat dofs of components `comp` of the ids, broadcast together."""
        return 3 * ids + comp

    def views(self, data):
        """Grid (N1, N2, N3, 3) and enriched (n_x, 3) views of a flat vector."""
        by_id = data.reshape(self.n_ids, 3)
        return by_id[: self.grid.n_nodes].reshape(self.grid.n + (3,)), by_id[self.grid.n_nodes :]


def detect_enrichment(nodal: np.ndarray, topo: ElementTopology, grid: Grid) -> DofLayout:
    """Mark cut elements and collect the enriched node set.

    A tet is cut by interface k when its 4 nodal values of field k
    (`nodal` is (n_interfaces, N1, N2, N3)) carry mixed signs (values are
    snapped, so no zeros occur).  Tets cut by more than one interface are
    excluded from enrichment and counted.
    """
    shape = tuple(grid.n)
    cut_region = np.full((topo.n_tets,) + shape, -1, dtype=np.int8)
    n_cut_fields = np.zeros((topo.n_tets,) + shape, dtype=np.int8)
    for k, field in enumerate(nodal):
        # the field's signs at the 8 corners of every voxel (its origin corner)
        sign = np.sign(field).astype(np.int8)
        at_corner = np.stack([np.roll(sign, -off, axis=(0, 1, 2)) for off in CORNER_OFFSETS])
        for t, corners in enumerate(topo.corners):
            signs = at_corner[corners]
            mixed = (signs.max(axis=0) > 0) & (signs.min(axis=0) < 0)
            cut_region[t][mixed] = k
            n_cut_fields[t] += mixed
    cut_region[n_cut_fields > 1] = -2

    # a node is enriched when a cut tet of any voxel has it as a corner
    is_cut = cut_region >= 0
    enriched = np.zeros(shape, dtype=bool)
    for l, off in enumerate(CORNER_OFFSETS):
        near = np.any(is_cut[(topo.corners == l).any(axis=1)], axis=0)
        if near.any():
            enriched |= np.roll(near, off, axis=(0, 1, 2))

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
