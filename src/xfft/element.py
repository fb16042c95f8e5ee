"""P1 element kernels: shape gradients, interface enrichment, cut-cell
quadrature and the assembly of the cell's operator.

Element degrees of freedom are ordered node-major, component-minor: slots
0..11 hold the four standard nodal displacements, slots 12..23 (enriched
elements only) the four enriched nodal displacements.  All strain-like
rows use the Mandel convention of :mod:`xfft.voigt`.

Interfaces inside an element are linearized from the nodal level-set
values and the element is cut into subtetrahedra on either side.  Sliver
subtets below 1e-12 of the parent volume are dropped and the remaining
weights renormalized, since weights at round-off scale destabilize the
internal scaling factors.  The per-element reference path integrates each
subtet with the four-point symmetric simplex rule, which is degree-2 exact
and therefore integrates the (at most quadratic) stiffness integrands
without error.

The vectorized path forms a cut element's matrices from moments instead of
points.  The strain rows of the 12 standard dofs are the constant P1
matrix B of the tet type, and on either side of the interface the enriched
gradients are linear in the parent barycentric coordinates lam.  Each side
therefore enters only through int lam lam^T (4 x 4) and int lam, summed in
closed form over its subtets; the enriched block A_xx, the enriched load
factor, the scaling integrals and the integrated stiffness cv follow from
these moments with a few small products per element, and the standard
blocks (A_uu = B^T cv B, A_ux and the load factor B^T cv) from cv and the
enriched load factor.

No element matrix is kept.  Uncut voxels share one 24-dof stencil per
phase.  Cut elements are assembled a chunk at a time, and each chunk is
summed into the block-sparse "special" operator before the next one is
formed; the internal scaling, a per-dof factor, is applied once to the
sum.  Tests and diagnostics that want a cut element's matrices or the
quadrature record get them recomputed on first access.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .mesh import CORNER_OFFSETS, DofLayout, ElementTopology, Grid, corner_nodes
from .voigt import MANDEL_PAIRS, SQRT2

# degree-2 symmetric 4-point simplex rule: equal weights V/4 at the four
# permutations of barycentric (a, b, b, b)
SH_A = 0.5854101966249685  # (5 + 3*sqrt(5)) / 20
SH_B = 0.1381966011250105  # (5 - sqrt(5)) / 20
SH_BARY = np.full((4, 4), SH_B)
np.fill_diagonal(SH_BARY, SH_A)

DEGENERATE_REL_VOLUME = 1e-12
SCALE_DROP_THRESHOLD = 1e-300


def p1_grads(verts: np.ndarray) -> np.ndarray:
    """Constant gradients (4, 3) of the barycentric shape functions."""
    verts = np.asarray(verts, dtype=float)
    d = (verts[1:] - verts[0]).T
    det = np.linalg.det(d)
    scale = np.max(np.abs(verts[1:] - verts[0]))
    if abs(det) < 1e-12 * scale**3:
        raise ValueError("degenerate tetrahedron")
    g = np.empty((4, 3))
    g[1:] = np.linalg.inv(d)
    g[0] = -g[1:].sum(axis=0)
    return g


def barycentric(verts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (..., 4) of points x inside tet `verts`."""
    verts = np.asarray(verts, dtype=float)
    x = np.asarray(x, dtype=float)
    d = (verts[1:] - verts[0]).T
    lam123 = (x - verts[0]) @ np.linalg.inv(d).T
    lam = np.empty(x.shape[:-1] + (4,))
    lam[..., 1:] = lam123
    lam[..., 0] = 1.0 - lam123.sum(axis=-1)
    return lam


def shunn_ham_4(verts: np.ndarray):
    """Four-point degree-2 quadrature: points (4, 3) and weights (4,)."""
    verts = np.asarray(verts, dtype=float)
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    return SH_BARY @ verts, np.full(4, vol / 4.0)


def b_matrix(grads: np.ndarray) -> np.ndarray:
    """Strain-displacement matrix (..., 6, 3*n) from n scalar gradients (..., n, 3).

    Column 3*i + c is the Mandel vector of the symmetrized gradient of a
    displacement field N_i(x) e_c whose scalar gradient is grads[i].
    """
    g = np.asarray(grads, dtype=float)
    n = g.shape[-2]
    out = np.zeros(g.shape[:-2] + (6, n, 3))
    for a, (i, j) in enumerate(MANDEL_PAIRS):
        if i == j:
            out[..., a, :, i] = g[..., i]
        else:
            out[..., a, :, i] = g[..., j] / SQRT2
            out[..., a, :, j] = g[..., i] / SQRT2
    return out.reshape(g.shape[:-2] + (6, 3 * n))


def tet_table(topo: ElementTopology, grid: Grid):
    """Vertices (6, 4, 3) in the voxel at the origin, shape gradients
    (6, 4, 3) and strain matrices (6, 6, 12) of the six tet types."""
    verts = topo.offsets * np.asarray(grid.h)
    grads = np.array([p1_grads(v) for v in verts])
    return verts, grads, b_matrix(grads)


def tet_points(topo: ElementTopology, grid: Grid, ttype, voxels) -> np.ndarray:
    """Four-point rule positions (m, 4, 3) of the elements of types `ttype`
    (m,) in the voxels `voxels` (m, 3)."""
    verts, _, _ = tet_table(topo, grid)
    return (SH_BARY @ verts)[ttype] + voxels[:, None, :] * np.asarray(grid.h)


def sym_grad_cols(g: np.ndarray) -> np.ndarray:
    """Mandel columns (..., 6, 3) of sym(e_c (x) g) for the three components.

    Column c is the Mandel vector of the symmetrized gradient of a
    displacement field N(x) e_c whose scalar gradient is g.
    """
    return b_matrix(np.asarray(g, dtype=float)[..., None, :])


def modified_abs(levels: np.ndarray, verts: np.ndarray, x: np.ndarray):
    """Modified abs enrichment at x: value and the gradient on x's side.

    rho(x) = sum_i N_i |L_i| - |sum_i N_i L_i|; piecewise linear over the
    two sides of the linearized interface and identically zero when all
    nodal values share one sign.
    """
    levels = np.asarray(levels, dtype=float)
    lam = barycentric(verts, x)
    lh = lam @ levels
    side = 1.0 if lh >= 0.0 else -1.0
    value = lam @ np.abs(levels) - abs(lh)
    grads = p1_grads(verts)
    grad = grads.T @ (np.abs(levels) - side * levels)
    return value, grad


# ---------------------------------------------------------------------------
# cut-tetrahedron subdivision (single linearized interface)
# ---------------------------------------------------------------------------


def _prism_tets(a, b):
    """Split the wedge with triangular faces a=(a0,a1,a2), b=(b0,b1,b2)."""
    return [(a[0], a[1], a[2], b[0]), (a[1], a[2], b[0], b[1]), (a[2], b[0], b[1], b[2])]


def _build_cut_templates():
    """Subtet templates per sign pattern (bit i set <=> L_i > 0).

    Vertex specs are either a node index or an edge pair (i, j) meaning the
    zero crossing at t = L_i / (L_i - L_j) from node i towards node j.
    """
    table = {}
    for code in range(16):
        pos = [i for i in range(4) if code >> i & 1]
        neg = [i for i in range(4) if not code >> i & 1]
        if not pos or not neg:
            table[code] = [((0, 1, 2, 3), 1 if pos else -1)]
        elif len(neg) == 1 or len(pos) == 1:
            apex, others, apex_side = (
                (neg[0], pos, -1) if len(neg) == 1 else (pos[0], neg, 1)
            )
            cuts = [(apex, o) for o in others]
            subs = [((apex, cuts[0], cuts[1], cuts[2]), apex_side)]
            subs += [(t, -apex_side) for t in _prism_tets(tuple(others), tuple(cuts))]
            table[code] = subs
        else:
            a, b = neg
            c, d = pos
            eac, ead, ebc, ebd = (a, c), (a, d), (b, c), (b, d)
            subs = [(t, -1) for t in _prism_tets((a, eac, ead), (b, ebc, ebd))]
            subs += [(t, 1) for t in _prism_tets((c, eac, ebc), (d, ead, ebd))]
            table[code] = subs
    return table


CUT_TEMPLATES = _build_cut_templates()


def _sign_code(levels):
    return int(sum(1 << i for i in range(4) if levels[i] > 0.0))


def _template_bary(template, levels):
    """Barycentric vertex matrices (..., n_sub, 4, 4) of template instances.

    `levels` (..., 4) holds the nodal level-set values of each instance.
    """
    levels = np.asarray(levels, dtype=float)
    bary = np.zeros(levels.shape[:-1] + (len(template), 4, 4))
    for si, (spec, _) in enumerate(template):
        for vi, vs in enumerate(spec):
            if isinstance(vs, tuple):
                i, j = vs
                t = levels[..., i] / (levels[..., i] - levels[..., j])
                bary[..., si, vi, i] = 1.0 - t
                bary[..., si, vi, j] = t
            else:
                bary[..., si, vi, vs] = 1.0
    return bary


@dataclass(frozen=True)
class SubTet:
    """One single-phase piece of a cut tetrahedron."""

    vertices: np.ndarray
    side: int  # sign of the interpolated level set on this piece
    volume: float


def cut_tet(verts: np.ndarray, levels: np.ndarray) -> list:
    """Subdivide a tet along the linearized zero level set.

    Uncut input returns the tet itself; one minority sign gives 4 subtets,
    the two-two pattern 6.  Degenerate slivers are dropped and the kept
    volumes renormalized so they sum to the parent volume.
    """
    verts = np.asarray(verts, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if np.any(levels == 0.0):
        raise ValueError("nodal level values must be snapped away from zero")
    template = CUT_TEMPLATES[_sign_code(levels)]
    parent_vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    bary = _template_bary(template, levels)
    sub_verts = bary @ verts
    vols = np.abs(np.linalg.det(sub_verts[:, 1:] - sub_verts[:, :1])) / 6.0
    keep = vols >= DEGENERATE_REL_VOLUME * parent_vol
    factor = parent_vol / vols[keep].sum()
    return [
        SubTet(vertices=sub_verts[i], side=template[i][1], volume=vols[i] * factor)
        for i in np.nonzero(keep)[0]
    ]


# ---------------------------------------------------------------------------
# single-element assembly (reference implementation; the cache builder below
# is the vectorized production path and is tested against this one)
# ---------------------------------------------------------------------------


@dataclass
class ElementMatrices:
    """Element matrices: stiffness, load factor and integrated stiffness.

    The transpose of `bfac` maps the element dofs to volume-integrated
    stress.
    """

    a: np.ndarray  # (nd, nd) symmetric PSD
    bfac: np.ndarray  # (nd, 6), load vector is bfac @ eps_bar
    cv: np.ndarray  # (6, 6) volume-integrated stiffness


def assemble_plain(verts, stiffness) -> ElementMatrices:
    """Uncut single-phase P1 element (12 dofs, constant strain)."""
    verts = np.asarray(verts, dtype=float)
    c = np.asarray(stiffness, dtype=float)
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    b = b_matrix(p1_grads(verts))
    return ElementMatrices(a=vol * b.T @ c @ b, bfac=vol * b.T @ c, cv=vol * c)


def enrichment_quadrature(verts, levels):
    """Quadrature data of a cut element.

    Yields (points, weights, lam, gx, side) per subtet, where lam (4, 4)
    holds the parent barycentric coordinates of the 4 quadrature points and
    gx (4, 4, 3) the gradient of the unscaled enriched function of each
    node at each point.
    """
    verts = np.asarray(verts, dtype=float)
    levels = np.asarray(levels, dtype=float)
    grads = p1_grads(verts)
    out = []
    for sub in cut_tet(verts, levels):
        points = SH_BARY @ sub.vertices
        weights = np.full(4, sub.volume / 4.0)
        lam = barycentric(verts, points)
        coef = np.abs(levels) - sub.side * levels
        rho = lam @ coef
        grho = grads.T @ coef
        gx = rho[:, None, None] * grads[None] + lam[..., None] * grho[None, None]
        out.append((points, weights, lam, gx, sub.side))
    return out


def d0_element(verts, levels) -> np.ndarray:
    """Per-node, per-component scaling integrals of one cut element.

    Entry (j, a) is the element's contribution to the squared L2 norm of
    the symmetrized gradient of the unscaled enriched function N_X^j e_a,
    using the identity |sym(e_a (x) g)|^2 = |g|^2 / 2 + g_a^2 / 2.
    """
    d = np.zeros((4, 3))
    for _, weights, _, gx, _ in enrichment_quadrature(verts, levels):
        gsq = (gx**2).sum(axis=-1)  # (4 qp, 4 nodes)
        d += 0.5 * np.einsum("q,qj->j", weights, gsq)[:, None]
        d += 0.5 * np.einsum("q,qja->ja", weights, gx**2)
    return d


def assemble_enriched(verts, levels, stiff_plus, stiff_minus, scale) -> ElementMatrices:
    """Cut P1 element with modified-abs enrichment (24 dofs).

    `scale` (4, 3) holds the per-dof internal scaling applied to the
    enriched columns (1/sqrt(D0); zero removes a dropped dof).
    """
    bfe = b_matrix(p1_grads(verts))
    scale = np.asarray(scale, dtype=float)
    a = np.zeros((24, 24))
    bfac = np.zeros((24, 6))
    cv = np.zeros((6, 6))
    for _, weights, _, gx, side in enrichment_quadrature(verts, levels):
        c = np.asarray(stiff_plus if side > 0 else stiff_minus, dtype=float)
        bx = b_matrix(gx) * scale.reshape(12)  # (4qp, 6, 12)
        b = np.concatenate([np.broadcast_to(bfe, (4, 6, 12)), bx], axis=2)
        wc = weights[:, None, None] * c
        a += np.einsum("qci,qcd,qdj->ij", b, wc, b)
        bfac += np.einsum("qci,qcd->id", b, wc)
        cv += weights.sum() * c
    return ElementMatrices(a=a, bfac=bfac, cv=cv)


# ---------------------------------------------------------------------------
# vectorized cache construction for the whole cell
# ---------------------------------------------------------------------------


@dataclass
class ElementCaches:
    """Per-element data of one discretized cell.

    Uncut single-phase ("regular") elements share the strain-displacement
    matrix of their tet type and the stiffness of their phase, the
    `base_phase` of their voxel.  Cut elements (24 dofs) and
    multi-interface fallback elements (12 dofs) are the "special" elements.
    `ptype`, the (6, N1, N2, N3) phase of every element with -1 on the
    special ones, is derived on first access and kept, like the arrays
    recomputed below.

    A voxel whose six tets are all regular has one phase, `voxel_phase`
    (-1 on every voxel that holds a special element), and one 24-dof
    stencil (slot 3 * corner + component): `voxel_k[p]` = sum_t V P_t^T
    B_t^T C_p B_t P_t and the stress map `voxel_s[p]` = sum_t V C_p B_t
    P_t, whose transpose is the load map.  The phase with the most regular
    voxels is the majority phase m, `majority`.  Its operator A_m on every
    voxel is a periodic convolution, applied by FFT, and it carries no load
    and no stress, because a translation has no strain.  The sweep applies
    the rest: K_p - K_m and S_p - S_m on the regular voxels of the other
    phases, and the special operator.  `minority_dofs` indexes those
    voxels' dofs in the flat dof vector, as the layout's `dofs`, bound at
    build, numbers them: row v lists the dofs of the 8 corners of one
    voxel, in slot order, and the rows are grouped by phase.  It is intp,
    so that numpy indexes with it without a conversion on every sweep.
    `voxel_dofs`, derived on first access and kept, is the same index over
    every regular voxel, phase p in rows `voxel_bounds[p]:voxel_bounds[p + 1]`.

    The special elements and the regular ("plain") tets of the voxels with
    `voxel_phase` -1 are summed once, each minus phase m's plain matrices
    on its tet's 12 grid dofs (one subtraction for every kind of special
    element), into one operator on the flat dof vector, so phase m's plain
    tets drop out: `special_dofs` lists the dofs of the corners of these
    voxels and of the enriched slots, three per id in ascending id order,
    `special_k` is the summed stiffness over those dofs (block-sparse, 3x3
    blocks; its pattern holds the node pairs that share a special element
    or a plain tet of another phase, in both orientations, though the build
    sums each element over one orientation of its pairs alone) and
    `special_load` the summed load map sum_e L_e^T (Bfac_e - V B_e^T C_m),
    whose transpose maps the touched dofs to volume-integrated stress.
    `total_cv` is the volume-integrated stiffness summed over every
    element.

    No cut element keeps its matrices: `cut_a` and `cut_bfac` (internally
    scaled, as `special_k` scales them) are recomputed from `cut_levels`,
    `cut_phases` and `cut_scale` on first access, and so is the quadrature
    record `cut_qp`/`cut_qw` (zero-padded to 24 points), both arrays of a
    pair on first access to either.  They are kept as instance attributes,
    which `nbytes` counts.  The fallback elements are few and keep `mi_a`,
    `mi_bfac` and their quadrature record `mi_qp`/`mi_qw` from the build.
    """

    grid: Grid
    topo: ElementTopology
    stiffness: np.ndarray  # (n_phase, 6, 6)
    grads: np.ndarray  # (6, 4, 3) per tet type
    b_mats: np.ndarray  # (6, 6, 12)
    tet_volume: float
    base_phase: np.ndarray  # (N1, N2, N3) int8, from the level-set signs at the (0,0,0) corner
    voxel_phase: np.ndarray  # (N1, N2, N3) int8, -1 on voxels with a special element
    voxel_bounds: np.ndarray  # (n_phase + 1,) phase p spans [bounds[p], bounds[p + 1])
    majority: int  # phase m, the one with the most regular voxels
    minority_dofs: np.ndarray  # (n_minority_voxels, 24) intp corner dofs, grouped by phase
    dofs: Callable  # the layout's `dofs`, bound at build: the numbering of the indexes
    voxel_k: np.ndarray  # (n_phase, 24, 24)
    voxel_s: np.ndarray  # (n_phase, 6, 24)
    total_cv: np.ndarray  # (6, 6): sum of V_e <C>_e over all elements
    # enriched (single-interface cut) elements
    cut_ttype: np.ndarray
    cut_voxel: np.ndarray  # (n_cut, 3) lattice coords
    cut_enr: np.ndarray  # (n_cut, 4) enriched slots
    cut_region: np.ndarray
    cut_levels: np.ndarray  # (n_cut, 4) nodal values of the cutting interface
    cut_phases: np.ndarray  # (n_cut, 2) int8 phase on the + and - side
    cut_scale: np.ndarray  # (n_cut, 4, 3) applied internal scaling
    # multi-interface fallback elements (assembled without enrichment)
    mi_ttype: np.ndarray
    mi_voxel: np.ndarray
    mi_a: np.ndarray  # (n_mi, 12, 12)
    mi_bfac: np.ndarray  # (n_mi, 12, 6)
    mi_qp: np.ndarray  # (n_mi, 4, 3) quadrature points
    mi_qw: np.ndarray  # (n_mi, 4) quadrature weights
    # the special elements summed into one operator
    special_dofs: np.ndarray  # (3 n_touched,) flat dofs of the touched ids
    special_k: scipy.sparse.bsr_matrix  # (n_touched, n_touched)
    special_load: np.ndarray  # (n_touched, 6)
    # internal scaling diagnostics
    d0: np.ndarray  # (n_x, 3)
    scale: np.ndarray  # (n_x, 3); zero marks a dropped enriched dof
    n_dropped_dofs: int

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached arrays, the special operator's included."""
        k = self.special_k
        arrays = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        arrays += [k.data, k.indices, k.indptr]
        return sum(a.nbytes for a in arrays)

    @property
    def n_cut(self):
        return len(self.cut_ttype)

    @property
    def n_mi(self):
        return len(self.mi_ttype)

    @cached_property
    def voxel_dofs(self) -> np.ndarray:
        """(n_regular_voxels, 24) intp corner dofs of every regular voxel,
        grouped by phase, phase m's rows included."""
        return _voxel_dofs(self.voxel_phase, np.arange(len(self.stiffness)), self.dofs)

    @cached_property
    def ptype(self) -> np.ndarray:
        """(6, N1, N2, N3) int8 phase of every element, -1 on special elements."""
        ptype = np.broadcast_to(self.base_phase, (6,) + self.base_phase.shape).copy()
        ptype[(self.cut_ttype, *self.cut_voxel.T)] = -1
        ptype[(self.mi_ttype, *self.mi_voxel.T)] = -1
        return ptype

    @cached_property
    def cut_a(self) -> np.ndarray:
        """(n_cut, 24, 24) internally scaled cut element stiffnesses."""
        self.cut_a, self.cut_bfac = self._scaled_cut_matrices()
        return self.cut_a

    @cached_property
    def cut_bfac(self) -> np.ndarray:
        """(n_cut, 24, 6) internally scaled cut element load factors."""
        self.cut_a, self.cut_bfac = self._scaled_cut_matrices()
        return self.cut_bfac

    @cached_property
    def cut_qp(self) -> np.ndarray:
        """(n_cut, 24, 3) quadrature points of the cut elements."""
        self.cut_qp, self.cut_qw = self._cut_quadrature()
        return self.cut_qp

    @cached_property
    def cut_qw(self) -> np.ndarray:
        """(n_cut, 24) quadrature weights, zero on padding points."""
        self.cut_qp, self.cut_qw = self._cut_quadrature()
        return self.cut_qw

    def _scaled_cut_matrices(self):
        a = np.empty((self.n_cut, 24, 24))
        bfac = np.empty((self.n_cut, 24, 6))
        args = self.cut_ttype, self.cut_levels, self.cut_phases, self.stiffness
        for ch, out in _cut_kernel(*args, self.grads, self.b_mats, self.tet_volume):
            a[ch], bfac[ch] = out[:2]
        sc = self.cut_scale.reshape(-1, 12)
        a[:, 12:, :] *= sc[:, :, None]
        a[:, :, 12:] *= sc[:, None, :]
        bfac[:, 12:, :] *= sc[:, :, None]
        return a, bfac

    def _cut_quadrature(self):
        h = np.asarray(self.grid.h)
        verts, _, _ = tet_table(self.topo, self.grid)
        qp = np.zeros((self.n_cut, 24, 3))
        qw = np.zeros((self.n_cut, 24))
        for code, ch in _cut_chunks(self.cut_levels):
            ratio, bary = _subtet_fractions(self.cut_levels[ch], CUT_TEMPLATES[code])
            lam_q = SH_BARY @ bary  # parent barycentric coordinates of the points
            pos = np.einsum("msqb,mbv->msqv", lam_q, verts[self.cut_ttype[ch]])
            pos = pos + self.cut_voxel[ch, None, None, :] * h
            n_q = 4 * ratio.shape[1]
            qp[ch, :n_q] = pos.reshape(len(ch), -1, 3)
            qw[ch, :n_q] = np.repeat(self.tet_volume * ratio / 4.0, 4, axis=1)
        return qp, qw

    def cut_slot(self, ttype, voxels):
        """Index into the cut_* arrays of the elements (ttype (m,), voxels
        (m, 3)), -1 where not cut, by a binary search: the cut elements are
        stored in ascending (tet type, voxel) order."""
        keys = np.ravel_multi_index((self.cut_ttype, *self.cut_voxel.T), (6, *self.grid.n))
        key = np.ravel_multi_index((ttype, *voxels.T), (6, *self.grid.n))
        pos = np.searchsorted(keys, key)  # len(keys) past the last: -1 matches no key
        return np.where(np.append(keys, -1)[pos] == key, pos, -1)

    def slot_map(self, kind):
        """(6, N1, N2, N3) int32 element -> index into cut_*/mi_* arrays (-1 none).

        Kept once computed as the attribute `{kind}_slot_map`, which `nbytes` counts.
        """
        name = f"{kind}_slot_map"
        if name not in vars(self):
            tt, vox = getattr(self, f"{kind}_ttype"), getattr(self, f"{kind}_voxel")
            m = np.full((6,) + tuple(self.grid.n), -1, dtype=np.int32)
            m[tt, vox[:, 0], vox[:, 1], vox[:, 2]] = np.arange(len(tt))
            setattr(self, name, m)
        return vars(self)[name]


def _voxel_dofs(voxel_phase, phases, dofs):
    """(n, 24) intp flat dofs, numbered by `dofs`, of the 8 corners of the
    regular voxels of `phases`, phase by phase, each phase's voxels in
    ascending order.  Filled one corner at a time: column 3 * corner +
    component holds that component's dof of the corner's node, the corners
    in `CORNER_OFFSETS` order."""
    vflat = voxel_phase.ravel()
    ids = np.flatnonzero(np.isin(vflat, phases))
    ids = ids[np.argsort(vflat[ids], kind="stable")]
    voxels = np.stack(np.unravel_index(ids, voxel_phase.shape), axis=1)
    # freed before the fill: the voxel order kept to the end of the build
    # raised the peak RSS of a hashin N=128 build from 1189 to 1204 MB
    del ids
    out = np.empty((len(voxels), 24), dtype=np.intp)
    for corner, offset in enumerate(CORNER_OFFSETS):
        nodes = corner_nodes(voxels, offset[None], voxel_phase.shape)[:, 0]
        for comp in range(3):
            out[:, 3 * corner + comp] = dofs(nodes, comp)
    return out


def _elements(mask):
    """Tet types (m,) int8 and voxels (m, 3) of the elements set in `mask`
    (6, N1, N2, N3), in canonical (type, voxel) order."""
    ttype, *voxel = np.nonzero(mask)
    return ttype.astype(np.int8), np.stack(voxel, axis=1)


def _subtet_ratio(bary):
    """Volume fractions (...,) of subtets with barycentric vertices (..., 4, 4).

    The determinant of a vertex matrix whose rows sum to one equals the
    3x3 determinant of its vertex differences, taken here in closed form.
    """
    d = bary[..., 1:, 1:] - bary[..., :1, 1:]
    return np.abs(
        d[..., 0, 0] * (d[..., 1, 1] * d[..., 2, 2] - d[..., 1, 2] * d[..., 2, 1])
        - d[..., 0, 1] * (d[..., 1, 0] * d[..., 2, 2] - d[..., 1, 2] * d[..., 2, 0])
        + d[..., 0, 2] * (d[..., 1, 0] * d[..., 2, 1] - d[..., 1, 1] * d[..., 2, 0])
    )


def _subtet_fractions(levels, template):
    """Kept volume fractions (m, S) and barycentric vertex matrices
    (m, S, 4, 4) of the subtets of one sign pattern: slivers
    below `DEGENERATE_REL_VOLUME` are dropped and the rest renormalized."""
    bary = _template_bary(template, levels)
    ratio = _subtet_ratio(bary)
    ratio[ratio < DEGENERATE_REL_VOLUME] = 0.0
    ratio /= ratio.sum(axis=1, keepdims=True)
    return ratio, bary


def _stiffness_gathers():
    """Flat indices into the stacked side stiffnesses (72,) = (2, 6, 6), and
    weights, of the two tensor forms of C_s that `_cut_matrices` needs.

    The Mandel vector of sym(e_c (x) e_a) is w_ac e_r(a, c), with w 1 on the
    diagonal (r = a) and 1/sqrt(2) off it, so that E^T C_s E and C_s E are
    gathers of C_s.  Returns the (9, 18) index and weight of
    K[(c, d), (s, a, b)] = w_ac w_bd C_s[r(a, c), r(b, d)] and the (6, 18)
    index and weight of X[(s, a), (c, r)] = w_ac C_s[r, r(a, c)].
    """
    sym = b_matrix(np.eye(3))  # column 3 a + c: Mandel vector of sym(e_c (x) e_a)
    r = np.abs(sym).argmax(axis=0).reshape(3, 3)
    w = sym.max(axis=0).reshape(3, 3)
    c, d, s, a, b = np.indices((3, 3, 2, 3, 3)).reshape(5, 9, 18)
    k_idx, k_w = 36 * s + 6 * r[a, c] + r[b, d], w[a, c] * w[b, d]
    s, a, c, rr = np.indices((2, 3, 3, 6)).reshape(4, 6, 18)
    return k_idx, k_w, 36 * s + 6 * rr + r[a, c], w[a, c]


_K_IDX, _K_W, _X_IDX, _X_W = _stiffness_gathers()


def _cut_matrices(levels, grads, b_mat, template, c_plus, c_minus, vol_tet):
    """Unscaled matrices of a chunk of cut elements of one sign pattern.

    `c_plus`/`c_minus` (m, 6, 6) are the stiffnesses on either side.  On
    side s the enriched gradients are linear in the parent barycentric
    coordinates lam: gx_i = sum_b lam_b T_s[b, i], with
    T_s[b, i] = coef_s[b] grad N_i + delta_bi grad rho_s and
    coef_s = |L| - s L.  The integrands are therefore quadratic in lam, and
    each side enters only through its moments Lam_s = int lam lam^T (4 x 4)
    and Lam1_s = int lam, summed over its subtets.  With M_s = T_s^T Lam_s
    T_s (12 x 12, index (i, a) of node and gradient component) and
    K_s = E^T C_s E the (9, 9) tensor form of C_s:
    A_xx[(i, c), (j, d)] = sum_s sum_ab K_s[(c, a), (d, b)] M_s[(i, a), (j, b)],
    the enriched load factor is g^T = sum_s Bx(Lam1_s T_s)^T C_s and the
    scaling integrals of `d0_element` are half the component sum plus the
    diagonal of M_+ + M_-.  The 12 standard dofs share the constant strain
    matrix B = `b_mat`, so with cv = sum_s |side s| C_s the load factor is
    Bfac = [B^T cv; g^T] and the first 12 columns of A are Bfac B.
    The tet data `grads` (m, 4, 3) and `b_mat` (m, 6, 12) are per element,
    or shared by the chunk as (4, 3) and (6, 12).
    Returns a (m, 24, 24), bfac (m, 24, 6), cv (m, 6, 6) and the scaling
    integrals (m, 4, 3).
    """
    m = len(levels)
    side_sign = np.array([[1.0], [-1.0]])  # the + side first
    ratio, bary = _subtet_fractions(levels, template)
    n_sub = ratio.shape[1]
    sides = np.array([s for _, s in template])
    wr = ratio[:, None, :] * (sides == side_sign)  # (m, 2, S)
    # subtet k's moments are int lam lam^T = V_k (P^T P + p p^T) / 20 and
    # int lam = V_k p / 4, P its vertex matrix and p its column sums, so
    # Lam_s is one weighted product over the stacked rows of P and p
    colsum = bary.sum(axis=2)  # (m, S, 4)
    rows = np.concatenate([bary.reshape(m, 4 * n_sub, 4), colsum], axis=1)
    row_w = np.concatenate([np.repeat(wr, 4, axis=2), wr], axis=2)  # (m, 2, 5S)
    lam2 = (rows.transpose(0, 2, 1)[:, None] * row_w[:, :, None, :]) @ rows[:, None]
    lam2 *= vol_tet / 20.0
    lam1 = (wr @ colsum) * (vol_tet / 4.0)  # (m, 2, 4)
    side_vol = vol_tet * wr.sum(axis=2)  # (m, 2)

    coef = np.abs(levels)[:, None, :] - side_sign * levels[:, None, :]
    t_mat = coef[..., None, None] * grads[..., None, None, :, :]
    t_mat += np.eye(4)[:, :, None] * (coef @ grads)[:, :, None, None, :]
    t_mat = t_mat.reshape(m, 2, 4, 12)  # [s, b, (i, a)]
    mm = (t_mat.transpose(0, 1, 3, 2) @ lam2 @ t_mat).reshape(m, 2, 4, 3, 4, 3)

    c_flat = np.stack([c_plus, c_minus], axis=1).reshape(m, 72)
    # A_xx as one (9, 18) @ (18, 16) product per element: rows (c, d),
    # columns (i, j), summed over (s, a, b)
    kt = c_flat[:, _K_IDX] * _K_W
    mt = mm.transpose(0, 1, 3, 5, 2, 4).reshape(m, 18, 16)
    axx = (kt @ mt).reshape(m, 3, 3, 4, 4).transpose(0, 3, 1, 4, 2)
    # g^T[(i, c), r] = sum_(s, a) (Lam1_s T_s)[i, a] w_ac C_s[r, r(a, c)]
    h = (lam1[:, :, None, :] @ t_mat).reshape(m, 2, 4, 3).transpose(0, 2, 1, 3)
    gt = (h.reshape(m, 4, 6) @ (c_flat[:, _X_IDX] * _X_W)).reshape(m, 12, 6)

    dm = np.einsum("msjaja->mja", mm)
    d0 = 0.5 * (dm.sum(axis=-1, keepdims=True) + dm)
    cv = side_vol[:, 0, None, None] * c_plus + side_vol[:, 1, None, None] * c_minus
    bfac = np.empty((m, 24, 6))
    bfac[:, :12] = (cv @ b_mat).transpose(0, 2, 1)
    bfac[:, 12:] = gt
    a = np.empty((m, 24, 24))
    a[:, :, :12] = bfac @ b_mat
    a[:, :12, 12:] = a[:, 12:, :12].transpose(0, 2, 1)
    a[:, 12:, 12:] = axx.reshape(m, 12, 12)
    return a, bfac, cv, d0


_CHUNK = 128


def _cut_chunks(levels):
    """Chunks (code, index) of at most `_CHUNK` cut elements of any tet
    type sharing one sign pattern code (bit i set <=> levels[:, i] > 0)."""
    pattern = ((levels > 0) << np.arange(4)).sum(axis=1)
    for code in range(1, 15):
        sel = np.nonzero(pattern == code)[0]
        for lo in range(0, len(sel), _CHUNK):
            yield code, sel[lo : lo + _CHUNK]


def _cut_kernel(ttype, levels, phases, stiffness, grads, b_mats, vol_tet):
    """(index, `_cut_matrices` output) per chunk of `_cut_chunks`, each
    element with the gradients and strain matrix of its tet type."""
    for code, ch in _cut_chunks(levels):
        t, cs = ttype[ch], (stiffness[phases[ch, 0]], stiffness[phases[ch, 1]])
        yield ch, _cut_matrices(levels[ch], grads[t], b_mats[t], CUT_TEMPLATES[code], *cs, vol_tet)


def _pair_entries(k):
    """Indices (9, k (k + 1) / 2) into a flattened (3k, 3k) element matrix:
    row 3 p + q holds entry (p, q) of the blocks of the node pairs l <= l',
    in `np.triu_indices(k)` order."""
    il, jl = np.triu_indices(k)
    p, q = np.divmod(np.arange(9)[:, None], 3)
    return 3 * k * (3 * il + p) + 3 * jl + q


class _SpecialSum:
    """The special operator, summed element chunk by chunk.

    Built from the `DofLayout` ids (m, k) of every kind of special element,
    and from `touched`, a mask over all ids of those it acts on, so that
    its blocks are known before any element matrix is.  An element matrix
    is symmetric and its k nodes are distinct, so only its node-pair blocks
    l <= l' are added, and a key (I, I) comes from l = l' alone.  The sums
    are kept over these "half" keys `hkeys` alone, as 9 planes, one per
    block entry (p, q), so that each `np.add.at` works in one small array.
    `operator` forms the full block pattern once: block (I, J) is the half
    sum keyed (I, J) plus the transpose of the one keyed (J, I).  The corner order of a tet is not
    monotone in the ids, so a node pair may be keyed in both orientations,
    and then both sums meet in one block.
    """

    def __init__(self, nodes, touched):
        local_id = np.cumsum(touched) - 1
        self.touched = np.flatnonzero(touched)
        self.local = [local_id[n] for n in nodes]
        nt = len(self.touched)

        # distinct keys row * nt + col of the pairs l <= l', and the index
        # of each pair among them; each temporary is freed once used
        flat, shapes = [], []
        for loc in self.local:
            il, jl = np.triu_indices(loc.shape[1])
            flat.append((loc[:, il] * nt + loc[:, jl]).ravel())
            shapes.append((len(loc), len(il)))
        self.hkeys, inv = _rank(flat)
        parts = np.split(inv, np.cumsum([m * n for m, n in shapes])[:-1])
        self.inv = [p.reshape(shape) for p, shape in zip(parts, shapes)]
        # one zero column past the sums, for blocks with no sum of their own
        self.planes = np.zeros((9, len(self.hkeys) + 1))
        self.load = np.zeros(18 * nt)

    def add(self, kind, sel, a, bfac):
        """Add the matrices a (m, 3k, 3k) and bfac (m, 3k, 6) of the elements
        `sel` of kind `kind`."""
        loc, inv = self.local[kind][sel], self.inv[kind][sel]
        m, k = loc.shape
        entries = a.reshape(m, 9 * k * k).T[_PAIR_ENTRIES[k]]  # (9, n_pairs, m)
        inv = inv.T.ravel()
        for plane, e in zip(self.planes, entries):
            np.add.at(plane, inv, e.ravel())
        np.add.at(self.load, (18 * loc[:, :, None] + np.arange(18)).ravel(), bfac.ravel())

    def operator(self, node_scale):
        """BSR stiffness and load map over the dofs of `touched`, scaled by
        `node_scale` (n_touched, 3).  Adds no more elements afterwards."""
        del self.local, self.inv
        nt, n_half = len(self.touched), len(self.hkeys)
        rows, cols = np.divmod(self.hkeys, nt)
        off = np.flatnonzero(rows != cols)
        # the blocks: every half key (I, J) and the transpose (J, I) of
        # every off-diagonal one
        parts = [self.hkeys, cols[off] * nt + rows[off]]
        del rows, cols, self.hkeys
        keys, at = _rank(parts)
        # the half sum each block takes as it is and the one it takes
        # transposed; the zero column n_half where there is none
        direct = np.full(len(keys), n_half)
        direct[at[:n_half]] = np.arange(n_half)
        mirror = np.full(len(keys), n_half)
        mirror[at[n_half:]] = off
        del at, off
        rows, cols = np.divmod(keys, nt)
        del keys
        # K_IJ = S_IJ + S_JI^T, then scaled, a chunk of blocks at a time: no
        # plane is copied whole, and each chunk is written while in cache
        scale = np.ascontiguousarray(node_scale.T)
        blocks = np.empty((len(rows), 3, 3))
        for lo in range(0, len(rows), _KEY_CHUNK):
            ch = slice(lo, lo + _KEY_CHUNK)
            k = self.planes.take(direct[ch], axis=1)
            k += self.planes.take(mirror[ch], axis=1)[_TRANSPOSED]
            k = k.reshape(3, 3, -1)
            k *= scale[:, None, rows[ch]]
            k *= scale[None, :, cols[ch]]
            blocks[ch] = k.transpose(2, 0, 1)
        del direct, mirror, self.planes
        indptr = np.searchsorted(rows, np.arange(nt + 1))
        k_mat = scipy.sparse.bsr_matrix((blocks, cols, indptr), shape=(3 * nt, 3 * nt))
        load = self.load.reshape(nt, 3, 6)
        load *= node_scale[:, :, None]
        return k_mat, load.reshape(3 * nt, 6)


def _rank(parts):
    """The distinct values of the concatenated arrays `parts`, sorted, and
    the index of each of their entries among them.  Empties the list
    `parts`, so that no input outlives the merge."""
    flat = np.concatenate(parts)
    parts.clear()
    order = np.argsort(flat)
    flat = flat[order]
    first = np.concatenate([flat[:1] == flat[:1], flat[1:] != flat[:-1]])
    distinct = flat[first]
    del flat
    rank = np.cumsum(first)
    rank -= 1
    del first
    inv = np.empty_like(rank)
    inv[order] = rank
    return distinct, inv


_PAIR_ENTRIES = {k: _pair_entries(k) for k in (4, 8)}
# plane row 3 q + p of block entry (p, q)
_TRANSPOSED = np.arange(9).reshape(3, 3).T.ravel()
# blocks formed at a time by `_SpecialSum.operator` (295 kB of them)
_KEY_CHUNK = 4096


def build_caches(
    assembly, topo: ElementTopology, layout: DofLayout, nodal: np.ndarray, stiffness
) -> ElementCaches:
    """Assemble the cell's operator: voxel stencils and the special operator.

    Regular voxels get per-phase 24-dof stencils and the majority phase m;
    the cut and fallback ("special") elements and the plain tets of their
    voxels are summed into one operator, see `ElementCaches`, each less
    phase m's plain tet on its 12 grid dofs in one place, `add_less_m`.
    The operator's block pattern comes from node ids alone, so it is set
    up first; the cut elements are then assembled chunk by chunk and each
    chunk is added to the block sums unscaled, before the next one is
    formed.  The internal scaling is a per-dof factor, applied once to the
    summed operator.
    """
    grid = layout.grid
    stiffness = np.asarray(stiffness, dtype=float)
    n_phase = len(stiffness)
    nshape = tuple(grid.n)
    vol_tet = float(np.prod(grid.h)) / 6.0
    _, grads, b_mats = tet_table(topo, grid)

    # base phase per voxel from the nodal level-set signs at its (0,0,0)
    # corner, shared by all six tets: the discrete geometry is then
    # consistently the interpolated one, for cut and uncut elements alike
    base = assembly.phase_of(nodal > 0)

    # ---- structure: cut and fallback elements in canonical (t, voxel)
    # order; they leave the regular pass, and so does every voxel that
    # holds one: its plain tets join the special operator
    region_map = layout.cut_region
    cut_ttype, cut_voxel = _elements(region_map >= 0)
    cut_region = region_map[(cut_ttype, *cut_voxel.T)]
    mi_ttype, mi_voxel = _elements(region_map == -2)
    n_cut = len(cut_ttype)
    n_mi = len(mi_ttype)

    special_voxel = (region_map != -1).any(axis=0)
    voxel_phase = np.where(special_voxel, np.int8(-1), base)
    n_voxels = np.bincount(voxel_phase[voxel_phase >= 0], minlength=n_phase)
    voxel_bounds = np.concatenate([[0], np.cumsum(n_voxels)])
    # A_m, the majority phase's operator on every voxel, is applied by FFT,
    # so every other element here is summed minus phase m's matrices, and
    # phase m's plain tets have nothing left to add
    majority = int(np.argmax(n_voxels))
    plain_ttype, plain_voxel = _elements((region_map == -1) & special_voxel)
    plain_phase = base[tuple(plain_voxel.T)]
    n_plain = np.bincount(plain_phase, minlength=n_phase)
    keep = plain_phase != majority
    plain_ttype, plain_voxel, plain_phase = plain_ttype[keep], plain_voxel[keep], plain_phase[keep]
    plain_nodes = corner_nodes(plain_voxel, topo.offsets[plain_ttype], nshape)
    mi_nodes = corner_nodes(mi_voxel, topo.offsets[mi_ttype], nshape)

    cut_nodes = corner_nodes(cut_voxel, topo.offsets[cut_ttype], nshape)
    cut_enr = layout.enr_index.ravel()[cut_nodes]
    flat_nodal = nodal.reshape(len(nodal), grid.n_nodes)
    cut_levels = flat_nodal[cut_region[:, None], cut_nodes]
    # phase on the + and - side of the cutting interface: the other
    # regions' flags are constant over the element, read at its first node
    inside = flat_nodal[:, cut_nodes[:, 0]] > 0  # (n_regions, n_cut)
    cut_phases = np.empty((n_cut, 2), dtype=np.int8)
    for col, side in enumerate((True, False)):
        inside[cut_region, np.arange(n_cut)] = side
        cut_phases[:, col] = assembly.phase_of(inside)

    # bind each enriched node to the single interface cutting its support;
    # nodes claimed by two interfaces are dropped (scale stays zero)
    claims = np.unique(cut_enr * len(nodal) + cut_region[:, None])
    conflict = np.bincount(claims // len(nodal), minlength=layout.n_x) > 1

    # two kinds of special element: cut (8 ids) and fallback or plain (4);
    # the operator acts on every corner of a special voxel and on every
    # enriched slot, and a corner that only phase-m plain tets hold gets no
    # block
    cut_ids = np.concatenate([cut_nodes, layout.enr_ids(cut_enr)], axis=1)
    touched = np.zeros(layout.n_ids, dtype=bool)
    touched[corner_nodes(np.argwhere(special_voxel), CORNER_OFFSETS, nshape)] = True
    touched[layout.enr_ids(np.arange(layout.n_x))] = True
    special = _SpecialSum([cut_ids, np.concatenate([mi_nodes, plain_nodes])], touched)
    del cut_ids, mi_nodes, plain_nodes, touched
    cv_sum = np.zeros((6, 6))

    # plain element matrices V B^T C B and load maps V B^T C per (tet, phase)
    plain_a = vol_tet * np.einsum("tci,pcd,tdj->tpij", b_mats, stiffness, b_mats)
    plain_bfac = vol_tet * np.einsum("tci,pcd->tpid", b_mats, stiffness)

    def add_less_m(kind, sel, ttype, a, bfac):
        """Add elements less phase m's plain tets `ttype`; overwrites a, bfac."""
        a[:, :12, :12] -= plain_a[ttype, majority]
        bfac[:, :12] -= plain_bfac[ttype, majority]
        special.add(kind, sel, a, bfac)

    # ---- cut elements: the unscaled matrices and the internal scaling
    # integrals, which need the same enriched gradients, one chunk at a time
    d0 = np.zeros((layout.n_x, 3))
    args = cut_ttype, cut_levels, cut_phases, stiffness
    for ch, (a, bfac, cv, d0_e) in _cut_kernel(*args, grads, b_mats, vol_tet):
        add_less_m(0, ch, cut_ttype[ch], a, bfac)
        cv_sum += cv.sum(axis=0)
        np.add.at(d0, cut_enr[ch], d0_e)

    scale = np.zeros((layout.n_x, 3))
    alive = d0 >= SCALE_DROP_THRESHOLD
    scale[alive] = 1.0 / np.sqrt(d0[alive])
    scale[conflict] = 0.0
    n_dropped = int(np.count_nonzero(scale == 0.0))

    # ---- fallback elements: the stiffness averaged over their 4 points
    qpos = tet_points(topo, grid, mi_ttype, mi_voxel)
    ph = assembly.phase_at(qpos.reshape(-1, 3), grid.lengths).reshape(-1, 4)
    cbar = stiffness[ph].mean(axis=1)
    b = b_mats[mi_ttype]
    mi_a = vol_tet * np.einsum("mci,mcd,mdj->mij", b, cbar, b)
    mi_bfac = vol_tet * np.einsum("mci,mcd->mid", b, cbar)
    add_less_m(1, slice(0, n_mi), mi_ttype, mi_a.copy(), mi_bfac.copy())
    cv_sum += vol_tet * cbar.sum(axis=0)

    # plain tets in chunks after the fallback ones, so that their gathered
    # matrices stay small
    for lo in range(0, len(plain_ttype), 8 * _CHUNK):
        ch = slice(lo, lo + 8 * _CHUNK)
        t_ch, p_ch = plain_ttype[ch], plain_phase[ch]
        sel = slice(n_mi + lo, n_mi + lo + 8 * _CHUNK)
        add_less_m(1, sel, t_ch, plain_a[t_ch, p_ch], plain_bfac[t_ch, p_ch])
    cv_sum += vol_tet * np.einsum("p,pcd->cd", n_plain, stiffness)

    # every enriched node belongs to a cut element, so every slot's id is touched
    node_scale = np.ones((len(special.touched), 3))
    node_scale[np.searchsorted(special.touched, layout.enr_ids(np.arange(layout.n_x)))] = scale
    special_k, special_load = special.operator(node_scale)
    special_dofs = layout.dofs(special.touched[:, None], np.arange(3)).ravel()
    del special

    # the plain matrices summed over the six tets of a voxel into its 24-dof
    # stencil K_p and stress map S_p (slot 3 * corner + component)
    voxel_k = np.zeros((n_phase, 24, 24))
    voxel_s = np.zeros((n_phase, 6, 24))
    for t in range(6):
        slots = (3 * topo.corners[t][:, None] + np.arange(3)).ravel()
        voxel_k[:, slots[:, None], slots] += plain_a[t]
        voxel_s[:, :, slots] += plain_bfac[t].transpose(0, 2, 1)
    minority = np.delete(np.arange(n_phase), majority)
    minority_dofs = _voxel_dofs(voxel_phase, minority, layout.dofs)
    total_cv = vol_tet * np.einsum("p,pcd->cd", 6 * n_voxels, stiffness) + cv_sum

    return ElementCaches(
        grid=grid,
        topo=topo,
        stiffness=stiffness,
        grads=grads,
        b_mats=b_mats,
        tet_volume=vol_tet,
        base_phase=base,
        voxel_phase=voxel_phase,
        voxel_bounds=voxel_bounds,
        majority=majority,
        minority_dofs=minority_dofs,
        dofs=layout.dofs,
        voxel_k=voxel_k,
        voxel_s=voxel_s,
        total_cv=total_cv,
        cut_ttype=cut_ttype,
        cut_voxel=cut_voxel,
        cut_enr=cut_enr,
        cut_region=cut_region,
        cut_levels=cut_levels,
        cut_phases=cut_phases,
        cut_scale=scale[cut_enr],
        mi_ttype=mi_ttype,
        mi_voxel=mi_voxel,
        mi_a=mi_a,
        mi_bfac=mi_bfac,
        mi_qp=qpos,
        mi_qw=np.full((n_mi, 4), vol_tet / 4.0),
        special_dofs=special_dofs,
        special_k=special_k,
        special_load=special_load,
        d0=d0,
        scale=scale,
        n_dropped_dofs=n_dropped,
    )


# ---------------------------------------------------------------------------
# point evaluation of the discrete strain field
# ---------------------------------------------------------------------------


def _tet_lookup(topo: ElementTopology) -> np.ndarray:
    """(3, 3) map from the two largest local coordinates to the tet index.

    Tet t covers the region xi_{p0} >= xi_{p1} >= xi_{p2} of the unit voxel
    for perm p = topo.perms[t], so the descending argsort of the local
    coordinates identifies the containing tet.
    """
    lut = np.full((3, 3), -1, dtype=np.int8)
    for t, p in enumerate(topo.perms):
        lut[p[0], p[1]] = t
    return lut


def evaluate_strain(
    caches: ElementCaches, u_grid, u_enr, eps_bar, points
) -> np.ndarray:
    """Mandel strain (n, 6) of the discrete solution at arbitrary points.

    Points are wrapped periodically, located in their voxel and tet, and
    evaluated with the element's shape functions; inside cut elements the
    enriched contribution uses the side selected by the sign of the
    interpolated level set (exact point-in-subtet evaluation).
    """
    grid, topo = caches.grid, caches.topo
    h = np.asarray(grid.h)
    nshape = tuple(grid.n)
    x = np.asarray(points, dtype=float) % np.asarray(grid.lengths)
    vox = np.minimum((x / h).astype(np.int64), np.asarray(nshape) - 1)
    xi = x / h - vox
    order = np.argsort(-xi, axis=1, kind="stable")
    ttype = _tet_lookup(topo)[order[:, 0], order[:, 1]]

    cut_slot = caches.cut_slot(ttype, vox)
    u_flat = np.asarray(u_grid).reshape(-1, 3)
    eps = np.empty((len(x), 6))
    eps[:] = np.asarray(eps_bar, dtype=float)

    for t in range(6):
        sel = np.nonzero(ttype == t)[0]
        nodes = corner_nodes(vox[sel], topo.offsets[t], nshape)
        eps[sel] += u_flat[nodes].reshape(-1, 12) @ caches.b_mats[t].T
        sel = sel[cut_slot[sel] >= 0]
        s = cut_slot[sel]
        # vertex 0 of every tet is the voxel origin, and grads[t][1:] is the
        # inverse of the tet's edge matrix
        lam = np.empty((len(sel), 4))
        lam[:, 1:] = (xi[sel] * h) @ caches.grads[t][1:].T
        lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)
        levels = caches.cut_levels[s]
        side = np.where(np.einsum("mb,mb->m", lam, levels) >= 0.0, 1.0, -1.0)
        coef = np.abs(levels) - side[:, None] * levels
        rho = np.einsum("mb,mb->m", lam, coef)
        grho = coef @ caches.grads[t]
        gx = rho[:, None, None] * caches.grads[t][None] + lam[..., None] * grho[:, None, :]
        bx = b_matrix(gx) * caches.cut_scale[s].reshape(-1, 1, 12)
        ux = np.asarray(u_enr)[caches.cut_enr[s]].reshape(-1, 12)
        eps[sel] += np.einsum("mci,mi->mc", bx, ux)
    return eps
