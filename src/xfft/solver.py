"""Matrix-free residual evaluation and the iterative solution schemes.

The global force residual is assembled in two parts.  A voxel whose six
tets are all regular (uncut single-phase) is one 24-dof stencil of its
phase.  A flat index built with the caches lists the 24 corner dofs of
every such voxel, grouped by phase, so the sweep gathers the corner
displacements with one fancy index, applies one 24x24 matrix per phase to
that phase's rows and scatters the corner forces back with one
`np.bincount` over the same index.  The cut and fallback ("special")
elements, together with the plain tets of their voxels, were summed at
build time into one block-sparse operator on the dofs they touch, so
they add their forces with one sparse product on the flat dof vector.
The same sweep accumulates the volume-integrated stress, so each solver
iteration costs one sweep plus one FFT preconditioner application.

Sign convention: the residual is the gradient of the discrete energy,
r(u) = sum_e L_e^T (A_e u_e + Bfac_e eps_bar), i.e. the internal force of
the total strain eps_bar + grad^s u.  It vanishes for homogeneous cells at
u = 0 and at the converged solution, and the average stress then satisfies
<sigma> = C_eff eps_bar.

All schemes share the stopping criterion res_k <= tol * |<sigma(u_k)>|,
where res_k is the preconditioned residual norm of the cell-averaged
assembly, sqrt(r^T P^-1 r) / |Y|.  This normalization keeps the measure
mesh-stable and consistent with the averaged stress on the right-hand
side; `System.res_norm` itself returns the raw quadratic form.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import greenop
from .element import ElementCaches, build_caches
from .mesh import DofLayout, Grid, build_topology, corner_nodes, detect_enrichment
from .microstructure import check_cell, sample_nodal
from .voigt import MaterialIso, iso_stiffness, stiffness_bounds

log = logging.getLogger(__name__)

ZERO6 = np.zeros(6)

# absolute-residual fallback when the average stress vanishes (eps_bar = 0)
SIGMA_NORM_FLOOR = 1e-300

INT8_MAX = 127


class DofVector:
    """Displacement-type vector: one flat array of all dofs.

    `data` holds the grid dofs (node-major, component-minor) followed by
    the enriched dofs; `grid` (N1, N2, N3, 3) and `enr` (n_x, 3) are views
    into it.
    """

    def __init__(self, data: np.ndarray, nshape):
        self.data = data
        n_grid = 3 * int(np.prod(nshape))
        self.grid = data[:n_grid].reshape(tuple(nshape) + (3,))
        self.enr = data[n_grid:].reshape(-1, 3)

    @classmethod
    def zeros(cls, layout: DofLayout):
        return cls(np.zeros(layout.n_dofs), layout.grid.n)

    def like(self, data: np.ndarray):
        """A vector of the same layout holding `data`."""
        return DofVector(data, self.grid.shape[:3])

    def copy(self):
        return self.like(self.data.copy())

    def dot(self, other) -> float:
        # einsum calls no BLAS, whose ddot splits the sum by thread: the
        # result must not depend on the OpenBLAS thread count
        return float(np.einsum("i,i->", self.data, other.data))

    def axpy(self, a: float, other):
        self.data += a * other.data

    def scaled(self, a: float):
        return self.like(a * self.data)


@dataclass
class SolverConfig:
    scheme: str = "lcg"
    tol: float = 1e-7
    maxit: int = 500

    def __post_init__(self):
        if self.scheme not in ("basic", "bb", "lcg", "ncg"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.maxit < 1:
            raise ValueError("maxit must be at least 1")


@dataclass
class SolveResult:
    u: DofVector
    converged: bool
    iterations: int
    scheme: str
    sigma: np.ndarray  # final average stress (6,)
    history: list  # rows (iteration, res, res / |<sigma>|, wall_time)
    energies: list
    res_final: float
    res_verified: float  # recomputed from scratch after the solve
    verified_within_tol: bool  # res_verified meets the stopping criterion
    wall_time: float


class System:
    """Discretized cell problem: geometry, caches and preconditioner."""

    def __init__(self, grid, topo, layout, caches: ElementCaches, symbol, stiffness):
        self.grid = grid
        self.topo = topo
        self.layout = layout
        self.caches = caches
        self.symbol = symbol
        self.stiffness = np.asarray(stiffness, dtype=float)
        self.c_minus, self.c_plus = stiffness_bounds(list(self.stiffness))
        # summing a phase's rows as ones @ rows is one BLAS call
        self._ones = np.ones(len(caches.voxel_dofs))

    def zeros(self) -> DofVector:
        return DofVector.zeros(self.layout)

    # -- element sweeps ----------------------------------------------------

    def _tet_dofs(self, t):
        """Grid dofs (N1 N2 N3, 12) of the 4 corners of tet t of every voxel."""
        voxels = np.indices(self.grid.n).reshape(3, -1).T
        nodes = corner_nodes(voxels, self.topo.offsets[t], self.grid.n)
        return (3 * nodes[..., None] + np.arange(3)).reshape(-1, 12)

    def _gather(self, u_grid, t):
        """Displacements (N1, N2, N3, 12) at the 4 corners of tet t of each voxel."""
        return u_grid.ravel()[self._tet_dofs(t)].reshape(u_grid.shape[:3] + (12,))

    def _scatter(self, acc, t, fe):
        """Add the corner forces fe (N1, N2, N3, 12) of tet t to their nodes."""
        idx = self._tet_dofs(t).ravel()
        acc += np.bincount(idx, fe.ravel(), minlength=acc.size).reshape(acc.shape)

    def _sweep(self, u: DofVector, eps_bar, want_force=True):
        """One pass over the regular voxels plus the special-element operator.

        The regular voxels' corner dofs are gathered and their forces
        scattered back through the flat index `voxel_dofs`, one phase block
        of rows per 24x24 stencil.  Returns (force residual or None,
        volume-integrated stress (6,)).
        """
        c = self.caches
        eps_bar = np.asarray(eps_bar, dtype=float)
        idx, bounds = c.voxel_dofs, c.voxel_bounds
        ue = u.data[idx]
        fe = np.empty_like(ue) if want_force else None
        loaded = want_force and eps_bar.any()
        sig_total = c.total_cv @ eps_bar
        for p in range(len(c.stiffness)):
            rows = slice(bounds[p], bounds[p + 1])
            sig_total += c.voxel_s[p] @ (self._ones[rows] @ ue[rows])
            if want_force:
                np.matmul(ue[rows], c.voxel_k[p].T, out=fe[rows])
            if loaded:
                fe[rows] += eps_bar @ c.voxel_s[p]

        us = u.data[c.special_dofs]
        sig_total += us @ c.special_load
        if not want_force:
            return None, sig_total
        r = u.like(np.bincount(idx.ravel(), fe.ravel(), minlength=u.data.size))
        r.data[c.special_dofs] += c.special_k @ us + c.special_load @ eps_bar
        return r, sig_total

    # -- operations --------------------------------------------------------

    def residual(self, u: DofVector, eps_bar) -> DofVector:
        """Assembled force residual r(u) = sum_e L_e^T (A_e u_e + Bfac_e eps_bar)."""
        return self._sweep(u, eps_bar, want_force=True)[0]

    def operator(self, d: DofVector) -> DofVector:
        """Linear part A d of the residual."""
        return self._sweep(d, ZERO6, want_force=True)[0]

    def average_stress(self, u: DofVector, eps_bar) -> np.ndarray:
        """Cell-averaged stress <sigma> = (1/|Y|) sum_e (S_e u_e + V_e <C>_e eps_bar)."""
        return self._sweep(u, eps_bar, want_force=False)[1] / self.grid.volume

    def precondition(self, f: DofVector) -> DofVector:
        """Block preconditioner: Green inverse on the grid, identity on enriched."""
        z = f.like(np.empty_like(f.data))
        z.grid[:] = greenop.apply_preconditioner(self.symbol, f.grid)
        z.enr[:] = f.enr
        return z

    def res_norm(self, f: DofVector, z: DofVector | None = None) -> float:
        """Preconditioned residual norm sqrt(f^T P^-1 f)."""
        if z is None:
            z = self.precondition(f)
        val = f.dot(z)
        if val < -1e-14 * max(f.dot(f), 1e-300):
            raise RuntimeError("preconditioner produced a negative quadratic form")
        return float(np.sqrt(max(val, 0.0)))

    @property
    def step_size(self) -> float:
        """Basic-scheme step denominator s0 = (C_minus + C_plus) / 2."""
        return 0.5 * (self.c_minus + self.c_plus)


def check_phases(assembly, n_materials: int):
    """Raise ValueError unless the cell's phase indices fit its materials.

    Every inside, outside and background phase needs a material, and the
    phase and region counts must fit the int8 index arrays.
    """
    if n_materials > INT8_MAX or assembly.n_interfaces > INT8_MAX:
        raise ValueError(f"at most {INT8_MAX} phases and {INT8_MAX} regions are supported")
    used = [assembly.background]
    used += [p for reg in assembly.regions for p in (reg.inside_phase, reg.outside_phase)]
    for p in used:
        if not 0 <= p < n_materials:
            raise ValueError(f"phase {p} has no material ({n_materials} given)")


def build_system(
    assembly, grid: Grid, materials, mode: str = "xfem", store_quadrature: bool = False
) -> System:
    """Discretize a cell: sample geometry, detect enrichment, build caches.

    `mode` "p1" disables enrichment entirely: every element is assembled as
    an uncut single-phase element with the base phase of its voxel (from
    the level-set signs at the voxel's (0,0,0) corner).  `store_quadrature`
    computes the cut and fallback elements' quadrature record during the
    build and keeps it (see `build_caches`).
    """
    if mode not in ("xfem", "p1"):
        raise ValueError(f"unknown discretization {mode!r}")
    check_phases(assembly, len(materials))
    check_cell(assembly, grid.lengths)
    topo = build_topology()
    stiffness = np.array(
        [
            iso_stiffness(m) if isinstance(m, MaterialIso) else np.asarray(m, dtype=float)
            for m in materials
        ]
    )
    nodal = sample_nodal(assembly, grid)
    if mode == "xfem" and assembly.n_interfaces:
        layout = detect_enrichment(nodal, topo, grid)
    else:
        layout = DofLayout(
            grid=grid,
            enr_index=np.full(tuple(grid.n), -1, dtype=np.int64),
            n_x=0,
            cut_region=np.full((topo.n_tets,) + tuple(grid.n), -1, dtype=np.int8),
            n_multi_interface=0,
        )
    caches = build_caches(
        assembly, grid, topo, layout, nodal, stiffness, store_quadrature=store_quadrature
    )
    symbol = greenop.build_symbol(grid, topo)
    return System(grid, topo, layout, caches, symbol, stiffness)


# ---------------------------------------------------------------------------
# iterative schemes
# ---------------------------------------------------------------------------


class _Run:
    """Shared bookkeeping: stopping criterion, history, timing."""

    def __init__(self, system: System, config: SolverConfig, eps_bar):
        self.system = system
        self.config = config
        self.eps_bar = np.asarray(eps_bar, dtype=float)
        self.inv_vol = 1.0 / system.grid.volume
        self.t0 = time.perf_counter()
        self.history = []
        self.energies = []

    def record(self, k, res_raw, sigma):
        res = res_raw * self.inv_vol
        sig_norm = float(np.linalg.norm(sigma))
        rel = res / sig_norm if sig_norm > 0 else np.inf
        self.history.append((k, res, rel, time.perf_counter() - self.t0))
        log.debug("%s iteration %d: res %.3e, res/|<sigma>| %.3e", self.config.scheme, k, res, rel)

    def done(self, res_raw, sigma) -> bool:
        res = res_raw * self.inv_vol
        sig_norm = float(np.linalg.norm(sigma))
        if sig_norm < SIGMA_NORM_FLOOR:
            return res <= self.config.tol
        return res <= self.config.tol * sig_norm

    def finish(self, u, converged, k, sigma, res_raw) -> SolveResult:
        f_check = self.system.residual(u, self.eps_bar)
        res_check = self.system.res_norm(f_check)
        return SolveResult(
            u=u,
            converged=converged,
            iterations=k,
            scheme=self.config.scheme,
            sigma=np.asarray(sigma, dtype=float),
            history=self.history,
            energies=self.energies,
            res_final=res_raw * self.inv_vol,
            res_verified=res_check * self.inv_vol,
            verified_within_tol=self.done(res_check, sigma),
            wall_time=time.perf_counter() - self.t0,
        )


def run_lcg(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Preconditioned linear conjugate gradients on the displacement dofs."""
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    u = system.zeros()
    f, sig_int = system._sweep(u, eps_bar)
    r0 = f.copy()
    sigma = sig_int / vol
    z = system.precondition(f)
    res = system.res_norm(f, z)
    d = z.scaled(-1.0)
    k = 0
    converged = False
    while True:
        run.record(k, res, sigma)
        run.energies.append(0.5 * (u.dot(f) + u.dot(r0)))
        if run.done(res, sigma):
            converged = True
            break
        if k >= config.maxit:
            break
        w, dsig_int = system._sweep(d, ZERO6)
        dw = d.dot(w)
        if dw <= 0.0:
            raise RuntimeError(
                f"conjugate gradients lost positive definiteness (d^T A d = {dw:g})"
            )
        alpha = res**2 / dw
        u.axpy(alpha, d)
        f.axpy(alpha, w)
        sigma = sigma + (alpha / vol) * dsig_int
        z = system.precondition(f)
        res_sq_new = f.dot(z)
        beta = res_sq_new / res**2
        d = d.like(beta * d.data - z.data)
        res = float(np.sqrt(max(res_sq_new, 0.0)))
        k += 1
    return run.finish(u, converged, k, sigma, res)


def run_basic(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Preconditioned gradient descent with the fixed step 1/s0."""
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    inv_s0 = 1.0 / system.step_size
    u = system.zeros()
    k = 0
    converged = False
    while True:
        f, sig_int = system._sweep(u, eps_bar)
        sigma = sig_int / vol
        z = system.precondition(f)
        res = system.res_norm(f, z)
        run.record(k, res, sigma)
        if run.done(res, sigma):
            converged = True
            break
        if k >= config.maxit:
            break
        u.axpy(-inv_s0, z)
        k += 1
    return run.finish(u, converged, k, sigma, res)


def run_bb(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Barzilai-Borwein step selection on the preconditioned gradient.

    BB1 step tau = <s, s>_P / <s, y>_P evaluated in the P inner product,
    which reduces to cheap Euclidean dots of stored vectors; falls back to
    the basic step 1/s0 on the first iteration and on a non-positive
    denominator.  The residual may grow between iterations.
    """
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    inv_s0 = 1.0 / system.step_size
    u = system.zeros()
    z_prev = None
    tau_prev = res_prev = None
    k = 0
    converged = False
    while True:
        f, sig_int = system._sweep(u, eps_bar)
        sigma = sig_int / vol
        z = system.precondition(f)
        res = system.res_norm(f, z)
        run.record(k, res, sigma)
        if run.done(res, sigma):
            converged = True
            break
        if k >= config.maxit:
            break
        tau = inv_s0
        if z_prev is not None:
            # s = -tau_prev z_prev, y = f - f_prev;  <s,s>_P = tau_prev^2 res_prev^2
            denom = -tau_prev * (z_prev.dot(f) - res_prev**2)
            if np.isfinite(denom) and denom > 0.0:
                tau = tau_prev**2 * res_prev**2 / denom
        u.axpy(-tau, z)
        z_prev, tau_prev, res_prev = z, tau, res
        k += 1
    return run.finish(u, converged, k, sigma, res)


def run_ncg(system: System, config: SolverConfig, eps_bar, line_search: str = "exact"):
    """Preconditioned Fletcher-Reeves nonlinear conjugate gradients.

    Each step minimizes the energy along the search direction d exactly.
    The energy is quadratic, so one sweep w = A d gives the step
    alpha = -f.d / d.w, and the residual and average stress follow by
    linearity, as in `run_lcg`.  The direction update uses the
    Fletcher-Reeves beta and restarts on loss of descent.  With the exact
    line search the iterates coincide with linear CG in exact arithmetic
    (Schneider, IJNME 2020).  "exact" is the only line search.
    """
    if line_search != "exact":
        raise ValueError(f"unknown line search {line_search!r}")
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    u = system.zeros()
    f, sig_int = system._sweep(u, eps_bar)
    sigma = sig_int / vol
    z = system.precondition(f)
    res = system.res_norm(f, z)
    d = z.scaled(-1.0)
    k = 0
    converged = False
    while True:
        run.record(k, res, sigma)
        if run.done(res, sigma):
            converged = True
            break
        if k >= config.maxit:
            break
        w, dsig_int = system._sweep(d, ZERO6)
        dw = d.dot(w)
        if dw <= 0.0:
            raise RuntimeError("non-positive curvature in line search")
        alpha = -f.dot(d) / dw
        u.axpy(alpha, d)
        f.axpy(alpha, w)
        sigma = sigma + (alpha / vol) * dsig_int
        z = system.precondition(f)
        res_new = system.res_norm(f, z)
        beta = res_new**2 / res**2
        d = d.like(beta * d.data - z.data)
        if f.dot(d) >= 0.0:
            d = z.scaled(-1.0)
        res = res_new
        k += 1
    return run.finish(u, converged, k, sigma, res)


_SCHEMES = {"lcg": run_lcg, "basic": run_basic, "bb": run_bb, "ncg": run_ncg}


def run_scheme(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Dispatch to the configured iterative scheme."""
    return _SCHEMES[config.scheme](system, config, eps_bar)
