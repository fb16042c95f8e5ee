"""Matrix-free residual evaluation and the iterative solution schemes.

The global force residual is assembled in three parts.  The majority
phase m, the phase with the most regular voxels, is applied on every voxel
as a periodic convolution: A_m u by `rfftn`, plane products with its real
symbol and `irfftn`.  A translation has no strain, so A_m adds neither
load nor stress.  A voxel whose six tets are all regular (uncut
single-phase) and whose phase p is not m is one 24-dof stencil K_p - K_m,
with the stress map S_p - S_m.  A flat index built with the caches lists
the 24 corner dofs of every such voxel, grouped by phase.  The sweep takes
its rows in blocks of at most `SWEEP_ROWS` regular voxels, so that its
temporaries stay bounded at any grid size: each block gathers its corner
displacements with one fancy index, applies one 24x24 matrix per phase to
that phase's rows in the block and adds the corner forces into one force
vector in index order, so the force is bitwise the same for any block size
(the stress is summed per block); A_m u is added once, after the blocks.
The cut and fallback ("special") elements, together with the plain tets
of their voxels, each minus phase m's matrices on its tet, were summed at
build time into one block-sparse operator on the dofs they touch, so they
add their forces with one sparse product on the flat dof vector.  The same
sweep accumulates the volume-integrated stress, so each solver iteration
costs one sweep plus one FFT preconditioner application.  lcg and ncg
carry A_m d beside their search direction d: the preconditioner returns
A_m z from the spectrum it already holds, and their sweep of d transforms
nothing.

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

Every scheme runs one loop contract through `_Run`: `run.stop` tests
iterate k, records history row k and ends the loop at the criterion or at
k = maxit, so a solve that stops at iterate k reports k iterations and
k + 1 history rows.  The schemes own only their step arithmetic.
"""

import logging
import numbers
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

# rows of `voxel_dofs` that one sweep block spans: it bounds the sweep's
# gathered corner displacements and forces to 3.1 MB each at any grid size
# (one block over all regular voxels held 2 x 403 MB at N=128); the
# benchmark's grids, at most 11,690 regular voxels, fit in one block
SWEEP_ROWS = 16384


class DofVector:
    """Displacement-type vector: one flat array of all dofs, numbered by
    its `DofLayout`; `grid` (N1, N2, N3, 3) and `enr` (n_x, 3) are views
    into it."""

    def __init__(self, data: np.ndarray, layout: DofLayout):
        self.data = data
        self.layout = layout
        self.grid, self.enr = layout.views(data)

    @classmethod
    def zeros(cls, layout: DofLayout):
        return cls(np.zeros(layout.n_dofs), layout)

    def like(self, data: np.ndarray):
        """A vector of the same layout holding `data`."""
        return DofVector(data, self.layout)

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
        if not isinstance(self.scheme, str) or self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if type(self.tol) is bool or not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not isinstance(self.maxit, numbers.Integral) or type(self.maxit) is bool:
            raise ValueError("maxit must be an integer")
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
    """Discretized cell problem: the layout's grid, the caches and the preconditioner."""

    def __init__(self, layout: DofLayout, caches: ElementCaches, symbol):
        self.grid = layout.grid
        self.topo = caches.topo
        self.layout = layout
        self.caches = caches
        self.symbol = symbol
        self.c_minus, self.c_plus = stiffness_bounds(list(caches.stiffness))
        # the sweep's row blocks over every regular voxel (the rows of
        # `voxel_dofs`): their rows and each phase's rows within them
        bounds = caches.voxel_bounds
        self._sweep_blocks = []
        for b0 in range(0, max(bounds[-1], 1), SWEEP_ROWS):
            b1 = min(b0 + SWEEP_ROWS, bounds[-1])
            local = np.clip(bounds, b0, b1) - b0
            phase_rows = [slice(lo, hi) for lo, hi in zip(local[:-1], local[1:])]
            self._sweep_blocks.append((slice(b0, b1), phase_rows))
        # the sweep skips phase m: its rows are not in `minority_dofs`, and
        # the other phases apply their difference to phase m's matrices
        m = caches.majority
        self._m_rows = bounds[m], bounds[m + 1] - bounds[m]
        self._voxel_k = caches.voxel_k - caches.voxel_k[m]
        self._voxel_s = caches.voxel_s - caches.voxel_s[m]
        # summing a phase's rows as ones @ rows is one BLAS call
        self._ones = np.ones(min(len(caches.minority_dofs), SWEEP_ROWS))

    def zeros(self) -> DofVector:
        return DofVector.zeros(self.layout)

    # -- element sweeps ----------------------------------------------------

    def _tet_dofs(self, t):
        """Indices (N1 N2 N3, 12) of the 4 corners of tet t of every voxel into
        a raveled (N1, N2, N3, 3) grid field.  They index that array, not the
        flat dof vector, so they do not go through `DofLayout`."""
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

    def _sweep(self, u: DofVector, eps_bar, majority_force=None):
        """One pass over the minority voxels, A_m u and the special operator.

        The regular voxels are taken in the row blocks of `_sweep_blocks`,
        and phase m's rows are skipped.  Each block gathers its other rows'
        corner dofs through `minority_dofs`, applies each phase's K_p - K_m
        to that phase's rows in the block, adds their stress (summed per
        block) and adds its corner forces into one vector, with
        `np.bincount` for the first block and `np.add.at` after it: both add
        in index order, so the force is bitwise the same for any block
        size (a phase's single row in a block is multiplied as two rows).
        A_m u follows, transformed from u unless the caller holds it
        and passes its grid part (N1, N2, N3, 3) as `majority_force`; then
        the special operator.  A load is formed only if `eps_bar` is not 0.
        Returns (force residual, volume-integrated stress (6,)).
        """
        c = self.caches
        eps_bar = np.asarray(eps_bar, dtype=float)
        loaded = eps_bar.any()
        sig_total = c.total_cv @ eps_bar
        m, (lo_m, n_m) = c.majority, self._m_rows
        force = None
        for rows, phase_rows in self._sweep_blocks:
            # phase m's rows are not in `minority_dofs`: the block's rows sit
            # there as many rows up as phase m has before them
            before = min(max(rows.start - lo_m, 0), n_m)
            within = phase_rows[m].stop - phase_rows[m].start
            if rows.stop - rows.start == within:
                continue
            idx = c.minority_dofs[rows.start - before : rows.stop - before - within]
            ue = u.data[idx]
            fe = np.empty_like(ue)
            for p, prow in enumerate(phase_rows):
                if p == m:
                    continue
                if p > m:
                    prow = slice(prow.start - within, prow.stop - within)
                sig_total += self._voxel_s[p] @ (self._ones[: prow.stop - prow.start] @ ue[prow])
                if prow.stop - prow.start == 1:
                    # numpy forms a one-row product by gemv, which sums in
                    # another order than the gemm of two rows or more
                    fe[prow] = (np.repeat(ue[prow], 2, axis=0) @ self._voxel_k[p].T)[:1]
                else:
                    np.matmul(ue[prow], self._voxel_k[p].T, out=fe[prow])
                if loaded:
                    fe[prow] += eps_bar @ self._voxel_s[p]
            if force is None:
                force = np.bincount(idx.ravel(), fe.ravel(), minlength=u.data.size)
            else:
                np.add.at(force, idx.ravel(), fe.ravel())

        r = u.like(np.zeros(u.data.size) if force is None else force)
        if majority_force is None:
            majority_force = greenop.apply_operator(self.symbol, u.grid)
        r.grid += majority_force
        del majority_force  # a transform of u made here is freed before the special product
        us = u.data[c.special_dofs]
        sig_total += us @ c.special_load
        fs = c.special_k @ us
        if loaded:
            fs += c.special_load @ eps_bar
        r.data[c.special_dofs] += fs
        return r, sig_total

    # -- operations --------------------------------------------------------

    def residual(self, u: DofVector, eps_bar) -> DofVector:
        """Assembled force residual r(u) = sum_e L_e^T (A_e u_e + Bfac_e eps_bar)."""
        return self._sweep(u, eps_bar)[0]

    def operator(self, d: DofVector) -> DofVector:
        """Linear part A d of the residual."""
        return self._sweep(d, ZERO6)[0]

    def average_stress(self, u: DofVector, eps_bar) -> np.ndarray:
        """Cell-averaged stress <sigma> = (1/|Y|) sum_e (S_e u_e + V_e <C>_e eps_bar)."""
        return self._sweep(u, eps_bar)[1] / self.grid.volume

    def precondition(self, f: DofVector, with_majority: bool = False):
        """Block preconditioner: Green inverse on the grid, identity on enriched.

        With `with_majority`, returns (z, A_m z's grid part), both from one
        forward transform.
        """
        # the grid part first, so that its temporaries are gone before z
        z_grid = greenop.apply_preconditioner(self.symbol, f.grid, with_majority)
        if with_majority:
            z_grid, z_major = z_grid
        z = f.like(np.empty_like(f.data))
        z.grid[:] = z_grid
        z.enr[:] = f.enr
        return (z, z_major) if with_majority else z

    def res_norm(self, f: DofVector, z: DofVector | None = None) -> float:
        """Preconditioned residual norm sqrt(f^T P^-1 f)."""
        if z is None:
            z = self.precondition(f)
        val = f.dot(z)
        # f.f only scales the rounding allowance of a negative form
        if val < 0.0 and val < -1e-14 * max(f.dot(f), 1e-300):
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


def build_system(assembly, grid: Grid, materials, mode: str = "xfem") -> System:
    """Discretize a cell: sample geometry, detect enrichment, build caches.

    `mode` "p1" disables enrichment entirely: every element is assembled as
    an uncut single-phase element with the base phase of its voxel (from
    the level-set signs at the voxel's (0,0,0) corner).
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
    # in p1 mode no interface cuts an element
    layout = detect_enrichment(nodal if mode == "xfem" else nodal[:0], topo, grid)
    caches = build_caches(assembly, topo, layout, nodal, stiffness)
    symbol = greenop.build_symbol(grid, topo, stiffness[caches.majority])
    return System(layout, caches, symbol)


# ---------------------------------------------------------------------------
# iterative schemes
# ---------------------------------------------------------------------------


class _Run:
    """The one owner of the iteration loop that every scheme runs.

    `evaluate(u)` is one sweep, one preconditioner application and one
    `res_norm`.  `stop(res, sigma)`, called once per iterate, appends
    history row k, logs it at DEBUG, sets `converged` and returns True at
    the criterion or at `maxit`, else advances `k`; `finish` reads both.
    """

    def __init__(self, system: System, config: SolverConfig, eps_bar):
        self.system = system
        self.config = config
        self.eps_bar = np.asarray(eps_bar, dtype=float)
        self.inv_vol = 1.0 / system.grid.volume
        self.t0 = time.perf_counter()
        self.k = 0
        self.converged = False
        self.history = []
        self.energies = []

    def evaluate(self, u: DofVector, with_majority: bool = False):
        """(f, sigma, z, res) at u: residual, average stress, P^-1 f, |f|_P.
        With `with_majority`, z is the pair `System.precondition` returns."""
        f, sig_int = self.system._sweep(u, self.eps_bar)
        z = self.system.precondition(f, with_majority)
        res = self.system.res_norm(f, z[0] if with_majority else z)
        return f, sig_int / self.system.grid.volume, z, res

    def _measure(self, res_raw, sigma):
        """(res, res / |<sigma>|, whether res meets the stopping criterion)."""
        res = res_raw * self.inv_vol
        sig_norm = float(np.linalg.norm(sigma))
        rel = res / sig_norm if sig_norm > 0 else np.inf
        scale = sig_norm if sig_norm >= SIGMA_NORM_FLOOR else 1.0
        return res, rel, res <= self.config.tol * scale

    def stop(self, res_raw, sigma) -> bool:
        res, rel, self.converged = self._measure(res_raw, sigma)
        self.history.append((self.k, res, rel, time.perf_counter() - self.t0))
        scheme = self.config.scheme
        log.debug("%s iteration %d: res %.3e, res/|<sigma>| %.3e", scheme, self.k, res, rel)
        if self.converged or self.k >= self.config.maxit:
            return True
        self.k += 1
        return False

    def finish(self, u, sigma, res_raw) -> SolveResult:
        res_check = self.system.res_norm(self.system.residual(u, self.eps_bar))
        return SolveResult(
            u=u,
            converged=self.converged,
            iterations=self.k,
            scheme=self.config.scheme,
            sigma=np.asarray(sigma, dtype=float),
            history=self.history,
            energies=self.energies,
            res_final=res_raw * self.inv_vol,
            res_verified=res_check * self.inv_vol,
            verified_within_tol=self._measure(res_check, sigma)[2],
            wall_time=time.perf_counter() - self.t0,
        )


def run_lcg(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Preconditioned linear conjugate gradients on the displacement dofs."""
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    u = system.zeros()
    f, sigma, (z, zm), res = run.evaluate(u, with_majority=True)
    # u.b for the load b = r(0) follows from the stress: vol eps_bar.(<sigma> - <C> eps_bar)
    sigma0 = system.caches.total_cv @ run.eps_bar / vol
    # d and dm = A_m d, carried by linearity, so that the sweep of d needs no transform
    d, dm = z.scaled(-1.0), -zm
    del z, zm
    while True:
        run.energies.append(0.5 * (u.dot(f) + vol * (run.eps_bar @ (sigma - sigma0))))
        if run.stop(res, sigma):
            return run.finish(u, sigma, res)
        w, dsig_int = system._sweep(d, ZERO6, dm)
        dw = d.dot(w)
        if dw <= 0.0:
            raise RuntimeError(
                f"conjugate gradients lost positive definiteness (d^T A d = {dw:g})"
            )
        alpha = res**2 / dw
        u.axpy(alpha, d)
        f.axpy(alpha, w)
        # dropped before the next sweep forms its own
        del w
        sigma = sigma + (alpha / vol) * dsig_int
        z, zm = system.precondition(f, with_majority=True)
        res_sq_new = f.dot(z)
        beta = res_sq_new / res**2
        d.data *= beta
        d.data -= z.data
        dm *= beta
        dm -= zm
        del z, zm
        res = float(np.sqrt(max(res_sq_new, 0.0)))


def run_basic(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Preconditioned gradient descent with the fixed step 1/s0."""
    run = _Run(system, config, eps_bar)
    inv_s0 = 1.0 / system.step_size
    u = system.zeros()
    while True:
        f, sigma, z, res = run.evaluate(u)
        if run.stop(res, sigma):
            return run.finish(u, sigma, res)
        u.axpy(-inv_s0, z)


def run_bb(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Barzilai-Borwein step selection on the preconditioned gradient.

    BB1 step tau = <s, s>_P / <s, y>_P evaluated in the P inner product,
    which reduces to cheap Euclidean dots of stored vectors; falls back to
    the basic step 1/s0 on the first iteration and on a non-positive
    denominator.  The residual may grow between iterations.
    """
    run = _Run(system, config, eps_bar)
    inv_s0 = 1.0 / system.step_size
    u = system.zeros()
    z_prev = tau_prev = res_prev = None
    while True:
        f, sigma, z, res = run.evaluate(u)
        if run.stop(res, sigma):
            return run.finish(u, sigma, res)
        tau = inv_s0
        if z_prev is not None:
            # s = -tau_prev z_prev, y = f - f_prev;  <s,s>_P = tau_prev^2 res_prev^2
            denom = -tau_prev * (z_prev.dot(f) - res_prev**2)
            if np.isfinite(denom) and denom > 0.0:
                tau = tau_prev**2 * res_prev**2 / denom
        u.axpy(-tau, z)
        z_prev, tau_prev, res_prev = z, tau, res


def run_ncg(system: System, config: SolverConfig, eps_bar):
    """Preconditioned Fletcher-Reeves nonlinear conjugate gradients.

    Each step minimizes the energy along the search direction d exactly.
    The energy is quadratic, so one sweep w = A d gives the step
    alpha = -f.d / d.w, and the residual and average stress follow by
    linearity, as in `run_lcg`.  The direction update uses the
    Fletcher-Reeves beta and restarts on loss of descent.  With the exact
    line search the iterates coincide with linear CG in exact arithmetic
    (Schneider, IJNME 2020).
    """
    run = _Run(system, config, eps_bar)
    vol = system.grid.volume
    u = system.zeros()
    f, sigma, (z, zm), res = run.evaluate(u, with_majority=True)
    # d and dm = A_m d, as in `run_lcg`
    d, dm = z.scaled(-1.0), -zm
    del z, zm
    while not run.stop(res, sigma):
        w, dsig_int = system._sweep(d, ZERO6, dm)
        dw = d.dot(w)
        if dw <= 0.0:
            raise RuntimeError("non-positive curvature in line search")
        alpha = -f.dot(d) / dw
        u.axpy(alpha, d)
        f.axpy(alpha, w)
        del w
        sigma = sigma + (alpha / vol) * dsig_int
        z, zm = system.precondition(f, with_majority=True)
        res_new = system.res_norm(f, z)
        beta = res_new**2 / res**2
        d.data *= beta
        d.data -= z.data
        dm *= beta
        dm -= zm
        if f.dot(d) >= 0.0:
            d, dm = z.scaled(-1.0), -zm
        del z, zm
        res = res_new
    return run.finish(u, sigma, res)


_SCHEMES = {"lcg": run_lcg, "basic": run_basic, "bb": run_bb, "ncg": run_ncg}


def run_scheme(system: System, config: SolverConfig, eps_bar) -> SolveResult:
    """Dispatch to the configured iterative scheme."""
    return _SCHEMES[config.scheme](system, config, eps_bar)
