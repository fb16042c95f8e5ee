"""Load-case drivers, effective properties, error metrics and benchmarks.

Effective stiffness comes from six unit Mandel load cases; the coated
sphere and plane laminate benchmarks carry closed-form references.  Local
field errors against a finer reference solution are measured in the L2
norm by evaluating both solutions at the coarse grid's quadrature points.
"""

import time
from dataclasses import dataclass

import numpy as np

from .element import evaluate_strain, tet_points
from .mesh import Grid
from .microstructure import PhaseAssembly, Plane, Region, Sphere
from .solver import SolverConfig, System, build_system, run_scheme
from .voigt import MANDEL_PAIRS, MaterialIso, iso_stiffness


def rel_error(a: float, a_ref: float) -> float:
    """Relative error |a - a_ref| / |a_ref|."""
    return abs(a - a_ref) / abs(a_ref)


def l2_norm_field(values: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature L2 norm sqrt(sum_a w_a v(q_a).v(q_a)) of a sampled field."""
    values = np.asarray(values, dtype=float)
    sq = values**2 if values.ndim == 1 else (values**2).sum(axis=-1)
    return float(np.sqrt(weights @ sq))


# ---------------------------------------------------------------------------
# effective stiffness
# ---------------------------------------------------------------------------


@dataclass
class EffectiveResult:
    stiffness: np.ndarray  # (6, 6) symmetrized
    asymmetry: float  # max |C - C^T| relative to max |C|
    iterations: list
    converged: bool
    results: list

    @property
    def bulk_modulus(self):
        """K = (1/9) 1:C:1, the hydrostatic response."""
        return float(self.stiffness[:3, :3].sum() / 9.0)


def effective_stiffness(system: System, config: SolverConfig) -> EffectiveResult:
    """Six unit Mandel load cases; column k of C_eff is <sigma>(eps_bar = e_k)."""
    c_eff = np.empty((6, 6))
    iterations = []
    results = []
    all_converged = True
    for k in range(6):
        eps_bar = np.zeros(6)
        eps_bar[k] = 1.0
        res = run_scheme(system, config, eps_bar)
        c_eff[:, k] = res.sigma
        iterations.append(res.iterations)
        results.append(res)
        all_converged &= res.converged
    asym = float(np.abs(c_eff - c_eff.T).max() / max(np.abs(c_eff).max(), 1e-300))
    return EffectiveResult(
        stiffness=0.5 * (c_eff + c_eff.T),
        asymmetry=asym,
        iterations=iterations,
        converged=all_converged,
        results=results,
    )


def bulk_modulus_hydrostatic(system: System, config: SolverConfig):
    """Effective bulk modulus from the single hydrostatic load case."""
    eps_bar = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    res = run_scheme(system, config, eps_bar)
    k_eff = float(res.sigma[:3].sum() / 9.0)
    return k_eff, res


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------


def hashin_reference(k_coat, mu_coat, k_incl, r_i, r_c) -> float:
    """Effective bulk modulus of the coated-sphere assemblage.

    K_eff = K_c + c (K_i - K_c) / (1 + (1 - c)(K_i - K_c) / (K_c + 4 mu_c / 3))
    with the inclusion volume fraction c = (r_i / r_c)^3.  The benchmark
    parameters are tuned so this coincides with the matrix bulk modulus.
    """
    if min(k_coat, mu_coat, k_incl) <= 0 or not 0 < r_i < r_c:
        raise ValueError("need positive moduli and r_i < r_c")
    c = (r_i / r_c) ** 3
    dk = k_incl - k_coat
    return k_coat + c * dk / (1.0 + (1.0 - c) * dk / (k_coat + 4.0 * mu_coat / 3.0))


def laminate_reference(stiffnesses, fractions, axis: int = 0) -> np.ndarray:
    """Exact effective stiffness of a layered composite normal to `axis`.

    Traction components (harmonic mixing) and in-plane strain components
    (arithmetic mixing with coupling correction) are combined blockwise in
    Mandel notation.
    """
    # the traction slots are the Mandel slots whose pair holds the normal axis
    idx_a = [a for a, pair in enumerate(MANDEL_PAIRS) if axis in pair]
    idx_b = [i for i in range(6) if i not in idx_a]
    fractions = np.asarray(fractions, dtype=float)
    if abs(fractions.sum() - 1.0) > 1e-12:
        raise ValueError("fractions must sum to one")

    def avg(mats):
        return sum(f * m for f, m in zip(fractions, mats))

    ws, wk_ab, k_ba_w, k_bb, k_ba_w_k_ab = [], [], [], [], []
    for c in stiffnesses:
        c = np.asarray(c, dtype=float)
        k_aa = c[np.ix_(idx_a, idx_a)]
        k_ab = c[np.ix_(idx_a, idx_b)]
        k_ba = c[np.ix_(idx_b, idx_a)]
        w = np.linalg.inv(k_aa)
        ws.append(w)
        wk_ab.append(w @ k_ab)
        k_ba_w.append(k_ba @ w)
        k_bb.append(c[np.ix_(idx_b, idx_b)])
        k_ba_w_k_ab.append(k_ba @ w @ k_ab)

    w_avg_inv = np.linalg.inv(avg(ws))
    c_aa = w_avg_inv
    c_ab = w_avg_inv @ avg(wk_ab)
    c_ba = avg(k_ba_w) @ w_avg_inv
    c_bb = avg(k_bb) - avg(k_ba_w_k_ab) + avg(k_ba_w) @ w_avg_inv @ avg(wk_ab)

    out = np.empty((6, 6))
    out[np.ix_(idx_a, idx_a)] = c_aa
    out[np.ix_(idx_a, idx_b)] = c_ab
    out[np.ix_(idx_b, idx_a)] = c_ba
    out[np.ix_(idx_b, idx_b)] = c_bb
    return out


# ---------------------------------------------------------------------------
# local-field error metrics
# ---------------------------------------------------------------------------


def quadrature_set(system: System):
    """All quadrature points and weights of the discretized cell.

    Uncut elements contribute their four-point rule on the fly; cut and
    fallback elements use the caches' quadrature record, which is computed
    on first access.
    """
    c = system.caches
    ttype, *vox = np.nonzero(c.ptype >= 0)
    qp = tet_points(system.topo, system.grid, ttype, np.stack(vox, axis=1))
    live = c.cut_qw.ravel() > 0
    points = [qp.reshape(-1, 3), c.cut_qp.reshape(-1, 3)[live], c.mi_qp.reshape(-1, 3)]
    weights = [np.full(4 * len(ttype), c.tet_volume / 4.0), c.cut_qw.ravel()[live], c.mi_qw.ravel()]
    return np.concatenate(points), np.concatenate(weights)


@dataclass
class StrainError:
    abs_l2: float  # integral L2 norm of the strain difference
    rel_l2: float  # relative to the reference field norm
    mean_square: float  # cell-averaged squared error


def strain_error(
    system_h: System, u_h, system_ref: System, u_ref, eps_bar
) -> StrainError:
    """L2 strain error of a coarse solution against a finer reference.

    Both fields are evaluated at the coarse grid's quadrature points (exact
    point-in-subtet evaluation of the reference); the reference must not be
    coarser than the test discretization.
    """
    if min(system_ref.grid.n) < min(system_h.grid.n):
        raise ValueError("reference discretization is coarser than the tested one")
    points, weights = quadrature_set(system_h)
    e_h = evaluate_strain(system_h.caches, u_h.grid, u_h.enr, eps_bar, points)
    e_ref = evaluate_strain(system_ref.caches, u_ref.grid, u_ref.enr, eps_bar, points)
    diff = e_ref - e_h
    abs_l2 = l2_norm_field(diff, weights)
    ref_l2 = l2_norm_field(e_ref, weights)
    return StrainError(
        abs_l2=abs_l2,
        rel_l2=abs_l2 / ref_l2,
        mean_square=abs_l2**2 / system_h.grid.volume,
    )


def energy_bound_check(
    c_eff_h, c_eff_ref, strain_err_msq, eps_bar, c_minus, c_plus, slack=0.1
):
    """Two-sided bound tying the effective-energy error to the strain error.

    For kinematic Galerkin solutions on one fixed geometry the coarse
    effective energy exceeds the reference one and the gap equals the
    energy norm of the strain error:
    C_minus <eps_err^2> <= eps_bar : (C_h - C_ref) : eps_bar <= C_plus <eps_err^2>
    with <.> the cell average.  The ordering needs the same geometry on
    both grids.  With nodal-linearized interfaces each grid sees its own
    phase volumes, biased by O(h^2), so the coarse energy can fall below
    the reference and the middle term can be negative.  `slack` widens
    both sides to absorb the reference's own discretization error (exact
    only against the true solution).  Returns (passed, lower, middle,
    upper).
    """
    eps_bar = np.asarray(eps_bar, dtype=float)
    middle = float(eps_bar @ (np.asarray(c_eff_h) - np.asarray(c_eff_ref)) @ eps_bar)
    lower = c_minus * strain_err_msq
    upper = c_plus * strain_err_msq
    passed = (1.0 - slack) * lower <= middle <= (1.0 + slack) * upper
    return passed, lower, middle, upper


# ---------------------------------------------------------------------------
# resolution studies
# ---------------------------------------------------------------------------


@dataclass
class StudyResult:
    resolutions: list
    values: list
    errors: list
    iterations: list
    wall_times: list
    slope: float | None


def fit_slope(hs, errors):
    """Least-squares slope of log(error) vs log(h).

    The coarsest of three or more points is excluded when its error is
    within a factor 5 of the finest point's error (pre-asymptotic data).
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    order = np.argsort(hs)[::-1]  # coarsest first
    hs, errors = hs[order], errors[order]
    if len(hs) > 2 and errors[0] < 5.0 * errors[-1]:
        hs, errors = hs[1:], errors[1:]
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def convergence_study(solve_at, resolutions, reference: float) -> StudyResult:
    """Run `solve_at(n) -> (value, iterations)` over increasing resolutions.

    Errors are relative to `reference`; the slope is fitted on log(error)
    vs log(h) and omitted for fewer than three resolutions.
    """
    resolutions = sorted(int(n) for n in resolutions)
    if len(set(resolutions)) != len(resolutions):
        raise ValueError("resolutions must be strictly increasing")
    values, errors, iterations, walls = [], [], [], []
    for n in resolutions:
        t0 = time.perf_counter()
        value, its = solve_at(n)
        walls.append(time.perf_counter() - t0)
        values.append(value)
        errors.append(rel_error(value, reference))
        iterations.append(its)
    slope = None
    if len(resolutions) >= 3:
        hs = [1.0 / n for n in resolutions]
        slope = fit_slope(hs, errors)
    return StudyResult(
        resolutions=resolutions,
        values=values,
        errors=errors,
        iterations=iterations,
        wall_times=walls,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# built-in benchmark cells
# ---------------------------------------------------------------------------

HASHIN_LENGTH = 16.0
HASHIN_R_COAT = 2.0 * np.pi
HASHIN_R_INCL = 6.0 * np.e / 5.0
HASHIN_CENTER = (8.0, 8.0, 8.0)
HASHIN_MATERIALS = (
    MaterialIso(young=1.5, poisson=0.25),  # matrix
    MaterialIso(young=1.212036, poisson=0.25),  # coating
    MaterialIso(young=12.120361, poisson=0.25),  # inclusion
)


def hashin_cell(inclusion_young: float | None = None):
    """Coated-sphere benchmark: assembly, materials and cell lengths.

    `inclusion_young` overrides the inclusion stiffness (used for contrast
    sweeps at fixed Poisson ratio); phases are (matrix, coating, inclusion).
    """
    materials = list(HASHIN_MATERIALS)
    if inclusion_young is not None:
        materials[2] = MaterialIso(young=float(inclusion_young), poisson=0.25)
    assembly = PhaseAssembly(
        regions=[
            Region(Sphere(HASHIN_CENTER, HASHIN_R_INCL), inside_phase=2, outside_phase=1),
            Region(Sphere(HASHIN_CENTER, HASHIN_R_COAT), inside_phase=1, outside_phase=0),
        ],
        background=0,
    )
    return assembly, materials, (HASHIN_LENGTH,) * 3


def hashin_bulk_reference(materials) -> float:
    """Closed-form effective bulk modulus of the coated-sphere benchmark."""
    coat, incl = materials[1], materials[2]
    return hashin_reference(
        coat.bulk, coat.shear, incl.bulk, HASHIN_R_INCL, HASHIN_R_COAT
    )


LAMINATE_MATERIALS = (
    MaterialIso(young=2.0, poisson=0.3),
    MaterialIso(young=1.0, poisson=0.2),
)


def laminate_cell():
    """Two-phase laminate normal to x with equal layer fractions."""
    assembly = PhaseAssembly(
        regions=[
            Region(
                Plane(point=(0.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0)),
                inside_phase=1,
                outside_phase=0,
            )
        ],
        background=0,
    )
    return assembly, list(LAMINATE_MATERIALS), (16.0,) * 3


def laminate_cell_reference(materials) -> np.ndarray:
    return laminate_reference(
        [iso_stiffness(m) for m in materials], (0.5, 0.5), axis=0
    )


def homogeneous_cell():
    """Single-phase cell (trivial golden case)."""
    return PhaseAssembly(regions=[], background=0), [MaterialIso(1.5, 0.25)], (16.0,) * 3


def hashin_system(n: int, mode: str = "xfem", inclusion_young=None):
    assembly, materials, lengths = hashin_cell(inclusion_young)
    grid = Grid(n=(n, n, n), lengths=lengths)
    return build_system(assembly, grid, materials, mode=mode), materials
