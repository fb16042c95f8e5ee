"""Seeded inputs, solves and correctness checks of the benchmark workloads.

Each workload turns a seed into the inputs the program sees (a
`PhaseAssembly`, a `Grid`, the phase materials, the discretization mode
and the load) and runs them through the library entry points:
`build_system` once per repetition, then `bulk_modulus_hydrostatic`,
`run_scheme` or `effective_stiffness`.  The same seed always gives the
same inputs.  Every repetition is checked against a closed-form reference
or a physical bound.

Why these four (see NOTES.md for the measured shares):
- hashin-xfem: the paper's headline cell; iteration-bound, the element
  sweep with its cut correction dominates.
- inclusions-ceff: overlapping spheres run the multi-interface fallback
  path; one build serves six load cases.
- hashin-p1: the same geometry as hashin-xfem without enrichment; bypasses
  cache assembly and the cut correction, so the regular sweep and the FFT
  stand alone.
- laminate-setup: set-up heavy (few iterations at tol 1e-12), planar cuts
  only, with an exact reference.

BENCHMARK.json gates only the first two; the other two are run by hand
for comparison (NOTES.md says why).
"""

import time
from dataclasses import dataclass

import numpy as np

from xfft import homogenize, solver
from xfft.mesh import Grid
from xfft.microstructure import PhaseAssembly, Plane, Region, Sphere
from xfft.solver import SolverConfig
from xfft.voigt import MaterialIso, iso_stiffness

CELL = 16.0
HYDROSTATIC = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

# grid resolution per workload: full runs, and the tiny smoke mode for tests
RESOLUTION = {
    "hashin-xfem": (24, 8),
    "hashin-p1": (24, 8),
    "laminate-setup": (32, 8),
    "inclusions-ceff": (16, 8),
}

# inclusions-ceff: matrix, stiff (x10) and soft (x1/3) phases
INCLUSION_MATERIALS = (
    MaterialIso(young=1.0, poisson=0.3),
    MaterialIso(young=10.0, poisson=0.3),
    MaterialIso(young=1.0 / 3.0, poisson=0.3),
)
INCLUSION_RADIUS = 0.17 * CELL
INCLUSION_PHASES = (1, 2, 1, 2, 1, 2)


@dataclass
class Inputs:
    """Everything the program receives for one workload and seed."""

    name: str
    assembly: PhaseAssembly
    grid: Grid
    materials: list
    mode: str
    config: SolverConfig
    load: np.ndarray | None  # None: the six unit load cases


@dataclass
class Outcome:
    """One repetition: build, solve and check."""

    setup_s: float
    solve_s: float
    iterations: int
    correct: bool
    error: float  # the quantity the check bounds
    sigmas: np.ndarray  # (n_cases, 6) average stresses, for bitwise comparison
    results: list  # SolveResult per load case
    n_dofs: int


def _hashin(seed, n):
    rng = np.random.default_rng(seed)
    grid = Grid(n=(n, n, n), lengths=(CELL,) * 3)
    # shift the common centre by less than half a voxel
    centre = tuple(np.asarray(homogenize.HASHIN_CENTER) + rng.uniform(-0.25, 0.25, 3) * grid.h)
    assembly = PhaseAssembly(
        regions=[
            Region(Sphere(centre, homogenize.HASHIN_R_INCL), inside_phase=2, outside_phase=1),
            Region(Sphere(centre, homogenize.HASHIN_R_COAT), inside_phase=1, outside_phase=0),
        ],
        background=0,
    )
    return assembly, grid, list(homogenize.HASHIN_MATERIALS)


def _laminate(seed, n):
    rng = np.random.default_rng(seed)
    grid = Grid(n=(n, n, n), lengths=(CELL,) * 3)
    x0 = int(rng.integers(n)) * grid.h[0]  # interface on a node plane
    assembly = PhaseAssembly(
        regions=[Region(Plane((x0, 0.0, 0.0), (1.0, 0.0, 0.0)), inside_phase=1, outside_phase=0)],
        background=0,
    )
    eps = rng.normal(size=6)
    return assembly, grid, list(homogenize.LAMINATE_MATERIALS), eps / np.linalg.norm(eps)


def _periodic_distance(a, b):
    d = np.asarray(a) - np.asarray(b)
    d -= CELL * np.round(d / CELL)
    return float(np.linalg.norm(d))


def _inclusions(seed, n):
    """Six equal spheres; the first two overlap, the others keep clear."""
    rng = np.random.default_rng(seed)
    grid = Grid(n=(n, n, n), lengths=(CELL,) * 3)
    r = INCLUSION_RADIUS
    first = rng.uniform(0.0, CELL, 3)
    direction = rng.normal(size=3)
    centres = [first, (first + 1.2 * r * direction / np.linalg.norm(direction)) % CELL]
    while len(centres) < len(INCLUSION_PHASES):
        c = rng.uniform(0.0, CELL, 3)
        if all(_periodic_distance(c, o) > 2.0 * r + grid.h[0] for o in centres):
            centres.append(c)
    assembly = PhaseAssembly(
        regions=[
            Region(Sphere(tuple(c), r), inside_phase=p, outside_phase=0)
            for c, p in zip(centres, INCLUSION_PHASES)
        ],
        background=0,
    )
    return assembly, grid, list(INCLUSION_MATERIALS)


def make_inputs(name: str, seed: int, smoke: bool = False) -> Inputs:
    """The seeded inputs of workload `name`; `smoke` uses a tiny grid."""
    if name not in RESOLUTION:
        raise ValueError(f"unknown workload {name!r}")
    n = RESOLUTION[name][1 if smoke else 0]
    if name == "laminate-setup":
        assembly, grid, materials, eps = _laminate(seed, n)
        config = SolverConfig(scheme="lcg", tol=1e-12, maxit=500)
        return Inputs(name, assembly, grid, materials, "xfem", config, eps)
    if name == "inclusions-ceff":
        assembly, grid, materials = _inclusions(seed, n)
        config = SolverConfig(scheme="lcg", tol=1e-6, maxit=1000)
        return Inputs(name, assembly, grid, materials, "xfem", config, None)
    mode = "xfem" if name == "hashin-xfem" else "p1"
    config = SolverConfig(scheme="lcg", tol=1e-7, maxit=500)
    return Inputs(name, *_hashin(seed, n), mode, config, HYDROSTATIC)


WORKLOADS = tuple(RESOLUTION)


def _check(inp: Inputs, results, sigmas):
    """(passed, error) of one repetition against its workload's reference."""
    converged = all(r.converged for r in results)
    if inp.name.startswith("hashin"):
        k_eff = float(sigmas[0, :3].sum() / 9.0)
        err = homogenize.rel_error(k_eff, homogenize.hashin_bulk_reference(inp.materials))
        return converged and err <= (1e-3 if inp.mode == "xfem" else 1e-2), err
    if inp.name == "laminate-setup":
        expect = homogenize.laminate_cell_reference(inp.materials) @ inp.load
        err = float(np.abs(sigmas[0] - expect).max() / np.abs(expect).max())
        return converged and err <= 1e-8, err
    c_eff = sigmas.T  # column k answers unit load case k
    asym = float(np.abs(c_eff - c_eff.T).max() / np.abs(c_eff).max())
    phase_eig = np.concatenate([np.linalg.eigvalsh(iso_stiffness(m)) for m in inp.materials])
    eig = np.linalg.eigvalsh(0.5 * (c_eff + c_eff.T))
    bounded = bool(eig.min() >= phase_eig.min() and eig.max() <= phase_eig.max())
    return converged and asym < 1e-5 and bounded, asym


def run_once(inp: Inputs) -> Outcome:
    """Build the system, solve every load case and check the answer."""
    t0 = time.perf_counter()
    system = solver.build_system(inp.assembly, inp.grid, inp.materials, mode=inp.mode)
    t1 = time.perf_counter()
    if inp.load is None:
        results = homogenize.effective_stiffness(system, inp.config).results
    elif inp.name.startswith("hashin"):
        results = [homogenize.bulk_modulus_hydrostatic(system, inp.config)[1]]
    else:
        results = [solver.run_scheme(system, inp.config, inp.load)]
    t2 = time.perf_counter()
    sigmas = np.array([r.sigma for r in results])
    passed, err = _check(inp, results, sigmas)
    return Outcome(
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        iterations=sum(r.iterations for r in results),
        correct=passed,
        error=err,
        sigmas=sigmas,
        results=results,
        n_dofs=system.layout.n_dofs,
    )
