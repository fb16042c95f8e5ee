"""Configuration ingestion, run orchestration and output emission.

Run configurations are single JSON files (schema below, unknown keys
rejected).  Subcommands:

  solve        one cell solve; writes convergence.csv, summary.json and
               optional field dumps
  sweep        resolution study over outputs.study_ns; writes study.csv
               with a fitted slope row
  validate     run a built-in golden case (homogeneous | laminate | hashin)
               against its closed-form reference
  symbol-dump  write the preconditioner symbol as raw array + descriptor

Exit codes: 0 success, 1 validation failure, 2 invalid configuration,
3 solver not converged.  Thread count comes from --threads or the
XFFT_THREADS environment variable (flag wins, default 1) and sets both
the FFT workers and the threads of numpy's bundled OpenBLAS, which runs
the element sweep's matrix products; `solve` reports the FFT workers and
the OpenBLAS threads in effect in summary.json, with the time and the peak
resident memory after the build and after the solve.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import greenop
from .homogenize import (
    bulk_modulus_hydrostatic,
    effective_stiffness,
    fit_slope,
    hashin_bulk_reference,
    hashin_system,
    homogeneous_cell,
    laminate_cell,
    laminate_cell_reference,
    rel_error,
)
from .mesh import Grid
from .microstructure import PhaseAssembly, Plane, Region, Sphere, SphereUnion, check_cell
from .solver import SolverConfig, build_system, check_phases, run_scheme
from .voigt import MaterialIso, iso_stiffness

EXIT_OK = 0
EXIT_VALIDATE_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(Exception):
    """Invalid run configuration; message carries the offending key path."""


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(obj, path, required, optional=()):
    _require(isinstance(obj, dict), path, "expected an object")
    for key in required:
        _require(key in obj, path, f"missing required key '{key}'")
    unknown = set(obj) - set(required) - set(optional)
    _require(not unknown, path, f"unknown key(s) {sorted(unknown)}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x, path):
    """`x` as a float, when it is a finite JSON number: booleans, strings,
    NaN and infinities (which `json.load` accepts) are rejected."""
    if isinstance(x, float):
        finite = math.isfinite(x)
    else:
        finite = _is_int(x) and abs(x) <= sys.float_info.max
    _require(finite, path, "expected a finite number")
    return float(x)


def _vector(x, path, n):
    _require(
        isinstance(x, (list, tuple)) and len(x) == n, path, f"expected {n} numbers"
    )
    return [_number(v, path) for v in x]


def _checked(path, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, a library constructor or check, with its
    ValueError reported as a ConfigError at `path`."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _sphere(obj, path):
    center = tuple(_vector(obj["center"], path + ".center", 3))
    radius = _number(obj["radius"], path + ".radius")
    return _checked(path, Sphere, center=center, radius=radius)


class RunConfig:
    """Validated run configuration."""

    def __init__(self, data: dict):
        _check_keys(
            data,
            "config",
            required=("grid", "phases", "geometry", "loading", "solver"),
            optional=("discretization", "outputs"),
        )
        g = data["grid"]
        _check_keys(g, "grid", required=("n", "lengths"))
        n = g["n"]
        _require(
            isinstance(n, (list, tuple)) and len(n) == 3, "grid.n", "expected 3 ints"
        )
        lengths = _vector(g["lengths"], "grid.lengths", 3)
        self.grid = _checked("grid", Grid, n=n, lengths=lengths)
        self.n, self.lengths = self.grid.n, self.grid.lengths

        _require(isinstance(data["phases"], list) and data["phases"], "phases", "non-empty list")
        self.phase_names = []
        self.materials = []
        for i, ph in enumerate(data["phases"]):
            path = f"phases[{i}]"
            _check_keys(ph, path, required=("name", "young", "poisson"))
            _require(isinstance(ph["name"], str), path + ".name", "expected a string")
            _require(ph["name"] not in self.phase_names, path + ".name", "duplicate phase name")
            young = _number(ph["young"], path + ".young")
            poisson = _number(ph["poisson"], path + ".poisson")
            self.materials.append(_checked(path, MaterialIso, young=young, poisson=poisson))
            self.phase_names.append(ph["name"])

        self.assembly = self._parse_geometry(data["geometry"])
        _checked("geometry", check_cell, self.assembly, self.lengths)
        _checked("phases", check_phases, self.assembly, len(self.materials))
        self.discretization = data.get("discretization", "xfem")
        _require(
            self.discretization in ("xfem", "p1"),
            "discretization",
            "must be 'xfem' or 'p1'",
        )
        self.loading = np.array(_vector(data["loading"], "loading", 6))

        s = data["solver"]
        _check_keys(s, "solver", required=(), optional=("scheme", "tol", "maxit"))
        tol, maxit = _number(s.get("tol", 1e-7), "solver.tol"), s.get("maxit", 500)
        _require(_is_int(maxit), "solver.maxit", "expected an integer")
        scheme = s.get("scheme", "lcg")
        self.solver = _checked("solver", SolverConfig, scheme=scheme, tol=tol, maxit=maxit)

        out = data.get("outputs", {})
        _check_keys(out, "outputs", required=(), optional=("fields", "log", "study_ns"))
        self.dump_fields = out.get("fields", False)
        _require(isinstance(self.dump_fields, bool), "outputs.fields", "expected true or false")
        self.log_name = out.get("log", "convergence.csv")
        _require(
            isinstance(self.log_name, str)
            and self.log_name not in ("", ".", "..")
            and os.path.basename(self.log_name) == self.log_name,
            "outputs.log",
            "expected a file name, written inside the output directory",
        )
        self.study_ns = out.get("study_ns", [])
        _require(
            isinstance(self.study_ns, list)
            and all(_is_int(v) and v >= 2 for v in self.study_ns)
            and len(set(self.study_ns)) == len(self.study_ns),
            "outputs.study_ns",
            "expected a list of distinct ints >= 2",
        )

    def _phase_index(self, name, path):
        _require(name in self.phase_names, path, f"phase '{name}' not defined")
        return self.phase_names.index(name)

    def _parse_geometry(self, geom) -> PhaseAssembly:
        _require(isinstance(geom, list), "geometry", "expected a list")
        regions = []
        for i, g in enumerate(geom):
            path = f"geometry[{i}]"
            _require(isinstance(g, dict) and "type" in g, path, "expected object with 'type'")
            kind = g["type"]
            if kind == "sphere":
                _check_keys(g, path, required=("type", "center", "radius", "inside", "outside"))
                shape = _sphere(g, path)
            elif kind == "plane":
                _check_keys(g, path, required=("type", "point", "normal", "inside", "outside"))
                point = tuple(_vector(g["point"], path + ".point", 3))
                normal = tuple(_vector(g["normal"], path + ".normal", 3))
                shape = _checked(path, Plane, point=point, normal=normal)
            elif kind == "sphere_union":
                _check_keys(g, path, required=("type", "spheres", "inside", "outside"))
                _require(
                    isinstance(g["spheres"], list) and g["spheres"],
                    path + ".spheres",
                    "non-empty list",
                )
                members = []
                for j, sp in enumerate(g["spheres"]):
                    sp_path = f"{path}.spheres[{j}]"
                    _check_keys(sp, sp_path, required=("center", "radius"))
                    members.append(_sphere(sp, sp_path))
                shape = SphereUnion(spheres=tuple(members))
            else:
                raise ConfigError(f"{path}.type: unknown primitive '{kind}'")
            regions.append(
                Region(
                    shape=shape,
                    inside_phase=self._phase_index(g["inside"], path + ".inside"),
                    outside_phase=self._phase_index(g["outside"], path + ".outside"),
                )
            )
        background = 0
        return PhaseAssembly(regions=regions, background=background)

    def build(self, n=None):
        grid = self.grid if n is None else Grid(n, self.lengths)
        return build_system(
            self.assembly, grid, self.materials, mode=self.discretization
        )


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return RunConfig(data)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def write_convergence_csv(path, history):
    with open(path, "w") as fh:
        fh.write("iteration,res,res_rel,wall_time\n")
        for k, res, rel, wall in history:
            fh.write(f"{k},{res:.17g},{rel:.17g},{wall:.17g}\n")


def dump_field(path_base, array, descriptor):
    """Raw little-endian float64 dump with a JSON sidecar.

    Arrays are written node-major with the x index fastest, component
    minor, regardless of the in-memory layout.
    """
    arr = np.ascontiguousarray(np.asarray(array, dtype="<f8").transpose(2, 1, 0, 3))
    raw = path_base + ".f64"
    arr.tofile(raw)
    desc = dict(descriptor)
    desc.update(
        dtype="<f8",
        order="x-fastest node-major, component-minor",
        shape=list(np.asarray(array).shape),
    )
    with open(path_base + ".json", "w") as fh:
        json.dump(desc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return raw


def read_field(path_base):
    with open(path_base + ".json") as fh:
        desc = json.load(fh)
    shape = desc["shape"]
    flat = np.fromfile(path_base + ".f64", dtype="<f8")
    return flat.reshape(shape[2], shape[1], shape[0], shape[3]).transpose(2, 1, 0, 3)


def write_vtk(path, array, grid):
    """Legacy-ASCII structured-points export for visualization."""
    n1, n2, n3 = array.shape[:3]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nxfft field\nASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {n1} {n2} {n3}\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {grid.h[0]:.17g} {grid.h[1]:.17g} {grid.h[2]:.17g}\n")
        fh.write(f"POINT_DATA {n1 * n2 * n3}\n")
        fh.write("VECTORS displacement double\n")
        flat = array.transpose(2, 1, 0, 3).reshape(-1, 3)
        for v in flat:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _warn_report(system):
    lay, cch = system.layout, system.caches
    lines = []
    if lay.n_multi_interface:
        lines.append(
            f"warning: {lay.n_multi_interface} elements cut by more than one "
            "interface were assembled without enrichment"
        )
    if cch.n_dropped_dofs:
        lines.append(f"warning: {cch.n_dropped_dofs} enriched dofs dropped")
    return lines


_OPENBLAS_AFFIXES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _openblas_fn(name, argtypes, restype):
    """Function `name` of numpy's bundled OpenBLAS, or None if not reachable."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_AFFIXES:
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                fn.argtypes = argtypes
                fn.restype = restype
                return fn
    return None


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not reachable."""
    fn = _openblas_fn("get_num_threads", [], ctypes.c_int)
    return None if fn is None else int(fn())


def set_openblas_threads(n: int):
    """Set the thread count of numpy's bundled OpenBLAS, if it is reachable."""
    fn = _openblas_fn("set_num_threads", [ctypes.c_int], None)
    if fn is not None:
        fn(max(1, int(n)))


def set_threads(n: int):
    """The one thread-control point: FFT workers and OpenBLAS threads."""
    greenop.set_fft_workers(n)
    set_openblas_threads(n)


def maxrss_mb() -> float:
    """Peak resident memory of this process so far, in MB (1e6 bytes)."""
    # ru_maxrss counts kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cmd_solve(cfg: RunConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    system = cfg.build()
    t1 = time.perf_counter()
    maxrss_build = maxrss_mb()
    result = run_scheme(system, cfg.solver, cfg.loading)
    t2 = time.perf_counter()
    maxrss_solve = maxrss_mb()
    wall = t2 - t0
    write_convergence_csv(os.path.join(out_dir, cfg.log_name), result.history)
    summary = {
        "average_stress": [float(v) for v in result.sigma],
        "iterations": result.iterations,
        "converged": result.converged,
        "scheme": result.scheme,
        "residual": result.res_final,
        "residual_verified": result.res_verified,
        "residual_verified_within_tol": result.verified_within_tol,
        "fft_workers": greenop.fft_workers(),
        "openblas_threads": openblas_threads(),
        "cache_bytes": system.caches.nbytes,
        "wall_time": wall,
        "build_time": t1 - t0,
        "solve_time": t2 - t1,
        "maxrss_build_mb": maxrss_build,
        "maxrss_solve_mb": maxrss_solve,
        "n_dofs": system.layout.n_dofs,
        "n_enriched_nodes": system.layout.n_x,
        "n_multi_interface_elements": system.layout.n_multi_interface,
        "n_dropped_enriched_dofs": system.caches.n_dropped_dofs,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in _warn_report(system):
        print(line)
    if cfg.dump_fields:
        dump_field(
            os.path.join(out_dir, "displacement"),
            result.u.grid,
            {"field": "displacement fluctuation", "units": "um", "grid": list(cfg.n)},
        )
        write_vtk(
            os.path.join(out_dir, "displacement.vtk"), result.u.grid, system.grid
        )
    print(
        f"<sigma> = [{', '.join(f'{v:.6g}' for v in result.sigma)}] MPa, "
        f"{result.iterations} iterations, {wall:.2f} s"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_sweep(cfg: RunConfig, out_dir):
    _require(cfg.study_ns, "outputs.study_ns", "sweep needs a non-empty list")
    os.makedirs(out_dir, exist_ok=True)
    ns = sorted(cfg.study_ns)
    rows = []
    status = EXIT_OK
    for n in ns:
        t0 = time.perf_counter()
        system = cfg.build(n=(n, n, n))
        result = run_scheme(system, cfg.solver, cfg.loading)
        wall = time.perf_counter() - t0
        if not result.converged:
            status = EXIT_NOT_CONVERGED
        k_eff = float(result.sigma[:3].sum() / 9.0)
        rows.append((n, k_eff, result.iterations, result.res_final, wall, result.sigma))
        print(f"N={n:4d}: K_eff-like = {k_eff:.8g}, {result.iterations} iterations")
    path = os.path.join(out_dir, "study.csv")
    with open(path, "w") as fh:
        fh.write("n,h,bulk_response,iterations,res,wall_time," +
                 ",".join(f"sigma_{i}" for i in range(6)) + "\n")
        for n, k, its, res, wall, sig in rows:
            h = min(l / n for l in cfg.lengths)
            fh.write(
                f"{n},{h:.17g},{k:.17g},{its},{res:.17g},{wall:.17g},"
                + ",".join(f"{v:.17g}" for v in sig)
                + "\n"
            )
        k_finest = rows[-1][1]
        errs = [abs(r[1] - k_finest) for r in rows[:-1]]
        # within the solver tolerance of the finest, a response differs by round-off
        distinct = 1 + sum(e > cfg.solver.tol * abs(k_finest) for e in errs)
        if len(rows) < 3:
            print("warning: fewer than 3 resolutions, no slope fitted")
        elif distinct < len(rows):
            print(
                f"warning: {len(rows)} resolutions give {distinct} distinct responses, "
                "no slope fitted"
            )
        else:
            hs = [min(l / r[0] for l in cfg.lengths) for r in rows[:-1]]
            fh.write(f"# slope_vs_finest,{fit_slope(hs, errs):.6g}\n")
    print(f"study written to {path}")
    return status


_BUILTINS = ("homogeneous", "laminate", "hashin")


def cmd_validate(name, tol_override=None, scheme="lcg"):
    """Run a built-in golden case against its closed-form reference."""

    def solver_config(tol, maxit):
        tol = tol if tol_override is None else tol_override
        return _checked("--scheme/--tol", SolverConfig, scheme=scheme, tol=tol, maxit=maxit)

    if name == "homogeneous":
        assembly, materials, lengths = homogeneous_cell()
        config = solver_config(1e-10, 100)
        system = build_system(assembly, Grid((8, 8, 8), lengths), materials)
        eps = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        res = run_scheme(system, config, eps)
        ref = iso_stiffness(materials[0]) @ eps
        err = float(np.abs(res.sigma - ref).max() / np.abs(ref).max())
        ok = err < 1e-12 and res.iterations <= 1
        print(f"homogeneous: stress error {err:.3e}, {res.iterations} iterations "
              f"-> {'PASS' if ok else 'FAIL'}")
        return ok
    if name == "laminate":
        assembly, materials, lengths = laminate_cell()
        config = solver_config(1e-12, 400)
        system = build_system(assembly, Grid((8, 8, 8), lengths), materials)
        eff = effective_stiffness(system, config)
        ref = laminate_cell_reference(materials)
        err = float(np.abs(eff.stiffness - ref).max() / np.abs(ref).max())
        ok = err < 1e-8 and eff.converged
        print(f"laminate: effective stiffness error {err:.3e} -> "
              f"{'PASS' if ok else 'FAIL'}")
        return ok
    config = solver_config(1e-7, 300)
    system, materials = hashin_system(16)
    k_eff, res = bulk_modulus_hydrostatic(system, config)
    err = rel_error(k_eff, hashin_bulk_reference(materials))
    ok = err < 1e-3 and 24 <= res.iterations <= 36 and res.converged
    print(f"hashin: K_eff = {k_eff:.6f} MPa, rel error {err:.3e}, "
          f"{res.iterations} iterations -> {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_symbol_dump(cfg: RunConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    system = cfg.build()
    ghat = system.symbol.ghat
    path = os.path.join(out_dir, "green_symbol")
    np.ascontiguousarray(ghat.astype("<c16")).tofile(path + ".c16")
    with open(path + ".json", "w") as fh:
        json.dump(
            {
                "dtype": "<c16",
                "shape": list(ghat.shape),
                "layout": "half-spectrum rfft, frequency-major, 3x3 block minor",
                "grid": list(cfg.n),
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"symbol written to {path}.c16")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _threads(args):
    """Thread count from --threads, else XFFT_THREADS, else 1."""
    if args.threads is not None:
        key, value = "--threads", args.threads
    else:
        key, value = "XFFT_THREADS", os.environ.get("XFFT_THREADS") or "1"
    try:
        n = int(value)
    except ValueError:
        n = 0
    _require(n >= 1, key, f"expected a positive integer, got {value!r}")
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="xfft",
        description="FFT-preconditioned interface-enriched voxel FEM homogenization",
    )
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, run, text in (
        ("solve", cmd_solve, "run one cell solve"),
        ("sweep", cmd_sweep, "run a resolution study"),
        ("symbol-dump", cmd_symbol_dump, "dump the preconditioner symbol"),
    ):
        p = sub.add_parser(command, help=text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--tol", type=float, default=None, help="override solver.tol")
        p.add_argument("--scheme", default=None, help="override solver.scheme")

    p_val = sub.add_parser("validate", help="run a built-in golden case")
    p_val.add_argument("case", choices=_BUILTINS)
    p_val.add_argument("--tol", type=float, default=None)
    p_val.add_argument("--scheme", default="lcg")

    args = parser.parse_args(argv)
    try:
        set_threads(_threads(args))
        if args.command == "validate":
            ok = cmd_validate(args.case, tol_override=args.tol, scheme=args.scheme)
            return EXIT_OK if ok else EXIT_VALIDATE_FAIL
        cfg = load_config(args.config)
        if args.tol is not None or args.scheme is not None:
            cfg.solver = _checked(
                "--scheme/--tol",
                SolverConfig,
                scheme=args.scheme or cfg.solver.scheme,
                tol=args.tol if args.tol is not None else cfg.solver.tol,
                maxit=cfg.solver.maxit,
            )
        return args.run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
