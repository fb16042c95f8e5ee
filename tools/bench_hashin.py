"""Time and size the hashin coated-sphere cell at growing grid sizes.

    python tools/bench_hashin.py [--n128] [--out BENCH_hashin.json]

Runs one child process per N, one after another, for N = 16, 32 and 64
(and 128 with `--n128`), each with one BLAS thread, one FFT worker and
numpy's huge-page madvise off (`NUMPY_MADVISE_HUGEPAGE=0`; with it on, the
memory-bound sweep's time is bimodal by about 20% either way).  A
child builds the hashin cell (`homogenize.hashin_system`), solves the
hydrostatic load case with lcg at tol 1e-7, and then times 10 `_sweep`
calls and 10 `precondition` calls at the solution.  The output holds per
N: build and solve seconds, the iteration count, the median sweep and
preconditioner milliseconds, `ElementCaches.nbytes`, the majority phase
(applied by FFT), the regular voxel rows the sweep still gathers (those of
the other phases), the bytes of the Green symbol and of the majority
phase's symbol, the peak RSS (MiB, `ru_maxrss`) after the build and after
the solve, the thread counts in effect, the madvise setting and the git
commit.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 10


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def git_sha():
    """HEAD commit, with "-dirty" if tracked files differ from it; None
    outside a git checkout."""
    try:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def maxrss_mib():
    # ru_maxrss counts KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_ms(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def child(n):
    """One N in this process; returns its row."""
    import numpy as np

    from xfft import greenop
    from xfft.cli import openblas_threads, set_openblas_threads
    from xfft.homogenize import bulk_modulus_hydrostatic, hashin_system
    from xfft.solver import SolverConfig

    set_openblas_threads(1)
    greenop.set_fft_workers(1)
    t0 = time.perf_counter()
    system, _ = hashin_system(n)
    t1 = time.perf_counter()
    rss_build = maxrss_mib()
    _, res = bulk_modulus_hydrostatic(system, SolverConfig("lcg", 1e-7, 500))
    t2 = time.perf_counter()
    rss_solve = maxrss_mib()
    eps = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    f = system._sweep(res.u, eps)[0]
    return {
        "n": n,
        "n_dofs": system.layout.n_dofs,
        "sweep_blocks": len(system._sweep_blocks),
        "build_s": t1 - t0,
        "solve_s": t2 - t1,
        "iterations": res.iterations,
        "converged": res.converged,
        "sweep_ms": median_ms(lambda: system._sweep(res.u, eps)),
        "precondition_ms": median_ms(lambda: system.precondition(f)),
        "cache_bytes": system.caches.nbytes,
        "majority_phase": system.caches.majority,
        "swept_rows": len(system.caches.minority_dofs),
        "green_symbol_bytes": system.symbol.gplanes.nbytes,
        "majority_symbol_bytes": system.symbol.ahat.nbytes,
        "maxrss_build_mib": rss_build,
        "maxrss_solve_mib": rss_solve,
        "openblas_threads": openblas_threads(),
        "fft_workers": greenop.fft_workers(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n128", action="store_true", help="also run N=128 (~2 GB, ~1 min)")
    p.add_argument("--out", default=str(ROOT / "BENCH_hashin.json"))
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(child(args.child)))
        return
    env = dict(os.environ, **{v: "1" for v in THREAD_ENV}, NUMPY_MADVISE_HUGEPAGE="0")
    rows = []
    for n in (16, 32, 64) + ((128,) if args.n128 else ()):
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(n)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        rows.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    result = {
        "cell": "hashin coated sphere, lcg hydrostatic, tol 1e-7",
        "git_sha": git_sha(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: env[v] for v in THREAD_ENV},
        "numpy_madvise_hugepage": env["NUMPY_MADVISE_HUGEPAGE"],
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
