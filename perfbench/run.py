"""xfft benchmark: time to an effective stiffness on seeded cells.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hashin-xfem --seed 1 --seconds 55 --trace 0

Each repetition builds the system from the seeded inputs, solves every
load case and checks the answer.  Repetitions continue while the next one
is expected to end within `--seconds`.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
the repetitions that passed their check); with `--trace 1` every other
repetition is traced and the per-layer metrics are reported instead,
together with the tracing overhead.  Per-repetition records, the
environment and the spans go to perfbench/out/.

BLAS threads and FFT workers are fixed at 1: the environment is set before
numpy loads, and the FFT through `greenop.set_fft_workers`.  The settings
in effect are read back and recorded with every result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy's default madvise(MADV_HUGEPAGE) on large arrays made the memory-bound
# sweep bimodal (about 20% either way) with whether the kernel had huge pages
# free at the time, so the benchmark process opts out
FIXED_ENV = dict.fromkeys(THREAD_VARS, "1") | {"NUMPY_MADVISE_HUGEPAGE": "0"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids, for tests")
    return p.parse_args(argv)


def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if reachable."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(n_dofs):
    import numpy as np
    import scipy

    from xfft import greenop

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "n_dofs": n_dofs,
        "fixed_env": {v: os.environ.get(v) for v in FIXED_ENV},
        "numpy_madvise_hugepage": bool(np._core.multiarray._get_madvise_hugepage()),
        "openblas_threads": openblas_threads(),
        "fft_workers": greenop._FFT_WORKERS,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "xfft").is_dir():
        sys.exit(f"perfbench: no xfft sources under {ROOT / 'src'}; run from a checkout")
    os.environ.update(FIXED_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads
    from xfft import greenop, solver

    greenop.set_fft_workers(1)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    inp = workloads.make_inputs(args.workload, args.seed, smoke=args.smoke)
    # warm up every code path on the tiny grid, so that no repetition pays
    # for first-call set-up inside numpy or scipy, and build once at full
    # size, so that the first timed set-up does not pay for the process's
    # first page faults at that size
    workloads.run_once(workloads.make_inputs(args.workload, args.seed, smoke=True))
    solver.build_system(inp.assembly, inp.grid, inp.materials, mode=inp.mode)

    records, spans, layers = [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 0
        gc.collect()
        if traced:
            with tracing.Tracer() as tracer:
                outcome = workloads.run_once(inp)
            spans.append(tracer.spans)
            layers.append(tracing.layer_metrics(tracer.spans, outcome, inp.config))
        else:
            outcome = workloads.run_once(inp)
        rec = {
            "traced": traced,
            "setup_s": outcome.setup_s,
            "solve_s": outcome.solve_s,
            "time_to_solution_s": outcome.setup_s + outcome.solve_s,
            "iterations": outcome.iterations,
            "correct": outcome.correct,
            "error": outcome.error,
            "n_dofs": outcome.n_dofs,
        }
        records.append(rec)
        print(json.dumps(rec), flush=True)
        del outcome
        elapsed = time.perf_counter() - start
        rep_s = elapsed / len(records)
        enough = not args.trace or len(records) >= 2
        if enough and elapsed + rep_s > args.seconds:
            break

    failed = sum(not r["correct"] for r in records)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        # traced minus untraced time to solution, paired with the untraced
        # repetition that follows, so that slow phases of the host cancel
        tts = [r["time_to_solution_s"] for r in records]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - p for t, p in zip(tts[0::2], tts[1::2])),
            "unit": "s",
        }
    else:
        valid = [r for r in records if r["correct"]] or records
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            key: {"value": statistics.median(r[key] for r in valid), "unit": unit}
            for key, unit in (
                ("setup_s", "s"),
                ("solve_s", "s"),
                ("time_to_solution_s", "s"),
                ("iterations", "count"),
            )
        }
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}

    env = environment({args.workload: records[0]["n_dofs"]})
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(
            {"args": vars(args), "env": env, "records": records, "result": result,
             "spans": spans},
            fh,
        )
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
