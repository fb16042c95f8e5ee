"""Summarize benchmark runs: median and quartiles of every metric.

Reads the per-run records that run.py leaves in perfbench/out/ (smoke runs
are skipped) and prints, per workload and trace mode, the number of runs
and seeds, the median, the quartiles and the spread (interquartile
distance over the median) of each metric, the median and tail percentile
of untraced time to solution pooled over every repetition, and the
environment of the first run.  With --write PATH the same summary is
saved as JSON.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]
"""

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths):
    groups = {}
    for path in sorted(paths):
        run = json.loads(path.read_text())
        if run["args"]["smoke"]:
            continue
        key = f"{run['args']['workload']} trace={run['args']['trace']}"
        groups.setdefault(key, []).append(run)
    summary = {}
    for key, runs in sorted(groups.items()):
        values = {}
        for run in runs:
            for name, m in run["result"]["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        metrics = {}
        for name, (vals, unit) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            metrics[name] = {
                "unit": unit,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
        summary[key] = {
            "runs": len(runs),
            "run_seconds": sorted({r["args"]["seconds"] for r in runs}),
            "seeds": sorted(r["args"]["seed"] for r in runs),
            "repetitions": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "env": runs[0]["env"],
            "metrics": metrics,
            "untraced_repetitions": repetition_tail(runs),
        }
    return summary


def repetition_tail(runs):
    """Median and the highest percentile with at least ten untraced
    repetitions beyond it, of time to solution pooled over all runs."""
    tts = sorted(
        r["time_to_solution_s"] for run in runs for r in run["records"] if not r["traced"]
    )
    out = {"count": len(tts), "median_s": statistics.median(tts) if tts else None}
    for p in (99, 95, 90, 75):
        if len(tts) * (100 - p) >= 1000:
            out[f"p{p}_s"] = statistics.quantiles(tts, n=100)[p - 1]
            break
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", type=Path, help="also save the summary as JSON here")
    args = p.parse_args()
    summary = summarize(OUT.glob("*.json"))
    for key, s in summary.items():
        print(f"{key}: {s['runs']} runs of {s['run_seconds']} s, {s['repetitions']} repetitions,"
              f" {s['failed']} failed,"
              f" untraced time to solution {s['untraced_repetitions']}")
        for name, m in s["metrics"].items():
            spread = "" if m["spread"] is None else f"  spread {m['spread']:.3f}"
            print(f"  {name:34s} {m['median']:12.5g} {m['unit']:6s}"
                  f" [{m['q1']:.5g}, {m['q3']:.5g}]{spread}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
