"""Run every workload over several seeds and summarise, one process at a time.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/sweep.json

For each workload: one end-to-end run per seed, then for each end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(quartile distance / median) against the bound in BENCHMARK.json; then two
traced runs of the first seed, and whether their counts repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-layer units that are times or time ratios; all others are counts
TIMED_UNITS = {"s", "us", "fraction", "exponent"}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": time.perf_counter() - t0,
            "result": json.loads(lines[-1]),
            "meta": json.loads(lines[-2])["meta"]}


def summarise(runs, bounds):
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, bench["run_seconds"], 0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        entry = {"runs": [{k: r[k] for k in ("seed", "wall_s", "result")}
                          for r in runs],
                 "summary": summarise(runs, bounds),
                 "meta": {k: v for k, v in runs[0]["meta"].items()
                          if k in ("commit", "src_sha256", "nproc", "python",
                                   "numpy", "scipy", "threads",
                                   "remaining_variation", "tail_percentile",
                                   "tasks_per_pass")}}
        for name, s in entry["summary"].items():
            print(f"  {workload:8s} {name:13s} median={s['median']:.5g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}", flush=True)
        traced = [run(workload, args.seeds[0], bench["run_seconds"], 1)
                  for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
                   if units[k] not in TIMED_UNITS} for t in traced]
        entry["traced"] = [{k: t[k] for k in ("seed", "wall_s", "result")}
                           for t in traced]
        entry["counts_repeat"] = counts[0] == counts[1]
        print(f"  {workload:8s} counts repeat: {entry['counts_repeat']}",
              flush=True)
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
