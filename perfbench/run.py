"""projconvex benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload metric --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics: it repeats the
workload's fixed task list (one pass) in a closed loop for --seconds seconds
and reports statistics of the per-task mean times.  With --trace 1 it runs a
fixed number of passes, one of them traced, and reports the per-layer
metrics.  The last line of standard output is the JSON result; see
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin every BLAS/OpenMP pool before numpy is imported, here and in children.
THREAD_KNOBS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                "BLIS_NUM_THREADS")
for _knob in THREAD_KNOBS:
    os.environ[_knob] = "1"
os.environ["PYTHONHASHSEED"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("metric", "center", "certify", "cli")
SETUP_PROBES = 5
TAIL_BEYOND = 10   # the tail percentile leaves exactly this many tasks above it
# The reference host is a shared VM whose speed drifts by up to 1.7x over
# minutes and flips between two speeds within seconds, so end-to-end times are
# rescaled by a fixed calibration kernel timed all through the same run:
# t * CALIBRATION_S / (mean kernel time).  Means on both sides weight the two
# speeds alike.  CALIBRATION_S is the kernel's time on the reference host.
CALIBRATION_S = 0.010
CALIBRATION_EVERY_S = 0.25


def load_workload(name):
    import importlib
    return importlib.import_module(f"workload_{name}")


# ---------------------------------------------------------------------------
# set-up


def calibration_kernel():
    """Fixed interpreter + small-numpy work, the library's typical mix."""
    import numpy as np
    a = np.arange(9.0).reshape(3, 3)
    eye = np.eye(3)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(750):
        m = eye + 1e-3 * i * a
        acc += np.linalg.det(m) + float(m[1] @ m[2])
        acc += sum([j * 0.5 for j in range(20)])
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration-kernel samples, at most one per CALIBRATION_EVERY_S.

    A workload may bring its own kernel and reference time (the `cli` one
    starts an interpreter, like its tasks)."""

    def __init__(self, wl=None):
        self.kernel = getattr(wl, "calibration_kernel", calibration_kernel)
        self.reference = getattr(wl, "CALIBRATION_S", CALIBRATION_S)
        self.samples = []
        self.last = -float("inf")

    def __call__(self, force=False):
        if force or time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.samples.append(self.kernel())
            self.last = time.perf_counter()

    def scale(self):
        return self.reference / statistics.fmean(self.samples)


def setup_probe(workload, seed):
    """Body of one set-up child: import projconvex and generate the inputs."""
    t0 = time.perf_counter()
    import projconvex  # noqa: F401  (the import is what is being timed)
    wl = load_workload(workload)
    raw = wl.generate(seed, OUT / f"probe-{os.getpid()}")
    wl.build(raw)
    elapsed = time.perf_counter() - t0
    wl.cleanup(raw)
    speed = HostSpeed()
    for _ in range(5):
        speed(force=True)
    print(json.dumps({"setup_s": elapsed, "scale": speed.scale()}))


def measure_setup(workload, seed):
    """Median rescaled set-up time over fresh processes, run one at a time."""
    from common import child_env
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(r["setup_s"] * r["scale"] for r in runs), runs


# ---------------------------------------------------------------------------
# passes


def run_pass(tasks, tracer=None, between=None):
    """Run the task list in order; returns per-task times and outcomes.

    Outcomes: "ok", "known" (a recorded limitation raised), "wrong" (the
    check failed) or "error" (an unexpected exception).  `between` runs
    untimed after each task.
    """
    times, outcomes, notes = [], [], []
    for t in tasks:
        if tracer:
            tracer.paused = False
            idx = tracer.open("task." + t.cls)
        t0 = time.perf_counter()
        try:
            result = t.call()
            err = None
        except Exception as exc:  # the harness must record every failure
            result, err = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(idx)
            tracer.paused = True   # checks may call the library; keep them out
        times.append(dt)
        if err is not None:
            if isinstance(err, t.known):
                outcomes.append("known")
            else:
                outcomes.append("error")
                notes.append(f"{t.cls}: {type(err).__name__}: {err}")
            continue
        try:
            good = t.check(result)
        except Exception as exc:  # a check that raises is a failed check
            good = False
            notes.append(f"{t.cls}: check raised {type(exc).__name__}: {exc}")
        if good:
            outcomes.append("ok")
        else:
            outcomes.append("wrong")
            notes.append(f"{t.cls}: answer failed its check")
        if between:
            between()
    return times, outcomes, notes


def tail_index(n):
    """Index into ascending times with exactly TAIL_BEYOND tasks above it."""
    return max(0, n - TAIL_BEYOND - 1)


def pass_stats(times):
    ordered = sorted(times)
    n = len(ordered)
    return {"batch_s": sum(ordered),
            "p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": ordered[tail_index(n)] * 1e3,
            "tail_percentile": 100.0 * (tail_index(n) + 1) / n,
            "tasks": n}


def peak_rss_mb(wl, raw):
    """ru_maxrss of the process doing the work: this one, or the CLI children."""
    import resource
    if hasattr(wl, "peak_rss_kb"):
        return wl.peak_rss_kb(raw) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, raw, seconds):
    """Closed loop: whole passes until the next one would overrun --seconds."""
    passes = []
    speed = HostSpeed(wl)
    start = time.perf_counter()
    while True:
        speed(force=True)
        objs = wl.build(raw)
        times, outcomes, notes = run_pass(wl.tasks(objs), between=speed)
        passes.append({"times": times, "outcomes": outcomes, "notes": notes})
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            speed(force=True)
            return passes, speed


def end_to_end(wl, raw, seconds, setup):
    """Each task's time is its mean over the passes, rescaled to the
    calibration kernel; the pass statistics are taken over those."""
    passes, speed = measure(wl, raw, seconds)
    scale = speed.scale()
    typical = [statistics.fmean(ts) * scale
               for ts in zip(*(p["times"] for p in passes))]
    stats = pass_stats(typical)
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o != "ok" for o in outcomes)
    metrics = {
        "setup_s": (setup, "s"),
        "batch_s": (stats["batch_s"], "s"),
        "task_p50_ms": (stats["p50_ms"], "ms"),
        "task_tail_ms": (stats["tail_ms"], "ms"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(wl, raw), "MB"),
    }
    detail = {"passes": [{**pass_stats(p["times"]), "notes": p["notes"],
                          "times": p["times"]} for p in passes],
              "tail_percentile": stats["tail_percentile"],
              "tasks_per_pass": stats["tasks"],
              "speed_scale": scale,
              "calibration_samples_s": speed.samples,
              "known_failures": outcomes.count("known")}
    correct = all(o in ("ok", "known") for o in outcomes)
    return metrics, attempted, failed, correct, detail


def traced(wl, raw):
    """Untraced pass, traced pass, untraced pass; per-layer metrics."""
    import tracing
    if hasattr(wl, "traced_run"):
        return wl.traced_run(raw, run_pass)
    runs = []
    tracer = tracing.Tracer()
    for mode in ("plain", "traced", "plain"):
        if mode == "traced":
            tracer.install()
            try:
                idx = tracer.open("setup.build")
                objs = wl.build(raw)
                tracer.close(idx)
                times, outcomes, notes = run_pass(wl.tasks(objs), tracer)
            finally:
                tracer.uninstall()
        else:
            objs = wl.build(raw)
            times, outcomes, notes = run_pass(wl.tasks(objs))
        runs.append((mode, sum(times), outcomes, notes))
    plain = statistics.mean(r[1] for r in runs if r[0] == "plain")
    traced_s = runs[1][1]
    layers = tracing.layer_metrics(tracer, getattr(wl, "SIMPLICES", {}))
    layers["trace.overhead_frac"] = (traced_s / plain - 1.0, "fraction")
    outcomes = [o for r in runs for o in r[2]]
    notes = [n for r in runs for n in r[3]]
    return layers, outcomes, notes, tracer


def declared_layers(layers):
    """Every per-layer metric BENCHMARK.json declares, in its order and unit;
    a layer this workload does not reach reads 0."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unknown = set(layers) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return {m["name"]: (layers.get(m["name"], (0, None))[0], m["unit"])
            for m in declared}


# ---------------------------------------------------------------------------
# provenance


def provenance():
    import hashlib
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "projconvex").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # only this checkout's own repository, not one that encloses it
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ[k] for k in THREAD_KNOBS},
            "remaining_variation": (
                "the shared host's speed (other tenants, CPU frequency), "
                "partly removed by the calibration rescaling, and the file "
                "cache state of cold imports; nothing runs concurrently "
                "inside the benchmark")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "projconvex" / "__init__.py").is_file():
        print(f"benchmark: no projconvex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    setup = setup_runs = None
    if not args.trace:
        setup, setup_runs = measure_setup(args.workload, args.seed)
    import projconvex
    if Path(projconvex.__file__).resolve().parent != SRC / "projconvex":
        print("benchmark: projconvex was not imported from this checkout",
              file=sys.stderr)
        return 2
    wl = load_workload(args.workload)
    raw = wl.generate(args.seed, OUT / f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            layers, outcomes, notes, tracer = traced(wl, raw)
            metrics = declared_layers(layers)
            attempted = len(outcomes)
            failed = sum(o != "ok" for o in outcomes)
            correct = all(o in ("ok", "known") for o in outcomes)
            span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(span_file)
            detail = {"notes": notes,
                      "span_file": str(span_file.relative_to(ROOT))}
        else:
            metrics, attempted, failed, correct, detail = end_to_end(
                wl, raw, args.seconds, setup)
            detail["setup_runs_s"] = setup_runs
    finally:
        wl.cleanup(raw)

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **provenance(),
            **detail}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
