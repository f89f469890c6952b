"""vrlasim benchmark: microseconds per simulated step on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload low_static_eol --seed 42 --seconds 35 --trace 0

The workload's inputs are made from --seed.  Repetitions run one after
another in this process (closed loop, one caller) until --seconds is
spent.  `wall_s`, `us_per_step` and `cpu_s` are medians over the
repetitions; `setup_s` is the median over every set-up made in the run
(several per repetition on the library workloads, see workloads.SETUPS).
With --trace 1 the run makes one untraced and one traced repetition and
reports the per-layer metrics instead.  Every repetition's outputs are
checked (see workloads.py); the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`, and the
exit code is 0 only when every operation passed its checks.

A full report with the environment block and every repetition goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_REFS = os.path.join(HERE, "references.json")
OUT_DIR = ".perfbench"
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "us_per_step": "us/step",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def use_checkout_src(root: str) -> None:
    """Import vrlasim from root/src and nowhere else; exit with an error otherwise."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vrlasim", "__init__.py")):
        sys.exit(f"error: {src}/vrlasim not found; run from the root of a vrlasim checkout")
    sys.path.insert(0, src)
    import vrlasim

    if not os.path.abspath(vrlasim.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported vrlasim from {vrlasim.__file__}, not {src}")


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs.  Steal is time the host ran
    something else while this machine wanted the CPU; on a virtual
    machine it shows a busy host that the load average cannot see."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def environment(root: str) -> dict:
    """Where and on what the run happened; nothing here changes the machine."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "vrlasim", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_reps(workloads, name: str, seed: int, size: str, seconds: float, work_dir: str):
    """Untraced repetitions until `seconds` would be exceeded (at least one)."""
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        rep = one_rep(workloads, name, seed, size, work_dir, None)
        reps.append(rep)
        now = time.perf_counter()
        if rep.failed or now - start + (now - t0) > seconds:
            return reps


def one_rep(workloads, name, seed, size, work_dir, trace_dir, setups=None):
    setups = workloads.SETUPS if setups is None else setups
    try:
        return workloads.WORKLOADS[name](seed, size, work_dir, trace_dir, setups)
    except Exception:
        ops = workloads.OPERATIONS[name]
        return workloads.Rep(wall_s=0.0, setup_samples=[], run_s=0.0, cpu_s=0.0, steps=0,
                             attempted=ops, failed=ops, problems=[traceback.format_exc()])


def traced_metrics(workloads, name, seed, size, work_dir) -> tuple[list, dict]:
    """One untraced and one traced repetition, each with one set-up;
    per-layer metrics of the latter."""
    import tracing

    gc.collect()
    plain = one_rep(workloads, name, seed, size, work_dir, None, setups=1)
    gc.collect()
    trace_dir = os.path.join(work_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    if name == "cli_sweep":
        traced = one_rep(workloads, name, seed, size, work_dir, trace_dir, setups=1)
        dumps = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
            with open(path) as fh:
                dumps.append(json.load(fh))
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = one_rep(workloads, name, seed, size, work_dir, None, setups=1)
        finally:
            uninstall()
        dumps = [tracer.dump()]
    metrics = tracing.layer_metrics(dumps, traced.steps, traced.ingest_rows)
    metrics["trace_overhead"] = (
        traced.us_per_step / plain.us_per_step - 1.0 if plain.us_per_step else 0.0
    )
    spans_path = os.path.join(OUT_DIR, "traces", f"{name}_seed{seed}_{size}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(dumps, fh)
    return [plain, traced], metrics


def check_digests(reps, refs: dict, size: str, name: str, seed: int) -> None:
    """Every repetition must match the stored reference, and each other."""
    want = refs.get(size, {}).get(name, {}).get(str(seed))
    first = next((r.digest for r in reps if r.digest), None)
    for rep in reps:
        if rep.failed:
            continue
        expected = want or first
        if rep.digest != expected:
            what = "reference" if want else "first repetition"
            rep.problems.append(f"output digest {rep.digest} != {what} {expected}")
            rep.failed = rep.attempted


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.6g} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["low_static_eol", "infrequent_compare", "cli_sweep"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: a few simulated days, for the benchmark's own tests")
    parser.add_argument("--refs", default=DEFAULT_REFS, help="reference digests (JSON)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    use_checkout_src(root)
    import workloads

    env = environment(root)
    ticks_start = _cpu_ticks()
    with open(args.refs) as fh:
        refs = json.load(fh)
    work_dir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            reps, metrics = traced_metrics(workloads, args.workload, args.seed,
                                           args.size, work_dir)
        else:
            reps = run_reps(workloads, args.workload, args.seed, args.size,
                            args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check_digests(reps, refs, args.size, args.workload, args.seed)
    env["loadavg_end"] = _loadavg()
    ticks = _cpu_ticks()
    if ticks and ticks_start and ticks[1] > ticks_start[1]:
        env["steal_frac"] = (ticks[0] - ticks_start[0]) / (ticks[1] - ticks_start[1])

    good = [r for r in reps if not r.failed]
    setup_samples = [t for r in good for t in r.setup_samples]
    if not args.trace:
        metrics = {}
        if good:
            for key in ("wall_s", "us_per_step", "cpu_s"):
                metrics[key] = statistics.median(getattr(r, key) for r in good)
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mb"] = _peak_rss_mb()
        units = END_TO_END_UNITS
    else:
        import tracing

        units = tracing.PER_LAYER_UNITS
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = failed == 0 and bool(good) and set(metrics) == set(units)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  repetitions {len(reps)}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, r in enumerate(reps, 1):
        print(f"rep {i}: wall_s={r.wall_s:.4f} setup_s={r.setup_s:.4f} "
              f"us_per_step={r.us_per_step:.3f} cpu_s={r.cpu_s:.4f} steps={r.steps} "
              f"failed={r.failed}/{r.attempted}")
        for problem in r.problems:
            print(f"  FAILED: {problem}")
    for key, value in metrics.items():
        spread = ""
        if not args.trace and key in ("wall_s", "us_per_step", "cpu_s"):
            spread = "  " + _spread([getattr(r, key) for r in good])
        elif not args.trace and key == "setup_s":
            spread = "  " + _spread(setup_samples)
        print(f"{key:34s} {value:14.6f} {units[key]}{spread}")
    print(f"{'failed_frac':34s} {failed / attempted:14.6f} ratio")

    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "reps": [dict(vars(r), setup_s=r.setup_s, us_per_step=r.us_per_step)
                       for r in reps]}
    path = os.path.join(OUT_DIR, "results",
                        f"{args.workload}_seed{args.seed}_{args.size}_trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
