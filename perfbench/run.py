"""hlstm benchmark: the train, hindcast and cli workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process; ``all`` runs each workload in its own
process, one after the other. A run sets up the workload's inputs from the
seed three times (timing each), then repeats whole rounds of the workload's
operations while another round should still end within ``--seconds``, then
checks every round's outputs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One BLAS thread: the workloads' matrices are small, and one thread trained
# faster than two on a 2-core machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train", "hindcast", "cli")
SETUP_REPEATS = 3
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "rmse": "m3/m3",
         "train_sample_days_per_s": "sample-days/s",
         "predict_pixel_days_per_s": "pixel-days/s"}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_days"):
        return name.rsplit(".", 1)[1].replace("_", "-")
    if name.endswith("per_fit"):
        return "ratio"
    return "count"


def _median_or_none(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run and check one workload in this process; returns the
    result object and a human-readable summary."""
    if not os.path.isfile(os.path.join(SRC, "hlstm", "__init__.py")):
        raise SystemExit(f"error: no hlstm sources at {SRC}; run from a checkout")
    sys.path[:0] = [SRC, HERE]
    import tracing  # noqa: E402  (imports numpy and hlstm)
    import workloads  # noqa: E402

    imports_s = time.perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[name]()
    workdir = os.path.join(OUT, f"{name}-seed{seed}-{os.getpid()}")
    # An untraced run wraps only the two stages whose rates it reports.
    tracer = tracing.Tracer() if trace else tracing.Tracer(tracing.STAGE_FUNCTIONS)
    tracer.install()
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            tracer.begin(f"setup-{k}")
            start = time.perf_counter()
            inputs = wl.setup(seed, os.path.join(workdir, "setup"))
            setup_times.append(time.perf_counter() - start)
            tracer.end()

        # Start a round only while it should end within --seconds, judged by
        # the longest round so far; the first round always runs.
        rounds = []
        while not rounds or (sum(r.wall for r in rounds)
                             + max(r.wall for r in rounds) <= seconds):
            tracer.begin(f"round-{len(rounds)}")
            start = time.perf_counter()
            rnd = wl.round(inputs, os.path.join(workdir, f"round-{len(rounds)}"))
            rnd.wall = time.perf_counter() - start
            tracer.end()
            rounds.append(rnd)
    finally:
        tracer.uninstall()

    for k, rnd in enumerate(rounds):
        if not rnd.failed:
            try:
                wl.check(inputs, rnd, rounds[0] if k else None)
            except Exception:  # noqa: BLE001 - a check that cannot run fails the round
                rnd.fail(wl.ops[-1], "check raised: " + traceback.format_exc(limit=3))
        if k:
            shutil.rmtree(os.path.join(workdir, f"round-{k}"), ignore_errors=True)
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(wl.ops) * len(rounds)
    failed = sum(len(r.failed) for r in rounds)
    walls = [r.wall for r in rounds]
    lines = [f"workload {name}: seed {seed}, {len(rounds)} round(s) of "
             f"{len(wl.ops)} operation(s), round wall times "
             + ", ".join(f"{w:.3f}" for w in walls) + " s",
             "first round: " + ", ".join(f"{op} {t:.3f} s" for op, t in rounds[0].times.items())]
    for k, rnd in enumerate(rounds):
        for op, why in rnd.failed.items():
            lines.append(f"FAILED round {k} {op}: {why.strip()}")
    reference = getattr(rounds[0], "reference", {})
    if reference:
        lines.append("reference: " + ", ".join(f"{k} {v:.5f}" for k, v in reference.items()))

    if trace:
        tracer.write(os.path.join(OUT, "traces", f"{name}-seed{seed}.json"))
        values = tracer.layer_metrics()
        first = tracer.per_run()["round-0"]
        lines.append(f"traced run_s {statistics.median(walls):.4f} s; in the first round "
                     f"({walls[0]:.4f} s) layer self times plus untraced.s sum to "
                     f"{sum(v for n, v in first.items() if n.endswith('.s')):.4f} s")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        values = {
            "setup_s": imports_s + statistics.median(setup_times),
            "run_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rmse": rounds[0].rmse,
            "train_sample_days_per_s": _median_or_none(
                tracer.rates("_sample_days", "training.loop")),
            "predict_pixel_days_per_s": _median_or_none(
                tracer.rates("lstm.predict.pixel_days", "lstm.predict")),
        }
        metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()}
    result = {"correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"  {name:9s} {metric:34s} {m['value']} {m['unit']}")
        print(f"  {name:9s} operations attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
