"""End-to-end benchmark of the abssep toolkit.

    python3 perfbench/run.py --workload {orbit,certify,solve,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Each workload runs in this single process with BLAS pinned to one
thread; set-up is timed in five fresh child processes. It repeats whole
rounds of operations until ``--seconds`` have passed and two rounds at least
have run, checks every output, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced rounds and reports per-layer
metrics from the recorded spans. ``--workload all`` runs every workload in
a fresh process of its own and prints one combined line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("orbit", "certify", "solve")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    if not os.path.isfile(os.path.join(SRC, "abssep", "__init__.py")):
        sys.exit(f"error: no abssep sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import abssep

    return abssep


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from process start to inputs ready, measured from outside."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload,
           "--seed", str(seed), "--seconds", "1"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"error: set-up probe for {workload} failed (exit {code})")
    return elapsed


def run_round(ops, speed=None, recorder=None):
    """Run every op once and check its output; only the op itself is timed.

    Returns (items checked, errors, wrong outputs, wall times, scaled times);
    the scaled times are the wall times converted to reference-host time.
    """
    import checks

    items = 0
    errors, wrong, wall, scaled = [], [], [], []
    for k, op in enumerate(ops):
        if speed is not None:
            speed.maybe_sample()
            before = speed.scale()
        if recorder is not None:
            recorder.op_id = k
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises failed; it gave no output to check
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            wall.append(time.perf_counter() - t0)
            scale = 1.0 if speed is None else (before + speed.after_op(wall[-1])) / 2.0
            scaled.append(wall[-1] * scale)
        try:
            items += op.check(result)
        except checks.CheckFailed as exc:
            wrong.append(f"{op.name}: {exc}")
    return items, errors, wrong, wall, scaled


def median_by_op(times: list[float], per_round: int) -> float:
    """Median over a round's ops of each op's median time across rounds."""
    return statistics.median(statistics.median(times[k::per_round]) for k in range(per_round))


def run_workload(args) -> int:
    abssep = import_program()
    import numpy as np

    import spans
    import workloads
    from speed import HostSpeed

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        speed = None if args.trace else HostSpeed()
        setup_raw, setup = [], []
        for _ in range(0 if args.trace else SETUP_PROBES):
            for _ in range(3):
                speed.sample()
            setup_raw.append(probe_setup(args.workload, args.seed))
            setup.append(setup_raw[-1] * speed.scale())

        wall: list[float] = []
        scaled: list[float] = []
        round_rates: list[float] = []
        raw_rates: list[float] = []
        items = rounds = 0
        errors: list[str] = []
        wrong: list[str] = []
        recorder = spans.SpanRecorder() if args.trace else None
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            got, errs, bad, w, sc = run_round(ops, speed)
            wall += w
            scaled += sc
            untraced.append(sum(w))
            round_rates.append(got / sum(sc))
            raw_rates.append(got / sum(w))
            items, rounds = items + got, rounds + 1
            errors += errs
            wrong += bad
            if recorder is not None:
                recorder.install()
                try:
                    got, errs, bad, w, _ = run_round(ops, None, recorder)
                finally:
                    recorder.uninstall()
                traced.append(sum(w))
                items, rounds = items + got, rounds + 1
                errors += errs
                wrong += bad
            # two rounds at least, so that every op has a median of its own
            if time.perf_counter() - start >= args.seconds and rounds >= MIN_ROUNDS:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = rounds * len(ops), len(errors)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "abssep": abssep.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "items_checked": items,
    }
    if args.trace:
        metrics = recorder.metrics(len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = dict(spans.metric_names())
        trace_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        recorder.write(trace_path)
        provenance["spans_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(round_rates),
            "op_p50_ms": median_by_op(scaled, len(ops)) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}
        provenance["wall_clock"] = {
            "setup_s": statistics.median(setup_raw),
            "items_per_s": statistics.median(raw_rates),
            "op_p50_ms": median_by_op(wall, len(ops)) * 1000.0,
            "calibration_median_s": statistics.median(speed.samples),
            "calibration_samples": len(speed.samples),
        }
    for problem in errors[:20]:
        print(f"OP FAILED {problem}")
    for problem in wrong[:20]:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
