"""Cold-start timing of abssep CLI commands in two source trees, run in pairs.

    python3 tools/cold_cli.py PARENT CHANGE [--pairs N] [--command "ARGS"]... [--json OUT]

PARENT and CHANGE are source checkouts (each with src/abssep). Every command
runs as ``python -m abssep ARGS`` in a fresh process per tree and pair, with
one BLAS thread and PYTHONDONTWRITEBYTECODE set; a tree with a bytecode
cache under src/abssep is refused, so each process compiles the package
modules it imports (numpy keeps its installed cache). Pair k runs PARENT
first when k is even and CHANGE first when it is odd. Within a pair both
trees must give the same stdout and exit code, or the script stops. For
each command it prints the median and quartiles of each side's wall time,
the change of the medians, and in how many pairs CHANGE was faster, all as
tools/pair.py's summarize gives them for a lower-is-better metric.
``{spectrum}`` and ``{witness}`` in ARGS name a uniform (3, 3) spectrum and
a (3, 3) witness file that the script writes; the default commands are the
five in DEFAULT_COMMANDS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import pair  # tools/pair.py; a script's own directory is on sys.path

DEFAULT_COMMANDS = (
    "check-spectrum {spectrum}",
    "witness-analyze {witness}",
    "orbit-scan {spectrum} --criterion realignment --samples 200",
    "family werner --n 3 --alpha 0.2",
    "verify-certificates",
)


def _write_inputs(workdir: str) -> dict[str, str]:
    """A uniform (3, 3) spectrum and a unit-trace diagonal (3, 3) witness."""
    paths = {"spectrum": os.path.join(workdir, "spectrum.json"),
             "witness": os.path.join(workdir, "witness.json")}
    with open(paths["spectrum"], "w") as fh:
        json.dump({"m": 3, "n": 3, "values": [1.0 / 9.0] * 9}, fh)
    diagonal = [0.6, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, -0.2]
    entries = [value if i == j else 0.0 for i, value in enumerate(diagonal) for j in range(9)]
    with open(paths["witness"], "w") as fh:
        json.dump({"rows": 9, "cols": 9, "re": entries}, fh)
    return paths


def _run(tree: str, args: list[str]) -> tuple[float, int, bytes]:
    """Wall time, exit code and stdout of one cold `python -m abssep` process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "abssep", *args], env=env, cwd=tree,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def pair_series(parent: str, change: str, command: str, pairs: int, inputs: dict) -> dict:
    """Time one command over the given number of alternating pairs: pair.summarize
    of the (parent, change) wall times in ms, with the command and its exit code."""
    args = command.format(**inputs).split()
    times = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        elapsed, outputs = {}, {}
        for side in order:
            seconds, code, stdout = _run(parent if side == "parent" else change, args)
            elapsed[side], outputs[side] = seconds, (code, stdout)
        if outputs["parent"] != outputs["change"]:
            sys.exit(f"error: {command!r}: stdout or exit code differ in pair {k} "
                     f"(exit {outputs['parent'][0]} vs {outputs['change'][0]})")
        times.append((1e3 * elapsed["parent"], 1e3 * elapsed["change"]))
    return {"command": command, "exit_code": outputs["parent"][0], **pair.summarize(times, "lower")}


def report_line(r: dict) -> str:
    """One printed line of a pair_series result."""
    p, c = r["parent"], r["change"]
    return (f"{r['command']}: parent {p['median']:.1f} ms [{p['q1']:.1f}, {p['q3']:.1f}]"
            f"  change {c['median']:.1f} ms [{c['q1']:.1f}, {c['q3']:.1f}]"
            f"  {r['change_pct']:+.1f}%  faster in {r['change_wins']}/{len(r['per_pair'])}"
            f"  exit {r['exit_code']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="source tree of the parent")
    p.add_argument("change", help="source tree of the change")
    p.add_argument("--pairs", type=int, default=30, help="alternating pairs; default: 30")
    p.add_argument("--command", action="append", help="CLI arguments; repeatable")
    p.add_argument("--json", help="also write the results here as JSON")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    for tree in (args.parent, args.change):
        if os.path.isdir(os.path.join(tree, "src", "abssep", "__pycache__")):
            p.error(f"{tree}/src/abssep has a bytecode cache; delete it for a cold start")
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        inputs = _write_inputs(workdir)
        for command in args.command or DEFAULT_COMMANDS:
            r = pair_series(args.parent, args.change, command, args.pairs, inputs)
            results.append(r)
            print(report_line(r), flush=True)
    if args.json:
        host = {"python": platform.python_version(), "machine": platform.machine(),
                "cpus": os.cpu_count()}
        with open(args.json, "w") as fh:
            json.dump({"host": host, "results": results}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
