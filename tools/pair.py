"""Paired benchmark runs of two source trees, and the acceptance rule over them.

    python3 tools/pair.py PARENT_TREE CHANGE_TREE --out BENCH_N.json --seed S0 \
        [--claim orbit:items_per_s] [--label N] [--parent-commit SHA]

Each tree is a source checkout with its own perfbench/ and src/, such as a
`git archive` copy of the parent commit and one of the change. For each
workload of BENCHMARK.json, pair k = 0..PAIRS-1 runs `python3
perfbench/run.py --workload W --seed S --seconds T` once in each tree, the
parent first when k is even and the change first when k is odd, with seed
S = S0 + (workload index) x PAIRS + k and T the `run_seconds` of
BENCHMARK.json. S0 has no default, so that each use picks seeds on purpose,
none of them used while the change was written. Runs go one at a time, so
the two sides never compete for the host.

The output file holds every run and, per workload and end-to-end metric,
each side's median and quartiles, the change's wins and the parent's IQR.
Its host entry is what the runs themselves report: python, numpy, BLAS name,
version and thread count, and CPU count, one entry per distinct set.
Its verdict applies the rule the benchmark is judged by, reading the bounds
of BENCHMARK.json and never writing it:
- a claimed metric improves when the change wins at least nine tenths of
  the pairs, ties counting for neither, and the medians differ in the
  better direction by more than the parent's IQR;
- no metric may be worse at the change's median than at the parent's by
  more than its bound (a fraction of the parent's median); where the
  parent's IQR is wider than the bound, the metric is unresolved unless
  every change run reads better than every parent run;
- every run must read correct, and the change may fail no more ops than
  the parent.
The script exits 0 when every claim is met and nothing else fails the rule,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PAIRS = 10  # pairs of runs per workload
WIN_SHARE = 0.9  # the share of pairs a claimed metric must win


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by the inclusive method (numpy's default percentile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric over (parent, change) pairs: each side's quartiles, the
    change's percentage move of the median, its wins and ties, and the
    parent's IQR."""
    parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    return {
        "parent": parent,
        "change": change,
        "change_pct": (change["median"] / parent["median"] - 1.0) * 100.0,
        "change_wins": sum(_better(c, p, better) for p, c in pairs),
        "ties": sum(p == c for p, c in pairs),
        "parent_iqr": parent["q3"] - parent["q1"],
        "per_pair": [[p, c] for p, c in pairs],
    }


def claim_met(summary: dict, better: str) -> bool:
    """At least WIN_SHARE of the pairs won, and a median gap in the better
    direction wider than the parent's IQR."""
    gap = summary["change"]["median"] - summary["parent"]["median"]
    if better == "lower":
        gap = -gap
    return summary["change_wins"] >= WIN_SHARE * len(summary["per_pair"]) and gap > summary["parent_iqr"]


def bound_status(summary: dict, better: str, bound: float) -> str:
    """'within', 'worse' or 'unresolved' for a metric whose change may not be
    worse than the parent's median by more than bound times that median."""
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    worse_by = (change - parent if better == "lower" else parent - change) / abs(parent)
    if worse_by > bound:
        return "worse"
    if summary["parent_iqr"] > bound * abs(parent):
        parents, changes = zip(*summary["per_pair"])
        worst_change, best_parent = (max, min) if better == "lower" else (min, max)
        if not _better(worst_change(changes), best_parent(parents), better):
            return "unresolved"
    return "within"


def verdict(summary: dict, runs: list[dict], benchmark: dict, claims: list[tuple[str, str]]) -> dict:
    """The acceptance rule over a summary and its runs: one line per claim, per
    bound breach or unresolved metric, and for correctness, plus 'ok'."""
    out, ok = {}, True
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    for workload, metric in claims:
        s = summary[workload][metric]
        met = claim_met(s, metrics[metric]["better"])
        ok &= met
        out[f"{workload} {metric}"] = (
            f"{'met' if met else 'not met'}: the change won {s['change_wins']} of "
            f"{len(s['per_pair'])} pairs; median {s['parent']['median']:.6g} -> "
            f"{s['change']['median']:.6g} ({s['change_pct']:+.1f}%), parent IQR {s['parent_iqr']:.4g}")
    breaches = []
    for workload, by_metric in summary.items():
        for name, spec in metrics.items():
            status = bound_status(by_metric[name], spec["better"], spec["bound"])
            if status != "within":
                breaches.append(f"{workload} {name} {status} ({by_metric[name]['change_pct']:+.1f}%, "
                                f"bound {spec['bound']:.0%})")
    ok &= not breaches
    out["bounds"] = "; ".join(breaches) or "every end-to-end metric is within its bound on every workload"
    wrong = [r for r in runs if not r["correct"]]
    failed = {side: sum(r["failed"] for r in runs if r["side"] == side) for side in ("parent", "change")}
    correct = not wrong and failed["change"] <= failed["parent"]
    ok &= correct
    out["correct"] = (f"{len(wrong)} runs not correct; failed ops parent {failed['parent']}, "
                      f"change {failed['change']}")
    out["ok"] = bool(ok)
    return out


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in tree: its final JSON line, and the host entries
    of its provenance line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}")
    provenance = next(json.loads(line)["provenance"] for line in lines
                      if line.startswith('{"provenance"'))
    host = {key: provenance[key] for key in ("python", "numpy", "nproc")}
    host["blas"] = {key: provenance["blas"][key] for key in ("name", "version", "threads")}
    return json.loads(lines[-1]), host


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--out", type=pathlib.Path, required=True)
    p.add_argument("--seed", type=int, required=True, help="the first seed, S0")
    p.add_argument("--claim", action="append", default=[], help="workload:metric")
    p.add_argument("--label", default="")
    p.add_argument("--parent-commit", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    metric_names = [m["name"] for m in benchmark["end_to_end"]]
    runs, summary, hosts = [], {}, []
    for w, workload in enumerate(workloads):
        for k in range(PAIRS):
            seed = args.seed + w * PAIRS + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result, host = run_once(getattr(args, side), workload, seed, seconds)
                if host not in hosts:
                    hosts.append(host)
                runs.append({"side": side, "workload": workload, "seed": seed, "first": position == 0,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{m} {runs[-1]['metrics'][m]:.6g}" for m in metric_names), flush=True)
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {(r["seed"], r["side"]): r["metrics"] for r in mine}
        seeds = sorted({r["seed"] for r in mine})
        summary[workload] = {
            name: summarize([(by_seed[s, "parent"][name], by_seed[s, "change"][name]) for s in seeds],
                            spec["better"])
            for name, spec in ((m["name"], m) for m in benchmark["end_to_end"])}
    record = {
        "label": args.label,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": (f"{PAIRS} pairs per workload, workloads {', '.join(workloads)} back to back; "
                     f"seeds from {args.seed}, one per pair; the parent runs first in even pairs "
                     "(0-based) and the change in odd ones; one run at a time; "
                     "PYTHONDONTWRITEBYTECODE=1; run.py pins BLAS to one thread"),
        "host": hosts,
        "summary": summary,
        "verdict": verdict(summary, runs, benchmark, claims),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["verdict"], indent=1))
    return 0 if record["verdict"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
