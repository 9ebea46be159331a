"""The statistics and acceptance rule of tools/pair.py, on fixed fake runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pair", ROOT / "tools" / "pair.py")
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def test_quartiles_match_the_summary_bench_38_recorded():
    # BENCH_38's orbit parent items/s: median and quartiles as recorded there
    bench = json.loads((ROOT / "BENCH_38.json").read_text())
    parent = [run["metrics"]["items_per_s"] for run in bench["runs"]
              if (run["workload"], run["side"]) == ("orbit", "parent")]
    recorded = bench["summary"]["orbit"]["items_per_s"]["parent"]
    assert pair.quartiles(parent) == pytest.approx(recorded, rel=1e-12)
    assert pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_summary_counts_wins_and_ties_in_the_better_direction():
    pairs = [(10.0, 12.0), (10.0, 10.0), (11.0, 9.0), (9.0, 13.0)]
    higher, lower = pair.summarize(pairs, "higher"), pair.summarize(pairs, "lower")
    assert (higher["change_wins"], higher["ties"]) == (2, 1)
    assert (lower["change_wins"], lower["ties"]) == (1, 1)
    assert higher["parent"]["median"] == 10.0 and higher["change"]["median"] == 11.0
    assert higher["change_pct"] == pytest.approx(10.0)
    assert higher["parent_iqr"] == pytest.approx(0.5)


def _pairs(gain: float, wins: int, n: int = 10) -> list[tuple[float, float]]:
    # parents 100..109 (IQR 4.5); the change is parent + gain in `wins` pairs and
    # parent - 1 in the rest
    return [(100.0 + k, 100.0 + k + (gain if k < wins else -1.0)) for k in range(n)]


@pytest.mark.parametrize("gain, wins, met", [
    (6.0, 10, True),   # 10 of 10, median gap ~6 > IQR 4.5
    (6.0, 9, True),    # 9 of 10 is nine tenths
    (6.0, 8, False),   # 8 of 10 is not
    (4.0, 10, False),  # every pair won, but a gap of 4 is inside the parent's IQR
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parents_iqr(gain, wins, met):
    assert pair.claim_met(pair.summarize(_pairs(gain, wins), "higher"), "higher") is met
    flipped = [(-p, -c) for p, c in _pairs(gain, wins)]
    assert pair.claim_met(pair.summarize(flipped, "lower"), "lower") is met


@pytest.mark.parametrize("change, better, status", [
    ([100.0] * 10, "higher", "within"),
    ([76.0] * 10, "higher", "within"),    # 24% lower, bound 25%
    ([74.0] * 10, "higher", "worse"),     # 26% lower
    ([124.0] * 10, "lower", "within"),
    ([126.0] * 10, "lower", "worse"),
])
def test_bound_is_a_fraction_of_the_parents_median(change, better, status):
    pairs = list(zip([100.0] * 10, change))
    assert pair.bound_status(pair.summarize(pairs, better), better, 0.25) == status


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    # parents 50..140 have an IQR of ~45 against a 25% bound on a median of ~95
    parents = [50.0 + 10.0 * k for k in range(10)]
    same = pair.summarize([(p, p) for p in parents], "higher")
    assert pair.bound_status(same, "higher", 0.25) == "unresolved"
    above = pair.summarize([(p, 150.0 + k) for k, p in enumerate(parents)], "higher")
    assert pair.bound_status(above, "higher", 0.25) == "within"


def _runs(parent_failed=0, change_failed=0, correct=True):
    return [{"side": "parent", "correct": True, "failed": parent_failed},
            {"side": "change", "correct": correct, "failed": change_failed}]


def test_verdict_applies_claims_bounds_and_correctness():
    steady = [(100.0 + 0.1 * k, 100.0 + 0.1 * k) for k in range(10)]
    summary = {"orbit": {name: pair.summarize(steady, spec["better"])
                         for name, spec in ((m["name"], m) for m in BENCHMARK["end_to_end"])}}
    summary["orbit"]["items_per_s"] = pair.summarize(_pairs(6.0, 10), "higher")
    assert set(summary["orbit"]) == set(METRICS)
    good = pair.verdict(summary, _runs(), BENCHMARK, [("orbit", "items_per_s")])
    assert good["ok"] and good["orbit items_per_s"].startswith("met: the change won 10 of 10")
    assert not pair.verdict(summary, _runs(change_failed=1), BENCHMARK, [])["ok"]
    assert not pair.verdict(summary, _runs(correct=False), BENCHMARK, [])["ok"]
    summary["orbit"]["peak_rss_mb"] = pair.summarize([(40.0, 45.0)] * 10, "lower")  # +12.5%, bound 10%
    worse = pair.verdict(summary, _runs(), BENCHMARK, [("orbit", "items_per_s")])
    assert not worse["ok"] and worse["bounds"].startswith("orbit peak_rss_mb worse (+12.5%")


def test_the_runner_fixes_pairs_workloads_and_run_length_and_asks_for_seeds():
    # a first seed must be given; the pair count, the workloads and the run
    # length are not options
    with pytest.raises(SystemExit):
        pair.parse_args(["parent", "change", "--out", "BENCH.json"])
    args = pair.parse_args(["parent", "change", "--out", "BENCH.json", "--seed", "4301"])
    assert args.seed == 4301 and pair.PAIRS == 10
    for knob in ("--pairs", "--workloads", "--seconds"):
        with pytest.raises(SystemExit):
            pair.parse_args(["parent", "change", "--out", "BENCH.json", "--seed", "1", knob, "2"])


@pytest.mark.parametrize("claim", ["orbit:op_p50_msx", "orbits:op_p50_ms", "orbit", "orbit:",
                                   ":items_per_s", "orbit:matcore.self_s"])
def test_a_bad_claim_is_an_argument_error_before_the_first_run(monkeypatch, capsys, claim):
    # a claim must name a workload and an end-to-end metric of BENCHMARK.json;
    # any other is refused, exit 2, before a run starts, not after the ~16 min
    # of all of them
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(pair, "run_once", no_run)
    with pytest.raises(SystemExit) as exit_info:
        pair.main(["parent", "change", "--out", "BENCH.json", "--seed", "1", "--claim", claim])
    assert exit_info.value.code == 2
    assert f"--claim {claim!r}" in capsys.readouterr().err
    args = pair.parse_args(["parent", "change", "--out", "BENCH.json", "--seed", "1",
                            "--claim", "orbit:op_p50_ms", "--claim", "solve:items_per_s"])
    assert args.claim == [("orbit", "op_p50_ms"), ("solve", "items_per_s")]
