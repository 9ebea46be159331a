"""The summary tools/cold_cli.py prints, on fixed times and with no process started."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cold_cli", ROOT / "tools" / "cold_cli.py")
cold_cli = importlib.util.module_from_spec(_spec)
sys.path.insert(0, str(ROOT / "tools"))  # cold_cli imports pair, as it does run as a script
try:
    _spec.loader.exec_module(cold_cli)
finally:
    sys.path.remove(str(ROOT / "tools"))

# wall times in s, pair by pair: the parent's have quartiles 200 / 300 / 400 ms by
# the inclusive method, which statistics.quantiles' default method reads 150 / 300 / 450
PARENT = [0.1, 0.2, 0.3, 0.4, 0.5]
CHANGE = [0.09, 0.21, 0.25, 0.41, 0.45]


def _fake_runs(monkeypatch, stdout=b"{}\n"):
    """Replace cold_cli._run by the fixed times; returns the trees in call order."""
    times = {"P": iter(PARENT), "C": iter(CHANGE)}
    calls = []

    def run(tree, args):
        calls.append(tree)
        return next(times[tree]), 0, stdout if tree == "P" else b"{}\n"

    monkeypatch.setattr(cold_cli, "_run", run)
    return calls


def test_cold_cli_summarizes_as_the_pair_runner_does(monkeypatch):
    calls = _fake_runs(monkeypatch)
    r = cold_cli.pair_series("P", "C", "family upb --p 0.65", len(PARENT), {})
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P", "P", "C"]  # alternating first runs
    assert r["parent"] == pytest.approx({"median": 300.0, "q1": 200.0, "q3": 400.0})
    assert r["change"] == pytest.approx({"median": 250.0, "q1": 210.0, "q3": 410.0})
    assert (r["change_wins"], r["ties"], r["exit_code"]) == (3, 0, 0)
    assert cold_cli.report_line(r) == ("family upb --p 0.65: parent 300.0 ms [200.0, 400.0]  "
                                       "change 250.0 ms [210.0, 410.0]  -16.7%  faster in 3/5  exit 0")


def test_cold_cli_stops_when_the_trees_print_different_bytes(monkeypatch):
    _fake_runs(monkeypatch, stdout=b"{}")
    with pytest.raises(SystemExit, match="stdout or exit code differ in pair 0"):
        cold_cli.pair_series("P", "C", "family upb --p 0.65", len(PARENT), {})
