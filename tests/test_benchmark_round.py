"""One checked round of each perfbench workload.

perfbench/workloads.py builds the rounds the benchmark times and
perfbench/checks.py checks each op's output apart from the program. A
change that makes an op raise or fail its check would read as an incorrect
benchmark run; this test fails on it first. The perfbench files are only
imported, at a fixed seed, with their spectrum files in tmp_path.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.mark.parametrize("workload", ["orbit", "certify", "solve"])
def test_one_round_passes_every_check(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # in round order: a sampler draw's check writes the file its scans read;
    # a check raises checks.CheckFailed on a wrong output, else counts its items
    items = sum(op.check(op.run()) for op in workloads.build(workload, SEED, str(tmp_path)))
    assert items > 0
