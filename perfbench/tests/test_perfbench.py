"""Tests of the benchmark itself: failure accounting, arithmetic, hooks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from kpq import koszul as kkoszul  # noqa: E402


def _small_veronese(seed=0):
    """The veronese-grid cells at n=1, d<=4, with their golden answers."""
    cells = [c for c in workloads.setup("veronese-grid", seed)
             if c.key.startswith("n=1,") and int(c.key.split(",")[1][2:]) <= 4]
    golden = workloads.load_golden("veronese-grid")
    return cells, {c.key: golden[c.key] for c in cells}


def test_cells_pass_against_golden():
    cells, golden = _small_veronese()
    outcome = workloads.run_cells(cells, golden, lambda: 0.0)
    assert outcome.attempted == len(cells) > 10
    assert outcome.failed == 0, outcome.errors


def test_wrong_rank_from_fake_kernel_makes_fail_ratio_nonzero(monkeypatch):
    real = kkoszul._dense_rank_mod

    def fake(block, p):  # one too many on every block
        return real(block, p) + 1

    monkeypatch.setattr(kkoszul, "_dense_rank_mod", fake)
    cells, golden = _small_veronese()
    outcome = workloads.run_cells(cells, golden, lambda: 0.0)
    assert summary.ratio(outcome.failed, outcome.attempted) > 0


def test_dropped_cell_counts_as_attempted_and_failed():
    cells, golden = _small_veronese()
    outcome = workloads.run_cells(cells[1:], golden, lambda: 0.0)
    assert outcome.attempted == len(cells)
    assert list(outcome.errors) == [cells[0].key]


def test_golden_keys_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        a = [c.key for c in workloads.setup(name, 1)]
        b = [c.key for c in workloads.setup(name, 2)]
        assert sorted(a) == sorted(b) == sorted(workloads.load_golden(name))
        if name == "veronese-grid":
            assert a != b  # the seed does reorder


def test_percentile_matches_numpy_and_fixed_values():
    assert summary.percentile(list(range(1, 11)), 50) == 5.5
    assert summary.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert summary.percentile([7.0], 90) == 7.0
    rng = np.random.default_rng(3)
    sample = list(rng.exponential(size=101))
    for q in (0, 50, 90, 100):
        assert summary.percentile(sample, q) == pytest.approx(np.percentile(sample, q))
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_ratio_and_quartile_spread():
    assert summary.ratio(3, 4) == 0.75
    assert summary.ratio(5, 0) == 0.0
    assert summary.median([3, 1, 2]) == 2
    # quantiles(n=4) of 1..8 are 2.25, 4.5, 6.75
    assert summary.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(4.5 / 4.5)


def test_cells_are_scaled_by_the_kernel_samples_around_them():
    ref = calibration.REFERENCE_S
    # the machine runs at reference speed for 2 s, then at half speed
    ticks = [(t / 10, ref if t < 20 else 2 * ref) for t in range(40)]
    half = 0.5 ** calibration.ELASTICITY
    scaled = calibration.scale_cells([0.1, 3.0], [0.2, 0.4], ticks)
    assert scaled == pytest.approx([0.2, 0.4 * half])
    # a cell far from every sample uses the nearest ones
    assert calibration.scale_cells([100.0], [1.0], ticks) == pytest.approx([half])
    assert calibration.scale(3.0, 3 * ref) == pytest.approx(3.0 / 3 ** calibration.ELASTICITY)


def test_span_self_time_excludes_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = rec.span("koszul.elim", lambda: None)
    outer = rec.span("koszul.assembly", lambda: inner())
    rec.in_window = True
    outer()
    assert rec.self_s["koszul.elim"] == 2.0
    assert rec.self_s["koszul.assembly"] == 8.0
    assert rec.window_self_s == 10.0


def test_missing_hook_reads_absent(monkeypatch):
    monkeypatch.delattr(kkoszul.SparseMatrix, "_component_split")
    rec = spans.Recorder()
    undo = rec.install()
    try:
        metrics = rec.metrics()
    finally:
        rec.uninstall(undo)
    assert metrics["koszul.split.s"] == spans.ABSENT
    assert metrics["koszul.split.blocks"] == spans.ABSENT
    assert metrics["koszul.elim.s"] == 0.0


def test_traced_counters_on_a_small_grid():
    rec = spans.Recorder()
    undo = rec.install()
    try:
        cells, golden = _small_veronese()
        outcome = workloads.run_cells(cells, golden, lambda: 0.0)
    finally:
        rec.uninstall(undo)
    metrics = rec.metrics()
    assert outcome.failed == 0
    assert metrics["koszul.elim.calls"] > 0
    assert metrics["koszul.elim.max_block_cells"] <= metrics["koszul.elim.block_cells"]
    assert 0 < metrics["koszul.assembly.useful_ratio"] <= 1
    assert metrics["koszul.split.blocks"] > 0
    assert kkoszul.SparseMatrix._component_split.__name__ == "_component_split"


def test_metric_names_and_workloads_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in config["workloads"]} <= set(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in config["per_layer"]}
    traced = set(spans.Recorder().metrics()) | {"trace.overhead_ratio", "trace.coverage"}
    assert per_layer == traced
    assert {m["name"] for m in config["end_to_end"]} == (
        {"setup_s", "wall_s", "peak_rss_mb"} | set(run.CELL_PERCENTILES))


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli-tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
