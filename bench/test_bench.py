"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Self-time arithmetic is checked on synthetic span trees; one workload is run
traced and untraced in fresh interpreters and must serialise the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": "synthetic"}


def test_self_time_subtracts_children_at_every_level():
    tree = [
        _span(0, "a", 0.0, 10.0, None),
        _span(1, "b", 1.0, 4.0, 0),
        _span(2, "c", 2.0, 3.0, 1),
        _span(3, "d", 5.0, 9.0, 0),
        _span(4, "e", 11.0, 12.0, None),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, "a", 0.0, 10.0, None), _span(1, "b", 1.0, 6.0, 0), _span(2, "c", 4.0, 8.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_metrics_from_a_synthetic_run():
    tree = [
        _span(0, "experiments.run_equidistribution", 0.0, 8.0, None),
        _span(1, "modular.mu_y_value", 1.0, 7.0, 0),
        _span(2, "modular.reduce_many", 1.5, 2.5, 1),
        _span(3, "automorphic.eisenstein_values", 3.0, 6.0, 1),
        _span(4, "automorphic.EisensteinParams.k_fast", 3.5, 5.5, 3),
        _span(5, "automorphic.EisensteinParams.k_fast", 5.5, 5.75, 3),
        _span(6, "fitting.fit_decay_report", 8.5, 9.5, None),
    ]
    counters = {"automorphic.k_fast.points": 40, "automorphic.k_fast.live": 10}
    m = spans.layer_metrics(tree, counters, wall_s=10.0)
    assert m["experiments.run_equidistribution.self_s"] == pytest.approx(2.0)
    assert m["modular.mu_y_value.self_s"] == pytest.approx(2.0)
    assert m["modular.self_s"] == pytest.approx(3.0)
    assert m["automorphic.eisenstein_values.self_s"] == pytest.approx(0.75)
    assert m["automorphic.k_fast.self_s"] == pytest.approx(2.25)
    assert m["automorphic.self_s"] == pytest.approx(3.0)
    assert m["automorphic.k_fast.live_frac"] == pytest.approx(0.25)
    assert m["automorphic.k_fast.points"] == 40
    assert m["trace.coverage"] == pytest.approx(0.9)


def test_traced_and_untraced_repetitions_serialise_identical_csv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "serve", "eisenstein_sweeps", "2024"],
        input="plain\ntraced\n", cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=170, check=True,
    )
    plain, traced = (json.loads(line) for line in proc.stdout.splitlines())
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert all(ok for _, ok in plain["checks"] + traced["checks"])
    assert "spans" not in plain
    metrics = spans.layer_metrics(traced["spans"], traced["counters"], traced["wall_s"])
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["automorphic.bessel_K_imag.x"] > 0
