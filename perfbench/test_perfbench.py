"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gbjtest.exceedance  # noqa: E402
import gbjtest.setstats  # noqa: E402
from perfbench import checks, run, spans, speed, workloads  # noqa: E402


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, "item", name, start, end)


class TestSelfTimes:
    def test_children_and_grandchildren(self):
        got = spans.self_times([
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 4.0, 8.0),
            _span(3, 2, 5.0, 6.0),
        ])
        assert got == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        got = spans.self_times([
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 2.0, 6.0),
            _span(2, 0, 4.0, 7.0),
        ])
        assert got[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        got = spans.self_times([_span(0, None, 1.0, 5.0), _span(1, 0, 0.0, 2.0)])
        assert got[0] == pytest.approx(3.0)

    def test_layer_metrics_from_spans(self):
        s = [
            spans.Span(0, None, "a", "crossing.invert_bounds", 0.0, 10.0),
            spans.Span(1, 0, "a", "setstats.objective_values", 1.0, 2.0, (4,)),
            spans.Span(2, 0, "a", "setstats.objective_values", 3.0, 5.0, (6,)),
            spans.Span(3, None, "b", "crossing.invert_bounds", 20.0, 21.0),
        ]
        metrics, calls = spans.layer_metrics(s)
        assert calls["crossing.invert_bounds"] == 2
        assert metrics["setstats.objective_values.points"] == 10
        assert metrics["crossing.invert_bounds.self_s"] == pytest.approx(8.0)
        assert metrics["crossing.invert_bounds.objective_evals_per_call"] == 1.0
        assert "crossing.pvalue" in spans.missing_layers(calls, "scan")


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        xs = list(range(1, 101))
        assert run.tail_percentile(xs) == (90.0, 90)
        assert run.tail_percentile(xs[:99])[0] == 50.0
        assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)

    def test_too_few_samples_report_the_maximum(self):
        assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


class TestReferenceSpeed:
    def test_factor_is_the_median_of_samples_near_the_interval(self):
        samples = [(0.0, 9.0), (1.0, 4.0), (1.2, 2.0), (1.4, 3.0), (5.0, 7.0)]
        assert speed.factor_at(samples, 1.1, 1.3, window=0.5) == 3.0
        assert speed.factor_at(samples, 3.0, 3.1, window=0.5) == 3.0
        assert speed.factor_at(samples, 4.0, 4.1, window=0.5) == 7.0

    def test_rescale_to_reference_speed(self):
        slow = 2.0 * speed.REF_NOMINAL_S
        assert speed.rescale(3.0, slow) == pytest.approx(1.5)
        assert speed.rescale(3.0, speed.REF_NOMINAL_S) == pytest.approx(3.0)

    def test_sampler_interrupts_work_and_its_time_is_subtracted(self):
        previous = signal.getsignal(signal.SIGALRM)
        sampler = speed.Sampler(period=0.01)
        sampler.start()
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.2:
                pass
            end = time.perf_counter()
        finally:
            sampler.stop()
        inside = [d for t, d in sampler.samples if start <= t <= end]
        assert len(inside) >= 2
        # each sample runs the kernel twice and times the second call
        assert sum(inside) < sampler.busy(start, end) <= end - start
        assert signal.getsignal(signal.SIGALRM) == previous


class TestOutputCheck:
    def _item(self, p):
        return workloads.Item(id="scan/r0/d5-block-null", kind="set", run=None,
                              outputs={"GBJ": p, "MinP": 0.25})

    def test_flags_a_pvalue_perturbed_by_1e3_relative(self):
        reference = {"scan/r0/d5-block-null": {"GBJ": 1.234e-7, "MinP": 0.25}}
        assert checks.check_item(self._item(1.234e-7), reference) == []
        assert checks.check_item(self._item(1.234e-7 * (1 + 1e-5)), reference) == []
        problems = checks.check_item(self._item(1.234e-7 * (1 + 1e-3)), reference)
        assert len(problems) == 1 and problems[0].startswith("GBJ")

    def test_invariants_without_reference(self):
        assert checks.check_item(self._item(0.5), {}) == []
        assert checks.check_item(self._item(0.0), {})
        assert checks.check_item(self._item(float("nan")), {})

    def test_rejection_rate_within_one_standard_error(self):
        reference = {"calibrate/r0/simulate": {"GBJ": [0.0100, 0.0007]}}
        item = workloads.Item(id="calibrate/r0/simulate", kind="simulate", run=None,
                              outputs={"GBJ": (0.0106, 0.0007)})
        assert checks.check_item(item, reference) == []
        item.outputs["GBJ"] = (0.0108, 0.0007)
        assert checks.check_item(item, reference)


def test_install_patches_every_binding_and_restores():
    original = gbjtest.exceedance.count_variance
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert gbjtest.setstats.count_variance is gbjtest.exceedance.count_variance
        assert gbjtest.setstats.count_variance is not original
        gbjtest.setstats.count_variance(np.array([1.0, 2.0]), 0.0,
                                        gbjtest.exceedance.zero_profile(4))
    finally:
        restore()
    assert gbjtest.setstats.count_variance is original
    assert [(s.name, s.counts) for s in tracer.spans] == [
        ("exceedance.count_variance", (2,))]


def test_benchmark_json_lists_the_reported_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
