"""Drift monitor: reservoir sampling, rolling R², skew injection."""

from __future__ import annotations

import pytest

from repro.obs import enable_metrics, get_metrics
from repro.obs.drift import DriftMonitor, ReservoirSampler, r_squared


class TestReservoirSampler:
    def test_fills_to_capacity_then_stays_bounded(self):
        sampler = ReservoirSampler(capacity=8, seed=0)
        for i in range(100):
            sampler.offer(i)
        assert len(sampler) == 8
        assert sampler.seen == 100

    def test_short_stream_is_kept_verbatim(self):
        sampler = ReservoirSampler(capacity=16, seed=0)
        for i in range(5):
            sampler.offer(i)
        assert sampler.sample() == [0, 1, 2, 3, 4]

    def test_same_seed_same_sample(self):
        a = ReservoirSampler(capacity=4, seed=7)
        b = ReservoirSampler(capacity=4, seed=7)
        for i in range(200):
            a.offer(i)
            b.offer(i)
        assert a.sample() == b.sample()

    def test_different_seeds_diverge(self):
        a = ReservoirSampler(capacity=4, seed=0)
        b = ReservoirSampler(capacity=4, seed=1)
        for i in range(200):
            a.offer(i)
            b.offer(i)
        assert a.sample() != b.sample()

    def test_sample_is_roughly_uniform(self):
        # Offer 0..999 into a capacity-100 reservoir: the retained items
        # should span the stream, not cluster at the head or tail.
        sampler = ReservoirSampler(capacity=100, seed=3)
        for i in range(1000):
            sampler.offer(i)
        kept = sampler.sample()
        assert len(kept) == 100
        early = sum(1 for v in kept if v < 500)
        assert 25 <= early <= 75

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirSampler(capacity=0)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_known_value(self):
        truth = [1.0, 2.0, 3.0, 4.0]
        approx = [1.5, 1.5, 3.5, 3.5]
        # ss_res = 4 * 0.25 = 1.0, ss_tot = 5.0
        assert r_squared(truth, approx) == pytest.approx(0.8)

    def test_constant_truth_degenerates_to_exact_match(self):
        assert r_squared([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r_squared([2.0, 2.0], [2.0, 2.1]) == 0.0

    def test_constant_offset_formula(self):
        # Skewing predictions by c costs exactly n*c^2/ss_tot of R² —
        # the identity the SLO chaos test uses to pick offsets.
        truth = [0.0, 1.0, 2.0, 3.0]
        mean = sum(truth) / 4
        ss_tot = sum((t - mean) ** 2 for t in truth)
        c = 0.7
        skewed = [t + c for t in truth]
        assert r_squared(truth, skewed) == pytest.approx(
            1.0 - 4 * c**2 / ss_tot
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="equal-length"):
            r_squared([], [])
        with pytest.raises(ValueError, match="equal-length"):
            r_squared([1.0], [1.0, 2.0])


def _feed(monitor, model_id, n, score=None):
    rows = [[float(i), float(i + 1)] for i in range(n)]
    scores = [float(i) if score is None else score for i in range(n)]
    monitor.observe(model_id, rows, scores)
    return rows, scores


class TestDriftMonitor:
    def test_observe_is_raise_free_on_mismatch(self):
        monitor = DriftMonitor(capacity=8, min_samples=1)
        monitor.observe("m", [[1.0]], [1.0, 2.0])   # mismatched: dropped
        monitor.observe("m", [], [])                 # empty: dropped
        assert monitor.samples() == {}

    def test_observe_skips_non_finite_pairs(self):
        monitor = DriftMonitor(capacity=8, min_samples=1)
        nan, inf = float("nan"), float("inf")
        monitor.observe(
            "m",
            [[1.0, nan], [2.0, 3.0], [inf, 4.0], [5.0, 6.0]],
            [1.0, 2.0, 3.0, nan],
        )
        assert monitor.samples() == {"m": [([2.0, 3.0], 2.0)]}

    def test_evaluate_replays_reservoir_exactly(self):
        monitor = DriftMonitor(capacity=64, min_samples=4, clock=lambda: 5.0)
        _feed(monitor, "m", 10)
        result = monitor.evaluate(lambda mid, rows: [r[0] for r in rows])
        assert result["fidelity"] == 1.0
        assert result["models"]["m"]["samples"] == 10
        assert result["samples"] == 10
        assert result["at_s"] == 5.0
        assert monitor.last() == result

    def test_min_samples_gate(self):
        monitor = DriftMonitor(capacity=64, min_samples=16)
        _feed(monitor, "m", 10)
        result = monitor.evaluate(lambda mid, rows: [0.0] * len(rows))
        assert result["fidelity"] is None
        assert result["models"] == {}

    def test_uncached_surrogate_is_skipped(self):
        monitor = DriftMonitor(capacity=64, min_samples=4)
        _feed(monitor, "m", 10)
        result = monitor.evaluate(lambda mid, rows: None)
        assert result["fidelity"] is None

    def test_fleet_fidelity_is_worst_model(self):
        monitor = DriftMonitor(capacity=64, min_samples=4)
        _feed(monitor, "good", 10)
        _feed(monitor, "bad", 10)

        def predict_for(mid, rows):
            if mid == "good":
                return [r[0] for r in rows]
            return [0.0] * len(rows)   # ignores the input entirely

        result = monitor.evaluate(predict_for)
        assert result["models"]["good"]["fidelity"] == 1.0
        assert result["models"]["bad"]["fidelity"] < 0.5
        assert result["fidelity"] == result["models"]["bad"]["fidelity"]

    def test_skew_degrades_fidelity_by_exact_amount(self):
        monitor = DriftMonitor(capacity=64, min_samples=4)
        _, scores = _feed(monitor, "m", 10)
        mean = sum(scores) / len(scores)
        ss_tot = sum((s - mean) ** 2 for s in scores)
        skew = 2.5
        monitor.set_skew(skew)
        result = monitor.evaluate(lambda mid, rows: [r[0] for r in rows])
        expected = 1.0 - len(scores) * skew**2 / ss_tot
        assert result["fidelity"] == pytest.approx(expected)
        monitor.set_skew(0.0)
        assert monitor.evaluate(
            lambda mid, rows: [r[0] for r in rows]
        )["fidelity"] == 1.0

    def test_forget_drops_reservoir(self):
        monitor = DriftMonitor(capacity=8, min_samples=1)
        _feed(monitor, "m", 4)
        monitor.forget("m")
        assert monitor.samples() == {}

    def test_reset_clears_skew_and_state(self):
        monitor = DriftMonitor(capacity=8, min_samples=1)
        _feed(monitor, "m", 4)
        monitor.set_skew(9.0)
        monitor.evaluate(lambda mid, rows: [0.0] * len(rows))
        monitor.reset()
        assert monitor.samples() == {}
        assert monitor.last() is None

    def test_per_model_reservoirs_are_deterministic(self):
        def run():
            monitor = DriftMonitor(capacity=4, seed=11, min_samples=1)
            for mid in ("a", "b"):
                for i in range(50):
                    monitor.observe(mid, [[float(i)]], [float(i)])
            return monitor.samples()

        assert run() == run()

    def test_metrics_emitted(self):
        enable_metrics()
        monitor = DriftMonitor(capacity=8, min_samples=1)
        _feed(monitor, "m", 4)
        monitor.evaluate(lambda mid, rows: [r[0] for r in rows])
        snapshot = get_metrics().snapshot()
        assert snapshot["counters"]["drift.observed"] == 4
        assert snapshot["counters"]["drift.evaluations"] == 1
        assert snapshot["gauges"]["drift.fidelity"] == 1.0
