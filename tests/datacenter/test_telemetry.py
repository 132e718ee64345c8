"""Unit tests for the telemetry pipeline."""

import pytest

from repro.datacenter.telemetry import TelemetryCollector, TimeSeries
from repro.errors import TelemetryError


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2
        assert series.times == [0.0, 1.0]
        assert series.values == [1.0, 2.0]

    def test_non_monotonic_time_rejected(self):
        series = TimeSeries("x")
        series.append(5.0, 1.0)
        with pytest.raises(TelemetryError):
            series.append(4.0, 2.0)

    def test_window_is_half_open(self):
        series = TimeSeries("x")
        for t in range(10):
            series.append(float(t), float(t))
        window = series.window(2.0, 5.0)
        assert window.times == [2.0, 3.0, 4.0]

    def test_mean_over_window(self):
        series = TimeSeries("x")
        for t in range(10):
            series.append(float(t), float(t))
        assert series.mean(2.0, 5.0) == pytest.approx(3.0)

    def test_mean_of_empty_window_rejected(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        with pytest.raises(TelemetryError):
            series.mean(5.0, 6.0)

    def test_value_at_interpolates(self):
        series = TimeSeries("x")
        series.append(0.0, 10.0)
        series.append(10.0, 20.0)
        assert series.value_at(5.0) == pytest.approx(15.0)

    def test_value_at_clamps_at_ends(self):
        series = TimeSeries("x")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.value_at(0.0) == 10.0
        assert series.value_at(5.0) == 20.0

    def test_value_at_empty_rejected(self):
        with pytest.raises(TelemetryError):
            TimeSeries("x").value_at(0.0)

    def test_last_before(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(10.0, 2.0)
        assert series.last_before(9.9) == (0.0, 1.0)
        assert series.last_before(10.0) == (10.0, 2.0)

    def test_last_before_start_rejected(self):
        series = TimeSeries("x")
        series.append(5.0, 1.0)
        with pytest.raises(TelemetryError):
            series.last_before(4.0)


class TestCollector:
    def test_server_bundles_created_on_demand(self):
        collector = TelemetryCollector()
        bundle = collector.for_server("s1")
        assert bundle.server_name == "s1"
        assert collector.server_names == ["s1"]

    def test_same_bundle_returned(self):
        collector = TelemetryCollector()
        assert collector.for_server("s1") is collector.for_server("s1")

    def test_environment_feed(self):
        collector = TelemetryCollector()
        collector.record_environment(0.0, 22.0)
        collector.record_environment(1.0, 22.5)
        assert collector.environment.values == [22.0, 22.5]

    def test_event_log(self):
        collector = TelemetryCollector()
        collector.log_event(5.0, "migration started")
        assert collector.event_log == [(5.0, "migration started")]

    def test_stable_cpu_temperature_implements_eq1(self):
        collector = TelemetryCollector()
        series = collector.for_server("s1").cpu_temperature
        # Rising then stable at 60; t_break=5 cuts off the rise.
        for t, v in [(0, 30.0), (2, 45.0), (4, 55.0), (6, 60.0), (8, 60.5), (10, 59.5)]:
            series.append(float(t), v)
        psi = collector.stable_cpu_temperature("s1", t_break_s=5.0, t_exp_s=10.0)
        assert psi == pytest.approx(60.0)

    def test_stable_cpu_temperature_without_samples_rejected(self):
        collector = TelemetryCollector()
        with pytest.raises(TelemetryError):
            collector.stable_cpu_temperature("s1", 5.0, 10.0)


class TestBatchAndArrayApi:
    def test_extend_appends_batch(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.extend([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert series.times == [0.0, 1.0, 2.0, 3.0]
        assert series.values == [1.0, 10.0, 20.0, 30.0]

    def test_extend_rejects_nonmonotonic_batch(self):
        series = TimeSeries("x")
        with pytest.raises(TelemetryError):
            series.extend([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_extend_rejects_batch_before_existing_tail(self):
        series = TimeSeries("x")
        series.append(5.0, 1.0)
        with pytest.raises(TelemetryError):
            series.extend([1.0, 2.0], [1.0, 2.0])

    def test_extend_rejects_length_mismatch(self):
        with pytest.raises(TelemetryError):
            TimeSeries("x").extend([1.0, 2.0], [1.0])

    def test_arrays_are_copies(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        arr = series.values_array()
        arr[0] = 99.0
        assert series.values == [1.0]

    def test_last(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(2.0, 3.0)
        assert series.last() == (2.0, 3.0)
        with pytest.raises(TelemetryError):
            TimeSeries("y").last()

    def test_growth_beyond_initial_capacity(self):
        series = TimeSeries("x")
        for i in range(1000):
            series.append(float(i), float(i) * 2.0)
        assert len(series) == 1000
        assert series.values[-1] == 1998.0
        assert series.value_at(500.5) == pytest.approx(1001.0)


class TestFleetColumns:
    def _record(self, collector, times, names):
        import numpy as np

        for k, t in enumerate(times):
            collector.record_fleet_step(
                t,
                names,
                np.full(len(names), 0.1 * (k + 1)),
                np.full(len(names), 2.0),
                np.full(len(names), 4.0),
                np.full(len(names), 0.7),
            )

    def test_columns_flushed_on_read(self):
        """There is no flush: reads see each recorded row in place."""
        collector = TelemetryCollector()
        names = ["a", "b"]
        self._record(collector, [1.0, 2.0, 3.0], names)
        bundle = collector.for_server("a")
        assert bundle.utilization.times == [1.0, 2.0, 3.0]
        assert bundle.utilization.values == pytest.approx([0.1, 0.2, 0.3])
        assert collector.for_server("b").vm_count.values == [2.0, 2.0, 2.0]
        # One block holds every server's rows; the bundles own no arrays.
        (block,) = collector.blocks
        assert block.steps.size == 3
        assert bundle.utilization.nbytes == 0

    def test_server_names_flushes(self):
        """Recorded servers are listed without a flush."""
        collector = TelemetryCollector()
        self._record(collector, [1.0], ["a", "b"])
        assert collector.server_names == ["a", "b"]

    def test_cpu_columns_interleave_with_steps(self):
        import numpy as np

        collector = TelemetryCollector()
        names = ["a", "b"]
        self._record(collector, [1.0], names)
        collector.record_fleet_cpu_samples(1.0, names, np.array([55.0, 60.0]))
        self._record(collector, [2.0], names)
        collector.record_fleet_cpu_samples(2.0, names, np.array([56.0, 61.0]))
        cpu = collector.for_server("b").cpu_temperature
        assert cpu.times == [1.0, 2.0]
        assert cpu.values == [60.0, 61.0]

    def test_membership_change_forces_flush_boundary(self):
        """A membership change opens a new block; series span both."""
        collector = TelemetryCollector()
        self._record(collector, [1.0], ["a", "b"])
        self._record(collector, [2.0], ["a", "c"])
        assert len(collector.blocks) == 2
        assert collector.for_server("b").utilization.times == [1.0]
        assert collector.for_server("c").utilization.times == [2.0]
        assert collector.for_server("a").utilization.times == [1.0, 2.0]
        assert collector.for_server("a").utilization.last() == (2.0, pytest.approx(0.1))

    def test_mixed_direct_append_and_columns(self):
        """Hand-built samples, full rows and partially sampled rows stay
        in time order per server."""
        import numpy as np

        collector = TelemetryCollector()
        names = ["a", "b", "c"]
        collector.for_server("a").cpu_temperature.append(0.5, 49.0)
        collector.record_fleet_cpu_samples(1.0, names, np.array([50.0, 60.0, 70.0]))
        # Only "b" samples at 2 s, then "a" and "c" at 3 s.
        collector.record_fleet_cpu_samples(2.0, names, np.array([61.0]), np.array([1]))
        collector.record_fleet_cpu_samples(
            3.0, names, np.array([52.0, 72.0]), np.array([0, 2])
        )
        a = collector.for_server("a").cpu_temperature
        b = collector.for_server("b").cpu_temperature
        assert (a.times, a.values) == ([0.5, 1.0, 3.0], [49.0, 50.0, 52.0])
        assert (b.times, b.values) == ([1.0, 2.0], [60.0, 61.0])
        assert len(a) == 3 and a.last() == (3.0, 52.0)
        assert len(b) == 2 and b.last() == (2.0, 61.0)

    def test_non_monotonic_row_rejected(self):
        collector = TelemetryCollector()
        self._record(collector, [2.0], ["a"])
        with pytest.raises(TelemetryError):
            self._record(collector, [1.0], ["a"])
        # A new membership may not start before what its servers hold.
        with pytest.raises(TelemetryError):
            self._record(collector, [1.5], ["a", "b"])

    def test_hand_append_after_recording_rejected(self):
        collector = TelemetryCollector()
        self._record(collector, [1.0], ["a"])
        with pytest.raises(TelemetryError):
            collector.for_server("a").utilization.append(2.0, 0.5)
