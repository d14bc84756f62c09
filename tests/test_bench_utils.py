"""Tests for the benchmarks' measurement harness and table reporting
(``benchmarks/_common.py``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks._common import (
    WorkloadResult,
    format_cell,
    format_table,
    run_workload,
)
from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import paper_figure1
from repro.graph.streams import ReadEvent, WriteEvent


class TestWorkloadResult:
    def make(self, latencies):
        return WorkloadResult(
            events=10, elapsed_seconds=2.0, reads=len(latencies), writes=5,
            read_latencies=list(latencies),
        )

    def test_throughput(self):
        assert self.make([]).throughput == 5.0

    def test_zero_elapsed(self):
        result = WorkloadResult(events=1, elapsed_seconds=0.0, reads=0, writes=1)
        assert result.throughput == 0.0

    def test_percentiles(self):
        result = self.make([float(i) for i in range(1, 101)])
        assert result.latency_percentile(0) == 1.0
        assert result.latency_percentile(100) == 100.0
        assert 49.0 <= result.latency_percentile(50) <= 52.0

    def test_percentile_empty(self):
        assert self.make([]).latency_percentile(95) == 0.0

    def test_average_and_worst(self):
        result = self.make([1.0, 3.0])
        assert result.average_read_latency == 2.0
        assert result.worst_read_latency == 3.0

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
    def test_percentile_monotone(self, latencies):
        result = self.make(latencies)
        values = [result.latency_percentile(p) for p in (0, 25, 50, 75, 95, 100)]
        assert values == sorted(values)
        assert values[-1] == result.worst_read_latency


class TestRunWorkload:
    def engine(self):
        return EAGrEngine(
            paper_figure1(), EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        )

    def events(self):
        return [
            WriteEvent("c", 2.0, timestamp=1),
            ReadEvent("a", timestamp=2),
            WriteEvent("d", 3.0, timestamp=3),
            ReadEvent("a", timestamp=4),
        ]

    def test_counts(self):
        result = run_workload(self.engine(), self.events())
        assert result.reads == 2
        assert result.writes == 2
        assert result.events == 4
        assert result.throughput > 0
        assert result.read_latencies == []

    def test_latency_mode_records_per_read(self):
        result = run_workload(self.engine(), self.events(), measure_latency=True)
        assert len(result.read_latencies) == 2
        assert all(l >= 0 for l in result.read_latencies)


class TestReporting:
    def test_format_cell_int(self):
        assert format_cell(1234567) == "1,234,567"

    def test_format_cell_float(self):
        assert format_cell(3.14159) == "3.142"
        assert format_cell(1e-5) == "1.000e-05"
        assert format_cell(123456.0) == "1.235e+05"
        assert format_cell(0.0) == "0.000"

    def test_format_cell_string(self):
        assert format_cell("abc") == "abc"

    def test_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 23]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows equally wide

    def test_table_without_title(self):
        table = format_table(["x"], [[1]])
        assert table.splitlines()[0].startswith("x")
