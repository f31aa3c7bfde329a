"""The arithmetic of scripts/bench.py's records, on synthetic rounds: no
timing and no child process."""

import dataclasses
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRecord:
    def test_medians_iqrs_speedup_and_rounds_won(self, bench):
        parent = [4.0, 2.0, 3.0, 1.0, 5.0]
        change = [2.0, 2.0, 1.0, 2.0, 3.125]
        row = bench._record("nash_gap", "3s3p3a", 8, {"parent": parent, "change": change})
        assert (row["op"], row["size"], row["calls_per_round"]) == ("nash_gap", "3s3p3a", 8)
        assert row["parent"] == {"us": 3.0, "round_iqr_us": 2.0, "rounds_us": parent}
        assert row["change"] == {"us": 2.0, "round_iqr_us": 0.0, "rounds_us": change}
        # per-round parent / change: 2, 1, 3, 0.5, 1.6
        assert row["speedup"] == pytest.approx(1.6)
        # the change wins rounds 0, 2 and 4; round 1 is a tie, counted for neither
        assert row["change_won_rounds"] == 3

    def test_one_side_has_no_comparison(self, bench):
        row = bench._record("job[oracle-audit]", None, 1, {"change": [1.0, 3.0, 2.0, 4.0]})
        assert row["change"]["us"] == 2.5
        assert row["change"]["round_iqr_us"] == pytest.approx(3.25 - 1.75)
        assert "speedup" not in row and "change_won_rounds" not in row

    def test_every_row_has_one_shape(self, bench):
        rows = bench._rows()
        assert len(rows) == len(set(rows)) == 74
        records = [bench._record(op, size, 1, {"parent": [1.0], "change": [2.0]}) for op, size in rows]
        assert len({tuple(r) for r in records}) == 1
        assert {size for op, size in rows if op.startswith("job[")} == {None}


def test_profiled_calls_count_every_dataclass_constructor(bench):
    # every dataclass __init__ is compiled from <string> at one line, so
    # pstats' total_calls once merged these two constructors into one entry
    @dataclasses.dataclass
    class First:
        x: int

    @dataclasses.dataclass
    class Second:
        y: int

    def build():
        return First(1), Second(2), Second(3)

    # build, the three constructors and the profiler's own disable call;
    # pstats.Stats(profile).total_calls reads 4
    assert bench._profiled_calls(build) == 5


def test_crossover_from_synthetic_window_rows(bench):
    # the kernel wins 26 of 30 rounds at 60 stage-rows, then 27, 25 and 30:
    # the crossover is the first count with at least 27 wins
    wins = {60: 26, 90: 27, 120: 25, 150: 30}
    scan = [{"stage_rows": n, "kernel_won_rounds": k} for n, k in wins.items()]
    assert bench.CROSSOVER_WINS == 27
    assert bench._crossover(scan) == 90
    assert bench._crossover(scan[:1]) is None


def test_window_rows_include_the_periodic_worst_case(bench):
    assert ("_window_ends[periodic,B=3,H=450]", "3-cycle") in bench._rows()
    assert list(bench.SCAN_STAGE_ROWS) == [60, 90, 120, 150, 180, 210, 240]
