"""The arithmetic of scripts/bench.py's records, on synthetic rounds: no
timing and no child process."""

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
        assert len(rows) == len(set(rows)) == 53
        records = [bench._record(op, size, 1, {"parent": [1.0], "change": [2.0]}) for op, size in rows]
        assert len({tuple(r) for r in records}) == 1
        assert {size for op, size in rows if op.startswith("job[")} == {None}


def test_crossover_from_synthetic_window_rows(bench):
    # kernel: 40 us fixed plus 0.05 us per stage-row; walk: 0.45 us per
    # stage-row; they cost the same at 40 / (0.45 - 0.05) = 100 stage-rows
    us = {
        "_window_ends[B=3,H=1]": 40.0 + 0.05 * 6,
        "_window_ends[B=3,H=450]": 40.0 + 0.05 * 1353,
        "_walk[B=3,H=1]": 0.45 * 6,
        "_walk[B=3,H=450]": 0.45 * 1353,
        "_window_ends[B=1000,H=8]": 1.0,
        "_walk[B=1000,H=8]": 1.0,
    }
    rows = [{"op": op, "change": {"us": t}} for op, t in us.items()]
    rows.append({"op": "exact_value", "change": {"us": 1e9}})
    crossover = bench._crossover(rows)
    assert crossover["kernel_fixed_us"] == pytest.approx(40.0)
    assert crossover["kernel_us_per_stage_row"] == pytest.approx(0.05)
    assert crossover["walk_us_per_stage_row"] == pytest.approx(0.45)
    assert crossover["stage_rows"] == pytest.approx(100.0)
