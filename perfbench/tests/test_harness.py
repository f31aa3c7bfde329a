"""Output checks, traced-run identity and the exit contract of the benchmark."""

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import harness
import sgl
import tracing
import workloads

SMALL = {
    "zerosum-converge": workloads.ZerosumConverge(iters=200, seeds_per_job=1, pool=1),
    "mixing-window": workloads.MixingWindow(iters=20, seeds_per_job=1, pool=1),
    "oracle-audit": workloads.OracleAudit(iters=10, pool=1, draws=8),
}


def _loop(wl, tmp_path, **kwargs):
    inputs = wl.make_inputs(3)
    ctx = wl.setup(inputs)
    return harness.JobLoop(wl, ctx, inputs["items"], tmp_path, **kwargs)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    wl = SMALL[name]
    untraced = _loop(wl, tmp_path)
    untraced.run_one()
    tracer = tracing.Tracer(sgl, name)
    tracer.install()
    try:
        traced = _loop(wl, tmp_path, expected=untraced.digests, tracer=tracer, first_job=1)
        traced.run_one()
    finally:
        tracer.uninstall()
    assert untraced.failed() == traced.failed() == 0
    assert traced.first_outputs == untraced.first_outputs
    assert tracer.spans


def _perturbed(tree):
    """Copy of an output tree with its first nonzero float scaled by 1 + 1e-6."""
    tree = copy.deepcopy(tree)
    stack = [tree]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            v = node[k]
            if isinstance(v, float) and v != 0.0:
                node[k] = v * (1.0 + 1e-6)
                return tree
            if isinstance(v, (dict, list)):
                stack.append(v)
    raise AssertionError("no float to perturb")


def test_perturbed_reference_is_a_failed_op(tmp_path):
    wl = SMALL["oracle-audit"]
    first = _loop(wl, tmp_path)
    first.run_one()
    outputs = first.first_outputs[0]

    roundoff = _loop(wl, tmp_path, reference={"items": [outputs]})
    roundoff.run_one()
    assert roundoff.failed() == 0

    broken = _loop(wl, tmp_path, reference={"items": [_perturbed(outputs)]})
    broken.run_one()
    broken.run_one()  # a repeat of the same pool item fails as well
    assert broken.failed() == 2


def test_compare_tolerance():
    ref = {"a": [1.0, 0.0, None, True], "b": "x"}
    assert workloads.compare(ref, {"a": [1.0 + 1e-12, 1e-13, None, True], "b": "x"}) == []
    assert workloads.compare(ref, {"a": [1.0 + 1e-6, 0.0, None, True], "b": "x"})
    assert workloads.compare(ref, {"a": [1.0, 0.0, None, 1], "b": "x"})
    assert workloads.compare(ref, {"a": [1.0, 0.0, None], "b": "x"})
    assert workloads.compare(ref, {"a": [1.0, 0.0, None, True]})


def test_run_csv_checks_catch_a_negative_gap(tmp_path):
    wl = SMALL["mixing-window"]
    loop = _loop(wl, tmp_path)
    loop.run_one()
    run_csv = copy.deepcopy(wl.run_csvs(loop.first_outputs[0])[0])
    assert workloads.check_run_csv(run_csv, wl.iters, wl.log_every, 2) == []
    gap = run_csv["header"].index("nash_gap")
    run_csv["rows"][0][gap] = -1e-6
    assert workloads.check_run_csv(run_csv, wl.iters, wl.log_every, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    bench = pathlib.Path(harness.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result_object(trace):
    root = pathlib.Path(harness.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-audit", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in doc["metrics"].items()
    }
