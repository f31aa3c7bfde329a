"""Golden traces: learner, sweep, benchmark and CLI outputs pinned bit for bit.

A refactor of the learner or its consumers must reproduce these exactly. A
change that is meant to move a seed's trajectory re-pins them, with the
reason stated, by running

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from sgl.cli import main as cli_main
from sgl.games import save_game, uniform_profile
from sgl.generators import GeneratorSpec, convergence_benchmark, generate, sweep
from sgl.learner import _preset_schedule, default_schedule, run
from sgl.mirror import make_regularizer

PINS = pathlib.Path(__file__).with_name("golden") / "traces.json"

KINDS = ("matching-pennies", "zerosum-switching")
MIRRORS = ("entropy", "euclidean")
SEEDS = (0, 1, 2)
ITERS = 2000
LOG_EVERY = 100

RUN_CASES = [f"{kind}/{mirror}/{seed}" for kind in KINDS for mirror in MIRRORS for seed in SEEDS]
_LONG = ["--iters", str(ITERS), "--log-every", str(LOG_EVERY)]
LEARN_CASES = {
    "zerosum-switching-ref": (GeneratorSpec(kind="zerosum-switching"), [*_LONG, "--ref", "uniform"]),
    "random-ergodic": (GeneratorSpec(kind="random-ergodic", n_states=2, seed=1), _LONG),
    "random-ergodic-oracle": (
        GeneratorSpec(kind="random-ergodic", n_states=2, seed=1),
        ["--iters", "200", "--log-every", "50", "--ref", "uniform", "--oracle"],
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def trace_run(case: str, out_dir) -> dict:
    kind, mirror, seed = case.split("/")
    game = generate(GeneratorSpec(kind=kind))
    log = run(
        game, default_schedule(game), make_regularizer(mirror), ITERS, int(seed),
        reference=uniform_profile(game), log_every=LOG_EVERY, out_dir=out_dir,
    )
    return {
        "run_csv_sha256": _sha256(pathlib.Path(out_dir) / "run.csv"),
        "final_scores": [y.tolist() for y in log.final_state.scores],
    }


def trace_sweep(out_dir) -> str:
    """sha256 of summary.json with the output directory written as <out>."""
    game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=0))
    sweep(
        game, [default_schedule(game), _preset_schedule(game, "power", None, 1.0)],
        SEEDS, ITERS,
        regularizer=make_regularizer("euclidean"), reference=uniform_profile(game),
        log_every=LOG_EVERY, out=out_dir,
    )
    text = (pathlib.Path(out_dir) / "summary.json").read_text()
    return hashlib.sha256(text.replace(str(out_dir), "<out>").encode()).hexdigest()


def trace_convergence(kind: str) -> str:
    result = convergence_benchmark(kind, ITERS, SEEDS, log_every=LOG_EVERY)
    return json.dumps(result, indent=1)


def trace_learn(case: str, tmp_dir) -> str:
    spec, args = LEARN_CASES[case]
    game_path = pathlib.Path(tmp_dir) / "game.json"
    save_game(generate(spec), game_path)
    argv = ["learn", "--game", str(game_path), "--seed", "0", *args]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_trace(case, pins, tmp_path):
    assert trace_run(case, tmp_path) == pins["runs"][case]


def test_sweep_summary(pins, tmp_path):
    assert trace_sweep(tmp_path) == pins["sweep_summary_sha256"]


@pytest.mark.parametrize("kind", KINDS)
def test_convergence_benchmark_result(kind, pins):
    assert trace_convergence(kind) == pins["convergence"][kind]


@pytest.mark.parametrize("case", sorted(LEARN_CASES))
def test_learn_summary(case, pins, tmp_path):
    assert trace_learn(case, tmp_path) == pins["learn"][case]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        doc = {
            "runs": {case: trace_run(case, tmp / case.replace("/", "_")) for case in RUN_CASES},
            "sweep_summary_sha256": trace_sweep(tmp / "sweep"),
            "convergence": {kind: trace_convergence(kind) for kind in KINDS},
            "learn": {},
        }
        for case in sorted(LEARN_CASES):
            (tmp / case).mkdir()
            doc["learn"][case] = trace_learn(case, tmp / case)
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    record()
