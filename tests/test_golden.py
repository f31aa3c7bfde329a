"""Golden traces: learner, sweep, benchmark and CLI outputs, and the
batch-last oracle's values and gradients, pinned bit for bit.

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

import numpy as np
import pytest

from sgl.analysis import exact_values, finite_difference_gradient
from sgl.cli import main as cli_main
from sgl.games import random_profile, save_game, uniform_profile
from sgl.generators import GeneratorSpec, convergence_benchmark, generate, sweep
from sgl.learner import _preset_schedule, default_schedule, run
from sgl.mirror import make_regularizer
from sgl.spsa import safety_net_for, smoothed_gradient_estimate

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

# games of the batch-last pins: the smoothed gradient carries the (1, 3, 2)
# game's single-action player along unperturbed
BATCH_SIZES = {
    "2s2p2a": dict(n_states=2, n_players=2, n_actions=2),
    "3s3p3a": dict(n_states=3, n_players=3, n_actions=3),
    "3s(1,3,2)a": dict(n_states=3, n_players=3, n_actions=(1, 3, 2)),
}
BATCH_OPS = ("exact_values", "smoothed_gradient_estimate", "finite_difference_gradient")
BATCH_PROFILES = 256
# crosses spsa.ORACLE_BLOCK's 256-draw boundary
SMOOTHING_DRAWS = 300


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


def trace_batch_last(size: str, op: str) -> str:
    """sha256 of the bytes of one batch-last oracle output on a
    random-ergodic game of the size: exact_values of BATCH_PROFILES random
    profiles, smoothed_gradient_estimate's means then stderrs at
    SMOOTHING_DRAWS draws, or finite_difference_gradient, player by player."""
    game = generate(GeneratorSpec(kind="random-ergodic", seed=0, **BATCH_SIZES[size]))
    rng = np.random.default_rng(1)
    policy = random_profile(game, rng, margin=0.3)
    if op == "exact_values":
        profiles = [random_profile(game, rng, margin=0.3) for _ in range(BATCH_PROFILES)]
        arrays = [exact_values(game, [np.stack(b) for b in zip(*(q.probs for q in profiles))])]
    elif op == "smoothed_gradient_estimate":
        delta = 0.5 * min(safety_net_for(game.n_states, m).radius for m in game.n_actions)
        means, stderrs = smoothed_gradient_estimate(game, policy, delta, SMOOTHING_DRAWS, 0)
        arrays = [*means, *stderrs]
    else:
        arrays = finite_difference_gradient(game, policy)
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


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


@pytest.mark.parametrize("op", BATCH_OPS)
@pytest.mark.parametrize("size", sorted(BATCH_SIZES))
def test_batch_last_bits(size, op, pins):
    assert trace_batch_last(size, op) == pins["batch_last"][size][op]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        doc = {
            "runs": {case: trace_run(case, tmp / case.replace("/", "_")) for case in RUN_CASES},
            "sweep_summary_sha256": trace_sweep(tmp / "sweep"),
            "convergence": {kind: trace_convergence(kind) for kind in KINDS},
            "learn": {},
            "batch_last": {
                size: {op: trace_batch_last(size, op) for op in BATCH_OPS}
                for size in sorted(BATCH_SIZES)
            },
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
