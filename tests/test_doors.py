"""The package's doors for integers and generators: every integer argument
goes through games._count and every rng through games._generator, so a bad
one raises DomainError naming the argument, never a bare TypeError,
IndexError, OverflowError or the ValueError of an int too long to print.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgl.analysis import best_response, lipschitz_probe
from sgl.cli import _cmd_analyze
from sgl.errors import DomainError
from sgl.games import (
    MAX_WINDOW_BYTES,
    certification_sample,
    deterministic_profile,
    random_profile,
    rollout,
    save_game,
    uniform_profile,
)
from sgl.generators import GeneratorSpec, convergence_benchmark, generate, sweep
from sgl.learner import default_schedule, horizon_bias_check, run_batch
from sgl.mirror import make_regularizer
from sgl.spsa import bias_probe, sample_sphere, smoothed_gradient_estimate

GAME = generate(GeneratorSpec(kind="zerosum-switching"))  # 2 states, 2 players, 2 actions
POLICY = uniform_profile(GAME)
SCHEDULE = default_schedule(GAME)
ENTROPY = make_regularizer("entropy")
FLOAT_MAX = sys.float_info.max


def _learn(iters=2, seeds=(0,), **kw):
    return run_batch(GAME, SCHEDULE, ENTROPY, iters, list(seeds), **kw)


def _analyze(samples):
    """The document `sgl analyze` prints for GAME with args.samples set as is."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "game.json")
        save_game(GAME, path)
        args = argparse.Namespace(game=path, policy="uniform", samples=samples, seed=0, out=None)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _cmd_analyze(args)
    return out.getvalue()


# (the name a refusal shows, lo, hi, a call with the argument set to v)
INTEGER_ARGUMENTS = {
    "run_batch.iters": ("iters", 0, sys.maxsize, lambda v: _learn(iters=v)),
    "run_batch.log_every": ("log_every", 1, None, lambda v: _learn(3, log_every=v)),
    "run_batch.decomposition_draws": (
        "decomposition_draws", 1, FLOAT_MAX,
        lambda v: _learn(oracle_mode=True, decomposition_draws=v),
    ),
    "run_batch.start_state": ("start_state", 0, 1, lambda v: _learn(start_state=v)),
    "run_batch.seeds": ("seed", 0, None, lambda v: _learn(seeds=[0, v])),
    "horizon_bias_check.horizon": (
        "horizon", 0, sys.maxsize, lambda v: horizon_bias_check(GAME, POLICY, v, 3, rng=0)
    ),
    "horizon_bias_check.n_draws": (
        "n_draws", 2, sys.maxsize, lambda v: horizon_bias_check(GAME, POLICY, 2, v, rng=0)
    ),
    "horizon_bias_check.start_state": (
        "start_state", 0, 1,
        lambda v: horizon_bias_check(GAME, POLICY, 2, 3, rng=0, start_state=v),
    ),
    "rollout.horizon": ("horizon", 1, sys.maxsize, lambda v: rollout(GAME, POLICY, 0, v, 0)),
    "rollout.start_state": ("start_state", 0, 1, lambda v: rollout(GAME, POLICY, v, 3, 0)),
    "sample_sphere.d": ("d", 1, MAX_WINDOW_BYTES // 8, lambda v: sample_sphere(v, 0)),
    "smoothed_gradient_estimate.n_draws": (
        "n_draws", 1, FLOAT_MAX, lambda v: smoothed_gradient_estimate(GAME, POLICY, 0.05, v, 0)
    ),
    "lipschitz_probe.n_pairs": (
        "n_pairs", 1, sys.maxsize, lambda v: lipschitz_probe(GAME, v, 0)
    ),
    "best_response.player": ("player", 0, 1, lambda v: best_response(GAME, POLICY, v)),
    "deterministic_profile.actions": (
        "actions[1][0]", 0, 1, lambda v: deterministic_profile(GAME, [[0, 1], [v, 0]])
    ),
    **{
        f"GeneratorSpec.{field}": (
            field, lo, hi,
            lambda v, field=field: generate(GeneratorSpec(kind="random-ergodic", **{field: v})),
        )
        for field, lo, hi in (
            ("n_states", 1, math.isqrt(MAX_WINDOW_BYTES // 8)),
            ("n_players", 1, MAX_WINDOW_BYTES // 8),
            ("n_actions", 1, MAX_WINDOW_BYTES // 8),
            ("seed", 0, None),
        )
    },
    "convergence_benchmark.iters": (
        "iters", 1, sys.maxsize, lambda v: convergence_benchmark("matching-pennies", v, [0])
    ),
    "sweep.seeds": ("seed", 0, None, lambda v: sweep(GAME, [SCHEDULE], [1, v], 2, log_every=1)),
    # a sample profile is 2 states x 4 actions of floats
    "analyze.samples": ("samples", 1, MAX_WINDOW_BYTES // (8 * 2 * 4), _analyze),
}


def _values(lo, hi):
    """Floats, strings, None, integers below lo and past hi (10**5000 among
    them), and small valid ints, also as np.int64. A valid int past lo + 2
    is not drawn: an argument with no upper end asks for that much work,
    and a 10**5000-pair probe never ends."""
    top = lo + 2 if hi is None else min(hi, lo + 2)
    drawn = [
        st.floats(), st.text(max_size=3), st.none(),
        st.integers(max_value=lo - 1), st.integers(lo - 1, top).map(np.int64),
        st.integers(lo, top),
    ]
    if hi is not None:
        drawn += [st.integers(min_value=int(hi) + 1), st.just(10**5000)]
    return st.one_of(drawn)


def _same(a, b) -> bool:
    """a and b hold the same types and bits: dataclasses field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    return type(a) is type(b) and (a == b or a != a and b != b)


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_integer_argument_has_one_door(argument, data):
    name, lo, hi, call = INTEGER_ARGUMENTS[argument]
    value = data.draw(_values(lo, hi), label=name)
    integer = isinstance(value, (int, np.integer))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skipped checkpoint oracles warn
        if integer and lo <= value and (hi is None or value <= hi):
            result = call(value)
            if isinstance(value, np.integer):
                assert _same(result, call(int(value)))
            return
        shown = re.escape(name) + ("" if integer else "=.*")  # an int is never shown
        with pytest.raises(DomainError, match=f"^{shown}: need an integer (of at least|from) {lo}"):
            call(value)


@pytest.mark.parametrize("seeds, message", [
    (3, "seeds: need a list of integers"),
    (None, "seeds: need a list of integers"),
    ([], "seeds: need at least one seed"),
])
def test_a_seed_list_is_a_nonempty_iterable(seeds, message):
    for call in (
        lambda: run_batch(GAME, SCHEDULE, ENTROPY, 2, seeds),
        lambda: sweep(GAME, [SCHEDULE], seeds, 2),
        lambda: convergence_benchmark("matching-pennies", 2, seeds),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()


def test_a_seed_run_json_cannot_hold_is_refused(tmp_path):
    # a seed past the interpreter's int-to-str limit once ran the whole job
    # and then failed in json.dump, leaving a full run.csv beside an empty
    # run.json; each seed door refuses it before the first iteration, by its
    # position and the limit, without printing it
    limit = sys.get_int_max_str_digits()
    message = f"^seed at position 1: has more than {limit} decimal digits"
    for call in (
        lambda: run_batch(
            GAME, SCHEDULE, ENTROPY, 3, [0, 10**5000],
            out_dirs=[tmp_path / "a", tmp_path / "b"],
        ),
        lambda: sweep(GAME, [SCHEDULE], [1, 10**5000], 2, out=tmp_path / "sweep"),
        lambda: convergence_benchmark("matching-pennies", 2, [0, 10**5000], out=tmp_path / "c"),
    ):
        with pytest.raises(DomainError, match=message) as info:
            call()
        assert info.value.seed_index == 1
    assert list(tmp_path.iterdir()) == []


def test_the_seed_limit_follows_the_interpreter(tmp_path):
    # the limit is read at each call: at 640 digits (the least the
    # interpreter allows) 10**640 is refused and 10**640 - 1 runs and is
    # written; with no limit (0) 10**5000 runs
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(DomainError, match="^seed at position 0: has more than 640 decimal"):
            run_batch(GAME, SCHEDULE, ENTROPY, 2, [10**640])
        run_batch(GAME, SCHEDULE, ENTROPY, 2, [10**640 - 1], out_dirs=[tmp_path / "a"])
        assert json.loads((tmp_path / "a" / "run.json").read_text())["seed"] == 10**640 - 1
        sys.set_int_max_str_digits(0)
        assert run_batch(GAME, SCHEDULE, ENTROPY, 2, [10**5000])[0].seed == 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


RNG_ENTRY_POINTS = {
    "random_profile": lambda rng: random_profile(GAME, rng),
    "certification_sample": lambda rng: certification_sample(GAME, rng),
    "sample_sphere": lambda rng: sample_sphere(3, rng),
    "rollout": lambda rng: rollout(GAME, POLICY, 0, 3, rng),
    "horizon_bias_check": lambda rng: horizon_bias_check(GAME, POLICY, 2, 3, rng=rng),
    "smoothed_gradient_estimate": lambda rng: smoothed_gradient_estimate(
        GAME, POLICY, 0.05, 4, rng
    ),
    "bias_probe": lambda rng: bias_probe(GAME, POLICY, 0.05, 4, rng),
    "lipschitz_probe": lambda rng: lipschitz_probe(GAME, 2, rng),
}


@pytest.mark.parametrize("rng, shown", [(1.5, "rng=1.5"), (-1, "rng"), ("0", "rng='0'")])
@pytest.mark.parametrize("entry", RNG_ENTRY_POINTS)
def test_a_bad_rng_is_refused_by_name(entry, rng, shown):
    # np.random.default_rng raised a bare TypeError for 1.5 and "0" and a
    # bare ValueError for -1
    with pytest.raises(DomainError, match=f"^{re.escape(shown)}: need an integer of at least 0$"):
        RNG_ENTRY_POINTS[entry](rng)

